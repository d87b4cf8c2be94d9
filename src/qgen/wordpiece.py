"""WordPiece sub-word tokenization against a one-token-per-line vocabulary file.

Splitting is greedy longest-match-first; continuation pieces carry a leading
"##". A word that cannot be covered becomes a single [UNK].
"""

from __future__ import annotations

from dataclasses import dataclass

PAD = "[PAD]"
UNK = "[UNK]"
BOS = "[BOS]"
EOS = "[EOS]"
SEPARATOR = "*"

# BERT vocabulary files mark sequence boundaries differently; accept its
# markers as stand-ins when the literal ones are absent.
_RESERVED_ALIASES = {BOS: ("[CLS]",), EOS: ("[SEP]",)}

MAX_WORD_CHARS = 100


class VocabularyError(ValueError):
    """Problem with a vocabulary file."""


class DuplicateTokenError(VocabularyError):
    pass


class MissingReservedTokenError(VocabularyError):
    pass


class EmptyVocabularyError(VocabularyError):
    pass


class MalformedSequenceError(ValueError):
    """A token sequence violates the continuation-piece convention."""


class Vocabulary:
    """Immutable token inventory; id = line number in the source file."""

    def __init__(self, tokens: list[str]):
        if not tokens:
            raise EmptyVocabularyError("vocabulary is empty")
        self.tokens = list(tokens)
        self.ids: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if tok in self.ids:
                raise DuplicateTokenError(f"duplicate token {tok!r} at line {i + 1}")
            self.ids[tok] = i
        self._reserved: dict[str, int] = {}
        for name in (PAD, UNK, BOS, EOS, SEPARATOR):
            tok = name
            if tok not in self.ids:
                for alias in _RESERVED_ALIASES.get(name, ()):
                    if alias in self.ids:
                        tok = alias
                        break
                else:
                    raise MissingReservedTokenError(f"reserved token {name!r} not found")
            self._reserved[name] = self.ids[tok]
        # word -> tokenize's (pieces, ids), filled by preprocess for one CLI call
        self.word_pieces: dict[str, tuple[tuple[str, ...], tuple[int, ...]]] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.ids

    @property
    def pad_id(self) -> int:
        return self._reserved[PAD]

    @property
    def unk_id(self) -> int:
        return self._reserved[UNK]

    @property
    def bos_id(self) -> int:
        return self._reserved[BOS]

    @property
    def eos_id(self) -> int:
        return self._reserved[EOS]

    @property
    def separator_id(self) -> int:
        return self._reserved[SEPARATOR]

    def id_of(self, token: str) -> int:
        return self.ids.get(token, self.unk_id)

    def token_of(self, token_id: int) -> str:
        return self.tokens[token_id]


@dataclass
class TokenSequence:
    """Pieces with their vocabulary ids, kept in lockstep."""

    tokens: list[str]
    ids: list[int]

    def __post_init__(self):
        if len(self.tokens) != len(self.ids):
            raise ValueError("tokens and ids must have equal length")

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_tokens(cls, tokens: list[str], vocab: Vocabulary) -> "TokenSequence":
        return cls(list(tokens), [vocab.id_of(t) for t in tokens])

    @classmethod
    def from_ids(cls, ids, vocab: Vocabulary) -> "TokenSequence":
        ids = [int(i) for i in ids]
        return cls([vocab.token_of(i) for i in ids], ids)


def read_lines(path, error: type[ValueError] = ValueError):
    """Yield (line number, line) for each line of a UTF-8 text file, without
    its line end (\\n or \\r\\n). The file is decoded in one call; a byte that
    is not UTF-8 raises error naming path:line after the lines before it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        bad = exc.start
        text = data[: data.rfind(b"\n", 0, bad) + 1].decode("utf-8")
    lines = text.removesuffix("\n").split("\n") if text else []
    for lineno, line in enumerate(lines, 1):
        yield lineno, line.removesuffix("\r")
    if bad is not None:
        raise error(f"{path}:{len(lines) + 1}: not UTF-8 (byte 0x{data[bad]:02x})")


def load_vocabulary(path) -> Vocabulary:
    """Read a UTF-8 vocabulary file, one token per line, line number = id."""
    tokens = [line for _, line in read_lines(path, VocabularyError)]
    while tokens and tokens[-1] == "":
        tokens.pop()
    return Vocabulary(tokens)


def tokenize(word: str, vocab: Vocabulary) -> TokenSequence:
    """Split one whitespace-free word into pieces, greedy longest-match-first."""
    if word.split() != [word]:
        raise ValueError(f"tokenize expects a non-empty, whitespace-free word: {word!r}")
    if len(word) > MAX_WORD_CHARS:
        return TokenSequence([UNK], [vocab.unk_id])
    pieces: list[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = "##" + piece
            if piece in vocab:
                found = piece
                break
            end -= 1
        if found is None:
            return TokenSequence([UNK], [vocab.unk_id])
        pieces.append(found)
        start = end
    return TokenSequence.from_tokens(pieces, vocab)


def detokenize(seq: TokenSequence) -> str:
    """Merge continuation pieces back into words and join with single spaces."""
    words: list[str] = []
    for tok in seq.tokens:
        if tok.startswith("##"):
            if not words:
                raise MalformedSequenceError(
                    f"sequence starts with continuation piece {tok!r}"
                )
            words[-1] += tok[2:]
        else:
            words.append(tok)
    return " ".join(words).strip()
