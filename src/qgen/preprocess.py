"""Text normalization: entity tagging, indexed tag replacement, lowercasing,
punctuation splitting, stop-word removal, and assembly of model inputs.

Entities are found on the raw text first, replaced by "TAG i" pairs (the index
is its own token), and only then is the remaining text lowercased and split.
Distinct surface forms of one tag type get distinct indices in first-occurrence
order; repeats of the same surface (case-insensitive) share an index.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from typing import Iterable, Protocol

from .wordpiece import (
    BOS, EOS, PAD, SEPARATOR, TokenSequence, Vocabulary, detokenize, read_lines, tokenize,
)

ENTITY_TAGS = (
    "PERSON", "NORP", "FAC", "ORG", "GPE", "LOC", "PRODUCT", "EVENT",
    "WORK_OF_ART", "LAW", "LANGUAGE", "DATE", "TIME", "PERCENT", "MONEY",
    "QUANTITY", "ORDINAL", "CARDINAL",
)


class PreprocessError(ValueError):
    """An input could not be encoded; the message names the stage or record."""


@dataclass(frozen=True)
class EntitySpan:
    """A tagged region of raw text, [start, end) character offsets."""

    start: int
    end: int
    tag: str
    surface: str

    def __post_init__(self):
        if self.tag not in ENTITY_TAGS:
            raise ValueError(f"unknown entity tag {self.tag!r}")
        if not 0 <= self.start < self.end:
            raise ValueError(f"bad span offsets [{self.start}, {self.end})")


@dataclass
class TaggedPassage:
    """Text with indexed tags substituted, plus the tag -> surfaces map."""

    text: str
    entity_map: dict[str, list[str]] = field(default_factory=dict)


class EntityTagger(Protocol):
    """Anything that maps raw text to a list of EntitySpan."""

    def __call__(self, text: str) -> list[EntitySpan]: ...


def _is_word_char(c: str) -> bool:
    return c.isalnum() or c == "_"


# Each character that no word character precedes; in a str pattern, \w is
# exactly _is_word_char.
_WORD_START = re.compile(r"(?<!\w).", re.DOTALL)


class GazetteerTagger:
    """Deterministic tagger: longest surface form wins, word boundaries only,
    case-insensitive. A stand-in for a statistical recognizer.

    A surface matches at a word start i when text[i:j].lower() equals
    surface.lower(), with j = i + len(surface): offsets are the text's own, so
    a character that lowercases to two does not shift later matches.
    """

    def __init__(self, entries: Iterable[tuple[str, str]]):
        self.entries: list[tuple[str, str]] = []
        for surface, tag in entries:
            if tag not in ENTITY_TAGS:
                raise ValueError(f"gazetteer entry {surface!r} has unknown tag {tag!r}")
            if not surface:
                raise ValueError("gazetteer surface form is empty")
            self.entries.append((surface, tag))
        # longest first so overlapping candidates resolve to the longer form
        self.entries.sort(key=lambda e: (-len(e[0]), e[0]))
        # first lowercased character -> (length, lowercased surface, tag), in
        # the order above; a match's slice lowercases to the same first char
        self._index: dict[str, list[tuple[int, str, str]]] = {}
        for surface, tag in self.entries:
            folded = surface.lower()
            self._index.setdefault(folded[0], []).append((len(surface), folded, tag))

    @classmethod
    def from_tsv(cls, path) -> "GazetteerTagger":
        entries = []
        for lineno, line in read_lines(path):
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'surface<TAB>TAG'")
            entries.append((parts[0], parts[1]))
        return cls(entries)

    def __call__(self, text: str) -> list[EntitySpan]:
        spans: list[EntitySpan] = []
        n = len(text)
        end = 0
        for match in _WORD_START.finditer(text):
            i = match.start()
            if i < end:
                continue
            for length, folded, tag in self._index.get(text[i].lower()[0], ()):
                j = i + length
                if j <= n and text[i:j].lower() == folded and (
                    j == n or not _is_word_char(text[j])
                ):
                    spans.append(EntitySpan(i, j, tag, text[i:j]))
                    end = j
                    break
        return spans


def tag_entities(text: str, tagger: EntityTagger, source: str = "") -> list[EntitySpan]:
    """Run the tagger and validate its output for this text."""
    if not text:
        raise ValueError("tag_entities: text is empty")
    try:
        spans = sorted(tagger(text), key=lambda s: s.start)
    except Exception as exc:
        where = f" in {source}" if source else ""
        raise PreprocessError(f"entity tagger failed{where}: {exc}") from exc
    prev_end = 0
    for s in spans:
        if s.end > len(text):
            raise PreprocessError(f"span [{s.start}, {s.end}) exceeds text length")
        if s.start < prev_end:
            raise PreprocessError(f"overlapping entity spans at offset {s.start}")
        if text[s.start:s.end] != s.surface:
            raise PreprocessError(f"span surface mismatch at offset {s.start}")
        prev_end = s.end
    return spans


def replace_with_indexed_tags(
    text: str,
    spans: list[EntitySpan],
    entity_map: dict[str, list[str]] | None = None,
) -> TaggedPassage:
    """Substitute each span with "TAG i" and lowercase everything else.

    An existing entity_map may be passed in so a second text (answer or
    question) reuses the indices already assigned to the passage.
    """
    emap: dict[str, list[str]] = {k: list(v) for k, v in (entity_map or {}).items()}
    out: list[str] = []
    pos = 0
    prev_end = 0
    for s in sorted(spans, key=lambda x: x.start):
        if s.start < prev_end:
            raise ValueError(f"overlapping spans at offset {s.start}")
        prev_end = s.end
        out.append(text[pos:s.start].lower())
        forms = emap.setdefault(s.tag, [])
        key = s.surface.lower()
        for idx, known in enumerate(forms):
            if known.lower() == key:
                break
        else:
            idx = len(forms)
            forms.append(s.surface)
        out.append(f"{s.tag} {idx}")
        pos = s.end
    out.append(text[pos:].lower())
    return TaggedPassage("".join(out), emap)


# In ASCII, symbols such as $ and + split words too; elsewhere only the
# Unicode punctuation categories (P*) do. The regex finds each run of
# characters that are neither whitespace nor ASCII punctuation, and each ASCII
# punctuation character; a run holding a non-ASCII character is then split
# again at its Unicode punctuation.
_ASCII_PUNCTUATION = re.escape("".join(c for c in map(chr, range(33, 127)) if not c.isalnum()))
_WORDS = re.compile(rf"[^\s{_ASCII_PUNCTUATION}]+|[{_ASCII_PUNCTUATION}]")


def split_words(text: str) -> list[str]:
    """Whitespace-split, then break punctuation characters into their own tokens."""
    if text.isascii():
        return _WORDS.findall(text)
    words: list[str] = []
    for word in _WORDS.findall(text):
        if word.isascii():
            words.append(word)
        else:
            # word holds no whitespace, so spaces put round its punctuation split it
            words += "".join(f" {c} " if unicodedata.category(c)[0] == "P" else c
                             for c in word).split()
    return words


def load_stopwords(path) -> frozenset[str]:
    return frozenset(w.strip() for _, w in read_lines(path) if w.strip())


def remove_stopwords(tokens: list[str], stoplist: frozenset[str]) -> list[str]:
    """Drop stop-list members, preserving order. Tag names and bare digit
    tokens (tag indices) always survive."""
    return [t for t in tokens if t not in stoplist or t in ENTITY_TAGS or t.isdigit()]


def _pieces(words: list[str], vocab: Vocabulary) -> TokenSequence:
    tokens: list[str] = []
    ids: list[int] = []
    memo = vocab.word_pieces  # each distinct word is tokenized once
    for w in words:
        pieces = memo.get(w)
        if pieces is None:
            seq = tokenize(w, vocab)
            pieces = memo[w] = tuple(seq.tokens), tuple(seq.ids)
        tokens.extend(pieces[0])
        ids.extend(pieces[1])
    return TokenSequence(tokens, ids)


def tagged_wordpieces(
    text: str,
    tagger: EntityTagger,
    vocab: Vocabulary,
    stoplist: frozenset[str] | None = None,
    entity_map: dict[str, list[str]] | None = None,
    source: str = "",
) -> tuple[TokenSequence, TaggedPassage]:
    """Full single-text pipeline: tag, replace, split, (optionally) strip
    stop words, then WordPiece."""
    spans = tag_entities(text, tagger, source=source)
    tagged = replace_with_indexed_tags(text, spans, entity_map)
    words = split_words(tagged.text)
    # a literal separator in the source text would break the one-separator
    # structure of assembled inputs
    words = [w for w in words if w != SEPARATOR]
    if stoplist is not None:
        words = remove_stopwords(words, stoplist)
    return _pieces(words, vocab), tagged


def preprocess_pair(
    answer: str,
    passage: str,
    tagger: EntityTagger,
    stoplist: frozenset[str],
    vocab: Vocabulary,
    passages: dict[str, tuple[TokenSequence, TaggedPassage]] | None = None,
) -> tuple[TokenSequence, TaggedPassage]:
    """Build the model input: answer pieces, one separator, passage pieces.

    Entity indices are assigned over the passage first; the answer reuses that
    map so identical surfaces share indices. A caller that encodes many pairs
    with one tagger, stoplist and vocab may pass the same `passages` dict to
    each call: it maps passage text to its encoding, so a passage shared by
    several answers is tagged and split once. Cached entries are never mutated.
    """
    if not answer.strip():
        raise ValueError("preprocess_pair: answer is empty")
    if not passage.strip():
        raise ValueError("preprocess_pair: passage is empty")
    if passages is not None and passage in passages:
        passage_seq, passage_tagged = passages[passage]
    else:
        passage_seq, passage_tagged = tagged_wordpieces(
            passage, tagger, vocab, stoplist, source="passage"
        )
        if passages is not None:
            passages[passage] = passage_seq, passage_tagged
    answer_seq, joint = tagged_wordpieces(
        answer, tagger, vocab, stoplist,
        entity_map=passage_tagged.entity_map, source="answer",
    )
    tokens = answer_seq.tokens + [SEPARATOR] + passage_seq.tokens
    ids = answer_seq.ids + [vocab.separator_id] + passage_seq.ids
    return TokenSequence(tokens, ids), TaggedPassage(passage_tagged.text, joint.entity_map)


def postprocess_question(seq: TokenSequence) -> str:
    """Turn decoded pieces into a readable question: strip control tokens,
    merge continuations, and re-attach '?' to the preceding word."""
    tokens = [t for t in seq.tokens if t not in (BOS, EOS, PAD)]
    ids = [i for t, i in zip(seq.tokens, seq.ids) if t not in (BOS, EOS, PAD)]
    if not tokens:
        return ""
    if tokens[0].startswith("##"):
        # a decoder may emit a continuation piece first; treat it as a word start
        tokens[0] = tokens[0][2:]
    text = detokenize(TokenSequence(tokens, ids))
    text = text.replace(" ?", "?")
    return " ".join(text.split())


def default_data_path(name: str):
    """Path to a data file shipped inside the package."""
    return resources.files("qgen").joinpath("data", name)
