import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgen.wordpiece import (
    BOS,
    EOS,
    PAD,
    SEPARATOR,
    UNK,
    DuplicateTokenError,
    EmptyVocabularyError,
    MalformedSequenceError,
    MissingReservedTokenError,
    TokenSequence,
    detokenize,
    load_vocabulary,
    read_lines,
    tokenize,
)

RESERVED = [PAD, UNK, BOS, EOS, SEPARATOR]


def write_vocab(tmp_path, tokens):
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    return path


class TestLoadVocabulary:
    def test_five_line_file(self, tmp_path):
        v = load_vocabulary(write_vocab(tmp_path, RESERVED))
        assert len(v) == 5
        assert [v.ids[t] for t in RESERVED] == [0, 1, 2, 3, 4]

    def test_duplicate_token_named(self, tmp_path):
        path = write_vocab(tmp_path, RESERVED + ["dog", "dog"])
        with pytest.raises(DuplicateTokenError, match="dog"):
            load_vocabulary(path)

    def test_missing_reserved_token(self, tmp_path):
        path = write_vocab(tmp_path, [PAD, UNK, BOS, EOS])
        with pytest.raises(MissingReservedTokenError, match=r"\*"):
            load_vocabulary(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmptyVocabularyError):
            load_vocabulary(path)

    def test_bert_style_markers_accepted(self, tmp_path):
        v = load_vocabulary(write_vocab(tmp_path, [PAD, UNK, "[CLS]", "[SEP]", "*"]))
        assert v.bos_id == 2
        assert v.eos_id == 3

    def test_packaged_vocabulary(self, vocab):
        assert vocab.ids[SEPARATOR] == vocab.separator_id
        visible_ascii = [chr(c) for c in range(33, 127)]
        missing = [c for c in visible_ascii if c not in vocab]
        assert missing == []

    def test_ids_stable_across_save_and_load(self, vocab, tmp_path):
        path = tmp_path / "copy.txt"
        path.write_text("".join(tok + "\n" for tok in vocab.tokens), encoding="utf-8")
        again = load_vocabulary(path)
        assert again.tokens == vocab.tokens
        assert again.ids == vocab.ids


class TestTokenize:
    def test_suspending(self, vocab):
        assert tokenize("suspending", vocab).tokens == ["suspend", "##ing"]

    def test_numerals(self, vocab):
        assert tokenize("numerals", vocab).tokens == ["nu", "##meral", "##s"]

    def test_whole_word_in_vocabulary(self, vocab):
        assert tokenize("football", vocab).tokens == ["football"]

    def test_unknown_word_with_unknown_characters(self, vocab):
        assert tokenize("éé", vocab).tokens == [UNK]

    def test_very_long_word_becomes_unk(self, vocab):
        assert tokenize("a" * 101, vocab).tokens == [UNK]

    def test_rejects_empty_and_whitespace(self, vocab):
        with pytest.raises(ValueError):
            tokenize("", vocab)
        with pytest.raises(ValueError):
            tokenize("two words", vocab)

    def test_ids_match_tokens(self, vocab):
        seq = tokenize("suspending", vocab)
        assert seq.ids == [vocab.ids["suspend"], vocab.ids["##ing"]]

    def test_first_piece_is_longest_vocabulary_prefix(self, vocab):
        rng_words = ["golden", "gold", "goldx", "footballs", "numerals", "nux"]
        for word in rng_words:
            first = tokenize(word, vocab).tokens[0]
            if first == UNK:
                continue
            prefixes = [
                word[:k] for k in range(len(word), 0, -1) if word[:k] in vocab
            ]
            assert first == prefixes[0]

    def test_pieces_concatenate_to_word_or_unk(self, vocab):
        for word in ["suspending", "numerals", "zzzqqqé", "prominently"]:
            toks = tokenize(word, vocab).tokens
            if toks == [UNK]:
                continue
            rebuilt = toks[0] + "".join(t[2:] for t in toks[1:])
            assert rebuilt == word
            assert all(t and t != "##" for t in toks)


class TestDetokenize:
    def test_merges_continuations(self, vocab):
        seq = TokenSequence.from_tokens(["suspend", "##ing"], vocab)
        assert detokenize(seq) == "suspending"

    def test_single_piece(self, vocab):
        assert detokenize(TokenSequence.from_tokens(["hello"], vocab)) == "hello"

    def test_mixed_sequence(self, vocab):
        seq = TokenSequence.from_tokens(["nu", "##meral", "##s", "of", "water"], vocab)
        assert detokenize(seq) == "numerals of water"

    def test_leading_continuation_rejected(self, vocab):
        seq = TokenSequence.from_tokens(["##ing", "x"], vocab)
        with pytest.raises(MalformedSequenceError):
            detokenize(seq)


@pytest.fixture(scope="module")
def plain_words(vocab):
    return sorted(
        t for t in vocab.tokens
        if t.isalpha() and t.islower() and not t.startswith("##") and len(t) > 1
    )


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_vocab_word_text_round_trips(self, vocab, plain_words, data):
        words = data.draw(st.lists(st.sampled_from(plain_words), min_size=1, max_size=8))
        text = " ".join(words)
        pieces = []
        for w in text.split():
            pieces.extend(tokenize(w, vocab).tokens)
        assert UNK not in pieces
        assert detokenize(TokenSequence.from_tokens(pieces, vocab)) == text

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_fused_word_round_trips_when_not_unk(self, vocab, plain_words, data):
        """Concatenating two vocabulary words may split anywhere, but merging
        the pieces must reproduce the fused word."""
        a = data.draw(st.sampled_from(plain_words))
        b = data.draw(st.sampled_from(plain_words))
        fused = a + b
        toks = tokenize(fused, vocab).tokens
        if toks == [UNK]:
            return
        assert detokenize(TokenSequence.from_tokens(toks, vocab)) == fused


class TestWordLengthBound:
    def test_hundred_character_word_still_tokenizes(self, vocab):
        word = "a" * 100
        toks = tokenize(word, vocab).tokens
        assert toks != [UNK]
        assert toks[0] == "a"

    def test_over_bound_is_unk(self, vocab):
        assert tokenize("a" * 101, vocab).tokens == [UNK]


def lines_one_at_a_time(path):
    """read_lines as it was when it decoded the binary file a line at a time:
    the oracle for its lines, and for the error that ends them."""
    lines = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return lines, f"{path}:{lineno}: not UTF-8 (byte 0x{raw[exc.start]:02x})"
            lines.append((lineno, line.removesuffix("\n").removesuffix("\r")))
    return lines, None


def lines_read_whole(path):
    lines = []
    try:
        for item in read_lines(path):
            lines.append(item)
    except ValueError as exc:
        return lines, str(exc)
    return lines, None


# Byte runs that make line ends, blank lines, multi-byte characters (U+2028,
# a line separator that is not a line end here, among them) and bytes that
# are not UTF-8: a lone continuation byte, a cut-off sequence, Latin-1 é.
CHUNKS = [b"a", b"word ", b"\n", b"\r", b"\r\n", "é".encode(), "\u2028".encode(),
          b"\x80", b"\xe2\x82", b"\xe9"]


class TestReadLines:
    @pytest.mark.parametrize("data", [
        b"", b"\n", b"\n\n", b"one", b"one\n", b"one\ntwo", b"one\r\ntwo\r\n",
        b"one\r\n\r\n\r\ntwo", b"lone\rcarriage\n", b"ends\r", b"two\r\r\n",
        "in\u2028line\nnext\u2029\n".encode(), b"\n\nblank lines first\n\n",
    ], ids=repr)
    def test_lines_equal_those_read_a_line_at_a_time(self, tmp_path, data):
        path = tmp_path / "text.txt"
        path.write_bytes(data)
        want, error = lines_one_at_a_time(path)
        assert error is None
        assert list(read_lines(path)) == want

    @pytest.mark.parametrize("bad_line", [1, 2, 4])
    def test_a_bad_byte_ends_the_lines_with_the_same_message(self, tmp_path, bad_line):
        rows = [b"first", b"second\r", "th\u00efrd".encode(), b"fourth", b"fifth"]
        rows[bad_line - 1] = b"caf\xe9 " + rows[bad_line - 1]
        path = tmp_path / "text.txt"
        path.write_bytes(b"\n".join(rows) + b"\n")
        got, error = lines_read_whole(path)
        assert (got, error) == lines_one_at_a_time(path)
        assert len(got) == bad_line - 1
        assert error == f"{path}:{bad_line}: not UTF-8 (byte 0xe9)"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from(CHUNKS), max_size=12))
    def test_any_bytes_give_the_lines_and_error_of_the_line_reader(self, chunks):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "text.txt")
            with open(path, "wb") as fh:
                fh.write(b"".join(chunks))
            assert lines_read_whole(path) == lines_one_at_a_time(path)
