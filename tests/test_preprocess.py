import random
import re
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_fixtures import SUPER_BOWL_PASSAGE, SUPER_BOWL_TAGGED
from qgen import preprocess
from qgen.preprocess import (
    ENTITY_TAGS,
    EntitySpan,
    GazetteerTagger,
    PreprocessError,
    _is_word_char,
    default_data_path,
    postprocess_question,
    preprocess_pair,
    remove_stopwords,
    replace_with_indexed_tags,
    split_words,
    tag_entities,
    tagged_wordpieces,
)
from qgen.wordpiece import BOS, EOS, PAD, SEPARATOR, TokenSequence, load_vocabulary


def reference_split_words(text: str) -> list[str]:
    """split_words as it was before it sliced words out of each chunk: the
    oracle for its output on any text."""
    def is_punctuation(c: str) -> bool:
        cp = ord(c)
        if 33 <= cp <= 47 or 58 <= cp <= 64 or 91 <= cp <= 96 or 123 <= cp <= 126:
            return True
        return unicodedata.category(c).startswith("P")

    words: list[str] = []
    for chunk in text.split():
        current = ""
        for c in chunk:
            if is_punctuation(c):
                if current:
                    words.append(current)
                    current = ""
                words.append(c)
            else:
                current += c
        if current:
            words.append(current)
    return words


def reference_scan(tagger: GazetteerTagger, text: str) -> list[EntitySpan]:
    """The tagger's former scan, kept as the oracle for its first-character
    index: every entry, longest first, tried at every word start on
    text.lower(). Valid only where lowercasing keeps every offset."""
    assert len(text.lower()) == len(text)
    lower = text.lower()
    spans: list[EntitySpan] = []
    i, n = 0, len(text)
    while i < n:
        if i > 0 and _is_word_char(text[i - 1]):
            i += 1
            continue
        hit = None
        for surface, tag in tagger.entries:
            j = i + len(surface)
            if lower.startswith(surface.lower(), i) and (
                j == n or not _is_word_char(text[j])
            ):
                hit = EntitySpan(i, j, tag, text[i:j])
                break
        if hit is not None:
            spans.append(hit)
            i = hit.end
        else:
            i += 1
    return spans


JOINERS = (" ", " ", " ", "", "x", "7", "_", ".", ",", "'s ", "-", " (", ") ")


def random_gazetteer_text(rng: random.Random, surfaces: list[str]) -> str:
    """Gazetteer surfaces and their prefixes in mixed case, glued by spaces,
    letters, digits, '_' or punctuation, some nested inside a longer surface."""
    multiword = [s for s in surfaces if " " in s]
    parts = []
    for _ in range(rng.randint(1, 8)):
        piece = rng.choice(surfaces)
        roll = rng.random()
        if roll < 0.2:
            piece = piece[: rng.randint(1, len(piece))]
        elif roll < 0.4:
            outer = rng.choice(multiword)
            cut = rng.choice([k for k, c in enumerate(outer) if c == " "])
            piece = f"{outer[:cut]} {piece}{outer[cut:]}"
        piece = "".join(rng.choice((c, c.lower(), c.upper())) for c in piece)
        parts.append(piece + rng.choice(JOINERS))
    return "".join(parts)


def test_regex_word_class_is_the_word_char_test():
    # the tagger finds word starts with (?<!\w); \w must be _is_word_char
    word = re.compile(r"\w")
    mismatched = [cp for cp in range(0x110000)
                  if bool(word.match(chr(cp))) != _is_word_char(chr(cp))]
    assert mismatched == []


class TestGazetteerTagger:
    def test_single_entry_match(self):
        tagger = GazetteerTagger([("Denver Broncos", "ORG")])
        spans = tag_entities("the Denver Broncos won", tagger)
        assert [(s.tag, s.surface) for s in spans] == [("ORG", "Denver Broncos")]

    def test_no_hits(self, tagger):
        assert tag_entities("nothing to see here", tagger) == []

    def test_longest_overlapping_candidate_wins(self, tagger):
        spans = tag_entities("the New York Times reported", tagger)
        assert [(s.tag, s.surface) for s in spans] == [("ORG", "New York Times")]

    def test_word_boundaries_respected(self):
        tagger = GazetteerTagger([("NFL", "ORG"), ("50", "DATE")])
        assert tag_entities("the NFLPA met", tagger) == []
        assert tag_entities("in 2050 they", tagger) == []
        spans = tag_entities("numerals 50.", tagger)
        assert [(s.surface, s.tag) for s in spans] == [("50", "DATE")]

    def test_case_insensitive_matching(self):
        tagger = GazetteerTagger([("the National Football League", "ORG")])
        spans = tag_entities("The National Football League formed", tagger)
        assert len(spans) == 1
        assert spans[0].surface == "The National Football League"

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="BADTAG"):
            GazetteerTagger([("x", "BADTAG")])

    def test_matches_align_with_text_offsets_when_lowercasing_lengthens(self):
        # 'İ'.lower() is two characters; matches after it keep their offsets
        tagger = GazetteerTagger([("Denver Broncos", "ORG")])
        text = "İstanbul and Denver Broncos fans"
        assert tagger(text) == [EntitySpan(13, 27, "ORG", "Denver Broncos")]
        assert GazetteerTagger([("İSTANBUL", "GPE")])(text) == \
            [EntitySpan(0, 8, "GPE", "İstanbul")]

    def test_index_matches_full_scan_on_corpus(self, tagger, records):
        texts = {r.passage for r in records} | {r.question for r in records}
        texts |= {a for r in records for a, _ in r.answers}
        hits = 0
        for text in sorted(texts):
            spans = tagger(text)
            assert spans == reference_scan(tagger, text), text
            hits += len(spans)
        assert hits > 100

    def test_index_matches_full_scan_on_random_texts(self, tagger):
        rng = random.Random(20190911)
        surfaces = [surface for surface, _ in tagger.entries]
        hits = 0
        for _ in range(1500):
            text = random_gazetteer_text(rng, surfaces)
            spans = tagger(text)
            assert spans == reference_scan(tagger, text), text
            hits += len(spans)
        assert hits > 1500

    def test_tagger_failure_carries_source(self):
        def broken(text):
            raise RuntimeError("boom")

        with pytest.raises(PreprocessError, match="passage-7"):
            tag_entities("text", broken, source="passage-7")


class TestReplaceWithIndexedTags:
    def test_distinct_surfaces_distinct_indices(self):
        text = "National Football League since then NFL"
        spans = [
            EntitySpan(0, 24, "ORG", "National Football League"),
            EntitySpan(36, 39, "ORG", "NFL"),
        ]
        tagged = replace_with_indexed_tags(text, spans)
        assert tagged.text == "ORG 0 since then ORG 1"
        assert tagged.entity_map["ORG"] == ["National Football League", "NFL"]

    def test_repeated_surface_shares_index(self):
        text = "Super Bowl then Super Bowl again"
        spans = [
            EntitySpan(0, 10, "EVENT", "Super Bowl"),
            EntitySpan(16, 26, "EVENT", "Super Bowl"),
        ]
        tagged = replace_with_indexed_tags(text, spans)
        assert tagged.text == "EVENT 0 then EVENT 0 again"

    def test_case_insensitive_surface_sharing(self):
        text = "Warsaw and WARSAW"
        spans = [EntitySpan(0, 6, "GPE", "Warsaw"), EntitySpan(11, 17, "GPE", "WARSAW")]
        tagged = replace_with_indexed_tags(text, spans)
        assert tagged.text == "GPE 0 and GPE 0"
        assert tagged.entity_map["GPE"] == ["Warsaw"]

    def test_no_spans_lowercases(self):
        tagged = replace_with_indexed_tags("Hello World", [])
        assert tagged.text == "hello world"
        assert tagged.entity_map == {}

    def test_overlapping_spans_rejected(self):
        spans = [EntitySpan(0, 8, "GPE", "New York"), EntitySpan(4, 14, "ORG", "York Times")]
        with pytest.raises(ValueError, match="overlap"):
            replace_with_indexed_tags("New York Times", spans)

    def test_replacement_is_deterministic(self, tagger):
        one = replace_with_indexed_tags(
            SUPER_BOWL_PASSAGE, tag_entities(SUPER_BOWL_PASSAGE, tagger)
        )
        two = replace_with_indexed_tags(
            SUPER_BOWL_PASSAGE, tag_entities(SUPER_BOWL_PASSAGE, tagger)
        )
        assert one.text == two.text
        assert one.entity_map == two.entity_map

    def test_index_coherence(self, tagger):
        tagged = replace_with_indexed_tags(
            SUPER_BOWL_PASSAGE, tag_entities(SUPER_BOWL_PASSAGE, tagger)
        )
        words = split_words(tagged.text)
        hits = 0
        for i, w in enumerate(words):
            if w in ENTITY_TAGS:
                index = int(words[i + 1])
                assert index < len(tagged.entity_map[w])
                hits += 1
        assert hits > 20

    def test_distinct_indices_have_distinct_surfaces(self, tagger):
        tagged = replace_with_indexed_tags(
            SUPER_BOWL_PASSAGE, tag_entities(SUPER_BOWL_PASSAGE, tagger)
        )
        for forms in tagged.entity_map.values():
            lowered = [f.lower() for f in forms]
            assert len(set(lowered)) == len(lowered)


class TestSplitWords:
    @pytest.mark.parametrize("text,expected", [
        ("gold-themed plans", ["gold", "-", "themed", "plans"]),
        ("24–10", ["24", "–", "10"]),
        ('the "golden anniversary" game', ["the", '"', "golden", "anniversary", '"', "game"]),
        ("was it (really)?", ["was", "it", "(", "really", ")", "?"]),
        ("one  two\tthree", ["one", "two", "three"]),
    ])
    def test_punctuation_becomes_tokens(self, text, expected):
        assert split_words(text) == expected

    def test_every_code_point_splits_as_the_reference_does(self):
        # each character after a letter, so none stands alone between spaces
        text = "".join("a" + chr(cp) for cp in range(0x110000))
        assert split_words(text) == reference_split_words(text)

    def test_random_mixed_strings_split_as_the_reference_does(self):
        rng = random.Random(11)
        common = list("ab1 .,'-éßЖ中\t\u00a0")
        for _ in range(2000):
            text = "".join(
                chr(rng.randrange(0x110000)) if rng.random() < 0.3 else rng.choice(common)
                for _ in range(rng.randrange(40))
            )
            assert split_words(text) == reference_split_words(text), repr(text)

    def test_random_ascii_strings_split_as_the_reference_does(self):
        # all 128 ASCII characters, controls too: str.split() takes \x1c-\x1f
        # for whitespace, and so must the word regex
        rng = random.Random(12)
        ascii_chars = [chr(cp) for cp in range(128)]
        for _ in range(5000):
            text = "".join(rng.choices(ascii_chars, k=rng.randrange(40)))
            assert split_words(text) == reference_split_words(text), repr(text)


class TestRemoveStopwords:
    def test_standard_removal(self, stoplist):
        assert remove_stopwords(["the", "game", "was", "played"], stoplist) == \
            ["game", "played"]

    def test_empty_input(self, stoplist):
        assert remove_stopwords([], stoplist) == []

    def test_tag_tokens_protected(self, stoplist):
        assert remove_stopwords(["EVENT", "0", "the"], stoplist) == ["EVENT", "0"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(
        ["the", "a", "game", "EVENT", "0", "champion", "of", "title"]), max_size=12))
    def test_idempotent(self, stoplist, tokens):
        once = remove_stopwords(tokens, stoplist)
        assert remove_stopwords(once, stoplist) == once


class TestPreprocessPair:
    def test_golden_passage_with_stopwords_retained(self, tagger, vocab):
        seq, tagged = tagged_wordpieces(SUPER_BOWL_PASSAGE, tagger, vocab, stoplist=None)
        assert " ".join(seq.tokens) == SUPER_BOWL_TAGGED
        assert tagged.entity_map["EVENT"] == ["Super Bowl"]
        assert tagged.entity_map["ORG"][3] == "Denver Broncos"

    def test_answer_reuses_passage_indices(self, tagger, stoplist, vocab):
        seq, tagged = preprocess_pair(
            "Denver Broncos", SUPER_BOWL_PASSAGE, tagger, stoplist, vocab
        )
        sep = seq.tokens.index(SEPARATOR)
        assert seq.tokens[:sep] == ["ORG", "3"]

    def test_exactly_one_separator(self, tagger, stoplist, vocab):
        seq, _ = preprocess_pair("gold", SUPER_BOWL_PASSAGE, tagger, stoplist, vocab)
        assert seq.tokens.count(SEPARATOR) == 1
        assert seq.ids.count(vocab.separator_id) == 1

    def test_stopwords_removed_from_both_sides(self, tagger, stoplist, vocab):
        seq, _ = preprocess_pair(
            "the gold title", SUPER_BOWL_PASSAGE, tagger, stoplist, vocab
        )
        sep = seq.tokens.index(SEPARATOR)
        assert seq.tokens[:sep] == ["gold", "title"]
        assert "the" not in seq.tokens

    def test_empty_answer_rejected(self, tagger, stoplist, vocab):
        with pytest.raises(ValueError, match="answer"):
            preprocess_pair("  ", SUPER_BOWL_PASSAGE, tagger, stoplist, vocab)

    def test_literal_separator_in_text_dropped(self, tagger, stoplist, vocab):
        seq, _ = preprocess_pair("gold * gold", "a gold * title here", tagger, stoplist, vocab)
        assert seq.tokens.count(SEPARATOR) == 1

    def test_each_distinct_word_is_tokenized_once_per_vocabulary(self, tagger, stoplist,
                                                                  vocab, monkeypatch):
        fresh = load_vocabulary(default_data_path("vocab.txt"))
        assert fresh.word_pieces == {}
        calls = []
        real = preprocess.tokenize

        def counted(word, v):
            calls.append(word)
            return real(word, v)

        monkeypatch.setattr(preprocess, "tokenize", counted)
        answer = "the Denver Broncos"
        first = preprocess_pair(answer, SUPER_BOWL_PASSAGE, tagger, stoplist, fresh)
        assert len(calls) == len(set(calls)) == len(fresh.word_pieces) > 10
        again = preprocess_pair(answer, SUPER_BOWL_PASSAGE, tagger, stoplist, fresh)
        assert len(calls) == len(fresh.word_pieces)
        assert first == again
        for word, (tokens, ids) in fresh.word_pieces.items():
            assert type(tokens) is tuple and type(ids) is tuple
            assert TokenSequence(list(tokens), list(ids)) == real(word, fresh)
        monkeypatch.undo()
        assert first == preprocess_pair(answer, SUPER_BOWL_PASSAGE, tagger, stoplist,
                                        load_vocabulary(default_data_path("vocab.txt")))


class TestPostprocessQuestion:
    def test_strips_markers_and_attaches_question_mark(self, vocab):
        tokens = [BOS, "where", "was", "PERSON", "8", "born", "?", EOS]
        seq = TokenSequence.from_tokens(tokens, vocab)
        assert postprocess_question(seq) == "where was PERSON 8 born?"

    def test_empty_question(self, vocab):
        seq = TokenSequence.from_tokens([BOS, EOS], vocab)
        assert postprocess_question(seq) == ""

    def test_merges_pieces_before_attaching(self, vocab):
        seq = TokenSequence.from_tokens(["suspend", "##ing", "?"], vocab)
        assert postprocess_question(seq) == "suspending?"

    def test_pad_stripped(self, vocab):
        seq = TokenSequence.from_tokens([BOS, "gold", EOS, PAD, PAD], vocab)
        assert postprocess_question(seq) == "gold"

    def test_returned_tagged_passage_is_the_passage(self, tagger, stoplist, vocab):
        _, tagged = preprocess_pair(
            "Denver Broncos", SUPER_BOWL_PASSAGE, tagger, stoplist, vocab
        )
        assert tagged.text.startswith("EVENT 0 DATE 0 was an NORP 0 football game")
        assert tagged.entity_map["ORG"][3] == "Denver Broncos"
