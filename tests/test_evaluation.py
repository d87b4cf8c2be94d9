import csv
import json
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_fixtures import WER_PAIRS
from qgen.evaluation import (
    DISTANCE_BUCKETS,
    EditAlignment,
    _bucket_of,
    corpus_report,
    edit_alignment,
    edit_distance,
    first_word_frequency,
    question_distance,
    wer_tokenize,
    word_count_histogram,
)


def brute_distance(ref, hyp):
    """Direct recursive Levenshtein definition, memoized."""
    ref, hyp = tuple(ref), tuple(hyp)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        sub = 0 if ref[i - 1] == hyp[j - 1] else 1
        return min(rec(i - 1, j - 1) + sub, rec(i - 1, j) + 1, rec(i, j - 1) + 1)

    return rec(len(ref), len(hyp))


def reference_alignment(ref_words, hyp_words):
    """edit_alignment as a full dynamic-programming table, as it was before
    it went bit-parallel: the oracle for its S/D/I/C counts."""
    n, m = len(ref_words), len(hyp_words)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dp[i][0] = i
    for j in range(1, m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        row, prev = dp[i], dp[i - 1]
        ref_word = ref_words[i - 1]
        for j in range(1, m + 1):
            cost = 0 if ref_word == hyp_words[j - 1] else 1
            row[j] = min(prev[j - 1] + cost, prev[j] + 1, row[j - 1] + 1)
    s = d = ins = c = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref_words[i - 1] == hyp_words[j - 1] \
                and dp[i][j] == dp[i - 1][j - 1]:
            c += 1
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + 1:
            s += 1
            i, j = i - 1, j - 1
        elif i > 0 and dp[i][j] == dp[i - 1][j] + 1:
            d += 1
            i -= 1
        else:
            ins += 1
            j -= 1
    return EditAlignment(s, d, ins, c)


def random_words(rng, max_len=8, vocab=("a", "b", "c", "d", "e")):
    return [vocab[i] for i in rng.integers(0, len(vocab), size=rng.integers(0, max_len + 1))]


class TestEditAlignment:
    def test_identical_sequences(self):
        a = edit_alignment(["where", "was", "PERSON", "8", "born", "?"],
                           ["where", "was", "PERSON", "8", "born", "?"])
        assert a.distance == 0
        assert a.correct == 6

    def test_single_substitution(self):
        ref = wer_tokenize("what is the largest city of GPE 1?")
        hyp = wer_tokenize("what is the largest area of GPE 1?")
        a = edit_alignment(ref, hyp)
        assert (a.substitutions, a.deletions, a.insertions) == (1, 0, 0)

    def test_mixed_alignment_decomposition(self):
        a = question_distance(
            "when did the launches of boilerplate csms occur in orbit?",
            "when was the ORDINAL 0 satellite launched?",
        )
        assert a.distance == 8
        assert (a.substitutions, a.deletions, a.insertions, a.correct) == (5, 3, 0, 3)

    def test_empty_hypothesis_all_deletions(self):
        a = edit_alignment(["a", "b", "c"], [])
        assert (a.substitutions, a.deletions, a.insertions, a.correct) == (0, 3, 0, 0)

    def test_empty_reference_all_insertions(self):
        a = edit_alignment([], ["x", "y"])
        assert (a.substitutions, a.deletions, a.insertions, a.correct) == (0, 0, 2, 0)

    def test_backtrace_prefers_correct_then_substitution(self):
        a = edit_alignment(["a", "b"], ["b"])
        assert (a.substitutions, a.deletions, a.insertions, a.correct) == (0, 1, 0, 1)
        b = edit_alignment(["a", "b"], ["c"])
        assert (b.substitutions, b.deletions, b.insertions, b.correct) == (1, 1, 0, 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            ref, hyp = random_words(rng), random_words(rng)
            assert edit_alignment(ref, hyp).distance == brute_distance(ref, hyp)

    def test_count_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            ref, hyp = random_words(rng), random_words(rng)
            a = edit_alignment(ref, hyp)
            assert a.ref_len == len(ref)
            assert a.hyp_len == len(hyp)

    def test_counts_match_the_full_table_on_random_pairs(self):
        # small alphabets make ties between alignments common; lengths up to
        # 80 cross the 64-word boundary of a machine word
        rng = random.Random(20191)
        for k in range(20_000):
            alphabet = "abcd"[: 2 + k % 3]
            longest = 80 if k % 10 == 0 else 16
            ref = rng.choices(alphabet, k=rng.randint(0, longest))
            hyp = rng.choices(alphabet, k=rng.randint(0, longest))
            assert edit_alignment(ref, hyp) == reference_alignment(ref, hyp), (ref, hyp)

    def test_counts_match_the_full_table_on_question_pairs(self):
        for ref, hyp, _ in WER_PAIRS:
            ref_words, hyp_words = wer_tokenize(ref), wer_tokenize(hyp)
            assert edit_alignment(ref_words, hyp_words) == \
                reference_alignment(ref_words, hyp_words), (ref, hyp)

    def test_metric_axioms(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, y, z = (random_words(rng) for _ in range(3))
            dxy = edit_alignment(x, y).distance
            assert dxy == edit_alignment(y, x).distance
            assert edit_alignment(x, x).distance == 0
            dxz = edit_alignment(x, z).distance
            dzy = edit_alignment(z, y).distance
            assert dxy <= dxz + dzy


# Word lists over a small alphabet, so that words repeat and minimal
# alignments tie, and long enough to cross 64 words (one machine word).
WORD_LISTS = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=90)


class TestEditDistance:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(WORD_LISTS, WORD_LISTS)
    def test_equals_the_alignment_and_both_oracles(self, ref, hyp):
        distance = edit_distance(ref, hyp)
        assert distance == edit_alignment(ref, hyp).distance
        assert distance == brute_distance(ref, hyp)
        assert distance == reference_alignment(ref, hyp).distance

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(WORD_LISTS, WORD_LISTS), min_size=1, max_size=6))
    def test_report_pairs_equal_those_of_the_alignment(self, word_pairs):
        pairs = [(f"q{k}", " ".join(ref), " ".join(hyp))
                 for k, (ref, hyp) in enumerate(word_pairs)]
        for record, (_, ref, hyp) in zip(corpus_report(pairs).pairs, pairs):
            alignment = question_distance(ref, hyp)
            normalized = (alignment.distance / alignment.ref_len if alignment.ref_len
                          else float(alignment.distance > 0))
            assert (record.distance, record.normalized, record.ref_len, record.hyp_len) \
                == (alignment.distance, normalized, alignment.ref_len, alignment.hyp_len)


class TestWerTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert wer_tokenize("Where was PERSON 8 born?") == \
            ["where", "was", "person", "8", "born", "?"]

    def test_comma_inside_word(self):
        assert wer_tokenize("increases,according to") == \
            ["increases", ",", "according", "to"]


class TestCorpusReport:
    def test_two_pair_arithmetic(self):
        report = corpus_report([
            ("q1", "what is it?", "what is it?"),
            ("q2", "what is it?", "what was it?"),
        ])
        assert report.mean_distance == pytest.approx(0.5)
        assert report.exact_match_rate == pytest.approx(0.5)
        assert report.bucket_shares["<=5"] == pytest.approx(1.0)

    def test_all_identical(self):
        report = corpus_report([(f"q{i}", "same thing?", "same thing?") for i in range(5)])
        assert report.mean_distance == 0.0
        assert report.exact_match_rate == 1.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            corpus_report([("q1", "a?", "a?"), ("q1", "b?", "b?")])

    def test_each_distance_falls_in_its_named_bucket(self):
        for distance in range(40):
            lows = [0, 6, 11, 16, 21]
            want = sum(distance >= low for low in lows) - 1
            assert _bucket_of(distance) == DISTANCE_BUCKETS[want], distance
        assert [_bucket_of(d) for d in (5, 6, 10, 11, 15, 16, 20, 21)] == \
            ["<=5", "6-10", "6-10", "11-15", "11-15", "16-20", "16-20", ">=21"]

    def test_bucket_shares_sum_to_one(self):
        pairs = [(f"q{i}", ref, hyp) for i, (ref, hyp, _) in enumerate(WER_PAIRS)]
        report = corpus_report(pairs)
        assert sum(report.bucket_shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_matches_independent_recomputation(self):
        pairs = [(f"q{i}", ref, hyp) for i, (ref, hyp, _) in enumerate(WER_PAIRS)]
        report = corpus_report(pairs)
        distances = [
            brute_distance(wer_tokenize(ref), wer_tokenize(hyp))
            for _, ref, hyp in pairs
        ]
        assert report.mean_distance == pytest.approx(sum(distances) / len(distances))
        assert report.exact_match_rate == pytest.approx(
            sum(d == 0 for d in distances) / len(distances)
        )
        share_low = sum(d <= 5 for d in distances) / len(distances)
        assert report.bucket_shares["<=5"] == pytest.approx(share_low)

    def test_csv_and_json_outputs(self, tmp_path):
        report = corpus_report([
            ("q1", "what is it?", "what was it?"),
            ("q2", "who did that?", "who did that?"),
        ])
        csv_path = tmp_path / "report.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            report.write_csv(fh)
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["id"] for r in rows] == ["q1", "q2"]
        assert rows[0]["distance"] == "1"
        doc = report.to_json_dict()
        assert doc["question_count"] == 2
        json.dumps(doc)
        text = report.to_text()
        assert "mean distance" in text


class TestFirstWordFrequency:
    def test_basic_counting(self):
        got = first_word_frequency(["what is x?", "what is y?", "who is z?"])
        assert got == [("what", 2), ("who", 1)]

    def test_empty_list(self):
        assert first_word_frequency([]) == []

    def test_reference_questions_rank_what_first(self):
        refs = [ref for ref, _, _ in WER_PAIRS]
        table = first_word_frequency(refs)
        assert table[0][0] == "what"


class TestWordCountHistogram:
    def test_single_question(self):
        assert word_count_histogram(["a b c"]) == (3.0, {3: 1})

    def test_two_questions(self):
        mean, hist = word_count_histogram(["a", "a b"])
        assert mean == pytest.approx(1.5)
        assert hist == {1: 1, 2: 1}

    def test_empty(self):
        assert word_count_histogram([]) == (0.0, {})

    def test_generated_column_mean_matches_hand_count(self):
        hyps = [hyp for _, hyp, _ in WER_PAIRS]
        counts = [len(h.split()) for h in hyps]
        mean, hist = word_count_histogram(hyps)
        assert mean == pytest.approx(round(sum(counts) / len(counts), 2))
        assert sum(hist.values()) == len(hyps)
