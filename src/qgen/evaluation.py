"""Word-level edit distance with a deterministic S/D/I/C decomposition, plus
corpus-wide summaries: distance distribution, exact-match rate, first words,
and word-count histograms.

The headline per-pair number is the raw edit distance (a word count); the
normalized rate distance/N is carried alongside. Words are compared after
lowercasing and splitting punctuation characters into their own tokens.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .preprocess import split_words

DISTANCE_BUCKETS = ("<=5", "6-10", "11-15", "16-20", ">=21")
_BUCKET_TOPS = (5, 10, 15, 20)  # the largest distance in each bucket but the last


@dataclass(frozen=True)
class EditAlignment:
    """Counts from one minimal-distance alignment of reference vs hypothesis."""

    substitutions: int
    deletions: int
    insertions: int
    correct: int

    @property
    def distance(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def ref_len(self) -> int:
        return self.substitutions + self.deletions + self.correct

    @property
    def hyp_len(self) -> int:
        return self.substitutions + self.insertions + self.correct


def _last_column(ref_words: list[str], hyp_words: list[str],
                 columns: list[tuple[int, int]] | None = None) -> tuple[int, int]:
    """Column m of D, computed bit-parallel over the reference words (Myers
    1999, in Hyyro's formulation); columns, if given, gets columns 0 ... m-1.

    D(i, j) is the distance between the first i reference words and the
    first j hypothesis words. Column j of D is two masks of its vertical
    steps D(i, j) - D(i-1, j): bit i-1 of plus is set where the step is +1,
    of minus where it is -1, so D(i, j) = j + the popcount of the i lowest
    bits of plus - that of minus. Each hypothesis word is one column step on
    Python ints, which have no width limit.
    """
    match: dict[str, int] = {}
    for i, word in enumerate(ref_words):
        match[word] = match.get(word, 0) | 1 << i
    rows = (1 << len(ref_words)) - 1
    plus, minus = rows, 0
    for word in hyp_words:
        if columns is not None:
            columns.append((plus, minus))
        eq = match.get(word, 0)
        down = eq | minus
        across = (((eq & plus) + plus) ^ plus) | eq
        # horizontal steps, moved down a row; row 0 steps by +1
        h_plus = (minus | ~(across | plus)) << 1 | 1
        h_minus = (plus & across) << 1
        plus = (h_minus | ~(down | h_plus)) & rows
        minus = h_plus & down
    return plus, minus


def edit_distance(ref_words: list[str], hyp_words: list[str]) -> int:
    """Unit-cost Levenshtein over words: D(n, m) alone, with no backtrace."""
    plus, minus = _last_column(ref_words, hyp_words)
    return len(hyp_words) + plus.bit_count() - minus.bit_count()


def edit_alignment(ref_words: list[str], hyp_words: list[str]) -> EditAlignment:
    """Unit-cost Levenshtein over words, with the counts of one minimal
    alignment backtraced through the columns of D. Among minimal alignments
    the backtrace prefers correct, then substitution, then deletion, then
    insertion, which pins the decomposition down even when several
    alignments share the minimal distance."""
    n, m = len(ref_words), len(hyp_words)
    columns: list[tuple[int, int]] = []
    last = _last_column(ref_words, hyp_words, columns)
    plus_cols, minus_cols = zip(*columns, last)
    cost = m + last[0].bit_count() - last[1].bit_count()  # D(i, j)
    s = d = ins = c = 0
    i, j = n, m
    while i and j:
        # D never falls along a diagonal, so a matching word is a minimal step
        if ref_words[i - 1] == hyp_words[j - 1]:
            c += 1
            i, j = i - 1, j - 1
            continue
        below = (1 << (i - 1)) - 1
        diag = (j - 1 + (plus_cols[j - 1] & below).bit_count()
                - (minus_cols[j - 1] & below).bit_count())
        if cost == diag + 1:
            s += 1
            i, j, cost = i - 1, j - 1, diag
            continue
        up = j + (plus_cols[j] & below).bit_count() - (minus_cols[j] & below).bit_count()
        if cost == up + 1:
            d += 1
            i, cost = i - 1, up
        else:
            ins += 1
            j, cost = j - 1, cost - 1
    return EditAlignment(s, d + i, ins + j, c)


def wer_tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace with punctuation as separate words."""
    return split_words(text.lower())


def question_distance(ref: str, hyp: str) -> EditAlignment:
    return edit_alignment(wer_tokenize(ref), wer_tokenize(hyp))


def first_word_frequency(questions: list[str]) -> list[tuple[str, int]]:
    """Counts of each question's first whitespace token, most frequent first
    (ties alphabetical). Empty questions are skipped."""
    counts = Counter(words[0] for words in map(str.split, questions) if words)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def word_count_histogram(questions: list[str]) -> tuple[float, dict[int, int]]:
    """(mean word count rounded to 2 decimals, {length: questions})."""
    lengths = [len(q.split()) for q in questions]
    if not lengths:
        return 0.0, {}
    hist = dict(sorted(Counter(lengths).items()))
    return round(sum(lengths) / len(lengths), 2), hist


def _bucket_of(distance: int) -> str:
    return DISTANCE_BUCKETS[bisect_left(_BUCKET_TOPS, distance)]


@dataclass
class PairRecord:
    question_id: str
    distance: int
    normalized: float
    ref_len: int
    hyp_len: int
    first_word_ref: str
    first_word_hyp: str


@dataclass
class CorpusReport:
    pairs: list[PairRecord]
    mean_distance: float
    mean_normalized: float
    exact_match_rate: float
    bucket_shares: dict[str, float]
    first_words_hyp: list[tuple[str, int]]
    first_words_ref: list[tuple[str, int]]
    hyp_word_mean: float
    hyp_word_hist: dict[int, int] = field(default_factory=dict)
    ref_word_mean: float = 0.0
    ref_word_hist: dict[int, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "question_count": len(self.pairs),
            "mean_distance": self.mean_distance,
            "mean_normalized": self.mean_normalized,
            "exact_match_rate": self.exact_match_rate,
            "bucket_shares": self.bucket_shares,
            "first_words_hyp": [list(kv) for kv in self.first_words_hyp],
            "first_words_ref": [list(kv) for kv in self.first_words_ref],
            "hyp_word_mean": self.hyp_word_mean,
            "hyp_word_hist": {str(k): v for k, v in self.hyp_word_hist.items()},
            "ref_word_mean": self.ref_word_mean,
            "ref_word_hist": {str(k): v for k, v in self.ref_word_hist.items()},
            "pairs": [
                {
                    "id": p.question_id,
                    "distance": p.distance,
                    "normalized": round(p.normalized, 6),
                }
                for p in self.pairs
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"questions          {len(self.pairs)}",
            f"mean distance      {self.mean_distance:.2f}",
            f"mean normalized    {self.mean_normalized:.4f}",
            f"exact match rate   {self.exact_match_rate:.4%}",
            "",
            "distance bucket    share",
        ]
        for name in DISTANCE_BUCKETS:
            lines.append(f"  {name:<15} {self.bucket_shares[name]:.4f}")
        lines.append("")
        lines.append("first word (generated)   count")
        for word, count in self.first_words_hyp[:10]:
            lines.append(f"  {word:<22} {count}")
        lines.append("")
        lines.append(f"mean words: generated {self.hyp_word_mean:.2f}, "
                     f"reference {self.ref_word_mean:.2f}")
        return "\n".join(lines) + "\n"

    def write_csv(self, fh) -> None:
        """The pairs as CSV rows after a header, to fh (opened with newline="")."""
        writer = csv.writer(fh)
        writer.writerow(
            ["id", "distance", "normalized", "ref_len", "hyp_len",
             "first_word_ref", "first_word_hyp"]
        )
        for p in self.pairs:
            writer.writerow(
                [p.question_id, p.distance, f"{p.normalized:.6f}",
                 p.ref_len, p.hyp_len, p.first_word_ref, p.first_word_hyp]
            )


def corpus_report(pairs: list[tuple[str, str, str]]) -> CorpusReport:
    """Aggregate (id, reference question, generated question) triples."""
    if not pairs:
        raise ValueError("corpus_report: no pairs")
    seen: set[str] = set()
    records: list[PairRecord] = []
    bucket_counts = Counter()
    exact = 0
    for qid, ref, hyp in pairs:
        if qid in seen:
            raise ValueError(f"corpus_report: duplicate id {qid!r}")
        seen.add(qid)
        ref_words = wer_tokenize(ref)
        hyp_words = wer_tokenize(hyp)
        dist = edit_distance(ref_words, hyp_words)
        normalized = dist / len(ref_words) if ref_words else float(dist > 0)
        bucket_counts[_bucket_of(dist)] += 1
        exact += dist == 0
        records.append(
            PairRecord(
                qid, dist, normalized, len(ref_words), len(hyp_words),
                ref_words[0] if ref_words else "",
                hyp_words[0] if hyp_words else "",
            )
        )
    n = len(records)
    refs = [ref for _, ref, _ in pairs]
    hyps = [hyp for _, _, hyp in pairs]
    ref_mean, ref_hist = word_count_histogram(refs)
    hyp_mean, hyp_hist = word_count_histogram(hyps)
    return CorpusReport(
        pairs=records,
        mean_distance=sum(r.distance for r in records) / n,
        mean_normalized=sum(r.normalized for r in records) / n,
        exact_match_rate=exact / n,
        bucket_shares={name: bucket_counts[name] / n for name in DISTANCE_BUCKETS},
        first_words_hyp=first_word_frequency(hyps),
        first_words_ref=first_word_frequency(refs),
        hyp_word_mean=hyp_mean,
        hyp_word_hist=hyp_hist,
        ref_word_mean=ref_mean,
        ref_word_hist=ref_hist,
    )
