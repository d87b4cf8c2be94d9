"""Seeded SQuAD v1.1 corpus synthesizer and question perturber.

New articles are assembled from the sentences of the bundled
``tests/data/squad_tiny.json``. Each synthesized passage keeps every question
of one source paragraph (six in the bundled file, as in SQuAD), the sentences
that hold their answers, and filler sentences drawn from the other
paragraphs until it reaches the character length of its length band. Answer
offsets are recomputed for the new passage. Nothing here calls ``qgen``: the
program under test only ever sees the generated files.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

# Characters per model input id, measured on the bundled passages after stop
# words are removed (range 5-11, mean 7.3). Only used to aim passage lengths
# at the middle of each CLI bucket; the unit test checks where they land.
CHARS_PER_ID = 7.3

# Passage length range (lo, hi), in ids, aimed at for each CLI bucket bound:
# filler blocks are added, never past hi, until the passage reaches lo. Band
# 64 takes a short source paragraph alone (39-48 ids), reordered.
BAND_TARGET_IDS = {64: (0, 56), 128: (80, 105), 256: (165, 215), 512: (330, 420)}
BANDS = tuple(BAND_TARGET_IDS)

# Edit distances of perturbed questions, one range per report bucket
# (<=5, 6-10, 11-15, 16-20, >=21).
DISTANCE_RANGES = ((0, 5), (6, 10), (11, 15), (16, 20), (21, 28))

_SENTENCE_END = re.compile(r'(?<=[.!?])\s+(?=[A-Z"(])')
_WORD = re.compile(r"\w+|[^\w\s]")


@dataclass
class SourceQuestion:
    question: str
    block: int  # index of the block (run of sentences) holding the answers
    answers: list[tuple[str, int]]  # (text, offset within the block)


@dataclass
class SourceParagraph:
    blocks: list[str]
    questions: list[SourceQuestion]

    @property
    def chars(self) -> int:
        return sum(len(b) for b in self.blocks) + len(self.blocks) - 1


def _sentence_spans(context: str) -> list[tuple[int, int]]:
    spans, start = [], 0
    for m in _SENTENCE_END.finditer(context):
        spans.append((start, m.start()))
        start = m.end()
    spans.append((start, len(context)))
    return spans


def load_source(path) -> list[SourceParagraph]:
    """Split each paragraph into blocks: single sentences, merged where one
    answer crosses a sentence boundary. Answers are kept when they lie inside
    the block of their question's first answer."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    paragraphs = []
    for article in doc["data"]:
        for para in article["paragraphs"]:
            context = para["context"]
            spans = _sentence_spans(context)
            for qa in para["qas"]:
                for ans in qa["answers"]:
                    lo, hi = ans["answer_start"], ans["answer_start"] + len(ans["text"])
                    hit = [i for i, (s, e) in enumerate(spans) if s < hi and lo < e]
                    if len(hit) > 1:
                        spans[hit[0]: hit[-1] + 1] = [(spans[hit[0]][0], spans[hit[-1]][1])]
            questions = []
            for qa in para["qas"]:
                first = qa["answers"][0]["answer_start"]
                block = next(i for i, (s, e) in enumerate(spans) if s <= first < e)
                s, e = spans[block]
                answers = [
                    (a["text"], a["answer_start"] - s)
                    for a in qa["answers"]
                    if s <= a["answer_start"] and a["answer_start"] + len(a["text"]) <= e
                ]
                questions.append(SourceQuestion(qa["question"], block, answers))
            paragraphs.append(
                SourceParagraph([context[s:e] for s, e in spans], questions)
            )
    return paragraphs


def _passage(rng, source, band, used):
    """Pick a paragraph, add filler blocks until the passage is within the
    band's length range, shuffle. Returns (passage text, paragraph, start
    offset of each of its blocks)."""
    lo, hi = (ids * CHARS_PER_ID for ids in BAND_TARGET_IDS[band])
    pool = [p for p in source if p.chars <= hi]
    for _ in range(1000):
        para = pool[int(rng.integers(len(pool)))]
        pieces = list(enumerate(para.blocks))
        length = para.chars
        fillers = [b for p in source if p is not para for b in p.blocks]
        for k in list(rng.permutation(len(fillers))) * 4:
            if length >= lo:
                break
            if length + len(fillers[k]) + 1 <= hi:
                pieces.append((None, fillers[k]))
                length += len(fillers[k]) + 1
        pieces = [pieces[i] for i in rng.permutation(len(pieces))]
        starts, offset = {}, 0
        for block, text in pieces:
            if block is not None:
                starts[block] = offset
            offset += len(text) + 1
        text = " ".join(text for _, text in pieces)
        if text not in used:
            used.add(text)
            return text, para, starts
    raise RuntimeError(f"no new distinct passage for band {band}")


def synthesize(source: list[SourceParagraph], seed: int, bands, passages: int) -> dict:
    """A SQuAD v1.1 document with `passages` paragraphs; paragraph i is aimed
    at bucket bands[i % len(bands)]. Question ids are distinct and sortable
    in paragraph order."""
    rng = np.random.default_rng(seed)
    used: set[str] = set()
    articles = []
    for i in range(passages):
        band = bands[i % len(bands)]
        text, para, starts = _passage(rng, source, band, used)
        qas = []
        for j, q in enumerate(para.questions):
            base = starts[q.block]
            qas.append({
                "id": f"q{i:05d}-{j}",
                "question": q.question,
                "answers": [{"text": t, "answer_start": base + off} for t, off in q.answers],
            })
        articles.append({
            "title": f"synth_{seed}_{i:05d}_b{band}",
            "paragraphs": [{"context": text, "qas": qas}],
        })
    return {"version": "1.1", "data": articles}


def records_of(doc: dict) -> list[dict]:
    """{id, passage, answer, question, title} per question, in document
    order; the answer is the first one listed."""
    rows = []
    for article in doc["data"]:
        for para in article["paragraphs"]:
            for qa in para["qas"]:
                rows.append({
                    "id": qa["id"],
                    "passage": para["context"],
                    "answer": qa["answers"][0]["text"],
                    "question": qa["question"],
                    "title": article["title"],
                })
    return rows


def words(text: str) -> list[str]:
    """Lowercased words with each punctuation character on its own, the
    way word-level edit distance is scored."""
    return _WORD.findall(text.lower())


def perturb(question: str, rng, distance: int) -> str:
    """Rewrite `question` at exactly `distance` word edits: substitute some
    words and insert others, all with words absent from the question. Every
    alignment must pay for each absent word, and this one pays for nothing
    else, so the edit distance is exactly `distance`."""
    tokens = words(question)
    present = set(tokens)
    fresh = []
    while len(fresh) < distance:
        w = "zq" + "".join(chr(97 + int(c)) for c in rng.integers(0, 26, size=4))
        if w not in present:
            present.add(w)
            fresh.append(w)
    subs = int(rng.integers(0, min(len(tokens), distance) + 1))
    out = list(tokens)
    for pos, w in zip(rng.choice(len(out), size=subs, replace=False), fresh[:subs]):
        out[pos] = w
    for w in fresh[subs:]:
        out.insert(int(rng.integers(0, len(out) + 1)), w)
    return " ".join(out)


def perturbed_pairs(questions: list[tuple[str, str]], seed: int, per_question: int):
    """(pair id, reference, hypothesis, expected distance) tuples. Distances
    cycle through DISTANCE_RANGES so every report bucket gets an equal share."""
    rng = np.random.default_rng(seed)
    pairs = []
    for qid, question in questions:
        for k in range(per_question):
            lo, hi = DISTANCE_RANGES[len(pairs) % len(DISTANCE_RANGES)]
            d = int(rng.integers(lo, hi + 1))
            pairs.append((f"{qid}~{k}", question, perturb(question, rng, d), d))
    return pairs


def edit_distance(ref: list[str], hyp: list[str]) -> int:
    """Plain two-row Levenshtein distance, kept separate from qgen's so the
    benchmark can check the report against it."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h)))
        prev = cur
    return prev[-1]
