"""Checks of the benchmark's corpus synthesizer and question perturber.

    python3 -m pytest perfbench/test_corpus.py
"""

import collections
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import corpus  # noqa: E402
from qgen.cli import DEFAULTS, _load_shared  # noqa: E402
from qgen.evaluation import DISTANCE_BUCKETS, _bucket_of, question_distance  # noqa: E402
from qgen.squad import DEFAULT_BUCKET_BOUNDS, bucket_by_length, invert, load_squad  # noqa: E402

SOURCE = os.path.join(ROOT, "tests", "data", "squad_tiny.json")


@pytest.fixture(scope="module")
def source():
    return corpus.load_source(SOURCE)


@pytest.fixture(scope="module")
def shared():
    return _load_shared(dict(DEFAULTS))


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_synthesized_corpus_loads_and_lands_in_every_bucket(tmp_path, source, shared, seed):
    doc = corpus.synthesize(source, seed, corpus.BANDS, 24)
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    records = load_squad(path)  # raises on any answer offset that does not match

    assert len({r.question_id for r in records}) == len(records)
    passages = [p["context"] for a in doc["data"] for p in a["paragraphs"]]
    assert len(set(passages)) == len(passages) == 24
    per_passage = collections.Counter(r.passage for r in records)
    assert set(per_passage.values()) == {6}

    vocab, tagger, stoplist = shared
    examples = invert(records, tagger, stoplist, vocab)
    band_of = {r.question_id: int(r.title.rsplit("_b", 1)[1]) for r in records}
    buckets = bucket_by_length(examples)
    for bucket in buckets:
        assert len(bucket) == len(records) // 4
        for ex in bucket.examples:
            assert band_of[ex.question_id] == bucket.max_input
    assert [b.max_input for b in buckets] == [a for a, _ in DEFAULT_BUCKET_BOUNDS]


def test_synthesis_is_a_function_of_the_seed(source):
    assert corpus.synthesize(source, 3, corpus.BANDS, 8) == \
        corpus.synthesize(source, 3, corpus.BANDS, 8)
    assert corpus.synthesize(source, 3, corpus.BANDS, 8) != \
        corpus.synthesize(source, 4, corpus.BANDS, 8)


def test_perturbed_pairs_have_their_constructed_distance(source):
    doc = corpus.synthesize(source, 5, corpus.BANDS, 4)
    questions = [(r["id"], r["question"]) for r in corpus.records_of(doc)]
    pairs = corpus.perturbed_pairs(questions, 5, 5)
    shares = collections.Counter()
    for _, ref, hyp, want in pairs:
        assert corpus.edit_distance(corpus.words(ref), corpus.words(hyp)) == want
        assert question_distance(ref, hyp).distance == want
        shares[_bucket_of(want)] += 1
    assert set(shares) == set(DISTANCE_BUCKETS)
    assert len(set(shares.values())) == 1
