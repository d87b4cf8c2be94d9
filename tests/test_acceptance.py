"""Acceptance suite: every gate this package must clear, one test per
criterion, each printing a single PASS/FAIL line. Independent oracles (naive
re-implementations, brute-force enumeration, finite differences) are computed
in place rather than trusted from the code under test."""

import json
import os
import time
from functools import lru_cache

import numpy as np
import pytest

from conftest import DATA_DIR
from corpus_fixtures import SUPER_BOWL_PASSAGE, SUPER_BOWL_TAGGED, WER_PAIRS
from gradcheck import check_gradients
from test_generation import TableModel, enumerate_best, reference_greedy, small_model
from test_model import naive_attention

from qgen.cli import main as cli_main
from qgen.evaluation import corpus_report, first_word_frequency, question_distance, wer_tokenize
from qgen.generation import GenerationConfig, beam_search, greedy_decode
from qgen.model import (
    ModelConfig,
    MultiHeadParams,
    ParameterMaker,
    TransformerModel,
    attention,
    multi_head,
)
from qgen.preprocess import tagged_wordpieces
from qgen.squad import bucket_by_length, invert, load_squad
from qgen.tensor import Tensor, cross_entropy_with_logits
from qgen.training import TrainConfig, TrainState, teacher_forced_accuracy, train_step
from qgen.wordpiece import UNK, TokenSequence, detokenize, tokenize


def accept(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def brute_distance(ref, hyp):
    """Direct recursive Levenshtein definition over two token tuples, memoized."""

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return i + j
        sub = 0 if ref[i - 1] == hyp[j - 1] else 1
        return min(rec(i - 1, j - 1) + sub, rec(i - 1, j) + 1, rec(i, j - 1) + 1)

    return rec(len(ref), len(hyp))


def test_c01_wer_fixture_values():
    """Every fixture question pair must reproduce its expected distance, and
    every expected distance must equal the recursive definition's."""
    started = time.perf_counter()
    got = [question_distance(ref, hyp).distance for ref, hyp, _ in WER_PAIRS]
    elapsed = time.perf_counter() - started
    want = [d for _, _, d in WER_PAIRS]
    oracle = [
        brute_distance(tuple(wer_tokenize(ref)), tuple(wer_tokenize(hyp)))
        for ref, hyp, _ in WER_PAIRS
    ]
    mismatches = [
        f"fixture row {i}: expected {w}, oracle {o}"
        for i, (w, o) in enumerate(zip(want, oracle)) if w != o
    ] + [
        f"row {i}: got {g}, expected {w}"
        for i, (g, w) in enumerate(zip(got, want)) if g != w
    ]
    ok = not mismatches and elapsed < 1.0
    accept(
        "wer fixture values",
        ok,
        "; ".join(mismatches) or f"{elapsed * 1000:.0f} ms",
    )


def test_c02_wer_brute_force_oracle():
    """DP distance equals the recursive definition on 10,000 random pairs."""
    rng = np.random.default_rng(0)
    vocab = ("a", "b", "c", "d", "e")
    mismatches = 0
    for _ in range(10_000):
        ref = tuple(vocab[i] for i in rng.integers(0, 5, size=rng.integers(0, 9)))
        hyp = tuple(vocab[i] for i in rng.integers(0, 5, size=rng.integers(0, 9)))
        if question_distance(" ".join(ref), " ".join(hyp)).distance != brute_distance(ref, hyp):
            mismatches += 1
    accept("wer brute-force oracle", mismatches == 0, f"{mismatches} mismatches / 10000")


def test_c03_preprocessing_golden_passage(tagger, vocab):
    started = time.perf_counter()
    seq, tagged = tagged_wordpieces(SUPER_BOWL_PASSAGE, tagger, vocab, stoplist=None)
    elapsed = time.perf_counter() - started
    got = " ".join(seq.tokens)
    ok = got == SUPER_BOWL_TAGGED and elapsed < 1.0
    detail = f"{elapsed * 1000:.0f} ms"
    if got != SUPER_BOWL_TAGGED:
        diffs = [
            i for i, (a, b) in enumerate(zip(got.split(), SUPER_BOWL_TAGGED.split()))
            if a != b
        ]
        detail = f"first token mismatch at {diffs[:3]}"
    accept("preprocessing golden passage", ok, detail)


def test_c04_wordpiece_split_and_round_trip(vocab):
    split_ok = tokenize("suspending", vocab).tokens == ["suspend", "##ing"]
    words = [
        t for t in vocab.tokens
        if t.isalpha() and t.islower() and not t.startswith("##") and len(t) > 1
    ]
    rng = np.random.default_rng(1)
    failures = 0
    for _ in range(1_000):
        text = " ".join(rng.choice(words, size=rng.integers(1, 9)))
        pieces = []
        for w in text.split():
            pieces.extend(tokenize(w, vocab).tokens)
        if UNK in pieces or detokenize(TokenSequence.from_tokens(pieces, vocab)) != text:
            failures += 1
    accept(
        "wordpiece split and round trip",
        split_ok and failures == 0,
        f"suspending={split_ok}, round-trip failures={failures}/1000",
    )


def test_c05_attention_math():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(100):
        mq, mk, d, dv = rng.integers(1, 9, size=4)
        q, k = rng.normal(size=(mq, d)), rng.normal(size=(mk, d))
        v = rng.normal(size=(mk, dv))
        got = attention(Tensor(q), Tensor(k), Tensor(v)).data
        worst = max(worst, float(np.abs(got - naive_attention(q, k, v)).max()))

    d_model = 6
    params = MultiHeadParams(d_model, 1, ParameterMaker(np.random.default_rng(3)), "t")
    for w in (params.wq, params.wk, params.wv, params.wo):
        w.data = np.eye(d_model)
    x = Tensor(rng.normal(size=(5, d_model)))
    rows = np.ones((1, 5), dtype=bool)  # one sequence, every position real
    reduction_err = float(
        np.abs(multi_head(x, params, None, rows, x, rows).data - attention(x, x, x).data).max()
    )
    accept(
        "attention math",
        worst < 1e-10 and reduction_err < 1e-12,
        f"naive diff {worst:.1e}, h=1 reduction diff {reduction_err:.1e}",
    )


def test_c06_full_model_gradient_check():
    cfg = ModelConfig(vocab_size=16, d_model=8, num_heads=2, enc_layers=2,
                      dec_layers=2, d_ff=16, max_positions=16, dropout=0.0,
                      pad_id=0, bos_id=2, eos_id=3)
    model = TransformerModel(cfg, seed=7)
    rng = np.random.default_rng(0)
    src = rng.integers(4, 16, size=(2, 5))
    src[0, 4] = 0
    tgt = rng.integers(4, 16, size=(2, 4))
    tgt[1, 3] = 0
    dec_in = np.column_stack([np.full(2, 2), tgt[:, :-1]])

    def f():
        return cross_entropy_with_logits(model.forward(src, dec_in), tgt, pad_id=0)

    started = time.perf_counter()
    worst_name, worst_err = "", 0.0
    for p in model.parameters():
        err = check_gradients(f, p, step=1e-5)
        if err > worst_err:
            worst_name, worst_err = p.name, err
    elapsed = time.perf_counter() - started
    accept(
        "full model gradient check",
        worst_err < 1e-4 and elapsed < 60.0,
        f"worst {worst_err:.2e} at {worst_name}, {elapsed:.1f}s",
    )


def test_c07_decoder_causality():
    rng = np.random.default_rng(4)
    failures = 0
    for case in range(20):
        model = small_model(seed=case % 5, vocab_size=12)
        src = rng.integers(4, 12, size=(1, rng.integers(2, 7)))
        t = int(rng.integers(2, 6))
        dec = rng.integers(4, 12, size=(1, t))
        base = model.forward(src, dec).data
        j = int(rng.integers(1, t))
        perturbed = dec.copy()
        perturbed[0, j:] = (perturbed[0, j:] + rng.integers(1, 7)) % 8 + 4
        got = model.forward(src, perturbed).data
        if not np.array_equal(base[0, :j], got[0, :j]):
            failures += 1
    accept("decoder causality", failures == 0, f"{failures} failures / 20 cases")


def test_c08_overfit_smoke(records, tagger, stoplist, vocab):
    started = time.perf_counter()
    examples = invert(records, tagger, stoplist, vocab)[:32]
    buckets = bucket_by_length(examples)
    cfg = ModelConfig(vocab_size=len(vocab), d_model=64, num_heads=4, enc_layers=2,
                      dec_layers=2, d_ff=256, max_positions=256, dropout=0.0,
                      pad_id=vocab.pad_id, bos_id=vocab.bos_id, eos_id=vocab.eos_id)
    model = TransformerModel(cfg, seed=0)
    tcfg = TrainConfig(total_steps=300, base_lr=3e-3, warmup_steps=100,
                       batch_size=32, checkpoint_interval=1000, seed=0)
    state = TrainState(model, seed=0)
    occupied = [b for b in buckets if len(b)]
    weights = np.array([len(b) for b in occupied], float)
    weights /= weights.sum()
    while state.step < tcfg.total_steps:
        bucket = occupied[int(state.rng.choice(len(occupied), p=weights))]
        idx = state.rng.choice(len(bucket), size=tcfg.batch_size,
                               replace=len(bucket) < tcfg.batch_size)
        train_step(model, bucket.batch(idx, cfg.pad_id), state, tcfg)
    accuracy = teacher_forced_accuracy(model, buckets)
    gen = GenerationConfig(beam_width=1, max_length=24)
    exact = 0
    for ex in examples:
        hyp = greedy_decode(model, np.array(ex.input_ids), gen)
        exact += list(hyp.tokens) == ex.target_ids[1:]
    elapsed = time.perf_counter() - started
    accept(
        "overfit smoke test",
        accuracy > 0.95 and exact >= 28 and elapsed < 900,
        f"accuracy {accuracy:.4f}, greedy exact {exact}/32, {elapsed:.0f}s",
    )


def test_c09_beam_search():
    cfg1 = GenerationConfig(beam_width=1, max_length=8)
    model = small_model(seed=11, vocab_size=10)
    rng = np.random.default_rng(5)
    greedy_mismatches = 0
    for _ in range(50):
        ids = rng.integers(4, 10, size=rng.integers(2, 7))
        want = reference_greedy(model, ids, cfg1.max_length).tokens
        if beam_search(model, ids, cfg1)[0].tokens != want or \
                greedy_decode(model, ids, cfg1).tokens != want:
            greedy_mismatches += 1

    cfg4 = GenerationConfig(beam_width=4, max_length=3, length_alpha=0.6)
    enum_mismatches = 0
    table_rng = np.random.default_rng(6)
    for _ in range(20):
        table = table_rng.normal(size=(3, 4))
        toy = TableModel(table)
        if beam_search(toy, np.array([1]), cfg4)[0].tokens != \
                enumerate_best(table, cfg4, eos=3).tokens:
            enum_mismatches += 1
    accept(
        "beam search",
        greedy_mismatches == 0 and enum_mismatches == 0,
        f"greedy mismatches {greedy_mismatches}/50, "
        f"enumeration mismatches {enum_mismatches}/20",
    )


def test_c10a_squad_dev_file_count():
    path = os.environ.get("SQUAD_DEV_JSON", str(DATA_DIR / "dev-v1.1.json"))
    if not os.path.exists(path):
        print("[ACCEPTANCE] squad dev-set count: SKIP (dev-v1.1.json not present; "
              "set SQUAD_DEV_JSON to run)")
        pytest.skip("SQuAD v1.1 dev file not available in this environment")
    records = load_squad(path)
    accept("squad dev-set count", len(records) == 10_570, f"{len(records)} records")


def test_c10b_bucket_partition(examples, buckets):
    total = sum(len(b) for b in buckets)
    ids = [e.question_id for b in buckets for e in b.examples]
    ok = total == len(examples) and len(ids) == len(set(ids))
    accept("bucket partition", ok, f"{total} examples across {len(buckets)} buckets")


def _pipeline_run(tmp_path, tag):
    run = tmp_path / tag
    run.mkdir()
    cache = run / "cache.jsonl"
    out = run / "out"
    small = ["--model.d_model", "32", "--model.num_heads", "2", "--model.d_ff", "64",
             "--model.enc_layers", "1", "--model.dec_layers", "1",
             "--model.dropout", "0.1", "--model.max_positions", "160"]
    assert cli_main([
        "preprocess", "--paths.squad_json", str(DATA_DIR / "squad_tiny.json"),
        "--paths.examples_cache", str(cache), "--paths.out_dir", str(out),
    ]) == 0
    assert cli_main([
        "train", "--paths.examples_cache", str(cache), "--paths.out_dir", str(out),
        "--train.total_steps", "100", "--train.warmup_steps", "50",
        "--train.batch_size", "8", "--train.checkpoint_interval", "50",
        "--seed", "0", *small,
    ]) == 0
    gen_in = run / "gen_in.jsonl"
    rows = [
        {"id": "g1", "passage": "The gold was found in Warsaw.", "answer": "gold"},
        {"id": "g2", "passage": "Nikola Tesla was born in Smiljan in 1856.",
         "answer": "Smiljan"},
    ]
    gen_in.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    gen_out = run / "gen_out.jsonl"
    assert cli_main([
        "generate", "--paths.out_dir", str(out),
        "--generate.beam_width", "2", "--generate.max_length", "8",
        str(gen_in), str(gen_out),
    ]) == 0
    refs = run / "refs.jsonl"
    refs.write_text(
        json.dumps({"id": "g1", "question": "what was found?"}) + "\n"
        + json.dumps({"id": "g2", "question": "where was PERSON 0 born?"}) + "\n",
        encoding="utf-8",
    )
    assert cli_main([
        "evaluate", "--paths.out_dir", str(out), str(refs), str(gen_out),
    ]) == 0
    return run


def _stripped_metrics(run):
    lines = (run / "out" / "metrics.jsonl").read_text().splitlines()
    records = [json.loads(l) for l in lines]
    for r in records:
        r.pop("tokens_per_sec")
    return records


def test_c11_end_to_end_determinism(tmp_path):
    first = _pipeline_run(tmp_path, "one")
    second = _pipeline_run(tmp_path, "two")
    compared = [
        "cache.jsonl", "gen_out.jsonl",
        "out/checkpoint/config.json", "out/checkpoint/model.bin",
        "out/checkpoint/state.bin", "out/preprocess_summary.json",
        "out/report.json", "out/report.csv", "out/report.txt",
    ]
    different = [
        rel for rel in compared
        if (first / rel).read_bytes() != (second / rel).read_bytes()
    ]
    metrics_equal = _stripped_metrics(first) == _stripped_metrics(second)
    accept(
        "end-to-end determinism",
        not different and metrics_equal,
        f"differing files: {different or 'none'}, metrics equal: {metrics_equal}",
    )


def test_c12_report_integrity():
    pairs = [(f"q{i}", ref, hyp) for i, (ref, hyp, _) in enumerate(WER_PAIRS)]
    report = corpus_report(pairs)
    share_sum = sum(report.bucket_shares.values())
    refs = [ref for ref, _, _ in WER_PAIRS]
    top_word = first_word_frequency(refs)[0][0]
    accept(
        "report integrity",
        abs(share_sum - 1.0) <= 1e-9 and top_word == "what",
        f"bucket share sum {share_sum:.12f}, top first word {top_word!r}",
    )
