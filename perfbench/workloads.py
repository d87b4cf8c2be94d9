"""The three workloads: set-up, one timed operation, and its output checks.

Each operation calls the function that ``qgen <stage>`` runs after parsing
its flags (``qgen.cli.cmd_<stage>``), in-process, with the CLI defaults
(``workers`` = 1) and only the paths and step counts overridden.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time

import numpy as np

import qgen.cli
import qgen.generation
import qgen.squad
import qgen.tensor
from qgen.model import TransformerModel
from qgen.preprocess import postprocess_question
from qgen.training import TrainState
from qgen.wordpiece import TokenSequence

import corpus
from reference import DECODE, DENSE, TEXT
from spans import Patches, replace_function

_clock = time.perf_counter

SOURCE = os.path.join("tests", "data", "squad_tiny.json")


class OpResult:
    """What one timed operation did: items processed, items whose checks
    failed, wall seconds and item counts per CLI stage, and output facts.
    verify() runs the output checks, after timing and tracing have stopped,
    and returns the number of failed items."""

    def __init__(self):
        self.items = 0
        self.failed = 0
        self.stages: dict[str, list[float]] = {}
        self.facts: dict[str, float] = {"ops": 1}
        self.verify = lambda: 0

    def stage(self, name, seconds, units):
        acc = self.stages.setdefault(name, [0.0, 0])
        acc[0] += seconds
        acc[1] += units


def _quiet(fn, *args):
    """Run a CLI stage with its console output discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


class Capture:
    """Keeps the return value of every call to owner.attr, so checks can see
    what a stage computed without recomputing it."""

    def __init__(self, patches: Patches, owner, attr):
        self.calls: list[tuple[tuple, object]] = []

        def make(fn):
            def captured(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.calls.append((args, result))
                return result
            return captured

        replace_function(patches, owner, attr, make)

    def take(self):
        calls, self.calls = self.calls, []
        return calls


class Workload:
    name = ""
    # The span that starts a new workload item in a trace.
    item_span = ""
    # Operation i is of kind i % kinds; operations of one kind do equal work.
    kinds = 1
    # The kernels that measure how fast the host runs the kind of work that
    # the operation and the set-up do (reference.py).
    reference = TEXT
    setup_reference = TEXT

    def __init__(self, root: str, seed: int):
        self.seed = seed
        self.patches = Patches()
        self.source = corpus.load_source(os.path.join(root, SOURCE))

    def config(self, workdir: str, **overrides) -> dict:
        cfg = dict(qgen.cli.DEFAULTS)
        cfg["paths.out_dir"] = os.path.join(workdir, "out")
        cfg.update(overrides)
        return cfg

    def close(self):
        self.patches.restore()

    def planned_items(self, index) -> int:
        raise NotImplementedError

    def named_metrics(self, totals) -> dict[str, tuple[float, str]]:
        """Stage rates by name, plus the workload's output facts."""
        out = {}
        for stage, (seconds, units) in totals.stages.items():
            unit = STAGE_UNITS[stage]
            out[f"{stage}.{unit}_per_s"] = (units / seconds if seconds else 0.0, f"{unit}/s")
        return out


STAGE_UNITS = {"preprocess": "records", "read_back": "records", "evaluate": "pairs",
               "train": "steps", "generate": "questions", "failed": "items"}


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# Passages per corpus operation (a quarter in each length band) and perturbed
# rewrites scored per question.
CORPUS_PASSAGES = 4
PAIRS_PER_QUESTION = 8
DP_SAMPLE = 16


class CorpusWorkload(Workload):
    """preprocess -> read the cache back and bucket it -> evaluate."""

    name = "corpus"
    item_span = "preprocess.preprocess_pair"

    def setup(self, workdir):
        doc = corpus.synthesize(self.source, self.seed, corpus.BANDS, CORPUS_PASSAGES)
        squad_json = os.path.join(workdir, "squad.json")
        _write_json(squad_json, doc)
        questions = [(r["id"], r["question"]) for r in corpus.records_of(doc)]
        pairs = corpus.perturbed_pairs(questions, self.seed, PAIRS_PER_QUESTION)
        self.refs = os.path.join(workdir, "refs.jsonl")
        self.hyps = os.path.join(workdir, "hyps.jsonl")
        _write_jsonl(self.refs, [{"id": p, "question": r} for p, r, _, _ in pairs])
        _write_jsonl(self.hyps, [{"id": p, "question": h} for p, _, h, _ in pairs])
        self.expected = {p: (r, h, d) for p, r, h, d in pairs}
        self.records = len(questions)
        self.cfg = self.config(
            workdir,
            **{"paths.squad_json": squad_json,
               "paths.examples_cache": os.path.join(workdir, "examples_cache.jsonl")},
        )

    def start(self):
        self.inverted = Capture(self.patches, qgen.cli, "invert")

    def planned_items(self, index):
        return self.records

    def op(self, index) -> OpResult:
        res = OpResult()
        cfg = self.cfg
        self.inverted.take()
        t0 = _clock()
        _quiet(qgen.cli.cmd_preprocess, cfg)
        t1 = _clock()
        examples = qgen.squad.load_examples(cfg["paths.examples_cache"])
        buckets = qgen.squad.bucket_by_length(
            examples, qgen.cli._parse_buckets(cfg["data.buckets"])
        )
        t2 = _clock()
        _quiet(qgen.cli.cmd_evaluate, cfg, self.refs, self.hyps)
        t3 = _clock()
        res.stage("preprocess", t1 - t0, self.records)
        res.stage("read_back", t2 - t1, self.records)
        res.stage("evaluate", t3 - t2, len(self.expected))
        res.items = self.records
        res.verify = lambda: self.check(examples, buckets, index)
        return res

    def check(self, examples, buckets, index) -> int:
        """Failed records: cache round trip, bucket partition, and every
        reported distance against the constructed one; a sample also against
        the benchmark's own DP."""
        (_, inverted), = self.inverted.take()
        bad = set()
        if len(examples) != self.records or len(inverted) != self.records:
            return self.records
        for ex, inv in zip(examples, inverted):
            if (ex.question_id, ex.input_ids, ex.target_ids) != \
                    (inv.question_id, inv.input_ids, inv.target_ids):
                bad.add(ex.question_id)
        placed = sorted(e.question_id for b in buckets for e in b.examples)
        if placed != sorted(e.question_id for e in examples):
            return self.records
        with open(os.path.join(self.cfg["paths.out_dir"], "report.json"),
                  encoding="utf-8") as fh:
            report = json.load(fh)
        reported = {p["id"]: p["distance"] for p in report["pairs"]}
        if set(reported) != set(self.expected):
            return self.records
        ids = sorted(self.expected)
        sample = set(ids[(index * DP_SAMPLE) % len(ids):][:DP_SAMPLE])
        for pid, (ref, hyp, want) in self.expected.items():
            ok = reported[pid] == want
            if pid in sample:
                ok = ok and corpus.edit_distance(corpus.words(ref), corpus.words(hyp)) == want
            if not ok:
                bad.add(pid.split("~")[0])
        return len(bad)


# Steps per train operation, a checkpoint after each, and examples taken from
# each of the 64 and 128 buckets. With equal buckets the batch sequence
# depends only on the training seed; under TRAIN_SEED the two steps draw one
# 128-bucket batch and then one 64-bucket batch.
TRAIN_STEPS = 2
TRAIN_CHECKPOINT_INTERVAL = 1
TRAIN_EXAMPLES_PER_BUCKET = 40
TRAIN_SEED = 1


class TrainWorkload(Workload):
    """train at the CLI default model size on a 64/128-bucket cache."""

    name = "train"
    item_span = "training.train_step"
    reference = DENSE

    def setup(self, workdir):
        doc = corpus.synthesize(self.source, self.seed, (64, 128), 16)
        squad_json = os.path.join(workdir, "squad.json")
        _write_json(squad_json, doc)
        cfg = self.config(
            workdir,
            **{"paths.squad_json": squad_json,
               "paths.examples_cache": os.path.join(workdir, "examples_cache.jsonl"),
               "train.total_steps": TRAIN_STEPS,
               "train.warmup_steps": TRAIN_STEPS,
               "train.checkpoint_interval": TRAIN_CHECKPOINT_INTERVAL,
               "seed": TRAIN_SEED},
        )
        vocab, tagger, stoplist = qgen.cli._load_shared(cfg)
        examples = qgen.squad.invert(
            qgen.squad.load_squad(squad_json), tagger, stoplist, vocab,
            max_input_ids=cfg["data.max_input_ids"],
            max_target_ids=cfg["data.max_target_ids"],
        )
        buckets = qgen.squad.bucket_by_length(
            examples, qgen.cli._parse_buckets(cfg["data.buckets"])
        )
        chosen = []
        for bucket in buckets[:2]:
            if len(bucket) < TRAIN_EXAMPLES_PER_BUCKET:
                raise RuntimeError(
                    f"bucket {bucket.max_input} holds {len(bucket)} examples, "
                    f"need {TRAIN_EXAMPLES_PER_BUCKET}"
                )
            chosen += bucket.examples[:TRAIN_EXAMPLES_PER_BUCKET]
        qgen.squad.save_examples(chosen, cfg["paths.examples_cache"])
        self.cfg = cfg
        self.reference_losses = None

    def start(self):
        self.trained = Capture(self.patches, qgen.cli, "train")

    def planned_items(self, index):
        return TRAIN_STEPS

    def named_metrics(self, totals):
        out = super().named_metrics(totals)
        out["train.final_loss"] = (totals.facts.get("final_loss", 0.0)
                                   / max(totals.facts.get("ops", 0), 1), "nats")
        return out

    def op(self, index) -> OpResult:
        res = OpResult()
        self.trained.take()
        t0 = _clock()
        _quiet(qgen.cli.cmd_train, self.cfg)
        res.stage("train", _clock() - t0, TRAIN_STEPS)
        res.items = TRAIN_STEPS
        losses = [r["loss"] for r in
                  _read_jsonl(os.path.join(self.cfg["paths.out_dir"], "metrics.jsonl"))]
        res.facts["final_loss"] = losses[-1] if losses else math.nan
        res.verify = lambda: 0 if self.check(losses) else TRAIN_STEPS
        return res

    def check(self, losses) -> bool:
        """Finite losses that fall, the same on every operation (fixed seed),
        and a final checkpoint that reloads bit-exactly."""
        ((model, _, _, _), (state, ckpt_dir)), = self.trained.take()
        if len(losses) != TRAIN_STEPS or not all(map(math.isfinite, losses)):
            return False
        if not losses[-1] < losses[0]:
            return False
        if self.reference_losses is None:
            self.reference_losses = losses
        if losses != self.reference_losses:
            return False
        loaded = TransformerModel.load(os.path.join(ckpt_dir, "model.bin"))
        for p, q in zip(model.parameters(), loaded.parameters(), strict=True):
            if p.name != q.name or not np.array_equal(p.data, q.data):
                return False
        restored = TrainState.load(os.path.join(ckpt_dir, "state.bin"), loaded)
        return restored.step == state.step and all(
            np.array_equal(state.m[k], restored.m[k])
            and np.array_equal(state.v[k], restored.v[k])
            for k in state.m
        )


# Questions prepared per length band; each operation generates one question,
# and consecutive operations rotate through the bands.
GENERATE_PER_BAND = 8
RESCORE_TOLERANCE = 1e-9
MODEL_SEED = 0


class GenerateWorkload(Workload):
    """generate at the CLI defaults from a random-init checkpoint."""

    name = "generate"
    item_span = "preprocess.preprocess_pair"
    kinds = len(corpus.BANDS)
    reference = DECODE
    # Set-up is mostly the random-init model: numpy calls on small arrays.
    setup_reference = DECODE

    def setup(self, workdir):
        doc = corpus.synthesize(self.source, self.seed, corpus.BANDS,
                                len(corpus.BANDS) * GENERATE_PER_BAND)
        firsts = {}
        for row in corpus.records_of(doc):
            firsts.setdefault(row["title"], row)
        self.inputs = []
        for c, row in enumerate(firsts.values()):
            path = os.path.join(workdir, f"in_{c}.jsonl")
            _write_jsonl(path, [{k: row[k] for k in ("id", "passage", "answer")}])
            self.inputs.append((path, [row["id"]]))
        self.cfg = self.config(workdir)
        vocab, _, _ = qgen.cli._load_shared(self.cfg)
        model = TransformerModel(qgen.cli._model_config(self.cfg, vocab), seed=MODEL_SEED)
        ckpt = os.path.join(self.cfg["paths.out_dir"], "checkpoint")
        os.makedirs(ckpt, exist_ok=True)
        model.save(os.path.join(ckpt, "model.bin"))
        self.model = TransformerModel.load(os.path.join(ckpt, "model.bin"))
        self.vocab = vocab
        self.out = os.path.join(workdir, "generated.jsonl")

    def start(self):
        self.searched = Capture(self.patches, qgen.generation, "beam_search")

    def planned_items(self, index):
        return 1

    def named_metrics(self, totals):
        out = super().named_metrics(totals)
        f, n = totals.facts, max(totals.facts.get("questions", 0), 1)
        out["generate.best_score_mean"] = (f.get("score_sum", 0.0) / n, "nats")
        out["generate.output_len_mean"] = (f.get("output_tokens", 0) / n, "tokens")
        out["generate.max_length_share"] = (f.get("at_max_length", 0) / n, "share")
        return out

    def op(self, index) -> OpResult:
        res = OpResult()
        path, ids = self.inputs[index % len(self.inputs)]
        self.searched.take()
        t0 = _clock()
        _quiet(qgen.cli.cmd_generate, self.cfg, path, self.out)
        res.stage("generate", _clock() - t0, len(ids))
        res.items = len(ids)
        rows = _read_jsonl(self.out)
        res.verify = lambda: self.check(ids, rows, res)
        return res

    def check(self, ids, rows, res) -> int:
        """Failed questions: order and ids kept, the best hypothesis ends in
        [EOS] within max_length, its score and text are what was written, and
        a teacher-forced forward pass re-scores its log-probability."""
        searches = self.searched.take()
        cfg = self.cfg
        if [r["id"] for r in rows] != ids or len(searches) != len(ids):
            return len(ids)
        bos, eos = self.model.config.bos_id, self.model.config.eos_id
        failed = 0
        lengths, at_max, scores = [], 0, []
        for row, ((_, input_ids, _), hyps) in zip(rows, searches):
            best = hyps[0]
            tokens = list(best.tokens)
            lengths.append(len(tokens))
            at_max += len(tokens) == cfg["generate.max_length"]
            scores.append(best.score(cfg["generate.length_alpha"]))
            ok = (
                tokens[-1] == eos and eos not in tokens[:-1]
                and len(tokens) <= cfg["generate.max_length"]
                and row["score"] == scores[-1]
                and row["question_tagged"] == postprocess_question(
                    TokenSequence.from_ids(tokens, self.vocab))
            )
            if ok:
                with qgen.tensor.no_grad():
                    logits = self.model.forward(input_ids, [bos] + tokens[:-1]).data
                shifted = logits - logits.max(axis=-1, keepdims=True)
                logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
                rescored = float(logp[np.arange(len(tokens)), tokens].sum())
                ok = abs(rescored - best.log_prob) <= RESCORE_TOLERANCE
            failed += not ok
        res.facts["questions"] = len(ids)
        res.facts["output_tokens"] = sum(lengths)
        res.facts["at_max_length"] = at_max
        res.facts["score_sum"] = sum(scores)
        return failed


WORKLOADS = {w.name: w for w in (CorpusWorkload, TrainWorkload, GenerateWorkload)}
