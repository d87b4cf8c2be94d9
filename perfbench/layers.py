"""Where each qgen layer is wrapped, and the per-layer metrics derived from
the spans and counters of a traced run.

A site is written ``module:attribute`` and names the place the caller looks
the function up: ``qgen.cli`` imports ``invert`` by name, so ``invert`` is
wrapped as ``qgen.cli:invert``. Every metric is per workload item (corpus
record, train step, generated question) unless its unit says otherwise.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from qgen.wordpiece import UNK
from spans import SpanStats

LAYERS = ("tensor", "wordpiece", "preprocess", "squad", "model", "training",
          "generation", "evaluation", "cli")


def _matmul_flop(tr, args, kwargs, out):
    tr.counters["tensor.matmul.flop"] += 2 * out.data.size * args[0].shape[-1]


def _decode_rows(tr, args, kwargs, out):
    if tr.parent_name() != "model.forward":
        tr.counters["model.decode.positions"] += np.size(args[3])


def _saved_bytes(tr, args, kwargs, out):
    tr.counters["model.save_bytes"] += os.path.getsize(args[1])


def _pads(tr, args, kwargs, out):
    tr.counters["squad.pad"] += int((out == args[2]).sum())
    tr.counters["squad.padded"] += out.size


def _passages(tr, args, kwargs, out):
    tr.seen["passages"].add(args[1])


def _unknown_pieces(tr, args, kwargs, out):
    tr.counters["wordpiece.pieces"] += len(out.tokens)
    tr.counters["wordpiece.unk"] += out.tokens.count(UNK)


def _dp_cells(tr, args, kwargs, out):
    tr.counters["evaluation.dp_cells"] += len(args[0]) * len(args[1])


_TENSOR_OPS = ("add", "concat_last", "dropout", "embedding", "layer_norm", "mul",
               "relu", "reshape", "softmax_rows", "swap_axes", "transpose")

SITES = [
    ("qgen.cli:cmd_preprocess", "cli.preprocess", None),
    ("qgen.cli:cmd_train", "cli.train", None),
    ("qgen.cli:cmd_generate", "cli.generate", None),
    ("qgen.cli:cmd_evaluate", "cli.evaluate", None),
    ("qgen.cli:load_squad", "squad.load_squad", None),
    ("qgen.cli:invert", "squad.invert", None),
    ("qgen.cli:save_examples", "squad.save_examples", None),
    ("qgen.cli:load_examples", "squad.load_examples", None),
    ("qgen.squad:load_examples", "squad.load_examples", None),
    ("qgen.cli:bucket_by_length", "squad.bucket_by_length", None),
    ("qgen.squad:bucket_by_length", "squad.bucket_by_length", None),
    ("qgen.squad:Bucket.input_matrix", "squad.batch", _pads),
    ("qgen.squad:Bucket.target_matrix", "squad.batch", _pads),
    ("qgen.squad:preprocess_pair", "preprocess.preprocess_pair", _passages),
    ("qgen.generation:preprocess_pair", "preprocess.preprocess_pair", _passages),
    ("qgen.squad:tagged_wordpieces", "preprocess.tagged_wordpieces", None),
    ("qgen.preprocess:tagged_wordpieces", "preprocess.tagged_wordpieces", None),
    ("qgen.preprocess:GazetteerTagger.__call__", "preprocess.tagger", None),
    ("qgen.preprocess:postprocess_question", "preprocess.postprocess_question", None),
    ("qgen.preprocess:tokenize", "wordpiece.tokenize", _unknown_pieces),
    ("qgen.cli:corpus_report", "evaluation.corpus_report", None),
    ("qgen.evaluation:edit_alignment", "evaluation.edit_alignment", _dp_cells),
    ("qgen.cli:train", "training.train", None),
    ("qgen.training:train_step", "training.train_step", None),
    ("qgen.training:clip_gradients", "training.clip_gradients", None),
    ("qgen.training:adam_step", "training.adam_step", None),
    ("qgen.training:save_checkpoint", "training.save_checkpoint", None),
    ("qgen.training:backward", "tensor.backward", None),
    ("qgen.training:cross_entropy_with_logits", "tensor.ops", None),
    ("qgen.model:matmul", "tensor.matmul", _matmul_flop),
    *((f"qgen.model:{op}", "tensor.ops", None) for op in _TENSOR_OPS),
    ("qgen.model:TransformerModel.forward", "model.forward", None),
    ("qgen.model:TransformerModel.encode", "model.encode", None),
    ("qgen.model:TransformerModel.decode", "model.decode", _decode_rows),
    ("qgen.model:TransformerModel.save", "model.save", _saved_bytes),
    ("qgen.model:TransformerModel.load", "model.load", None),
    ("qgen.cli:generate_batch", "generation.generate_batch", None),
    ("qgen.generation:beam_search", "generation.beam_search", None),
    ("qgen.generation:greedy_decode", "generation.greedy_decode", None),
]

# name -> unit, in report order
UNITS = {
    **{f"{layer}.busy_s": "s/item" for layer in LAYERS if layer != "cli"},
    "tensor.matmul.calls": "count/item",
    "tensor.matmul.gflop": "GFLOP/item",
    "tensor.matmul.fwd_s": "s/item",
    "tensor.backward_s": "s/item",
    "tensor.ops.calls": "count/item",
    "tensor.ops_s": "s/item",
    "model.forward.calls": "count/item",
    "model.forward_s": "s/item",
    "model.encode.calls": "count/item",
    "model.encode_s": "s/item",
    "model.decode.calls": "count/item",
    "model.decode_s": "s/item",
    "model.decode.positions": "rows/item",
    "model.decode.useful_share": "share",
    "model.save_s": "s/item",
    "model.save_bytes": "bytes",
    "model.load_s": "s/item",
    "training.train_step_s.p50": "s",
    "training.train_step_s.max": "s",
    "training.clip_s": "s/item",
    "training.adam_s": "s/item",
    "training.checkpoint_s": "s/item",
    "training.loop_s": "s/item",
    "training.final_loss": "nats",
    "generation.beam_search_s.p50": "s",
    "generation.beam_search_s.max": "s",
    "generation.greedy_decode_s": "s/item",
    "generation.decode_calls_per_question": "count/item",
    "generation.preprocess_s": "s/item",
    "generation.output_len_mean": "tokens",
    "generation.max_length_share": "share",
    "generation.best_score_mean": "nats",
    "squad.load_squad_s": "s/item",
    "squad.invert_s": "s/item",
    "squad.save_examples_s": "s/item",
    "squad.load_examples_s": "s/item",
    "squad.bucket_s": "s/item",
    "squad.batch_s": "s/item",
    "squad.pad_share": "share",
    "preprocess.tagger.calls": "count/item",
    "preprocess.tagger_s": "s/item",
    "preprocess.pair.calls": "count/item",
    "preprocess.pair_s": "s/item",
    "preprocess.passage_reuse_share": "share",
    "wordpiece.tokenize.calls": "count/item",
    "wordpiece.tokenize_s": "s/item",
    "wordpiece.unk_share": "share",
    "evaluation.edit_alignment_s": "s/item",
    "evaluation.dp_cells": "cells/pair",
    "evaluation.corpus_report_s": "s/item",
    "cli.io_s": "s/item",
    "cli.preprocess.records_per_s": "records/s",
    "cli.evaluate.pairs_per_s": "pairs/s",
    "cli.train.steps_per_s": "steps/s",
    "cli.generate.questions_per_s": "questions/s",
    "trace.overhead_share": "share",
    "trace.spans": "count/item",
}

# The input properties later optimisations depend on.
PROPERTIES = ("preprocess.passage_reuse_share", "squad.pad_share",
              "generation.output_len_mean", "generation.max_length_share",
              "generation.decode_calls_per_question", "model.decode.useful_share",
              "evaluation.dp_cells")

STAGE_RATES = {
    "preprocess": "cli.preprocess.records_per_s",
    "evaluate": "cli.evaluate.pairs_per_s",
    "train": "cli.train.steps_per_s",
    "generate": "cli.generate.questions_per_s",
}


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer, items, facts, stage_totals, overhead_share) -> dict[str, float]:
    """tracer: the traced operations' spans and counters; items: their item
    count; facts: summed output facts of the traced operations;
    stage_totals: stage -> [seconds, units] of the untraced operations;
    overhead_share: median cost of tracing an operation."""
    st = SpanStats(tracer.spans)
    c = tracer.counters

    def per(v):
        return _ratio(v, items)

    def self_s(*keys):
        return per(sum(st.self_s.get(k, 0.0) for k in keys))

    def calls(*keys):
        return per(sum(st.calls.get(k, 0) for k in keys))

    def median_max(name):
        d = st.durations.get(name) or [0.0]
        return statistics.median(d), max(d)

    fwd = "model.forward"
    m = {f"{layer}.busy_s": per(st.layer_self(layer)) for layer in LAYERS if layer != "cli"}
    m["tensor.matmul.calls"] = calls("tensor.matmul")
    m["tensor.matmul.gflop"] = per(c["tensor.matmul.flop"] / 1e9)
    m["tensor.matmul.fwd_s"] = self_s("tensor.matmul")
    m["tensor.backward_s"] = self_s("tensor.backward")
    m["tensor.ops.calls"] = calls("tensor.ops")
    m["tensor.ops_s"] = self_s("tensor.ops")
    m["model.forward.calls"] = calls(fwd)
    m["model.forward_s"] = self_s(fwd, ("model.encode", fwd), ("model.decode", fwd))
    for part in ("encode", "decode"):
        name = f"model.{part}"
        m[f"{name}.calls"] = calls(name) - calls((name, fwd))
        m[f"{name}_s"] = self_s(name) - self_s((name, fwd))
    m["model.decode.positions"] = per(c["model.decode.positions"])
    m["model.decode.useful_share"] = _ratio(facts.get("output_tokens", 0),
                                            c["model.decode.positions"])
    m["model.save_s"] = self_s("model.save")
    m["model.save_bytes"] = _ratio(c["model.save_bytes"], st.calls.get("model.save", 0))
    m["model.load_s"] = self_s("model.load")
    m["training.train_step_s.p50"], m["training.train_step_s.max"] = \
        median_max("training.train_step")
    m["training.clip_s"] = self_s("training.clip_gradients")
    m["training.adam_s"] = self_s("training.adam_step")
    m["training.checkpoint_s"] = self_s("training.save_checkpoint")
    m["training.loop_s"] = self_s("training.train", "training.train_step")
    m["training.final_loss"] = _ratio(facts.get("final_loss", 0.0), facts.get("ops", 0))
    m["generation.beam_search_s.p50"], m["generation.beam_search_s.max"] = \
        median_max("generation.beam_search")
    m["generation.greedy_decode_s"] = per(st.incl_s.get(
        ("generation.greedy_decode", "generation.beam_search"), 0.0))
    m["generation.decode_calls_per_question"] = calls(
        ("model.decode", "generation.beam_search"),
        ("model.decode", "generation.greedy_decode"))
    m["generation.preprocess_s"] = per(st.incl_s.get(
        ("preprocess.preprocess_pair", "generation.generate_batch"), 0.0))
    questions = facts.get("questions", 0)
    m["generation.output_len_mean"] = _ratio(facts.get("output_tokens", 0), questions)
    m["generation.max_length_share"] = _ratio(facts.get("at_max_length", 0), questions)
    m["generation.best_score_mean"] = _ratio(facts.get("score_sum", 0.0), questions)
    m["squad.load_squad_s"] = self_s("squad.load_squad")
    m["squad.invert_s"] = self_s("squad.invert")
    m["squad.save_examples_s"] = self_s("squad.save_examples")
    m["squad.load_examples_s"] = self_s("squad.load_examples")
    m["squad.bucket_s"] = self_s("squad.bucket_by_length")
    m["squad.batch_s"] = self_s("squad.batch")
    m["squad.pad_share"] = _ratio(c["squad.pad"], c["squad.padded"])
    m["preprocess.tagger.calls"] = calls("preprocess.tagger")
    m["preprocess.tagger_s"] = self_s("preprocess.tagger")
    m["preprocess.pair.calls"] = calls("preprocess.preprocess_pair")
    m["preprocess.pair_s"] = self_s("preprocess.preprocess_pair",
                                    "preprocess.tagged_wordpieces")
    pairs = st.calls.get("preprocess.preprocess_pair", 0)
    m["preprocess.passage_reuse_share"] = (
        1.0 - c["passages.distinct"] / pairs if pairs else 0.0)
    m["wordpiece.tokenize.calls"] = calls("wordpiece.tokenize")
    m["wordpiece.tokenize_s"] = self_s("wordpiece.tokenize")
    m["wordpiece.unk_share"] = _ratio(c["wordpiece.unk"], c["wordpiece.pieces"])
    m["evaluation.edit_alignment_s"] = self_s("evaluation.edit_alignment")
    m["evaluation.dp_cells"] = _ratio(c["evaluation.dp_cells"],
                                      st.calls.get("evaluation.edit_alignment", 0))
    m["evaluation.corpus_report_s"] = self_s("evaluation.corpus_report")
    m["cli.io_s"] = per(st.layer_self("cli"))
    for stage, name in STAGE_RATES.items():
        seconds, units = stage_totals.get(stage, (0.0, 0))
        m[name] = _ratio(units, seconds)
    m["trace.overhead_share"] = overhead_share
    m["trace.spans"] = per(len(tracer.spans))
    if set(m) != set(UNITS):
        raise RuntimeError(f"metric names out of step: {sorted(set(m) ^ set(UNITS))}")
    return {name: m[name] for name in UNITS}
