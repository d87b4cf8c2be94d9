"""Command-line pipeline: preprocess -> train -> generate -> evaluate.

One flat key-value config document (JSON with dotted keys) drives every
subcommand; each key is mirrored 1:1 by a --dotted.flag override. Exit codes:
0 ok, 2 input/schema error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .evaluation import corpus_report
from .generation import GenerationConfig, generate_batch
from .model import ModelConfig, TransformerModel
from .preprocess import ENTITY_TAGS, GazetteerTagger, default_data_path, load_stopwords
from .squad import (
    DEFAULT_BUCKET_BOUNDS,
    ID,
    MAX_INPUT_IDS,
    MAX_TARGET_IDS,
    TEXT,
    SchemaError,
    bucket_by_length,
    invert,
    load_examples,
    load_squad,
    read_json,
    read_jsonl,
    replacing,
    save_examples,
    write_json,
)
from .training import NumericalError, TrainConfig, train
from .wordpiece import load_vocabulary

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _keys(section: str, config, skip=()) -> dict[str, object]:
    """section.field -> value for each field of a config, in field order."""
    return {f"{section}.{k}": v for k, v in asdict(config).items() if k not in skip}


# The ModelConfig fields that the vocabulary supplies; they have no config key.
_FROM_VOCAB = ("vocab_size", "pad_id", "bos_id", "eos_id")

# The config sections take their dataclasses' defaults. The top-level seed
# supplies the training seed.
DEFAULTS: dict[str, object] = {
    "paths.squad_json": "",
    "paths.vocab": "",
    "paths.gazetteer": "",
    "paths.stopwords": "",
    "paths.examples_cache": "examples_cache.jsonl",
    "paths.out_dir": "out",
    "paths.checkpoint_dir": "",
    # Four ids hold the default pad, bos and eos ids.
    **_keys("model", ModelConfig(vocab_size=4), skip=_FROM_VOCAB),
    "data.max_input_ids": MAX_INPUT_IDS,
    "data.max_target_ids": MAX_TARGET_IDS,
    "data.buckets": ",".join(f"{a}:{b}" for a, b in DEFAULT_BUCKET_BOUNDS),
    **_keys("train", TrainConfig(total_steps=1000), skip=("seed",)),
    **_keys("generate", GenerationConfig()),
    "seed": 0,
}


# The least value of each integer key that no config class checks: a target
# holds at least [BOS] and [EOS], and numpy takes no negative seed.
_LEAST = {"data.max_input_ids": 1, "data.max_target_ids": 2, "seed": 0}


def _parse_value(key: str, raw: str):
    default = DEFAULTS[key]
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError:
        kind = "an integer" if isinstance(default, int) else "a number"
        raise ValueError(f"{key}: expected {kind}, got {raw!r}") from None
    return raw


def load_config(config_path: str | None, overrides: list[tuple[str, str]]) -> dict:
    cfg = dict(DEFAULTS)
    if config_path:
        doc = read_json(config_path)
        if not isinstance(doc, dict):
            raise SchemaError(f"{config_path}: expected a JSON object of config keys")
        for key, value in doc.items():
            if key not in DEFAULTS:
                raise SchemaError(f"unknown config key {key!r} in {config_path}")
            if not isinstance(value, (str, int, float)):  # null, a list, an object
                raise SchemaError(f"config key {key!r} in {config_path} must be a string, "
                                  f"a number or a boolean, got {json.dumps(value)}")
            if isinstance(value, bool) and not isinstance(DEFAULTS[key], bool):
                raise SchemaError(f"config key {key!r} in {config_path} is not a "
                                  f"boolean key, got {json.dumps(value)}")
            cfg[key] = _parse_value(key, str(value))
    for key, raw in overrides:
        cfg[key] = _parse_value(key, raw)
    for key, least in _LEAST.items():
        if cfg[key] < least:
            raise ValueError(f"{key} must be >= {least}, got {cfg[key]}")
    return cfg


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON config document")
    for key, default in DEFAULTS.items():
        parser.add_argument(
            f"--{key}",
            dest=key.replace(".", "__"),
            default=None,
            metavar="V",
            help=f"override {key} (default {default!r})",
        )


def _collect_overrides(args: argparse.Namespace) -> list[tuple[str, str]]:
    values = ((key, getattr(args, key.replace(".", "__"), None)) for key in DEFAULTS)
    return [(key, value) for key, value in values if value is not None]


def _require_file(cfg: dict, key: str) -> str:
    value = cfg[key]
    if not value:
        raise FileNotFoundError(f"{key} is required but not set")
    if not os.path.exists(value):
        raise FileNotFoundError(f"{key}: no such file: {value}")
    return value


def _resource_or_path(cfg: dict, key: str, packaged: str):
    return _require_file(cfg, key) if cfg[key] else default_data_path(packaged)


def _load_shared(cfg: dict):
    vocab = load_vocabulary(_resource_or_path(cfg, "paths.vocab", "vocab.txt"))
    tagger = GazetteerTagger.from_tsv(
        _resource_or_path(cfg, "paths.gazetteer", "gazetteer.tsv")
    )
    stoplist = load_stopwords(_resource_or_path(cfg, "paths.stopwords", "stopwords.txt"))
    return vocab, tagger, stoplist


def _parse_buckets(spec: str) -> list[tuple[int, int]]:
    bounds = []
    for part in spec.split(","):
        left, _, right = part.strip().partition(":")
        try:
            bounds.append((int(left), int(right)))
        except ValueError:
            raise ValueError(
                f"data.buckets: expected input:target pairs such as 64:16, got {part!r}"
            ) from None
    return bounds


def _section(cfg: dict, name: str) -> dict:
    """The keys of one config section without their prefix: model.d_model -> d_model."""
    prefix = name + "."
    return {k[len(prefix):]: v for k, v in cfg.items() if k.startswith(prefix)}


def _section_config(cls, cfg: dict, name: str, **fixed):
    """cls built from one config section plus the fixed fields. A value that
    cls rejects is reported under its key (train.clip_norm): each config
    class's messages start with the field's name."""
    try:
        return cls(**fixed, **_section(cfg, name))
    except ValueError as exc:
        raise ValueError(f"{name}.{exc}") from None


def _model_config(cfg: dict, vocab) -> ModelConfig:
    supplied = (len(vocab), vocab.pad_id, vocab.bos_id, vocab.eos_id)
    return _section_config(ModelConfig, cfg, "model", **dict(zip(_FROM_VOCAB, supplied)))


def _write_jsonl(path: str, rows: list[dict]) -> None:
    with replacing(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def cmd_preprocess(cfg: dict) -> int:
    vocab, tagger, stoplist = _load_shared(cfg)
    squad_path = _require_file(cfg, "paths.squad_json")
    records = load_squad(squad_path)
    examples = invert(
        records, tagger, stoplist, vocab,
        max_input_ids=cfg["data.max_input_ids"],
        max_target_ids=cfg["data.max_target_ids"],
    )
    cache_path = cfg["paths.examples_cache"]
    save_examples(examples, cache_path)
    tag_ids = {vocab.ids[t] for t in ENTITY_TAGS if t in vocab.ids}
    at_input_cap = sum(len(e.input_ids) >= cfg["data.max_input_ids"] for e in examples)
    at_target_cap = sum(len(e.target_ids) >= cfg["data.max_target_ids"] for e in examples)
    total = len(examples)
    summary = {
        "examples": total,
        "inputs_at_max_len": at_input_cap,
        "targets_at_max_len": at_target_cap,
        "input_truncation_rate": at_input_cap / total if total else 0.0,
        "target_truncation_rate": at_target_cap / total if total else 0.0,
        "entity_tag_coverage": (
            sum(bool(tag_ids.intersection(e.input_ids)) for e in examples) / total
            if total else 0.0
        ),
    }
    if not examples:
        print("warning: no questions found; cache is empty", file=sys.stderr)
    os.makedirs(cfg["paths.out_dir"], exist_ok=True)
    summary_path = os.path.join(cfg["paths.out_dir"], "preprocess_summary.json")
    write_json(summary_path, summary)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def cmd_train(cfg: dict) -> int:
    train_cfg = _section_config(TrainConfig, cfg, "train", seed=cfg["seed"])
    vocab = load_vocabulary(_resource_or_path(cfg, "paths.vocab", "vocab.txt"))
    examples = load_examples(_require_file(cfg, "paths.examples_cache"))
    buckets = bucket_by_length(examples, _parse_buckets(cfg["data.buckets"]))
    model = TransformerModel(_model_config(cfg, vocab), seed=cfg["seed"])
    state, ckpt_dir = train(model, buckets, train_cfg, cfg["paths.out_dir"])
    print(f"trained {state.step} steps; checkpoint at {ckpt_dir}")
    return EXIT_OK


def _checkpoint_model(cfg: dict) -> str:
    ckpt = cfg["paths.checkpoint_dir"] or os.path.join(cfg["paths.out_dir"], "checkpoint")
    model_file = os.path.join(ckpt, "model.bin")
    if not os.path.exists(model_file):
        raise FileNotFoundError(f"checkpoint not found: {model_file}")
    return model_file


def cmd_generate(cfg: dict, input_jsonl: str, output_jsonl: str) -> int:
    gen_cfg = _section_config(GenerationConfig, cfg, "generate")
    vocab, tagger, stoplist = _load_shared(cfg)
    model = TransformerModel.load(_checkpoint_model(cfg))
    records = read_jsonl(input_jsonl, {"id": ID, "passage": TEXT, "answer": TEXT})
    rows = generate_batch(
        model, records, tagger, stoplist, vocab, gen_cfg,
        max_input_ids=cfg["data.max_input_ids"],
    )
    _write_jsonl(output_jsonl, rows)
    print(f"wrote {len(rows)} questions to {output_jsonl}")
    return EXIT_OK


def cmd_evaluate(cfg: dict, refs_path: str, hyps_path: str) -> int:
    questions = ("question", "question_tagged")
    fields = {"id": ID, "question": TEXT, "question_tagged": TEXT}
    refs = read_jsonl(refs_path, fields, optional=questions)
    hyps = read_jsonl(hyps_path, fields, optional=questions)

    def questions_by_id(rows: list[dict], path: str) -> dict[str, str]:
        found: dict[str, str] = {}
        for row in rows:
            qid = str(row["id"])
            if qid in found:
                raise SchemaError(f"{path}: id {qid!r} appears more than once")
            question = next((row[key] for key in questions if key in row), None)
            if question is None:
                raise SchemaError(f"{path}: row {row['id']!r} has no question field")
            found[qid] = question
        return found

    ref_map = questions_by_id(refs, refs_path)
    hyp_map = questions_by_id(hyps, hyps_path)
    unmatched = sorted(set(ref_map) ^ set(hyp_map))
    if unmatched:
        shown = ", ".join(unmatched[:10])
        raise SchemaError(
            f"{len(unmatched)} unmatched ids between {refs_path} and {hyps_path}: {shown}"
        )
    pairs = [(qid, ref_map[qid], hyp_map[qid]) for qid in sorted(ref_map)]
    if not pairs:
        raise SchemaError(f"no questions to compare in {refs_path} and {hyps_path}")
    report = corpus_report(pairs)
    out_dir = cfg["paths.out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "report.json"), report.to_json_dict())
    with replacing(os.path.join(out_dir, "report.csv"), newline="") as fh:
        report.write_csv(fh)
    text = report.to_text()
    with replacing(os.path.join(out_dir, "report.txt")) as fh:
        fh.write(text)
    print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgen",
        description="Question generation pipeline: invert QA data, train a "
        "small transformer, decode with beam search, score with word-level "
        "edit distance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="build the inverted example cache")
    _add_common_flags(p)

    p = sub.add_parser("train", help="train from the example cache")
    _add_common_flags(p)

    p = sub.add_parser("generate", help="decode questions for a JSONL of "
                       "{id, passage, answer}")
    _add_common_flags(p)
    p.add_argument("input_jsonl")
    p.add_argument("output_jsonl")

    p = sub.add_parser("evaluate", help="compare two JSONL question files by id")
    _add_common_flags(p)
    p.add_argument("refs_jsonl")
    p.add_argument("hyps_jsonl")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _collect_overrides(args))
        print(f"seed = {cfg['seed']}")
        if args.command == "preprocess":
            return cmd_preprocess(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "generate":
            return cmd_generate(cfg, args.input_jsonl, args.output_jsonl)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.refs_jsonl, args.hyps_jsonl)
        raise SystemExit(f"unknown command {args.command!r}")
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
