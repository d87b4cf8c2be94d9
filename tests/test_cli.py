import dataclasses
import json

import pytest

from qgen.cli import DEFAULTS, EXIT_INPUT, EXIT_IO, EXIT_OK, build_parser, main
from qgen.generation import GenerationConfig
from qgen.model import ModelConfig, TransformerModel, read_container, write_container
from qgen.training import TrainConfig
from conftest import DATA_DIR

SMALL_FLAGS = [
    "--model.d_model", "16", "--model.num_heads", "2", "--model.d_ff", "32",
    "--model.enc_layers", "1", "--model.dec_layers", "1", "--model.dropout", "0.0",
    "--model.max_positions", "160",
]


def run_preprocess(tmp_path, extra=()):
    cache = tmp_path / "cache.jsonl"
    out = tmp_path / "out"
    argv = [
        "preprocess",
        "--paths.squad_json", str(DATA_DIR / "squad_tiny.json"),
        "--paths.examples_cache", str(cache),
        "--paths.out_dir", str(out),
        *extra,
    ]
    return main(argv), cache, out


def save_small_checkpoint(out_dir, vocab, max_positions=16):
    ckpt = out_dir / "checkpoint"
    ckpt.mkdir(parents=True)
    config = ModelConfig(vocab_size=len(vocab), d_model=8, num_heads=2,
                         enc_layers=1, dec_layers=1, d_ff=16,
                         max_positions=max_positions, dropout=0.0,
                         pad_id=vocab.pad_id, bos_id=vocab.bos_id, eos_id=vocab.eos_id)
    TransformerModel(config, seed=0).save(ckpt / "model.bin")


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


class TestHelp:
    @pytest.mark.parametrize("command", ["preprocess", "train", "generate", "evaluate"])
    def test_help_exits_zero_and_documents_flags(self, command, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args([command, "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for key in DEFAULTS:
            assert f"--{key}" in text


class TestPreprocess:
    def test_writes_cache_and_summary(self, tmp_path, capsys):
        code, cache, out = run_preprocess(tmp_path)
        assert code == EXIT_OK
        lines = cache.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "qgen-examples"
        assert len(lines) - 1 == 36
        summary = json.loads((out / "preprocess_summary.json").read_text())
        assert summary["examples"] == 36
        assert summary["entity_tag_coverage"] > 0.9
        assert "seed = 0" in capsys.readouterr().out

    def test_idempotent(self, tmp_path):
        _, cache, _ = run_preprocess(tmp_path)
        first = cache.read_bytes()
        run_preprocess(tmp_path)
        assert cache.read_bytes() == first

    def test_missing_vocab_path_exits_3(self, tmp_path, capsys):
        code, _, _ = run_preprocess(
            tmp_path, extra=["--paths.vocab", str(tmp_path / "nope.txt")]
        )
        assert code == EXIT_IO
        assert "nope.txt" in capsys.readouterr().err

    def test_missing_squad_json_exits_3(self, tmp_path, capsys):
        argv = ["preprocess", "--paths.examples_cache", str(tmp_path / "c.jsonl")]
        assert main(argv) == EXIT_IO
        assert "paths.squad_json" in capsys.readouterr().err

    def test_cache_in_a_missing_directory_exits_3_naming_the_path(self, tmp_path, capsys):
        cache = tmp_path / "missing" / "ex.jsonl"
        code, _, out = run_preprocess(tmp_path, ["--paths.examples_cache", str(cache)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert f"No such file or directory: '{cache}'" in err
        assert ".tmp" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_schema_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"data": [{"title": "t"}]}', encoding="utf-8")
        argv = [
            "preprocess",
            "--paths.squad_json", str(bad),
            "--paths.examples_cache", str(tmp_path / "c.jsonl"),
            "--paths.out_dir", str(tmp_path / "out"),
        ]
        assert main(argv) == EXIT_INPUT
        assert "paragraphs" in capsys.readouterr().err

    def test_unfit_answer_exits_2_naming_the_question(self, tmp_path, capsys):
        code, cache, _ = run_preprocess(tmp_path, ["--data.max_input_ids", "2"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error: question " in err and "2 input ids" in err
        assert not cache.exists()


class TestPipeline:
    def test_train_generate_evaluate(self, tmp_path):
        code, cache, out = run_preprocess(tmp_path)
        assert code == EXIT_OK

        argv = [
            "train",
            "--paths.examples_cache", str(cache),
            "--paths.out_dir", str(out),
            "--train.total_steps", "3",
            "--train.warmup_steps", "2",
            "--train.batch_size", "4",
            "--train.checkpoint_interval", "2",
            *SMALL_FLAGS,
        ]
        assert main(argv) == EXIT_OK
        assert (out / "checkpoint" / "model.bin").exists()
        metrics = (out / "metrics.jsonl").read_text().splitlines()
        assert len(metrics) == 3
        record = json.loads(metrics[0])
        assert set(record) == {"step", "bucket", "loss", "lr", "grad_norm", "clipped",
                               "real_tokens", "pad_fraction", "tokens_per_sec"}

        gen_in = tmp_path / "gen_in.jsonl"
        gen_in.write_text(
            json.dumps({"id": "g1", "passage": "The gold was found in Warsaw.",
                        "answer": "gold"}) + "\n",
            encoding="utf-8",
        )
        gen_out = tmp_path / "gen_out.jsonl"
        argv = [
            "generate",
            "--paths.out_dir", str(out),
            "--generate.beam_width", "2",
            "--generate.max_length", "6",
            *SMALL_FLAGS,
            str(gen_in), str(gen_out),
        ]
        assert main(argv) == EXIT_OK
        row = json.loads(gen_out.read_text().splitlines()[0])
        assert set(row) == {"id", "question_tagged", "question_substituted", "score"}

        refs = tmp_path / "refs.jsonl"
        refs.write_text(json.dumps({"id": "g1", "question": "where was it found?"}) + "\n",
                        encoding="utf-8")
        argv = [
            "evaluate",
            "--paths.out_dir", str(out),
            str(refs), str(gen_out),
        ]
        assert main(argv) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["question_count"] == 1
        assert (out / "report.csv").exists()
        assert (out / "report.txt").exists()

    def test_missing_checkpoint_exits_3(self, tmp_path, capsys):
        gen_in = tmp_path / "in.jsonl"
        gen_in.write_text("{}\n", encoding="utf-8")
        argv = [
            "generate", "--paths.out_dir", str(tmp_path / "none"),
            str(gen_in), str(tmp_path / "out.jsonl"),
        ]
        assert main(argv) == EXIT_IO
        assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_config_it_cannot_build_exits_2_naming_the_file(self, tmp_path,
                                                                       capsys, vocab):
        save_small_checkpoint(tmp_path / "out", vocab)
        model_bin = tmp_path / "out" / "checkpoint" / "model.bin"
        meta, arrays = read_container(model_bin)
        config = {k: v for k, v in meta["config"].items() if k != "vocab_size"}
        write_container(model_bin, {"config": config}, list(arrays.items()))
        gen_in = write_jsonl(tmp_path / "in.jsonl", [
            {"id": "g0", "passage": "The gold was found in Warsaw.", "answer": "gold"},
        ])
        gen_out = tmp_path / "gen_out.jsonl"
        argv = ["generate", "--paths.out_dir", str(tmp_path / "out"), str(gen_in),
                str(gen_out)]
        assert main(argv) == EXIT_INPUT
        assert f"error: checkpoint {model_bin}: bad model config" in capsys.readouterr().err
        assert not gen_out.exists()

    @pytest.mark.parametrize("header,message", [
        ([], "container header is not an object"),
        ({"meta": {}}, "container header is not an object"),
        ({"meta": [], "tensors": []}, "container header is not an object"),
        ({"meta": {}, "tensors": [{"name": "embed", "shape": [-1, 8]}]},
         "tensor 'embed' has shape [-1, 8], not a list of non-negative integers"),
    ], ids=["list", "no_tensors", "meta_not_an_object", "negative_dimension"])
    def test_checkpoint_header_it_cannot_use_exits_2_naming_the_file(
            self, tmp_path, capsys, vocab, header, message):
        save_small_checkpoint(tmp_path / "out", vocab)
        model_bin = tmp_path / "out" / "checkpoint" / "model.bin"
        blob = json.dumps(header).encode("utf-8")
        prelude = model_bin.read_bytes()[:8]  # magic and version
        model_bin.write_bytes(prelude + len(blob).to_bytes(4, "little") + blob)
        gen_in = write_jsonl(tmp_path / "in.jsonl", [
            {"id": "g0", "passage": "The gold was found in Warsaw.", "answer": "gold"},
        ])
        argv = ["generate", "--paths.out_dir", str(tmp_path / "out"), str(gen_in),
                str(tmp_path / "gen_out.jsonl")]
        assert main(argv) == EXIT_INPUT
        assert f"error: {model_bin}: {message}" in capsys.readouterr().err

    def test_checkpoint_special_id_outside_the_vocabulary_names_file_and_field(
            self, tmp_path, capsys, vocab):
        save_small_checkpoint(tmp_path / "out", vocab)
        model_bin = tmp_path / "out" / "checkpoint" / "model.bin"
        meta, arrays = read_container(model_bin)
        write_container(model_bin, {"config": {**meta["config"], "bos_id": 99999}},
                        list(arrays.items()))
        gen_in = write_jsonl(tmp_path / "in.jsonl", [
            {"id": "g0", "passage": "The gold was found in Warsaw.", "answer": "gold"},
        ])
        argv = ["generate", "--paths.out_dir", str(tmp_path / "out"), str(gen_in),
                str(tmp_path / "gen_out.jsonl")]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: checkpoint {model_bin}: bad model config: bos_id must be" in err

    def test_train_reads_no_tagger_or_stop_words(self, tmp_path, capsys):
        _, cache, _ = run_preprocess(tmp_path)
        argv = ["train", "--paths.examples_cache", str(cache),
                "--paths.out_dir", str(tmp_path / "run"),
                "--paths.gazetteer", str(tmp_path / "nonexistent" / "gaz.tsv"),
                "--paths.stopwords", str(tmp_path / "nonexistent" / "stop.txt"),
                "--train.total_steps", "1", "--train.warmup_steps", "1",
                "--train.batch_size", "2", *SMALL_FLAGS]
        assert main(argv) == EXIT_OK
        assert (tmp_path / "run" / "checkpoint" / "model.bin").exists()

    def test_max_length_beyond_max_positions_exits_2(self, tmp_path, capsys, vocab):
        save_small_checkpoint(tmp_path / "out", vocab)
        gen_in = tmp_path / "gen_in.jsonl"
        gen_in.write_text(
            json.dumps({"id": "g1", "passage": "The gold was found in Warsaw.",
                        "answer": "gold"}) + "\n",
            encoding="utf-8",
        )
        gen_out = tmp_path / "gen_out.jsonl"
        argv = [
            "generate", "--paths.out_dir", str(tmp_path / "out"),
            "--generate.max_length", "20", str(gen_in), str(gen_out),
        ]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error: generate.max_length 20 exceeds the model's max_positions 16" in err
        assert not gen_out.exists()


class TestEvaluateErrors:
    def test_unmatched_ids_exit_2_listing_offenders(self, tmp_path, capsys):
        refs = tmp_path / "refs.jsonl"
        hyps = tmp_path / "hyps.jsonl"
        refs.write_text(
            "\n".join(json.dumps({"id": f"r{i}", "question": "a?"}) for i in range(15)) + "\n",
            encoding="utf-8",
        )
        hyps.write_text(json.dumps({"id": "other", "question": "b?"}) + "\n",
                        encoding="utf-8")
        assert main(["evaluate", str(refs), str(hyps)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "16 unmatched ids" in err
        assert err.count("r") >= 9

    @pytest.mark.parametrize("side", ["refs", "hyps"])
    def test_repeated_id_exits_2_naming_the_file_and_id(self, tmp_path, capsys, side):
        once = [{"id": "a", "question": "what is it?"}]
        twice = once + [{"id": "a", "question": "who?"}]
        refs = write_jsonl(tmp_path / "refs.jsonl", twice if side == "refs" else once)
        hyps = write_jsonl(tmp_path / "hyps.jsonl", twice if side == "hyps" else once)
        argv = ["evaluate", "--paths.out_dir", str(tmp_path / "out"), str(refs), str(hyps)]
        assert main(argv) == EXIT_INPUT
        path = refs if side == "refs" else hyps
        assert f"error: {path}: id 'a' appears more than once" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_config_file_round_trip(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"seed": 5, "train.total_steps": 7}),
                            encoding="utf-8")
        from qgen.cli import load_config

        cfg = load_config(str(cfg_file), [("train.total_steps", "9")])
        assert cfg["seed"] == 5
        assert cfg["train.total_steps"] == 9

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"bogus.key": 1}), encoding="utf-8")
        from qgen.cli import load_config
        from qgen.squad import SchemaError

        with pytest.raises(SchemaError, match="bogus.key"):
            load_config(str(cfg_file), [])

    @pytest.mark.parametrize("value,shown", [
        (None, "null"), (["v.txt"], '["v.txt"]'), ({"v": 1}, '{"v": 1}'),
    ])
    def test_config_value_of_no_key_type_exits_2(self, tmp_path, capsys, value, shown):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"seed": 1, "paths.out_dir": value}),
                            encoding="utf-8")
        assert main(["train", "--config", str(cfg_file)]) == EXIT_INPUT
        assert (f"error: config key 'paths.out_dir' in {cfg_file} must be a string, "
                f"a number or a boolean, got {shown}") in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("paths.out_dir", True), ("paths.vocab", False), ("train.total_steps", True),
    ])
    def test_config_boolean_for_a_key_that_is_not_boolean_exits_2(
            self, tmp_path, capsys, key, value):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({key: value}), encoding="utf-8")
        assert main(["train", "--config", str(cfg_file)]) == EXIT_INPUT
        assert (f"error: config key '{key}' in {cfg_file} is not a boolean key, "
                f"got {json.dumps(value)}") in capsys.readouterr().err

    def test_config_numbers_and_strings_still_parse(self, tmp_path):
        from qgen.cli import load_config

        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"seed": "5", "train.base_lr": 2,
                                        "paths.vocab": 7,
                                        "model.share_embeddings": False}),
                            encoding="utf-8")
        cfg = load_config(str(cfg_file), [])
        assert (cfg["seed"], cfg["train.base_lr"], cfg["paths.vocab"]) == (5, 2.0, "7")
        assert cfg["model.share_embeddings"] is False

    def test_failed_report_write_keeps_the_previous_report(self, tmp_path, monkeypatch,
                                                           capsys):
        from qgen import squad

        refs = write_jsonl(tmp_path / "refs.jsonl", [{"id": "a", "question": "who?"}])
        hyps = write_jsonl(tmp_path / "hyps.jsonl", [{"id": "a", "question": "who?"}])
        out = tmp_path / "out"
        argv = ["evaluate", "--paths.out_dir", str(out), str(refs), str(hyps)]
        assert main(argv) == EXIT_OK
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        assert before["report.csv"].count(b"\r\n") == 2  # csv's row ends
        write_jsonl(hyps, [{"id": "a", "question": "what?"}])
        names = ["report.csv", "report.json", "report.txt"]
        replace = squad.os.replace

        def refuse(src, dst):
            raise OSError(f"cannot move {src}")

        monkeypatch.setattr(squad.os, "replace", refuse)
        assert main(argv) == EXIT_IO
        assert "cannot move" in capsys.readouterr().err
        assert (out / "report.json").read_bytes() == before["report.json"]
        assert sorted(f.name for f in out.iterdir()) == names

        def refuse_csv(src, dst):
            if str(dst).endswith("report.csv"):
                raise OSError(f"cannot move {src}")
            replace(src, dst)

        monkeypatch.setattr(squad.os, "replace", refuse_csv)
        assert main(argv) == EXIT_IO
        assert "cannot move" in capsys.readouterr().err
        assert (out / "report.json").read_bytes() != before["report.json"]
        for name in ("report.csv", "report.txt"):
            assert (out / name).read_bytes() == before[name], name
        assert sorted(f.name for f in out.iterdir()) == names

    def test_failed_cache_write_keeps_the_previous_cache(self, tmp_path, monkeypatch,
                                                         capsys):
        from qgen import squad

        cache = tmp_path / "cache.jsonl"
        cache.write_text("previous\n", encoding="utf-8")

        def refuse(src, dst):
            raise OSError(f"cannot move {src}")

        monkeypatch.setattr(squad.os, "replace", refuse)
        code, _, _ = run_preprocess(tmp_path)
        assert code == EXIT_IO
        assert f"cannot move {cache}.tmp" in capsys.readouterr().err
        assert cache.read_text(encoding="utf-8") == "previous\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cache.jsonl"]

    def test_failed_generate_write_keeps_the_previous_output(self, tmp_path, monkeypatch,
                                                             capsys, vocab):
        from qgen import squad

        save_small_checkpoint(tmp_path / "out", vocab)
        gen_in = write_jsonl(tmp_path / "in.jsonl", [
            {"id": "g0", "passage": "The gold was found in Warsaw.", "answer": "gold"}])
        gen_out = tmp_path / "gen_out.jsonl"
        gen_out.write_text("previous\n", encoding="utf-8")

        def refuse(src, dst):
            raise OSError(f"cannot move {src}")

        monkeypatch.setattr(squad.os, "replace", refuse)
        argv = ["generate", "--paths.out_dir", str(tmp_path / "out"),
                "--generate.max_length", "4", str(gen_in), str(gen_out)]
        assert main(argv) == EXIT_IO
        assert f"cannot move {gen_out}.tmp" in capsys.readouterr().err
        assert gen_out.read_text(encoding="utf-8") == "previous\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "gen_out.jsonl", "in.jsonl", "out"]


class TestExitCodeMapping:
    def test_numerical_failure_exits_4(self, monkeypatch, tmp_path, capsys):
        from qgen import cli
        from qgen.training import NumericalError

        def boom(cfg):
            raise NumericalError(3, "64x16", 1e-3)

        monkeypatch.setattr(cli, "cmd_train", boom)
        code = cli.main(["train", "--paths.examples_cache", str(tmp_path / "x")])
        assert code == cli.EXIT_NUMERIC
        assert "non-finite loss at step 3" in capsys.readouterr().err

    def test_bad_numeric_flag_exits_2(self, capsys):
        from qgen import cli

        code = cli.main(["train", "--train.total_steps", "three"])
        assert code == cli.EXIT_INPUT
        assert "train.total_steps" in capsys.readouterr().err


class TestInputErrors:
    """Each bad outside record exits 2 with a message naming where it is."""

    def train_on(self, tmp_path, cache, *extra):
        return main(["train", "--paths.examples_cache", str(cache),
                     "--paths.out_dir", str(tmp_path / "run"),
                     "--train.total_steps", "1", "--train.warmup_steps", "1", *extra])

    def test_example_beyond_the_last_bucket_names_it(self, tmp_path, capsys):
        _, cache, _ = run_preprocess(tmp_path)
        capsys.readouterr()
        assert self.train_on(tmp_path, cache, "--data.buckets", "64:16") == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error: example " in err and "exceeds the last bucket bound" in err

    @pytest.mark.parametrize("spec,part", [("64", "'64'"), ("64:16,x:24", "'x:24'")])
    def test_bad_bucket_spec_names_the_key_and_part(self, tmp_path, capsys, spec, part):
        _, cache, _ = run_preprocess(tmp_path)
        capsys.readouterr()
        assert self.train_on(tmp_path, cache, "--data.buckets", spec) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "error: data.buckets: " in err and part in err

    @pytest.mark.parametrize("damage,message", [
        (lambda line: json.dumps({k: v for k, v in json.loads(line).items()
                                  if k != "target_ids"}),
         "missing field 'target_ids'"),
        (lambda line: line[:-5], "bad JSON"),
        (lambda line: line.replace('"input_ids":[', '"input_ids":["x",'),
         "field 'input_ids' must be a list of integers, got list"),
        (lambda line: json.dumps({**json.loads(line), "input_ids": []}),
         "field 'input_ids' must have length >= 1, got 0"),
        (lambda line: json.dumps({**json.loads(line), "target_ids": [2]}),
         "field 'target_ids' must have length >= 2, got 1"),
    ], ids=["missing_field", "truncated", "ids_not_integers", "empty_input",
            "bos_only_target"])
    def test_bad_cache_row_names_the_line(self, tmp_path, capsys, damage, message):
        _, cache, _ = run_preprocess(tmp_path)
        lines = cache.read_text(encoding="utf-8").splitlines()
        lines[2] = damage(lines[2])
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert self.train_on(tmp_path, cache) == EXIT_INPUT
        assert f"error: {cache}:3: {message}" in capsys.readouterr().err

    def test_generate_passage_not_a_string_names_the_line(self, tmp_path, capsys, vocab):
        save_small_checkpoint(tmp_path / "out", vocab)
        gen_in = write_jsonl(tmp_path / "in.jsonl", [
            {"id": "g0", "passage": "The gold was found in Warsaw.", "answer": "gold"},
            {"id": "g1", "passage": 123, "answer": "gold"},
        ])
        gen_out = tmp_path / "gen_out.jsonl"
        argv = ["generate", "--paths.out_dir", str(tmp_path / "out"),
                "--generate.max_length", "4", str(gen_in), str(gen_out)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: {gen_in}:2: field 'passage' must be a string, got int" in err
        assert not gen_out.exists()

    def test_evaluate_question_not_a_string_names_the_line(self, tmp_path, capsys):
        refs = write_jsonl(tmp_path / "refs.jsonl", [{"id": "a", "question": 5}])
        hyps = write_jsonl(tmp_path / "hyps.jsonl", [{"id": "a", "question": "b?"}])
        argv = ["evaluate", "--paths.out_dir", str(tmp_path / "out"), str(refs), str(hyps)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: {refs}:1: field 'question' must be a string, got int" in err

    @pytest.mark.parametrize("field,json_path", [
        ("context", "data[0].paragraphs[0]"),
        ("question", "data[0].paragraphs[0].qas[0]"),
    ])
    def test_squad_text_not_a_string_names_the_json_path(self, tmp_path, capsys,
                                                         field, json_path):
        qa = {"id": "q1", "question": "what?",
              "answers": [{"text": "gold", "answer_start": 0}]}
        para = {"context": "gold title here", "qas": [qa]}
        (qa if field == "question" else para)[field] = 5
        squad = tmp_path / "squad.json"
        squad.write_text(json.dumps({"data": [{"title": "T", "paragraphs": [para]}]}),
                         encoding="utf-8")
        argv = ["preprocess", "--paths.squad_json", str(squad),
                "--paths.examples_cache", str(tmp_path / "c.jsonl"),
                "--paths.out_dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: '{field}' at {json_path} must be a string, got int" in err

    @pytest.mark.parametrize("positions,buckets,need", [
        ("64", "64:16,128:24", 128), ("128", "128:200", 199),
    ], ids=["input", "target"])
    def test_bucket_wider_than_the_model_stops_before_step_1(self, tmp_path, capsys,
                                                            positions, buckets, need):
        _, cache, _ = run_preprocess(tmp_path)
        capsys.readouterr()
        code = self.train_on(tmp_path, cache, *SMALL_FLAGS, "--model.max_positions", positions,
                             "--data.buckets", buckets, "--train.total_steps", "40")
        assert code == EXIT_INPUT
        label = buckets.split(",")[-1].replace(":", "x")
        assert (f"error: bucket {label} needs {need} positions, "
                f"more than max_positions {positions}") in capsys.readouterr().err
        assert not (tmp_path / "run" / "metrics.jsonl").exists()

    def test_id_outside_the_vocabulary_names_the_example(self, tmp_path, capsys, vocab):
        _, cache, _ = run_preprocess(tmp_path)
        lines = cache.read_text(encoding="utf-8").splitlines()
        row = json.loads(lines[-1])
        row["input_ids"][1] = 999999
        lines[-1] = json.dumps(row)
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = self.train_on(tmp_path, cache, *SMALL_FLAGS, "--train.total_steps", "40")
        assert code == EXIT_INPUT
        assert (f"error: example {row['id']}: token id 999999 is outside the "
                f"vocabulary [0, {len(vocab)})") in capsys.readouterr().err
        assert not (tmp_path / "run" / "metrics.jsonl").exists()

    def test_evaluate_input_not_utf8_names_the_line(self, tmp_path, capsys):
        refs = tmp_path / "refs.jsonl"
        refs.write_bytes(b'{"id": "a", "question": "what?"}\n'
                         + '{"id": "b", "question": "café?"}\n'.encode("latin-1"))
        hyps = write_jsonl(tmp_path / "hyps.jsonl", [{"id": "a", "question": "what?"},
                                                     {"id": "b", "question": "who?"}])
        argv = ["evaluate", "--paths.out_dir", str(tmp_path / "out"), str(refs), str(hyps)]
        assert main(argv) == EXIT_INPUT
        assert f"error: {refs}:2: not UTF-8 (byte 0xe9)" in capsys.readouterr().err

    def test_squad_json_not_utf8_names_the_line(self, tmp_path, capsys):
        qa = {"id": "q1", "question": "what?",
              "answers": [{"text": "gold", "answer_start": 0}]}
        doc = {"data": [{"title": "T", "paragraphs": [
            {"context": "gold in the café", "qas": [qa]}]}]}
        squad = tmp_path / "squad.json"
        squad.write_bytes(json.dumps(doc, indent=1, ensure_ascii=False).encode("latin-1"))
        line = 1 + squad.read_bytes()[: squad.read_bytes().index(b"\xe9")].count(b"\n")
        assert line > 1
        argv = ["preprocess", "--paths.squad_json", str(squad),
                "--paths.examples_cache", str(tmp_path / "c.jsonl"),
                "--paths.out_dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_INPUT
        assert f"error: {squad}:{line}: not UTF-8 (byte 0xe9)" in capsys.readouterr().err

    def test_config_document_not_an_object_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text("[1, 2]", encoding="utf-8")
        assert main(["train", "--config", str(cfg_file)]) == EXIT_INPUT
        assert f"error: {cfg_file}: expected a JSON object" in capsys.readouterr().err

    def test_config_document_not_json_names_the_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text('{\n  "seed": 3,\n  "paths.out_dir" "x"\n}\n', encoding="utf-8")
        assert main(["train", "--config", str(cfg_file)]) == EXIT_INPUT
        assert f"error: {cfg_file}:3: bad JSON: Expecting ':' delimiter" \
            in capsys.readouterr().err

    def test_config_document_not_utf8_names_the_line(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_bytes('{\n  "paths.out_dir": "café"\n}\n'.encode("latin-1"))
        assert main(["train", "--config", str(cfg_file)]) == EXIT_INPUT
        assert f"error: {cfg_file}:2: not UTF-8 (byte 0xe9)" in capsys.readouterr().err

    @pytest.mark.parametrize("key,good_line", [
        ("paths.stopwords", "the"),
        ("paths.vocab", "[PAD]"),
        ("paths.gazetteer", "Warsaw\tGPE"),
    ])
    def test_resource_file_not_utf8_names_the_line(self, tmp_path, capsys, key, good_line):
        path = tmp_path / "resource.txt"
        path.write_bytes(f"{good_line}\ncafé\n".encode("latin-1"))
        code, _, _ = run_preprocess(tmp_path, [f"--{key}", str(path)])
        assert code == EXIT_INPUT
        assert f"error: {path}:2: not UTF-8 (byte 0xe9)" in capsys.readouterr().err

    def test_evaluate_without_questions_names_both_files(self, tmp_path, capsys):
        refs = write_jsonl(tmp_path / "refs.jsonl", [])
        hyps = write_jsonl(tmp_path / "hyps.jsonl", [])
        argv = ["evaluate", "--paths.out_dir", str(tmp_path / "out"), str(refs), str(hyps)]
        assert main(argv) == EXIT_INPUT
        assert f"error: no questions to compare in {refs} and {hyps}" \
            in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()


class TestConfigValues:
    """A config value outside its range, NaN included, exits 2 naming the key
    as it was spelled, before anything is trained or written."""

    @pytest.mark.parametrize("key,value", [
        ("train.clip_norm", "nan"),
        ("train.weight_decay", "nan"),
        ("train.label_smoothing", "2"),
        ("train.base_lr", "inf"),
        ("model.num_heads", "0"),
    ])
    def test_bad_train_value_names_the_key(self, tmp_path, capsys, key, value):
        _, cache, _ = run_preprocess(tmp_path)
        capsys.readouterr()
        run = tmp_path / "run"
        argv = ["train", "--paths.examples_cache", str(cache), "--paths.out_dir", str(run),
                "--train.total_steps", "1", "--train.warmup_steps", "1",
                "--train.batch_size", "2", *SMALL_FLAGS, f"--{key}", value]
        assert main(argv) == EXIT_INPUT
        assert f"error: {key} must be " in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("key,value", [
        ("data.max_target_ids", "1"),
        ("data.max_target_ids", "0"),
        ("data.max_target_ids", "-3"),
        ("data.max_input_ids", "0"),
        ("data.max_input_ids", "-3"),
    ])
    def test_length_key_below_its_least_names_the_key(self, tmp_path, capsys, key, value):
        """A length that cannot hold [BOS] [EOS] or one input piece; a slice
        by it would cut pieces from the end."""
        code, cache, out = run_preprocess(tmp_path, [f"--{key}", value])
        assert code == EXIT_INPUT
        assert f"error: {key} must be >= " in capsys.readouterr().err
        assert not cache.exists() and not out.exists()

    def test_generate_max_input_ids_below_one_names_the_key(self, tmp_path, capsys, vocab):
        save_small_checkpoint(tmp_path / "out", vocab)
        gen_in = write_jsonl(tmp_path / "gen_in.jsonl", [
            {"id": "g1", "passage": "The gold was found in Warsaw.", "answer": "gold"},
        ])
        gen_out = tmp_path / "gen_out.jsonl"
        argv = ["generate", "--paths.out_dir", str(tmp_path / "out"),
                "--generate.max_length", "4", "--data.max_input_ids", "-3",
                str(gen_in), str(gen_out)]
        assert main(argv) == EXIT_INPUT
        assert "error: data.max_input_ids must be >= 1, got -3" in capsys.readouterr().err
        assert not gen_out.exists()

    def test_negative_seed_names_the_key(self, tmp_path, capsys):
        _, cache, _ = run_preprocess(tmp_path)
        capsys.readouterr()
        run = tmp_path / "run"
        argv = ["train", "--paths.examples_cache", str(cache), "--paths.out_dir", str(run),
                "--train.total_steps", "1", "--train.warmup_steps", "1", "--seed", "-1"]
        assert main(argv) == EXIT_INPUT
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
        assert not run.exists()

    def test_odd_width_names_the_key(self, tmp_path, capsys):
        _, cache, _ = run_preprocess(tmp_path)
        capsys.readouterr()
        run = tmp_path / "run"
        argv = ["train", "--paths.examples_cache", str(cache), "--paths.out_dir", str(run),
                "--train.total_steps", "1", "--train.warmup_steps", "1",
                "--model.d_model", "5", "--model.num_heads", "1"]
        assert main(argv) == EXIT_INPUT
        assert "error: model.d_model must be even, got 5" in capsys.readouterr().err
        assert not run.exists()

    def test_nan_length_alpha_names_the_key(self, tmp_path, capsys, vocab):
        save_small_checkpoint(tmp_path / "out", vocab)
        gen_in = write_jsonl(tmp_path / "gen_in.jsonl", [
            {"id": "g1", "passage": "The gold was found in Warsaw.", "answer": "gold"},
        ])
        gen_out = tmp_path / "gen_out.jsonl"
        argv = ["generate", "--paths.out_dir", str(tmp_path / "out"),
                "--generate.max_length", "8", "--generate.length_alpha", "nan",
                str(gen_in), str(gen_out)]
        assert main(argv) == EXIT_INPUT
        assert "error: generate.length_alpha must be a finite number >= 0, got nan" \
            in capsys.readouterr().err
        assert not gen_out.exists()


class TestConfigSections:
    @pytest.mark.parametrize("section,cls", [
        ("model", ModelConfig), ("train", TrainConfig), ("generate", GenerationConfig),
    ])
    def test_each_key_is_a_field_with_the_same_default(self, section, cls):
        fields = {f.name: f for f in dataclasses.fields(cls)}
        keys = [k for k in DEFAULTS if k.startswith(section + ".")]
        assert keys
        for key in keys:
            field = fields[key.split(".", 1)[1]]
            if key == "train.total_steps":
                assert field.default is dataclasses.MISSING
            else:
                assert field.default == DEFAULTS[key], key
                assert type(field.default) is type(DEFAULTS[key]), key
