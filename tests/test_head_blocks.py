"""Checkpoints written before each attention projection was one matrix store
every projection as per-head column blocks, <block>.wq0 ... <block>.wq<h-1>
(the same for wk and wv, and for their Adam moments under m: and v:). They
still load, as the matrices those blocks are the columns of."""

import re

import numpy as np
import pytest

from qgen.cli import EXIT_INPUT, main
from qgen.generation import GenerationConfig, beam_search
from qgen.model import ModelConfig, TransformerModel, read_container, write_container
from qgen.squad import Bucket
from qgen.training import (TrainConfig, TrainState, load_checkpoint, save_checkpoint,
                           train_step)
from test_cli import save_small_checkpoint, write_jsonl

PROJECTION = re.compile(r".*\.w[qkv]")


def split_heads(arrays, num_heads):
    """The tensors of a container with each projection (and its moments)
    split, in place, into num_heads column blocks named by head index."""
    tensors = []
    for name, array in arrays.items():
        if PROJECTION.fullmatch(name):
            blocks = np.split(array, num_heads, axis=1)
            tensors.extend((f"{name}{i}", block) for i, block in enumerate(blocks))
        else:
            tensors.append((name, array))
    return tensors


def rewrite_per_head(path, num_heads, edit=lambda tensors: tensors):
    meta, arrays = read_container(path)
    write_container(path, meta, edit(split_heads(arrays, num_heads)))


def trained_checkpoint(directory, vocab_size=12, num_heads=2):
    """A checkpoint after two training steps, so the moments are not zero,
    with its model and state."""
    config = ModelConfig(vocab_size=vocab_size, d_model=8, num_heads=num_heads,
                         enc_layers=1, dec_layers=1, d_ff=16, max_positions=12,
                         dropout=0.0, pad_id=0, bos_id=2, eos_id=3)
    model = TransformerModel(config, seed=5)
    state = TrainState(model, seed=1)
    train_cfg = TrainConfig(total_steps=2, base_lr=1e-2, warmup_steps=1, batch_size=2)
    rng = np.random.default_rng(2)
    for _ in range(2):
        inputs = rng.integers(4, vocab_size, size=(2, 5))
        middle = rng.integers(4, vocab_size, size=(2, 3))
        targets = np.column_stack([[2, 2], middle, [3, 3]])
        train_step(model, (inputs, targets, Bucket(5, 5)), state, train_cfg)
    save_checkpoint(directory, model, state, train_cfg)
    return model, state


class TestPerHeadCheckpoint:
    def test_loads_the_arrays_the_blocks_are_the_columns_of(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        model, state = trained_checkpoint(ckpt)
        rewrite_per_head(ckpt / "model.bin", 2)
        rewrite_per_head(ckpt / "state.bin", 2)
        assert "enc0.attn.wq1" in read_container(ckpt / "model.bin")[1]
        assert "v:dec0.cross_attn.wv1" in read_container(ckpt / "state.bin")[1]
        loaded, loaded_state, _ = load_checkpoint(ckpt)
        assert loaded_state.step == state.step == 2
        for p, q in zip(model.parameters(), loaded.parameters(), strict=True):
            assert p.name == q.name
            np.testing.assert_array_equal(q.data, p.data)
            np.testing.assert_array_equal(loaded_state.m[p.name], state.m[p.name])
            np.testing.assert_array_equal(loaded_state.v[p.name], state.v[p.name])
        assert np.any(state.m["enc0.attn.wq"] != 0.0)

    @pytest.mark.parametrize("width", [1, 4])
    def test_decodes_the_same_tokens(self, tmp_path, width):
        path = tmp_path / "model.bin"
        model = TransformerModel(ModelConfig(vocab_size=16, d_model=16, num_heads=4,
                                             enc_layers=1, dec_layers=2, d_ff=32,
                                             max_positions=16), seed=9)
        model.save(path)
        rewrite_per_head(path, 4)
        loaded = TransformerModel.load(path)
        cfg = GenerationConfig(beam_width=width, max_length=10)
        for source in ([4, 5, 6, 7, 8], [9, 10, 11]):
            want = beam_search(model, source, cfg)
            got = beam_search(loaded, source, cfg)
            assert [h.tokens for h in got] == [h.tokens for h in want]
            assert [h.log_prob for h in got] == [h.log_prob for h in want]

    @pytest.mark.parametrize("edit,message", [
        (lambda ts, wk: [(n, a) for n, a in ts if n != f"{wk}1"],
         "{wk} is stored as 1 heads, not as one matrix or 2 heads"),
        (lambda ts, wk: [(f"{wk}2" if n == f"{wk}1" else n, a) for n, a in ts],
         "parameter names do not match config: no '{wk}1'"),
        (lambda ts, wk: ts + [(f"{wk}2", np.zeros((8, 4)))],
         "{wk} is stored as 3 heads, not as one matrix or 2 heads"),
        (lambda ts, wk: ts + [(wk, np.zeros((8, 8)))],
         "{wk} is stored as 2 heads, not as one matrix or 2 heads"),
        (lambda ts, wk: [(n, a[:, :3] if n == f"{wk}1" else a) for n, a in ts],
         "{wk}1 has shape (8, 3), expected (8, 4)"),
    ], ids=["missing_head", "gap", "extra_head", "whole_and_heads", "narrow_head"])
    @pytest.mark.parametrize("file,wk", [("model.bin", "enc0.attn.wk"),
                                         ("state.bin", "m:enc0.attn.wk")])
    def test_head_set_it_cannot_join_names_the_file(self, tmp_path, edit, message, file,
                                                    wk):
        ckpt = tmp_path / "ckpt"
        trained_checkpoint(ckpt)
        path = ckpt / file
        rewrite_per_head(path, 2, lambda tensors: edit(tensors, wk))
        with pytest.raises(ValueError) as caught:
            load_checkpoint(ckpt)
        assert f"checkpoint {path}" in str(caught.value)
        assert message.format(wk=wk) in str(caught.value)

    def test_generate_exits_2_naming_the_file(self, tmp_path, capsys, vocab):
        save_small_checkpoint(tmp_path / "out", vocab)
        model_bin = tmp_path / "out" / "checkpoint" / "model.bin"
        rewrite_per_head(model_bin, 2,
                         lambda ts: [(n, a) for n, a in ts if n != "dec0.self_attn.wq0"])
        gen_in = write_jsonl(tmp_path / "in.jsonl", [
            {"id": "g0", "passage": "The gold was found in Warsaw.", "answer": "gold"},
        ])
        gen_out = tmp_path / "out.jsonl"
        argv = ["generate", "--paths.out_dir", str(tmp_path / "out"), str(gen_in),
                str(gen_out)]
        assert main(argv) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"error: checkpoint {model_bin}: dec0.self_attn.wq is stored" in err
        assert not gen_out.exists()
