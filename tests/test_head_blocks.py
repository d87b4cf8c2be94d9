"""Checkpoints written before each attention projection was one matrix store
every projection as per-head column blocks, <block>.wq0 ... <block>.wq<h-1>
(the same for wk and wv, and for their Adam moments under m: and v:). The
reader knows only the layout save writes, so such a checkpoint is refused,
naming the file."""

import re

import numpy as np
import pytest

from qgen.cli import EXIT_INPUT, main
from qgen.model import TransformerModel, read_container, write_container
from qgen.training import TrainConfig, TrainState, load_checkpoint, save_checkpoint
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


@pytest.mark.parametrize("file,first", [("model.bin", "enc0.attn.wq"),
                                        ("state.bin", "m:enc0.attn.wq")],
                         ids=["model.bin", "state.bin"])
def test_per_head_checkpoint_is_refused_naming_the_file(tmp_path, capsys, vocab, file,
                                                        first):
    save_small_checkpoint(tmp_path, vocab)
    model = TransformerModel.load(tmp_path / "checkpoint" / "model.bin")
    ckpt = tmp_path / "out" / "checkpoint"
    save_checkpoint(ckpt, model, TrainState(model, seed=0),
                    TrainConfig(total_steps=1, warmup_steps=1))
    path = ckpt / file
    meta, arrays = read_container(path)
    write_container(path, meta, split_heads(arrays, model.config.num_heads))
    if file == "model.bin":
        gen_in = write_jsonl(tmp_path / "in.jsonl", [
            {"id": "g0", "passage": "The gold was found in Warsaw.", "answer": "gold"},
        ])
        gen_out = tmp_path / "out.jsonl"
        argv = ["generate", "--paths.out_dir", str(tmp_path / "out"), str(gen_in),
                str(gen_out)]
        assert main(argv) == EXIT_INPUT
        error = capsys.readouterr().err
        assert not gen_out.exists()
    else:
        with pytest.raises(ValueError) as caught:
            load_checkpoint(ckpt)
        error = str(caught.value)
    assert (f"checkpoint {path} parameter names do not match config: no '{first}'"
            in error)
