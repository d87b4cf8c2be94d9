"""The benchmark's traced runs (perfbench/run.py --trace 1) wrap qgen
functions where their callers look them up, by name. A site that no longer
resolves, say an import dropped from qgen.model, crashes every traced run;
this test catches that without running the benchmark. The decode site's
counter reads the decoder ids by position, so that layout is pinned too."""

import collections
import pathlib
from types import SimpleNamespace

import numpy as np

from qgen.generation import GenerationConfig, beam_search
from qgen.model import ModelConfig, TransformerModel
from qgen.squad import Bucket, InvertedExample
from qgen.training import TrainConfig, TrainState, train_step

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    missing = []
    for site, _, _ in layers.SITES:
        owner, attr = spans.resolve(site)
        if attr not in owner.__dict__:  # how spans.replace_function reads it
            missing.append(site)
    assert missing == []


def test_decode_sites_find_the_decoder_ids_at_args_3(monkeypatch):
    """perfbench counts a decode call's positions from args[3] (args[0] is
    the model), the 2-d decoder-id matrix, in a training step and in the
    search's rescoring call alike."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    calls = []
    decode = TransformerModel.decode

    def recorded(*args, **kwargs):
        out = decode(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(TransformerModel, "decode", recorded)
    model = TransformerModel(ModelConfig(vocab_size=12, d_model=8, num_heads=2, enc_layers=1,
                                         dec_layers=1, d_ff=16, max_positions=12), seed=0)
    examples = [InvertedExample("a", [4, 5, 6, 7], [2, 8, 9, 3]),
                InvertedExample("b", [5, 6], [2, 9, 3])]
    batch = Bucket(6, 6, examples).batch([0, 1], model.config.pad_id)
    train_step(model, batch, TrainState(model, 0), TrainConfig(total_steps=1, warmup_steps=1))
    beam_search(model, [4, 5, 6], GenerationConfig(beam_width=2, max_length=5))
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[0][0][3], batch[1][:, :-1])
    tracer = SimpleNamespace(parent_name=lambda: "generation.beam_search",
                             counters=collections.Counter())
    for args, kwargs, out in calls:
        ids = args[3]
        assert ids.ndim == 2 and ids.dtype.kind == "i"
        assert ids[0, 0] == model.config.bos_id
        before = tracer.counters["model.decode.positions"]
        layers._decode_rows(tracer, args, kwargs, out)
        assert tracer.counters["model.decode.positions"] - before == ids.size
