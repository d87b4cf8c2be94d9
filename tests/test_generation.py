import dataclasses
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from qgen import generation
from qgen.cli import DEFAULTS, _model_config
from qgen.generation import (
    RESCORE_MARGIN,
    BeamHypothesis,
    GenerationConfig,
    _top_k,
    beam_search,
    generate_batch,
    greedy_decode,
    substitute_entities,
)
from qgen.model import ModelConfig, TransformerModel
from qgen.preprocess import PreprocessError, postprocess_question, preprocess_pair
from qgen.squad import DEFAULT_BUCKET_BOUNDS, clip_input
from qgen.tensor import ShapeError, Tensor, log_softmax, no_grad
from qgen.wordpiece import TokenSequence

# The largest |log_prob - float64 value| a hypothesis beam_search does not
# rescore may carry: its search runs at float32. The largest measured on the
# small_model searches below was 1.4e-6.
FLOAT32_BOUND = 1e-5


class TableModel:
    """Stub decoder whose next-token logits depend only on the decoding
    position, or on the position and the row's previous token.

    logits_table has shape (max positions, vocab) or (max positions, vocab,
    vocab); row t (and, for the second, the previous token) scores the token
    at decoding position t. decode is teacher-forced from position 0, and
    stepper steps one position at a time, like the real model's. It has no
    parameters, and its encoder output is a placeholder.
    """

    def __init__(self, logits_table, bos_id=2, eos_id=3, pad_id=0):
        self.table = np.asarray(logits_table, dtype=float)
        self.config = SimpleNamespace(bos_id=bos_id, eos_id=eos_id, pad_id=pad_id)

    def encode(self, input_ids):
        return Tensor(np.zeros((1, 1, 1))), np.asarray(input_ids)

    def logits(self, start, dec_ids):
        """The (k, t, vocab) logits of dec_ids (k, t) at positions start, start + 1, ..."""
        k, t = dec_ids.shape
        rows = self.table[np.minimum(np.arange(start, start + t), len(self.table) - 1)]
        if rows.ndim == 3:
            return rows[np.arange(t), dec_ids]
        return np.broadcast_to(rows, (k, t, self.table.shape[-1]))

    def decode(self, enc_out, src_ids, dec_input_ids):
        return Tensor(self.logits(0, np.asarray(dec_input_ids)))

    def stepper(self, enc_out, src_ids, max_length):
        return TableStepper(self)


class TableStepper:
    """A TableModel's stepper. Its logits depend on the position and each
    row's last token only, so select has nothing to keep."""

    def __init__(self, model):
        self.model, self.length = model, 0

    def step(self, last_ids):
        logits = self.model.logits(self.length, np.asarray(last_ids)[:, None])[:, 0]
        self.length += 1
        return logits

    def select(self, rows):
        pass


def bigram_table(default, rows, positions):
    """A (positions, vocab, vocab) TableModel table of log-probabilities:
    rows maps (position, previous token) to next-token probabilities, and
    every other pair scores with default."""
    table = np.tile(np.log(default), (positions, len(default), 1))
    for (position, previous), probs in rows.items():
        table[position, previous] = np.log(probs)
    return table


def enumerate_best(table, cfg, eos):
    """Exhaustive search over every sequence of length <= max_length that ends
    with the end marker and contains it nowhere else."""
    vocab = table.shape[1]
    log_probs = []
    for row in table:
        shifted = row - row.max()
        log_probs.append(shifted - math.log(np.exp(shifted).sum()))
    best = None
    tokens = [t for t in range(vocab) if t != eos]
    for length in range(1, cfg.max_length + 1):
        for body in itertools.product(tokens, repeat=length - 1):
            seq = body + (eos,)
            lp = sum(log_probs[min(i, len(table) - 1)][t] for i, t in enumerate(seq))
            score = lp / (len(seq) ** cfg.length_alpha)
            key = (-score, seq)
            if best is None or key < best[0]:
                best = (key, BeamHypothesis(seq, lp))
    return best[1]


def enumerate_logp(table, tokens):
    """tokens' log-probability under a (positions, vocab) TableModel table."""
    return sum(float(log_softmax(table[i], "table")[t]) for i, t in enumerate(tokens))


def reference_greedy(model, input_ids, max_length):
    """Argmax decoding written out apart from qgen.generation's search: ties
    go to the smallest token id, and the end marker is forced at max_length."""
    bos, eos = model.config.bos_id, model.config.eos_id
    with no_grad():
        enc_out, src_ids = model.encode(np.asarray(input_ids, dtype=np.int64))
        tokens, total = (), 0.0
        for position in range(max_length):
            dec_in = np.array([bos, *tokens], dtype=np.int64)
            row = model.decode(enc_out, src_ids, dec_in).data[-1]
            shifted = row - row.max()
            logp = shifted - np.log(np.exp(shifted).sum())
            token = eos if position == max_length - 1 else int(logp.argmax())
            tokens += (token,)
            total += float(logp[token])
            if token == eos:
                break
    return BeamHypothesis(tokens, total)


def reference_beam(model, input_ids, cfg):
    """The search as two searches, written out apart from beam_search: the
    width-cfg.beam_width beam and, above width 1, the greedy search, each
    with its own candidates, ranking and finished pool, stepped in one batch.
    The greedy completion joins the beam's pool unless the beam finished the
    same tokens; rescoring and ranking are beam_search's."""
    eos, width, alpha = model.config.eos_id, cfg.beam_width, cfg.length_alpha
    widths = (width,) if width == 1 else (width, 1)
    pools = [[] for _ in widths]
    with no_grad():
        enc_out, src_ids = model.encode(np.asarray(input_ids, dtype=np.int64))
        stepper = model.stepper(enc_out.data.astype(generation.COMPUTE_DTYPE), src_ids,
                                cfg.max_length)
        live = [(search, (), 0.0) for search in range(len(widths))]
        last = np.full(len(widths), model.config.bos_id, dtype=np.int64)
        for position in range(1, cfg.max_length + 1):
            logp = log_softmax(stepper.step(last), "decoder logits")
            if position == cfg.max_length:
                picks = np.full((len(live), 1), eos)
            else:
                picks = _top_k(logp, width)
            candidates = [[] for _ in widths]
            for row, (search, tokens, total) in enumerate(live):
                for t in picks[row, : widths[search]]:
                    candidates[search].append(
                        (tokens + (int(t),), total + float(logp[row, t]), row))
            live, rows = [], []
            for search, found in enumerate(candidates):
                kept = []
                for tokens, total, row in found:
                    if tokens[-1] == eos:
                        pools[search].append(BeamHypothesis(tokens, total))
                    else:
                        kept.append((tokens, total, row))
                kept.sort(key=lambda c: (-c[1], c[0]))
                for tokens, total, row in kept[: widths[search]]:
                    live.append((search, tokens, total))
                    rows.append(row)
            if not live:
                break
            stepper.select(rows)
            last = np.array([tokens[-1] for _, tokens, _ in live], dtype=np.int64)
        finished, greedy = pools[0], pools[-1][0]
        if all(h.tokens != greedy.tokens for h in finished):
            finished.append(greedy)
        best = max(h.score(alpha) for h in finished)
        floor = best - RESCORE_MARGIN * (1.0 + abs(best))
        near = [h for h in finished if h.score(alpha) >= floor]
        rest = [h for h in finished if h.score(alpha) < floor]
        near = generation._teacher_forced(model, enc_out, src_ids, near)
    return (sorted(near, key=lambda h: (-h.score(alpha), h.tokens))
            + sorted(rest, key=lambda h: (-h.score(alpha), h.tokens)))


def assert_same_pool(got, want):
    """The same hypotheses in the same order, log_probs within 1e-12."""
    assert [h.tokens for h in got] == [h.tokens for h in want]
    for hyp, reference in zip(got, want):
        assert hyp.log_prob == pytest.approx(reference.log_prob, abs=1e-12)


def forward_log_prob(model, input_ids, tokens):
    """tokens' log-probability from one float64 teacher-forced model.forward."""
    with no_grad():
        logits = model.forward(input_ids, [model.config.bos_id, *tokens[:-1]]).data
    logp = log_softmax(logits, "logits")
    return float(logp[np.arange(len(tokens)), list(tokens)].sum())


def error_bound(pool, hyp, alpha, rescored):
    """The tolerance on hyp's log_prob in a beam_search pool: rescored for a
    hypothesis well inside the rescoring margin of the best, FLOAT32_BOUND
    for any other."""
    best = pool[0].score(alpha)
    floor = best - RESCORE_MARGIN * (1 + abs(best))
    return rescored if hyp.score(alpha) >= floor + FLOAT32_BOUND else FLOAT32_BOUND


def float64_search(model, input_ids, cfg, monkeypatch):
    """beam_search with its decoder steps at float64."""
    with monkeypatch.context() as patch:
        patch.setattr(generation, "COMPUTE_DTYPE", np.float64)
        return beam_search(model, input_ids, cfg)


def small_model(seed=0, vocab_size=10):
    cfg = ModelConfig(vocab_size=vocab_size, d_model=8, num_heads=2, enc_layers=1,
                      dec_layers=1, d_ff=16, max_positions=16, dropout=0.0,
                      pad_id=0, bos_id=2, eos_id=3)
    return TransformerModel(cfg, seed=seed)


class TestGenerationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(beam_width=0)
        with pytest.raises(ValueError):
            GenerationConfig(max_length=0)
        with pytest.raises(ValueError):
            GenerationConfig(length_alpha=-0.1)


class TestTopK:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 9, 40])
    def test_matches_a_stable_argsort(self, width):
        """Rows drawn from 2-4 distinct values, so ties are common; a width of
        9 or 40 reaches or passes the row length."""
        rng = np.random.default_rng(width)
        for _ in range(300):
            values = rng.normal(size=rng.integers(2, 5))
            logp = values[rng.integers(0, len(values), size=(rng.integers(1, 7),
                                                              rng.integers(1, 10)))]
            want = np.argsort(-logp, axis=-1, kind="stable")[:, :width]
            np.testing.assert_array_equal(_top_k(logp, width), want)


class TestBeamSearch:
    def test_beam_one_equals_greedy(self):
        cfg = GenerationConfig(beam_width=1, max_length=8, length_alpha=0.6)
        rng = np.random.default_rng(0)
        for seed in range(10):
            model = small_model(seed=seed)
            ids = rng.integers(4, 10, size=5)
            want = reference_greedy(model, ids, cfg.max_length)
            for got in (greedy_decode(model, ids, cfg), beam_search(model, ids, cfg)[0]):
                assert got.tokens == want.tokens
                assert got.log_prob == pytest.approx(want.log_prob, abs=1e-12)

    def test_greedy_is_the_width_one_search(self):
        """Tokens and log_prob equal, exactly, to beam_search's best at width 1,
        whatever width cfg asks for."""
        cfg = GenerationConfig(beam_width=4, max_length=8, length_alpha=0.6)
        rng = np.random.default_rng(0)
        for seed in range(10):
            model = small_model(seed=seed)
            ids = rng.integers(4, 10, size=5)
            want = beam_search(model, ids, dataclasses.replace(cfg, beam_width=1))[0]
            assert greedy_decode(model, ids, cfg) == want

    def test_beam_four_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(42)
        cfg = GenerationConfig(beam_width=4, max_length=3, length_alpha=0.6)
        for _ in range(20):
            table = rng.normal(size=(3, 4))
            model = TableModel(table)
            best = beam_search(model, np.array([1]), cfg)[0]
            want = enumerate_best(table, cfg, eos=3)
            assert best.tokens == want.tokens
            assert best.log_prob == pytest.approx(want.log_prob, abs=1e-12)

    def test_max_length_one_forces_end_marker(self):
        model = TableModel(np.zeros((1, 4)))
        cfg = GenerationConfig(beam_width=3, max_length=1)
        hyps = beam_search(model, np.array([1]), cfg)
        assert [h.tokens for h in hyps] == [(3,)]
        assert hyps[0].log_prob == pytest.approx(math.log(0.25), abs=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "row of -inf"])
    def test_non_finite_logits_are_an_error(self, bad):
        table = np.zeros((4, 6))
        if bad == "row of -inf":
            table[1] = -math.inf
        else:
            table[1, 4] = bad
        with pytest.raises(ValueError, match="decoder logits contain NaN or infinity"):
            beam_search(TableModel(table), np.array([1]),
                        GenerationConfig(beam_width=2, max_length=4))

    def test_minus_inf_logit_is_a_token_never_picked(self):
        """Width 4 over 4 tokens takes the -inf one among each row's picks;
        the best hypothesis still matches exhaustive enumeration."""
        rng = np.random.default_rng(5)
        cfg = GenerationConfig(beam_width=4, max_length=3, length_alpha=0.6)
        for _ in range(10):
            table = rng.normal(size=(3, 4))
            table[:, 1] = -math.inf
            best = beam_search(TableModel(table), np.array([1]), cfg)[0]
            want = enumerate_best(table, cfg, eos=3)
            assert 1 not in best.tokens
            assert best.tokens == want.tokens
            assert best.log_prob == pytest.approx(want.log_prob, abs=1e-12)

    def test_finished_hypotheses_end_with_eos(self):
        model = small_model(seed=3)
        cfg = GenerationConfig(beam_width=3, max_length=6)
        for h in beam_search(model, np.array([4, 5, 6]), cfg):
            assert h.tokens[-1] == model.config.eos_id
            assert model.config.eos_id not in h.tokens[:-1]

    def test_score_recomputes_by_teacher_forcing(self):
        model = small_model(seed=4)
        cfg = GenerationConfig(beam_width=4, max_length=6)
        ids = np.array([4, 5, 6, 7])
        pool = beam_search(model, ids, cfg)
        for hyp in pool[:3]:
            enc, src = model.encode(ids)
            dec_in = np.array([model.config.bos_id, *hyp.tokens[:-1]])
            logits = model.decode(enc, src, dec_in).data
            total = 0.0
            for pos, token in enumerate(hyp.tokens):
                row = logits[pos] - logits[pos].max()
                total += row[token] - math.log(np.exp(row).sum())
            bound = error_bound(pool, hyp, cfg.length_alpha, rescored=1e-9)
            assert total == pytest.approx(hyp.log_prob, abs=bound)

    def test_beam_top_score_at_least_greedy(self):
        cfg1 = GenerationConfig(beam_width=1, max_length=6, length_alpha=0.6)
        for seed in range(8):
            model = small_model(seed=seed)
            ids = np.array([4, 5, 6])
            greedy_score = beam_search(model, ids, cfg1)[0].score(0.6)
            for width in (2, 4, 6):
                cfg = GenerationConfig(beam_width=width, max_length=6,
                                       length_alpha=0.6)
                assert beam_search(model, ids, cfg)[0].score(0.6) >= \
                    greedy_score - 1e-12

    def test_pool_holds_reference_greedy(self):
        rng = np.random.default_rng(7)
        for seed in range(8):
            model = small_model(seed=seed)
            ids = rng.integers(4, 10, size=int(rng.integers(1, 8)))
            want = reference_greedy(model, ids, 8)
            for width in (2, 4):
                cfg = GenerationConfig(beam_width=width, max_length=8)
                pool = beam_search(model, ids, cfg)
                got, = [h for h in pool if h.tokens == want.tokens]
                bound = error_bound(pool, got, cfg.length_alpha, rescored=1e-12)
                assert got.log_prob == pytest.approx(want.log_prob, abs=bound)

    # Two searches that part after step 1. The greedy search takes token 4
    # (p .5) and then 1 (p .3), so (4, 1) scores .15; the width-2 beam keeps
    # (5, 4) at .24 and (5, 5) at .156 instead.
    PARTING = {
        (0, 2): [.01, .02, .02, .05, .5, .4],
        (1, 4): [.1, .3, .05, .05, .25, .25],
        (1, 5): [.002, .002, .002, .004, .6, .39],
    }

    def test_greedy_outlives_the_beam_it_left(self):
        # A beam of width >= 2 always keeps a live continuation that is not
        # the end marker, so it can only run out at max_length. Here every
        # hypothesis the beam finishes by itself ends at step 3, while the
        # greedy row, cut from the beam at step 2, runs on to max_length.
        table = bigram_table([.2, .2, .1, .1, .2, .2], {
            **self.PARTING,
            (2, 1): [.1, .1, .1, .1, .5, .1],
            (2, 4): [.05, .05, .05, .7, .05, .1],
            (2, 5): [.05, .05, .05, .6, .15, .1],
        }, positions=4)
        cfg = GenerationConfig(beam_width=2, max_length=4, length_alpha=0.6)
        pool = beam_search(TableModel(table), np.array([1]), cfg)
        ln = math.log
        want = [
            ((5, 4, 3), ln(.4) + ln(.6) + ln(.7)),
            ((5, 5, 3), ln(.4) + ln(.39) + ln(.6)),
            ((4, 1, 4, 3), ln(.5) + ln(.3) + ln(.5) + ln(.1)),
            ((5, 4, 5, 3), ln(.4) + ln(.6) + ln(.1) + ln(.1)),
            ((5, 5, 4, 3), ln(.4) + ln(.39) + ln(.15) + ln(.1)),
        ]
        assert [h.tokens for h in pool] == [tokens for tokens, _ in want]
        for hyp, (_, log_prob) in zip(pool, want):
            assert hyp.log_prob == pytest.approx(log_prob, abs=1e-12)

    def test_greedy_finishes_while_beams_live(self):
        # The greedy row ends at step 3; the beam finds no end marker among
        # its two best tokens until max_length forces it at step 5.
        table = bigram_table([.2, .2, .1, .1, .2, .2], {
            **self.PARTING,
            (2, 1): [.05, .05, .05, .8, .03, .02],
            (2, 4): [.1, .1, .1, .1, .2, .4],
            (2, 5): [.1, .1, .1, .1, .4, .2],
        }, positions=5)
        cfg = GenerationConfig(beam_width=2, max_length=5, length_alpha=0.6)
        pool = beam_search(TableModel(table), np.array([1]), cfg)
        ln = math.log
        want = [
            ((4, 1, 3), ln(.5) + ln(.3) + ln(.8)),
            ((5, 4, 5, 0, 3), ln(.4) + ln(.6) + ln(.4) + ln(.2) + ln(.1)),
            ((5, 4, 5, 1, 3), ln(.4) + ln(.6) + ln(.4) + ln(.2) + ln(.1)),
        ]
        assert [h.tokens for h in pool] == [tokens for tokens, _ in want]
        for hyp, (_, log_prob) in zip(pool, want):
            assert hyp.log_prob == pytest.approx(log_prob, abs=1e-12)

    def test_equal_live_continuations_rank_by_tokens(self):
        # After step 2 the beam's (1, 0) and (0, 1) tie exactly: ranking by
        # tokens keeps (0, 1), where row order would keep (1, 0).
        ln = math.log
        table = np.tile([ln(.25), ln(.5), -math.inf, ln(.125), ln(.125)], (3, 1))
        cfg = GenerationConfig(beam_width=2, max_length=3, length_alpha=0.6)
        pool = beam_search(TableModel(table), np.array([1]), cfg)
        want = [
            ((1, 1, 3), ln(.5) + ln(.5) + ln(.125)),
            ((0, 1, 3), ln(.25) + ln(.5) + ln(.125)),
        ]
        assert [h.tokens for h in pool] == [tokens for tokens, _ in want]
        for hyp, (_, log_prob) in zip(pool, want):
            assert hyp.log_prob == pytest.approx(log_prob, abs=1e-12)

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_matches_the_two_search_reference(self, width):
        """Whole pools on random bigram tables whose logits take 2-4 distinct
        values, so tokens and totals tie."""
        rng = np.random.default_rng(width)
        for max_length in (2, 3, 4, 5):
            cfg = GenerationConfig(beam_width=width, max_length=max_length)
            for _ in range(25):
                values = rng.normal(size=rng.integers(2, 5))
                vocab = int(rng.integers(4, 8))
                model = TableModel(values[rng.integers(
                    0, len(values), size=(max_length, vocab, vocab))])
                assert_same_pool(beam_search(model, np.array([1]), cfg),
                                 reference_beam(model, np.array([1]), cfg))

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_matches_the_two_search_reference_on_a_model(self, width):
        rng = np.random.default_rng(width)
        cfg = GenerationConfig(beam_width=width, max_length=8)
        for seed in range(4):
            model = small_model(seed=seed)
            ids = rng.integers(4, 10, size=int(rng.integers(1, 8)))
            assert_same_pool(beam_search(model, ids, cfg),
                             reference_beam(model, ids, cfg))

    def test_one_encode_one_stepper_and_one_step_per_position(self):
        model = small_model(seed=2)
        calls = {"encode": 0, "decode": 0, "stepper": 0, "step": 0}

        def counted(owner, name):
            method = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        def stepper(*args):
            steps = make_stepper(*args)
            steps.step = counted(steps, "step")
            return steps

        model.encode, model.decode = counted(model, "encode"), counted(model, "decode")
        make_stepper, model.stepper = counted(model, "stepper"), stepper
        cfg = GenerationConfig(beam_width=4, max_length=10)
        pool = beam_search(model, np.array([4, 5, 6, 7]), cfg)
        assert calls["encode"] == 1 and calls["stepper"] == 1
        # One step per position up to the longest hypothesis, and one decode,
        # the float64 rescoring of the best.
        assert calls["step"] == max(len(h.tokens) for h in pool)
        assert calls["decode"] == 1

    def test_decoding_past_max_positions_raises(self):
        model = small_model(seed=1)
        assert model.config.max_positions == 16
        # Width 2 keeps a live hypothesis at every step, so decoding reaches
        # position 17.
        cfg = GenerationConfig(beam_width=2, max_length=20)
        with pytest.raises(ShapeError,
                           match="decoder input length 17 exceeds max positions 16"):
            beam_search(model, np.array([4, 5, 6]), cfg)

    def test_deterministic(self):
        model = small_model(seed=5)
        cfg = GenerationConfig(beam_width=4, max_length=6)
        a = beam_search(model, np.array([4, 5]), cfg)
        b = beam_search(model, np.array([4, 5]), cfg)
        assert [(h.tokens, h.log_prob) for h in a] == \
               [(h.tokens, h.log_prob) for h in b]


class SkewedTableModel(TableModel):
    """A TableModel whose logits gain skew where the encoder output it is
    given is float32, as beam_search's search steps pass it; its float64
    logits, what rescoring reads, are the table's."""

    def __init__(self, logits_table, skew):
        super().__init__(logits_table)
        self.skew = np.asarray(skew, dtype=float)

    def stepper(self, enc_out, src_ids, max_length):
        steps = super().stepper(enc_out, src_ids, max_length)
        if enc_out.dtype == np.float32:
            step = steps.step
            steps.step = lambda last_ids: step(last_ids) + self.skew
        return steps


@pytest.fixture(scope="module")
def cli_model(vocab):
    """A random-init model at the CLI's default settings."""
    return TransformerModel(_model_config(dict(DEFAULTS), vocab), seed=0)


class TestFloat32Search:
    @pytest.mark.parametrize("seed", range(8))
    def test_best_is_the_float64_search_best(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        model = small_model(seed=seed)
        for width in (1, 2, 4):
            cfg = GenerationConfig(beam_width=width, max_length=8)
            ids = rng.integers(4, 10, size=int(rng.integers(1, 8)))
            best = beam_search(model, ids, cfg)[0]
            assert best.tokens == float64_search(model, ids, cfg, monkeypatch)[0].tokens
            assert best.log_prob == pytest.approx(
                forward_log_prob(model, ids, best.tokens), abs=1e-12)

    @pytest.mark.parametrize("bucket", DEFAULT_BUCKET_BOUNDS, ids=lambda b: f"{b[0]}x{b[1]}")
    def test_cli_model_best_is_the_float64_search_best(self, cli_model, bucket,
                                                       monkeypatch):
        """One input per length band, as long as the band's widest."""
        ids = np.random.default_rng(bucket[0]).integers(
            4, cli_model.config.vocab_size, size=bucket[0] - 10)
        cfg = GenerationConfig()
        pool = beam_search(cli_model, ids, cfg)
        assert pool[0].tokens == float64_search(cli_model, ids, cfg, monkeypatch)[0].tokens
        assert pool[0].log_prob == pytest.approx(
            forward_log_prob(cli_model, ids, pool[0].tokens), abs=1e-12)

    def test_hypotheses_inside_the_margin_rank_by_float64_score(self):
        # At float32 token 4 leads token 5 by 2e-6; at float64 token 5 leads
        # by 1e-6. Both are inside the margin, so both are rescored.
        table = np.zeros((2, 6))
        table[0] = [-9, -9, -9, -9, 0, 1e-6]
        skew = np.zeros(6)
        skew[4] = 3e-6
        pool = beam_search(SkewedTableModel(table, skew), np.array([1]),
                           GenerationConfig(beam_width=2, max_length=2))
        want = [(5, 3), (4, 3)]
        assert [h.tokens for h in pool] == want
        for hyp in pool:
            assert hyp.log_prob == pytest.approx(
                enumerate_logp(table, hyp.tokens), abs=1e-12)

    def test_hypotheses_outside_the_margin_keep_their_search_value(self):
        # Token 1 trails the best by far more than the margin: its entry
        # carries the skewed search value, the others their table value.
        table = np.zeros((2, 6))
        table[0] = [-9, -2, -9, -9, 0, 1e-6]
        skew = np.zeros(6)
        skew[1] = 0.5
        pool = beam_search(SkewedTableModel(table, skew), np.array([1]),
                           GenerationConfig(beam_width=3, max_length=2))
        assert [h.tokens for h in pool] == [(5, 3), (4, 3), (1, 3)]
        assert pool[0].log_prob == pytest.approx(enumerate_logp(table, (5, 3)), abs=1e-12)
        assert pool[1].log_prob == pytest.approx(enumerate_logp(table, (4, 3)), abs=1e-12)
        assert pool[2].log_prob == pytest.approx(
            enumerate_logp(table + [skew, skew], (1, 3)), abs=1e-12)

    def test_parameters_are_float64_after_a_search(self, cli_model):
        masters = [p.data for p in cli_model.parameters()]
        beam_search(cli_model, np.arange(4, 20), GenerationConfig(max_length=3))
        for p, master in zip(cli_model.parameters(), masters, strict=True):
            assert p.data is master and p.data.dtype == np.float64, p.name


class TestSubstituteEntities:
    def test_replaces_known_pairs(self):
        out = substitute_entities(
            "where was PERSON 8 born?", {"PERSON": ["x"] * 8 + ["tesla"]}
        )
        assert out == "where was tesla born?"

    def test_no_tags_unchanged(self):
        assert substitute_entities("plain question?", {"ORG": ["a"]}) == \
            "plain question?"

    def test_unknown_index_left_verbatim(self):
        assert substitute_entities("at ORG 7 today", {"ORG": ["a", "b", "c"]}) == \
            "at ORG 7 today"

    def test_underscore_tag(self):
        out = substitute_entities("read WORK_OF_ART 0 now", {"WORK_OF_ART": ["it"]})
        assert out == "read it now"


class TestGenerateQuestion:
    def test_output_is_clean(self, tagger, stoplist, vocab):
        model = small_model(seed=6, vocab_size=len(vocab))
        cfg = GenerationConfig(beam_width=2, max_length=5)
        passage, answer = "The gold was found in Warsaw.", "gold"
        row, = generate_batch(
            model, [{"id": "r0", "passage": passage, "answer": answer}],
            tagger, stoplist, vocab, cfg,
        )
        question = row["question_tagged"]
        assert "##" not in question
        for marker in ("[PAD]", "[BOS]", "[EOS]"):
            assert marker not in question
        _, tagged = preprocess_pair(answer, passage, tagger, stoplist, vocab)
        assert tagged.entity_map["GPE"] == ["Warsaw"]
        assert row["question_substituted"] == \
            substitute_entities(question, tagged.entity_map)

    def test_batch_order_stable_across_workers(self, tagger, stoplist, vocab):
        model = small_model(seed=7, vocab_size=len(vocab))
        cfg = GenerationConfig(beam_width=2, max_length=4)
        records = [
            {"id": f"r{i}", "passage": "The gold was found in Warsaw.", "answer": "gold"}
            for i in range(4)
        ]
        rows = generate_batch(model, records, tagger, stoplist, vocab, cfg)
        assert [r["id"] for r in rows] == ["r0", "r1", "r2", "r3"]
        assert all(row == {**rows[0], "id": row["id"]} for row in rows)

    def test_shared_passage_is_tagged_once(self, tagger, stoplist, vocab):
        model = small_model(seed=10, vocab_size=len(vocab))
        cfg = GenerationConfig(beam_width=2, max_length=4)
        passage = "Nikola Tesla was born in Smiljan and worked in Budapest."
        records = [
            {"id": "r0", "passage": passage, "answer": "Smiljan"},
            {"id": "r1", "passage": passage, "answer": "Budapest"},
        ]
        calls = []

        def counting(text):
            calls.append(text)
            return tagger(text)

        rows = generate_batch(model, records, counting, stoplist, vocab, cfg)
        assert calls.count(passage) == 1
        assert len(calls) == 3
        alone = [generate_batch(model, [record], tagger, stoplist, vocab, cfg)[0]
                 for record in records]
        assert rows == alone

    def test_long_passage_is_clipped_to_max_positions(self, tagger, stoplist, vocab,
                                                      monkeypatch):
        model = small_model(seed=8, vocab_size=len(vocab))
        passage = " ".join(["The gold was found in Warsaw."] * 10)
        full, _ = preprocess_pair("gold", passage, tagger, stoplist, vocab)
        assert len(full.ids) > model.config.max_positions
        searched = []

        def spy(model, input_ids, cfg):
            searched.append(list(input_ids))
            return beam_search(model, input_ids, cfg)

        monkeypatch.setattr("qgen.generation.beam_search", spy)
        cfg = GenerationConfig(beam_width=2, max_length=4)
        record = {"id": "long", "passage": passage, "answer": "gold"}
        rows = generate_batch(model, [record], tagger, stoplist, vocab, cfg)
        assert [r["id"] for r in rows] == ["long"]
        assert searched == [full.ids[: model.config.max_positions]]
        generate_batch(model, [record], tagger, stoplist, vocab, cfg, max_input_ids=12)
        assert searched[-1] == full.ids[:12]

    def test_writes_the_first_hypothesis_of_each_search(self, tagger, stoplist, vocab,
                                                         monkeypatch):
        """generate_batch calls qgen.generation.beam_search, looked up there,
        once per record and in order, and writes the tokens and score of the
        first hypothesis it returns: what the benchmark's generate check
        captures and rescores."""
        model = small_model(seed=6, vocab_size=len(vocab))
        cfg = GenerationConfig(beam_width=2, max_length=5, length_alpha=0.6)
        records = [
            {"id": "a", "passage": "The gold was found in Warsaw.", "answer": "gold"},
            {"id": "b", "passage": "Nikola Tesla was born in Smiljan.",
             "answer": "Smiljan"},
            {"id": "c", "passage": "The gold was found in Warsaw.", "answer": "Warsaw"},
        ]
        eos = vocab.eos_id
        calls = []

        def spy(*args):
            calls.append(args)
            i = len(calls)
            # The first hypothesis is not the best by score.
            return [BeamHypothesis((10 + i, 20 + i, eos), -3.0 * i),
                    BeamHypothesis((30 + i, eos), -0.1)]

        monkeypatch.setattr(generation, "beam_search", spy)
        rows = generate_batch(model, records, tagger, stoplist, vocab, cfg)
        searched = [clip_input(preprocess_pair(r["answer"], r["passage"], tagger,
                                               stoplist, vocab)[0].ids,
                               model.config.max_positions, vocab.separator_id)
                    for r in records]
        assert len(calls) == len(records)
        for (got_model, input_ids, got_cfg), want in zip(calls, searched):
            assert got_model is model and got_cfg is cfg
            assert list(input_ids) == want
        assert [r["id"] for r in rows] == ["a", "b", "c"]
        for i, row in enumerate(rows, 1):
            first = BeamHypothesis((10 + i, 20 + i, eos), -3.0 * i)
            assert row["score"] == first.score(cfg.length_alpha)
            assert row["question_tagged"] == postprocess_question(
                TokenSequence.from_ids(first.tokens, vocab))

    def test_unfit_answer_names_the_record(self, tagger, stoplist, vocab):
        model = small_model(seed=8, vocab_size=len(vocab))
        cfg = GenerationConfig(beam_width=2, max_length=4)
        record = {"id": "r-short", "passage": "The gold was found in Warsaw.",
                  "answer": "gold"}
        with pytest.raises(PreprocessError, match="record r-short"):
            generate_batch(model, [record], tagger, stoplist, vocab, cfg,
                           max_input_ids=1)

    def test_max_length_beyond_max_positions_is_rejected_up_front(self, tagger,
                                                                  stoplist, vocab):
        model = small_model(seed=9, vocab_size=len(vocab))
        record = {"id": "r0", "passage": "The gold was found in Warsaw.",
                  "answer": "gold"}
        cfg = GenerationConfig(beam_width=2, max_length=model.config.max_positions)
        generate_batch(model, [record], tagger, stoplist, vocab, cfg)
        cfg.max_length += 1
        with pytest.raises(ValueError, match="generate.max_length 17 exceeds the "
                           "model's max_positions 16"):
            generate_batch(model, [record], tagger, stoplist, vocab, cfg)
