import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from qgen.generation import (
    BeamHypothesis,
    GenerationConfig,
    _top_k,
    beam_search,
    generate_batch,
    greedy_decode,
    substitute_entities,
)
from qgen.model import ModelConfig, TransformerModel
from qgen.preprocess import PreprocessError, preprocess_pair
from qgen.tensor import ShapeError, Tensor, no_grad


class TableModel:
    """Stub decoder whose next-token logits depend only on the decoding
    position, or on the position and the row's previous token.

    logits_table has shape (max positions, vocab) or (max positions, vocab,
    vocab); row t (and, for the second, the previous token) scores the token
    at decoding position t. It decodes incrementally like the real model:
    the cache's length is the number of positions decoded before this call.
    """

    def __init__(self, logits_table, bos_id=2, eos_id=3, pad_id=0):
        self.table = np.asarray(logits_table, dtype=float)
        self.config = SimpleNamespace(bos_id=bos_id, eos_id=eos_id, pad_id=pad_id)

    def encode(self, input_ids):
        return None, np.asarray(input_ids)

    def decode(self, enc_out, src_ids, dec_input_ids, cache):
        dec_ids = np.asarray(dec_input_ids)
        k, t = dec_ids.shape
        start, cache.length = cache.length, cache.length + t
        rows = self.table[np.minimum(np.arange(start, start + t), len(self.table) - 1)]
        if rows.ndim == 3:
            return Tensor(rows[np.arange(t), dec_ids])
        return Tensor(np.broadcast_to(rows, (k, t, self.table.shape[-1])))


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
        for hyp in beam_search(model, ids, cfg)[:3]:
            enc, src = model.encode(ids)
            dec_in = np.array([model.config.bos_id, *hyp.tokens[:-1]])
            logits = model.decode(enc, src, dec_in).data
            total = 0.0
            for pos, token in enumerate(hyp.tokens):
                row = logits[pos] - logits[pos].max()
                total += row[token] - math.log(np.exp(row).sum())
            assert total == pytest.approx(hyp.log_prob, abs=1e-9)

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
                pool = {h.tokens: h.log_prob for h in beam_search(model, ids, cfg)}
                assert want.tokens in pool
                assert pool[want.tokens] == pytest.approx(want.log_prob, abs=1e-12)

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

    def test_one_encode_and_one_decode_per_step(self):
        model = small_model(seed=2)
        calls = {"encode": 0, "decode": 0}

        def counted(name):
            method = getattr(model, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            return wrapper

        model.encode, model.decode = counted("encode"), counted("decode")
        cfg = GenerationConfig(beam_width=4, max_length=10)
        beam_search(model, np.array([4, 5, 6, 7]), cfg)
        assert calls["encode"] == 1
        assert 1 <= calls["decode"] <= cfg.max_length

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
