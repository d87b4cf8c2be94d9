"""Beam-search decoding and the end-to-end passage+answer -> question path."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .preprocess import ENTITY_TAGS, EntityTagger, PreprocessError, preprocess_pair
from .squad import MAX_INPUT_IDS, clip_input
from .tensor import COMPUTE_DTYPE, log_softmax, no_grad
from .wordpiece import TokenSequence, Vocabulary
from . import preprocess as _preprocess

# beam_search rescores at float64 each finished hypothesis whose score is
# within RESCORE_MARGIN * (1 + |best|) of the best.
RESCORE_MARGIN = 1e-4


@dataclass
class GenerationConfig:
    beam_width: int = 4
    max_length: int = 48
    length_alpha: float = 0.6

    def __post_init__(self):
        """Each message starts with the field's name."""
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.max_length < 1:
            raise ValueError("max_length must be >= 1")
        if not 0.0 <= self.length_alpha < math.inf:  # NaN fails it too
            raise ValueError(
                f"length_alpha must be a finite number >= 0, got {self.length_alpha!r}"
            )


@dataclass(frozen=True)
class BeamHypothesis:
    """A decoded sequence, ending in the end marker, and the exact sum of
    its per-step token log-probabilities."""

    tokens: tuple[int, ...]
    log_prob: float

    def score(self, alpha: float) -> float:
        return self.log_prob / (len(self.tokens) ** alpha)


def _top_k(logp: np.ndarray, width: int) -> np.ndarray:
    """Each row's width largest entries' ids, best first, ties to the smaller
    id: np.argsort(-logp, kind="stable")[:, :width], without sorting whole
    rows. Each row's maximum is finite."""
    k = min(width, logp.shape[-1])
    kth = np.partition(logp, -k, axis=-1)[:, -k, None]  # each row's k-th largest
    # At least k candidates per row, ties at the k-th value included.
    rows, ids = np.nonzero(logp >= kth)
    order = np.lexsort((ids, -logp[rows, ids], rows))
    counts = np.bincount(rows, minlength=len(logp))
    starts = np.cumsum(counts) - counts
    return ids[order][starts[:, None] + np.arange(k)]


def greedy_decode(model, input_ids, cfg: GenerationConfig) -> BeamHypothesis:
    """Argmax decoding, the width-1 beam; ties go to the smallest token id."""
    return beam_search(model, input_ids, replace(cfg, beam_width=1))[0]


def beam_search(model, input_ids, cfg: GenerationConfig) -> list[BeamHypothesis]:
    """The cfg.beam_width search, best first.

    Each live hypothesis expands by its width most probable tokens (ties go
    to the smallest token id). Each position ranks all live rows'
    continuations in one pass: those ending in the end marker join the
    finished pool, and the width best of the rest by cumulative
    log-probability (ties to the smaller token ids) stay live; at max_length
    every live hypothesis is completed with the end marker. Above width 1 the
    greedy search rides as one more row of the same batch until it
    finishes, so its completion is in the pool (the beam's entry where both
    finish the same tokens) and widening the beam never ranks below greedy.

    The source is encoded once, at float64. Each position steps a
    model.stepper, built for this call on a COMPUTE_DTYPE copy of the encoder
    output, on all live rows' last tokens. Hypotheses are ranked by
    log-probability / length^alpha, ties broken by token ids. Those whose
    search score is within RESCORE_MARGIN * (1 + |best|) of the best come
    first, their log_prob rescored at float64 by one teacher-forced decoder
    call on the float64 encoder output; the rest keep their search log_prob.
    """
    alpha, eos, width = cfg.length_alpha, model.config.eos_id, cfg.beam_width
    widths = (width,) if width == 1 else (width, 1)
    # tokens -> ((search, position, row), hypothesis)
    finished: dict[tuple[int, ...], tuple] = {}
    with no_grad():
        enc_out, src_ids = model.encode(np.asarray(input_ids, dtype=np.int64))
        stepper = model.stepper(enc_out.data.astype(COMPUTE_DTYPE), src_ids, cfg.max_length)
        # (search, tokens, log-probability); the stepper's row is the list index
        live = [(search, (), 0.0) for search in range(len(widths))]
        last = np.full(len(live), model.config.bos_id, dtype=np.int64)
        for position in range(1, cfg.max_length + 1):
            logp = log_softmax(stepper.step(last), "decoder logits")
            if position == cfg.max_length:
                picks = np.full((len(live), 1), eos)
            else:
                picks = _top_k(logp, width)
            candidates = sorted(
                (search, -(total + float(logp[row, t])), tokens + (int(t),), row)
                for row, (search, tokens, total) in enumerate(live)
                for t in picks[row, : widths[search]])
            live, rows, taken = [], [], [0] * len(widths)
            for search, cost, tokens, row in candidates:
                if tokens[-1] == eos:
                    finished.setdefault(tokens, ((search, position, row),
                                                 BeamHypothesis(tokens, -cost)))
                elif taken[search] < widths[search]:
                    taken[search] += 1
                    live.append((search, tokens, -cost))
                    rows.append(row)
            if not live:
                break
            stepper.select(rows)
            last = np.array([tokens[-1] for _, tokens, _ in live], dtype=np.int64)
        best = max(h.score(alpha) for _, h in finished.values())
        floor = best - RESCORE_MARGIN * (1.0 + abs(best))
        # The decoder call's rows may round by their place in the batch, so
        # the near set goes in the order found: by search, position and row.
        found = [h for _, h in sorted(finished.values(), key=lambda f: f[0])]
        near = [h for h in found if h.score(alpha) >= floor]
        rest = [h for h in found if h.score(alpha) < floor]
        near = _teacher_forced(model, enc_out, src_ids, near)

    def ranked(pool):
        return sorted(pool, key=lambda h: (-h.score(alpha), h.tokens))
    return ranked(near) + ranked(rest)


def _teacher_forced(model, enc_out, src_ids, hyps: list[BeamHypothesis]
                    ) -> list[BeamHypothesis]:
    """hyps with each log_prob recomputed by one decoder call over all of
    them, teacher-forced from [BOS] and padded with [PAD] to the longest."""
    dec_in = np.full((len(hyps), max(len(h.tokens) for h in hyps)),
                     model.config.pad_id, dtype=np.int64)
    dec_in[:, 0] = model.config.bos_id
    for row, h in enumerate(hyps):
        dec_in[row, 1: len(h.tokens)] = h.tokens[:-1]
    logits = model.decode(enc_out, src_ids, dec_in)
    logp = log_softmax(logits.data, "decoder logits")
    # Summed left to right, as the search sums.
    return [BeamHypothesis(h.tokens, sum(logp[row, range(len(h.tokens)), h.tokens].tolist()))
            for row, h in enumerate(hyps)]


def substitute_entities(question: str, entity_map: dict[str, list[str]]) -> str:
    """Replace each "TAG i" pair with its recorded surface form; pairs whose
    index is unknown are left verbatim."""
    alternation = "|".join(sorted(ENTITY_TAGS, key=len, reverse=True))
    pattern = re.compile(rf"\b({alternation}) (\d+)\b")

    def repl(match: re.Match) -> str:
        forms = entity_map.get(match.group(1), [])
        index = int(match.group(2))
        return forms[index] if index < len(forms) else match.group(0)

    return pattern.sub(repl, question)


def generate_batch(
    model,
    records: list[dict],
    tagger: EntityTagger,
    stoplist: frozenset[str],
    vocab: Vocabulary,
    cfg: GenerationConfig,
    max_input_ids: int = MAX_INPUT_IDS,
) -> list[dict]:
    """Decode {id, passage, answer} records into
    {id, question_tagged, question_substituted, score}, preserving order.

    Each distinct passage is tagged and split into wordpieces once (passages);
    each record's beam_search encodes its own answer + separator + passage.
    Inputs are clipped as invert clips them, to at most max_input_ids and the
    model's max_positions pieces. A cfg.max_length above max_positions is a
    ValueError, raised before anything is decoded.
    """
    if cfg.max_length > model.config.max_positions:
        raise ValueError(
            f"generate.max_length {cfg.max_length} exceeds the model's "
            f"max_positions {model.config.max_positions}"
        )
    limit = min(max_input_ids, model.config.max_positions)
    rows = []
    passages: dict = {}
    for record in records:
        try:
            input_seq, tagged = preprocess_pair(
                record["answer"], record["passage"], tagger, stoplist, vocab, passages
            )
            input_ids = clip_input(input_seq.ids, limit, vocab.separator_id)
        except ValueError as exc:
            raise PreprocessError(f"record {record['id']}: {exc}") from exc
        best = beam_search(model, np.array(input_ids, dtype=np.int64), cfg)[0]
        question = _preprocess.postprocess_question(
            TokenSequence.from_ids(best.tokens, vocab)
        )
        rows.append({
            "id": record["id"],
            "question_tagged": question,
            "question_substituted": substitute_entities(question, tagged.entity_map),
            "score": best.score(cfg.length_alpha),
        })
    return rows
