"""Beam-search decoding and the end-to-end passage+answer -> question path."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .preprocess import ENTITY_TAGS, EntityTagger, PreprocessError, preprocess_pair
from .squad import MAX_INPUT_IDS, clip_input
from .tensor import COMPUTE_DTYPE, compute_copies, log_softmax, no_grad
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


def _search(
    model, enc_out, src_ids, cfg: GenerationConfig
) -> tuple[list[BeamHypothesis], BeamHypothesis]:
    """Breadth-limited best-first decoding, width cfg.beam_width, from the
    encoder output enc_out of src_ids, with the greedy search alongside.

    Returns the width-search's finished pool unsorted, and the greedy
    completion. Each live hypothesis expands by its width most probable
    tokens (ties go to the smallest token id); the width best continuations
    by cumulative log-probability stay live. Hypotheses that emit the end
    marker move to the finished pool; anything still live at max_length is
    completed with the end marker and its actual log-probability. Above
    width 1 the greedy search (width 1) rides as one more row of the same
    batch until it finishes. Each position is one step of the model's
    stepper (model.stepper) on the last tokens of all live hypotheses.
    """
    eos, width = model.config.eos_id, cfg.beam_width
    widths = (width,) if width == 1 else (width, 1)
    pools: list[list[BeamHypothesis]] = [[] for _ in widths]
    with no_grad():
        stepper = model.stepper(enc_out, src_ids)
        # (search, tokens, log-probability); the stepper's row is the list index
        live: list[tuple[int, tuple[int, ...], float]] = [
            (search, (), 0.0) for search in range(len(widths))
        ]
        last = np.full(len(widths), model.config.bos_id, dtype=np.int64)
        for position in range(1, cfg.max_length + 1):
            logp = log_softmax(stepper.step(last), "decoder logits")
            if position == cfg.max_length:
                picks = np.full((len(live), 1), eos)
            else:
                picks = _top_k(logp, width)
            candidates: list[list] = [[] for _ in widths]
            for row, (search, tokens, total) in enumerate(live):
                for t in picks[row, : widths[search]]:
                    candidates[search].append(
                        (tokens + (int(t),), total + float(logp[row, t]), row)
                    )
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
    return pools[0], pools[-1][0]


def greedy_decode(model, input_ids, cfg: GenerationConfig) -> BeamHypothesis:
    """Argmax decoding, the width-1 beam; ties go to the smallest token id."""
    return beam_search(model, input_ids, replace(cfg, beam_width=1))[0]


def beam_search(model, input_ids, cfg: GenerationConfig) -> list[BeamHypothesis]:
    """The cfg.beam_width search, best first.

    The source is encoded once, at float64. The search's decoder steps run
    at COMPUTE_DTYPE, on a copy of the encoder output and on copies of the
    parameters the decoder reads, made for this call. The greedy completion,
    decoded in the same batch, is always merged into the pool, so widening
    the beam never ranks below greedy. Hypotheses are ranked by
    log-probability / length^alpha, ties broken by token ids. Those whose
    search score is within RESCORE_MARGIN * (1 + |best|) of the best come
    first, their log_prob rescored at float64 by one teacher-forced decoder
    call on the float64 encoder output; the rest follow, carrying their
    search log_prob.
    """
    alpha = cfg.length_alpha
    with no_grad():
        enc_out, src_ids = model.encode(np.asarray(input_ids, dtype=np.int64))
        with compute_copies(model.decoder_parameters(), COMPUTE_DTYPE):
            low = enc_out.data.astype(COMPUTE_DTYPE)
            finished, greedy = _search(model, low, src_ids, cfg)
        if all(h.tokens != greedy.tokens for h in finished):
            finished.append(greedy)
        best = max(h.score(alpha) for h in finished)
        floor = best - RESCORE_MARGIN * (1.0 + abs(best))
        near = [h for h in finished if h.score(alpha) >= floor]
        rest = [h for h in finished if h.score(alpha) < floor]
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
