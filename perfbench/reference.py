"""Reference kernels: fixed work, timed around every operation and set-up,
that measures how fast the host runs that kind of work at that moment.

On a small shared host the speed of one CPU changes with its neighbours'
load, for seconds to minutes at a time: on a 2-vCPU VM a fixed pure-Python
loop took anywhere from 1x to 2.5x its undisturbed time, and the median
rate of a 30-second run moved by as much. A run cannot choose its
neighbours, but it can measure what they cost: the time a reference kernel
takes, over its undisturbed (nominal) time, is the host's slowdown right
then, and a rate multiplied by that slowdown is the rate on an undisturbed
CPU. Slowdowns depend on the kind of work, interpreted Python suffering more
than BLAS, so each workload uses the kernel that does the kind of work it
spends its time on. Nothing here calls ``qgen``.
"""

from __future__ import annotations

import time

import numpy as np

import corpus

_clock = time.perf_counter
_rng = np.random.default_rng(0)

_REF_WORDS = corpus.words(
    "what is the name of the river that flows through the old town and "
    "which bridge over it was built first in the year of the great flood"
)
_HYP_WORDS = corpus.words(
    "which river flows past the new town and what bridge was the first "
    "one built there in that year of note before the flood came"
)


def _text():
    """Word-level edit distances of two fixed questions: interpreted Python
    over lists and strings, like the text layers."""
    for _ in range(2):
        corpus.edit_distance(_REF_WORDS, _HYP_WORDS)
        corpus.edit_distance(_HYP_WORDS, _REF_WORDS)


_PREFIX = _rng.standard_normal((48, 128))
_PROJECT = _rng.standard_normal((128, 512))


def _decode():
    """48 growing-prefix projections with a softmax, at d128 and batch 1:
    small matrices, so numpy call overhead weighs as in beam search."""
    for n in range(1, 49):
        y = _PREFIX[:n] @ _PROJECT
        y = np.exp(y - y.max(axis=-1, keepdims=True))
        y /= y.sum(axis=-1, keepdims=True)


_ACTS = _rng.standard_normal((16, 64, 128))
_WEIGHT = _rng.standard_normal((128, 512))
_GRADS = _rng.standard_normal((16, 64, 512))


def _dense():
    """A batched projection and its weight gradient, the per-batch products
    summed over the batch: BLAS with large temporaries, like a training
    step's forward and backward."""
    _ACTS @ _WEIGHT
    (np.swapaxes(_ACTS, -1, -2) @ _GRADS).sum(axis=0)


class Reference:
    """A kernel and its nominal time, the time it takes on an undisturbed
    CPU of the host the benchmark was tuned on (a 2.0 GHz Xeon VM). The
    nominal time only sets the scale of the results: both sides of any
    comparison use the same one."""

    def __init__(self, kernel, nominal_s: float):
        self.kernel = kernel
        self.nominal_s = nominal_s

    def slowdown(self) -> float:
        """The kernel's time now over its nominal time."""
        t0 = _clock()
        self.kernel()
        return (_clock() - t0) / self.nominal_s


TEXT = Reference(_text, 0.85e-3)
DECODE = Reference(_decode, 6.9e-3)
DENSE = Reference(_dense, 7.2e-3)
