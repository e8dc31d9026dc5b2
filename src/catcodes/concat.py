"""Rates of two-level concatenated cat codes ("n in m").

The inner n-cat code induces, per syndrome weight class, a logical Pauli
channel; the outer m-cat code then acts across the inner blocks.  Because the
inner syndromes are kept as side information, the rate is a weighted average
over assignments of inner classes to blocks.  Assignments are grouped by
composition (how many blocks carry each class) and, within a composition, by
per-class flipped-block counts, so the cost is polynomial in the outer length
for a fixed inner length instead of exponential in the block count.  Both the
induced ensemble and the outer sum are computed by the numpy kernel shared
with single-level cat codes (`_kernel`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import _kernel
from .channels import BASIS_SLOTS, PauliChannel
from .catcode import CatCodeSpec

# Largest number of (composition, flip-count) cells one rate evaluation sums
# over: the work, which grows as C(M + 2n - 1, 2n - 1) for n-in-M.  Admits
# 7-in-16 (67,863,915 cells); 5-in-30 has 211,915,132.
MAX_CELLS = 100_000_000
# Largest number of compositions C(M + n - 1, n - 1) of one rate evaluation: at about
# 10-15 us each for one point (0.42-0.63 s for one point of 30-in-4's 40,920), 10-15 s.
MAX_COMPOSITIONS = 1_000_000


class CompositionLimitError(RuntimeError):
    """The grouped enumeration exceeds `MAX_CELLS` cells or `MAX_COMPOSITIONS` compositions."""

    def __init__(self, count: int, cap: int):
        what = "compositions" if cap == MAX_COMPOSITIONS else "(composition, flip-count) cells"
        super().__init__(f"{count} {what} exceed the cap of {cap}")
        self.count = count
        self.cap = cap


@dataclass(frozen=True)
class ConcatSpec:
    """Inner code applied per block, outer code across inner logical qubits."""

    inner: CatCodeSpec
    outer: CatCodeSpec


def _inner_probs(probs: np.ndarray, spec: CatCodeSpec) -> np.ndarray:
    # A length-1 code has no stabilizers; its logical frame is the physical one,
    # so the basis label is ignored and the degenerate reduction returns the
    # input channel unchanged.
    return probs[:, BASIS_SLOTS[spec.basis]] if spec.m > 1 else probs


def induced_ensemble(ch: PauliChannel, spec: CatCodeSpec) -> tuple[tuple[float, PauliChannel], ...]:
    """(weight, logical channel conditioned on a weight-r syndrome) of the cat
    code for r = 0..m-1.  Logical X maps to the X slot, so an outer code may be
    built over these channels in any basis.  A class of probability 0 is kept,
    with weight 0 and a noiseless placeholder channel; a weight of 0 alone does
    not mark such a class, since exp of a finite log weight below about -745
    underflows to 0 too."""
    log_w, cond = _kernel.inner_ensemble(_inner_probs(np.array([ch.probs]), spec), spec.m)
    return tuple((math.exp(lw), PauliChannel(*c))
                 for lw, c in zip(log_w[:, 0].tolist(), cond[:, 0].tolist()))


def _counts(code: Union[CatCodeSpec, ConcatSpec]) -> tuple[int, int]:
    """Compositions C(M + n - 1, n - 1) and (composition, flip-count) cells
    C(M + 2n - 1, 2n - 1) of one rate evaluation of a code of n classes over M blocks:
    the inner code's n syndrome-weight classes over the outer length, or a cat code's
    one class over its length.  Raises `CompositionLimitError` past a cap, cells first."""
    n, big_m = (code.inner.m, code.outer.m) if isinstance(code, ConcatSpec) else (1, code.m)
    compositions, cells = math.comb(big_m + n - 1, n - 1), math.comb(big_m + 2 * n - 1, 2 * n - 1)
    for count, cap in ((cells, MAX_CELLS), (compositions, MAX_COMPOSITIONS)):
        if count > cap:
            raise CompositionLimitError(count, cap)
    return compositions, cells


def _concat_rates(probs: np.ndarray, spec: ConcatSpec) -> np.ndarray:
    """Rates (qubits per physical channel use) of the concatenated code on each
    row of a (P, 4) array of checked probabilities (`family_probs`, or one
    `PauliChannel`), exact, evaluated as one batch.

    Enumerates compositions of the outer length over inner syndrome classes in
    lexicographic order with multinomial weights, then per-class flipped-block
    counts; no sampling is involved and the summation order is fixed, so the
    result is deterministic.
    """
    _counts(spec)  # checks the caps before any work
    n, big_m = spec.inner.m, spec.outer.m
    log_w, cond = _kernel.inner_ensemble(_inner_probs(probs, spec.inner), n)
    outer = cond[..., BASIS_SLOTS[spec.outer.basis]]
    return _kernel.rate_sums(log_w, outer, big_m) / (n * big_m)


def concat_rate(ch: PauliChannel, spec: ConcatSpec) -> float:
    """Rate (qubits per physical channel use) of the concatenated code on one channel, exact."""
    return float(_concat_rates(np.array([ch.probs]), spec)[0])
