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
from ._kernel import MAX_CELLS, MAX_COMPOSITIONS, CompositionLimitError  # noqa: F401 (names kept public here)
from .catcode import CatCodeSpec, _slots
from .channels import PauliChannel


@dataclass(frozen=True)
class ConcatSpec:
    """Inner code applied per block, outer code across inner logical qubits."""

    inner: CatCodeSpec
    outer: CatCodeSpec


def induced_ensemble(ch: PauliChannel, spec: CatCodeSpec) -> tuple[tuple[float, PauliChannel], ...]:
    """(weight, logical channel conditioned on a weight-r syndrome) of the cat
    code for r = 0..m-1.  Logical X maps to the X slot, so an outer code may be
    built over these channels in any basis.  A class of probability 0 is kept,
    with weight 0 and a noiseless placeholder channel; a weight of 0 alone does
    not mark such a class, since exp of a finite log weight below about -745
    underflows to 0 too."""
    log_w, cond = _kernel.inner_ensemble(np.array([ch.probs])[:, _slots(spec)], spec.m)
    return tuple((math.exp(lw), PauliChannel(*c))
                 for lw, c in zip(log_w[:, 0].tolist(), cond[:, 0].tolist()))


def _counts(code: Union[CatCodeSpec, ConcatSpec]) -> tuple[int, int]:
    """`_kernel.capped_counts` of one rate evaluation of `code`: the inner code's n
    syndrome-weight classes over the outer length, or a cat code's one class over its length."""
    n, big_m = (code.inner.m, code.outer.m) if isinstance(code, ConcatSpec) else (1, code.m)
    return _kernel.capped_counts(n, big_m)


def _outer_classes(probs: np.ndarray, spec: ConcatSpec) -> tuple:
    """`_kernel.rate_sums`' arguments for the concatenated code on each row of a (P, 4) array
    of checked probabilities: the inner code's syndrome-weight classes, their channels in the
    outer code's frame, and the outer length.  The caps are checked first."""
    _counts(spec)  # checks the caps before the inner ensemble is built
    log_w, cond = _kernel.inner_ensemble(probs[:, _slots(spec.inner)], spec.inner.m)
    return log_w, cond[..., _slots(spec.outer)], spec.outer.m


def _concat_rates(probs: np.ndarray, spec: ConcatSpec) -> np.ndarray:
    """Rates (qubits per physical channel use) of the concatenated code on each
    row of a (P, 4) array of checked probabilities (`family_probs`, or one
    `PauliChannel`), exact, evaluated as one batch.

    Enumerates compositions of the outer length over inner syndrome classes in
    lexicographic order with multinomial weights, then per-class flipped-block
    counts; no sampling is involved and the summation order is fixed, so the
    result is deterministic.
    """
    return _kernel.rate_sums(*_outer_classes(probs, spec)) / (spec.inner.m * spec.outer.m)


def _concat_signs(probs: np.ndarray, spec: ConcatSpec) -> tuple:
    """`_kernel.certified_sums` as rates of the concatenated code: per point, its rate from a
    weight-pruned pass and whether that certifies the sign of its full rate, (P,) each; and
    complete(full), the full rates of the points of a (P,) bool mask, bit for bit those of
    `_concat_rates`."""
    sums, certified, complete = _kernel.certified_sums(*_outer_classes(probs, spec))
    qubits = spec.inner.m * spec.outer.m
    return sums / qubits, certified, lambda full: complete(full) / qubits


def concat_rate(ch: PauliChannel, spec: ConcatSpec) -> float:
    """Rate (qubits per physical channel use) of the concatenated code on one channel, exact."""
    return float(_concat_rates(np.array([ch.probs]), spec)[0])
