"""Threshold location, repetition-length scans, and the asymptotic rate guide."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .channels import Basis, ChannelFamily, evaluate_family, hashing_rate
from .catcode import CatCodeSpec, cat_rate, cat_rates
from .concat import ConcatSpec, concat_rate, concat_rates
from .degradable import antidegradable

CodeSpec = Union[CatCodeSpec, ConcatSpec, None]

# Points of the coarse grid over the admissible range that `threshold` scans
# for sign changes before it bisects.
PRE_SCAN_POINTS = 64
# Bisection levels whose midpoints `threshold` evaluates as one batch: up to
# 2**3 - 1 = 7 points, which cost little more than one.
BISECTION_LEVELS_PER_BATCH = 3


class NoBracketError(RuntimeError):
    """No sign change of the rate was found over the admissible noise range."""


@dataclass(frozen=True)
class ThresholdResult:
    """Zero-rate crossing of a code along a channel family."""

    p_star: float
    bracket: tuple[float, float]
    evaluations: int  # noise points whose rate was computed
    skipped: int  # pre-scan points certified to have zero capacity, not evaluated
    batches: int  # `code_rates` calls
    code: CodeSpec
    family: ChannelFamily
    warning: Optional[str] = None


@dataclass(frozen=True)
class ScanRow:
    """One row of a length scan: rate at fixed noise, or threshold, per scan type."""

    m: int
    rate: Optional[float] = None
    threshold: Optional[float] = None


def code_rate(family: ChannelFamily, code: CodeSpec, p: float) -> float:
    """Rate of `code` on the family's channel at noise p; code=None means hashing."""
    ch = evaluate_family(family, p)
    if code is None:
        return hashing_rate(ch)
    if isinstance(code, ConcatSpec):
        return concat_rate(ch, code)
    return cat_rate(ch, code)


def code_rates(family: ChannelFamily, code: CodeSpec, ps) -> np.ndarray:
    """`code_rate` at every p of `ps`, evaluated as one batch; each value equals,
    bit for bit, the rate at that p evaluated alone."""
    chs = [evaluate_family(family, p) for p in ps]
    if code is None:
        return np.array([hashing_rate(ch) for ch in chs])
    if isinstance(code, ConcatSpec):
        return concat_rates(chs, code)
    return cat_rates(chs, code)


def _pre_scan_grid(family: ChannelFamily) -> list[float]:
    p_max = family.p_max
    return [p_max * (i + 1) / PRE_SCAN_POINTS for i in range(PRE_SCAN_POINTS)]


@functools.lru_cache(maxsize=64)
def _certified(family: ChannelFamily) -> tuple[bool, ...]:
    """Which pre-scan points are certified antidegradable, so rate <= 0 for
    every code.  Depends only on the family, since the grid is fixed; cached
    because `best_threshold_scan` asks for it once per length."""
    return tuple(antidegradable(evaluate_family(family, p)) for p in _pre_scan_grid(family))


def _bisection_midpoints(lo: float, hi: float, tol: float) -> list[float]:
    """Midpoints of the next `BISECTION_LEVELS_PER_BATCH` bisection levels
    below (lo, hi), each computed from its (lo, hi) pair exactly as bisection
    computes it; an interval already within tol is not split."""
    mids, level = [], [(lo, hi)]
    for _ in range(BISECTION_LEVELS_PER_BATCH):
        children = []
        for a, b in level:
            if b - a > tol:
                mid = 0.5 * (a + b)
                mids.append(mid)
                children += [(a, mid), (mid, b)]
        level = children
    return mids


def threshold(family: ChannelFamily, code: CodeSpec, tol: float = 1e-6) -> ThresholdResult:
    """Locate the noise level where the code's rate crosses zero.

    A coarse pre-scan of `PRE_SCAN_POINTS` over the admissible range
    brackets the crossing and guards the single-crossing assumption: if
    several sign changes appear, the largest crossing is refined and the
    result carries a warning.  Pre-scan points where the channel is certified
    antidegradable count as rate <= 0 and are not evaluated; p = 0 and the
    remaining points are evaluated as one batch (`code_rates`).  The bracket
    is then refined by bisection to width <= tol, with the midpoints of
    `BISECTION_LEVELS_PER_BATCH` levels evaluated per batch, so the result
    is bit for bit that of plain bisection.  Every evaluated point counts
    as one evaluation.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    grid, certified = _pre_scan_grid(family), _certified(family)
    scan = [p for p, skip in zip(grid, certified) if not skip]
    at_zero, *values = code_rates(family, code, [0.0] + scan)
    evals, batches = 1 + len(scan), 1
    if at_zero <= 0.0:
        raise NoBracketError("rate is not positive at p = 0")

    # `next` runs only for evaluated points, in grid order.
    values = iter(values)
    positive = [not skip and next(values) > 0.0 for skip in certified]
    crossings = []
    prev_p, prev_positive = 0.0, True
    for p, pos in zip(grid, positive):
        if prev_positive and not pos:
            crossings.append((prev_p, p))
        prev_p, prev_positive = p, pos
    if not crossings:
        raise NoBracketError("rate is positive across the admissible range")
    warning = None
    if len(crossings) > 1:
        warning = f"{len(crossings)} sign changes on the coarse grid; using the largest"

    lo, hi = crossings[-1]
    while hi - lo > tol:
        mids = _bisection_midpoints(lo, hi, tol)
        rates = dict(zip(mids, code_rates(family, code, mids)))
        evals, batches = evals + len(mids), batches + 1
        for _ in range(BISECTION_LEVELS_PER_BATCH):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            if rates[mid] > 0.0:
                lo = mid
            else:
                hi = mid
    skipped = PRE_SCAN_POINTS - len(scan)
    return ThresholdResult(
        0.5 * (lo + hi), (lo, hi), evals, skipped, batches, code, family, warning
    )


def best_length_scan(
    family: ChannelFamily,
    p: float,
    basis: Basis,
    m_range,
) -> tuple[list[ScanRow], int]:
    """Rate of each cat length at fixed noise; returns rows and the argmax m.

    Ties go to the smallest m (cheaper code at equal rate).
    """
    ms = sorted(set(int(m) for m in m_range))
    if not ms:
        raise ValueError("m_range is empty")
    ch = evaluate_family(family, p)
    rows = [ScanRow(m, rate=cat_rate(ch, CatCodeSpec(m, basis))) for m in ms]
    best = max(rows, key=lambda row: (row.rate, -row.m))
    return rows, best.m


def best_threshold_scan(
    family: ChannelFamily,
    basis: Basis,
    m_range,
    tol: float = 1e-6,
) -> tuple[list[ScanRow], int]:
    """Zero-rate threshold of each cat length; returns rows and the argmax m."""
    ms = sorted(set(int(m) for m in m_range))
    if not ms:
        raise ValueError("m_range is empty")
    rows = []
    for m in ms:
        res = threshold(family, CatCodeSpec(m, basis), tol=tol)
        rows.append(ScanRow(m, threshold=res.p_star))
    best = max(rows, key=lambda row: (row.threshold, -row.m))
    return rows, best.m


def rule_of_thumb_lengths(q_z: float, p_z: float) -> tuple[float, float]:
    """Heuristic best repetition lengths (1/q_z, 1/p_z).

    The two estimates disagree for channels with sizable p_y; both are
    reported and neither is preferred.
    """
    return (
        1.0 / q_z if q_z > 0.0 else math.inf,
        1.0 / p_z if p_z > 0.0 else math.inf,
    )


def asymptotic_rate_estimate(q_z: float) -> float:
    """Large-m rate guide 2 q_z ln(1/q_z) / ln ln(1/q_z) for almost-bitflip noise.

    An asymptotic statement, not an exact rate: near the hashing point it
    agrees with the best cat rate only up to a modest constant factor.
    """
    if not 0.0 < q_z < 1.0 / math.e:
        raise ValueError(f"q_z = {q_z} outside (0, 1/e)")
    ell = math.log(1.0 / q_z)
    return 2.0 * q_z * ell / math.log(ell)
