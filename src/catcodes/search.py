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
# Depth, in bisection levels below the bracket, to which each batch also
# evaluates the midpoints on the path toward the predicted crossing: at most
# PATH_DEPTH - BISECTION_LEVELS_PER_BATCH = 4 more points.
PATH_DEPTH = 7


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


def _split(a: float, b: float, tol: float) -> Optional[float]:
    """Midpoint of the bracket (a, b), computed exactly as bisection computes
    it, or None if the bracket is within tol or has no float strictly inside."""
    mid = 0.5 * (a + b)
    return mid if b - a > tol and a < mid < b else None


def _predicted_crossing(known: dict[float, float], lo: float, hi: float) -> Optional[float]:
    """Where the rate is predicted to cross zero inside (lo, hi), or None.

    Inverse quadratic interpolation, the interpolation step of Brent's method
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973, ch.
    4), through the bracket ends and the evaluated point nearest outside them
    (no point inside the bracket has been evaluated); otherwise the secant
    through the bracket ends.  `known` maps every evaluated point to its
    rate; a certified end has none, so no prediction.
    """
    if lo not in known or hi not in known:
        return None
    f_lo, f_hi = known[lo], known[hi]
    outside = [p for p in known if not lo <= p <= hi]
    if outside:
        p = min(outside, key=lambda p: max(lo - p, p - hi))
        f = known[p]
        if f not in (f_lo, f_hi):
            x = (
                lo * (f_hi / (f_lo - f_hi)) * (f / (f_lo - f))
                + hi * (f_lo / (f_hi - f_lo)) * (f / (f_hi - f))
                + p * (f_lo / (f - f_lo)) * (f_hi / (f - f_hi))
            )
            if lo < x < hi:
                return x
    x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    return x if lo < x < hi else None


def _batch_midpoints(lo: float, hi: float, tol: float, target: Optional[float]) -> list[float]:
    """Midpoints of the next `BISECTION_LEVELS_PER_BATCH` bisection levels
    below (lo, hi), then those on the path toward `target` down to
    `PATH_DEPTH` levels, each computed from its (lo, hi) pair exactly as
    bisection computes it."""
    mids, level = [], [(lo, hi)]
    for _ in range(BISECTION_LEVELS_PER_BATCH):
        children = []
        for a, b in level:
            mid = _split(a, b, tol)
            if mid is not None:
                mids.append(mid)
                children += [(a, mid), (mid, b)]
        level = children
    if target is not None:
        for depth in range(PATH_DEPTH):
            mid = _split(lo, hi, tol)
            if mid is None:
                break
            if depth >= BISECTION_LEVELS_PER_BATCH:
                mids.append(mid)
            lo, hi = (mid, hi) if target > mid else (lo, mid)
    return mids


def threshold(family: ChannelFamily, code: CodeSpec, tol: float = 1e-6) -> ThresholdResult:
    """Locate the noise level where the code's rate crosses zero, by certified
    cutoff + batched bisection along a predicted path.

    A coarse pre-scan of `PRE_SCAN_POINTS` over the admissible range
    brackets the crossing and guards the single-crossing assumption: if
    several sign changes appear, the largest crossing is refined and the
    result carries a warning.  Pre-scan points where the channel is certified
    antidegradable count as rate <= 0 and are not evaluated; p = 0 and the
    remaining points are evaluated as one batch (`code_rates`).  The bracket
    is then refined by batched bisection along a predicted path: each batch
    evaluates the midpoints of the next `BISECTION_LEVELS_PER_BATCH` levels
    and those on the path toward the crossing that `_predicted_crossing`
    predicts, down to `PATH_DEPTH` levels.  Bisection then walks down while
    its midpoint has been evaluated, so the result is bit for bit that of
    plain bisection: the prediction only chooses which points to evaluate.
    Bisection stops at width <= tol, or when no float lies strictly inside
    the bracket.  Every evaluated point counts as one evaluation.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    grid, certified = _pre_scan_grid(family), _certified(family)
    scan = [p for p, skip in zip(grid, certified) if not skip]
    known = dict(zip([0.0] + scan, map(float, code_rates(family, code, [0.0] + scan))))
    evals, batches = 1 + len(scan), 1
    if known[0.0] <= 0.0:
        raise NoBracketError("rate is not positive at p = 0")

    # Certified points are not in `known` and count as rate <= 0.
    crossings = []
    prev_p, prev_positive = 0.0, True
    for p in grid:
        positive = known.get(p, 0.0) > 0.0
        if prev_positive and not positive:
            crossings.append((prev_p, p))
        prev_p, prev_positive = p, positive
    if not crossings:
        raise NoBracketError("rate is positive across the admissible range")
    warning = None
    if len(crossings) > 1:
        warning = f"{len(crossings)} sign changes on the coarse grid; using the largest"

    lo, hi = crossings[-1]
    while _split(lo, hi, tol) is not None:
        target = _predicted_crossing(known, lo, hi)
        mids = [p for p in _batch_midpoints(lo, hi, tol, target) if p not in known]
        known.update(zip(mids, map(float, code_rates(family, code, mids))))
        evals, batches = evals + len(mids), batches + 1
        # Stops at the first midpoint not yet evaluated, which the next batch
        # evaluates first; nothing below it has been evaluated either.
        while (mid := _split(lo, hi, tol)) is not None and mid in known:
            if known[mid] > 0.0:
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
