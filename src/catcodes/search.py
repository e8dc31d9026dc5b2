"""Threshold location, repetition-length scans, and the asymptotic rate guide."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .channels import Basis, ChannelFamily, evaluate_family, hashing_rate
from .catcode import CatCodeSpec, cat_rate, cat_rates
from .concat import ConcatSpec, concat_rate, concat_rates

CodeSpec = Union[CatCodeSpec, ConcatSpec, None]

# Points of the coarse grid over the admissible range that `threshold` scans
# for sign changes before it bisects.
PRE_SCAN_POINTS = 64


class NoBracketError(RuntimeError):
    """No sign change of the rate was found over the admissible noise range."""


@dataclass(frozen=True)
class ThresholdResult:
    """Zero-rate crossing of a code along a channel family."""

    p_star: float
    bracket: tuple[float, float]
    evaluations: int
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


def threshold(family: ChannelFamily, code: CodeSpec, tol: float = 1e-6) -> ThresholdResult:
    """Locate the noise level where the code's rate crosses zero.

    p = 0 and a coarse pre-scan of `PRE_SCAN_POINTS` over the admissible
    range are evaluated as one batch (`code_rates`); every point counts as one
    evaluation.  The pre-scan brackets the crossing and guards the
    single-crossing assumption: if several sign changes appear, the largest
    crossing is refined and the result carries a warning.  The bracket is
    then refined by bisection to width <= tol.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    p_max = family.p_max
    grid = [p_max * (i + 1) / PRE_SCAN_POINTS for i in range(PRE_SCAN_POINTS)]
    evals = 1 + len(grid)
    at_zero, *values = code_rates(family, code, [0.0] + grid)
    if at_zero <= 0.0:
        raise NoBracketError("rate is not positive at p = 0")

    crossings = []
    prev_p, prev_v = 0.0, 1.0
    for p, v in zip(grid, values):
        if prev_v > 0.0 >= v:
            crossings.append((prev_p, p))
        prev_p, prev_v = p, v
    if not crossings:
        raise NoBracketError("rate is positive across the admissible range")
    warning = None
    if len(crossings) > 1:
        warning = f"{len(crossings)} sign changes on the coarse grid; using the largest"

    lo, hi = crossings[-1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        evals += 1
        if code_rate(family, code, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(0.5 * (lo + hi), (lo, hi), evals, code, family, warning)


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
