"""Threshold location, repetition-length scans, and the asymptotic rate guide."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .channels import Basis, ChannelFamily, evaluate_family, family_probs
from .catcode import CatCodeSpec, _cat_rates, _cats_rates
from .concat import ConcatSpec, _concat_rates, _concat_signs, _counts
from .degradable import antidegradable

CodeSpec = Union[CatCodeSpec, ConcatSpec, None]

# Points of the coarse grid over the admissible range [0, 1] that `threshold`
# scans for sign changes before it bisects.
PRE_SCAN_POINTS = 64
_PRE_SCAN_GRID = tuple((i + 1) / PRE_SCAN_POINTS for i in range(PRE_SCAN_POINTS))
# Bisection levels whose midpoints `threshold` evaluates as one batch when it follows
# no predicted path: up to 2**3 - 1 = 7 points, which cost little more than one.
BISECTION_LEVELS_PER_BATCH = 3
# Cells per noise point (`concat._counts`) from which `threshold` answers its pre-scan batch
# with a weight-pruned pass and a pass that completes some of its points (`_pre_scan`).
# Together the two passes walk every composition once: they save the skipped compositions'
# cells at the points not completed and cost the pruner's work.  Measured in-process (2-vCPU Xeon, medians of 7-21 alternating runs, new / full
# pre-scan batch) on the depolarizing (17 points), 9:1 (35) and two-Pauli (23) pre-scans:
# every code from 40,000 cells won on all three, 3-in-19 (42,504) 0.73 / 0.90 / 0.95,
# 4-in-12 (50,388) 0.75-0.78 / 0.88 / 0.97, 5-in-9 (48,620) 0.80-0.83 / 0.87 / 0.94,
# 3-in-20, 4-in-13, 6-in-8 and 5-in-10 (to 92,378) 0.69-0.89, and 2-in-60 (39,711)
# 0.88 / 0.96 / 0.90; below, codes lost on one family or another, 6-in-7 (31,824) 1.03 on
# two-Pauli, 5-in-8 (24,310) 1.05-1.07, 2-in-45 (17,296) 1.09 on 9:1, 4-in-10 (19,448)
# 1.08, 3-in-15 1.04, and 5-in-5 (2,002) 1.13-1.44.
CERTIFIED_PRE_SCAN_CELLS = 40_000
# Lengths whose threshold searches `best_threshold_scan` advances together: each search holds
# its evaluated points, and the kernel caches the count tables of 64 lengths (`_kernel._cells`).
_LOCKSTEP_LENGTHS = 64


class NoBracketError(RuntimeError):
    """No sign change of the rate was found over the admissible noise range."""


@dataclass(frozen=True)
class ThresholdResult:
    """Zero-rate crossing of a code along a channel family."""

    p_star: float
    bracket: tuple[float, float]
    evaluations: int  # noise points whose full rate was computed
    certified: int  # pre-scan points whose sign a partial sum certified, their rate never needed
    skipped: int  # pre-scan points certified to have zero capacity, not evaluated
    batches: int  # batches of points evaluated together, the pre-scan first
    warning: Optional[str] = None


@dataclass(frozen=True)
class ScanRow:
    """One row of a length scan: rate at fixed noise, or threshold, per scan type."""

    m: int
    rate: Optional[float] = None
    threshold: Optional[float] = None


def code_rates(family: ChannelFamily, code: CodeSpec, ps) -> np.ndarray:
    """Rates of `code` (None: hashing, the rate of the 1-cat code) at every p of `ps`, as one
    batch on their (P, 4) `family_probs`; each equals, bit for bit, the rate at that p alone."""
    probs = family_probs(family, ps)
    if isinstance(code, ConcatSpec):
        return _concat_rates(probs, code)
    return _cat_rates(probs, CatCodeSpec(1) if code is None else code)


def code_rate(family: ChannelFamily, code: CodeSpec, p: float) -> float:
    """`code_rates` at the one noise level p."""
    return float(code_rates(family, code, [p])[0])


@functools.lru_cache(maxsize=64)
def _certified(family: ChannelFamily) -> tuple[bool, ...]:
    """Which pre-scan points are certified antidegradable, so rate <= 0 for
    every code.  Depends only on the family, since the grid is fixed; cached
    because every search of `best_threshold_scan` asks for it."""
    return tuple(antidegradable(evaluate_family(family, p)) for p in _PRE_SCAN_GRID)


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
    """Midpoints on the bisection path from (lo, hi) toward `target`, down to
    width max(tol, w**3) for the bracket's width w, or, with no target, those
    of the next `BISECTION_LEVELS_PER_BATCH` levels below (lo, hi), each
    computed from its (lo, hi) pair exactly as bisection computes it."""
    mids = []
    if target is not None:
        floor = max(tol, (hi - lo) ** 3)
        while (mid := _split(lo, hi, floor)) is not None:
            mids.append(mid)
            lo, hi = (mid, hi) if target > mid else (lo, mid)
        return mids
    level = [(lo, hi)]
    for _ in range(BISECTION_LEVELS_PER_BATCH):
        children = []
        for a, b in level:
            mid = _split(a, b, tol)
            if mid is not None:
                mids.append(mid)
                children += [(a, mid), (mid, b)]
        level = children
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
    evaluates the midpoints on the path toward the crossing `_predicted_crossing`
    predicts, or else those of the next `BISECTION_LEVELS_PER_BATCH` levels.  A
    path from a bracket of width w stops at width w**3 (or tol): the
    interpolation error is of order w**2 to w**3, so a path seldom holds
    deeper, and the points below where it goes wrong are wasted.  Bisection
    then walks down while its midpoint has been evaluated, so the result is
    bit for bit that of plain bisection: the prediction only chooses which
    points to evaluate.  Bisection stops at width <= tol, or when no float
    lies strictly inside the bracket.  Every point whose full rate is computed
    counts as one evaluation.

    A batch but the last that walks fewer than L = `BISECTION_LEVELS_PER_BATCH`
    levels followed a path that went wrong near its top; the next batch
    evaluates full levels.  So if plain bisection takes `levels` steps from the
    pre-scan bracket, there are at most 1 + 2 ceil(levels / (L + 1)) batches.

    A concatenated code of at least `CERTIFIED_PRE_SCAN_CELLS` cells per point answers the
    pre-scan batch with a weight-pruned pass (`concat._concat_signs`) and a pass that
    completes the full rates of the points whose values the search reads (`_pre_scan`):
    elsewhere a partial rate whose sign is certified stands for the rate, as the search reads
    only its sign.  Such points count as `certified`, not as evaluations, and the search
    evaluates the same points as with full rates, in as many batches, to the same result.

    The search is `_search`, answered here by `code_rates` and in `best_threshold_scan`
    by one kernel pass per round for all lengths (`_thresholds`).
    """
    search = _search(family, tol)
    rates, certified = _pre_scan(family, code, next(search))
    while True:
        try:
            rates = code_rates(family, code, search.send(rates))
        except StopIteration as done:
            result = done.value
            return replace(result, evaluations=result.evaluations - certified, certified=certified)


def _pre_scan(family: ChannelFamily, code: CodeSpec, ps: list) -> tuple:
    """The rates `threshold` takes for its pre-scan batch `ps`, and how many of them are
    certified partial rates: a concatenated code of at least `CERTIFIED_PRE_SCAN_CELLS` cells
    per point takes `concat._concat_signs`, any other code `code_rates`, with none certified.

    The search reads a pre-scan point's value, not only its sign, where it is an end of a
    bracket it refines or the nearest evaluated point outside one (`_predicted_crossing`):
    for the crossing from ps[i] to the next grid point, ps[i - 1] to ps[i + 2] at most.  So the
    full rates are completed at every uncertified point and at those four around each crossing
    the certified signs leave possible (a grid point not in `ps` counts as rate <= 0)."""
    if not (isinstance(code, ConcatSpec) and _counts(code)[1] >= CERTIFIED_PRE_SCAN_CELLS):
        return code_rates(family, code, ps), 0
    rates, certified, complete = _concat_signs(family_probs(family, ps), code)
    index = {p: i for i, p in enumerate(ps)}
    up, down = ~certified | (rates > 0.0), ~certified | (rates <= 0.0)  # rate may be > 0, <= 0
    full = ~certified
    for p, q in zip((0.0,) + _PRE_SCAN_GRID, _PRE_SCAN_GRID):
        i = index.get(p)
        if i is not None and up[i] and (q not in index or down[index[q]]):
            full[max(i - 1, 0):i + 3] = True
    rates[full] = complete(full)
    return rates, int(len(ps) - full.sum())


def _search(family: ChannelFamily, tol: float):
    """`threshold`'s search for one code as a generator: yields each batch's points (a list),
    is sent their rates, and returns the `ThresholdResult`."""
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be finite and positive")
    scan = [p for p, skip in zip(_PRE_SCAN_GRID, _certified(family)) if not skip]
    known = dict(zip([0.0] + scan, map(float, (yield [0.0] + scan))))
    batches = 1
    if known[0.0] <= 0.0:
        raise NoBracketError("rate is not positive at p = 0")

    # Certified points are not in `known` and count as rate <= 0.
    crossings = []
    prev_p, prev_positive = 0.0, True
    for p in _PRE_SCAN_GRID:
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
    levels = BISECTION_LEVELS_PER_BATCH
    while _split(lo, hi, tol) is not None:
        target = _predicted_crossing(known, lo, hi) if levels >= BISECTION_LEVELS_PER_BATCH else None
        mids = [p for p in _batch_midpoints(lo, hi, tol, target) if p not in known]
        known.update(zip(mids, map(float, (yield mids))))
        batches += 1
        # Stops at the first midpoint not yet evaluated, which the next batch
        # evaluates first; nothing below it has been evaluated either.
        levels = 0
        while (mid := _split(lo, hi, tol)) is not None and mid in known:
            if known[mid] > 0.0:
                lo = mid
            else:
                hi = mid
            levels += 1
    skipped = PRE_SCAN_POINTS - len(scan)
    return ThresholdResult(0.5 * (lo + hi), (lo, hi), len(known), 0, skipped, batches, warning)


def _scan(m_range, basis: Basis, field: str, values) -> tuple[list[ScanRow], int]:
    """Rows of `field`, values(specs) of the cat codes of the distinct m of m_range in increasing
    order, and the m of the largest value; ties go to the smallest m (cheaper code)."""
    ms = sorted(set(int(m) for m in m_range))
    if not ms:
        raise ValueError("m_range is empty")
    pairs = list(zip(ms, values([CatCodeSpec(m, basis) for m in ms])))
    rows = [ScanRow(m, **{field: v}) for m, v in pairs]
    return rows, max(pairs, key=lambda pair: (pair[1], -pair[0]))[0]


def best_length_scan(
    family: ChannelFamily,
    p: float,
    basis: Basis,
    m_range,
) -> tuple[list[ScanRow], int]:
    """Rate of each cat length at fixed noise, all lengths in one kernel pass; returns rows
    and the argmax m."""
    def rates(specs):
        return _cats_rates(np.repeat(family_probs(family, [p])[None], len(specs), 0), specs)[:, 0].tolist()
    return _scan(m_range, basis, "rate", rates)


def _thresholds(family: ChannelFamily, specs: list[CatCodeSpec], tol: float) -> list[ThresholdResult]:
    """`threshold` of each cat code of `specs`, in increasing length, bit for bit: the searches
    of up to `_LOCKSTEP_LENGTHS` codes advance in rounds, each batch padded to the largest by
    repeating its last point, one kernel pass (`_cats_rates`) per round.  If codes fail, the
    shortest one's error is raised, as code after code would; the longer ones stop there."""
    if len(specs) > _LOCKSTEP_LENGTHS:
        head, tail = specs[:_LOCKSTEP_LENGTHS], specs[_LOCKSTEP_LENGTHS:]
        return _thresholds(family, head, tol) + _thresholds(family, tail, tol)
    searches = {spec: _search(family, tol) for spec in specs}
    rates, results, failed = dict.fromkeys(specs), {}, None  # None starts a search
    while rates:
        asks = {}
        for spec, row in rates.items():
            try:
                ps = searches[spec].send(row)
                _counts(spec)  # a code over a cap fails at its first batch
                asks[spec] = ps
            except StopIteration as done:
                results[spec] = done.value
            except Exception as error:
                failed = error  # shorter than any failed before: the longer codes stop here
                break
        rates = {}
        if asks:
            width = max(map(len, asks.values()))
            ps = [batch + batch[-1:] * (width - len(batch)) for batch in asks.values()]
            rows = _cats_rates(family_probs(family, ps).reshape(len(ps), width, 4), list(asks))
            rates = {spec: row[:len(batch)] for (spec, batch), row in zip(asks.items(), rows)}
    if failed is not None:
        raise failed
    return [results[spec] for spec in specs]


def best_threshold_scan(
    family: ChannelFamily,
    basis: Basis,
    m_range,
    tol: float = 1e-6,
) -> tuple[list[ScanRow], int]:
    """Zero-rate threshold of each cat length, the searches advanced together with the
    results of `threshold` (`_thresholds`); returns rows and the argmax m."""
    return _scan(m_range, basis, "threshold",
                 lambda specs: [result.p_star for result in _thresholds(family, specs, tol)])


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
