"""The rate kernel shared by cat and concatenated cat codes, batched over noise.

Both rates are sums of w (1 - h) over (composition, flip-count) cells.  An
ensemble of n channel classes with weights w_t is spread over M outer blocks:
a composition k counts the blocks per class, and within it the flip counts
j_t in 0..k_t say how many blocks of class t carry the amplitude flip.  Each
cell holds four products over the blocks,

    a0 = prod_t alpha_t^j_t  abar_t^(k_t-j_t)    b0 = prod_t beta_t^j_t  bbar_t^(k_t-j_t)
    a1 = prod_t alpha_t^(k_t-j_t) abar_t^j_t     b1 = prod_t beta_t^(k_t-j_t) bbar_t^j_t

with alpha = p_x + p_y, abar = p_i + p_z, beta = p_x - p_y, bbar = p_i - p_z,
and h is the entropy of the conditional logical channel
((a0 + b0), (a1 + b1), (a1 - b1), (a0 - b0)) / 2(a0 + a1).  An m-cat code is
the one-class case (w = 1, M = m); a concatenated code's classes are the
inner code's syndrome-weight classes (`inner_ensemble`).

Class arrays are (n, P, ...), so one call evaluates a whole p-grid: `rate_sums`
takes the classes' log weights (n, P) and channels (n, P, 4), and `factors`
derives their logs and signs.  Reductions run over the last, contiguous axis and
all other operations are elementwise, so a point's rate does not depend on the
batch it is evaluated in.  Per (class, k_t), the p-dependent vectors over j_t are
built in log domain with log binomials from `math.lgamma` and scaled by their own
maximum, so lengths in the thousands neither underflow nor overflow; a cell's
products are then plain products of these vectors, each composition's cells
extending the prefix it shares with the previous composition in lexicographic
order, and conditional probabilities are ratios of the cell's own four values.

Flipping every block maps cell j to its mirror k - j and swaps (a0, b0) with
(a1, b1), which leaves the weight a0 + a1 and the entropy unchanged.  The
per-cell multiplicity of syndromes with the first block unflipped,
prod C(k_t, j_t) (M - |j|) / M, sums over a mirror pair to prod C(k_t, j_t),
so only the first half of the cells is evaluated.
"""

from __future__ import annotations

import math

import numpy as np

TINY = np.finfo(float).tiny
# Largest points x cells of one composition evaluated at once: `rate_sums` takes
# max(1, CELL_BUDGET // cells) points at a time, cells of the largest composition; a
# chunk's tracemalloc peak is under 1.3 MB (5-in-16 at 12 points, 3-in-19 at 41).
CELL_BUDGET = 1 << 14


def _compositions(total: int, parts: int):
    """(first, composition) for the compositions of `total` into `parts` counts >= 0, in
    lexicographic order, where `first` is the first count that differs from the previous
    composition's (0 for the first one): each step moves a unit from the last nonzero
    count t > 0 to t - 1, so t - 1 changes first, and the rest to the end."""
    comp, t = [0] * (parts - 1) + [total], parts - 1 if total else 0
    yield 0, tuple(comp)
    while t:
        comp[t - 1], comp[t], comp[-1] = comp[t - 1] + 1, 0, comp[t] - 1
        yield t - 1, tuple(comp)
        t = parts - 1 if comp[-1] else t - 1


def _powers(log_x: np.ndarray, k: int) -> np.ndarray:
    """j log x for j = 0..k over (..., k+1), with 0 at j = 0 even where x = 0."""
    out = np.zeros(log_x.shape + (k + 1,))
    np.multiply(log_x[..., None], np.arange(1, k + 1), out=out[..., 1:])
    return out


def _log(x: np.ndarray) -> np.ndarray:
    return np.log(x, out=np.full_like(x, -np.inf), where=x > 0.0)


def factors(probs: np.ndarray) -> tuple:
    """The logs of alpha, abar, |beta| and |bbar| and the signs of beta and bbar
    (True if < 0) of channels (..., 4) in slot order I, X, Y, Z, each (...)."""
    p_i, p_x, p_y, p_z = np.moveaxis(probs, -1, 0)
    beta, bbar = p_x - p_y, p_i - p_z
    return (*_log(np.stack([p_x + p_y, p_i + p_z, np.abs(beta), np.abs(bbar)])),
            beta < 0.0, bbar < 0.0)


def log_vectors(factors: tuple, log_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unscaled log a0 and log |b0| over flip counts j = 0..k of one class with `factors` at
    P points, as (2, P, k+1) with log_c[j] added, and the sign of b0 (+1.0 or -1.0)."""
    neg_b, neg_bbar = factors[4:]
    k = len(log_c) - 1
    powers = _powers(np.stack(factors[:4]), k)  # alpha, abar, |beta|, |bbar|
    log_ab0 = log_c + powers[0::2] + powers[1::2, :, ::-1]
    alternating = np.ones(k + 1)
    alternating[1::2] = -1.0  # (-1)^j; reversed, (-1)^(k-j)
    sign_b0 = (np.where(neg_b[:, None], alternating, 1.0)
               * np.where(neg_bbar[:, None], alternating[::-1], 1.0))
    return log_ab0, sign_b0


def _class_vectors(factors: tuple, log_w: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Scaled (a0, b0) of one class of log weight log_w (P,) over flip counts j = 0..k, as
    a (2, P, k+1) array with binomial C(k, j) included, and the log scale k log_w + s,
    where s is the log of the largest C(k, j) a0(j) at each point."""
    log_fact = np.array([math.lgamma(j + 1) for j in range(k + 1)])
    log_c = log_fact[k] - (log_fact + log_fact[::-1])  # exactly symmetric in j <-> k - j
    log_ab0, sign_b0 = log_vectors(factors, log_c)
    s = log_ab0[0].max(axis=1)
    out = np.exp(log_ab0 - s[:, None])
    out[1] *= sign_b0
    return out, k * log_w + s


def _conditionals(grid: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Joint probabilities (4, P, count) of the first `count` cells, each paired
    with its mirror, in slot order I, X, Y, Z, and the weights a0 + a1 (P, count)."""
    a0, b0 = grid[:, :, :count]
    a1, b1 = grid[:, :, ::-1][:, :, :count]
    cond = np.empty((4,) + a0.shape)
    np.add(a0, b0, out=cond[0])
    np.add(a1, b1, out=cond[1])
    np.subtract(a1, b1, out=cond[2])
    np.subtract(a0, b0, out=cond[3])
    return cond, a0 + a1


def _half_sum(cond: np.ndarray, weight: np.ndarray, cells: int) -> np.ndarray:
    """Sum of weight (1 - h) over all cells, as the sum over the first half
    with the middle cell, if any, counted once for its pair."""
    scratch = np.maximum(weight, TINY)
    np.divide(0.5, scratch, out=scratch)
    cond *= scratch
    np.maximum(cond, 0.0, out=cond)  # |b| <= a factorwise; clears roundoff
    logs = np.maximum(cond, TINY)
    np.log2(logs, out=logs)
    cond *= logs
    g = np.add.reduce(cond, axis=0, out=scratch)  # ((c0 + c1) + c2) + c3
    g += 1.0
    g *= weight
    s = g[:, : cells // 2].sum(axis=1)
    if cells % 2:
        s += 0.5 * g[:, cells // 2]
    return s


def rate_sums(log_w: np.ndarray, probs: np.ndarray, big_m: int) -> np.ndarray:
    """Sum of w (1 - h) over all cells at each of the P points, for n classes of
    log weights (n, P) and channels (n, P, 4) over M = big_m blocks: the rate
    times the number of physical qubits per logical qubit."""
    n, points = log_w.shape
    q, r = divmod(big_m, n)
    max_cells = (q + 2) ** r * (q + 1) ** (n - r)  # of the most balanced composition
    step = max(1, CELL_BUDGET // max_cells)
    total = np.zeros(points)
    for start in range(0, points, step):
        chunk = slice(start, start + step)
        sums = total[chunk]
        classes = list(zip(*factors(probs[:, chunk])))  # six (points,) arrays per class
        vectors: dict = {}
        # prefix[t]: cell grid (None before the first nonzero count) and log scale of the
        # classes before t, rebuilt from the first count that differs from the previous
        # composition's.  Cells are in C order: the mirror of cell i is cells - 1 - i.
        prefix = [(None, math.lgamma(big_m + 1))] + [None] * n
        for first, comp in _compositions(big_m, n):
            for t, k in enumerate(comp[first:], first):
                grid, log_scale = prefix[t]
                if k:  # a count of 0 carries the prefix: 0 * log_w is NaN where w = 0
                    if (t, k) not in vectors:
                        vectors[t, k] = _class_vectors(classes[t], log_w[t, chunk], k)
                    vec, log_k = vectors[t, k]
                    grid = vec if grid is None else (grid[..., None] * vec[:, :, None]).reshape(2, len(sums), -1)
                    log_scale = log_scale + (log_k - math.lgamma(k + 1))
                prefix[t + 1] = grid, log_scale
            grid, log_scale = prefix[n]
            scale = np.exp(log_scale)
            if not scale.any():  # every point's composition weight is 0
                continue
            cells = grid.shape[-1]
            sums += scale * _half_sum(*_conditionals(grid, (cells + 1) // 2), cells)
    return total


def inner_ensemble(probs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome-weight classes r = 0..n-1 of the n-cat code on channels (P, 4)
    given in the code's frame: log weights (n, P), with -inf for a class of
    probability 0, and conditional logical channels (n, P, 4) in slot order
    I, X, Y, Z (noiseless for a class of probability 0)."""
    vec, log_k = _class_vectors(factors(probs), np.zeros(len(probs)), n)
    cond, weight = _conditionals(vec, n)
    zero = weight == 0.0
    cond /= 2.0 * np.where(zero, 1.0, weight)
    np.maximum(cond, 0.0, out=cond)
    cond[:, zero] = np.array([1.0, 0.0, 0.0, 0.0])[:, None]
    # A class's weight is C(n-1, r) (A0 + A1) = C(n, r) (A0 + A1) (n - r) / n.
    log_w = log_k[:, None] + _log(weight) + np.log((n - np.arange(n)) / n)
    return log_w.T, cond.T
