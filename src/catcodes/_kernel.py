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

Every array carries the noise points on its leading axis P, so one call
evaluates a whole p-grid; reductions run over the last, contiguous axis and
all other operations are elementwise, so a point's rate does not depend on
the batch it is evaluated in.  Per (class, k_t), the p-dependent vectors over
j_t are built in log domain with log binomials from `math.lgamma` and scaled
by their own maximum, so lengths in the thousands neither underflow nor
overflow; a cell's products are then plain products of these vectors, and
conditional probabilities are ratios of the cell's own four values.

Flipping every block maps cell j to its mirror k - j and swaps (a0, b0) with
(a1, b1), which leaves the weight a0 + a1 and the entropy unchanged.  The
per-cell multiplicity of syndromes with the first block unflipped,
prod C(k_t, j_t) (M - |j|) / M, sums over a mirror pair to prod C(k_t, j_t),
so only the first half of the cells is evaluated.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

TINY = np.finfo(float).tiny
# Largest points x cells of one composition evaluated at once.  Wider batches
# are split along the points, which keeps a composition's temporaries (about
# 40 bytes per point and cell) under 1 MB.
CELL_BUDGET = 1 << 14


def _compositions(total: int, parts: int):
    """Compositions of `total` into `parts` counts >= 0, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _powers(log_x: np.ndarray, k: int) -> np.ndarray:
    """j log x for j = 0..k over (P, k+1), with 0 at j = 0 even where x = 0."""
    out = np.zeros((len(log_x), k + 1))
    np.multiply(log_x[:, None], np.arange(1, k + 1), out=out[:, 1:])
    return out


def _log(x: np.ndarray) -> np.ndarray:
    return np.log(x, out=np.full_like(x, -np.inf), where=x > 0.0)


class Ensemble(NamedTuple):
    """n weighted channel classes at P noise points; every array is (n, P).

    log_w is the class log weight (-inf for a class of weight 0, whose
    channel is a noiseless placeholder); the rest are the logs of alpha,
    abar, |beta| and |bbar| and the signs of beta and bbar (True if < 0).
    """

    log_w: np.ndarray
    log_a: np.ndarray
    log_abar: np.ndarray
    log_b: np.ndarray
    log_bbar: np.ndarray
    neg_b: np.ndarray
    neg_bbar: np.ndarray

    @staticmethod
    def from_probs(probs: np.ndarray, log_w: np.ndarray) -> "Ensemble":
        """Classes from conditional probabilities (n, P, 4) in slot order I, X, Y, Z."""
        p_i, p_x, p_y, p_z = np.moveaxis(probs, -1, 0)
        beta, bbar = p_x - p_y, p_i - p_z
        return Ensemble(log_w, _log(p_x + p_y), _log(p_i + p_z), _log(np.abs(beta)),
                        _log(np.abs(bbar)), beta < 0.0, bbar < 0.0)

    def points(self, sl: slice) -> "Ensemble":
        """The same classes at a slice of the noise points."""
        return Ensemble(*(a[:, sl] for a in self))


def log_vectors(ens: Ensemble, t: int, log_c: np.ndarray):
    """Unscaled log a0 and log |b0| of class t over flip counts j = 0..k, each
    (P, k+1) with log_c[j] added, and the sign of b0 (+1.0 or -1.0)."""
    k = len(log_c) - 1
    log_a0 = log_c + _powers(ens.log_a[t], k) + _powers(ens.log_abar[t], k)[:, ::-1]
    log_b0 = log_c + _powers(ens.log_b[t], k) + _powers(ens.log_bbar[t], k)[:, ::-1]
    alternating = np.ones(k + 1)
    alternating[1::2] = -1.0  # (-1)^j; reversed, (-1)^(k-j)
    sign_b0 = (np.where(ens.neg_b[t][:, None], alternating, 1.0)
               * np.where(ens.neg_bbar[t][:, None], alternating[::-1], 1.0))
    return log_a0, log_b0, sign_b0


def _class_vectors(ens: Ensemble, t: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Scaled (a0, b0) of one class over flip counts j = 0..k, as a (2, P, k+1)
    array with binomial C(k, j) included, and the log scale k log w_t + s,
    where s is the log of the largest C(k, j) a0(j) at each point."""
    log_fact = np.array([math.lgamma(j + 1) for j in range(k + 1)])
    log_c = log_fact[k] - (log_fact + log_fact[::-1])  # exactly symmetric in j <-> k - j
    log_a0, log_b0, sign_b0 = log_vectors(ens, t, log_c)
    s = log_a0.max(axis=1)
    out = np.empty((2,) + log_a0.shape)
    np.exp(log_a0 - s[:, None], out=out[0])
    np.exp(log_b0 - s[:, None], out=out[1])
    out[1] *= sign_b0
    return out, k * ens.log_w[t] + s


def _outer_product(parts: list) -> np.ndarray:
    """Cells of a composition from its (2, P, k_t+1) class vectors: (2, P, cells),
    cells in C order, so that the mirror of flat cell index i is cells - 1 - i."""
    grid = parts[0]
    for i, vec in enumerate(parts[1:], 1):
        grid = grid[..., None] * vec.reshape(vec.shape[:2] + (1,) * i + vec.shape[2:])
    return grid.reshape(grid.shape[:2] + (-1,))


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
    g = np.add(cond[0], cond[1], out=scratch)
    g += cond[2]
    g += cond[3]
    g += 1.0
    g *= weight
    s = g[:, : cells // 2].sum(axis=1)
    if cells % 2:
        s += 0.5 * g[:, cells // 2]
    return s


def rate_sums(ens: Ensemble, big_m: int) -> np.ndarray:
    """Sum of w (1 - h) over all cells at each of the P points: the rate times
    the number of physical qubits per logical qubit."""
    n, points = ens.log_w.shape
    if not points:
        return np.zeros(0)
    q, r = divmod(big_m, n)
    max_cells = (q + 2) ** r * (q + 1) ** (n - r)  # of the most balanced composition
    chunks = -(-points * max_cells // CELL_BUDGET)
    step = -(-points // chunks)
    return np.concatenate([_rate_sums(ens.points(slice(i, i + step)), big_m)
                           for i in range(0, points, step)])


def _rate_sums(ens: Ensemble, big_m: int) -> np.ndarray:
    n, points = ens.log_w.shape
    vectors: dict = {}
    total = np.zeros(points)
    for comp in _compositions(big_m, n):
        parts = []
        log_scale = np.full(points, math.lgamma(big_m + 1))
        for t, k in enumerate(comp):
            if k == 0:
                continue
            if (t, k) not in vectors:
                vectors[t, k] = _class_vectors(ens, t, k)
            vec, log_k = vectors[t, k]
            parts.append(vec)
            log_scale += log_k - math.lgamma(k + 1)
        scale = np.exp(log_scale)
        if not scale.any():  # every point's composition weight is 0
            continue
        cells = math.prod(k + 1 for k in comp)
        total += scale * _half_sum(*_conditionals(_outer_product(parts), (cells + 1) // 2), cells)
    return total


def physical(probs: np.ndarray) -> Ensemble:
    """One class of weight 1: a physical channel (P, 4), already in the code's frame."""
    return Ensemble.from_probs(probs[None], np.zeros((1, len(probs))))


def inner_ensemble(probs: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome-weight classes r = 0..n-1 of the n-cat code on channels (P, 4)
    given in the code's frame: log weights (n, P), with -inf for a class of
    probability 0, and conditional logical channels (n, P, 4) in slot order
    I, X, Y, Z (noiseless for a class of probability 0)."""
    vec, log_k = _class_vectors(physical(probs), 0, n)
    cond, weight = _conditionals(vec, n)
    zero = weight == 0.0
    cond /= 2.0 * np.where(zero, 1.0, weight)
    np.maximum(cond, 0.0, out=cond)
    cond[:, zero] = np.array([1.0, 0.0, 0.0, 0.0])[:, None]
    # A class's weight is C(n-1, r) (A0 + A1) = C(n, r) (A0 + A1) (n - r) / n.
    log_w = log_k[:, None] + _log(weight) + np.log((n - np.arange(n)) / n)
    return log_w.T, cond.T
