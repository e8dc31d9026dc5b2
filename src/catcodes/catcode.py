"""Exact syndrome/logical-error statistics and achievable rates of cat codes.

An m-qubit cat code (repetition code) has stabilizers Z1Z2, ..., Z1Zm.  For a
Pauli channel the joint probability of a logical error and one specific
syndrome vector depends only on the syndrome's Hamming weight r, so all
quantities are computed over the m weight classes instead of the 2^(m-1)
syndrome vectors.

`cat_rate` and `cat_rates` evaluate the rate with the shared numpy kernel
(`_kernel`), whose one-class case is exactly the sum over weight classes.
`joint_prob`, `joint_prob_hetero`, `syndrome_classes` and `induced_channel`
are the reference path: scalar signed-log arithmetic (`slog`), one class at a
time, which the tests and `catcodes verify` check against brute force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .channels import Basis, PauliChannel, permute_basis
from .slog import SLOG_ZERO, SignedLog, slog_pow

# (u, v) logical-error labels in channel-slot order: identity, X, Y, Z.
UV_ORDER = ((0, 0), (1, 0), (1, 1), (0, 1))

HALF = SignedLog.from_float(0.5)


class ZeroProbabilityClassError(ValueError):
    """A syndrome class with zero total probability has no induced channel."""


@dataclass(frozen=True)
class CatCodeSpec:
    """Length m >= 1 and repetition basis of a cat code."""

    m: int
    basis: Basis = Basis.Z

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"cat code length must be >= 1, got {self.m}")


@dataclass(frozen=True)
class SyndromeClass:
    """One Hamming-weight class of syndromes.

    joint holds Pr(logical X^u Z^v, one specific syndrome of weight r) for
    (u, v) in UV_ORDER; multiplicity = C(m-1, r) counts the vectors in the
    class.
    """

    r: int
    multiplicity: int
    joint: tuple[SignedLog, SignedLog, SignedLog, SignedLog]

    def log_class_weight(self) -> float:
        """log of multiplicity times the per-vector class total; -inf if zero."""
        total = self.total()
        if total.sign <= 0:
            return -math.inf
        # multiplicity can exceed float range for m in the thousands.
        return _log_comb(self.multiplicity) + total.logmag

    def total(self) -> SignedLog:
        t = SLOG_ZERO
        for j in self.joint:
            t = t + j
        return t


def _log_comb(c: int) -> float:
    # math.log takes exact ints, so huge multiplicities never round through float
    return math.log(c)


def joint_prob(ch: PauliChannel, m: int, u: int, v: int, r: int) -> SignedLog:
    """Joint probability of logical X^u Z^v and one specific weight-r syndrome.

    The channel must already be permuted into the Z-basis frame.  Evaluates

        1/2 [ q_x^a (1-q_x)^b + (-1)^v (p_x-p_y)^a (1-q_x-2 p_z)^b ]

    with a = u(m-2r)+r and b = (1-u)(m-2r)+r; the second base pair may be
    negative, which integer exponents keep well defined.
    """
    if not 0 <= r <= m - 1:
        raise ValueError(f"syndrome weight r = {r} outside [0, {m - 1}]")
    a = u * (m - 2 * r) + r
    b = (1 - u) * (m - 2 * r) + r
    q_x = ch.q_x
    first = slog_pow(q_x, a) * slog_pow(1.0 - q_x, b)
    second = slog_pow(ch.p_x - ch.p_y, a) * slog_pow(1.0 - q_x - 2.0 * ch.p_z, b)
    if v == 1:
        second = -second
    return HALF * (first + second)


def joint_prob_hetero(chs, u: int, v: int, syndrome) -> SignedLog:
    """Joint probability for position-dependent channels and a specific syndrome.

    chs has length m, each channel already Z-frame permuted; syndrome holds
    the m-1 stabilizer bits s_2..s_m.  The flip indicator of qubit 1 is u and
    of qubit l is u xor s_l.  Returns 1/2 [ prod alpha_l + (-1)^v prod beta_l ]
    where a flipped qubit contributes (q_x, p_x - p_y) and an unflipped one
    (1-q_x, 1-q_x-2 p_z).
    """
    chs = list(chs)
    syndrome = list(syndrome)
    if len(syndrome) != len(chs) - 1:
        raise ValueError(f"expected {len(chs) - 1} syndrome bits, got {len(syndrome)}")
    first = SignedLog(1, 0.0)
    second = SignedLog(1, 0.0)
    for ch, flipped in zip(chs, [u] + [u ^ int(s) for s in syndrome]):
        if flipped not in (0, 1):
            raise ValueError(f"flip indicator {flipped} is not 0 or 1")
        q_x = ch.q_x
        first = first * slog_pow(q_x, flipped) * slog_pow(1.0 - q_x, 1 - flipped)
        second = (
            second
            * slog_pow(ch.p_x - ch.p_y, flipped)
            * slog_pow(1.0 - q_x - 2.0 * ch.p_z, 1 - flipped)
        )
    if v == 1:
        second = -second
    return HALF * (first + second)


def syndrome_classes(ch: PauliChannel, m: int) -> list[SyndromeClass]:
    """All m syndrome weight classes of the Z-frame cat code on `ch`."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    classes = []
    for r in range(m):
        joint = tuple(joint_prob(ch, m, u, v, r) for u, v in UV_ORDER)
        classes.append(SyndromeClass(r, math.comb(m - 1, r), joint))
    return classes


def induced_channel(sc: SyndromeClass) -> PauliChannel:
    """Logical Pauli channel conditioned on a syndrome in this class."""
    total = sc.total()
    if total.sign <= 0:
        raise ZeroProbabilityClassError(f"syndrome class r = {sc.r} has zero probability")
    cond = []
    for j in sc.joint:
        if j.sign == 0:
            cond.append(0.0)
        else:
            cond.append(j.sign * math.exp(j.logmag - total.logmag))
    return PauliChannel(*cond)


def cat_rates(chs, spec: CatCodeSpec) -> np.ndarray:
    """Rates of the cat code on each channel of `chs`, evaluated as one batch.

    Achievable rate in qubits per channel use, per Eq.-(5)-style conditional
    coherent-information accounting over syndrome weight classes.
    """
    probs = np.array([permute_basis(ch, spec.basis).probs for ch in chs]).reshape(-1, 4)
    return _kernel.rate_sums(_kernel.physical(probs), spec.m) / spec.m


def cat_rate(ch: PauliChannel, spec: CatCodeSpec) -> float:
    """Achievable rate (qubits per channel use) of the cat code on one channel."""
    return float(cat_rates([ch], spec)[0])


def logical_z_flip_prob(q_z: float, m: int) -> float:
    """Probability of a logical phase flip, [1 - (1-2 q_z)^m] / 2."""
    if not 0.0 <= q_z <= 1.0:
        raise ValueError(f"q_z = {q_z} outside [0, 1]")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (1.0 - (1.0 - 2.0 * q_z) ** m) / 2.0
