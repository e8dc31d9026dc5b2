"""Exact syndrome/logical-error statistics and achievable rates of cat codes.

An m-qubit cat code (repetition code) has stabilizers Z1Z2, ..., Z1Zm.  For a
Pauli channel the joint probability of a logical error and one specific
syndrome vector depends only on the syndrome's Hamming weight r, so all
quantities are computed over the m weight classes instead of the 2^(m-1)
syndrome vectors.

Everything here comes from the shared numpy kernel (`_kernel`).  `_cats_rates` is
its one-class rate sum of several codes in one pass (`_kernel.cat_sums`: each code is
one entry of the run former that concatenated codes' compositions go through too, and
its row is bit for bit `rate_sums` of one class of log weight 0), each over the rows of
its own (P, 4) probability array in the code's frame (`_frame`, the one slot rule of
cat, inner and outer codes); `_cat_rates` is that pass at one code, and `cat_rate` at
one channel.  `syndrome_classes`, `joint_prob` and `induced_channel`
read the class probabilities from the sum of the kernel's unscaled log-domain terms
over flip counts (`_kernel.log_vectors`), and `joint_prob_hetero` forms the same
two products for position-dependent channels; the tests and `catcodes verify`
check both against brute force.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernel
from .channels import BASIS_SLOTS, Basis, PauliChannel

# (u, v) logical-error labels in channel-slot order: identity, X, Y, Z.
UV_ORDER = ((0, 0), (1, 0), (1, 1), (0, 1))

LOG_HALF = math.log(0.5)


class ZeroProbabilityClassError(ValueError):
    """A syndrome class with zero total probability has no induced channel."""


@dataclass(frozen=True)
class CatCodeSpec:
    """Length m >= 1 and repetition basis of a cat code."""

    m: int
    basis: Basis = Basis.Z

    def __post_init__(self) -> None:
        if not isinstance(self.m, numbers.Integral):
            raise ValueError(f"cat code length m must be an integer, got {self.m!r}")
        if self.m < 1:
            raise ValueError(f"cat code length m must be >= 1, got {self.m}")
        if not isinstance(self.basis, Basis):
            raise ValueError(f"cat code basis must be a Basis, got {self.basis!r}")


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as sign in {-1, 0, +1} and natural log of magnitude,
    so that probabilities far below the float range keep their value."""

    sign: int
    logmag: float = -math.inf

    def to_float(self) -> float:
        return self.sign * math.exp(self.logmag)


ZERO = SignedLog(0)


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

    def total(self) -> SignedLog:
        top = max(j.logmag for j in self.joint)
        if top == -math.inf:
            return ZERO
        return SignedLog(1, top + math.log(sum(math.exp(j.logmag - top) for j in self.joint)))


def _half_sum(log_a: float, log_b: float, sign: float) -> SignedLog:
    """(a + sign |b|) / 2 from log a and log |b|, for products with |b| <= a
    factorwise; sign is +1 or -1, and roundoff past |b| = a reads as 0."""
    d = log_b - log_a
    if log_a == -math.inf or (sign < 0 and d >= 0.0):
        return ZERO
    tail = math.log1p(math.exp(d)) if sign > 0 else math.log(-math.expm1(d))
    return SignedLog(1, log_a + tail + LOG_HALF)


def joint_prob(ch: PauliChannel, m: int, u: int, v: int, r: int) -> SignedLog:
    """Joint probability of logical X^u Z^v and one specific weight-r syndrome.

    The channel must already be permuted into the Z-basis frame.  Evaluates

        1/2 [ q_x^a (1-q_x)^b + (-1)^v (p_x-p_y)^a (1-q_x-2 p_z)^b ]

    with a = u(m-2r)+r and b = (1-u)(m-2r)+r; the second base pair may be
    negative, which integer exponents keep well defined.
    """
    if (u, v) not in UV_ORDER:
        raise ValueError(f"(u, v) = {(u, v)} is not one of {UV_ORDER}")
    if not 0 <= r <= m - 1:
        raise ValueError(f"syndrome weight r = {r} outside [0, {m - 1}]")
    return syndrome_classes(ch, m)[r].joint[UV_ORDER.index((u, v))]


def joint_prob_hetero(chs, u: int, v: int, syndrome) -> SignedLog:
    """Joint probability for position-dependent channels and a specific syndrome.

    chs has length m, each channel already Z-frame permuted; syndrome holds
    the m-1 stabilizer bits s_2..s_m.  The flip indicator of qubit 1 is u and
    of qubit l is u xor s_l.  Returns 1/2 [ prod alpha_l + (-1)^v prod beta_l ]
    where a flipped qubit contributes (q_x, p_x - p_y) and an unflipped one
    (1-q_x, 1-q_x-2 p_z).
    """
    if (u, v) not in UV_ORDER:
        raise ValueError(f"(u, v) = {(u, v)} is not one of {UV_ORDER}")
    chs = list(chs)
    syndrome = list(syndrome)
    if len(syndrome) != len(chs) - 1:
        raise ValueError(f"expected {len(chs) - 1} syndrome bits, got {len(syndrome)}")
    flips = [u] + [u ^ int(s) for s in syndrome]
    for flipped in flips:
        if flipped not in (0, 1):
            raise ValueError(f"flip indicator {flipped} is not 0 or 1")
    # The qubits are the points of one kernel class; sum their logs per flip.
    log_a, log_abar, log_b, log_bbar, neg_b, neg_bbar = _kernel.factors(
        np.array([ch.probs for ch in chs]))
    flipped = np.array(flips, dtype=bool)
    sum_a = np.where(flipped, log_a, log_abar).sum()
    sum_b = np.where(flipped, log_b, log_bbar).sum()
    negatives = np.where(flipped, neg_b, neg_bbar).sum() + v
    return _half_sum(float(sum_a), float(sum_b), -1.0 if negatives % 2 else 1.0)


def syndrome_classes(ch: PauliChannel, m: int) -> list[SyndromeClass]:
    """All m syndrome weight classes of the Z-frame cat code on `ch`."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    # Class r's four joints are (a0 +- b0) / 2 at flip count j = r and
    # (a1 +- b1) / 2 at its mirror m - r, per syndrome vector (no binomial).
    j_term, k_less_j_term, sign = _kernel.log_vectors(_kernel.factors(np.array([ch.probs])), m, m)
    (log_a, log_b), sign_b = (j_term + k_less_j_term)[:, 0].tolist(), sign[0].tolist()
    classes = []
    multiplicity = 1  # C(m-1, r), updated exactly
    for r in range(m):
        a0, b0, s0 = log_a[r], log_b[r], sign_b[r]
        a1, b1, s1 = log_a[m - r], log_b[m - r], sign_b[m - r]
        joint = (_half_sum(a0, b0, s0), _half_sum(a1, b1, s1),
                 _half_sum(a1, b1, -s1), _half_sum(a0, b0, -s0))
        classes.append(SyndromeClass(r, multiplicity, joint))
        multiplicity = multiplicity * (m - 1 - r) // (r + 1)
    return classes


def induced_channel(sc: SyndromeClass) -> PauliChannel:
    """Logical Pauli channel conditioned on a syndrome in this class."""
    total = sc.total()
    if total.sign <= 0:
        raise ZeroProbabilityClassError(f"syndrome class r = {sc.r} has zero probability")
    return PauliChannel(*(math.exp(j.logmag - total.logmag) for j in sc.joint))


def _frame(probs: np.ndarray, spec: CatCodeSpec) -> np.ndarray:
    """Channels (..., 4) in the frame of the code `spec`, their slots read by `BASIS_SLOTS`; a
    length-1 code has no stabilizers, so its frame is the physical one in any basis."""
    return probs[..., BASIS_SLOTS[spec.basis]] if spec.m > 1 else probs


def _cats_rates(probs: np.ndarray, specs) -> np.ndarray:
    """Rates (qubits per channel use) of cat codes `specs` on checked probabilities (L, P, 4),
    code l on the P rows of probs[l], as (L, P) in one kernel pass: each row bit for bit that
    code's rates alone.

    Achievable rate per Eq.-(5)-style conditional coherent-information
    accounting over syndrome weight classes.
    """
    lengths = [spec.m for spec in specs]
    framed = np.array([_frame(rows, spec) for rows, spec in zip(probs, specs)])
    return _kernel.cat_sums(framed, lengths) / np.array(lengths)[:, None]


def _cat_rates(probs: np.ndarray, spec: CatCodeSpec) -> np.ndarray:
    """Rates of the cat code on each row of a (P, 4) array of checked probabilities
    (`family_probs`, or one `PauliChannel`), evaluated as one batch (`_cats_rates`)."""
    return _cats_rates(probs[None], [spec])[0]


def cat_rate(ch: PauliChannel, spec: CatCodeSpec) -> float:
    """Achievable rate (qubits per channel use) of the cat code on one channel."""
    return float(_cat_rates(np.array([ch.probs]), spec)[0])


def logical_z_flip_prob(q_z: float, m: int) -> float:
    """Probability of a logical phase flip, [1 - (1-2 q_z)^m] / 2."""
    if not 0.0 <= q_z <= 1.0:
        raise ValueError(f"q_z = {q_z} outside [0, 1]")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (1.0 - (1.0 - 2.0 * q_z) ** m) / 2.0
