"""Pauli channels, entropy/hashing rates, and named channel families."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

# Components in [-CLAMP_TOL, 0) are treated as roundoff and clamped to 0;
# anything more negative is a real error.
CLAMP_TOL = 1e-12
SUM_TOL = 1e-12


class InvalidDistributionError(ValueError):
    """A probability vector has a negative entry or does not sum to 1."""


class NoSolutionError(ValueError):
    """A channel family has no valid channel at the requested noise level."""


class Basis(Enum):
    """Repetition basis of a cat code (which single-qubit flips it detects)."""

    Z = "Z"
    X = "X"
    Y = "Y"


def _clamped(x: float, what: str) -> float:
    x = float(x)
    if not x >= -CLAMP_TOL:
        raise InvalidDistributionError(f"{what} = {x} is NaN or negative beyond tolerance")
    return 0.0 if x < 0.0 else x


@dataclass(frozen=True)
class PauliChannel:
    """Qubit Pauli channel: apply I, X, Y, Z with probabilities (p_i, p_x, p_y, p_z)."""

    p_i: float
    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self) -> None:
        for name in ("p_i", "p_x", "p_y", "p_z"):
            object.__setattr__(self, name, _clamped(getattr(self, name), name))
        total = self.p_i + self.p_x + self.p_y + self.p_z
        if not abs(total - 1.0) <= SUM_TOL:
            raise InvalidDistributionError(f"Pauli probabilities sum to {total}, not 1")

    @property
    def probs(self) -> tuple[float, float, float, float]:
        return (self.p_i, self.p_x, self.p_y, self.p_z)

    @property
    def q_x(self) -> float:
        """Amplitude-flip probability p_x + p_y."""
        return self.p_x + self.p_y

    @property
    def q_z(self) -> float:
        """Phase-flip probability p_z + p_y."""
        return self.p_z + self.p_y


def entropy4(dist) -> float:
    """Shannon entropy in bits of a 4-outcome distribution, with 0 log 0 = 0."""
    vals = [_clamped(d, "probability") for d in dist]
    total = sum(vals)
    if not abs(total - 1.0) <= 1e-9:
        raise InvalidDistributionError(f"distribution sums to {total}, not 1")
    h = 0.0
    for v in vals:
        if v > 0.0:
            h -= v * math.log2(v)
    # A component may exceed 1 by up to the sum tolerance, leaving a tiny
    # negative total; entropy is nonnegative, so treat that as roundoff.
    if -1e-9 < h < 0.0:
        h = 0.0
    return h


def hashing_rate(ch: PauliChannel) -> float:
    """Single-letter (nondegenerate-code) rate 1 - H(p_i, p_x, p_y, p_z).

    May be negative; callers decide whether to clamp.
    """
    return 1.0 - entropy4(ch.probs)


# Per basis, the channel slots that a cat code in that basis reads as (I, X, Y, Z), so
# that it reduces to the Z-basis formulas: the error whose flips the code detects goes
# to the X slot.  Each is an involution: Z is the identity, X swaps p_x and p_z, and Y
# swaps p_y and p_z while fixing p_x.
BASIS_SLOTS = {Basis.Z: (0, 1, 2, 3), Basis.X: (0, 3, 2, 1), Basis.Y: (0, 1, 3, 2)}


@dataclass(frozen=True)
class ChannelFamily:
    """A one-parameter family of Pauli channels indexed by total noise p.

    kind is one of "depolarizing", "two_pauli", "independent_xz_ratio",
    "custom_ray"; params hold the family-specific constants.
    """

    kind: str
    params: tuple[tuple[str, float], ...] = ()


_FAMILY_KINDS = ("depolarizing", "two_pauli", "independent_xz_ratio", "custom_ray")


def make_family(kind: str, params: Mapping[str, float] | None = None) -> ChannelFamily:
    """Construct a validated channel family."""
    params = dict(params or {})
    if kind not in _FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    if kind == "independent_xz_ratio":
        if not 0.0 < params.get("ratio", math.nan) < math.inf:
            raise ValueError("independent_xz_ratio needs a finite positive 'ratio' = q_x/q_z")
    elif kind == "custom_ray":
        for key in ("ex", "ey", "ez"):
            if not 0.0 <= params.get(key, 0.0) < math.inf:
                raise ValueError(f"custom_ray direction component {key} must be finite and >= 0")
        total = params.get("ex", 0.0) + params.get("ey", 0.0) + params.get("ez", 0.0)
        if not 0.0 < total < math.inf:
            raise ValueError("custom_ray needs a nonzero, finite error direction (ex, ey, ez)")
        params = {k: params.get(k, 0.0) / total for k in ("ex", "ey", "ez")}
    elif params:
        raise ValueError(f"family {kind!r} takes no parameters")
    return ChannelFamily(kind, tuple(sorted(params.items())))


def _components(family: ChannelFamily, p):
    """(p_i, p_x, p_y, p_z) of the family at p in [0, 1], elementwise if p is an array."""
    if family.kind == "depolarizing":
        return 1.0 - p, p / 3.0, p / 3.0, p / 3.0
    if family.kind == "two_pauli":
        return 1.0 - p, p / 2.0, 0.0, p / 2.0
    d = dict(family.params)
    if family.kind == "independent_xz_ratio":
        # Total error p = q_z + q_x - q_z*q_x: q_z is the smaller root of ratio*q^2 -
        # (1+ratio)*q + p = 0, without cancellation at tiny p, and its discriminant is
        # a sum of terms >= 0 on [0, 1], without cancellation near ratio = 1, p = 1.
        ratio = d["ratio"]
        disc = (1.0 - ratio) * (1.0 - ratio) + 4.0 * ratio * (1.0 - p)
        q_z = 2.0 * p / (1.0 + ratio + np.sqrt(disc))
        q_x = ratio * q_z
        return (1.0 - q_x) * (1.0 - q_z), q_x * (1.0 - q_z), q_x * q_z, q_z * (1.0 - q_x)
    return 1.0 - p, p * d["ex"], p * d["ey"], p * d["ez"]


def evaluate_family(family: ChannelFamily, p: float) -> PauliChannel:
    """Evaluate the family at total error probability p in [0, 1]."""
    if not -CLAMP_TOL <= p <= 1.0 + CLAMP_TOL:
        raise NoSolutionError(f"p = {p} outside [0, 1.0] for {family.kind}")
    return PauliChannel(*_components(family, min(max(p, 0.0), 1.0)))


def family_probs(family: ChannelFamily, ps) -> np.ndarray:
    """`evaluate_family(family, p).probs` for every p of ps, as one (P, 4) array, bit
    for bit, with `PauliChannel`'s clamp and sum rules and the same exceptions."""
    ps = np.asarray(ps, dtype=float).reshape(-1)
    outside = ~((-CLAMP_TOL <= ps) & (ps <= 1.0 + CLAMP_TOL))
    if outside.any():
        raise NoSolutionError(f"p = {ps[outside][0]} outside [0, 1.0] for {family.kind}")
    probs = np.empty((len(ps), 4))
    for slot, column in enumerate(_components(family, np.clip(ps, 0.0, 1.0))):
        probs[:, slot] = column
    probs[(-CLAMP_TOL <= probs) & (probs < 0.0)] = 0.0
    total = probs[:, 0] + probs[:, 1] + probs[:, 2] + probs[:, 3]
    if not ((probs >= 0.0).all() and (abs(total - 1.0) <= SUM_TOL).all()):
        raise InvalidDistributionError("Pauli probabilities NaN, negative or not summing to 1")
    return probs
