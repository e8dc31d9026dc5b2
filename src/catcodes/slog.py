"""Sign-plus-log ("signed logarithm") scalars for the reference path.

The cat-code joint distribution is a difference of two products of m factors;
for large m the products underflow double precision and the second product can
be negative, so values are carried as (sign, log|value|).  `catcode`'s
reference functions (`joint_prob`, `joint_prob_hetero`, `syndrome_classes`,
`induced_channel`) use these scalars one weight class at a time; the tests and
`catcodes verify` check them against brute force.  The rates themselves come
from the vectorized kernel (`_kernel`), which does not use this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SignedLog:
    """A real number stored as sign in {-1, 0, +1} and natural log of magnitude."""

    sign: int
    logmag: float = 0.0

    @staticmethod
    def from_float(x: float) -> "SignedLog":
        if x == 0.0:
            return SLOG_ZERO
        return SignedLog(1 if x > 0.0 else -1, math.log(abs(x)))

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.logmag)

    def __mul__(self, other: "SignedLog") -> "SignedLog":
        if self.sign == 0 or other.sign == 0:
            return SLOG_ZERO
        return SignedLog(self.sign * other.sign, self.logmag + other.logmag)

    def __neg__(self) -> "SignedLog":
        return SignedLog(-self.sign, self.logmag)

    def __add__(self, other: "SignedLog") -> "SignedLog":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        big, small = (self, other) if self.logmag >= other.logmag else (other, self)
        d = small.logmag - big.logmag  # <= 0
        if self.sign == other.sign:
            return SignedLog(big.sign, big.logmag + math.log1p(math.exp(d)))
        if d == 0.0:
            return SLOG_ZERO
        return SignedLog(big.sign, big.logmag + math.log(-math.expm1(d)))

    def __sub__(self, other: "SignedLog") -> "SignedLog":
        return self + (-other)


SLOG_ZERO = SignedLog(0)
SLOG_ONE = SignedLog(1, 0.0)


def slog_pow(base: float, exponent: int) -> SignedLog:
    """base**exponent with integer exponent, sign tracked by parity; 0**0 = 1."""
    if exponent < 0:
        raise ValueError("negative exponents are not used here")
    if exponent == 0:
        return SLOG_ONE
    if base == 0.0:
        return SLOG_ZERO
    sign = 1 if (base > 0.0 or exponent % 2 == 0) else -1
    return SignedLog(sign, exponent * math.log(abs(base)))


def slog_sum(values) -> SignedLog:
    """Sum in a fixed left-to-right order (callers fix the canonical order)."""
    acc = SLOG_ZERO
    for v in values:
        acc = acc + v
    return acc
