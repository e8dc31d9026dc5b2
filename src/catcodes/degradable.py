"""Degradability testing for small channels.

A channel N with complementary channel N^C is degradable when some completely
positive trace-preserving map D satisfies D(N(rho)) = N^C(rho).  In the
matrix-unit basis this is the linear system N D = N^C; the solver finds the
least-squares D and the verdict checks the residual together with positivity
of D's Choi matrix.  A strictly negative Choi eigenvalue with a tiny residual
certifies non-degradability only when N D = N^C has one solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import PauliChannel

RESIDUAL_TOL = 1e-8
PSD_TOL = -1e-8
CONDITION_LIMIT = 1e10
TRACE_TOL = 1e-10
# Distance inside the symmetric-extension boundary that `antidegradable`
# demands, far above the rounding of its closed form (~1e-16), so a channel
# on or within rounding of the boundary is never certified.
ANTIDEGRADABLE_MARGIN = 1e-9

# I, X, Y, Z stacked in the order of `PauliChannel.probs`.
PAULIS = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


class MalformedMapError(ValueError):
    """A map expected to be Hermiticity-preserving is not."""


@dataclass(frozen=True)
class KrausSet:
    """Kraus operators of a channel, stacked as one (n, dim_out, dim_in) array."""

    ops: np.ndarray
    dim_in: int
    dim_out: int

    @staticmethod
    def from_matrices(ops) -> "KrausSet":
        try:
            mats = np.asarray(ops, dtype=complex)
        except ValueError:  # a ragged list of operators
            raise ValueError("Kraus operators must share one shape") from None
        if not mats.size:
            raise ValueError("a Kraus set needs at least one operator")
        if mats.ndim != 3:
            raise ValueError("Kraus operators must share one shape")
        k = KrausSet(mats, mats.shape[2], mats.shape[1])
        res = k.trace_preservation_residual()
        if res > TRACE_TOL:
            raise ValueError(f"Kraus set is not trace preserving (residual {res})")
        return k

    def trace_preservation_residual(self) -> float:
        acc = (self.ops.conj().transpose(0, 2, 1) @ self.ops).sum(axis=0)
        return float(np.linalg.norm(acc - np.eye(self.dim_in)))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return (self.ops @ rho @ self.ops.conj().transpose(0, 2, 1)).sum(axis=0)


@dataclass(frozen=True)
class ChannelMatrixRep:
    """Matrix of a map on operator spaces in the matrix-unit basis.

    Row index (i, j) is the input unit |i><j|, column index (k, l) the output
    coefficient on |k><l|; both flattened row-major, so composition D after N
    is the matrix product N @ D.
    """

    matrix: np.ndarray
    dim_in: int
    dim_out: int

    def apply(self, rho: np.ndarray) -> np.ndarray:
        vec = np.asarray(rho, dtype=complex).reshape(-1)
        return (vec @ self.matrix).reshape(self.dim_out, self.dim_out)


def kraus_from_pauli(ch: PauliChannel) -> KrausSet:
    """Kraus operators sqrt(p_k) sigma_k, zero-probability operators omitted."""
    probs = np.array(ch.probs)
    keep = probs > 0.0
    return KrausSet.from_matrices(np.sqrt(probs[keep])[:, None, None] * PAULIS[keep])


def natural_rep(k: KrausSet) -> ChannelMatrixRep:
    """Matrix-unit-basis matrix of the channel: M[ij, kl] = sum_K K[k,i] conj(K[l,j])."""
    # N(|i><j|) = K |i><j| K^dag has (k, l) coefficient K[k,i] conj(K[l,j]);
    # the sum adds the operators' terms in order.
    terms = np.einsum("nki,nlj->nijkl", k.ops, k.ops.conj())
    return ChannelMatrixRep(terms.sum(axis=0).reshape(k.dim_in**2, k.dim_out**2), k.dim_in, k.dim_out)


def complementary(k: KrausSet) -> KrausSet:
    """Complementary channel to the environment, via the Stinespring isometry.

    With U = sum_k E_k (x) |k>_E, tracing out the original output leaves Kraus
    operators F_j with F_j[k, i] = E_k[j, i]; the environment dimension equals
    the number of Kraus operators and its basis is ordered by Kraus index.
    """
    return KrausSet.from_matrices(k.ops.transpose(1, 0, 2))


def _least_squares(n_rep: ChannelMatrixRep, nc_rep: ChannelMatrixRep):
    """`solve_degrading`'s map and residual, and the singular values of N."""
    if n_rep.dim_in != nc_rep.dim_in:
        raise ValueError("N and N^C must share the input dimension")
    d_mat, _, _, singular = np.linalg.lstsq(n_rep.matrix, nc_rep.matrix, rcond=None)
    residual = float(np.linalg.norm(n_rep.matrix @ d_mat - nc_rep.matrix))
    return ChannelMatrixRep(d_mat, n_rep.dim_out, nc_rep.dim_out), residual, singular


def solve_degrading(n_rep: ChannelMatrixRep, nc_rep: ChannelMatrixRep):
    """Least-squares degrading map D and the residual ||N D - N^C||_F.

    The solution is unique when N has full column rank; otherwise (N singular,
    or wider than tall) it is one member of the affine solution family.
    """
    return _least_squares(n_rep, nc_rep)[:2]


def choi_of_map(rep: ChannelMatrixRep) -> np.ndarray:
    """Choi matrix C[(i,k),(j,l)] = D[(i,j),(k,l)], Hermitian for valid maps."""
    din, dout = rep.dim_in, rep.dim_out
    choi = (
        rep.matrix.reshape(din, din, dout, dout)
        .transpose(0, 2, 1, 3)
        .reshape(din * dout, din * dout)
    )
    herm_gap = float(np.linalg.norm(choi - choi.conj().T))
    if herm_gap > 1e-10:
        raise MalformedMapError(f"map is not Hermiticity preserving (gap {herm_gap})")
    return choi


@dataclass(frozen=True)
class DegradabilityVerdict:
    status: str  # "degradable", "not_degradable", or "inconclusive"
    residual: float
    min_choi_eigenvalue: float
    solved_map: Optional[ChannelMatrixRep]
    note: Optional[str] = None

    def to_record(self) -> dict:
        rec = {
            "status": self.status,
            "residual": self.residual,
            "min_choi_eigenvalue": self.min_choi_eigenvalue,
        }
        if self.note:
            rec["note"] = self.note
        if self.solved_map is not None:
            rec["solved_map"] = {
                "dim_in": self.solved_map.dim_in,
                "dim_out": self.solved_map.dim_out,
                "real": self.solved_map.matrix.real.tolist(),
                "imag": self.solved_map.matrix.imag.tolist(),
            }
        return rec


def degradability_verdict(k: KrausSet) -> DegradabilityVerdict:
    """Solve for the degrading map and classify the channel.

    A tiny residual with a PSD Choi matrix certifies degradability (the
    solved map is a witness even when it is not the only solution).  A large
    residual is also conclusive: least squares attains the global minimum of
    ||N D - N^C||, so a nonzero minimum means no map at all satisfies the
    degrading equation.  A non-PSD solved map is inconclusive unless N has
    full, well-conditioned column rank, since other members of the affine
    solution family were not examined.
    """
    n_rep = natural_rep(k)
    nc_rep = natural_rep(complementary(k))
    d_rep, residual, singular = _least_squares(n_rep, nc_rep)
    choi = choi_of_map(d_rep)
    min_eig = float(np.linalg.eigvalsh(choi)[0])
    # One solution: full column rank (a wide N has fewer singular values than columns)
    # and cond(N) < CONDITION_LIMIT, without dividing by a zero singular value.
    unique = len(singular) == n_rep.matrix.shape[1] and singular[0] < CONDITION_LIMIT * singular[-1]
    solvable = residual <= RESIDUAL_TOL * max(1.0, float(np.linalg.norm(nc_rep.matrix)))
    if solvable and min_eig >= PSD_TOL:
        status, note = "degradable", None
    elif not solvable:
        status = "not_degradable"
        note = "the degrading equation N D = N^C has no solution"
    elif unique:
        status, note = "not_degradable", None
    else:
        status = "inconclusive"
        note = "N D = N^C has no unique solution; the least-squares map is one of an affine family"
    return DegradabilityVerdict(status, residual, min_eig, d_rep, note)


def antidegradable(ch: PauliChannel) -> bool:
    """True when the Pauli channel is certified antidegradable, so its quantum
    capacity, and with it every code rate on it, is at most 0.

    A Pauli channel is antidegradable iff its Bell-diagonal Choi state has a
    symmetric extension, which for two qubits holds iff
    sum p_k^2 - 4 sqrt(prod p_k) <= 1/2 (Myhr & Lütkenhaus, PRA 79, 062307,
    2009; Chen, Ji, Kribs, Lütkenhaus & Zeng, PRA 90, 032318, 2014).  The
    test demands `ANTIDEGRADABLE_MARGIN` of slack, so False is not a verdict:
    it only means the channel is not certified.
    """
    probs = ch.probs
    gap = sum(p * p for p in probs) - 4.0 * math.sqrt(math.prod(probs))
    return gap <= 0.5 - ANTIDEGRADABLE_MARGIN
