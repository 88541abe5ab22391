"""Closed-form route to the classical-communication limit for rank-2
states (Koashi & Winter, PRA 69, 022309 (2004)): purify onto a qubit C and
subtract the two-qubit entanglement of formation of rho^SC from the system
entropy. The concurrence is Wootters' tau form (PRL 80, 2245 (1998)), read
from a factor w of rho^SC = w w^dagger; for rank 2 the columns of w come
straight off the purification.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    ENTROPY_CLIP,
    DensityMatrix,
    StateVector,
    _as_real,
    _bipartite_dims,
    _expect,
    _purification,
    entropy_of_spectrum,
)

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y).real


def example_branches(theta: float) -> tuple[StateVector, StateVector]:
    """The two apparatus branch states with overlap sin(2 theta)."""
    psi, phi = _branch_vectors(_check_theta(theta))
    return StateVector(psi, (2,)), StateVector(phi, (2,))


def _branch_vectors(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The branch states as raw complex vectors (cos, sin) and (sin, cos),
    at an angle the caller has checked."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([c, s], dtype=complex), np.array([s, c], dtype=complex)


def _check_theta(theta: float) -> float:
    """The angle clamped to [0, pi/4], so that a negative branch overlap
    never reaches the family. Angles within INPUT_TOL of that range count
    as inside it: pi/4 is a rounded float, and an angle given in units of
    pi is rounded once more. Raises on what `_as_real` refuses."""
    out = _as_real(theta, 0.0, np.pi / 4)
    if out is None:
        raise ValueError(f"theta={theta!r} outside [0, pi/4]")
    return out


def example_state(theta: float) -> DensityMatrix:
    """Equal mixture of |0><0| x |psi><psi| and |1><1| x |phi><phi| on
    system x apparatus; rank <= 2."""
    return DensityMatrix(_flagged_mixture(*_branch_vectors(_check_theta(theta))), (2, 2))


def _flagged_mixture(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1/2 |0><0| x |a><a| + 1/2 |1><1| x |b><b|, as a raw matrix: the
    two blocks on the diagonal of a zero matrix."""
    d = a.size
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = 0.5 * np.outer(a, a.conj())
    out[d:, d:] = 0.5 * np.outer(b, b.conj())
    return out


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence (Wootters, PRL 80, 2245 (1998)): with
    rho = w w^dagger, C = max(0, s_1 - s_2 - ...) over the singular values
    s of tau = w^T (sy x sy) w, which are the square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy). Any rank; w is the
    purification's factor, which drops eigenvalues at or below ENTROPY_CLIP,
    as `_kw` does."""
    _expect(rho, "rho", DensityMatrix)
    if rho.dims != (2, 2):
        raise ValueError("concurrence is defined here for two qubits only")
    psi, rank = _purification(rho.mat)
    return _concurrence(psi.reshape(4, rank))


def _concurrence(w: np.ndarray) -> float:
    s = np.linalg.svd(w.T @ _YY @ w, compute_uv=False)
    return float(max(0.0, s[0] - s[1:].sum()))


def entanglement_of_formation(rho: DensityMatrix) -> float:
    """Two-qubit entanglement of formation from the concurrence, in bits."""
    return _formation(concurrence(rho))


def _formation(c: float) -> float:
    """h(p) at p = (1 + sqrt(1 - c^2)) / 2, which lies in [1/2, 1]."""
    p = (1.0 + np.sqrt(max(0.0, (1.0 - c) * (1.0 + c)))) / 2.0
    return entropy_of_spectrum(np.array([p, 1.0 - p]))


def classical_correlation_kw(rho: DensityMatrix) -> float:
    """I^c = S(rho^S) - E_F(rho^SC) with C the purifying system.

    Requires a qubit system and rank <= 2 (eigenvalues above ENTROPY_CLIP,
    the ones the entropies count) so that C is (at most) a qubit.
    """
    _expect(rho, "rho", DensityMatrix)
    if _bipartite_dims(rho.dims)[0] != 2:
        raise ValueError("the system factor must be a qubit")
    return _kw(rho.mat, rho.dims, rho._marginals[0])


def _kw(mat: np.ndarray, dims: tuple[int, int], s_s: float) -> float:
    """The KW route on a raw qubit x apparatus matrix whose S(rho^S) is
    given, as a `DensityMatrix` keeps it: one eigensolve, the
    purification's. Raises if the rank exceeds 2."""
    d_s, d_a = dims
    # The purification keeps exactly the eigenvalues that count toward the
    # rank, so its ancilla dimension is the checked rank.
    psi, rank = _purification(mat)
    if rank > 2:
        raise ValueError(f"state rank exceeds 2 (eigenvalues above {ENTROPY_CLIP:.3g}); "
                         "purifying system is not a qubit")
    if rank == 1:
        # Pure input: purifying system is trivial and E_F vanishes.
        return s_s
    # Column a is w_a = (1 x <a|_A)|Psi> over S x C, so rho^SC = w w^dagger.
    w = psi.reshape(d_s, d_a, rank).transpose(0, 2, 1).reshape(d_s * rank, d_a)
    return s_s - _formation(_concurrence(w))
