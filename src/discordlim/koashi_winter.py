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
    RANK_TOL,
    DensityMatrix,
    StateVector,
    _bipartite_dims,
    _purification,
    binary_entropy,
    entropy_of_spectrum,
    hermitianize,
)

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y).real


def example_branches(theta: float) -> tuple[StateVector, StateVector]:
    """The two apparatus branch states with overlap sin(2 theta)."""
    psi, phi = _branch_vectors(theta)
    return StateVector(psi, (2,)), StateVector(phi, (2,))


def _branch_vectors(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The branch states as raw complex vectors (cos, sin) and (sin, cos),
    at the checked angle."""
    theta = _check_theta(theta)
    c, s = np.cos(theta), np.sin(theta)
    return np.array([c, s], dtype=complex), np.array([s, c], dtype=complex)


# Angles within THETA_SLACK of [0, pi/4] count as inside it: pi/4 is a
# rounded float, and an angle given in units of pi is rounded once more.
THETA_SLACK = 1e-12


def _check_theta(theta: float) -> float:
    """The angle clamped to [0, pi/4], so that a negative branch overlap
    never reaches the family; raises outside THETA_SLACK of that range."""
    if not -THETA_SLACK <= theta <= np.pi / 4 + THETA_SLACK:
        raise ValueError(f"theta={theta} outside [0, pi/4]")
    return min(max(theta, 0.0), np.pi / 4)


def example_state(theta: float) -> DensityMatrix:
    """Equal mixture of |0><0| x |psi><psi| and |1><1| x |phi><phi| on
    system x apparatus; rank <= 2."""
    return DensityMatrix(_flagged_mixture(*_branch_vectors(theta)), (2, 2))


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
    eigenvalues of rho (sy x sy) rho* (sy x sy). Any rank."""
    if rho.dims != (2, 2):
        raise ValueError("concurrence is defined here for two qubits only")
    vals, vecs = np.linalg.eigh(rho.mat)
    return _concurrence(vecs * np.sqrt(np.clip(vals, 0.0, None)))


def _concurrence(w: np.ndarray) -> float:
    s = np.linalg.svd(w.T @ _YY @ w, compute_uv=False)
    return float(max(0.0, s[0] - s[1:].sum()))


def entanglement_of_formation(rho: DensityMatrix) -> float:
    """Two-qubit entanglement of formation from the concurrence, in bits."""
    return _formation(concurrence(rho))


def _formation(c: float) -> float:
    return binary_entropy((1.0 + np.sqrt(max(0.0, (1.0 - c) * (1.0 + c)))) / 2.0)


def classical_correlation_kw(rho: DensityMatrix) -> float:
    """I^c = S(rho^S) - E_F(rho^SC) with C the purifying system.

    Requires a qubit system and rank <= 2 (eigenvalues above RANK_TOL) so
    that C is (at most) a qubit.
    """
    if _bipartite_dims(rho.dims)[0] != 2:
        raise ValueError("the system factor must be a qubit")
    return _kw(rho.mat, rho.dims)


def _kw(mat: np.ndarray, dims: tuple[int, int]) -> float:
    """The KW route on a raw qubit x apparatus matrix; raises if its rank
    exceeds 2."""
    d_s, d_a = dims
    # The purification keeps exactly the eigenvalues that count toward the
    # rank, so its ancilla dimension is the checked rank.
    psi, rank = _purification(mat)
    if rank > 2:
        raise ValueError(f"state rank exceeds 2 (eigenvalues above {RANK_TOL}); "
                         "purifying system is not a qubit")
    rho_s = np.trace(mat.reshape(d_s, d_a, d_s, d_a), axis1=1, axis2=3)
    s_s = entropy_of_spectrum(np.linalg.eigvalsh(hermitianize(rho_s)))
    if rank == 1:
        # Pure input: purifying system is trivial and E_F vanishes.
        return s_s
    # Column a is w_a = (1 x <a|_A)|Psi> over S x C, so rho^SC = w w^dagger.
    w = psi.reshape(d_s, d_a, rank).transpose(0, 2, 1).reshape(d_s * rank, d_a)
    return s_s - _formation(_concurrence(w))
