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
    binary_entropy,
    hermitianize,
    partial_trace_mat,
    purify,
    von_neumann_entropy,
)

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y).real
_P0 = np.diag([1.0, 0.0])
_P1 = np.diag([0.0, 1.0])


def example_branches(theta: float) -> tuple[StateVector, StateVector]:
    """The two apparatus branch states with overlap sin(2 theta)."""
    _check_theta(theta)
    psi = StateVector(np.array([np.cos(theta), np.sin(theta)]), (2,))
    phi = StateVector(np.array([np.sin(theta), np.cos(theta)]), (2,))
    return psi, phi


# Angles within THETA_SLACK of [0, pi/4] count as inside it: pi/4 is a
# rounded float, and an angle given in units of pi is rounded once more.
THETA_SLACK = 1e-12


def _check_theta(theta: float):
    if not -THETA_SLACK <= theta <= np.pi / 4 + THETA_SLACK:
        raise ValueError(f"theta={theta} outside [0, pi/4]")


def example_state(theta: float) -> DensityMatrix:
    """Equal mixture of |0><0| x |psi><psi| and |1><1| x |phi><phi| on
    system x apparatus; rank <= 2."""
    psi, phi = example_branches(theta)
    return DensityMatrix(_flagged_mixture(psi.vec, phi.vec), (2, 2))


def _flagged_mixture(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """1/2 |0><0| x |a><a| + 1/2 |1><1| x |b><b|, as a raw matrix."""
    return 0.5 * np.kron(_P0, np.outer(a, a.conj())) + 0.5 * np.kron(_P1, np.outer(b, b.conj()))


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence (Wootters, PRL 80, 2245 (1998)): with
    rho = w w^dagger, C = max(0, s_1 - s_2 - ...) over the singular values
    s of tau = w^T (sy x sy) w, which are the square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy). Any rank."""
    if rho.dim != 4:
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
    if len(rho.dims) != 2:
        raise ValueError(f"expected a bipartite layout, got dims {rho.dims}")
    if rho.dims[0] != 2:
        raise ValueError("the system factor must be a qubit")
    # The purification keeps exactly the eigenvalues that count toward the
    # rank, so its ancilla dimension is the checked rank.
    psi = purify(rho)
    if psi.dims[-1] > 2:
        raise ValueError(f"state rank exceeds 2 (eigenvalues above {RANK_TOL}); "
                         "purifying system is not a qubit")
    s_s = von_neumann_entropy(hermitianize(partial_trace_mat(rho.mat, rho.dims, [0])[0]))
    if psi.dims[-1] == 1:
        # Pure input: purifying system is trivial and E_F vanishes.
        return s_s
    # Column a is w_a = (1 x <a|_A)|Psi> over S x C, so rho^SC = w w^dagger.
    w = psi.vec.reshape(psi.dims).transpose(0, 2, 1).reshape(4, rho.dims[1])
    return s_s - _formation(_concurrence(w))
