"""Closed-form route to the classical-communication limit for rank-2
states: purify, reduce onto system + purifying qubit, and subtract the
two-qubit entanglement of formation from the system entropy.
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
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)
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


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence, via the Hermitian form
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho)."""
    if rho.dim != 4:
        raise ValueError("concurrence is defined here for two qubits only")
    return _concurrence(rho.mat)


def _concurrence(mat: np.ndarray) -> float:
    rt = _psd_sqrt(mat)
    m = hermitianize(rt @ _YY @ mat.conj() @ _YY @ rt)
    vals = np.linalg.eigvalsh(m)[::-1]
    # The square root amplifies eigenvalue noise (~1e-16) to ~1e-8; treat
    # anything below 1e-14 as an exact zero.
    vals[vals < 1e-14] = 0.0
    lam = np.sqrt(vals)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def entanglement_of_formation(rho: DensityMatrix) -> float:
    """Two-qubit entanglement of formation from the concurrence, in bits."""
    return _formation(concurrence(rho))


def _formation(c: float) -> float:
    return binary_entropy((1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


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
    rho_sc, _ = partial_trace_mat(np.outer(psi.vec, psi.vec.conj()), psi.dims, [0, 2])
    return s_s - _formation(_concurrence(hermitianize(rho_sc)))
