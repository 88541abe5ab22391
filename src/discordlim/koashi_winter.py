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
    hermitian_eigensystem,
    hermitianize,
    partial_trace,
    purify,
    tensor,
    von_neumann_entropy,
)

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def example_branches(theta: float) -> tuple[StateVector, StateVector]:
    """The two apparatus branch states with overlap sin(2 theta)."""
    _check_theta(theta)
    psi = StateVector(np.array([np.cos(theta), np.sin(theta)]), (2,))
    phi = StateVector(np.array([np.sin(theta), np.cos(theta)]), (2,))
    return psi, phi


def _check_theta(theta: float):
    if not -1e-12 <= theta <= np.pi / 4 + 1e-12:
        raise ValueError(f"theta={theta} outside [0, pi/4]")


def example_state(theta: float) -> DensityMatrix:
    """Equal mixture of |0><0| x |psi><psi| and |1><1| x |phi><phi| on
    system x apparatus; rank <= 2."""
    psi, phi = example_branches(theta)
    p0 = np.diag([1.0, 0.0])
    p1 = np.diag([0.0, 1.0])
    mat = 0.5 * tensor(p0, psi.to_density().mat) + 0.5 * tensor(p1, phi.to_density().mat)
    return DensityMatrix(mat, (2, 2))


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = hermitian_eigensystem(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence, via the Hermitian form
    sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho)."""
    if rho.dim != 4:
        raise ValueError("concurrence is defined here for two qubits only")
    rt = _psd_sqrt(rho.mat)
    m = hermitianize(rt @ _YY @ rho.mat.conj() @ _YY @ rt)
    vals = np.linalg.eigvalsh(m)[::-1]
    # The square root amplifies eigenvalue noise (~1e-16) to ~1e-8; treat
    # anything below 1e-14 as an exact zero.
    vals[vals < 1e-14] = 0.0
    lam = np.sqrt(vals)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def entanglement_of_formation(rho: DensityMatrix) -> float:
    """Two-qubit entanglement of formation from the concurrence, in bits."""
    c = concurrence(rho)
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
    s_s = von_neumann_entropy(partial_trace(rho, [0]))
    if psi.dims[-1] == 1:
        # Pure input: purifying system is trivial and E_F vanishes.
        return s_s
    rho_sc = partial_trace(psi.to_density(), [0, 2])
    return s_s - entanglement_of_formation(rho_sc)
