"""Communication protocols: measure-and-prepare (LOCC) transfer,
state-dependent cloning to two recipients, random broadcast isometries,
and the crossover angle theta' where the global-fidelity cloner overtakes
LOCC on the example family.

theta' is this cloner's crossover, not the angle where quantum
communication starts to beat LOCC: a numerical search found a 2 -> 4
broadcast isometry that gives both recipients more than I^c at
0.24 rad (~0.0764 pi), below theta' (~0.0931 pi).

The family's public functions validate their arguments and results; the
crossover search runs on their raw cores (`koashi_winter._branch_vectors`,
`_flagged_mixture` and `_kw`, and `_clone` here), so it builds no
`DensityMatrix` or `StateVector`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import _branch_states, _mutual_info, accessible_information
from .koashi_winter import _branch_vectors, _flagged_mixture, _kw
from .linalg import (
    BroadcastIsometry,
    DensityMatrix,
    Povm,
    StateVector,
    _as_dims,
    _bipartite_dims,
    _contract,
    hermitianize,
    random_isometry_mat,
    von_neumann_entropies,
)

CROSSOVER_BRACKET = (0.05 * np.pi, 0.15 * np.pi)
CROSSOVER_TOL = 1e-6
# An input overlap must be real and nonnegative; a residue this small is rounding.
OVERLAP_TOL = 1e-10
# |psi psi> and |phi phi> closer than this are one input: the cloner plane has one direction.
IDENTICAL_INPUTS_TOL = 1e-12


@dataclass(frozen=True)
class PreparedEnsembleChannel:
    """Measure the apparatus, then prepare a fixed state per outcome."""

    measurement: Povm
    prepared: tuple[DensityMatrix, ...]

    def __post_init__(self):
        if len(self.measurement.elements) != len(self.prepared):
            raise ValueError("one prepared state per measurement outcome required")


@dataclass(frozen=True)
class ClonerOutput:
    """Joint two-recipient outputs for the two inputs, with the global
    fidelity attained."""

    alpha: StateVector
    beta: StateVector
    fidelity: float


def measure_and_prepare(rho: DensityMatrix, ch: PreparedEnsembleChannel) -> DensityMatrix:
    """Apply the entanglement-breaking map
    sum_i Tr_A[(1 x E_i) rho] x sigma_i."""
    d_r = ch.prepared[0].dim
    if any(sigma.dim != d_r for sigma in ch.prepared):
        raise ValueError("prepared states must share one dimension")
    branches = _branch_states(rho, ch.measurement.elements)
    sigmas = np.array([sigma.mat for sigma in ch.prepared])
    d = rho.dims[0] * d_r
    out = np.einsum("nij,nkl->ikjl", branches, sigmas).reshape(d, d)
    return DensityMatrix(hermitianize(out), (rho.dims[0], d_r))


def locc_transfer_info(rho: DensityMatrix, m: Povm) -> float:
    """I(S:R) after the optimal LOCC relay: measure with m, prepare
    orthonormal pure flag states |i>. The relay state sum_i B_i x |i><i|
    is block diagonal in the flags, so its mutual information is
    S(rho^S) + H(p) - (H(p) + sum_i p_i S(B_i / p_i)), which is J(m)
    exactly."""
    return accessible_information(rho, m)


def optimal_state_dependent_cloner(psi: StateVector, phi: StateVector) -> ClonerOutput:
    """Symmetric state-dependent cloner for two qubit states with real
    nonnegative overlap s: outputs lie in span{|psi psi>, |phi phi>},
    keep mutual overlap s, and sit symmetrically about the bisector,
    which maximizes the global fidelity
    F = (|<alpha|psi psi>|^2 + |<beta|phi phi>|^2) / 2."""
    if psi.dim != 2 or phi.dim != 2:
        raise ValueError("cloner inputs must be qubits")
    s = np.vdot(psi.vec, phi.vec)
    if abs(s.imag) > OVERLAP_TOL or s.real < -OVERLAP_TOL:
        raise ValueError("cloner requires a real nonnegative input overlap")
    alpha, beta, fid = _clone(psi.vec, phi.vec)
    return ClonerOutput(StateVector(alpha, (2, 2)), StateVector(beta, (2, 2)), fid)


def _clone(psi: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The cloner on raw qubit vectors whose overlap the caller has
    checked: (alpha, beta, global fidelity). e1 and e2 are the unit
    bisector and difference of |psi psi> and |phi phi>."""
    s = max(0.0, np.vdot(psi, phi).real)
    pp = np.outer(psi, psi).ravel()
    ff = np.outer(phi, phi).ravel()
    diff = pp - ff
    nd = np.linalg.norm(diff)
    if nd < IDENTICAL_INPUTS_TOL:
        # Identical inputs: perfect cloning.
        return pp, pp, 1.0
    e1 = (pp + ff) / np.linalg.norm(pp + ff)
    e2 = diff / nd
    omega = np.arccos(np.clip(s, -1.0, 1.0))
    alpha = np.cos(omega / 2) * e1 + np.sin(omega / 2) * e2
    beta = np.cos(omega / 2) * e1 - np.sin(omega / 2) * e2
    fid = 0.5 * (abs(np.vdot(alpha, pp)) ** 2 + abs(np.vdot(beta, ff)) ** 2)
    return alpha, beta, float(fid)


def cloning_recipient_info(theta: float) -> float:
    """I(S:R1) (= I(S:R2) by symmetry) after cloning the branch states of
    the example family to two recipients."""
    alpha, beta, _ = _clone(*_branch_vectors(theta))
    # S x R1 x R2 as (S R1, R2) row and column axes; R2 is traced out.
    red = np.trace(_flagged_mixture(alpha, beta).reshape(4, 2, 4, 2), axis1=1, axis2=3)
    return _mutual_info(red.reshape(2, 2, 2, 2), np.linalg.eigvalsh(red))


@dataclass(frozen=True)
class CrossoverResult:
    """The crossover angle, the gap left there, the stop width, the gap
    evaluations made (the residual's included) and the final bracket,
    gap > 0 at its lower end and <= 0 at its upper end."""

    theta: float
    residual_bits: float
    tolerance_rad: float
    evaluations: int
    bracket: tuple[float, float]


def _locc_minus_cloning(theta: float) -> float:
    return _kw(_flagged_mixture(*_branch_vectors(theta)), (2, 2)) - cloning_recipient_info(theta)


def _false_position(lo: float, f_lo: float, hi: float, f_hi: float) -> float:
    """Zero of the chord through (lo, f_lo) and (hi, f_hi), or the midpoint
    when that zero is not strictly inside (lo, hi)."""
    x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
    return x if lo < x < hi else (lo + hi) / 2


def find_crossover() -> CrossoverResult:
    """Find the angle theta' where the global-fidelity cloner overtakes
    LOCC: the gap I^c_KW - I_clone is positive below the root and negative
    above it. It is not where quantum communication starts to win (see the
    module docstring). The Illinois false-position method (Dowell &
    Jarratt, BIT 11, 168 (1971)) shrinks the bracket until it is at most
    CROSSOVER_TOL wide: a chord step, with the gap value at an end halved
    for the chord when that end is kept twice in a row, so both ends
    converge. The root reported is the chord zero of the final bracket's
    gap values."""
    lo, hi = CROSSOVER_BRACKET
    f_lo, f_hi = _locc_minus_cloning(lo), _locc_minus_cloning(hi)
    evaluations = 2
    if not f_lo > 0 > f_hi:
        raise RuntimeError("no sign change in the crossover bracket")
    # Chord weights: the gap values, halved at an end kept twice in a row.
    w_lo, w_hi = f_lo, f_hi
    moved = None
    while hi - lo > CROSSOVER_TOL:
        x = _false_position(lo, w_lo, hi, w_hi)
        f = _locc_minus_cloning(x)
        evaluations += 1
        if f > 0:
            lo, f_lo, w_lo = x, f, f
            if moved == "lo":
                w_hi /= 2
            moved = "lo"
        else:
            hi, f_hi, w_hi = x, f, f
            if moved == "hi":
                w_lo /= 2
            moved = "hi"
    root = _false_position(lo, f_lo, hi, f_hi)
    return CrossoverResult(float(root), float(_locc_minus_cloning(root)), CROSSOVER_TOL,
                           evaluations + 1, (float(lo), float(hi)))


def classical_copy_isometry() -> BroadcastIsometry:
    """Copy a qubit apparatus in the computational basis: |a> -> |aa>."""
    v = np.zeros((4, 2))
    v[0, 0] = 1.0
    v[3, 1] = 1.0
    return BroadcastIsometry(v, (2, 2), 1)


def random_broadcast_isometry(d_in: int, recipient_dims, ancilla_dim: int,
                              seed: int) -> BroadcastIsometry:
    dims = _as_dims((*recipient_dims, ancilla_dim))
    return BroadcastIsometry(random_isometry_mat(d_in, math.prod(dims), seed), dims[:-1], dims[-1])


def apply_broadcast(state: DensityMatrix | StateVector, iso: BroadcastIsometry) -> DensityMatrix:
    """Send the apparatus factor through the isometry and discard the
    ancilla; output is over system x recipients."""
    d_s, d_a = _bipartite_dims(state.dims)
    if iso.d_in != d_a:
        raise ValueError("isometry input does not match the apparatus dimension")
    d_b = iso.ancilla_dim
    d = d_s * iso.matrix.shape[0] // d_b
    if isinstance(state, StateVector):
        # Amplitudes over (system x recipients, ancilla): the ancilla is
        # traced out by one product of them with their adjoint.
        amps = (state.vec.reshape(d_s, d_a) @ iso.matrix.T).reshape(d, d_b)
        red = amps @ amps.conj().T
    else:
        v = iso.matrix.reshape(-1, d_b, d_a)
        red = np.einsum("rba,sauc,qbc->sruq", v, state.mat.reshape(d_s, d_a, d_s, d_a),
                        v.conj()).reshape(d, d)
    return DensityMatrix(hermitianize(red), (d_s,) + iso.recipient_dims)


def recipient_infos(rho: DensityMatrix) -> list[float]:
    """I(S:R_i) for each recipient factor of a system x recipients state.
    S(rho^S) is taken once, and rho^S and the R_i and S R_i marginals go
    through one batched eigensolve per matrix size, 20-50% faster than
    `mutual_information` per recipient for 2-4 qubit recipients. On a
    bipartite state the two agree bit for bit (see `_mutual_info`)."""
    mat, dims = rho.mat, rho.dims
    d_s, n = dims[0], len(dims)
    rho_s = mat.reshape(d_s, -1, d_s, mat.shape[0] // d_s).trace(axis1=1, axis2=3)
    pairs = [_contract(mat, dims, [0, i]) for i in range(1, n)]
    singles = [p.trace(axis1=0, axis2=2) for p in pairs]
    joint = [p.reshape(d_s * p.shape[1], -1) for p in pairs]
    s_s, *s = von_neumann_entropies([rho_s, *singles, *joint])
    return [float(s_s + s_r - s_sr) for s_r, s_sr in zip(s[:n - 1], s[n - 1:])]
