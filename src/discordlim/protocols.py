"""Communication protocols: measure-and-prepare (LOCC) transfer,
state-dependent cloning to two recipients, random broadcast isometries,
and the crossover angle where cloning starts to beat LOCC.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import Povm, _branch_states, _mutual_info
from .koashi_winter import (_flagged_mixture, classical_correlation_kw, example_branches,
                            example_state)
from .linalg import (
    ISOMETRY_TOL,
    DensityMatrix,
    StateVector,
    _fault,
    hermitianize,
    partial_trace_mat,
    random_isometry_mat,
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
class BroadcastIsometry:
    """Isometry from the apparatus into recipients x ancilla."""

    matrix: np.ndarray
    recipient_dims: tuple[int, ...]
    ancilla_dim: int

    def __post_init__(self):
        mat = np.ascontiguousarray(np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "recipient_dims", tuple(int(d) for d in self.recipient_dims))
        d_out = int(np.prod(self.recipient_dims)) * self.ancilla_dim
        if mat.shape[0] != d_out:
            raise ValueError(f"matrix rows {mat.shape[0]} do not match output dim {d_out}")
        # Non-finite entries leave a NaN residual, which fails the check.
        with np.errstate(invalid="ignore"):
            err = np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[1])))
        if not err <= ISOMETRY_TOL:
            raise ValueError(_fault(err, "matrix", "is not an isometry"))

    @property
    def d_in(self) -> int:
        return self.matrix.shape[1]


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
    out = _prepare(rho, ch.measurement, [sigma.mat for sigma in ch.prepared])
    return DensityMatrix(out, (rho.dims[0], d_r))


def _prepare(rho: DensityMatrix, m: Povm, prepared) -> np.ndarray:
    """sum_i Tr_A[(1 x E_i) rho] x sigma_i for raw sigma_i, as a raw matrix."""
    d = rho.dims[0] * prepared[0].shape[0]
    out = np.zeros((d, d), dtype=complex)
    for b, sigma in zip(_branch_states(rho, m.elements), prepared):
        out += np.kron(b, sigma)
    return hermitianize(out)


def locc_transfer_info(rho: DensityMatrix, m: Povm) -> float:
    """I(S:R) after the optimal LOCC relay: measure with m, prepare
    orthonormal pure flag states."""
    k = len(m.elements)
    out = _prepare(rho, m, [np.diag(e) for e in np.eye(k)])
    return _mutual_info(out.reshape(rho.dims[0], k, rho.dims[0], k))


def _cloner_plane(psi: StateVector, phi: StateVector):
    """Orthonormal basis (bisector, difference) of span{|psi psi>, |phi phi>}
    plus the in-plane angles of the target products."""
    pp = np.kron(psi.vec, psi.vec)
    ff = np.kron(phi.vec, phi.vec)
    s2 = np.vdot(pp, ff)
    if abs(s2.imag) > OVERLAP_TOL:
        raise ValueError("cloner requires a real overlap between the inputs")
    e1 = pp + ff
    e1 = e1 / np.linalg.norm(e1)
    diff = pp - ff
    nd = np.linalg.norm(diff)
    if nd < IDENTICAL_INPUTS_TOL:
        return pp, ff, e1, None, 0.0
    e2 = diff / nd
    omega_big = np.arccos(np.clip(s2.real, -1.0, 1.0))
    return pp, ff, e1, e2, omega_big


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
    s = max(0.0, s.real)
    pp, ff, e1, e2, omega_big = _cloner_plane(psi, phi)
    if e2 is None:
        # Identical inputs: perfect cloning.
        out = StateVector(pp, (2, 2))
        return ClonerOutput(out, out, 1.0)
    omega = np.arccos(np.clip(s, -1.0, 1.0))
    alpha = np.cos(omega / 2) * e1 + np.sin(omega / 2) * e2
    beta = np.cos(omega / 2) * e1 - np.sin(omega / 2) * e2
    fid = 0.5 * (abs(np.vdot(alpha, pp)) ** 2 + abs(np.vdot(beta, ff)) ** 2)
    return ClonerOutput(StateVector(alpha, (2, 2)), StateVector(beta, (2, 2)), float(fid))


def cloning_recipient_info(theta: float) -> float:
    """I(S:R1) (= I(S:R2) by symmetry) after cloning the branch states of
    the example family to two recipients."""
    psi, phi = example_branches(theta)
    out = optimal_state_dependent_cloner(psi, phi)
    mat = _flagged_mixture(out.alpha.vec, out.beta.vec)
    red, _ = partial_trace_mat(mat, (2, 2, 2), [0, 1])
    return _mutual_info(hermitianize(red).reshape(2, 2, 2, 2))


@dataclass(frozen=True)
class CrossoverResult:
    theta: float
    residual_bits: float
    tolerance_rad: float


def _locc_minus_cloning(theta: float) -> float:
    return classical_correlation_kw(example_state(theta)) - cloning_recipient_info(theta)


def find_crossover() -> CrossoverResult:
    """Bisect for the angle where cloning overtakes LOCC; positive gap
    below the root, negative above."""
    lo, hi = CROSSOVER_BRACKET
    if not _locc_minus_cloning(lo) > 0 > _locc_minus_cloning(hi):
        raise RuntimeError("no sign change in the crossover bracket")
    while hi - lo > CROSSOVER_TOL:
        mid = (lo + hi) / 2
        if _locc_minus_cloning(mid) > 0:
            lo = mid
        else:
            hi = mid
    root = (lo + hi) / 2
    return CrossoverResult(float(root), float(_locc_minus_cloning(root)), CROSSOVER_TOL)


def classical_copy_isometry() -> BroadcastIsometry:
    """Copy a qubit apparatus in the computational basis: |a> -> |aa>."""
    v = np.zeros((4, 2))
    v[0, 0] = 1.0
    v[3, 1] = 1.0
    return BroadcastIsometry(v, (2, 2), 1)


def random_broadcast_isometry(d_in: int, recipient_dims, ancilla_dim: int,
                              seed: int) -> BroadcastIsometry:
    recipient_dims = tuple(int(d) for d in recipient_dims)
    d_out = int(np.prod(recipient_dims)) * ancilla_dim
    return BroadcastIsometry(random_isometry_mat(d_in, d_out, seed), recipient_dims, ancilla_dim)


def apply_broadcast(state: DensityMatrix | StateVector, iso: BroadcastIsometry) -> DensityMatrix:
    """Send the apparatus factor through the isometry and discard the
    ancilla; output is over system x recipients."""
    dims = state.dims
    if len(dims) != 2:
        raise ValueError(f"expected a bipartite layout, got dims {dims}")
    d_s, d_a = dims
    if iso.d_in != d_a:
        raise ValueError("isometry input does not match the apparatus dimension")
    w = np.kron(np.eye(d_s), iso.matrix)
    if isinstance(state, StateVector):
        vec = w @ state.vec
        full = np.outer(vec, vec.conj())
    else:
        full = w @ state.mat @ w.conj().T
    out_dims = (d_s,) + iso.recipient_dims + (iso.ancilla_dim,)
    keep = list(range(len(out_dims) - 1))
    red, kept = partial_trace_mat(full, out_dims, keep)
    return DensityMatrix(hermitianize(red), kept)


def recipient_infos(rho: DensityMatrix) -> list[float]:
    """I(S:R_i) for each recipient factor of a system x recipients state."""
    infos = []
    for i in range(1, len(rho.dims)):
        red, kept = partial_trace_mat(rho.mat, rho.dims, [0, i])
        infos.append(_mutual_info(hermitianize(red).reshape(kept + kept)))
    return infos
