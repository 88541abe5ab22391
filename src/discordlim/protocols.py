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
`_flagged_mixture` and `_kw`, and `_clone` and `_cloned_info` here), so it
builds no `DensityMatrix` or `StateVector` and checks none of the angles
it computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import _branch_states, accessible_information
from .koashi_winter import _branch_vectors, _check_theta, _flagged_mixture, _kw
from .linalg import (
    ENTROPY_CLIP,
    INPUT_TOL,
    BroadcastIsometry,
    DensityMatrix,
    Povm,
    StateVector,
    _as_dims,
    _bipartite_dims,
    _expect,
    _norm,
    _reduce,
    entropy_of_spectrum,
    hermitianize,
    random_isometry_mat,
)

CROSSOVER_BRACKET = (0.05 * np.pi, 0.15 * np.pi)
CROSSOVER_TOL = 1e-6


@dataclass(frozen=True)
class PreparedEnsembleChannel:
    """Measure the apparatus, then prepare a fixed state per outcome."""

    measurement: Povm
    prepared: tuple[DensityMatrix, ...]

    def __post_init__(self):
        try:
            prepared = tuple(self.prepared)
        except TypeError:  # None, or another non-sequence: no state per outcome
            prepared = ()
        object.__setattr__(self, "prepared", prepared)
        _expect(self.measurement, "measurement", Povm)
        for sigma in self.prepared:
            _expect(sigma, "prepared state", DensityMatrix)
        if len(self.measurement.elements) != len(self.prepared):
            raise ValueError("one prepared state per measurement outcome required")
        if len({sigma.dim for sigma in self.prepared}) > 1:
            raise ValueError("prepared states must share one dimension")


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
    _expect(rho, "rho", DensityMatrix)
    _expect(ch, "ch", PreparedEnsembleChannel)
    d_r = ch.prepared[0].dim
    branches = _branch_states(rho, ch.measurement.elements)
    sigmas = np.array([sigma.mat for sigma in ch.prepared])
    d = rho.dims[0] * d_r
    out = np.einsum("nij,nkl->ikjl", branches, sigmas).reshape(d, d)
    return DensityMatrix(out, (rho.dims[0], d_r))


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
    _expect(psi, "psi", StateVector)
    _expect(phi, "phi", StateVector)
    if psi.dim != 2 or phi.dim != 2:
        raise ValueError("cloner inputs must be qubits")
    s = np.vdot(psi.vec, phi.vec)
    if abs(s.imag) > INPUT_TOL or s.real < -INPUT_TOL:
        raise ValueError("cloner requires a real nonnegative input overlap")
    alpha, beta = _clone(psi.vec, phi.vec)
    fid = 0.5 * (abs(np.vdot(alpha, np.kron(psi.vec, psi.vec))) ** 2
                 + abs(np.vdot(beta, np.kron(phi.vec, phi.vec))) ** 2)
    return ClonerOutput(StateVector(alpha, (2, 2)), StateVector(beta, (2, 2)), float(fid))


def _clone(psi: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cloner on raw qubit vectors whose overlap the caller has
    checked: (alpha, beta). e1 and e2 are the unit bisector and difference
    of |psi psi> and |phi phi>; a difference of norm at most ENTROPY_CLIP
    is rounding, and the inputs are one state."""
    s = min(max(0.0, np.vdot(psi, phi).real), 1.0)
    pp = (psi[:, None] * psi).ravel()
    ff = (phi[:, None] * phi).ravel()
    diff = pp - ff
    nd = _norm(diff)
    if nd <= ENTROPY_CLIP:
        return pp, pp  # identical inputs: perfect cloning
    e1 = (pp + ff) / _norm(pp + ff)
    e2 = diff / nd
    half = np.arccos(s) / 2
    c, sn = np.cos(half), np.sin(half)
    return c * e1 + sn * e2, c * e1 - sn * e2


def cloning_recipient_info(theta: float) -> float:
    """I(S:R1) (= I(S:R2) by symmetry) after cloning the branch states of
    the example family to two recipients."""
    return _cloned_info(*_branch_vectors(_check_theta(theta)))


def _cloned_info(psi: np.ndarray, phi: np.ndarray) -> float:
    """`cloning_recipient_info` on raw branch vectors. rho^{S R1} is block
    diagonal in the system flag, with blocks Tr_R2 |alpha><alpha| / 2 and
    Tr_R2 |beta><beta| / 2, so one `eigvalsh` of three 2x2 matrices gives
    its spectrum, the sorted union of the blocks' spectra, and that of
    rho^R1, their sum. rho^S is diagonal, with the blocks' traces: its
    spectrum is their sorted real parts, `eigvalsh`'s bits."""
    v = np.array(_clone(psi, phi)).reshape(2, 2, 1, 2)  # (output, R1, 1, R2)
    blocks = (0.5 * (v * v.conj().swapaxes(1, 2))).sum(axis=-1)
    vals = np.linalg.eigvalsh(np.concatenate([blocks, hermitianize(blocks.sum(axis=0))[None]]))
    s_s = entropy_of_spectrum(np.sort(blocks.trace(axis1=1, axis2=2).real))
    return s_s + entropy_of_spectrum(vals[2]) - entropy_of_spectrum(np.sort(vals[:2], axis=None))


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
    psi, phi = _branch_vectors(theta)
    mat = _flagged_mixture(psi, phi)
    # rho^S is diagonal, with the blocks' traces, as in `_cloned_info`.
    s_s = entropy_of_spectrum(np.sort(mat.diagonal().real.reshape(2, 2).sum(axis=1)))
    return _kw(mat, (2, 2), s_s) - _cloned_info(psi, phi)


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
    return BroadcastIsometry(np.eye(4)[:, [0, 3]], (2, 2), 1)


def random_broadcast_isometry(d_in: int, recipient_dims, ancilla_dim: int,
                              seed: int) -> BroadcastIsometry:
    dims = _as_dims(recipient_dims, "recipient dims") + _as_dims((ancilla_dim,), "ancilla dim")
    return BroadcastIsometry(random_isometry_mat(d_in, math.prod(dims), seed), dims[:-1], dims[-1])


def apply_broadcast(state: DensityMatrix | StateVector, iso: BroadcastIsometry) -> DensityMatrix:
    """Send the apparatus factor through the isometry and discard the
    ancilla; output is over system x recipients."""
    _expect(state, "state", DensityMatrix, StateVector)
    _expect(iso, "iso", BroadcastIsometry)
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
    return DensityMatrix(red, (d_s,) + iso.recipient_dims)


def recipient_infos(rho: DensityMatrix) -> list[float]:
    """I(S:R_i) for each recipient factor of a system x recipients state:
    the marginals by `linalg._reduce`, then one stacked `eigvalsh` and one
    `entropy_of_spectrum` per matrix shape. Equals `mutual_information` bit
    for bit on a bipartite state."""
    _expect(rho, "rho", DensityMatrix)
    mat, dims, d_s, n = rho.mat, rho.dims, rho.dims[0], len(rho.dims)
    if n < 2:
        raise ValueError(f"expected a system and at least one recipient, got dims {dims}")
    pairs = [_reduce(mat, dims, (0, i)) for i in range(1, n)]
    mats = ([mat.reshape(d_s, -1, d_s, mat.shape[0] // d_s).trace(axis1=1, axis2=3)] + pairs
            + [p.reshape(d_s, d, d_s, d).trace(axis1=0, axis2=2) for p, d in zip(pairs, dims[1:])])
    s = np.empty(len(mats))
    for size in {len(m) for m in mats}:
        idx = [k for k, m in enumerate(mats) if len(m) == size]
        vals = np.linalg.eigvalsh(np.array([mats[k] for k in idx]))
        s[idx] = entropy_of_spectrum(vals)
    return [float(s[0] + s_r - s_sr) for s_sr, s_r in zip(s[1:n], s[n:])]
