"""Mutual information, accessible information, discord, and the
measurement optimizer giving the classical-communication limit.

Every J evaluation goes through one kernel, batched over measurements.
Measuring a qubit apparatus projectively along the unit vector n leaves
the unnormalized system branches B± = (rho^S ± sum_k n_k M_k) / 2 with
M_k = Tr_A[(1 x sigma_k) rho] (Luo, PRA 77, 042303 (2008); Ali, Rau &
Alber, PRA 81, 042105 (2010)), so a whole batch of directions costs one
eigenvalue pass: closed form for a qubit system, batched `eigvalsh`
otherwise. The optimizer evaluates J on a Fibonacci hemisphere
(J(n) = J(-n)) and refines the best cells together by a batched pattern
search; an optional mode also searches three-outcome rank-1 POVMs.

For a qubit system each round of that search has one more candidate per
start, the Riemannian Newton point of J. In the Bloch form of the state
the branch B+- has trace p+- = (1 +- b.n)/2 and Bloch vector
(a +- T n)/2, so J(n) and its first and second derivatives are closed
forms of two 2x2 spectra. For a larger system the derivatives of
sum_i p_i S(B_i / p_i) need the eigenvectors of every branch and divided
differences of the logarithm, and the search has no Newton candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ENTROPY_CLIP,
    LOG2,
    DensityMatrix,
    _fault,
    hermitianize,
    random_isometry_mat,
    von_neumann_entropy,
)

POVM_PSD_TOL = 1e-10
POVM_SUM_TOL = 1e-9
ZERO_PROB = 1e-12

# Directions of the hemisphere grid, the cells refined from it, and the
# pattern step (rad) at which a refinement stops; J is stationary at the
# optimum, so its error is of order the step squared. The search reached
# the optimum from as few as 32 grid directions on 1200 seeded Ginibre
# states; 256 leave a margin for narrower peaks at ~0.1 ms per call for a
# qubit system and ~0.7 ms for a qutrit.
GRID_POINTS = 256
REFINE_STARTS = 5
REFINE_STEP_TOL = 1e-8

# Nelder-Mead settings of the three-outcome POVM search.
THREE_OUTCOME_FTOL = 1e-10
THREE_OUTCOME_MAXITER = 500
# Smallest weight of a three-outcome candidate: below it an outcome is negative or never seen.
THREE_OUTCOME_MIN_WEIGHT = 1e-9

_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# Rows sigma_mu x sigma_nu, flattened: row 4 mu + nu dotted with the
# flattened transpose of a two-qubit rho gives Tr[(sigma_mu x sigma_nu) rho].
_PAULI_PAIRS = np.array([np.kron(a, b).ravel() for a in (np.eye(2), *_PAULI)
                         for b in (np.eye(2), *_PAULI)])


def _fibonacci_hemisphere(n: int) -> np.ndarray:
    """n nearly uniform unit vectors with z > 0, as an (n, 3) array."""
    k = np.arange(n) + 0.5
    z = 1.0 - k / n
    rad = np.sqrt(1.0 - z * z)
    phi = k * np.pi * (3.0 - np.sqrt(5.0))
    return np.stack([rad * np.cos(phi), rad * np.sin(phi), z], axis=1)


_GRID = _fibonacci_hemisphere(GRID_POINTS)
# A refinement starts at the grid spacing, the side of the hemisphere's
# area shared out over the grid.
_GRID_SPACING = np.sqrt(2 * np.pi / GRID_POINTS)
# The 3x3 pattern about a point, less the point itself.
_PATTERN = np.array([(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1) if a or b], dtype=float)
_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class Povm:
    """Finite measurement: PSD elements summing to the identity."""

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = tuple(np.ascontiguousarray(np.asarray(e, dtype=complex)) for e in self.elements)
        if not elems:
            raise ValueError("POVM needs at least one element")
        d = elems[0].shape[0]
        for e in elems:
            if e.shape != (d, d):
                raise ValueError("POVM elements must be square and same-sized")
        # The completeness residual is NaN for non-finite entries, so it is
        # checked before any eigensolver sees them.
        err = np.max(np.abs(sum(elems) - np.eye(d)))
        if not err <= POVM_SUM_TOL:
            raise ValueError(_fault(err, "POVM", "elements do not sum to the identity"))
        if not np.linalg.eigvalsh(hermitianize(np.array(elems)))[:, 0].min() >= -POVM_PSD_TOL:
            raise ValueError("POVM element is not PSD")
        object.__setattr__(self, "elements", elems)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


@dataclass(frozen=True)
class CorrelationReport:
    """I, I^c, discord, and the measurement attaining the optimum."""

    mutual_info: float
    classical_info: float
    discord: float
    measurement: Povm


def mutual_information(rho: DensityMatrix) -> float:
    """I(S:A) = S(rho^S) + S(rho^A) - S(rho^SA), in bits."""
    return _mutual_info(_bipartite(rho))


def _mutual_info(r: np.ndarray) -> float:
    """I(S:A) of a raw (d_s, d_a, d_s, d_a) state tensor: three entropies."""
    d = r.shape[0] * r.shape[1]
    s_s = von_neumann_entropy(hermitianize(np.trace(r, axis1=1, axis2=3)))
    s_a = von_neumann_entropy(hermitianize(np.trace(r, axis1=0, axis2=2)))
    return s_s + s_a - von_neumann_entropy(r.reshape(d, d))


def _bipartite(rho: DensityMatrix) -> np.ndarray:
    """rho as a (d_s, d_a, d_s, d_a) tensor."""
    if len(rho.dims) != 2:
        raise ValueError(f"expected a bipartite layout, got dims {rho.dims}")
    d_s, d_a = rho.dims
    return rho.mat.reshape(d_s, d_a, d_s, d_a)


def _branch_states(rho: DensityMatrix, elements) -> np.ndarray:
    """Unnormalized conditionals Tr_A[(1 x E_i) rho], as a (k, d_s, d_s)
    array."""
    r = _bipartite(rho)
    elems = np.asarray(elements, dtype=complex)
    if elems.shape[-1] != r.shape[1]:
        raise ValueError("POVM dimension does not match the apparatus")
    return np.einsum("iajb,nba->nij", r, elems)


def _spectra(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Traces of a stack of Hermitian matrices (lower triangles read), and
    the eigenvalues of their traceless parts, each eigenvalue minus the
    mean: closed form for 2x2, one batched `eigvalsh` otherwise. The
    deviations keep their relative precision as a matrix nears a multiple
    of the identity."""
    d = mats.shape[-1]
    diag = mats.diagonal(axis1=-2, axis2=-1).real
    if d == 2:
        a, c = diag.T
        return a + c, np.hypot((a - c) / 2, np.abs(mats[:, 1, 0]))[:, None] * _SIGNS
    tr = diag.sum(axis=-1)
    return tr, np.linalg.eigvalsh(mats - (tr / d)[:, None, None] * np.eye(d))


def _j_values(mats: np.ndarray, k: int) -> np.ndarray:
    """J = S(rho^S) - sum_i p_i S(B_i / p_i), in bits. mats[0] is rho^S and
    mats[1:] holds n groups of k unnormalized branches B_i, each group
    summing to rho^S; returns shape (n,).

    Computed as sum_i p_i D(B_i / p_i || 1/d) - D(rho^S || 1/d), each
    relative entropy to the maximally mixed state summed from eigenvalue
    deviations (`_spectra`). That equals the entropy difference, and keeps
    J's relative precision where the conditional states near 1/d, as they
    do for a nearly uncorrelated state. All matrices go through one
    eigenvalue pass.
    """
    d = mats.shape[-1]
    tr, dev = _spectra(mats)
    mean = tr[:, None] / d
    floor = ZERO_PROB / d
    ratio = dev / np.maximum(mean, floor)
    # log1p(ratio) = log(d * val / tr). A branch with p_i <= ZERO_PROB, and
    # eigenvalues at or below ENTROPY_CLIP of their matrix's trace,
    # contribute nothing, as in `entropy_of_spectrum` of B_i / p_i.
    keep = (ratio > d * ENTROPY_CLIP - 1) & (mean > floor)
    logs = np.log1p(ratio, out=np.zeros(dev.shape), where=keep)
    rel = ((mean + dev) * logs).sum(axis=1) / LOG2
    return rel[1:].reshape(-1, k).sum(axis=1) - rel[0]


def _projective_kernel(rho: DensityMatrix):
    """J along each row of an (N, 3) array of unit apparatus directions.
    rho^S and the M_k / 2 come from one branch contraction per state; the
    branches of direction n are rho^S / 2 +- sum_k n_k M_k / 2."""
    d = rho.dims[0]
    rho_s, *m = hermitianize(_branch_states(rho, (np.eye(2), *_PAULI)))
    half_m = (np.array(m) / 2).reshape(3, d * d)
    half_s = rho_s / 2

    def j_at(directions: np.ndarray) -> np.ndarray:
        nm = (directions @ half_m).reshape(-1, d, d)
        mats = np.empty((2 * len(nm) + 1, d, d), dtype=complex)
        mats[0] = rho_s
        np.add(half_s, nm, out=mats[1::2])
        np.subtract(half_s, nm, out=mats[2::2])
        return _j_values(mats, 2)

    return j_at


def _bloch_form(rho: DensityMatrix):
    """For a qubit system, (c, L) with c = (1, a) / 2 and L = (b; T) / 2
    from the state's Bloch data C[mu, nu] = Tr[(sigma_mu x sigma_nu) rho]:
    the branch B+- = (p 1 + v.sigma) / 2 of direction n has
    (p, v) = c +- L n. Returns (c, L^T); None for a larger system."""
    if rho.dims[0] != 2:
        return None
    coef = (_PAULI_PAIRS @ rho.mat.T.ravel()).real.reshape(4, 4)
    return coef[:, 0] / 2, coef[:, 1:].T / 2


def _chart_derivatives(bloch, starts: np.ndarray, tangent: np.ndarray):
    """derivs(x) -> (gradient, Hessian) of J ln 2 (J in nats) at the chart
    points x, (s, 2), of the charts n(x) = normalize(n0 + x_1 e_1 + x_2 e_2)
    of `_refine`, for a qubit system in the Bloch form `bloch`.

    The gradient is the chart's. The Hessian is the Riemannian one, the
    ambient Hessian on the tangent plane less (n . grad J), pulled back by
    the chart's differential; it equals the chart's Hessian wherever the
    gradient vanishes, which keeps Newton's step quadratic.

    J ln 2 = S(rho^S) ln 2 + sum_+- g(p, v) over the branches (p, v) of
    `_bloch_form`, with g = e(l_1) + e(l_2) - e(p), e(z) = z ln z and
    l = (p +- |v|) / 2 the branch's eigenvalues. With t = |v| / p its
    gradient is (ln(1 - t^2) / 2, artanh(t) v / |v|), up to a constant in
    p that cancels between the branches, and its Hessian is
    u q q^T + c (P - w w^T) with u = 1 / (p (1 - t^2)), q = (t, -v / |v|),
    w = (0, v / |v|), c = artanh(t) / |v| and P = diag(0, 1, 1, 1).
    Where a branch eigenvalue is at or below ENTROPY_CLIP of the branch's
    trace the kernel drops it and J is not smooth, so the result is NaN;
    derivs returns None when that holds for every branch, as it does for a
    pure state.
    """
    c0, lt = bloch
    l0, le = starts @ lt, tangent @ lt

    def derivs(x: np.ndarray):
        # mm = |n0 + x E|; ln = L n; y = (p, v) of the - and + branch.
        mm = np.sqrt(1 + np.add.reduce(x * x, 1))[:, None]
        ln = (l0 + (x[:, None] @ le)[:, 0]) / mm
        y = c0 + _SIGNS[:, None, None] * ln
        v = y[..., 1:]
        r = np.sqrt(np.add.reduce(v * v, -1))
        p = y[..., 0]
        t = r / p
        smooth = t < 1 - 2 * ENTROPY_CLIP
        if not smooth.any():
            return None
        t[~smooth] = np.nan
        en = x / mm
        # Rows 0-1: mm * dy+/dx, the tangent e_i - (e_i . n) n through L;
        # row 2: L n.
        a = np.empty((len(x), 3, 4))
        a[:, 2] = ln
        np.subtract(le, en[:, :, None] * ln[:, None, :], out=a[:, :2])
        c = np.arctanh(t) / r
        u = 1 / (p - r * t)
        # Each row of `a` dotted with v, then with the branch gradient of g;
        # the + branch moves with +a, the - branch with -a.
        d = (a[:, :, 1:] @ v[..., None])[..., 0]
        a0 = a[:, :, 0]
        g = np.log1p(-t * t)[..., None] / 2 * a0 + c[..., None] * d
        g = g[1] - g[0]
        # The tangent rows of `a` dotted with w and with q.
        w = (d / r[..., None])[..., :2]
        q = (t[..., None] * a0)[..., :2] - w
        h = (u[..., None] * q)[..., :, None] * q[..., None, :]
        h -= (c[..., None] * w)[..., :, None] * w[..., None, :]
        # c P projects through the v columns of `a`; the shift by n . grad J
        # (g[:, 2]) projects onto the tangent plane, I - en en^T.
        av = a[:, :2, 1:]
        h = (h[0] + h[1] + (c[0] + c[1])[:, None, None] * (av @ av.swapaxes(1, 2))
             - g[:, 2, None, None] * (np.eye(2) - en[:, :, None] * en[:, None, :]))
        return g[:, :2] / mm, h / (mm * mm)[:, :, None]

    return derivs


def _newton_moves(derivs, x: np.ndarray, live: np.ndarray):
    """Newton moves of J on the charts at x, for the starts still `live`:
    (moves, their lengths, which are usable), or None once no start is
    live or no branch is smooth. A start whose proposal is non-finite
    leaves `live`. A move is usable where the tangent Hessian is negative
    definite, so that it heads for a maximum; the others are zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        found = derivs(x)
        if found is not None:
            grad, hess = found
            det = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] ** 2
            move = (hess[:, 0, 1, None] * grad[:, ::-1]
                    - hess.diagonal(0, 1, 2)[:, ::-1] * grad) / det[:, None]
            live &= np.isfinite(move).all(axis=1)
            # The tangent step lands, through the chart, at x + move / (1 - k)
            # with k = x.move / (1 + |x|^2); for k > 1 that point is past the
            # chart's equator, and x + move / (1 - k) is its antipode, the
            # same measurement.
            move /= 1 - (np.add.reduce(x * move, 1, keepdims=True)
                         / (1 + np.add.reduce(x * x, 1, keepdims=True)))
            size = np.hypot(move[:, 0], move[:, 1])
            usable = live & (hess[:, 0, 0] < 0) & (det > 0) & (size < np.inf)
    if found is None or not live.any():
        return None
    move[~usable] = 0
    return move, size, usable


def _refine(j_at, starts: np.ndarray, j_starts: np.ndarray, bloch=None):
    """Pattern search of J from every start at once; returns the best
    (J, unit direction).

    Each round evaluates, in one kernel call, the 3x3 pattern of side
    `step` about every start's point on its tangent chart. A start moves
    to its best pattern point when that raises J, and else halves its
    step; the search ends once every step is at most REFINE_STEP_TOL.

    Given a qubit system's Bloch form, each start also proposes its Newton
    point of J (`_newton_moves`) in the same kernel call. When a start's
    usable Newton move wins, or no candidate raises its J, its step
    shrinks to at most the move's length; a start stops once no candidate
    raises its J and its Newton move is at most REFINE_STEP_TOL. A start
    whose proposal is non-finite, as at a pure branch, proposes no more.
    """
    s = len(starts)
    rows = np.arange(s)
    # Chart n(x) = normalize(n0 + x_1 e_1 + x_2 e_2); it covers the open
    # hemisphere about n0, which is every measurement since J(n) = J(-n).
    helper = np.eye(3)[np.argmin(np.abs(starts), axis=1)]
    e1 = helper - np.sum(helper * starts, axis=1, keepdims=True) * starts
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    tangent = np.stack([e1, np.cross(starts, e1)], axis=1)

    x = np.zeros((s, 2))
    j = j_starts.copy()
    step = np.full(s, _GRID_SPACING)
    derivs = None if bloch is None else _chart_derivatives(bloch, starts, tangent)
    live = np.ones(s, dtype=bool)
    while step.max() > REFINE_STEP_TOL:
        trial = x[:, None, :] + step[:, None, None] * _PATTERN
        proposal = None if derivs is None else _newton_moves(derivs, x, live)
        if proposal is None:
            derivs = None
        else:
            move, size, usable = proposal
            trial = np.concatenate([trial, (x + move)[:, None]], axis=1)
        dirs = starts[:, None, :] + trial @ tangent
        # np.linalg.norm's own sum, without its per-call overhead.
        dirs /= np.sqrt(np.add.reduce(dirs * dirs, axis=2, keepdims=True))
        jt = j_at(dirs.reshape(-1, 3)).reshape(s, -1)
        if proposal is not None:
            jt[~usable, -1] = -np.inf
        best = jt.argmax(axis=1)
        j_best = jt[rows, best]
        up = j_best > j
        x[up] = trial[rows, best][up]
        j[up] = j_best[up]
        step[~up] /= 2
        if proposal is not None:
            near = usable & (~up | (best == len(_PATTERN)))
            step[near] = np.minimum(step[near], size[near])
            step[~up & usable & (size <= REFINE_STEP_TOL)] = 0
    k = int(np.argmax(j))
    n = starts[k] + x[k] @ tangent[k]
    return float(j[k]), n / np.linalg.norm(n)


def accessible_information(rho: DensityMatrix, m: Povm) -> float:
    """J = S(rho^S) - sum_i p_i S(rho_i^S), in bits, for a POVM with any
    number of outcomes: one contraction gives rho^S and every branch, and
    `_j_values` takes all of them through one eigenvalue pass."""
    mats = _branch_states(rho, (np.eye(m.dim), *m.elements))
    return float(_j_values(mats, len(m.elements))[0])


def qubit_projective_povm(theta_m: float, phi_m: float) -> Povm:
    """Two-outcome projective measurement along the Bloch direction
    (theta_m, phi_m)."""
    v = np.array([np.cos(theta_m / 2), np.exp(1j * phi_m) * np.sin(theta_m / 2)])
    p = np.outer(v, v.conj())
    return Povm((p, np.eye(2) - p))


def random_povm(n_outcomes: int, seed: int, dim: int = 2) -> Povm:
    """Random rank-1 POVM from the rows of a Haar isometry."""
    if n_outcomes < dim:
        raise ValueError("rank-1 POVM needs at least dim outcomes")
    w = random_isometry_mat(dim, n_outcomes, seed)
    return Povm(tuple(np.outer(r.conj(), r) for r in w))


def _bloch_ket(m: np.ndarray) -> np.ndarray:
    theta = np.arccos(np.clip(m[2], -1.0, 1.0))
    phi = np.arctan2(m[1], m[0])
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def _three_outcome_elements(x: np.ndarray) -> list[np.ndarray] | None:
    """Coplanar three-direction rank-1 POVM from (plane angles, three
    in-plane angles); None when the weight system is infeasible."""
    pt, pf, a1, a2, a3 = x
    nhat = np.array([np.sin(pt) * np.cos(pf), np.sin(pt) * np.sin(pf), np.cos(pt)])
    e1 = np.array([np.cos(pt) * np.cos(pf), np.cos(pt) * np.sin(pf), -np.sin(pt)])
    e2 = np.cross(nhat, e1)
    angles = np.array([a1, a2, a3])
    a = np.vstack([np.ones(3), np.cos(angles), np.sin(angles)])
    try:
        w = np.linalg.solve(a, np.array([2.0, 0.0, 0.0]))
    except np.linalg.LinAlgError:
        return None
    if np.min(w) < THREE_OUTCOME_MIN_WEIGHT:
        return None
    elems = []
    for wi, ang in zip(w, angles):
        m = np.cos(ang) * e1 + np.sin(ang) * e2
        v = _bloch_ket(m)
        elems.append(wi * np.outer(v, v.conj()))
    return elems


def _refine_three_outcome(rho: DensityMatrix, proj_theta: float, proj_phi: float,
                          floor: float) -> tuple[float, Povm | None]:
    """Search three-outcome rank-1 POVMs near the optimal projective axis."""
    from scipy.optimize import minimize

    def neg_j(x):
        elems = _three_outcome_elements(x)
        if elems is None:
            return 1e6
        return -_j_values(_branch_states(rho, [np.eye(2), *elems]), 3)[0]

    best_j, best_x = floor, None
    starts = []
    for plane in ((proj_theta + np.pi / 2, proj_phi), (np.pi / 2, 0.0), (np.pi / 2, np.pi / 2)):
        for off in (0.0, np.pi / 6):
            trine = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3]) + off
            starts.append(np.array([plane[0], plane[1], *trine]))
    for x0 in starts:
        res = minimize(
            neg_j,
            x0=x0,
            method="Nelder-Mead",
            options={"fatol": THREE_OUTCOME_FTOL, "xatol": THREE_OUTCOME_FTOL,
                     "maxiter": THREE_OUTCOME_MAXITER},
        )
        if -res.fun > best_j:
            best_j, best_x = -res.fun, res.x
    if best_x is None:
        return floor, None
    elems = _three_outcome_elements(best_x)
    # Remove the completeness residual of the weight solve by the
    # congruence T^-1/2 E T^-1/2, T = sum E, which keeps every element PSD,
    # and report J of the POVM that results: the search can drift to where
    # the residual, not the measurement, raises J.
    vals, vecs = np.linalg.eigh(sum(elems))
    root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    povm = Povm(tuple(hermitianize(root @ e @ root) for e in elems))
    return accessible_information(rho, povm), povm


def classical_correlation(rho: DensityMatrix, povm_outcomes: int = 2) -> CorrelationReport:
    """Maximize J over measurements on a qubit apparatus.

    Default searches two-outcome projective measurements: J on a
    GRID_POINTS Fibonacci hemisphere of directions, then a batched
    pattern search from the best REFINE_STARTS cells down to a step of
    REFINE_STEP_TOL rad, all through one batched J kernel. For a qubit
    system every round also tries each start's Newton point of J, from
    closed-form derivatives in the state's Bloch form; a larger system
    has no such closed form (its derivatives need the branch
    eigenvectors), so its search is the pattern search alone.
    povm_outcomes=3 additionally searches coplanar three-outcome rank-1
    POVMs with Nelder-Mead. Deterministic for fixed input and
    configuration.
    """
    if len(rho.dims) != 2:
        raise ValueError(f"expected a bipartite layout, got dims {rho.dims}")
    if rho.dims[1] != 2:
        raise ValueError("measurement optimizer requires a qubit apparatus")
    if povm_outcomes not in (2, 3):
        raise ValueError("povm_outcomes must be 2 or 3")

    i_sa = mutual_information(rho)
    j_at = _projective_kernel(rho)
    j_grid = j_at(_GRID)
    top = np.argsort(-j_grid, kind="stable")[:REFINE_STARTS]
    j_best, n = _refine(j_at, _GRID[top], j_grid[top], _bloch_form(rho))
    t_best = float(np.arccos(np.clip(n[2], -1.0, 1.0)))
    f_best = float(np.arctan2(n[1], n[0]))
    measurement = qubit_projective_povm(t_best, f_best)
    if povm_outcomes == 3:
        j3, povm3 = _refine_three_outcome(rho, t_best, f_best, j_best)
        if povm3 is not None and j3 > j_best:
            j_best, measurement = j3, povm3
    return CorrelationReport(
        mutual_info=i_sa,
        classical_info=j_best,
        discord=i_sa - j_best,
        measurement=measurement,
    )
