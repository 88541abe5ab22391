"""Mutual information, accessible information, discord, and the
measurement optimizer giving the classical-communication limit.

The optimizer reads the state once. A rank-1 element w (1 + m.sigma) / 2
on a qubit apparatus leaves the unnormalized system branch
w (rho^S + sum_k m_k M_k) / 2 with M_k = Tr_A[(1 x sigma_k) rho] (Luo,
PRA 77, 042303 (2008); Ali, Rau & Alber, PRA 81, 042105 (2010)), so one
contraction of the state (`_kernel`) gives the branches of every
measurement searched, and a batch of them costs one eigenvalue pass:
closed form for a qubit system, batched `eigvalsh` otherwise. The
optimizer evaluates projective J (w = 1, m = +-n) on a Fibonacci
hemisphere (J(n) = J(-n)) and refines the best cells together by a
batched pattern search. An optional mode searches coplanar three-outcome
rank-1 POVMs, closed forms of five angles, by the same pattern search.

For a qubit system each round of that search has one more candidate per
start, the Riemannian Newton point of J. In the Bloch form of the state,
read off the same contraction, the branch B+- has trace
p+- = (1 +- b.n)/2 and Bloch vector (a +- T n)/2, so J(n) and its first
and second derivatives are closed forms of two 2x2 spectra. For a larger
system the derivatives of sum_i p_i S(B_i / p_i) need the eigenvectors
of every branch and divided differences of the logarithm, and the search
has no Newton candidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import (
    ENTROPY_CLIP,
    LOG2,
    DensityMatrix,
    Povm,
    _bipartite_dims,
    entropy_of_spectrum,
    hermitianize,
    random_isometry_mat,
)

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

# Rounds of the three-outcome POVM search. Its chart is degenerate along
# the projective POVMs it contains, where a start can creep for thousands
# of rounds; 8 of 120 seeded Ginibre states (d_s 2 and 3, ranks 1, 2 and
# full) reach this cap, at most 0.52 s a call on a shared 2-vCPU host.
THREE_OUTCOME_MAXITER = 500

# sigma_mu for mu = 0..3: the identity, then sigma_x, sigma_y, sigma_z.
_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


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
# The compass pattern of the three-outcome search: one chart coordinate
# at a time, both ways.
_COMPASS = np.concatenate([np.eye(5), -np.eye(5)])


@dataclass(frozen=True)
class CorrelationReport:
    """I, I^c, discord, and the measurement attaining the optimum."""

    mutual_info: float
    classical_info: float
    discord: float
    measurement: Povm


def mutual_information(rho: DensityMatrix) -> float:
    """I(S:A) = S(rho^S) + S(rho^A) - S(rho^SA), in bits; S(rho^SA) comes
    from the spectrum `rho` keeps."""
    return _mutual_info(_bipartite(rho), rho._spectrum)


def _mutual_info(r: np.ndarray, spectrum: np.ndarray) -> float:
    """I(S:A) of a raw (d_s, d_a, d_s, d_a) state tensor whose spectrum is
    given: two direct eigensolves, of the marginals.
    `protocols.recipient_infos` batches its marginals into one eigensolve
    per matrix size instead; for these small matrices the batch gives the
    same bits but measured 10-90% slower per call."""
    s_s, s_a = (entropy_of_spectrum(np.linalg.eigvalsh(hermitianize(m))) for m in (
        r.trace(axis1=1, axis2=3), r.trace(axis1=0, axis2=2)))
    return s_s + s_a - entropy_of_spectrum(spectrum)


def _bipartite(rho: DensityMatrix) -> np.ndarray:
    """rho as a (d_s, d_a, d_s, d_a) tensor."""
    return rho.mat.reshape(_bipartite_dims(rho.dims) * 2)


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


def _kernel(rho: DensityMatrix):
    """J of rank-1 measurements from one contraction X = (rho^S, M_x, M_y,
    M_z) of the state: (j_at, j_of, bloch).

    j_at(n) is J along each unit row of n, (N, 3): branches
    rho^S / 2 +- n.M / 2. j_of(w, m) is J of N rank-1 POVMs, weights
    (N, k) and Bloch vectors (N, k, 3): branches w_i (rho^S + m_i.M) / 2.
    j_at(n) is j_of(1, +-n) bit for bit, in the cheaper +- form. bloch,
    for a qubit system (else None), is (c, L^T): c = C[:, 0] / 2 and
    L = C[:, 1:] / 2 of C[mu, nu] = Tr[(sigma_mu x sigma_nu) rho]
    = Tr[sigma_mu X_nu]; the branch B+- = (p 1 + v.sigma) / 2 of
    direction n has (p, v) = c +- L n."""
    d = rho.dims[0]
    x = hermitianize(_branch_states(rho, _PAULI))
    half_s = x[0] / 2
    half_m = (x[1:] / 2).reshape(3, d * d)

    def j_at(directions: np.ndarray) -> np.ndarray:
        nm = (directions @ half_m).reshape(-1, d, d)
        mats = np.empty((2 * len(nm) + 1, d, d), dtype=complex)
        mats[0] = x[0]
        np.add(half_s, nm, out=mats[1::2])
        np.subtract(half_s, nm, out=mats[2::2])
        return _j_values(mats, 2)

    def j_of(w: np.ndarray, m: np.ndarray) -> np.ndarray:
        branches = w.reshape(-1, 1) * (half_s.ravel() + m.reshape(-1, 3) @ half_m)
        return _j_values(np.concatenate([x[:1], branches.reshape(-1, d, d)]), w.shape[1])

    if d != 2:
        return j_at, j_of, None
    coef = np.einsum("mij,nji->mn", _PAULI, x).real
    return j_at, j_of, (coef[:, 0] / 2, coef[:, 1:].T / 2)


def _chart_derivatives(bloch, starts: np.ndarray, tangent: np.ndarray):
    """derivs(x) -> (gradient, Hessian) of J ln 2 (J in nats) at the chart
    points x, (s, 2), of the charts n(x) = normalize(n0 + x_1 e_1 + x_2 e_2)
    of `_refine`, for a qubit system in the Bloch form `bloch` of `_kernel`.

    The gradient is the chart's. The Hessian is the Riemannian one, the
    ambient Hessian on the tangent plane less (n . grad J), pulled back by
    the chart's differential; it equals the chart's Hessian wherever the
    gradient vanishes, which keeps Newton's step quadratic.

    J ln 2 = S(rho^S) ln 2 + sum_+- g(p, v) over the branches (p, v) of
    the Bloch form, with g = e(l_1) + e(l_2) - e(p), e(z) = z ln z and
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


def _pattern_search(evaluate, x: np.ndarray, j: np.ndarray, step: np.ndarray,
                    pattern: np.ndarray, propose=None, max_rounds=np.inf):
    """Pattern search of J from every start at once; returns the final
    (x, J) of every start.

    Each round scores, in one `evaluate` call ((s, m, dim) chart points to
    (s, m) J values, -inf off the measurements), x + step * p for every
    row p of `pattern` about every start's point x. A start moves to its
    best point when that strictly raises J, and else halves its step; the
    search ends once every step is at most REFINE_STEP_TOL, or after
    `max_rounds` rounds.

    propose(x), if given, adds every start's candidate move to the round
    as (moves, their lengths, which are usable), or returns None once it
    has none. When a start's usable move wins, or no candidate raises its
    J, its step shrinks to at most the move's length; a start stops once
    no candidate raises its J and its move is at most REFINE_STEP_TOL.
    """
    rows = np.arange(len(x))
    while step.max() > REFINE_STEP_TOL and max_rounds > 0:
        max_rounds -= 1
        trial = x[:, None, :] + step[:, None, None] * pattern
        proposal = None if propose is None else propose(x)
        if proposal is None:
            propose = None
        else:
            move, size, usable = proposal
            trial = np.concatenate([trial, (x + move)[:, None]], axis=1)
        jt = evaluate(trial)
        if proposal is not None:
            jt[~usable, -1] = -np.inf
        best = jt.argmax(axis=1)
        j_best = jt[rows, best]
        up = j_best > j
        x[up] = trial[rows, best][up]
        j[up] = j_best[up]
        step[~up] /= 2
        if proposal is not None:
            near = usable & (~up | (best == len(pattern)))
            step[near] = np.minimum(step[near], size[near])
            step[~up & usable & (size <= REFINE_STEP_TOL)] = 0
    return x, j


def _refine(j_at, starts: np.ndarray, j_starts: np.ndarray, bloch=None):
    """`_pattern_search` of J over projective directions, with the 3x3
    pattern on each start's tangent chart; returns the best (J, unit
    direction). Given a qubit system's Bloch form, each start also proposes
    its Newton point of J (`_newton_moves`) until its proposal is
    non-finite, as at a pure branch."""
    s = len(starts)
    # Chart n(x) = normalize(n0 + x_1 e_1 + x_2 e_2); it covers the open
    # hemisphere about n0, which is every measurement since J(n) = J(-n).
    helper = np.eye(3)[np.argmin(np.abs(starts), axis=1)]
    e1 = helper - np.sum(helper * starts, axis=1, keepdims=True) * starts
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    tangent = np.stack([e1, np.cross(starts, e1)], axis=1)

    def evaluate(trial):
        dirs = starts[:, None, :] + trial @ tangent
        # np.linalg.norm's own sum, without its per-call overhead.
        dirs /= np.sqrt(np.add.reduce(dirs * dirs, axis=2, keepdims=True))
        return j_at(dirs.reshape(-1, 3)).reshape(s, -1)

    propose = None if bloch is None else partial(
        _newton_moves, _chart_derivatives(bloch, starts, tangent), live=np.ones(s, dtype=bool))
    x, j = _pattern_search(evaluate, np.zeros((s, 2)), j_starts.copy(),
                           np.full(s, _GRID_SPACING), _PATTERN, propose)
    k = int(np.argmax(j))
    n = starts[k] + x[k] @ tangent[k]
    return float(j[k]), n / np.linalg.norm(n)


def accessible_information(rho: DensityMatrix, m: Povm) -> float:
    """J = S(rho^S) - sum_i p_i S(rho_i^S), in bits, for a POVM with any
    number of outcomes: one contraction of the POVM's stack gives rho^S and
    every branch, and `_j_values` takes all of them through one eigenvalue
    pass."""
    return float(_j_values(_branch_states(rho, m._stack), len(m.elements))[0])


def qubit_projective_povm(theta_m: float, phi_m: float) -> Povm:
    """Two-outcome projective measurement along the Bloch direction
    (theta_m, phi_m)."""
    v = np.array([np.cos(theta_m / 2), np.exp(1j * phi_m) * np.sin(theta_m / 2)])
    p = np.outer(v, v.conj())
    return Povm((p, np.eye(2) - p))


def random_povm(n_outcomes: int, seed: int) -> Povm:
    """Random rank-1 qubit POVM from the rows of a Haar isometry."""
    if n_outcomes < 2:
        raise ValueError("rank-1 qubit POVM needs at least 2 outcomes")
    w = random_isometry_mat(2, n_outcomes, seed)
    return Povm(tuple(np.outer(r.conj(), r) for r in w))


def _coplanar_povms(x: np.ndarray, frames: np.ndarray):
    """Weights (s, m, 3) and Bloch vectors (s, m, 3, 3) of coplanar rank-1
    POVMs at chart points x, (s, m, 5), and which points are POVMs. On the
    chart of frame (n, e_1, e_2), x = (u_1, u_2, c, d_1, d_2) turns the
    frame by |u| about n x (u_1 e_1 + u_2 e_2): the sphere's exponential
    map, singular only 180 degrees from n, and every plane has a normal
    within 90. The Bloch vectors m_i lie at angles a = (c, c + d_1, c + d_2)
    from the turned e_1. Weights w_i = 2 s_i / sum s, s_i = sin(a_k - a_j)
    over the cyclic (i, j, k), give sum w_i m_i = 0, so E_i =
    w_i (1 + m_i.sigma) / 2 sum to the identity. A point with a weight not
    >= 0 (NaN included) is no POVM, and its weights are zero."""
    u = x[..., :2]
    r = np.hypot(u[..., :1], u[..., 1:])
    shift = (-np.sinc(r / (2 * np.pi)) ** 2 / 2 * (u @ frames[:, 1:])
             - np.sinc(r / np.pi) * frames[:, None, 0])
    f1 = frames[:, None, 1] + u[..., :1] * shift
    f2 = frames[:, None, 2] + u[..., 1:] * shift
    a = x[..., 2:] + np.array([0.0, 1.0, 1.0]) * x[..., 2:3]
    m = np.cos(a)[..., None] * f1[..., None, :] + np.sin(a)[..., None] * f2[..., None, :]
    s = np.sin(np.roll(a, -2, axis=-1) - np.roll(a, -1, axis=-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = 2 * s / s.sum(axis=-1, keepdims=True)
    ok = (w >= 0).all(axis=-1)
    w[~ok] = 0
    return w, m, ok


def _refine_three_outcome(j_of, proj_theta: float, proj_phi: float) -> tuple[float, Povm]:
    """`_pattern_search` of J (`_kernel`'s j_of) over coplanar three-outcome
    rank-1 POVMs from trines in three planes; returns the best J and POVM."""
    st, ct, sf, cf = np.sin(proj_theta), np.cos(proj_theta), np.sin(proj_phi), np.cos(proj_phi)
    # Frames (n, e_1, e_2) of two starts each: the plane through the
    # projective axis (e_1 = -axis), and the planes normal to x and to y.
    frames = np.repeat([[(ct * cf, ct * sf, -st), (-st * cf, -st * sf, -ct), (-sf, cf, 0.0)],
                        [(1.0, 0, 0), (0, 0, -1), (0, 1, 0)],
                        [(0.0, 1, 0), (0, 0, -1), (-1, 0, 0)]], 2, axis=0)
    starts = np.array(3 * [(0.0, 0.0, 0.0, 2 * np.pi / 3, 4 * np.pi / 3),
                           (0.0, 0.0, np.pi / 6, 2 * np.pi / 3, 4 * np.pi / 3)])

    def evaluate(trial):
        w, m, ok = _coplanar_povms(trial, frames)
        return np.where(ok, j_of(w.reshape(-1, 3), m).reshape(ok.shape), -np.inf)

    x, j = _pattern_search(evaluate, starts, evaluate(starts[:, None])[:, 0],
                           np.full(len(starts), _GRID_SPACING), _COMPASS,
                           max_rounds=THREE_OUTCOME_MAXITER)
    k = np.argmax(j)
    w, m, _ = _coplanar_povms(x[None, None, k], frames[None, k])
    elements = w[0, 0, :, None, None] / 2 * (np.eye(2) + np.tensordot(m[0, 0], _PAULI[1:], 1))
    return float(j[k]), Povm(tuple(elements))


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
    POVMs by the same pattern search, from six trines in three planes for
    at most THREE_OUTCOME_MAXITER rounds, and keeps the result where its J
    is higher. Deterministic for fixed input and configuration.
    """
    if _bipartite_dims(rho.dims)[1] != 2:
        raise ValueError("measurement optimizer requires a qubit apparatus")
    if povm_outcomes not in (2, 3):
        raise ValueError("povm_outcomes must be 2 or 3")

    i_sa = mutual_information(rho)
    j_at, j_of, bloch = _kernel(rho)
    j_grid = j_at(_GRID)
    top = np.argsort(-j_grid, kind="stable")[:REFINE_STARTS]
    j_best, n = _refine(j_at, _GRID[top], j_grid[top], bloch)
    t_best = float(np.arccos(np.clip(n[2], -1.0, 1.0)))
    f_best = float(np.arctan2(n[1], n[0]))
    measurement = qubit_projective_povm(t_best, f_best)
    if povm_outcomes == 3:
        j3, povm3 = _refine_three_outcome(j_of, t_best, f_best)
        if j3 > j_best:
            j_best, measurement = j3, povm3
    return CorrelationReport(
        mutual_info=i_sa,
        classical_info=j_best,
        discord=i_sa - j_best,
        measurement=measurement,
    )
