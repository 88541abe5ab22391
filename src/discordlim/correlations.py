"""Mutual information, accessible information, discord, and the
measurement optimizer giving the classical-communication limit.

The optimizer reads the state once. A rank-1 element w (1 + m.sigma) / 2
on a qubit apparatus leaves the unnormalized system branch
w (rho^S + sum_k m_k M_k) / 2 with M_k = Tr_A[(1 x sigma_k) rho] (Luo,
PRA 77, 042303 (2008); Ali, Rau & Alber, PRA 81, 042105 (2010)), so one
contraction of the state (`_kernel`) gives the branches of every
measurement searched, and a batch of them costs one eigenvalue pass:
closed form for a qubit system, batched `eigvalsh` otherwise. The
optimizer maximizes projective J (w = 1, m = +-n) over the directions n
of a hemisphere (J(n) = J(-n)) in one function, `_search`: a Fibonacci
grid, then a batched pattern search from its best cells.

For a qubit system that search also tries the Riemannian Newton point of
J. In the Bloch form of the state,
read off the same contraction, the branch B+- has trace
p+- = (1 +- b.n)/2 and Bloch vector (a +- T n)/2, so J(n) and its first
and second derivatives are closed forms of two 2x2 spectra. For a larger
system the derivatives of sum_i p_i S(B_i / p_i) need the eigenvectors
of every branch and divided differences of the logarithm, and the search
has no Newton point.

A pure state needs no search. Every measurement has J <= S(rho^S), since
the conditional entropies are >= 0, and a rank-1 projective measurement
on a pure state leaves pure system branches, so every such measurement
attains it: I^c = S(rho^S) (Henderson & Vedral, J. Phys. A 34, 6899
(2001)). The optimizer takes a state as pure when every eigenvalue but
the largest of the spectrum the `DensityMatrix` keeps is at most
ENTROPY_CLIP in magnitude, the rule by which the entropies drop them,
and reports the S(rho^S) it keeps, with the sigma_z measurement; it
neither contracts nor searches the state.

The reported I^c is the maximum of J over projective measurements. For
a qubit system at rank <= 2 it equals the Koashi-Winter optimum over
every POVM; for a qutrit system it is a lower bound (`classical_correlation`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ENTROPY_CLIP,
    LOG2,
    DensityMatrix,
    Povm,
    _as_dims,
    _as_real,
    _bipartite_dims,
    _expect,
    _identity_stack,
    entropy_of_spectrum,
    hermitianize,
    random_isometry_mat,
)

# Directions of the hemisphere grid, the cells refined from it, and the
# pattern step (rad) at which a refinement stops; J is stationary at the
# optimum, so its error is of order the step squared. The search reached
# the optimum from as few as 32 grid directions on 1200 seeded Ginibre
# states; 256 leave a margin for narrower peaks at ~0.1 ms per call for a
# qubit system and ~0.7 ms for a qutrit.
GRID_POINTS = 256
REFINE_STARTS = 5
REFINE_STEP_TOL = 1e-8

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
# The range of a measurement angle: every finite float.
_FLOAT_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class CorrelationReport:
    """I, I^c (the maximum of J over projective measurements), discord
    I - I^c, and the measurement attaining I^c."""

    mutual_info: float
    classical_info: float
    discord: float
    measurement: Povm


def mutual_information(rho: DensityMatrix) -> float:
    """I(S:A) = S(rho^S) + S(rho^A) - S(rho^SA), in bits, from the marginal
    entropies `rho` keeps (`DensityMatrix._marginals`, computed on first
    use) and the spectrum it keeps."""
    _expect(rho, "rho", DensityMatrix)
    s_s, s_a = rho._marginals
    return s_s + s_a - entropy_of_spectrum(rho._spectrum)


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
    floor = ENTROPY_CLIP / d
    ratio = dev / np.maximum(mean, floor)
    # log1p(ratio) = log(d * val / tr). A branch with p_i <= ENTROPY_CLIP,
    # and eigenvalues at or below ENTROPY_CLIP of their matrix's trace,
    # contribute nothing, as in `entropy_of_spectrum` of B_i / p_i.
    keep = (ratio > d * ENTROPY_CLIP - 1) & (mean > floor)
    logs = np.log1p(ratio, out=np.zeros(dev.shape), where=keep)
    rel = ((mean + dev) * logs).sum(axis=1) / LOG2
    return rel[1:].reshape(-1, k).sum(axis=1) - rel[0]


def _kernel(rho: DensityMatrix):
    """J of projective measurements from one contraction X = (rho^S, M_x,
    M_y, M_z) of the state: (j_at, bloch).

    j_at(n) is J along each unit row of n, (N, 3): branches
    rho^S / 2 +- n.M / 2. bloch, for a qubit system (else None), is
    (c, L^T): c = C[:, 0] / 2 and L = C[:, 1:] / 2 of C[mu, nu] =
    Tr[(sigma_mu x sigma_nu) rho] = Tr[sigma_mu X_nu]; the branch
    B+- = (p 1 + v.sigma) / 2 of direction n has (p, v) = c +- L n."""
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

    if d != 2:
        return j_at, None
    coef = np.einsum("mij,nji->mn", _PAULI, x).real
    return j_at, (coef[:, 0] / 2, coef[:, 1:].T / 2)


def _chart_derivatives(bloch, starts: np.ndarray, tangent: np.ndarray):
    """derivs(x) -> (gradient, Hessian) of J ln 2 (J in nats) at the chart
    points x, (s, 2), of the charts n(x) = normalize(n0 + x_1 e_1 + x_2 e_2)
    about the rows n0 of `starts`, with (e_1, e_2) the rows of `tangent`,
    for a qubit system in the Bloch form `bloch` of `_kernel`.

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


def _search(rho: DensityMatrix):
    """The maximum of J over projective directions: (J, unit direction).

    One `_kernel` call reads the state. J is scored on the GRID_POINTS
    hemisphere `_GRID`, and the stable top REFINE_STARTS directions start
    a batched pattern search, each on its tangent chart
    n(x) = normalize(n0 + x_1 e_1 + x_2 e_2), from x = 0 with a step of the
    grid spacing. Each round scores, in one kernel call, x + step * p for
    every row p of the 3x3 `_PATTERN` about every start's x. A start moves
    to its best point when that strictly raises J, and else halves its
    step; the search ends once every step is at most REFINE_STEP_TOL.

    For a qubit system each round also tries every start's Newton point of
    J (`_newton_moves`), until no start's move is finite, as at a pure
    branch. When a start's usable move wins, or no candidate raises its J,
    its step shrinks to at most the move's length; a start stops once no
    candidate raises its J and its move is at most REFINE_STEP_TOL.
    """
    j_at, bloch = _kernel(rho)
    j_grid = j_at(_GRID)
    top = np.argsort(-j_grid, kind="stable")[:REFINE_STARTS]
    starts, j = _GRID[top], j_grid[top]
    s = len(starts)
    # The chart about n0 covers the open hemisphere about it, which is
    # every measurement since J(n) = J(-n).
    helper = np.eye(3)[np.argmin(np.abs(starts), axis=1)]
    e1 = helper - np.sum(helper * starts, axis=1, keepdims=True) * starts
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    tangent = np.stack([e1, np.cross(starts, e1)], axis=1)
    derivs = None if bloch is None else _chart_derivatives(bloch, starts, tangent)
    live = np.ones(s, dtype=bool)
    x = np.zeros((s, 2))
    step = np.full(s, _GRID_SPACING)
    rows = np.arange(s)
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
    number of outcomes: one contraction of the POVM's stack gives rho^S and
    every branch, and `_j_values` takes all of them through one eigenvalue
    pass."""
    _expect(rho, "rho", DensityMatrix)
    _expect(m, "m", Povm)
    return float(_j_values(_branch_states(rho, m._stack), len(m.elements))[0])


def qubit_projective_povm(theta_m: float, phi_m: float) -> Povm:
    """Two-outcome projective measurement along the Bloch direction
    (theta_m, phi_m), any finite reals."""
    t, f = _as_real(theta_m, -_FLOAT_MAX, _FLOAT_MAX), _as_real(phi_m, -_FLOAT_MAX, _FLOAT_MAX)
    if t is None or f is None:
        raise ValueError(f"measurement angles must be finite reals, got ({theta_m!r}, {phi_m!r})")
    v = np.array([np.cos(t / 2), np.exp(1j * f) * np.sin(t / 2)])
    stack = _identity_stack(2, 2)
    np.outer(v, v.conj(), out=stack[1])
    np.subtract(stack[0], stack[1], out=stack[2])
    return Povm._of(stack)


# The sigma_z measurement, which the report of a pure state returns: values
# compare by identity and cannot be written, so every report shares one.
_Z_POVM = qubit_projective_povm(0.0, 0.0)


def random_povm(n_outcomes: int, seed: int) -> Povm:
    """Random rank-1 qubit POVM from the rows of a Haar isometry."""
    (n_outcomes,) = _as_dims((n_outcomes,), "n_outcomes")
    if n_outcomes < 2:
        raise ValueError("rank-1 qubit POVM needs at least 2 outcomes")
    w = random_isometry_mat(2, n_outcomes, seed)
    return Povm(tuple(np.outer(r.conj(), r) for r in w))


def _is_pure(rho: DensityMatrix) -> bool:
    """Rank 1 on the spectrum `rho` keeps: every eigenvalue but the largest
    is at most ENTROPY_CLIP in magnitude, so the entropies drop them all.
    The spectrum ascends, so the largest such magnitude is the second
    eigenvalue or minus the first."""
    vals = rho._spectrum
    return max(vals[-2], -vals[0]) <= ENTROPY_CLIP


def classical_correlation(rho: DensityMatrix) -> CorrelationReport:
    """Maximize J over projective measurements on a qubit apparatus.

    A pure state (`_is_pure`) is certified, not searched: I^c is the
    S(rho^S) that `rho` keeps, attained by the sigma_z measurement the
    report returns. Otherwise one `_search` of J over projective
    directions, through one contraction of the state, gives I^c and the
    measurement. Deterministic for fixed input.

    For a qubit system at rank <= 2 the result is the Koashi-Winter
    optimum over every POVM. For a qutrit system it is a lower bound:
    about one state in eight has a better POVM, by up to 1.34e-2 bits,
    and its discord reads high by as much.
    """
    _expect(rho, "rho", DensityMatrix)
    if _bipartite_dims(rho.dims)[1] != 2:
        raise ValueError("measurement optimizer requires a qubit apparatus")

    i_sa = mutual_information(rho)
    if _is_pure(rho):
        s_s = rho._marginals[0]
        return CorrelationReport(i_sa, s_s, i_sa - s_s, _Z_POVM)
    j_best, n = _search(rho)
    measurement = qubit_projective_povm(float(np.arccos(np.clip(n[2], -1.0, 1.0))),
                                        float(np.arctan2(n[1], n[0])))
    return CorrelationReport(i_sa, j_best, i_sa - j_best, measurement)
