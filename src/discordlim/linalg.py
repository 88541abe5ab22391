"""Dense complex linear algebra for small multipartite quantum systems.

Everything here works on explicit numpy arrays; total dimensions stay
small (<= 64), so dense eigendecompositions are used throughout.
All informational quantities are in bits (log base 2).

Validation happens once, at the public boundary: the four value types
defined here, `DensityMatrix`, `StateVector`, `Povm` and
`BroadcastIsometry`, check their input when they are built from caller
input or returned to the caller. Inside the package, intermediate states
pass as raw arrays, so no eigensolver runs only to re-check a value the
package computed itself. A density matrix and each POVM element are
checked by one rule: Hermitian within HERM_TOL, then PSD within PSD_TOL.

Each value type copies its input once into an array of its own and marks
it read-only, so a validated value cannot change afterwards. A
`DensityMatrix` also keeps the spectrum its PSD check computes:
`von_neumann_entropy` of a `DensityMatrix` makes no eigensolve, and
`mutual_information` takes S(rho^SA) from it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields

import numpy as np

# Validation tolerances for the value types.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-10
ISOMETRY_TOL = 1e-10
POVM_SUM_TOL = 1e-9

# Eigenvalues below this contribute nothing to entropies.
ENTROPY_CLIP = 1e-12
# Eigenvalues above this count toward a state's rank, and so toward the
# ancilla of its purification.
RANK_TOL = 1e-9
# A computed probability may leave [0, 1] by this rounding; binary_entropy clips it back.
PROB_SLACK = 1e-12

LOG2 = np.log(2.0)


def _fault(err: float, what: str, problem: str) -> str:
    """Message for a validation residual that failed `err <= tol`: a NaN or
    infinite residual comes from non-finite entries."""
    return f"{what} {problem}" if np.isfinite(err) else f"{what} has non-finite entries"


def _as_dims(dims) -> tuple[int, ...]:
    """Subsystem dimensions as a tuple of ints; a non-integral one (2.5,
    or 2.0) raises instead of being truncated. numpy integers pass."""
    dims = tuple(dims)
    try:
        return tuple(map(operator.index, dims))
    except TypeError as exc:
        raise ValueError(f"subsystem dimensions must be integers, got {dims}") from exc


def _check_dims(dims, size: int) -> tuple[int, ...]:
    dims = _as_dims(dims)
    if not dims or min(dims) < 1:
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    if math.prod(dims) != size:
        raise ValueError(f"product of dims {dims} does not match size {size}")
    return dims


def _owned(a) -> np.ndarray:
    """A read-only complex C-ordered copy of `a`."""
    out = np.array(a, dtype=complex, order="C")
    out.flags.writeable = False
    return out


class _Rebuilt:
    """Base of the value types: a copy or an unpickled value goes through
    the constructor, so it too owns read-only arrays and keeps what it
    computed from them. Declared with `eq=False`, a value equals and
    hashes as itself only: its arrays have no single truth value."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


def _check_hermitian(mats: np.ndarray, what: str):
    """Raise unless a matrix, or each matrix in a stack, is Hermitian
    within HERM_TOL. Comparisons are written `not err <= tol` so that a NaN
    residual, from non-finite entries, fails them; inf - inf is that NaN,
    not a warning."""
    with np.errstate(invalid="ignore"):
        err = abs(mats - mats.conj().swapaxes(-1, -2)).max()
    if not err <= HERM_TOL:
        raise ValueError(_fault(err, what, "is not Hermitian"))


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Rebuilt):
    """Hermitian, unit-trace, PSD operator over a tensor factorization.
    `mat` is a read-only copy of the input; `_spectrum` holds its ascending
    eigenvalues, from the PSD check."""

    mat: np.ndarray
    dims: tuple[int, ...]
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _owned(self.mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", _check_dims(self.dims, mat.shape[0]))
        _check_hermitian(mat, "density matrix")
        tr = mat.trace()
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace is {tr}, expected 1")
        vals = np.linalg.eigvalsh(mat)
        if not vals[0] >= -PSD_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        vals.flags.writeable = False
        object.__setattr__(self, "_spectrum", vals)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class StateVector(_Rebuilt):
    """Normalized pure state over a tensor factorization; `vec` is a
    read-only copy of the input, flattened."""

    vec: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        vec = _owned(self.vec).ravel()
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "dims", _check_dims(self.dims, vec.size))
        err = abs(np.linalg.norm(vec) - 1.0)
        if not err <= NORM_TOL:
            raise ValueError(_fault(err, "state vector", "is not normalized"))

    @property
    def dim(self) -> int:
        return self.vec.size

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.vec, self.vec.conj()), self.dims)


@dataclass(frozen=True, eq=False)
class Povm(_Rebuilt):
    """Finite measurement: Hermitian PSD elements summing to the identity.
    `_stack` is one read-only array, the identity in row 0 and the elements
    after it; `elements` are views into it."""

    elements: tuple[np.ndarray, ...]
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("POVM needs at least one element")
        d = np.shape(elements[0])[0]
        if any(np.shape(e) != (d, d) for e in elements):
            raise ValueError("POVM elements must be square and same-sized")
        stack = _owned([np.eye(d), *elements])
        # The Hermitian residual is not finite for non-finite entries, so it
        # is checked before a sum or an eigensolver sees them.
        _check_hermitian(stack[1:], "POVM element")
        err = abs(stack[1:].sum(axis=0) - stack[0]).max()
        if not err <= POVM_SUM_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        if not np.linalg.eigvalsh(stack[1:])[:, 0].min() >= -PSD_TOL:
            raise ValueError("POVM element is not PSD")
        object.__setattr__(self, "elements", tuple(stack[1:]))
        object.__setattr__(self, "_stack", stack)


@dataclass(frozen=True, eq=False)
class BroadcastIsometry(_Rebuilt):
    """Isometry from the apparatus into recipients x ancilla; `matrix` is a
    read-only copy of the input."""

    matrix: np.ndarray
    recipient_dims: tuple[int, ...]
    ancilla_dim: int

    def __post_init__(self):
        mat = _owned(self.matrix)
        object.__setattr__(self, "matrix", mat)
        dims = _as_dims((*self.recipient_dims, self.ancilla_dim))
        object.__setattr__(self, "recipient_dims", dims[:-1])
        object.__setattr__(self, "ancilla_dim", dims[-1])
        d_out = math.prod(dims)
        if mat.shape[0] != d_out:
            raise ValueError(f"matrix rows {mat.shape[0]} do not match output dim {d_out}")
        # Non-finite entries leave a NaN residual, which fails the check.
        with np.errstate(invalid="ignore"):
            err = abs(mat.conj().T @ mat - np.eye(mat.shape[1])).max()
        if not err <= ISOMETRY_TOL:
            raise ValueError(_fault(err, "matrix", "is not an isometry"))

    @property
    def d_in(self) -> int:
        return self.matrix.shape[1]


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix, or of each matrix in a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def _bipartite_dims(dims) -> tuple[int, int]:
    """(d_s, d_a) of a system x apparatus layout."""
    if len(dims) != 2:
        raise ValueError(f"expected a bipartite layout, got dims {dims}")
    return dims


def _contract(mat: np.ndarray, dims: tuple[int, ...], keep: list[int]) -> np.ndarray:
    """A raw matrix over `dims` reduced to the sorted factors `keep`, as a
    (kept rows, kept columns) tensor: one einsum with row labels 0..n-1 and
    column labels n..2n-1, a traced factor sharing its row label."""
    n = len(dims)
    cols = [n + k if k in keep else k for k in range(n)]
    return np.einsum(np.reshape(mat, dims + dims), list(range(n)) + cols,
                     keep + [n + k for k in keep])


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not in `keep`; kept factors stay in order."""
    n = len(rho.dims)
    try:
        keep = sorted(set(operator.index(k) for k in keep))
    except TypeError as exc:
        raise ValueError(f"keep indices must be integers, got {keep}") from exc
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    kept_dims = tuple(rho.dims[i] for i in keep)
    d = math.prod(kept_dims)
    red = _contract(rho.mat, rho.dims, keep).reshape(d, d)
    return DensityMatrix(hermitianize(red), kept_dims)


def partial_transpose(mat: np.ndarray, dims, sys: int) -> np.ndarray:
    """Transpose one tensor factor of a square matrix."""
    dims = _as_dims(dims)
    d = math.prod(dims)
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    return t.swapaxes(sys, sys + len(dims)).reshape(d, d)


def entropy_of_spectrum(vals: np.ndarray) -> float | np.ndarray:
    """Entropy in bits of a spectrum, or of each one in a stack; eigenvalues
    at or below ENTROPY_CLIP contribute nothing."""
    vals = np.asarray(vals, dtype=float)
    logs = np.log(vals, out=np.zeros(vals.shape), where=vals > ENTROPY_CLIP)
    s = -(vals * logs).sum(axis=-1) / LOG2
    return float(s) if s.ndim == 0 else s


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """von Neumann entropy in bits, from the spectrum a `DensityMatrix`
    keeps: no eigensolve of its own. A raw matrix is validated as a
    one-factor `DensityMatrix` first, its one eigensolve."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho, np.shape(rho)[:1])
    return entropy_of_spectrum(rho._spectrum)


def von_neumann_entropies(mats) -> np.ndarray:
    """von Neumann entropies in bits of a sequence of raw square matrices,
    read as their Hermitian parts: one batched `eigvalsh` per matrix size."""
    by_size: dict[int, list[int]] = {}
    for k, m in enumerate(mats):
        by_size.setdefault(m.shape[0], []).append(k)
    out = np.empty(len(mats))
    for idx in by_size.values():
        vals = np.linalg.eigvalsh(hermitianize(np.array([mats[k] for k in idx])))
        out[idx] = entropy_of_spectrum(vals)
    return out


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2(1-p), in bits."""
    if not -PROB_SLACK <= p <= 1 + PROB_SLACK:
        raise ValueError(f"probability {p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    return entropy_of_spectrum(np.array([p, 1.0 - p]))


def purify(rho: DensityMatrix) -> StateVector:
    """Purification |Psi> = sum_k sqrt(lam_k) |e_k>|k>, ancilla ordered by
    descending eigenvalue; ancilla dimension equals the rank of rho (the
    eigenvalues above RANK_TOL; the rest are dropped)."""
    psi, rank = _purification(rho.mat)
    return StateVector(psi, rho.dims + (rank,))


def _purification(mat: np.ndarray) -> tuple[np.ndarray, int]:
    """`purify` on a raw matrix: the normalized vector over the matrix's
    space x ancilla, and the ancilla dimension."""
    vals, vecs = np.linalg.eigh(mat)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    rank = max(1, int(np.sum(vals > RANK_TOL)))
    amps = vecs[:, :rank] * np.sqrt(np.clip(vals[:rank], 0.0, None))
    psi = amps.reshape(mat.shape[0] * rank)
    return psi / np.linalg.norm(psi), rank


def random_pure_state(dim: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(z / np.linalg.norm(z), (dim,))


def random_isometry_mat(d_in: int, d_out: int, seed: int) -> np.ndarray:
    """Haar-distributed isometry (d_out x d_in) from QR of a complex
    Gaussian matrix, with the R-diagonal phase fixed for uniqueness."""
    if d_in > d_out:
        raise ValueError(f"d_in={d_in} exceeds d_out={d_out}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    return random_isometry_mat(dim, dim, seed)


def random_density_matrix(dim: int, seed: int, rank: int | None = None) -> np.ndarray:
    """Random mixed state from the Ginibre ensemble (raw matrix)."""
    rank = dim if rank is None else rank
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return hermitianize(rho / np.trace(rho).real)
