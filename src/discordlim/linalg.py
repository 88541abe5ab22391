"""Dense complex linear algebra for small multipartite quantum systems.

Everything here works on explicit numpy arrays; total dimensions stay
small (<= 64), so dense eigendecompositions are used throughout.
All informational quantities are in bits (log base 2).

The input contract of every public name is checked once, where input
enters: array entries are finite, every size or count (dims, a rank, a
number of outcomes, d_in and d_out) is a positive integer, every seed a
non-negative one (`_as_seed`), every angle or probability a Python or
numpy int or float within INPUT_TOL of its range, clamped to it
(`_as_real`), an argument typed as a value type is one (`_expect`;
`von_neumann_entropy` also takes a raw matrix), and anything else raises
ValueError naming the fault before numpy can warn; the CLI exits 2 on
it. The four value types, `DensityMatrix`, `StateVector`, `Povm` and
`BroadcastIsometry`, each make one read-only copy of their input
(`_owned`, which rejects non-finite entries) and check it; a density
matrix and each POVM element are Hermitian, then PSD, within INPUT_TOL,
the one slack on caller input; a density matrix then keeps only its
Hermitian part (m + m^dagger)/2, which its spectrum, marginals and
reductions read, and nothing symmetrizes them again. Inside the package,
states pass as raw arrays and are not checked again, and ENTROPY_CLIP is
the one rule for what they treat as zero: in an entropy, a rank and a
purity test. A `DensityMatrix` keeps the spectrum of its PSD check, so
`von_neumann_entropy` of one makes no eigensolve; a bipartite one keeps
S(rho^S) and S(rho^A) from the first call that needs them, for I and
I^c_KW alike (`_marginals`); a copy computes them again.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

# How far caller input may be off through rounding: a value type's
# Hermiticity, trace, PSD, norm and isometry checks, the cloner's overlap,
# and a probability or family angle just outside its range, which is clamped.
INPUT_TOL = 1e-10
# The value POVM completeness has always had, so that no POVM accepted before is rejected.
POVM_SUM_TOL = 1e-9
# What a computed spectrum or vector treats as zero: an eigenvalue at or
# below this adds nothing to an entropy, nor a branch of at most this weight
# to J; it does not count toward a state's rank (`purify`, the KW route),
# nor against its purity (`correlations._is_pure`). It is the rounding of
# `eigvalsh` on a unit-trace matrix of dimension up to 16 (16 eps), and
# keeps every larger -q log2 q (a 1e-12 clip dropped up to 4e-11 bits). A
# rounding eigenvalue it keeps, up to dimension 64, adds under 7e-13 bits.
ENTROPY_CLIP = 16 * np.finfo(float).eps

LOG2 = np.log(2.0)


def _as_dims(sizes, what: str) -> tuple[int, ...]:
    """Sizes or counts as a nonempty tuple of positive ints, numpy integers
    included; 2.5 or 2.0 raises instead of being truncated. `what` names
    the argument in the message."""
    try:
        out = tuple(map(operator.index, sizes))
    except TypeError:  # a non-integral size, or `sizes` not a sequence
        out = ()
    if not out or min(out) < 1:
        raise ValueError(f"{what} must be positive integers, got {sizes}")
    return out


def _as_int(n) -> int:
    """A count or a seed as an int, numpy integers included; -1 for
    anything non-integral (1.5, 2.0, "3", None), which fails the caller's
    range check with its own message."""
    try:
        return operator.index(n)
    except TypeError:
        return -1


def _as_seed(seed) -> int:
    """A seed as a non-negative int (`_as_int`); 1.5, -1 and None raise, so
    that every draw is reproducible."""
    out = _as_int(seed)
    if out < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return out


# The types of a real argument, numpy's float64 a Python float among them:
# a check against `numbers.Real` costs several times more per call.
_REALS = (float, int, np.floating, np.integer)


def _as_real(x, lo: float, hi: float) -> float | None:
    """`x` as a float clamped to [lo, hi], two finite Python floats, if it
    is one of `_REALS` within INPUT_TOL of them (NaN and the infinities
    are not); else None, on which the caller raises its own ValueError:
    for an array, a string, a complex number, None, a Fraction, a Decimal."""
    if isinstance(x, _REALS) and lo - INPUT_TOL <= x <= hi + INPUT_TOL:
        x = float(x)
        return lo if x < lo else hi if x > hi else x
    return None


def _expect(value, what: str, *kinds):
    """Raise unless `value` is one of `kinds`, the types its signature
    names: a raw array where a value type belongs fails here, by name."""
    if not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{what} must be a {names}, got {type(value).__name__}")


def _check_dims(dims, size: int) -> tuple[int, ...]:
    dims = _as_dims(dims, "dims")
    if math.prod(dims) != size:
        raise ValueError(f"product of dims {dims} does not match size {size}")
    return dims


def _owned(a, what: str) -> np.ndarray:
    """A read-only complex C-ordered copy of `a`, whose entries are all
    finite; the copy each value type checks."""
    out = np.array(a, dtype=complex, order="C")
    if not np.isfinite(out).all():
        raise ValueError(f"{what} has non-finite entries")
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
    within INPUT_TOL."""
    if abs(mats - mats.conj().swapaxes(-1, -2)).max() > INPUT_TOL:
        raise ValueError(f"{what} is not Hermitian")


@dataclass(frozen=True, eq=False)
class DensityMatrix(_Rebuilt):
    """Hermitian, unit-trace, PSD operator over a tensor factorization.
    `mat` is the read-only Hermitian part of the input, its own adjoint bit
    for bit; `_spectrum` holds its ascending eigenvalues, from the PSD check;
    `_marginals`, of a bipartite state, its marginal entropies once needed."""

    mat: np.ndarray
    dims: tuple[int, ...]
    _spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mat = _owned(self.mat, "density matrix")
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        object.__setattr__(self, "dims", _check_dims(self.dims, mat.shape[0]))
        _check_hermitian(mat, "density matrix")
        mat = hermitianize(mat)
        mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)
        tr = mat.trace()
        if abs(tr - 1.0) > INPUT_TOL:
            raise ValueError(f"trace is {tr}, expected 1")
        vals = np.linalg.eigvalsh(mat)
        if vals[0] < -INPUT_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        vals.flags.writeable = False
        object.__setattr__(self, "_spectrum", vals)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def _marginals(self) -> tuple[float, float]:
        """(S(rho^S), S(rho^A)) of a bipartite state, computed on first use:
        one stacked `eigvalsh` when the two marginals share a shape, else
        one each; the same bits either way."""
        d_s, d_a = _bipartite_dims(self.dims)
        r = self.mat.reshape(d_s, d_a, d_s, d_a)
        marginals = r.trace(axis1=1, axis2=3), r.trace(axis1=0, axis2=2)
        if d_s != d_a:
            return tuple(entropy_of_spectrum(np.linalg.eigvalsh(m)) for m in marginals)
        vals = np.linalg.eigvalsh(np.array(marginals))
        return tuple(entropy_of_spectrum(vals).tolist())


@dataclass(frozen=True, eq=False)
class StateVector(_Rebuilt):
    """Normalized pure state over a tensor factorization; `vec` is a
    read-only copy of the input, a one-dimensional array."""

    vec: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        vec = _owned(self.vec, "state vector")
        if vec.ndim != 1:
            raise ValueError("state vector must be one-dimensional")
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "dims", _check_dims(self.dims, vec.size))
        if abs(_norm(vec) - 1.0) > INPUT_TOL:
            raise ValueError("state vector is not normalized")

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
        try:
            elements = tuple(self.elements)
        except TypeError:  # None, or another non-sequence
            elements = ()
        shape = np.shape(elements[0]) if elements else ()
        if (len(shape) != 2 or shape[0] != shape[1] or not shape[0]
                or any(np.shape(e) != shape for e in elements)):
            raise ValueError("POVM needs at least one element, all nonempty, square and same-sized")
        stack = _owned([np.eye(shape[0]), *elements], "POVM element")
        _check_hermitian(stack[1:], "POVM element")
        if abs(stack[1:].sum(axis=0) - stack[0]).max() > POVM_SUM_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        if np.linalg.eigvalsh(stack[1:])[:, 0].min() < -INPUT_TOL:
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
        mat = _owned(self.matrix, "isometry matrix")
        if mat.ndim != 2 or not mat.shape[1]:
            raise ValueError("isometry matrix must be two-dimensional with at least one column")
        object.__setattr__(self, "matrix", mat)
        recipients = _as_dims(self.recipient_dims, "recipient dims")
        (ancilla,) = _as_dims((self.ancilla_dim,), "ancilla dim")
        object.__setattr__(self, "recipient_dims", recipients)
        object.__setattr__(self, "ancilla_dim", ancilla)
        d_out = math.prod(recipients) * ancilla
        if mat.shape[0] != d_out:
            raise ValueError(f"matrix rows {mat.shape[0]} do not match output dim {d_out}")
        if abs(mat.conj().T @ mat - np.eye(mat.shape[1])).max() > INPUT_TOL:
            raise ValueError("matrix is not an isometry")

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


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not in `keep`; kept factors stay in order."""
    _expect(rho, "rho", DensityMatrix)
    n = len(rho.dims)
    try:
        keep = sorted(set(operator.index(k) for k in keep))
    except TypeError as exc:
        raise ValueError(f"keep indices must be integers, got {keep}") from exc
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    return DensityMatrix(_reduce(rho.mat, rho.dims, keep), tuple(rho.dims[i] for i in keep))


def _reduce(mat: np.ndarray, dims: tuple[int, ...], keep) -> np.ndarray:
    """A raw matrix over `dims` reduced to the factors in `keep`. Each run of
    adjacent traced factors is one row and one column axis, traced by
    `ndarray.trace`, the last first, so the axes before it keep their places."""
    shape, traced = [], []
    for k, d in enumerate(dims):
        if k not in keep and traced and traced[-1]:
            shape[-1] *= d
        else:
            shape.append(d)
            traced.append(k not in keep)
    t = mat.reshape(shape * 2)
    for k in range(len(shape) - 1, -1, -1):
        if traced[k]:
            t = t.trace(axis1=k, axis2=k + t.ndim // 2)
    return t.reshape(math.prod(t.shape[:t.ndim // 2]), -1)


def entropy_of_spectrum(vals: np.ndarray) -> float | np.ndarray:
    """Entropy in bits of a float64 spectrum, or of each one in a stack;
    eigenvalues at or below ENTROPY_CLIP contribute nothing."""
    logs = np.log(vals, out=np.zeros(vals.shape), where=vals > ENTROPY_CLIP)
    # 0.0 - x, not -x: a pure spectrum's entropy is +0.0, not -0.0.
    s = 0.0 - (vals * logs).sum(axis=-1) / LOG2
    return float(s) if s.ndim == 0 else s


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """von Neumann entropy in bits, from the spectrum a `DensityMatrix`
    keeps: no eigensolve of its own. A raw matrix is validated as a
    one-factor `DensityMatrix` first, its one eigensolve."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(rho, np.shape(rho)[:1])
    return entropy_of_spectrum(rho._spectrum)


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2(1-p), in bits."""
    q = _as_real(p, 0.0, 1.0)
    if q is None:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    return entropy_of_spectrum(np.array([q, 1.0 - q]))


def purify(rho: DensityMatrix) -> StateVector:
    """Purification |Psi> = sum_k sqrt(lam_k) |e_k>|k>, ancilla ordered by
    descending eigenvalue; ancilla dimension equals the rank of rho (the
    eigenvalues above ENTROPY_CLIP, the ones its entropy counts; the rest
    are dropped)."""
    _expect(rho, "rho", DensityMatrix)
    psi, rank = _purification(rho.mat)
    return StateVector(psi, rho.dims + (rank,))


def _purification(mat: np.ndarray) -> tuple[np.ndarray, int]:
    """`purify` on a raw matrix: the normalized vector over the matrix's
    space x ancilla, and the ancilla dimension."""
    vals, vecs = np.linalg.eigh(mat)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    rank = max(1, np.count_nonzero(vals > ENTROPY_CLIP))
    psi = (vecs[:, :rank] * np.sqrt(np.maximum(vals[:rank], 0.0))).reshape(mat.shape[0] * rank)
    return psi / _norm(psi), rank


def _norm(v: np.ndarray) -> float:
    """`np.linalg.norm` of a complex vector, its two real dots alone."""
    return np.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def random_pure_state(dim: int, seed: int) -> StateVector:
    (dim,) = _as_dims((dim,), "dim")
    rng = np.random.default_rng(_as_seed(seed))
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(z / _norm(z), (dim,))


def random_isometry_mat(d_in: int, d_out: int, seed: int) -> np.ndarray:
    """Haar-distributed isometry (d_out x d_in) from QR of a complex
    Gaussian matrix, with the R-diagonal phase fixed for uniqueness."""
    d_in, d_out = _as_dims((d_in, d_out), "d_in and d_out")
    if d_in > d_out:
        raise ValueError(f"d_in={d_in} exceeds d_out={d_out}")
    rng = np.random.default_rng(_as_seed(seed))
    z = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    return random_isometry_mat(dim, dim, seed)


def random_density_matrix(dim: int, seed: int, rank: int | None = None) -> np.ndarray:
    """Random mixed state from the Ginibre ensemble (raw matrix)."""
    dim, rank = _as_dims((dim, dim if rank is None else rank), "dim and rank")
    rng = np.random.default_rng(_as_seed(seed))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return hermitianize(rho / np.trace(rho).real)
