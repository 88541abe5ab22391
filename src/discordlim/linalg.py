"""Dense complex linear algebra for small multipartite quantum systems.

Everything here works on explicit numpy arrays; total dimensions stay
small (<= 64), so dense eigendecompositions are used throughout.
All informational quantities are in bits (log base 2).

Validation happens once, at the public boundary: the value types
(`DensityMatrix`, `StateVector`, and `Povm` / `BroadcastIsometry`
elsewhere) check their input when they are built from caller input or
returned to the caller. Inside the package, intermediate states pass as
raw `mat` arrays (`partial_trace_mat`), so no eigensolver runs only to
re-check a value the package computed itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Validation tolerances for the value types.
HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
NORM_TOL = 1e-10
ISOMETRY_TOL = 1e-10

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


def _check_dims(dims, size: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != size:
        raise ValueError(f"product of dims {dims} does not match size {size}")
    return dims


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD operator over a tensor factorization."""

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.ascontiguousarray(np.asarray(self.mat, dtype=complex))
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("density matrix must be square")
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", _check_dims(self.dims, mat.shape[0]))
        # Comparisons are written `not err <= tol` so that a NaN residual,
        # from non-finite entries, fails them; inf - inf is that NaN, not a
        # warning.
        with np.errstate(invalid="ignore"):
            err = np.max(np.abs(mat - mat.conj().T))
        if not err <= HERM_TOL:
            raise ValueError(_fault(err, "density matrix", "is not Hermitian"))
        tr = np.trace(mat)
        if not abs(tr - 1.0) <= TRACE_TOL:
            raise ValueError(f"trace is {tr}, expected 1")
        if not np.linalg.eigvalsh(mat)[0] >= -PSD_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over a tensor factorization."""

    vec: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        vec = np.ascontiguousarray(np.asarray(self.vec, dtype=complex)).ravel()
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


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Hermitian part of a matrix, or of each matrix in a stack."""
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2


def partial_trace_mat(mat: np.ndarray, dims, keep) -> tuple[np.ndarray, tuple[int, ...]]:
    """Partial trace of a raw matrix; returns (reduced matrix, kept dims)."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} subsystems")
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    remaining = list(range(n))
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        pos = remaining.index(idx)
        m = len(remaining)
        t = np.trace(t, axis1=pos, axis2=pos + m)
        remaining.remove(idx)
    kept_dims = tuple(dims[i] for i in remaining)
    d = int(np.prod(kept_dims))
    return t.reshape(d, d), kept_dims


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not in `keep`; kept factors stay in order."""
    red, kept_dims = partial_trace_mat(rho.mat, rho.dims, keep)
    return DensityMatrix(hermitianize(red), kept_dims)


def partial_transpose(mat: np.ndarray, dims, sys: int) -> np.ndarray:
    """Transpose one tensor factor of a square matrix."""
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    t = np.swapaxes(t, sys, sys + n)
    d = int(np.prod(dims))
    return t.reshape(d, d)


def entropy_of_spectrum(vals: np.ndarray) -> float:
    vals = np.asarray(vals, dtype=float)
    vals = vals[vals > ENTROPY_CLIP]
    if vals.size == 0:
        return 0.0
    return float(-np.sum(vals * np.log(vals)) / LOG2)


def von_neumann_entropy(rho: DensityMatrix | np.ndarray) -> float:
    """von Neumann entropy in bits."""
    mat = rho.mat if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    return entropy_of_spectrum(np.linalg.eigvalsh(mat))


def von_neumann_entropies(mats) -> np.ndarray:
    """von Neumann entropies in bits of a sequence of raw square matrices,
    read as their Hermitian parts: one batched `eigvalsh` per matrix size."""
    out = np.empty(len(mats))
    sizes = np.array([m.shape[0] for m in mats])
    for d in np.unique(sizes):
        idx = np.flatnonzero(sizes == d)
        vals = np.linalg.eigvalsh(hermitianize(np.array([mats[k] for k in idx])))
        # Eigenvalues at or below ENTROPY_CLIP contribute nothing, as in
        # `entropy_of_spectrum`.
        logs = np.log(vals, out=np.zeros(vals.shape), where=vals > ENTROPY_CLIP)
        out[idx] = -(vals * logs).sum(axis=1) / LOG2
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
