"""Reference implementations shared by several test modules. Each is
built from np.kron and index sums alone, independent of the package code
it checks."""

import numpy as np


def brute_partial_trace(mat, dims, keep):
    """Index-summation reference for the partial trace."""
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((dk, dk), dtype=complex)
    t = mat.reshape(tuple(dims) * 2)
    for row in np.ndindex(*[dims[i] for i in keep]):
        for col in np.ndindex(*[dims[i] for i in keep]):
            acc = 0.0
            for tr in np.ndindex(*[dims[i] for i in traced]) if traced else [()]:
                idx_r = [0] * n
                idx_c = [0] * n
                for pos, i in enumerate(keep):
                    idx_r[i] = row[pos]
                    idx_c[i] = col[pos]
                for pos, i in enumerate(traced):
                    idx_r[i] = tr[pos]
                    idx_c[i] = tr[pos]
                acc += t[tuple(idx_r) + tuple(idx_c)]
            r = np.ravel_multi_index(row, [dims[i] for i in keep]) if len(keep) > 1 else row[0]
            c = np.ravel_multi_index(col, [dims[i] for i in keep]) if len(keep) > 1 else col[0]
            out[r, c] = acc
    return out


def kron_flagged_mixture(a, b):
    """1/2 |0><0| x |a><a| + 1/2 |1><1| x |b><b| built with np.kron."""
    return (0.5 * np.kron(np.diag([1.0, 0.0]), np.outer(a, a.conj()))
            + 0.5 * np.kron(np.diag([0.0, 1.0]), np.outer(b, b.conj())))
