"""Reference implementations shared by several test modules. Each is
built from numpy alone (np.kron, index sums, eigvalsh), independent of
the package code it checks. The one package name they read is
`linalg.ENTROPY_CLIP`, the rule for what is too small to count, so that
they drop the eigenvalues and outcomes the package drops."""

import numpy as np

from discordlim.linalg import ENTROPY_CLIP

# sigma_x, sigma_y, sigma_z.
PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))


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


def spectrum_bits(vals):
    """Entropy in bits of a spectrum, in the arithmetic of
    `linalg.entropy_of_spectrum`, its clip included, so that the two
    compare with ==."""
    logs = np.log(vals, out=np.zeros(vals.shape), where=vals > ENTROPY_CLIP)
    return float(-(vals * logs).sum() / np.log(2.0))


def projectors(direction):
    """The two projectors (1 +- n.sigma) / 2 along a unit Bloch vector n."""
    n_sigma = sum(c * s for c, s in zip(direction, PAULIS))
    return (np.eye(2) + n_sigma) / 2, (np.eye(2) - n_sigma) / 2


def kron_branches(rho, elements):
    """B_i = Tr_A[(1 x E_i) rho] of a bipartite state for each POVM
    element, each element lifted with np.kron and the apparatus traced out
    by index sums."""
    lift = np.eye(rho.dims[0])
    return [brute_partial_trace(np.kron(lift, e) @ rho.mat, rho.dims, [0]) for e in elements]


def post_measurement_ensemble(rho, elements):
    """(p_i, B_i / p_i) per outcome of the branches; an outcome with
    p_i <= ENTROPY_CLIP is dropped."""
    ens = []
    for b in kron_branches(rho, elements):
        p = np.trace(b).real
        if p > ENTROPY_CLIP:
            ens.append((p, b / p))
    return ens


def oracle_j(rho, elements):
    """J = S(rho^S) - sum_i p_i S(B_i / p_i) in bits, one outcome at a time:
    an eigvalsh of each conditional state of the ensemble."""
    j = spectrum_bits(np.linalg.eigvalsh(brute_partial_trace(rho.mat, rho.dims, [0])))
    for p, cond in post_measurement_ensemble(rho, elements):
        j -= p * spectrum_bits(np.linalg.eigvalsh((cond + cond.conj().T) / 2))
    return j


def four_by_four_cloned_info(alpha, beta):
    """I(S:R1) of the flagged cloner outputs 1/2 |0><0| x |alpha><alpha| +
    1/2 |1><1| x |beta><beta| over S x R1 x R2: rho^{S R1} as a 4x4
    matrix with the blocks Tr_R2 |alpha><alpha| / 2 and Tr_R2 |beta><beta| / 2,
    then one eigvalsh of it and one of each marginal's Hermitian part."""
    v = np.array([alpha, beta]).reshape(2, 2, 1, 2)  # (output, R1, 1, R2)
    red = np.zeros((4, 4), dtype=complex)
    red[:2, :2], red[2:, 2:] = (0.5 * (v * v.conj().swapaxes(1, 2))).sum(axis=-1)
    r = red.reshape(2, 2, 2, 2)
    s_s, s_r = (spectrum_bits(np.linalg.eigvalsh((m + m.conj().T) / 2))
                for m in (r.trace(axis1=1, axis2=3), r.trace(axis1=0, axis2=2)))
    return s_s + s_r - spectrum_bits(np.linalg.eigvalsh(red))
