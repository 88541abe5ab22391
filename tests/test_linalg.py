import warnings

import numpy as np
import pytest

from discordlim import correlations as corr
from discordlim import linalg as la
from discordlim import verify
from discordlim.koashi_winter import example_state

BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)


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


class TestPartialTrace:
    def test_bell_reduction(self):
        rho = la.StateVector(BELL, (2, 2)).to_density()
        red = la.partial_trace(rho, [0])
        assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-12)

    def test_product_state(self):
        r1 = la.random_density_matrix(2, 1)
        r2 = la.random_density_matrix(3, 2)
        rho = la.DensityMatrix(np.kron(r1, r2), (2, 3))
        assert np.allclose(la.partial_trace(rho, [0]).mat, r1, atol=1e-12)

    def test_example_state_reduction_vs_brute_force(self):
        rho = example_state(np.pi / 8)
        red = la.partial_trace(rho, [0])
        ref = brute_partial_trace(rho.mat, rho.dims, [0])
        assert np.allclose(red.mat, ref, atol=1e-12)
        assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-12)

    def test_three_party_vs_brute_force(self):
        mat = la.random_density_matrix(8, 5)
        rho = la.DensityMatrix(mat, (2, 2, 2))
        for keep in ([0], [1], [2], [0, 2], [1, 2]):
            got = la.partial_trace(rho, keep).mat
            assert np.allclose(got, brute_partial_trace(mat, (2, 2, 2), keep), atol=1e-12)

    def test_errors(self):
        rho = example_state(0.1)
        with pytest.raises(ValueError):
            la.partial_trace(rho, [])
        with pytest.raises(ValueError):
            la.partial_trace(rho, [2])

    def test_preserves_trace_and_hermiticity_on_random_states(self):
        for k in range(1000):
            rho = la.DensityMatrix(la.random_density_matrix(6, k), (2, 3))
            red = la.partial_trace(rho, [k % 2])
            assert abs(np.trace(red.mat) - 1.0) < 1e-10
            assert np.max(np.abs(red.mat - red.mat.conj().T)) < 1e-10

    def test_verify_suite_on_two_qubit_states(self, run_suite):
        run_suite(verify.suite_linalg_partial_trace, seed=11, samples=100, checks=400)


class TestEigenvalues:
    """`_spectra`, the eigenvalue routine behind every J value: traces and
    eigenvalue deviations from the mean, closed form for 2x2 and one
    batched `eigvalsh` otherwise."""

    @staticmethod
    def eigenvalues(m):
        m = np.asarray(m, dtype=complex)
        tr, dev = corr._spectra(m[None])
        return tr[0] / m.shape[0] + dev[0]

    def test_diagonal(self):
        assert np.allclose(self.eigenvalues(np.diag([0.25, 0.75])), [0.25, 0.75])

    def test_pauli_x(self):
        sx = np.array([[0, 1], [1, 0]])
        assert np.allclose(self.eigenvalues(sx), [-1, 1])

    def test_char_poly_sign_changes_bracket_eigenvalues(self):
        # Determinant evaluation (LU-based) as an eigensolver-independent
        # oracle: the characteristic polynomial changes sign across each
        # returned eigenvalue.
        m = la.hermitianize(
            np.random.default_rng(11).standard_normal((8, 8))
            + 1j * np.random.default_rng(12).standard_normal((8, 8))
        )
        vals = self.eigenvalues(m)

        def char(x):
            return np.linalg.det(m - x * np.eye(8)).real

        gaps = np.diff(vals)
        assert np.all(gaps > 1e-6)  # distinct with overwhelming probability
        brackets = (
            [vals[0] - 1.0]
            + [(vals[i] + vals[i + 1]) / 2 for i in range(7)]
            + [vals[-1] + 1.0]
        )
        for i in range(8):
            assert char(brackets[i]) * char(brackets[i + 1]) < 0


class TestEntropy:
    def test_pure_state(self):
        rho = la.random_pure_state(4, 0).to_density()
        assert la.von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_qubit(self):
        assert la.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_spectrum_075_025(self):
        # Frozen from 50-digit evaluation of -p lg p - (1-p) lg (1-p) at p=1/4.
        expected = 0.81127812445913283
        rho = np.diag([0.75, 0.25])
        assert la.von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)
        assert la.binary_entropy(0.25) == pytest.approx(expected, abs=1e-12)

    def test_binary_entropy_bounds_and_symmetry(self):
        assert la.binary_entropy(0.0) == 0.0
        assert la.binary_entropy(1.0) == 0.0
        assert la.binary_entropy(0.5) == pytest.approx(1.0)
        for p in np.linspace(0, 1, 101):
            assert la.binary_entropy(p) == pytest.approx(la.binary_entropy(1 - p), abs=1e-12)
        with pytest.raises(ValueError):
            la.binary_entropy(1.5)

    def test_additivity(self):
        a = la.random_density_matrix(2, 21)
        b = la.random_density_matrix(4, 22)
        assert la.von_neumann_entropy(np.kron(a, b)) == pytest.approx(
            la.von_neumann_entropy(a) + la.von_neumann_entropy(b), abs=1e-9
        )

    def test_verify_suite(self, run_suite):
        # Additivity over 2 x 3 products, unitary invariance in dimension 4.
        run_suite(verify.suite_linalg_entropy, seed=11, samples=100, checks=200)

    def test_unitary_invariance(self):
        rho = la.random_density_matrix(5, 31)
        u = la.random_unitary(5, 32)
        assert la.von_neumann_entropy(u @ rho @ u.conj().T) == pytest.approx(
            la.von_neumann_entropy(rho), abs=1e-9
        )


class TestPurify:
    def test_pure_input_trivial_ancilla(self):
        psi = la.random_pure_state(3, 7)
        out = la.purify(psi.to_density())
        assert out.dims == (3, 1)
        assert abs(abs(np.vdot(out.vec, psi.vec)) - 1.0) < 1e-9

    def test_maximally_mixed_qubit(self):
        rho = la.DensityMatrix(np.eye(2) / 2, (2,))
        out = la.purify(rho)
        assert out.dims == (2, 2)
        back = la.partial_trace(out.to_density(), [0])
        assert np.allclose(back.mat, rho.mat, atol=1e-9)

    def test_example_state_roundtrip(self):
        rho = example_state(np.pi / 8)
        out = la.purify(rho)
        assert out.dims == (2, 2, 2)  # rank-2 purification
        back = la.partial_trace(out.to_density(), [0, 1])
        assert np.max(np.abs(back.mat - rho.mat)) < 1e-9

    def test_roundtrip_on_random_states(self, run_suite):
        # 50 states of dimension 4: roundtrip and spectrum range.
        run_suite(verify.suite_linalg_purify, seed=11, samples=50, checks=100)


class TestRandomStates:
    def test_square_isometry_is_unitary(self):
        v = la.random_isometry_mat(2, 2, 5)
        assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-10)
        assert np.allclose(v @ v.conj().T, np.eye(2), atol=1e-10)

    def test_determinism(self):
        assert np.array_equal(la.random_isometry_mat(2, 4, 9), la.random_isometry_mat(2, 4, 9))
        assert np.array_equal(la.random_pure_state(4, 9).vec, la.random_pure_state(4, 9).vec)

    def test_column_norms(self):
        for seed in range(100):
            v = la.random_isometry_mat(3, 5, seed)
            assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-10)

    def test_rejects_shrinking_map(self):
        with pytest.raises(ValueError):
            la.random_isometry_mat(4, 2, 0)

    def test_density_matrix_eigenvalues(self):
        for k in range(100):
            vals = np.linalg.eigvalsh(la.random_density_matrix(5, k))
            assert vals[0] >= -1e-10 and vals[-1] <= 1 + 1e-10
            assert abs(vals.sum() - 1.0) < 1e-9


class TestValueTypes:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            la.DensityMatrix(np.eye(2), (2,))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            la.DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]), (2,))

    def test_rejects_negative_operator(self):
        with pytest.raises(ValueError):
            la.DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_rejects_wrong_dims(self):
        with pytest.raises(ValueError):
            la.DensityMatrix(np.eye(4) / 4, (2, 3))

    def test_rejects_unnormalized_vector(self):
        with pytest.raises(ValueError):
            la.StateVector(np.array([1.0, 1.0]), (2,))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_rejects_non_finite_entries(self, bad):
        # Every `x > tol` test is False for NaN: the checks must not pass it.
        # The caller gets the ValueError, with no numpy warning before it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pos in ((0, 0), (0, 1)):
                mat = np.eye(2, dtype=complex) / 2
                mat[pos] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    la.DensityMatrix(mat, (2,))
            with pytest.raises(ValueError, match="non-finite"):
                la.StateVector(np.array([1.0, bad]), (2,))

    def test_binary_entropy_rejects_nan(self):
        with pytest.raises(ValueError):
            la.binary_entropy(float("nan"))
