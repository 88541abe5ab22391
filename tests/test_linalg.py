import ast
import copy
import math
import pickle
from pathlib import Path

import numpy as np
import pytest

from discordlim import correlations as corr
from discordlim import linalg as la
from discordlim import protocols as proto
from discordlim import verify
from discordlim.koashi_winter import entanglement_of_formation, example_branches, example_state
from references import brute_partial_trace

BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)


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
        # Three qubits, and a four-factor layout with a qutrit, where up to
        # three factors are traced out in one reduction.
        for dims, keeps in (((2, 2, 2), ([0], [1], [2], [0, 2], [1, 2])),
                            ((2, 3, 2, 2), ([0], [2], [1, 3], [0, 2], [0, 1, 3]))):
            mat = la.random_density_matrix(int(np.prod(dims)), 5)
            rho = la.DensityMatrix(mat, dims)
            for keep in keeps:
                got = la.partial_trace(rho, keep).mat
                assert np.allclose(got, brute_partial_trace(mat, dims, keep), atol=1e-12)

    def test_keep_indices_must_be_integers(self):
        # Numpy integers and bools are integers; 0.7, 1.0 and "1" raise
        # (rows of test_contract.py).
        rho = example_state(0.1)
        want = la.partial_trace(rho, [1]).mat
        for index in (np.int64(1), np.uint8(1), True):
            assert np.array_equal(la.partial_trace(rho, [index]).mat, want)

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

    def test_a_pure_spectrum_reads_plus_zero(self):
        # -0.0 == 0.0, so only the sign bit tells them apart.
        product = la.DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]), (2, 2))
        for value in (la.binary_entropy(0.0), la.binary_entropy(1.0),
                      la.von_neumann_entropy(product), entanglement_of_formation(product)):
            assert value == 0.0
            assert math.copysign(1.0, value) == 1.0

    def test_entropy_of_a_stack_is_each_spectrum_entropy(self):
        vals = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, -1e-17], [0.75, 0.25, 0.0]])
        want = [la.entropy_of_spectrum(v) for v in vals]
        assert la.entropy_of_spectrum(vals).tolist() == want
        assert want == pytest.approx([1.0, 0.0, la.binary_entropy(0.25)], abs=1e-15)

    def test_verify_suite(self, run_suite):
        # Additivity over 2 x 3 products, unitary invariance in dimension 4.
        run_suite(verify.suite_linalg_entropy, seed=11, samples=100, checks=200)

    def test_kept_spectrum_gives_the_eigensolve_value_bit_for_bit(self):
        # A DensityMatrix keeps the spectrum of its PSD check; its entropy
        # equals that of a fresh eigensolve of its matrix, with ==.
        for dim, dims in ((2, (2,)), (4, (2, 2)), (6, (2, 3)), (8, (2, 2, 2))):
            for seed in range(25):
                rho = la.DensityMatrix(la.random_density_matrix(dim, seed, 1 + seed % dim), dims)
                want = la.entropy_of_spectrum(np.linalg.eigvalsh(rho.mat))
                assert la.von_neumann_entropy(rho) == want
                assert la.von_neumann_entropy(rho.mat) == want


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
        assert np.array_equal(la.random_pure_state(4, np.uint8(9)).vec,
                              la.random_pure_state(4, 9).vec)

    def test_column_norms(self):
        for seed in range(100):
            v = la.random_isometry_mat(3, 5, seed)
            assert np.allclose(np.linalg.norm(v, axis=0), 1.0, atol=1e-10)


class TestValueTypes:
    def test_value_types_own_read_only_copies(self):
        # Validation holds for the stored array: a change to the caller's
        # array afterwards does not reach the value, and the value's own
        # array cannot be written.
        m = np.eye(2, dtype=complex) / 2
        rho = la.DensityMatrix(m, (2,))
        m[0, 0], m[1, 1] = 5.0, -4.0
        assert la.von_neumann_entropy(rho) == 1.0
        assert np.array_equal(rho.mat, np.eye(2) / 2)
        v = np.array([1.0, 0.0], dtype=complex)
        psi = la.StateVector(v, (2,))
        v[0] = 7.0
        assert np.array_equal(psi.vec, [1.0, 0.0])
        for arr in (rho.mat, psi.vec, psi.to_density().mat):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_copies_own_read_only_arrays(self):
        # A copy or an unpickled value is built again by its constructor: it
        # cannot be written either, so its kept spectrum cannot go stale.
        rho = la.DensityMatrix(la.random_density_matrix(4, 3), (2, 2))
        psi = la.random_pure_state(4, 3)
        m = corr.qubit_projective_povm(0.3, 0.2)
        iso = proto.random_broadcast_isometry(2, (2, 2), 2, 5)
        for twin in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            arrays = (twin(rho).mat, twin(rho)._spectrum, twin(psi).vec, *twin(m).elements,
                      twin(m)._stack, twin(iso).matrix)
            assert not any(a.flags.writeable for a in arrays)
            assert la.von_neumann_entropy(twin(rho)) == la.von_neumann_entropy(rho)

    def test_values_compare_and_hash_by_identity(self):
        # An array field has no single truth value, so two values are equal
        # only when they are the same object; a copy is built anew. The
        # reports and channels that hold values compare field by field, so
        # a shallow copy of one, sharing its values, is equal to it.
        sigma = la.DensityMatrix(np.eye(2) / 2, (2,))
        values = (
            lambda: example_state(0.3),
            lambda: la.random_pure_state(4, 3),
            lambda: corr.qubit_projective_povm(0.3, 0.2),
            lambda: proto.random_broadcast_isometry(2, (2, 2), 2, 5),
        )
        holders = (
            lambda: corr.classical_correlation(example_state(0.3)),
            lambda: proto.optimal_state_dependent_cloner(*example_branches(0.3)),
            lambda: proto.PreparedEnsembleChannel(corr.qubit_projective_povm(0.3, 0.2),
                                                  (sigma, sigma)),
        )
        for kinds, copy_equal in ((values, False), (holders, True)):
            for make in kinds:
                a, b = make(), make()
                assert (a == a) is True and (a == b) is False and (a != b) is True
                assert (a == copy.copy(a)) is copy_equal
                assert len({a, a, b, copy.copy(a)}) == 3 - copy_equal

    def test_accepts_numpy_integer_dims(self):
        rho = la.DensityMatrix(np.eye(4) / 4, (np.int64(2), np.uint8(2)))
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)
        assert la.StateVector(np.ones(4) / 2, (np.int32(4),)).dims == (4,)

    def test_value_types_live_in_linalg(self):
        # The rules the value types share (_owned, _Rebuilt) stay private to
        # the module that defines all four of them.
        for value_type in (la.DensityMatrix, la.StateVector, la.Povm, la.BroadcastIsometry):
            assert value_type.__module__ == "discordlim.linalg"
        assert corr.Povm is la.Povm and proto.BroadcastIsometry is la.BroadcastIsometry
        for path in Path(la.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = {a.name for a in node.names}
                    assert not names & {"_owned", "_Rebuilt"}, path.name
