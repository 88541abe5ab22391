import math

import numpy as np
import pytest

from discordlim import correlations as corr
from discordlim import linalg as la
from discordlim.koashi_winter import classical_correlation_kw, example_state

BELL = la.StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2)).to_density()
BASIS_POVM = corr.qubit_projective_povm(0.0, 0.0)


def random_two_qubit_state(seed):
    return la.DensityMatrix(la.random_density_matrix(4, seed), (2, 2))


class TestMutualInformation:
    def test_bell_state(self):
        assert corr.mutual_information(BELL) == pytest.approx(2.0, abs=1e-9)

    def test_product_state(self):
        rho = la.DensityMatrix(
            la.tensor(la.random_density_matrix(2, 1), la.random_density_matrix(2, 2)), (2, 2)
        )
        assert corr.mutual_information(rho) == pytest.approx(0.0, abs=1e-9)

    def test_classical_correlated_pair(self):
        assert corr.mutual_information(example_state(0.0)) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_bipartite(self):
        rho = la.DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        with pytest.raises(ValueError):
            corr.mutual_information(rho)


class TestPostMeasurementEnsemble:
    def test_classical_state_basis_measurement(self):
        ens = corr.post_measurement_ensemble(example_state(0.0), BASIS_POVM)
        assert ens.probabilities() == pytest.approx([0.5, 0.5])
        assert np.allclose(ens.outcomes[0][1].mat, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(ens.outcomes[1][1].mat, np.diag([0.0, 1.0]), atol=1e-12)

    def test_trivial_povm(self):
        rho = random_two_qubit_state(3)
        ens = corr.post_measurement_ensemble(rho, corr.Povm((np.eye(2),)))
        assert len(ens.outcomes) == 1
        p, cond = ens.outcomes[0]
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(cond.mat, la.partial_trace(rho, [0]).mat, atol=1e-12)

    def test_example_state_matches_hand_expansion(self):
        # Hand-expanded matrix elements: measuring |0><0| on the apparatus
        # picks out the first column amplitudes of each branch.
        theta = np.pi / 8
        ens = corr.post_measurement_ensemble(example_state(theta), BASIS_POVM)
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        assert ens.probabilities() == pytest.approx([0.5, 0.5], abs=1e-12)
        assert np.allclose(ens.outcomes[0][1].mat, np.diag([c2, s2]), atol=1e-12)
        assert np.allclose(ens.outcomes[1][1].mat, np.diag([s2, c2]), atol=1e-12)

    def test_dimension_mismatch(self):
        rho = la.DensityMatrix(np.eye(6) / 6, (2, 3))
        with pytest.raises(ValueError):
            corr.post_measurement_ensemble(rho, BASIS_POVM)


class TestAccessibleInformation:
    def test_bell_any_projective(self):
        for t, f in ((0.0, 0.0), (1.1, 2.3), (np.pi / 2, 0.4)):
            m = corr.qubit_projective_povm(t, f)
            assert corr.accessible_information(BELL, m) == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        rho = la.DensityMatrix(
            la.tensor(la.random_density_matrix(2, 4), la.random_density_matrix(2, 5)), (2, 2)
        )
        for seed in range(5):
            m = corr.random_povm(2, seed)
            assert corr.accessible_information(rho, m) == pytest.approx(0.0, abs=1e-9)

    def test_example_state_direct_arithmetic(self):
        # Compose the hand-expanded ensemble with binary entropies.
        theta = np.pi / 8
        c2 = math.cos(theta) ** 2
        expected = 1.0 - la.binary_entropy(c2)
        got = corr.accessible_information(example_state(theta), BASIS_POVM)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        rho = la.DensityMatrix(np.eye(6) / 6, (2, 3))
        with pytest.raises(ValueError, match="POVM dimension does not match the apparatus"):
            corr.accessible_information(rho, BASIS_POVM)


class TestDiscordGivenMeasurement:
    def test_bell_basis(self):
        assert corr.discord_given_measurement(BELL, BASIS_POVM) == pytest.approx(1.0, abs=1e-9)

    def test_classical_state(self):
        got = corr.discord_given_measurement(example_state(0.0), BASIS_POVM)
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_product_state(self):
        rho = la.DensityMatrix(
            la.tensor(la.random_density_matrix(2, 6), la.random_density_matrix(2, 7)), (2, 2)
        )
        assert corr.discord_given_measurement(rho, BASIS_POVM) == pytest.approx(0.0, abs=1e-9)


class TestQubitProjectivePovm:
    def test_computational_basis(self):
        m = corr.qubit_projective_povm(0.0, 0.0)
        assert np.allclose(m.elements[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_x_basis(self):
        m = corr.qubit_projective_povm(np.pi / 2, 0.0)
        assert np.allclose(m.elements[0], np.full((2, 2), 0.5), atol=1e-12)

    def test_completeness_on_angle_grid(self):
        for t in np.linspace(0, np.pi, 32):
            for f in np.linspace(0, 2 * np.pi, 32):
                m = corr.qubit_projective_povm(t, f)
                assert np.max(np.abs(sum(m.elements) - np.eye(2))) < 1e-12


class TestPovmType:
    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            corr.Povm((np.diag([2.0, -1.0]), np.diag([-1.0, 2.0])))

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            corr.Povm((np.diag([0.5, 0.5]),))

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                corr.Povm((np.diag([1.0, bad]), np.diag([0.0, 1.0])))

    def test_random_povm_valid(self):
        for n in (2, 3, 4):
            m = corr.random_povm(n, seed=n)
            assert len(m.elements) == n


class TestClassicalCorrelation:
    def test_classical_state(self):
        rep = corr.classical_correlation(example_state(0.0))
        assert rep.classical_info == pytest.approx(1.0, abs=1e-9)
        assert rep.discord == pytest.approx(0.0, abs=1e-9)

    def test_product_endpoint(self):
        rep = corr.classical_correlation(example_state(np.pi / 4))
        assert rep.classical_info == pytest.approx(0.0, abs=1e-9)
        assert rep.discord == pytest.approx(0.0, abs=1e-9)

    def test_bell_state(self):
        rep = corr.classical_correlation(BELL)
        assert rep.mutual_info == pytest.approx(2.0, abs=1e-9)
        assert rep.classical_info == pytest.approx(1.0, abs=1e-8)
        assert rep.discord == pytest.approx(1.0, abs=1e-8)

    def test_agrees_with_koashi_winter_route(self):
        rho = example_state(np.pi / 8)
        rep = corr.classical_correlation(rho)
        assert rep.classical_info == pytest.approx(classical_correlation_kw(rho), abs=1e-4)

    def test_identity_holds_exactly(self):
        for seed in range(20):
            rep = corr.classical_correlation(random_two_qubit_state(seed))
            assert rep.classical_info + rep.discord == pytest.approx(rep.mutual_info, abs=1e-8)
            assert rep.mutual_info >= -1e-8
            assert rep.classical_info >= -1e-8
            assert rep.discord >= -1e-8

    def test_rejects_non_qubit_apparatus(self):
        rho = la.DensityMatrix(np.eye(6) / 6, (2, 3))
        with pytest.raises(ValueError):
            corr.classical_correlation(rho)

    def test_determinism(self):
        rho = random_two_qubit_state(42)
        r1 = corr.classical_correlation(rho)
        r2 = corr.classical_correlation(rho)
        assert r1.classical_info == r2.classical_info
        assert r1.discord == r2.discord
        assert all(np.array_equal(a, b)
                   for a, b in zip(r1.measurement.elements, r2.measurement.elements))

    def test_three_outcome_mode_matches_projective_on_example_family(self):
        for theta in (0.0, np.pi / 8, np.pi / 5):
            rho = example_state(min(theta, np.pi / 4))
            r2 = corr.classical_correlation(rho, povm_outcomes=2)
            r3 = corr.classical_correlation(rho, povm_outcomes=3)
            assert r3.classical_info >= r2.classical_info - 1e-8
            assert r3.classical_info == pytest.approx(r2.classical_info, abs=1e-6)


class TestOptimizerProperties:
    def test_sampled_povms_never_beat_optimizer(self):
        for seed in range(20):
            rho = random_two_qubit_state(seed + 300)
            rep = corr.classical_correlation(rho)
            assert rep.classical_info <= rep.mutual_info + 1e-8
            for n_out in (2, 3):
                for j in range(5):
                    m = corr.random_povm(n_out, 1000 * seed + j)
                    jval = corr.accessible_information(rho, m)
                    assert -1e-8 <= jval <= rep.classical_info + 1e-8

    def test_cq_states_have_zero_discord(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            p = rng.uniform(0.1, 0.9)
            mat = p * la.tensor(la.random_density_matrix(2, seed + 1), np.diag([1.0, 0.0])) + (
                1 - p
            ) * la.tensor(la.random_density_matrix(2, seed + 2), np.diag([0.0, 1.0]))
            rep = corr.classical_correlation(la.DensityMatrix(mat, (2, 2)))
            assert abs(rep.discord) < 1e-6

    def test_local_unitary_invariance(self):
        for seed in range(100):
            rho = random_two_qubit_state(seed + 600)
            u = la.tensor(la.random_unitary(2, 2 * seed), la.random_unitary(2, 2 * seed + 1))
            rot = la.DensityMatrix(la.hermitianize(u @ rho.mat @ u.conj().T), (2, 2))
            r1 = corr.classical_correlation(rho)
            r2 = corr.classical_correlation(rot)
            assert abs(r1.classical_info - r2.classical_info) < 1e-6
            assert abs(r1.discord - r2.discord) < 1e-6

    def test_pure_state_factor_two_gap(self):
        for seed in range(30):
            psi = la.random_pure_state(4, seed + 900)
            rho = la.DensityMatrix(psi.to_density().mat, (2, 2))
            rep = corr.classical_correlation(rho)
            s_s = la.von_neumann_entropy(la.partial_trace(rho, [0]))
            assert abs(rep.discord - s_s) < 1e-6
            assert abs(rep.classical_info - s_s) < 1e-6
            assert abs(rep.mutual_info - 2 * s_s) < 1e-6
