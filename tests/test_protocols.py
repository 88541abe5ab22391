import warnings

import numpy as np
import pytest

from discordlim import correlations as corr
from discordlim import linalg as la
from discordlim import protocols as proto
from discordlim import verify
from discordlim.koashi_winter import classical_correlation_kw, example_branches, example_state

BASIS_POVM = corr.qubit_projective_povm(0.0, 0.0)


def qubit_flags():
    return tuple(la.DensityMatrix(np.diag([1.0 - i, float(i)]), (2,)) for i in range(2))


class TestMeasureAndPrepare:
    def test_equal_preparations_destroy_information(self):
        rho = example_state(0.1)
        sigma = la.DensityMatrix(la.random_density_matrix(2, 3), (2,))
        ch = proto.PreparedEnsembleChannel(BASIS_POVM, (sigma, sigma))
        out = proto.measure_and_prepare(rho, ch)
        assert corr.mutual_information(out) == pytest.approx(0.0, abs=1e-9)

    def test_perfect_classical_relay(self):
        ch = proto.PreparedEnsembleChannel(BASIS_POVM, qubit_flags())
        out = proto.measure_and_prepare(example_state(0.0), ch)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(out.mat, expected, atol=1e-12)
        assert corr.mutual_information(out) == pytest.approx(1.0, abs=1e-9)

    def test_data_processing_inequality(self):
        for seed in range(30):
            rho = la.DensityMatrix(la.random_density_matrix(4, seed), (2, 2))
            rng = np.random.default_rng(seed)
            m = corr.qubit_projective_povm(*rng.uniform([0, 0], [np.pi, 2 * np.pi]))
            sigmas = tuple(
                la.DensityMatrix(la.random_density_matrix(2, seed + 50 + i), (2,))
                for i in range(2)
            )
            out = proto.measure_and_prepare(rho, proto.PreparedEnsembleChannel(m, sigmas))
            assert corr.mutual_information(out) <= corr.mutual_information(rho) + 1e-8

    def test_outcome_count_mismatch(self):
        with pytest.raises(ValueError):
            proto.PreparedEnsembleChannel(BASIS_POVM, qubit_flags()[:1])

    def test_outputs_pass_partial_transpose_check(self, run_suite):
        run_suite(verify.suite_proto_entanglement_breaking, seed=11, samples=50, checks=50)


class TestLoccTransferInfo:
    def test_bell_basis_measurement(self):
        bell = la.StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2)).to_density()
        assert proto.locc_transfer_info(bell, BASIS_POVM) == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        rho = la.DensityMatrix(
            np.kron(la.random_density_matrix(2, 1), la.random_density_matrix(2, 2)), (2, 2)
        )
        for seed in range(5):
            m = corr.random_povm(2, seed)
            assert proto.locc_transfer_info(rho, m) == pytest.approx(0.0, abs=1e-9)

    def test_equals_accessible_information(self):
        for seed in range(50):
            rho = la.DensityMatrix(la.random_density_matrix(4, seed + 400), (2, 2))
            m = corr.random_povm(2 + seed % 2, seed)
            assert proto.locc_transfer_info(rho, m) == pytest.approx(
                corr.accessible_information(rho, m), abs=1e-9
            )

    def test_best_measurement_attains_ic(self):
        rho = example_state(np.pi / 8)
        rep = corr.classical_correlation(rho)
        got = proto.locc_transfer_info(rho, rep.measurement)
        assert got == pytest.approx(rep.classical_info, abs=1e-6)
        assert got == pytest.approx(classical_correlation_kw(rho), abs=1e-4)

    def test_never_beats_optimizer(self):
        rho = example_state(0.2)
        ic = corr.classical_correlation(rho).classical_info
        for seed in range(100):
            m = corr.random_povm(2 + seed % 3, seed)
            assert proto.locc_transfer_info(rho, m) <= ic + 1e-8


class TestCloner:
    def test_orthogonal_inputs_clone_perfectly(self):
        psi, phi = example_branches(0.0)
        out = proto.optimal_state_dependent_cloner(psi, phi)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(out.alpha.vec, np.kron(psi.vec, psi.vec))) == pytest.approx(1.0, abs=1e-9)
        assert abs(np.vdot(out.beta.vec, np.kron(phi.vec, phi.vec))) == pytest.approx(1.0, abs=1e-9)

    def test_identical_inputs(self):
        psi, phi = example_branches(np.pi / 4)
        out = proto.optimal_state_dependent_cloner(psi, phi)
        assert out.fidelity == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.alpha.vec, out.beta.vec, atol=1e-12)

    def test_outputs_stay_in_target_plane(self):
        for theta in np.linspace(0.01, np.pi / 4 - 0.01, 20):
            psi, phi = example_branches(theta)
            out = proto.optimal_state_dependent_cloner(psi, phi)
            pp = np.kron(psi.vec, psi.vec)
            ff = np.kron(phi.vec, phi.vec)
            basis = np.linalg.qr(np.stack([pp, ff], axis=1))[0]
            for v in (out.alpha.vec, out.beta.vec):
                residual = v - basis @ (basis.conj().T @ v)
                assert np.linalg.norm(residual) < 1e-8

    def test_rejects_non_qubit(self):
        big = la.random_pure_state(3, 1)
        with pytest.raises(ValueError):
            proto.optimal_state_dependent_cloner(big, big)


class TestCloningRecipientInfo:
    def test_endpoints(self):
        assert proto.cloning_recipient_info(0.0) == pytest.approx(1.0, abs=1e-9)
        assert proto.cloning_recipient_info(np.pi / 4) == pytest.approx(0.0, abs=1e-9)

    def test_recipients_symmetric(self):
        for theta in (0.1, np.pi / 8, 0.7):
            psi, phi = example_branches(theta)
            out = proto.optimal_state_dependent_cloner(psi, phi)
            p0 = np.diag([1.0, 0.0])
            p1 = np.diag([0.0, 1.0])
            mat = 0.5 * np.kron(p0, out.alpha.to_density().mat) + 0.5 * np.kron(
                p1, out.beta.to_density().mat
            )
            rho = la.DensityMatrix(mat, (2, 2, 2))
            i_r1 = corr.mutual_information(la.partial_trace(rho, [0, 1]))
            i_r2 = corr.mutual_information(la.partial_trace(rho, [0, 2]))
            assert i_r1 == pytest.approx(i_r2, abs=1e-9)
            assert proto.cloning_recipient_info(theta) == pytest.approx(i_r1, abs=1e-12)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            proto.cloning_recipient_info(1.0)


class TestCrossover:
    def test_root_in_reported_window(self):
        res = proto.find_crossover()
        assert 0.090 * np.pi < res.theta < 0.096 * np.pi
        assert abs(res.residual_bits) < 1e-5

    def test_gap_signs(self):
        assert proto._locc_minus_cloning(0.05 * np.pi) > 0
        assert proto._locc_minus_cloning(0.2 * np.pi) < 0

    def test_deterministic(self):
        assert proto.find_crossover() == proto.find_crossover()


class TestBroadcast:
    def test_classical_copy_gives_each_recipient_one_bit(self):
        out = proto.apply_broadcast(example_state(0.0), proto.classical_copy_isometry())
        infos = proto.recipient_infos(out)
        assert infos == pytest.approx([1.0, 1.0], abs=1e-9)
        s_s = la.von_neumann_entropy(la.partial_trace(out, [0]))
        assert infos[0] + infos[1] == pytest.approx(2 * s_s, abs=1e-8)

    def test_rejects_non_finite_isometry(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (np.nan, np.inf, -np.inf):
                v = proto.classical_copy_isometry().matrix.copy()
                v[0, 1] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    proto.BroadcastIsometry(v, (2, 2), 1)

    def test_pass_through_embedding(self):
        # Apparatus goes straight to R1, R2 held in a fixed pure state.
        v = np.zeros((4, 2))
        v[0, 0] = 1.0  # |0> -> |0>|0>
        v[2, 1] = 1.0  # |1> -> |1>|0>
        iso = proto.BroadcastIsometry(v, (2, 2), 1)
        rho = example_state(np.pi / 8)
        out = proto.apply_broadcast(rho, iso)
        infos = proto.recipient_infos(out)
        assert infos[0] == pytest.approx(corr.mutual_information(rho), abs=1e-9)
        assert infos[1] == pytest.approx(0.0, abs=1e-9)

    def test_dimension_mismatch(self):
        iso = proto.random_broadcast_isometry(3, (2, 2), 1, 0)
        with pytest.raises(ValueError):
            proto.apply_broadcast(example_state(0.1), iso)

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            proto.BroadcastIsometry(np.ones((4, 2)), (2, 2), 1)


class TestAverageBound:
    def test_classical_copy_saturates_at_theta_zero(self):
        # Purify the classical pair so the bound applies to a pure input.
        rho = example_state(0.0)
        out = proto.apply_broadcast(rho, proto.classical_copy_isometry())
        s_s = la.von_neumann_entropy(la.partial_trace(out, [0]))
        infos = proto.recipient_infos(out)
        assert np.mean(infos) == pytest.approx(s_s, abs=1e-8)
