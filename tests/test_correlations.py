import math

import numpy as np
import pytest

from discordlim import correlations as corr
from discordlim import linalg as la
from discordlim import verify
from discordlim.koashi_winter import example_state
from references import brute_partial_trace

BELL = la.StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2)).to_density()
BASIS_POVM = corr.qubit_projective_povm(0.0, 0.0)


PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))
# Rows: c of Phi+, Phi-, Psi+, Psi- in 1/4 (1 + sum_i c_i sigma_i x sigma_i).
BELL_CORRELATIONS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])


def bell_diagonal_classical_info(c):
    """Exact I^c of a Bell-diagonal state (Luo, PRA 77, 042303 (2008)):
    with c = max |c_i|, I^c = [(1 - c) log2(1 - c) + (1 + c) log2(1 + c)] / 2."""
    c = np.max(np.abs(c))
    return 0.5 * ((1 - c) * np.log2(1 - c) + (1 + c) * np.log2(1 + c))


def random_two_qubit_state(seed):
    return la.DensityMatrix(la.random_density_matrix(4, seed), (2, 2))


def kron_branches(rho, m):
    """Reference for the branch contraction: B_i = Tr_A[(1 x E_i) rho],
    each element lifted with np.kron and the apparatus traced out by index
    sums."""
    lift = np.eye(rho.dims[0])
    return [brute_partial_trace(np.kron(lift, e) @ rho.mat, rho.dims, [0]) for e in m.elements]


def post_measurement_ensemble(rho, m):
    """(probability, conditional system state) per outcome, from the
    reference branches; near-zero-probability outcomes dropped."""
    ens = []
    for b in kron_branches(rho, m):
        p = np.trace(b).real
        if p > corr.ZERO_PROB:
            ens.append((p, b / p))
    return ens


def discord_given_measurement(rho, m):
    """Discord relative to a fixed measurement: I - J."""
    return corr.mutual_information(rho) - corr.accessible_information(rho, m)


class TestMutualInformation:
    def test_bell_state(self):
        assert corr.mutual_information(BELL) == pytest.approx(2.0, abs=1e-9)

    def test_product_state(self):
        rho = la.DensityMatrix(
            np.kron(la.random_density_matrix(2, 1), la.random_density_matrix(2, 2)), (2, 2)
        )
        assert corr.mutual_information(rho) == pytest.approx(0.0, abs=1e-9)

    def test_classical_correlated_pair(self):
        assert corr.mutual_information(example_state(0.0)) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_bipartite(self):
        rho = la.DensityMatrix(np.eye(8) / 8, (2, 2, 2))
        with pytest.raises(ValueError):
            corr.mutual_information(rho)

    def test_kept_spectrum_gives_the_three_eigensolve_value_bit_for_bit(self):
        # The raw route: an eigensolve of each marginal and of the state.
        def three_eigensolves(rho):
            r = rho.mat.reshape(rho.dims * 2)
            marginals = (la.hermitianize(np.trace(r, axis1=1, axis2=3)),
                         la.hermitianize(np.trace(r, axis1=0, axis2=2)), rho.mat)
            s_s, s_a, s_sa = (la.entropy_of_spectrum(np.linalg.eigvalsh(m)) for m in marginals)
            return s_s + s_a - s_sa

        states = [example_state(t) for t in np.linspace(0.0, np.pi / 4, 51)]
        for d_s, d_a in ((2, 2), (3, 2), (2, 3)):
            for rank in (1, 2, None):
                states += [la.DensityMatrix(la.random_density_matrix(d_s * d_a, seed, rank),
                                            (d_s, d_a)) for seed in range(20)]
        for rho in states:
            assert corr.mutual_information(rho) == three_eigensolves(rho)


class TestPostMeasurementEnsemble:
    def test_classical_state_basis_measurement(self):
        ens = post_measurement_ensemble(example_state(0.0), BASIS_POVM)
        assert [p for p, _ in ens] == pytest.approx([0.5, 0.5])
        assert np.allclose(ens[0][1], np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(ens[1][1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_trivial_povm(self):
        rho = random_two_qubit_state(3)
        ens = post_measurement_ensemble(rho, corr.Povm((np.eye(2),)))
        assert len(ens) == 1
        p, cond = ens[0]
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(cond, la.partial_trace(rho, [0]).mat, atol=1e-12)

    def test_example_state_matches_hand_expansion(self):
        # Hand-expanded matrix elements: measuring |0><0| on the apparatus
        # picks out the first column amplitudes of each branch.
        theta = np.pi / 8
        ens = post_measurement_ensemble(example_state(theta), BASIS_POVM)
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        assert [p for p, _ in ens] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert np.allclose(ens[0][1], np.diag([c2, s2]), atol=1e-12)
        assert np.allclose(ens[1][1], np.diag([s2, c2]), atol=1e-12)

    def test_dimension_mismatch(self):
        rho = la.DensityMatrix(np.eye(6) / 6, (2, 3))
        with pytest.raises(ValueError, match="POVM dimension does not match the apparatus"):
            corr._branch_states(rho, BASIS_POVM.elements)

    def test_branch_contraction_matches_the_kron_reference(self):
        for d_s in (2, 3):
            for k in (2, 3):
                for seed in range(10):
                    rho = la.DensityMatrix(la.random_density_matrix(2 * d_s, seed), (d_s, 2))
                    m = corr.random_povm(k, seed + 300)
                    got = corr._branch_states(rho, m.elements)
                    assert np.max(np.abs(got - kron_branches(rho, m))) <= 1e-14


class TestAccessibleInformation:
    def test_bell_any_projective(self):
        for t, f in ((0.0, 0.0), (1.1, 2.3), (np.pi / 2, 0.4)):
            m = corr.qubit_projective_povm(t, f)
            assert corr.accessible_information(BELL, m) == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        rho = la.DensityMatrix(
            np.kron(la.random_density_matrix(2, 4), la.random_density_matrix(2, 5)), (2, 2)
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

    def test_povm_stack_gives_the_rebuilt_stack_value_bit_for_bit(self):
        # The kept stack (identity, then the elements) against the stack
        # rebuilt from the elements on each call.
        for d_s in (2, 3):
            for k in (2, 3):
                for seed in range(20):
                    rho = la.DensityMatrix(la.random_density_matrix(2 * d_s, seed), (d_s, 2))
                    m = corr.random_povm(k, seed + 100)
                    mats = corr._branch_states(rho, (np.eye(2), *m.elements))
                    assert corr.accessible_information(rho, m) == corr._j_values(mats, k)[0]


class TestDiscordGivenMeasurement:
    def test_bell_basis(self):
        assert discord_given_measurement(BELL, BASIS_POVM) == pytest.approx(1.0, abs=1e-9)

    def test_classical_state(self):
        got = discord_given_measurement(example_state(0.0), BASIS_POVM)
        assert got == pytest.approx(0.0, abs=1e-9)

    def test_product_state(self):
        rho = la.DensityMatrix(
            np.kron(la.random_density_matrix(2, 6), la.random_density_matrix(2, 7)), (2, 2)
        )
        assert discord_given_measurement(rho, BASIS_POVM) == pytest.approx(0.0, abs=1e-9)


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

    def test_rejects_non_hermitian(self):
        # Complete, and PSD in its Hermitian part, which is diag(0.5, 0.5);
        # read as a measurement of example_state(0.3) it gave J = 0 bits.
        e = np.array([[0.5, 0.3j], [0.3j, 0.5]])
        with pytest.raises(ValueError, match="POVM element is not Hermitian"):
            corr.Povm((e, np.eye(2) - e))

    def test_rejects_no_elements(self):
        with pytest.raises(ValueError, match="at least one element"):
            corr.Povm(())

    @pytest.mark.parametrize("elements", [(np.ones((2, 3)) / 2,),
                                          (np.eye(2) / 2, np.eye(3) / 2)])
    def test_rejects_non_square_or_mixed_sizes(self, elements):
        with pytest.raises(ValueError, match="square and same-sized"):
            corr.Povm(elements)

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            corr.Povm((np.diag([0.5, 0.5]),))

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                corr.Povm((np.diag([1.0, bad]), np.diag([0.0, 1.0])))
        # Opposite infinities give inf - inf in a residual: a ValueError, not
        # a numpy warning.
        with pytest.raises(ValueError, match="non-finite"):
            corr.Povm((np.diag([np.inf, 0.0]), np.diag([-np.inf, 1.0])))

    def test_owns_read_only_copies(self):
        # Writing into a validated POVM would leave a non-POVM behind it.
        m = corr.qubit_projective_povm(0.3, 0.2)
        with pytest.raises(ValueError, match="read-only"):
            m.elements[0][0, 0] = 5.0
        elems = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        m = corr.Povm(elems)
        j = corr.accessible_information(BELL, m)
        elems[0][0, 0] = 5.0
        assert np.array_equal(m.elements[0], np.diag([1.0, 0.0]))
        assert corr.accessible_information(BELL, m) == j

    def test_random_povm_valid(self):
        for n in (2, 3, 4):
            m = corr.random_povm(n, seed=n)
            assert len(m.elements) == n

    def test_random_povm_needs_two_outcomes(self):
        with pytest.raises(ValueError, match="at least 2 outcomes"):
            corr.random_povm(1, seed=0)


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

    @pytest.mark.parametrize("povm_outcomes", [1, 4])
    def test_rejects_other_outcome_counts(self, povm_outcomes):
        with pytest.raises(ValueError, match="povm_outcomes must be 2 or 3"):
            corr.classical_correlation(BELL, povm_outcomes)

    def test_bell_diagonal_states_match_the_exact_value(self):
        # Full rank, so no KW route: the Bell-state weights are Dirichlet
        # draws, all positive, under seeded local unitaries U_S x U_A.
        for seed in range(40):
            c = np.random.default_rng(seed).dirichlet(np.ones(4)) @ BELL_CORRELATIONS
            mat = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULIS))) / 4
            u = np.kron(la.random_unitary(2, 100 + seed), la.random_unitary(2, 200 + seed))
            rho = la.DensityMatrix(la.hermitianize(u @ mat @ u.conj().T), (2, 2))
            got = corr.classical_correlation(rho).classical_info
            assert abs(got - bell_diagonal_classical_info(c)) <= verify.KW_AGREEMENT_TOL, seed

    def test_determinism(self):
        rho = random_two_qubit_state(42)
        for povm_outcomes in (2, 3):
            r1 = corr.classical_correlation(rho, povm_outcomes)
            r2 = corr.classical_correlation(rho, povm_outcomes)
            assert r1.classical_info == r2.classical_info
            assert r1.discord == r2.discord
            assert all(a.tobytes() == b.tobytes()
                       for a, b in zip(r1.measurement.elements, r2.measurement.elements))

    def test_three_outcome_mode_matches_projective_on_example_family(self):
        for theta in (0.0, np.pi / 8, np.pi / 5):
            rho = example_state(min(theta, np.pi / 4))
            r2 = corr.classical_correlation(rho, povm_outcomes=2)
            r3 = corr.classical_correlation(rho, povm_outcomes=3)
            assert r3.classical_info >= r2.classical_info - 1e-8
            assert r3.classical_info == pytest.approx(r2.classical_info, abs=1e-6)

    def test_three_outcome_mode_beats_projective_on_a_qutrit_system(self):
        # For a qutrit system projective measurements are not sufficient:
        # on this full-rank state three outcomes gain 0.01754 bits over the
        # projective optimum (0.270457 -> 0.287997); 20 000 sampled
        # projective directions stay below 0.270447.
        rho = la.DensityMatrix(la.random_density_matrix(6, 1027, rank=6), (3, 2))
        r2 = corr.classical_correlation(rho)
        r3 = corr.classical_correlation(rho, povm_outcomes=3)
        assert r3.classical_info - r2.classical_info > 1e-2
        m = r3.measurement
        assert corr.accessible_information(rho, m) == pytest.approx(r3.classical_info, abs=1e-12)
        assert len(m.elements) == 3
        assert np.max(np.abs(sum(m.elements) - np.eye(2))) <= la.POVM_SUM_TOL
        assert min(np.linalg.eigvalsh(e)[0] for e in m.elements) >= -la.PSD_TOL

    @pytest.mark.parametrize("seed, rank", [(7350, 4), (3332, 3)])
    def test_three_outcome_mode_reaches_the_sampled_optimum(self, seed, rank):
        # On these qutrit-system states a search that stalls returns the
        # projective value; the coplanar optimum is 0.396679 -> 0.405451
        # (seed 7350) and 0.485589 -> 0.498483 bits (seed 3332).
        rho = la.DensityMatrix(la.random_density_matrix(6, seed, rank=rank), (3, 2))
        r2 = corr.classical_correlation(rho)
        r3 = corr.classical_correlation(rho, povm_outcomes=3)
        assert r3.classical_info - r2.classical_info > 8e-3
        sampled = max(corr.accessible_information(rho, corr.random_povm(3, 50000 + k))
                      for k in range(3000))
        assert sampled <= r3.classical_info + verify.CHAIN_TOL


class TestOptimizerProperties:
    def test_sampled_povms_never_beat_optimizer(self, run_suite):
        # 20 states: I^c <= I, discord >= 0, and 0 <= J <= I^c for five
        # two- and five three-outcome POVMs each.
        run_suite(verify.suite_corr_chain, seed=11, samples=200, checks=240)

    def test_cq_states_have_zero_discord(self, run_suite):
        run_suite(verify.suite_corr_cq_states, seed=11, samples=100, checks=10)

    def test_local_unitary_invariance(self, run_suite):
        # 100 states: I^c and discord unchanged by a local unitary.
        run_suite(verify.suite_corr_local_unitary, seed=11, samples=1000, checks=200)

    def test_pure_state_factor_two_gap(self):
        # The suite behind acceptance criterion 5 checks discord = S and
        # I = 2 S; this checks I^c = S at the same tolerance.
        for seed in range(30):
            psi = la.random_pure_state(4, seed + 900)
            rho = la.DensityMatrix(psi.to_density().mat, (2, 2))
            rep = corr.classical_correlation(rho)
            s_s = la.von_neumann_entropy(la.partial_trace(rho, [0]))
            assert abs(rep.classical_info - s_s) < verify.PURE_GAP_TOL
