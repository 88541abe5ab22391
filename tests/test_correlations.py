import math

import numpy as np
import pytest

from discordlim import correlations as corr
from discordlim import linalg as la
from discordlim import verify
from discordlim.koashi_winter import example_state
from references import PAULIS, kron_branches, post_measurement_ensemble

BELL = la.StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2)).to_density()
BASIS_POVM = corr.qubit_projective_povm(0.0, 0.0)

# Rows: c of Phi+, Phi-, Psi+, Psi- in 1/4 (1 + sum_i c_i sigma_i x sigma_i).
BELL_CORRELATIONS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])


def bell_diagonal_classical_info(c):
    """Exact I^c of a Bell-diagonal state (Luo, PRA 77, 042303 (2008)):
    with c = max |c_i|, I^c = [(1 - c) log2(1 - c) + (1 + c) log2(1 + c)] / 2."""
    c = np.max(np.abs(c))
    return 0.5 * ((1 - c) * np.log2(1 - c) + (1 + c) * np.log2(1 + c))


def random_two_qubit_state(seed):
    return la.DensityMatrix(la.random_density_matrix(4, seed), (2, 2))


def full_search(rho):
    """I^c of the projective search, which a pure state skips."""
    return corr._search(rho)[0]


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
        ens = post_measurement_ensemble(example_state(0.0), BASIS_POVM.elements)
        assert [p for p, _ in ens] == pytest.approx([0.5, 0.5])
        assert np.allclose(ens[0][1], np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(ens[1][1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_trivial_povm(self):
        rho = random_two_qubit_state(3)
        ens = post_measurement_ensemble(rho, (np.eye(2),))
        assert len(ens) == 1
        p, cond = ens[0]
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(cond, la.partial_trace(rho, [0]).mat, atol=1e-12)

    def test_example_state_matches_hand_expansion(self):
        # Hand-expanded matrix elements: measuring |0><0| on the apparatus
        # picks out the first column amplitudes of each branch.
        theta = np.pi / 8
        ens = post_measurement_ensemble(example_state(theta), BASIS_POVM.elements)
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        assert [p for p, _ in ens] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert np.allclose(ens[0][1], np.diag([c2, s2]), atol=1e-12)
        assert np.allclose(ens[1][1], np.diag([s2, c2]), atol=1e-12)

    def test_branch_contraction_matches_the_kron_reference(self):
        for d_s in (2, 3):
            for k in (2, 3):
                for seed in range(10):
                    rho = la.DensityMatrix(la.random_density_matrix(2 * d_s, seed), (d_s, 2))
                    m = corr.random_povm(k, seed + 300)
                    got = corr._branch_states(rho, m.elements)
                    assert np.max(np.abs(got - kron_branches(rho, m.elements))) <= 1e-14


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
        # Compose the hand-expanded ensemble with binary entropies; at
        # theta = 0 the basis measurement reads the classical pair's one bit.
        for theta in (0.0, np.pi / 8):
            expected = 1.0 - la.binary_entropy(math.cos(theta) ** 2)
            got = corr.accessible_information(example_state(theta), BASIS_POVM)
            assert got == pytest.approx(expected, abs=1e-12), theta

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

    def test_bell_diagonal_states_match_the_exact_value(self):
        # Full rank, so no KW route: the Bell-state weights are Dirichlet
        # draws, all positive, under seeded local unitaries U_S x U_A.
        for seed in range(40):
            c = np.random.default_rng(seed).dirichlet(np.ones(4)) @ BELL_CORRELATIONS
            mat = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULIS))) / 4
            u = np.kron(la.random_unitary(2, 100 + seed), la.random_unitary(2, 200 + seed))
            rho = la.DensityMatrix(la.hermitianize(u @ mat @ u.conj().T), (2, 2))
            got = corr.classical_correlation(rho).classical_info
            assert abs(got - bell_diagonal_classical_info(c)) <= verify.ROUNDING_TOL, seed

    def test_sampled_povms_beat_it_on_a_qutrit_system(self):
        # The reported I^c maximizes J over projective measurements only.
        # For a qutrit system that is a lower bound: on this full-rank state
        # the best of 3000 sampled three-outcome POVMs reaches 0.28556 bits
        # against the projective 0.27046 (a coplanar search found 0.287997).
        rho = la.DensityMatrix(la.random_density_matrix(6, 1027, rank=6), (3, 2))
        sampled = max(corr.accessible_information(rho, corr.random_povm(3, 50000 + k))
                      for k in range(3000))
        assert sampled - corr.classical_correlation(rho).classical_info > 1e-2


class TestPureStateCertificate:
    @pytest.fixture(scope="class")
    def pure_states(self, bench):
        """Seeded pure states, d_s 2, 3 and 4, and the rank-1 inputs of the
        benchmark's random_states ops 0-44."""
        states = [la.DensityMatrix(la.random_pure_state(2 * d_s, 1300 + seed).to_density().mat,
                                   (d_s, 2))
                  for d_s in (2, 3, 4) for seed in range(20)]
        workload = bench[0].WORKLOADS["random_states"](0)
        for d_s, rank, mat in map(workload.input, range(45)):
            if rank == 1:
                states.append(la.DensityMatrix(mat, (d_s, 2)))
        return states

    def test_equals_the_full_search(self, pure_states):
        for rho in pure_states:
            rep = corr.classical_correlation(rho)
            assert abs(rep.classical_info - full_search(rho)) <= 1e-14
            assert abs(corr.accessible_information(rho, rep.measurement)
                       - rep.classical_info) <= 1e-14
            assert rep.discord == rep.mutual_info - rep.classical_info

    def test_reports_the_kept_system_entropy(self, pure_states):
        for rho in pure_states:
            assert corr.classical_correlation(rho).classical_info == rho._marginals[0]

    def test_searches_nothing(self, pure_states, monkeypatch):
        def searched(*_):
            raise AssertionError("a pure state was contracted or searched")

        monkeypatch.setattr(corr, "_kernel", searched)
        monkeypatch.setattr(corr, "_search", searched)
        for rho in pure_states:
            rep = corr.classical_correlation(rho)
            assert all(np.array_equal(e, f) for e, f in zip(rep.measurement.elements,
                                                            BASIS_POVM.elements))

    @staticmethod
    def rank_two(d_s, lam):
        """A (d_s, 2) state with eigenvalues 1 - lam and lam, on a seeded
        random pair of eigenvectors."""
        dim = 2 * d_s
        u = la.random_unitary(dim, 31 + d_s)
        mat = (u[:, :2] * [1 - lam, lam]) @ u[:, :2].conj().T
        return la.DensityMatrix(la.hermitianize(mat), (d_s, 2))

    @staticmethod
    def refine_calls(rho, monkeypatch):
        calls = []
        search = corr._search
        monkeypatch.setattr(corr, "_search", lambda *a: calls.append(a) or search(*a))
        rep = corr.classical_correlation(rho)
        return rep, len(calls)

    @pytest.mark.parametrize("d_s", [2, 3])
    def test_a_state_just_above_the_rank_rule_is_searched(self, d_s, monkeypatch):
        # Second eigenvalue 4 ENTROPY_CLIP: one the entropies count, so
        # the state is not pure.
        rho = self.rank_two(d_s, 4 * la.ENTROPY_CLIP)
        assert rho._spectrum[-2] > la.ENTROPY_CLIP
        assert self.refine_calls(rho, monkeypatch)[1] == 1

    @pytest.mark.parametrize("d_s", [2, 3])
    def test_a_state_just_below_the_rank_rule_is_certified(self, d_s, monkeypatch):
        # Second eigenvalue ENTROPY_CLIP / 4: rounding, which the entropies
        # drop, so the certificate's S(rho^S) is the searched optimum.
        rho = self.rank_two(d_s, la.ENTROPY_CLIP / 4)
        assert max(rho._spectrum[-2], -rho._spectrum[0]) <= la.ENTROPY_CLIP
        rep, calls = self.refine_calls(rho, monkeypatch)
        assert calls == 0
        assert abs(rep.classical_info - full_search(rho)) <= verify.ROUNDING_TOL


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
