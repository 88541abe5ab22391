import numpy as np
import pytest

from discordlim import koashi_winter as kw
from discordlim import linalg as la
from discordlim import verify
from discordlim.correlations import classical_correlation
from references import kron_flagged_mixture

SY = np.array([[0, -1j], [1j, 0]])
GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# The 200 sweep rows, and golden-ratio angles in [0.78, pi/4] where the
# state is nearly a product: a concurrence taken from square roots of
# near-zero eigenvalues of rho rho~ returns half the value at the first
# pinned angle and loses the fourth digit at the second.
FAMILY_ANGLES = np.concatenate([
    np.linspace(0.0, np.pi / 4, 200),
    0.78 + (np.pi / 4 - 0.78) * ((np.arange(1, 301) * GOLDEN) % 1.0),
    [0.7852141550988355, 0.7848582881642993],
])


def kron_example_state(theta):
    """Reference for example_state: the kron-built flagged mixture of the
    branches (cos, sin) and (sin, cos)."""
    c, s = np.cos(theta), np.sin(theta)
    return kron_flagged_mixture(np.array([c, s]), np.array([s, c]))


def pure_concurrence_reference(vec):
    """Spin-flip overlap |<psi| sy x sy |psi*>| for a pure two-qubit state."""
    return abs(np.vdot(vec, np.kron(SY, SY) @ vec.conj()))


def family_classical_info(theta):
    """Exact I^c of example_state(theta): its branches are two equiprobable
    pure states with overlap sin(2 theta), so I^c = 1 - h(sin^2 theta)."""
    p = np.array([np.sin(theta) ** 2, np.cos(theta) ** 2])
    p = p[p > 0]
    return 1.0 + float(np.sum(p * np.log2(p)))


class TestExampleState:
    def test_theta_zero_is_classical_pair(self):
        rho = kw.example_state(0.0)
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(rho.mat, expected, atol=1e-12)

    def test_theta_quarter_pi_is_product(self):
        rho = kw.example_state(np.pi / 4)
        plus = np.full((2, 2), 0.5)
        assert np.allclose(rho.mat, np.kron(np.eye(2) / 2, plus), atol=1e-12)

    def test_equals_kron_reference_bit_for_bit(self):
        for theta in np.linspace(0.0, np.pi / 4, 51):
            assert (kw.example_state(theta).mat == kron_example_state(theta)).all(), theta

    def test_branch_overlap_is_sin_two_theta(self):
        for theta in np.linspace(0, np.pi / 4, 50):
            psi, phi = kw.example_branches(theta)
            assert np.vdot(psi.vec, phi.vec).real == pytest.approx(np.sin(2 * theta), abs=1e-12)

    def test_rank_at_most_two(self):
        vals = np.linalg.eigvalsh(kw.example_state(0.2).mat)
        assert np.sum(vals > 1e-10) <= 2

    def test_angles_within_the_slack_are_the_endpoints(self):
        # Below 0 the branch overlap sin(2 theta) would turn negative.
        for theta, end in ((-la.INPUT_TOL / 2, 0.0),
                           (np.pi / 4 + la.INPUT_TOL / 2, np.pi / 4)):
            assert (kw.example_state(theta).mat == kw.example_state(end).mat).all()
            for got, want in zip(kw.example_branches(theta), kw.example_branches(end)):
                assert (got.vec == want.vec).all()


class TestConcurrence:
    def test_bell_state(self):
        bell = la.StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2)).to_density()
        assert kw.concurrence(bell) == pytest.approx(1.0, abs=1e-9)

    def test_product_pure_state(self):
        a = la.random_pure_state(2, 1).vec
        b = la.random_pure_state(2, 2).vec
        rho = la.StateVector(np.kron(a, b), (2, 2)).to_density()
        assert kw.concurrence(rho) == pytest.approx(0.0, abs=1e-8)

    def test_schmidt_form_pure_states(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.uniform(0, 1)
            b = np.sqrt(1 - a * a)
            vec = np.array([a, 0, 0, b])
            rho = la.StateVector(vec, (2, 2)).to_density()
            assert kw.concurrence(rho) == pytest.approx(2 * a * b, abs=1e-9)
            assert kw.concurrence(rho) == pytest.approx(pure_concurrence_reference(vec), abs=1e-9)

    def test_random_pure_matches_spin_flip_overlap(self):
        for seed in range(50):
            psi = la.random_pure_state(4, seed)
            rho = la.DensityMatrix(psi.to_density().mat, (2, 2))
            assert kw.concurrence(rho) == pytest.approx(
                pure_concurrence_reference(psi.vec), abs=1e-8
            )

    def test_local_unitary_invariance(self, run_suite):
        # 50 full-rank states under a local unitary, E_F of 50 pure states
        # against the entropy of their reduction, and 50 locally rotated
        # Werner states against C = max(0, (3p - 1)/2).
        run_suite(verify.suite_kw_concurrence, seed=11, samples=50, checks=150)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.9, 1.0])
    def test_werner_state(self, p):
        # p |Psi-><Psi-| + (1 - p) 1/4 is full rank for p < 1, with
        # C = max(0, (3p - 1)/2).
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        rho = la.DensityMatrix(p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4, (2, 2))
        assert kw.concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)


class TestEntanglementOfFormation:
    def test_separable_and_maximal(self):
        a = la.random_pure_state(2, 5).vec
        b = la.random_pure_state(2, 6).vec
        prod = la.StateVector(np.kron(a, b), (2, 2)).to_density()
        assert kw.entanglement_of_formation(prod) == pytest.approx(0.0, abs=1e-6)
        bell = la.StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2)).to_density()
        assert kw.entanglement_of_formation(bell) == pytest.approx(1.0, abs=1e-9)

    def test_concurrence_06_maps_to_h_09(self):
        # C=0.6: h((1+0.8)/2) = h(0.9).
        vec = np.zeros(4)
        # alpha|00> + beta|11> with 2 alpha beta = 0.6
        alpha = np.sqrt((1 + np.sqrt(1 - 0.36)) / 2)
        beta = 0.3 / alpha
        vec[0], vec[3] = alpha, beta
        rho = la.StateVector(vec, (2, 2)).to_density()
        assert kw.entanglement_of_formation(rho) == pytest.approx(
            la.binary_entropy(0.9), abs=1e-9
        )

    def test_monotone_in_concurrence(self):
        cs = np.linspace(0, 1, 50)
        efs = [la.binary_entropy((1 + np.sqrt(1 - c * c)) / 2) for c in cs]
        assert all(efs[i + 1] >= efs[i] - 1e-12 for i in range(len(efs) - 1))


class TestClassicalCorrelationKw:
    def test_lies_between_zero_and_the_system_entropy(self):
        # Agreement with the optimizer on these angles is suite_kw_agreement's.
        for theta in np.linspace(0, np.pi / 4, 26):
            rho = kw.example_state(theta)
            v_kw = kw.classical_correlation_kw(rho)
            assert -1e-9 <= v_kw <= la.von_neumann_entropy(la.partial_trace(rho, [0])) + 1e-9

    @pytest.mark.parametrize("rank", [1, 2])
    def test_agrees_with_optimizer_on_random_states(self, rank):
        for seed in range(20):
            rho = la.DensityMatrix(la.random_density_matrix(4, 500 + seed, rank=rank), (2, 2))
            assert kw.classical_correlation_kw(rho) == pytest.approx(
                classical_correlation(rho).classical_info, abs=verify.ROUNDING_TOL)

    def test_exact_family_value(self):
        # A gap between the two routes above rounding is an optimizer or
        # concurrence fault.
        for theta in FAMILY_ANGLES:
            rho = kw.example_state(theta)
            want = family_classical_info(theta)
            v_kw = kw.classical_correlation_kw(rho)
            v_opt = classical_correlation(rho).classical_info
            assert abs(v_kw - want) <= 1e-14, theta
            assert abs(v_opt - want) <= 1e-14, theta
            assert abs(v_opt - v_kw) <= 1e-14, theta

    def test_rank_counted_as_purified(self):
        # The rank KW checks is the purification's ancilla dimension, and
        # both count the eigenvalues the entropies count: those above
        # ENTROPY_CLIP. 1e-10 of a null vector makes a third one, so KW
        # raises and the purification keeps it; ENTROPY_CLIP / 4 of it
        # is rounding, and KW still meets the optimizer.
        rho = kw.example_state(np.pi / 8)
        null = np.linalg.eigh(rho.mat)[1][:, 0]

        def mixed(eps):
            return la.DensityMatrix((1 - eps) * rho.mat + eps * np.outer(null, null.conj()), (2, 2))

        third = mixed(1e-10)
        with pytest.raises(ValueError, match="state rank exceeds 2"):
            kw.classical_correlation_kw(third)
        psi = la.purify(third)
        assert psi.dims == (2, 2, 3)
        back = la.partial_trace(psi.to_density(), [0, 1]).mat
        assert abs(back - third.mat).max() <= verify.ROUNDING_TOL

        rounding = mixed(la.ENTROPY_CLIP / 4)
        assert la.purify(rounding).dims == (2, 2, 2)
        assert abs(kw.classical_correlation_kw(rounding)
                   - classical_correlation(rounding).classical_info) <= verify.ROUNDING_TOL

    def test_pure_input_gives_reduction_entropy(self):
        psi = la.random_pure_state(4, 77)
        rho = la.DensityMatrix(psi.to_density().mat, (2, 2))
        s_red = la.von_neumann_entropy(la.partial_trace(rho, [0]))
        assert kw.classical_correlation_kw(rho) == pytest.approx(s_red, abs=1e-9)
