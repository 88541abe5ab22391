import numpy as np
import pytest

from discordlim import correlations as corr
from discordlim import koashi_winter as kw
from discordlim import linalg as la
from discordlim import protocols as proto
from discordlim import verify
from discordlim.koashi_winter import (
    classical_correlation_kw,
    example_branches,
    example_state,
)
from references import brute_partial_trace, four_by_four_cloned_info, kron_flagged_mixture

BASIS_POVM = corr.qubit_projective_povm(0.0, 0.0)


def kron_broadcast(state, iso):
    """Reference for apply_broadcast: (1 x V) rho (1 x V)^dagger with the
    lifted isometry built by np.kron, then the ancilla traced out."""
    d_s = state.dims[0]
    mat = state.to_density().mat if isinstance(state, la.StateVector) else state.mat
    w = np.kron(np.eye(d_s), iso.matrix)
    dims = (d_s,) + iso.recipient_dims + (iso.ancilla_dim,)
    return brute_partial_trace(w @ mat @ w.conj().T, dims, range(len(dims) - 1))


def pairwise_recipient_infos(rho):
    """Reference for recipient_infos: the mutual information of each
    system-recipient reduction, one at a time."""
    return [corr.mutual_information(la.partial_trace(rho, [0, i])) for i in range(1, len(rho.dims))]


def kron_measure_and_prepare(rho, m, sigmas):
    """Reference for measure_and_prepare: sum_i B_i x sigma_i, with
    B_i = Tr_A[(1 x E_i) rho] from np.kron and a partial trace."""
    lift = np.eye(rho.dims[0])
    return sum(
        np.kron(brute_partial_trace(np.kron(lift, e) @ rho.mat, rho.dims, [0]), sigma.mat)
        for e, sigma in zip(m.elements, sigmas)
    )


def bisected_crossover(width=1e-13):
    """Reference for find_crossover: plain bisection of the gap to a
    bracket `width` rad wide; its midpoint."""
    lo, hi = proto.CROSSOVER_BRACKET
    while hi - lo > width:
        mid = (lo + hi) / 2
        if proto._locc_minus_cloning(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


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

    def test_matches_kron_reference(self):
        for seed in range(12):
            d_s = 2 + seed % 2
            rho = la.DensityMatrix(la.random_density_matrix(2 * d_s, seed + 600), (d_s, 2))
            m = corr.random_povm(2 + seed % 3, seed)
            sigmas = tuple(la.DensityMatrix(la.random_density_matrix(3, seed + 700 + i), (3,))
                           for i in range(len(m.elements)))
            out = proto.measure_and_prepare(rho, proto.PreparedEnsembleChannel(m, sigmas))
            ref = kron_measure_and_prepare(rho, m, sigmas)
            assert out.dims == (d_s, 3)
            assert np.max(np.abs(out.mat - ref)) <= 1e-13

    def test_channel_keeps_its_own_prepared_states(self):
        # A list the caller changes later, or a generator, is copied once.
        rho = example_state(0.3)
        prepared = list(qubit_flags())
        ch = proto.PreparedEnsembleChannel(BASIS_POVM, prepared)
        want = proto.measure_and_prepare(rho, ch).mat
        prepared.append(prepared[0])
        prepared[1] = la.DensityMatrix(np.eye(3) / 3, (3,))
        assert np.array_equal(proto.measure_and_prepare(rho, ch).mat, want)
        ch = proto.PreparedEnsembleChannel(BASIS_POVM, (sigma for sigma in qubit_flags()))
        assert np.array_equal(proto.measure_and_prepare(rho, ch).mat, want)


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

    def test_best_measurement_attains_ic(self):
        rho = example_state(np.pi / 8)
        rep = corr.classical_correlation(rho)
        got = proto.locc_transfer_info(rho, rep.measurement)
        assert got == pytest.approx(rep.classical_info, abs=1e-6)
        assert got == pytest.approx(classical_correlation_kw(rho), abs=1e-4)


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

    def test_accepts_an_overlap_phase_within_tolerance(self):
        # Im <psi|phi> = 9.5e-11 passes INPUT_TOL; Im <psi psi|phi phi>
        # is 1.7e-10, which a second check on the products rejected. The
        # output overlap then carries the input's phase (1.27e-10 off s).
        eps = 9.5e-11 / np.cos(0.45)
        psi = la.StateVector(np.array([1.0, 0.0]), (2,))
        phi = la.StateVector(np.array([np.cos(0.45) * np.exp(1j * eps), np.sin(0.45)]), (2,))
        assert abs(np.vdot(psi.vec, phi.vec).imag) <= la.INPUT_TOL
        out = proto.optimal_state_dependent_cloner(psi, phi)
        s = np.cos(0.45)
        assert abs(np.vdot(out.alpha.vec, out.beta.vec) - s) <= 2 * la.INPUT_TOL
        assert abs(out.fidelity - verify._optimal_cloner_fidelity(s)) <= verify.ROUNDING_TOL


class TestCloningRecipientInfo:
    def test_endpoints(self):
        assert proto.cloning_recipient_info(0.0) == pytest.approx(1.0, abs=1e-9)
        assert proto.cloning_recipient_info(np.pi / 4) == pytest.approx(0.0, abs=1e-9)

    def test_recipients_symmetric(self):
        for theta in (0.1, np.pi / 8, 0.7):
            psi, phi = example_branches(theta)
            out = proto.optimal_state_dependent_cloner(psi, phi)
            rho = la.DensityMatrix(kron_flagged_mixture(out.alpha.vec, out.beta.vec), (2, 2, 2))
            i_r1 = corr.mutual_information(la.partial_trace(rho, [0, 1]))
            i_r2 = corr.mutual_information(la.partial_trace(rho, [0, 2]))
            assert i_r1 == pytest.approx(i_r2, abs=1e-9)
            assert proto.cloning_recipient_info(theta) == pytest.approx(i_r1, abs=1e-12)

    def test_equals_the_validated_route_bit_for_bit(self):
        # The raw cores against the public names: validated branches and
        # cloner, a kron-built mixture, partial_trace, mutual_information.
        # pi/4 takes the cloner's identical-inputs branch.
        for theta in np.linspace(0.0, np.pi / 4, 51):
            out = proto.optimal_state_dependent_cloner(*example_branches(theta))
            rho = la.DensityMatrix(kron_flagged_mixture(out.alpha.vec, out.beta.vec), (2, 2, 2))
            want = corr.mutual_information(la.partial_trace(rho, [0, 1]))
            assert proto.cloning_recipient_info(theta) == want, theta

    def test_equals_the_four_by_four_route_bit_for_bit(self):
        # The stacked 2x2 eigensolve against rho^{S R1} as a 4x4 matrix with
        # separate eigensolves, on golden-ratio angles and both endpoints.
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        for theta in (0.0, np.pi / 4, *np.pi / 4 * ((np.arange(1, 2001) * golden) % 1.0)):
            out = proto.optimal_state_dependent_cloner(*example_branches(theta))
            want = four_by_four_cloned_info(out.alpha.vec, out.beta.vec)
            assert proto.cloning_recipient_info(theta) == want, theta

    def test_block_diagonal_spectrum_is_the_union_of_the_block_spectra(self):
        # What the stacked eigensolve rests on: eigvalsh of a block-diagonal
        # 4x4 equals the sorted eigenvalues of its two 2x2 blocks, bit for bit.
        rng = np.random.default_rng(21)
        for _ in range(2000):
            g = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
            blocks = la.hermitianize(g @ g.conj().swapaxes(1, 2))
            full = np.zeros((4, 4), dtype=complex)
            full[:2, :2], full[2:, 2:] = blocks
            assert np.array_equal(np.linalg.eigvalsh(full),
                                  np.sort(np.linalg.eigvalsh(blocks), axis=None))

    def test_angles_within_the_slack_are_the_endpoints(self):
        # Below 0 the unclamped branch overlap is negative, outside the
        # cloner's contract.
        for theta, end in ((-la.INPUT_TOL / 2, 0.0), (np.pi / 4 + la.INPUT_TOL / 2, np.pi / 4)):
            assert proto.cloning_recipient_info(theta) == proto.cloning_recipient_info(end)


class TestCrossover:
    def test_gap_signs(self):
        assert proto._locc_minus_cloning(0.05 * np.pi) > 0
        assert proto._locc_minus_cloning(0.2 * np.pi) < 0

    def test_deterministic(self):
        assert proto.find_crossover() == proto.find_crossover()

    def test_matches_bisection_reference(self):
        res = proto.find_crossover()
        assert abs(res.theta - bisected_crossover()) <= 1e-9
        assert res.evaluations <= 12
        lo, hi = res.bracket
        assert hi - lo <= proto.CROSSOVER_TOL
        assert lo <= res.theta <= hi
        assert proto._locc_minus_cloning(lo) > 0 >= proto._locc_minus_cloning(hi)

    def test_checks_no_angle_or_probability_it_computes(self, monkeypatch):
        # The search and the KW route build their angles and probabilities
        # themselves; only the public entry points check a caller's.
        rho = example_state(np.pi / 8)
        want = proto.find_crossover(), classical_correlation_kw(rho)

        def refuse(value):
            raise AssertionError(f"{value!r} checked inside the library")

        for module, name in ((kw, "_check_theta"), (proto, "_check_theta"),
                             (la, "binary_entropy"), (kw, "binary_entropy")):
            monkeypatch.setattr(module, name, refuse, raising=False)
        assert (proto.find_crossover(), classical_correlation_kw(rho)) == want

    def test_no_sign_change_raises(self, monkeypatch):
        monkeypatch.setattr(proto, "_locc_minus_cloning", lambda theta: 1.0)
        with pytest.raises(RuntimeError, match="no sign change"):
            proto.find_crossover()

    def test_halves_the_lower_weight_when_the_upper_end_moves_twice(self, monkeypatch):
        # On a convex decreasing gap every chord zero lies past the root, so
        # the lower end stays and only the halving of its weight moves the
        # chord; plain false position takes 595 gap evaluations here.
        lo, root = proto.CROSSOVER_BRACKET[0], 0.3
        monkeypatch.setattr(proto, "_locc_minus_cloning",
                            lambda theta: np.exp(-30 * (theta - lo)) - np.exp(-30 * (root - lo)))
        res = proto.find_crossover()
        assert abs(res.theta - root) <= proto.CROSSOVER_TOL
        assert res.bracket[0] <= root <= res.bracket[1]
        assert res.evaluations <= 20


class TestBroadcast:
    def test_classical_copy_gives_each_recipient_one_bit(self):
        out = proto.apply_broadcast(example_state(0.0), proto.classical_copy_isometry())
        infos = proto.recipient_infos(out)
        assert infos == pytest.approx([1.0, 1.0], abs=1e-9)
        s_s = la.von_neumann_entropy(la.partial_trace(out, [0]))
        assert infos[0] + infos[1] == pytest.approx(2 * s_s, abs=1e-8)

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

    @pytest.mark.parametrize("ancilla", [1, 2, 4])
    @pytest.mark.parametrize("recipients", [(2, 2, 2), (2, 3), (2, 2, 2, 2)])
    def test_matches_kron_reference(self, recipients, ancilla):
        # A pure qubit-system input, and a mixed qutrit-system one, whose
        # rho^S shares its size with the 3-dim recipient's marginal. With
        # four recipients, S R_2 traces R_1 before it and the run R_3 R_4
        # after it.
        iso = proto.random_broadcast_isometry(2, recipients, ancilla, 17)
        states = (la.StateVector(la.random_pure_state(4, 5).vec, (2, 2)),
                  la.DensityMatrix(la.random_density_matrix(6, 6), (3, 2)))
        for state in states:
            out = proto.apply_broadcast(state, iso)
            assert out.dims == state.dims[:1] + recipients
            assert np.max(np.abs(out.mat - kron_broadcast(state, iso))) <= 1e-13
            assert np.max(np.abs(np.subtract(proto.recipient_infos(out),
                                             pairwise_recipient_infos(out)))) <= 1e-13

    def test_bipartite_state_gives_its_mutual_information_bit_for_bit(self):
        # The two mutual-information paths, batched (recipient_infos) and
        # direct eigensolves with the kept spectrum (mutual_information), on
        # one recipient.
        # The Ginibre states g g^dagger / tr are also built as the benchmark
        # builds them, with no hermitianize: rounding leaves them off
        # Hermitian by up to ~6e-17, and the constructor stores their
        # Hermitian part.
        states = [example_state(t) for t in np.linspace(0.0, np.pi / 4, 101)]
        for d_s, d_a in ((2, 2), (3, 2), (2, 3), (2, 4)):
            for rank in (1, 2, None):
                states += [la.DensityMatrix(la.random_density_matrix(d_s * d_a, seed, rank),
                                            (d_s, d_a)) for seed in range(50)]
        for d_s, d_a in ((2, 2), (3, 2), (2, 3)):
            for rank in (1, 2, d_s * d_a):
                for seed in range(50):
                    rng = np.random.default_rng(seed)
                    g = (rng.standard_normal((d_s * d_a, rank))
                         + 1j * rng.standard_normal((d_s * d_a, rank)))
                    m = g @ g.conj().T
                    states.append(la.DensityMatrix(m / np.trace(m).real, (d_s, d_a)))
        for rho in states:
            assert np.array_equal(rho.mat, rho.mat.conj().T)
            assert proto.recipient_infos(rho) == [corr.mutual_information(rho)]

    def test_owns_a_read_only_copy(self):
        v = proto.classical_copy_isometry().matrix.copy()
        iso = proto.BroadcastIsometry(v, (2, 2), 1)
        v[0, 0] = 0.0
        assert iso.matrix[0, 0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            iso.matrix[0, 0] = 0.0

    def test_accepts_numpy_integer_dims(self):
        iso = proto.random_broadcast_isometry(2, (np.int64(2), np.uint8(2)), np.int32(2), 0)
        assert iso.recipient_dims == (2, 2) and iso.ancilla_dim == 2

