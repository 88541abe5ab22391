"""The batched projective J kernel and the optimizer built on it, checked
against a slow per-direction oracle and dense samples of directions."""

import os
import subprocess
import sys

import numpy as np
import pytest

import discordlim
from discordlim import correlations as corr
from discordlim import linalg as la
from discordlim.koashi_winter import example_state
from references import PAULIS, oracle_j, projectors

SIGMA = (np.eye(2), *PAULIS)
SWEEP = np.linspace(0.0, np.pi / 4, 200)
# (d_s, rank): qubit and qutrit systems, pure, rank-2 and full-rank states.
CLASSES = [(d_s, rank) for d_s in (2, 3) for rank in (1, 2, 2 * d_s)]


def random_state(d_s, rank, seed):
    return la.DensityMatrix(la.random_density_matrix(2 * d_s, seed, rank), (d_s, 2))


def unit_vectors(n, seed):
    v = np.random.default_rng(seed).standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def bloch_angles(n):
    return np.arccos(np.clip(n[2], -1.0, 1.0)), np.arctan2(n[1], n[0])


class TestKernel:
    @pytest.mark.parametrize("d_s,rank", CLASSES)
    def test_matches_per_direction_oracle(self, d_s, rank):
        for seed in range(3):
            rho = random_state(d_s, rank, 100 * seed + 10 * d_s + rank)
            dirs = unit_vectors(40, seed)
            got = corr._kernel(rho)[0](dirs)
            want = np.array([oracle_j(rho, projectors(n)) for n in dirs])
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_example_state_matches_oracle(self):
        for theta in np.linspace(0.0, np.pi / 4, 9):
            rho = example_state(theta)
            dirs = unit_vectors(20, 5)
            got = corr._kernel(rho)[0](dirs)
            want = np.array([oracle_j(rho, projectors(n)) for n in dirs])
            assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("d_s,rank", CLASSES)
    def test_antipodal_directions_agree(self, d_s, rank):
        rho = random_state(d_s, rank, 7 * d_s + rank)
        dirs = unit_vectors(200, 1)
        j_at = corr._kernel(rho)[0]
        assert np.max(np.abs(j_at(dirs) - j_at(-dirs))) <= 1e-15

    @pytest.mark.parametrize("d_s,rank", CLASSES)
    def test_accessible_information_is_the_same_function(self, d_s, rank):
        rho = random_state(d_s, rank, 31 * d_s + rank)
        dirs = unit_vectors(20, 2)
        got = [corr.accessible_information(rho, corr.qubit_projective_povm(*bloch_angles(n)))
               for n in dirs]
        assert np.max(np.abs(np.array(got) - corr._kernel(rho)[0](dirs))) <= 1e-13

    def test_bloch_form_is_the_pauli_expectations(self):
        # C[mu, nu] = Tr[(sigma_mu x sigma_nu) rho], read off the kernel's
        # one contraction: exact on the sweep rows, rounding elsewhere.
        def oracle(rho):
            c = np.array([[np.trace(np.kron(a, b) @ rho.mat).real for b in SIGMA] for a in SIGMA])
            return c[:, 0] / 2, c[:, 1:].T / 2

        for theta in SWEEP:
            rho = example_state(theta)
            got, want = corr._kernel(rho)[1], oracle(rho)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        for seed in range(40):
            rho = random_state(2, 1 + seed % 4, 600 + seed)
            got, want = corr._kernel(rho)[1], oracle(rho)
            assert max(np.max(np.abs(g - w)) for g, w in zip(got, want)) <= 1e-15


class TestOptimizer:
    @pytest.mark.parametrize("d_s,rank", CLASSES)
    def test_no_sampled_direction_beats_it(self, d_s, rank):
        for seed in range(4):
            rho = random_state(d_s, rank, 1000 + 100 * seed + 10 * d_s + rank)
            ic = corr.classical_correlation(rho).classical_info
            sampled = corr._kernel(rho)[0](unit_vectors(2000, seed)).max()
            assert sampled <= ic + 1e-12

    @pytest.mark.parametrize("d_s", (2, 3))
    def test_narrow_peak_of_nearly_pure_apparatus(self, d_s):
        # A classical-quantum state has zero discord. With apparatus
        # weights 1 - eps and eps, J peaks within ~sqrt(eps) rad of the
        # apparatus axis and is nearly flat elsewhere.
        for seed, eps in enumerate((1e-3, 1e-5, 1e-7)):
            u = la.random_unitary(2, seed)
            flags = [u @ np.diag(v) @ u.conj().T for v in ([1.0, 0.0], [0.0, 1.0])]
            mat = ((1 - eps) * np.kron(la.random_density_matrix(d_s, 2 * seed), flags[0])
                   + eps * np.kron(la.random_density_matrix(d_s, 2 * seed + 1), flags[1]))
            rep = corr.classical_correlation(la.DensityMatrix(la.hermitianize(mat), (d_s, 2)))
            assert abs(rep.discord) <= 1e-12

    @pytest.mark.parametrize("d_s,rank", CLASSES)
    def test_reported_measurement_attains_ic(self, d_s, rank):
        # The search reports its own J; the validated POVM it returns gives
        # the same value through accessible_information.
        rho = random_state(d_s, rank, 500 + 10 * d_s + rank)
        rep = corr.classical_correlation(rho)
        assert corr.accessible_information(rho, rep.measurement) == pytest.approx(
            rep.classical_info, abs=1e-12)

    @pytest.mark.parametrize("d_s", (2, 3))
    def test_deterministic_including_measurement(self, d_s):
        rho = random_state(d_s, 2 * d_s, 77)
        r1 = corr.classical_correlation(rho)
        r2 = corr.classical_correlation(rho)
        assert (r1.mutual_info, r1.classical_info, r1.discord) == (
            r2.mutual_info, r2.classical_info, r2.discord)
        assert all(a.tobytes() == b.tobytes()
                   for a, b in zip(r1.measurement.elements, r2.measurement.elements))


def test_optimizer_does_not_import_scipy_optimize():
    code = ("import sys\n"
            "import discordlim as dl\n"
            "rho = dl.DensityMatrix(dl.random_density_matrix(6, 1027), (3, 2))\n"
            "dl.classical_correlation(dl.example_state(0.3))\n"
            "dl.classical_correlation(rho)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(discordlim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
