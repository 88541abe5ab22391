"""Seeded property suites behind the `verify` CLI command.

Each suite draws its own sample seeds from the master seed, checks one
documented invariant, and reports a (name, checks, failures) triple.
These suites are the one definition of the sampled invariants: Tier-1
runs each of them once, at a pinned (seed, samples), and asserts that it
passes with its exact check count; no test re-implements their checks.

Every check is an identity or a bound that holds exactly, so only
rounding can break one: every suite compares against ROUNDING_TOL.
`perfbench/workloads.py` reads the four names bound to it below, for
its own output checks, once at import, so those names must stay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import correlations as corr
from . import koashi_winter as kw
from . import linalg as la
from . import protocols as proto

# The checks round in sums of a few products, in entropies of spectra up
# to dimension 16, and in J at the optimizer's reported measurement (J is flat
# at the optimum, so a 1e-8 rad final step costs ~1e-16). Every suite also
# passes at a tenth of this value, on seeds 0-39 at 100 samples and on
# seeds 7, 11 and 101 at 1000 samples.
ROUNDING_TOL = 1e-12
KW_AGREEMENT_TOL = SUM_BOUND_TOL = CHAIN_TOL = ENTROPY_TOL = ROUNDING_TOL


@dataclass
class SuiteResult:
    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, cond: bool, detail: str):
        self.checks += 1
        if not cond:
            self.failures.append(detail)


def _random_bipartite_dm(seed: int) -> la.DensityMatrix:
    return la.DensityMatrix(la.random_density_matrix(4, seed), (2, 2))


def _random_pure_pair(seed: int) -> la.StateVector:
    return la.StateVector(la.random_pure_state(4, seed).vec, (2, 2))


def _locally_rotated(seed: int, *mats: np.ndarray) -> list[la.DensityMatrix]:
    """u mat u^dagger of each mat, for the local unitary u_1 x u_2 (seeds seed + 1, seed + 2)."""
    u = np.kron(la.random_unitary(2, seed + 1), la.random_unitary(2, seed + 2))
    return [la.DensityMatrix(u @ mat @ u.conj().T, (2, 2)) for mat in mats]


def suite_linalg_partial_trace(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("linalg.partial_trace_matches_lifted_observables_and_product_factors")
    for k in range(samples):
        s = seed * 1000 + k
        rho = _random_bipartite_dm(s)
        obs = la.hermitianize(np.random.default_rng(s).standard_normal((2, 2, 2)) @ [1, 1j])
        factors = [la.random_density_matrix(2, s + 1), la.random_density_matrix(2, s + 2)]
        product = la.DensityMatrix(np.kron(*factors), (2, 2))
        for keep, lifted in ((0, np.kron(obs, np.eye(2))), (1, np.kron(np.eye(2), obs))):
            red = la.partial_trace(rho, [keep])
            res.check(abs(np.trace(red.mat @ obs) - np.trace(rho.mat @ lifted))
                      < ROUNDING_TOL, f"expectation value not kept, seed {s}")
            res.check(np.max(np.abs(la.partial_trace(product, [keep]).mat - factors[keep]))
                      < ROUNDING_TOL, f"product factor not kept, seed {s}")
    return res


def suite_linalg_entropy(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("linalg.entropy_additivity_and_unitary_invariance")
    for k in range(samples):
        s = seed * 2000 + k
        a = la.random_density_matrix(2, s)
        b = la.random_density_matrix(3, s + 1)
        lhs = la.von_neumann_entropy(np.kron(a, b))
        rhs = la.von_neumann_entropy(a) + la.von_neumann_entropy(b)
        res.check(abs(lhs - rhs) < ROUNDING_TOL, f"additivity failed, seed {s}")
        u = la.random_unitary(4, s + 2)
        rho = la.random_density_matrix(4, s + 3)
        res.check(
            abs(la.von_neumann_entropy(u @ rho @ u.conj().T) - la.von_neumann_entropy(rho))
            < ROUNDING_TOL,
            f"unitary invariance failed, seed {s}",
        )
    return res


def suite_linalg_purify(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("linalg.purify_roundtrip_and_spectra")
    for k in range(samples):
        s = seed * 3000 + k
        rho = la.DensityMatrix(la.random_density_matrix(4, s), (4,))
        pure = la.purify(rho).to_density()
        back = la.partial_trace(pure, [0])
        res.check(np.max(np.abs(back.mat - rho.mat)) < ROUNDING_TOL,
                  f"purify roundtrip failed, seed {s}")
        # A pure state's two marginals share their nonzero spectrum.
        res.check(abs(la.von_neumann_entropy(la.partial_trace(pure, [1]))
                      - la.von_neumann_entropy(rho)) < ROUNDING_TOL,
                  f"ancilla entropy != S(rho), seed {s}")
    return res


def suite_corr_chain(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("correlations.sampled_povm_chain_0_J_Ic_I")
    for k in range(max(1, samples // 10)):
        s = seed * 4000 + k
        rho = _random_bipartite_dm(s)
        rep = corr.classical_correlation(rho)
        res.check(rep.classical_info <= rep.mutual_info + ROUNDING_TOL,
                  f"Ic exceeds I, seed {s}")
        res.check(abs(corr.accessible_information(rho, rep.measurement) - rep.classical_info)
                  < ROUNDING_TOL, f"reported measurement misses Ic, seed {s}")
        for n_out, off in ((2, 0), (3, 500)):
            for j in range(5):
                m = corr.random_povm(n_out, s + off + j)
                jval = corr.accessible_information(rho, m)
                res.check(-ROUNDING_TOL <= jval <= rep.classical_info + ROUNDING_TOL,
                          f"sampled POVM beats the optimizer, seed {s + off + j}")
    return res


def suite_corr_cq_states(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("correlations.cq_states_have_zero_discord")
    for k in range(max(1, samples // 10)):
        s = seed * 5000 + k
        rng = np.random.default_rng(s)
        p = rng.dirichlet([1.0, 1.0])
        mats = [la.random_density_matrix(2, s + 1), la.random_density_matrix(2, s + 2)]
        mat = sum(
            p[i] * np.kron(mats[i], np.diag([1.0 if j == i else 0.0 for j in range(2)]))
            for i in range(2)
        )
        rho = la.DensityMatrix(mat, (2, 2))
        rep = corr.classical_correlation(rho)
        res.check(abs(rep.discord) < ROUNDING_TOL, f"cq state has discord, seed {s}")
    return res


def suite_corr_local_unitary(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("correlations.local_unitary_invariance")
    for k in range(max(1, samples // 10)):
        s = seed * 6000 + k
        rho = _random_bipartite_dm(s)
        r1 = corr.classical_correlation(rho)
        r2 = corr.classical_correlation(_locally_rotated(s, rho.mat)[0])
        res.check(abs(r1.classical_info - r2.classical_info) < ROUNDING_TOL,
                  f"Ic not locally unitary invariant, seed {s}")
        res.check(abs(r1.discord - r2.discord) < ROUNDING_TOL,
                  f"discord not locally unitary invariant, seed {s}")
    return res


def suite_corr_pure_gap(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("correlations.pure_state_factor_two_gap")
    for k in range(max(1, samples // 10)):
        s = seed * 7000 + k
        rho = _random_pure_pair(s).to_density()
        rep = corr.classical_correlation(rho)
        s_s = la.von_neumann_entropy(la.partial_trace(rho, [0]))
        res.check(abs(rep.discord - s_s) < ROUNDING_TOL, f"discord != S(rho^S), seed {s}")
        j = corr.accessible_information(rho, rep.measurement)
        res.check(abs(j - rep.classical_info) < ROUNDING_TOL,
                  f"reported measurement misses Ic, seed {s}")
    return res


def suite_kw_agreement(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("koashi_winter.dual_route_agreement_and_monotonicity")
    thetas = np.linspace(0.0, np.pi / 4, min(101, max(3, samples + 1)))
    vals = []
    for t in thetas:
        rho = kw.example_state(t)
        v_kw = kw.classical_correlation_kw(rho)
        v_opt = corr.classical_correlation(rho).classical_info
        vals.append(v_kw)
        res.check(abs(v_kw - v_opt) < ROUNDING_TOL,
                  f"routes disagree at theta={t:.6f}")
    res.check(all(vals[i + 1] <= vals[i] + ROUNDING_TOL for i in range(len(vals) - 1)),
              "kw route not monotone nonincreasing")
    res.check(abs(vals[0] - 1.0) < ROUNDING_TOL and abs(vals[-1]) < ROUNDING_TOL,
              "endpoint values wrong")
    return res


_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)


def suite_kw_concurrence(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("koashi_winter.concurrence_invariance_and_pure_ef")
    for k in range(samples):
        s = seed * 8000 + k
        rho = _random_bipartite_dm(s)
        # A locally rotated Werner state p |Psi-><Psi-| + (1 - p) 1/4 has
        # C = max(0, (3p - 1) / 2): a mixed-state value, which invariance
        # and pure states alone do not pin down.
        p = np.random.default_rng(s).random()
        werner = p * np.outer(_SINGLET, _SINGLET) + (1 - p) * np.eye(4) / 4
        rot, rot_werner = _locally_rotated(s, rho.mat, werner)
        res.check(abs(kw.concurrence(rho) - kw.concurrence(rot)) < ROUNDING_TOL,
                  f"concurrence not invariant, seed {s}")
        pure = _random_pure_pair(s + 3).to_density()
        ef = kw.entanglement_of_formation(pure)
        s_red = la.von_neumann_entropy(la.partial_trace(pure, [0]))
        res.check(abs(ef - s_red) < ROUNDING_TOL, f"EF of pure state wrong, seed {s}")
        res.check(abs(kw.concurrence(rot_werner) - max(0.0, (3 * p - 1) / 2)) < ROUNDING_TOL,
                  f"Werner concurrence wrong, seed {s}")
    return res


def suite_proto_relays(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("protocols.measure_and_prepare_relays_respect_Ic")
    # The reference for the LOCC relay: I(S:R) of the measure-and-prepare output
    # with orthonormal flag states, from its three entropies.
    flags = {n: tuple(la.DensityMatrix(np.diag(e), (n,)) for e in np.eye(n)) for n in (2, 3, 4)}
    for k in range(max(1, samples // 20)):
        s = seed * 10000 + k
        rho = _random_bipartite_dm(s)
        ic = corr.classical_correlation(rho).classical_info
        for j in range(20):
            # Rank-1 POVMs of n = 2, 3 and 4 outcomes; two outcomes are projective.
            n = 2 + j % 3
            m = corr.random_povm(n, s + j)
            li = proto.locc_transfer_info(rho, m)
            flag_relay = proto.measure_and_prepare(rho, proto.PreparedEnsembleChannel(m, flags[n]))
            res.check(abs(li - corr.mutual_information(flag_relay)) < ROUNDING_TOL,
                      f"locc transfer != J, seed {s + j}")
            res.check(li <= ic + ROUNDING_TOL, f"locc transfer beats Ic, seed {s + j}")
            # Relayed to random mixed states of dimension n, sum_i B_i x sigma_i is separable.
            sigmas = tuple(la.DensityMatrix(la.random_density_matrix(n, (s * 20 + j) * 4 + i), (n,))
                           for i in range(n))
            out = proto.measure_and_prepare(rho, proto.PreparedEnsembleChannel(m, sigmas))
            pt = out.mat.reshape(out.dims * 2).swapaxes(1, 3).reshape(out.mat.shape)
            res.check(np.linalg.eigvalsh(pt)[0] >= -ROUNDING_TOL,
                      f"relay output not PPT, seed {s + j}")
            res.check(corr.mutual_information(out) <= ic + ROUNDING_TOL,
                      f"relay to mixed states beats Ic, seed {s + j}")
    return res


def _optimal_cloner_fidelity(s: float) -> float:
    """The best global fidelity of any cloner of two pure states with real
    overlap 0 <= s <= 1 to two copies each,
    F = (1 + s^3 + sqrt((1 - s^2)(1 - s^4))) / 2 (Bruss, DiVincenzo, Ekert,
    Fuchs, Macchiavello & Smolin, PRA 57, 2368 (1998))."""
    return 0.5 * (1 + s ** 3 + np.sqrt((1 - s ** 2) * (1 - s ** 4)))


def suite_proto_cloner(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("protocols.cloner_attains_the_closed_form_optimum")
    for t in np.linspace(0.0, np.pi / 4, min(101, max(3, samples + 1))):
        psi, phi = kw.example_branches(t)
        out = proto.optimal_state_dependent_cloner(psi, phi)
        s_in = np.vdot(psi.vec, phi.vec).real
        res.check(abs(out.fidelity - _optimal_cloner_fidelity(s_in)) < ROUNDING_TOL,
                  f"fidelity off the optimum at theta={t:.6f}")
        res.check(abs(np.vdot(out.alpha.vec, out.beta.vec) - s_in) < ROUNDING_TOL,
                  f"output overlap drifted at theta={t:.6f}")
    return res


def suite_proto_broadcast(seed: int, samples: int) -> SuiteResult:
    res = SuiteResult("protocols.broadcast_sum_and_average_bounds")
    for k in range(samples):
        s = seed * 11000 + k
        psi = _random_pure_pair(s)
        b_dim = (1, 2, 4)[k % 3]
        iso = proto.random_broadcast_isometry(2, (2, 2), b_dim, s + 1)
        out = proto.apply_broadcast(psi, iso)
        infos = proto.recipient_infos(out)
        s_s = la.von_neumann_entropy(la.partial_trace(out, [0]))
        res.check(infos[0] + infos[1] <= 2 * s_s + ROUNDING_TOL,
                  f"two-recipient sum bound violated, seed {s}")
        # Data processing: a recipient alone holds at most what both hold together.
        (i_both,) = proto.recipient_infos(la.DensityMatrix(out.mat, (2, 4)))
        res.check(max(infos) <= i_both + ROUNDING_TOL,
                  f"a recipient's info exceeds I(S:R1R2), seed {s}")
    for k in range(max(1, samples // 2)):
        s = seed * 12000 + k
        psi = _random_pure_pair(s)
        out = proto.apply_broadcast(psi, proto.random_broadcast_isometry(2, (2, 2, 2), 2, s + 1))
        s_s = la.von_neumann_entropy(la.partial_trace(out, [0]))
        res.check(np.mean(proto.recipient_infos(out)) <= s_s + ROUNDING_TOL,
                  f"n=3 average bound violated, seed {s}")
    return res


ALL_SUITES = [
    suite_linalg_partial_trace,
    suite_linalg_entropy,
    suite_linalg_purify,
    suite_corr_chain,
    suite_corr_cq_states,
    suite_corr_local_unitary,
    suite_corr_pure_gap,
    suite_kw_agreement,
    suite_kw_concurrence,
    suite_proto_relays,
    suite_proto_cloner,
    suite_proto_broadcast,
]


def run_all(seed: int, samples: int) -> list[SuiteResult]:
    seed = la._as_seed(seed)
    samples = la._as_int(samples)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return [suite(seed, samples) for suite in ALL_SUITES]
