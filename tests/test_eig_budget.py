"""Eigensolver calls, and the optimizer's state contractions, per public call.

Inside the package intermediate states pass as raw arrays; only value
types built from caller input or returned to the caller run their
validation eigensolve. These budgets keep re-validation from creeping
back into the library.
"""

import numpy as np
import pytest

import discordlim as dl
from discordlim import correlations as corr

RHO = dl.example_state(np.pi / 8)
PSI = dl.StateVector(dl.random_pure_state(4, 3).vec, (2, 2))
PURE = PSI.to_density()
PURE_QUTRIT = dl.StateVector(dl.random_pure_state(6, 3).vec, (3, 2)).to_density()
ISOMETRY = dl.random_broadcast_isometry(2, (2, 2, 2), 2, 5)
BROADCAST = dl.apply_broadcast(PSI, ISOMETRY)
MEASUREMENT = dl.qubit_projective_povm(0.3, 0.2)

# (call, most eigensolver calls allowed)
BUDGETS = {
    "example_state": (lambda: dl.example_state(np.pi / 8), 1),
    "mutual_information": (lambda: dl.mutual_information(RHO), 2),
    "von_neumann_entropy": (lambda: dl.von_neumann_entropy(RHO), 0),
    "von_neumann_entropy_raw": (lambda: dl.von_neumann_entropy(RHO.mat), 1),
    "partial_trace": (lambda: dl.partial_trace(RHO, [0]), 1),
    "accessible_information": (lambda: dl.accessible_information(RHO, MEASUREMENT), 0),
    "classical_correlation": (lambda: dl.classical_correlation(RHO), 4),
    # A pure state is certified, not searched: I's two marginals and, for a
    # qutrit system, the one J evaluation (a searched qutrit state takes
    # ~30); the sigma_z measurement it reports is built once, at import.
    "classical_correlation_pure": (lambda: dl.classical_correlation(PURE), 2),
    "classical_correlation_pure_qutrit": (lambda: dl.classical_correlation(PURE_QUTRIT, 3), 3),
    "classical_correlation_kw": (lambda: dl.classical_correlation_kw(RHO), 2),
    "cloning_recipient_info": (lambda: dl.cloning_recipient_info(np.pi / 8), 3),
    "find_crossover": (dl.find_crossover, 45),
    "qubit_projective_povm": (lambda: dl.qubit_projective_povm(0.3, 0.2), 1),
    "apply_broadcast": (lambda: dl.apply_broadcast(PSI, ISOMETRY), 1),
    "recipient_infos": (lambda: dl.recipient_infos(BROADCAST), 2),
    "locc_transfer_info": (lambda: dl.locc_transfer_info(RHO, MEASUREMENT), 0),
}


@pytest.fixture
def eig_calls(monkeypatch):
    """calls(fn) runs fn() and returns how many times it called numpy's
    Hermitian eigensolvers."""
    count = [0]

    def counted(fn):
        def wrapper(*args, **kwargs):
            count[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name)))

    def calls(fn):
        count[0] = 0
        fn()
        return count[0]

    return calls


@pytest.mark.parametrize("name", BUDGETS)
def test_eigensolver_budget(eig_calls, name):
    fn, budget = BUDGETS[name]
    assert eig_calls(fn) <= budget


def test_density_matrix_validates_with_one_eigensolve(eig_calls):
    assert eig_calls(lambda: dl.DensityMatrix(RHO.mat, (2, 2))) == 1
    with pytest.raises(ValueError, match="negative eigenvalue"):
        dl.DensityMatrix(np.diag([1.5, -0.5]), (2,))


@pytest.mark.parametrize("povm_outcomes", (2, 3))
def test_optimizer_reads_the_state_once(monkeypatch, povm_outcomes):
    # One branch contraction of the state serves the projective batches,
    # the Newton step's Bloch form and the three-outcome search.
    calls = []
    contract = corr._branch_states
    monkeypatch.setattr(corr, "_branch_states", lambda *a: calls.append(a) or contract(*a))
    for rho in (RHO, dl.DensityMatrix(dl.random_density_matrix(6, 1027), (3, 2))):
        calls.clear()
        dl.classical_correlation(rho, povm_outcomes)
        assert len(calls) == 1


# Most eigensolver calls in one op of each kind of the benchmark's
# closed_form workload, over its ops 0-159 (two find_crossover cycles).
CLOSED_FORM_BUDGETS = {"family": 8, "rank2": 5, "broadcast": 6, "crossover": 45}


# Most eigensolver calls in one op of each class of the benchmark's
# random_states workload, over its ops 0-17 (two class cycles). Each op
# validates its state (1) and computes I (2); a qutrit system's J batches
# take one eigensolve each, a qubit system's none. The rank-1 classes are
# certified without a search: a d3r1 op took 30 calls when searched.
RANDOM_STATES_BUDGETS = {"d2r1": 3, "d3r1": 4, "d2r2": 4, "d3r2": 50, "d2r4": 4, "d3r6": 51}


def most_calls_per_kind(eig_calls, bench, name, n_ops):
    workloads, tracing = bench
    workload = workloads.WORKLOADS[name](0)
    most = {}
    for i in range(n_ops):
        inp = workload.input(i)
        kind = workload.kind(inp)
        calls = eig_calls(lambda: workload.run(tracing.untraced_call, inp))
        most[kind] = max(most.get(kind, 0), calls)
    return most


def test_closed_form_ops_stay_within_their_kind_budgets(eig_calls, bench):
    most = most_calls_per_kind(eig_calls, bench, "closed_form", 2 * bench[0].CROSSOVER_EVERY)
    assert {k: n for k, n in most.items() if n > CLOSED_FORM_BUDGETS[k]} == {}


def test_random_states_ops_stay_within_their_class_budgets(eig_calls, bench):
    most = most_calls_per_kind(eig_calls, bench, "random_states", 18)
    assert most.keys() == RANDOM_STATES_BUDGETS.keys()
    assert {k: n for k, n in most.items() if n > RANDOM_STATES_BUDGETS[k]} == {}
