"""Eigensolver calls, and the optimizer's state contractions, per public call.

Inside the package intermediate states pass as raw arrays; only value
types built from caller input or returned to the caller run their
validation eigensolve. These budgets keep re-validation from creeping
back into the library.
"""

import copy
import pickle

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

# (call, its arguments, most eigensolver calls allowed). A DensityMatrix
# keeps its marginal entropies once a call has computed them, so each
# budgeted call gets a copy of every state argument, which the constructor
# builds anew, before the count starts: a state an earlier test had warmed
# would read low.
BUDGETS = {
    "example_state": (dl.example_state, (np.pi / 8,), 1),
    # One stacked eigensolve of the two marginals.
    "mutual_information": (dl.mutual_information, (RHO,), 1),
    "von_neumann_entropy": (dl.von_neumann_entropy, (RHO,), 0),
    "von_neumann_entropy_raw": (dl.von_neumann_entropy, (RHO.mat,), 1),
    "partial_trace": (dl.partial_trace, (RHO, [0]), 1),
    "accessible_information": (dl.accessible_information, (RHO, MEASUREMENT), 0),
    # I's marginals and the reported measurement's validation.
    "classical_correlation": (dl.classical_correlation, (RHO,), 2),
    # A pure state is certified, not searched: I's marginals (one stacked
    # eigensolve for a qubit system, two for a qutrit), whose S(rho^S) is
    # I^c (a searched qutrit state takes ~30); the sigma_z measurement it
    # reports is built once, at import.
    "classical_correlation_pure": (dl.classical_correlation, (PURE,), 1),
    "classical_correlation_pure_qutrit": (dl.classical_correlation, (PURE_QUTRIT,), 2),
    # The purification and the marginals' stacked eigensolve.
    "classical_correlation_kw": (dl.classical_correlation_kw, (RHO,), 2),
    "cloning_recipient_info": (dl.cloning_recipient_info, (np.pi / 8,), 1),
    # Nine gap evaluations: KW's purification and the cloner's one; both
    # rho^S are diagonal, so their spectra are sorts.
    "find_crossover": (dl.find_crossover, (), 18),
    "qubit_projective_povm": (dl.qubit_projective_povm, (0.3, 0.2), 1),
    "apply_broadcast": (dl.apply_broadcast, (PSI, ISOMETRY), 1),
    "recipient_infos": (dl.recipient_infos, (BROADCAST,), 2),
    "locc_transfer_info": (dl.locc_transfer_info, (RHO, MEASUREMENT), 0),
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
    fn, args, budget = BUDGETS[name]
    args = [copy.copy(a) if isinstance(a, dl.DensityMatrix) else a for a in args]
    assert eig_calls(lambda: fn(*args)) <= budget


def test_i_and_kw_of_one_state_share_its_marginals(eig_calls):
    # KW after I makes one eigensolve, its purification; I after KW none.
    rho = copy.copy(RHO)
    assert eig_calls(lambda: dl.mutual_information(rho)) == 1
    assert eig_calls(lambda: dl.classical_correlation_kw(rho)) == 1
    rho = copy.copy(RHO)
    assert eig_calls(lambda: dl.classical_correlation_kw(rho)) == 2
    assert eig_calls(lambda: dl.mutual_information(rho)) == 0


def test_a_copy_computes_the_kept_marginals_again_bit_for_bit(eig_calls):
    # A qubit system's marginals share one stacked eigensolve; a qutrit
    # system's take one each.
    states = ((RHO, 1), (dl.DensityMatrix(dl.random_density_matrix(6, 11), (3, 2)), 2))
    for rho, eigensolves in states:
        want = dl.mutual_information(rho)
        for twin in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            other = twin(rho)
            assert eig_calls(lambda: dl.mutual_information(other)) == eigensolves
            assert other._marginals == rho._marginals
            assert dl.mutual_information(other) == want


def test_density_matrix_validates_with_one_eigensolve(eig_calls):
    assert eig_calls(lambda: dl.DensityMatrix(RHO.mat, (2, 2))) == 1
    with pytest.raises(ValueError, match="negative eigenvalue"):
        dl.DensityMatrix(np.diag([1.5, -0.5]), (2,))


@pytest.mark.parametrize("d_system", (2, 3))
def test_optimizer_reads_the_state_once(monkeypatch, d_system):
    # One branch contraction of the state serves the projective batches
    # and, for a qubit system, the Newton step's Bloch form.
    rho = RHO if d_system == 2 else dl.DensityMatrix(dl.random_density_matrix(6, 1027), (3, 2))
    calls = []
    contract = corr._branch_states
    monkeypatch.setattr(corr, "_branch_states", lambda *a: calls.append(a) or contract(*a))
    dl.classical_correlation(rho)
    assert len(calls) == 1


# Most eigensolver calls in one op of each kind of the benchmark's
# closed_form workload, over its ops 0-159 (two find_crossover cycles).
# Each op builds its states, so every count is cold. A family op: the
# state's validation, KW's purification, one stacked eigensolve of the
# marginals that KW and I share, and the cloner's one.
CLOSED_FORM_BUDGETS = {"family": 4, "rank2": 3, "broadcast": 6, "crossover": 18}


# Most eigensolver calls in one op of each class of the benchmark's
# random_states workload, over its ops 0-17 (two class cycles). Each op
# validates its state (1) and computes I (1 stacked eigensolve for a qubit
# system, 2 for a qutrit); a qutrit system's J batches take one eigensolve
# each, a qubit system's none. The rank-1 classes are certified without a
# search or a J evaluation: a d3r1 op took 30 calls when searched.
RANDOM_STATES_BUDGETS = {"d2r1": 2, "d3r1": 3, "d2r2": 3, "d3r2": 50, "d2r4": 3, "d3r6": 51}


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
