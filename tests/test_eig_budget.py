"""Eigensolver calls, and the optimizer's state contractions, per public call.

Inside the package intermediate states pass as raw arrays; only value
types built from caller input or returned to the caller run their
validation eigensolve. These budgets keep re-validation from creeping
back into the library.
"""

import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

import discordlim as dl
from discordlim import correlations as corr

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

RHO = dl.example_state(np.pi / 8)
PSI = dl.StateVector(dl.random_pure_state(4, 3).vec, (2, 2))
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


def test_closed_form_ops_stay_within_their_kind_budgets(eig_calls):
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads, tracing = (importlib.import_module(m) for m in ("workloads", "tracing"))
    finally:
        sys.path.remove(str(PERFBENCH))
    workload = workloads.WORKLOADS["closed_form"](0)
    most = dict.fromkeys(CLOSED_FORM_BUDGETS, 0)
    for i in range(2 * workloads.CROSSOVER_EVERY):
        inp = workload.input(i)
        kind = workload.kind(inp)
        most[kind] = max(most[kind], eig_calls(lambda: workload.run(tracing.untraced_call, inp)))
    assert {k: n for k, n in most.items() if n > CLOSED_FORM_BUDGETS[k]} == {}
