"""Eigensolver calls per public call.

Inside the package intermediate states pass as raw arrays; only value
types built from caller input or returned to the caller run their
validation eigensolve. These budgets keep re-validation from creeping
back into the library.
"""

import numpy as np
import pytest

import discordlim as dl

RHO = dl.example_state(np.pi / 8)
PSI = dl.StateVector(dl.random_pure_state(4, 3).vec, (2, 2))
ISOMETRY = dl.random_broadcast_isometry(2, (2, 2, 2), 2, 5)
BROADCAST = dl.apply_broadcast(PSI, ISOMETRY)
MEASUREMENT = dl.qubit_projective_povm(0.3, 0.2)

# (call, most eigensolver calls allowed)
BUDGETS = {
    "example_state": (lambda: dl.example_state(np.pi / 8), 1),
    "mutual_information": (lambda: dl.mutual_information(RHO), 3),
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
