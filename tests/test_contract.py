"""The input contract of every public name, in one table.

Each row is a public call, a bad input and the message of the ValueError
it must raise. Tier-1 turns numpy warnings into errors, so a row whose
input reaches numpy arithmetic before the check fails too. Every name in
`discordlim.__all__` has a row, or is in NOTHING_TO_REJECT.
"""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import discordlim as dl

NON_FINITE = (np.nan, np.inf, -np.inf)
HALF = np.eye(2) / 2
E_SKEW = np.array([[0.5, 0.3j], [0.3j, 0.5]])
COPY_ISOMETRY = dl.classical_copy_isometry()
COPY = COPY_ISOMETRY.matrix
BELL = dl.StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2)).to_density()
ONE_QUBIT = dl.DensityMatrix(HALF, (2,))
QUBIT_QUTRIT = dl.DensityMatrix(np.eye(6) / 6, (2, 3))
THREE_QUBITS = dl.DensityMatrix(np.eye(8) / 8, (2, 2, 2))
QUQUART = dl.DensityMatrix(dl.random_density_matrix(4, 3), (4,))
FAMILY = dl.example_state(0.1)
Z = dl.qubit_projective_povm(0.0, 0.0)
QUTRIT = dl.random_pure_state(3, 1)
PSI = dl.StateVector(np.array([1.0, 0.0]), (2,))
PHI_NEGATIVE = dl.StateVector(np.array([-np.cos(0.45), np.sin(0.45)]), (2,))
CHANNEL = dl.PreparedEnsembleChannel(Z, (ONE_QUBIT, ONE_QUBIT))

DIMS = "dims must be positive integers"
SQUARE = "POVM needs at least one element, all nonempty, square and same-sized"
RECIPIENTS = "recipient dims must be positive integers"
ANCILLA = "ancilla dim must be positive integers"
THETA = r"outside \[0, pi/4\]"
SEED = "seed must be a non-negative integer"
# Real arguments of a type `linalg._as_real` refuses: it takes a Python or
# numpy int or float alone.
NOT_REAL = {"array-1": np.array([0.1]), "array-2": np.array([0.1, 0.2]),
            "Fraction": Fraction(1, 10), "Decimal": Decimal("0.1")}


def raw(arg, kind="DensityMatrix", given="ndarray"):
    """The message of a value-type argument given as something else."""
    return f"{arg} must be a {kind}, got {given}"


def with_entry(a, pos, value):
    """A complex copy of `a` with the entry at `pos` replaced."""
    out = np.array(a, dtype=complex)
    out[pos] = value
    return out


# (public name, label, arguments, message regex)
ROWS = [
    ("DensityMatrix", "trace", (np.eye(2), (2,)), r"trace is \(2\+0j\), expected 1"),
    ("DensityMatrix", "non-hermitian", (np.array([[0.5, 0.5], [0.0, 0.5]]), (2,)),
     "density matrix is not Hermitian"),
    ("DensityMatrix", "negative", (np.diag([1.5, -0.5]), (2,)),
     "density matrix has a significantly negative eigenvalue"),
    ("DensityMatrix", "not-square", (np.array([0.5, 0.5]), (2,)), "density matrix must be square"),
    ("DensityMatrix", "dims-product", (np.eye(4) / 4, (2, 3)),
     r"product of dims \(2, 3\) does not match size 4"),
    *[("DensityMatrix", f"{bad}-{where}", (with_entry(HALF, pos, bad), (2,)),
       "density matrix has non-finite entries")
      for bad in NON_FINITE for where, pos in (("diagonal", (0, 0)), ("off-diagonal", (0, 1)))],
    *[("DensityMatrix", f"dims-{dims}", (matrix, dims), DIMS)
      for matrix, dims in ((np.eye(4) / 4, (2.9, 2.2)), (np.eye(4) / 4, (2.0, 2)),
                           (HALF, (-2, -1)), (HALF, ()), (HALF, 2))],
    ("StateVector", "unnormalized", (np.array([1.0, 1.0]), (2,)), "state vector is not normalized"),
    ("StateVector", "matrix", (np.eye(2) / np.sqrt(2), (4,)),
     "state vector must be one-dimensional"),
    *[("StateVector", f"{bad}", (np.array([1.0, bad]), (2,)), "state vector has non-finite entries")
      for bad in NON_FINITE],
    ("StateVector", "dims-(1.5, 4)", (np.ones(4) / 2, (1.5, 4)), DIMS),
    ("StateVector", "dims-(2, 1, 0)", (np.ones(2) / np.sqrt(2), (2, 1, 0)), DIMS),
    ("Povm", "non-psd", ((np.diag([2.0, -1.0]), np.diag([-1.0, 2.0])),), "POVM element is not PSD"),
    # Complete, and PSD in its Hermitian part, diag(0.5, 0.5).
    ("Povm", "non-hermitian", ((E_SKEW, np.eye(2) - E_SKEW),), "POVM element is not Hermitian"),
    ("Povm", "no-elements", ((),), SQUARE),
    ("Povm", "non-square", ((np.ones((2, 3)) / 2,),), SQUARE),
    ("Povm", "mixed-sizes", ((HALF, np.eye(3) / 2),), SQUARE),
    ("Povm", "scalar", ((1.0,),), SQUARE),
    ("Povm", "none", (None,), SQUARE),
    ("Povm", "empty", ((np.zeros((0, 0)),),), SQUARE),
    ("Povm", "incomplete", ((HALF,),), "POVM elements do not sum to the identity"),
    *[("Povm", f"{bad}", ((np.diag([1.0, bad]), np.diag([0.0, 1.0])),),
       "POVM element has non-finite entries") for bad in NON_FINITE],
    # Their sum is inf - inf.
    ("Povm", "opposite-infinities", ((np.diag([np.inf, 0.0]), np.diag([-np.inf, 1.0])),),
     "POVM element has non-finite entries"),
    *[("BroadcastIsometry", f"{bad}", (with_entry(COPY, (0, 1), bad), (2, 2), 1),
       "isometry matrix has non-finite entries") for bad in NON_FINITE],
    ("BroadcastIsometry", "non-isometry", (np.ones((4, 2)), (2, 2), 1),
     "matrix is not an isometry"),
    ("BroadcastIsometry", "one-dimensional", (np.ones(4) / 2, (2, 2), 1),
     "isometry matrix must be two-dimensional"),
    ("BroadcastIsometry", "no-columns", (np.zeros((4, 0)), (2, 2), 1),
     "isometry matrix must be two-dimensional with at least one column"),
    ("BroadcastIsometry", "rows", (COPY, (2, 2), 2), "matrix rows 4 do not match output dim 8"),
    *[("BroadcastIsometry", f"dims-{recipients}-{ancilla}", (COPY, recipients, ancilla), message)
      for recipients, ancilla, message in (((2, 2.0), 1, RECIPIENTS), ((4.5,), 1, RECIPIENTS),
                                           (4, 1, RECIPIENTS), ((2, 2), 1.0, ANCILLA))],
    ("BroadcastIsometry", "zero-recipient", (np.zeros((0, 2)), (2, 0), 1),
     rf"{RECIPIENTS}, got \(2, 0\)"),
    ("BroadcastIsometry", "no-recipient", (np.eye(2), (), 2), rf"{RECIPIENTS}, got \(\)"),
    ("partial_trace", "empty-keep", (BELL, []), "keep set must be nonempty"),
    ("partial_trace", "keep-out-of-range", (BELL, [2]),
     r"keep indices \[2\] out of range for 2 subsystems"),
    *[("partial_trace", f"keep-{keep}", (FAMILY, keep), "keep indices must be integers")
      for keep in ([0.7], [1.0], [0, "1"])],
    *[("von_neumann_entropy", f"{bad}", (with_entry(HALF, (0, 0), bad),),
       "density matrix has non-finite entries") for bad in NON_FINITE],
    ("von_neumann_entropy", "negative", (np.diag([2.0, -1.0]),),
     "density matrix has a significantly negative eigenvalue"),
    ("von_neumann_entropy", "not-square", (np.array([0.5, 0.5]),), "density matrix must be square"),
    *[("binary_entropy", f"{p!r}", (p,), r"outside \[0, 1\]")
      for p in (1.5, -0.5, np.nan, "0.5", 0.5 + 0j)],
    *[("binary_entropy", label, (p,), r"outside \[0, 1\]") for label, p in NOT_REAL.items()],
    *[("random_pure_state", f"dim-{dim}", (dim, 0), "dim must be positive integers")
      for dim in (2.5, 0)],
    ("random_unitary", "dim-0", (0, 0), "d_in and d_out must be positive integers"),
    ("random_isometry_mat", "shrinking", (4, 2, 0), "d_in=4 exceeds d_out=2"),
    *[("random_isometry_mat", f"{d_in}-{d_out}", (d_in, d_out, 0),
       "d_in and d_out must be positive integers") for d_in, d_out in ((2.0, 4), (0, 4))],
    *[("random_density_matrix", f"{dim}-{rank}", (dim, 0, rank),
       "dim and rank must be positive integers") for dim, rank in ((4, 0), (0, None), (2.5, None))],
    ("mutual_information", "three-factors", (THREE_QUBITS,), "expected a bipartite layout"),
    ("accessible_information", "apparatus-mismatch", (QUBIT_QUTRIT, Z),
     "POVM dimension does not match the apparatus"),
    ("locc_transfer_info", "apparatus-mismatch", (QUBIT_QUTRIT, Z),
     "POVM dimension does not match the apparatus"),
    *[("qubit_projective_povm", f"{angles}", angles, "measurement angles must be finite")
      for angles in ((0.1, np.inf), (np.inf, 0.0), (np.nan, 0.0), ("a", 0.0), (1j, 0.0))],
    *[("qubit_projective_povm", label, (angle, 0.0), "measurement angles must be finite")
      for label, angle in NOT_REAL.items()],
    ("random_povm", "one-outcome", (1, 0), "rank-1 qubit POVM needs at least 2 outcomes"),
    ("random_povm", "non-integral", (2.5, 0), "n_outcomes must be positive integers"),
    ("classical_correlation", "qutrit-apparatus", (QUBIT_QUTRIT,),
     "measurement optimizer requires a qubit apparatus"),
    *[("example_state", f"{theta}", (theta,), THETA) for theta in (-0.1, np.pi / 2, np.nan, None)],
    *[("example_branches", f"{theta}", (theta,), THETA) for theta in (1.0, np.nan, None)],
    *[("cloning_recipient_info", f"{theta}", (theta,), THETA) for theta in (1.0, np.nan, None)],
    *[(name, label, (theta,), THETA) for name in ("example_state", "example_branches",
                                                  "cloning_recipient_info")
      for label, theta in NOT_REAL.items()],
    *[(name, f"{rho.dims}", (rho,), "two qubits")
      for name in ("concurrence", "entanglement_of_formation") for rho in (ONE_QUBIT, QUQUART)],
    ("classical_correlation_kw", "rank-4",
     (dl.DensityMatrix(dl.random_density_matrix(4, 9), (2, 2)),), "state rank exceeds 2"),
    ("classical_correlation_kw", "qutrit-system",
     (dl.DensityMatrix(dl.random_density_matrix(6, 9, 2), (3, 2)),),
     "the system factor must be a qubit"),
    ("PreparedEnsembleChannel", "outcome-count", (Z, (ONE_QUBIT,)),
     "one prepared state per measurement outcome required"),
    ("PreparedEnsembleChannel", "prepared-none", (Z, None),
     "one prepared state per measurement outcome required"),
    ("PreparedEnsembleChannel", "prepared-dims",
     (Z, (ONE_QUBIT, dl.DensityMatrix(np.eye(3) / 3, (3,)))),
     "prepared states must share one dimension"),
    ("optimal_state_dependent_cloner", "qutrits", (QUTRIT, QUTRIT), "cloner inputs must be qubits"),
    ("optimal_state_dependent_cloner", "negative-overlap", (PSI, PHI_NEGATIVE),
     "cloner requires a real nonnegative input overlap"),
    *[("random_broadcast_isometry", f"dims-{recipients}-{ancilla}", (2, recipients, ancilla, 0),
       message) for recipients, ancilla, message in (((2, 2.5), 1, RECIPIENTS),
                                                     ((2, 2), 2.0, ANCILLA))],
    ("random_broadcast_isometry", "d_in-2.0", (2.0, (2, 2), 1, 0),
     "d_in and d_out must be positive integers"),
    ("random_broadcast_isometry", "no-recipient", (2, (), 2, 0), rf"{RECIPIENTS}, got \(\)"),
    ("apply_broadcast", "apparatus-mismatch",
     (FAMILY, dl.random_broadcast_isometry(3, (2, 2), 1, 0)),
     "isometry input does not match the apparatus dimension"),
    ("apply_broadcast", "three-factors", (THREE_QUBITS, COPY_ISOMETRY),
     "expected a bipartite layout"),
    ("recipient_infos", "one-factor", (ONE_QUBIT,),
     "expected a system and at least one recipient"),
    # A raw array where a signature names a value type.
    *[(name, "raw-rho", args, raw("rho")) for name, args in (
        ("mutual_information", (BELL.mat,)), ("accessible_information", (BELL.mat, Z)),
        ("classical_correlation", (BELL.mat,)), ("purify", (HALF,)),
        ("partial_trace", (BELL.mat, [0])), ("concurrence", (BELL.mat,)),
        ("entanglement_of_formation", (BELL.mat,)), ("classical_correlation_kw", (FAMILY.mat,)),
        ("measure_and_prepare", (FAMILY.mat, CHANNEL)), ("locc_transfer_info", (BELL.mat, Z)),
        ("recipient_infos", (BELL.mat,)))],
    *[(name, "raw-m", (BELL, Z.elements), raw("m", "Povm", "tuple"))
      for name in ("accessible_information", "locc_transfer_info")],
    ("measure_and_prepare", "raw-ch", (FAMILY, (Z, CHANNEL.prepared)),
     raw("ch", "PreparedEnsembleChannel", "tuple")),
    ("optimal_state_dependent_cloner", "raw-psi", (PSI.vec, PSI), raw("psi", "StateVector")),
    ("optimal_state_dependent_cloner", "raw-phi", (PSI, PSI.vec), raw("phi", "StateVector")),
    ("apply_broadcast", "raw-state", (FAMILY.mat, COPY_ISOMETRY),
     raw("state", "DensityMatrix or StateVector")),
    ("apply_broadcast", "raw-iso", (FAMILY, COPY), raw("iso", "BroadcastIsometry")),
    ("PreparedEnsembleChannel", "raw-measurement", (Z.elements, CHANNEL.prepared),
     raw("measurement", "Povm", "tuple")),
    ("PreparedEnsembleChannel", "raw-prepared", (Z, (ONE_QUBIT, HALF)), raw("prepared state")),
    # Every seed is a non-negative integer: None would draw afresh each call.
    *[(name, f"seed-{seed}", (*args, seed), SEED) for name, args in (
        ("random_pure_state", (2,)), ("random_isometry_mat", (2, 4)), ("random_unitary", (2,)),
        ("random_density_matrix", (2,)), ("random_povm", (2,)),
        ("random_broadcast_isometry", (2, (2, 2), 1))) for seed in (1.5, -1, None)],
]

# Names with no input a caller can put outside the contract: no arguments
# (find_crossover, classical_copy_isometry), and result records the
# library fills in.
NOTHING_TO_REJECT = {"find_crossover", "classical_copy_isometry", "ClonerOutput",
                     "CorrelationReport", "CrossoverResult"}


@pytest.mark.parametrize("name, args, message", [
    pytest.param(name, args, message, id=f"{name}-{label}") for name, label, args, message in ROWS])
def test_rejects(name, args, message):
    with pytest.raises(ValueError, match=message):
        getattr(dl, name)(*args)


def test_every_public_name_has_a_row():
    assert sorted(dl.__all__) == sorted({row[0] for row in ROWS} | NOTHING_TO_REJECT)
