"""Quantum discord, classical correlations, and the cost of communicating
measurement records by classical means, for small multipartite systems."""

from types import ModuleType as _ModuleType

from .correlations import (
    CorrelationReport,
    accessible_information,
    classical_correlation,
    mutual_information,
    qubit_projective_povm,
    random_povm,
)
from .koashi_winter import (
    classical_correlation_kw,
    concurrence,
    entanglement_of_formation,
    example_branches,
    example_state,
)
from .linalg import (
    BroadcastIsometry,
    DensityMatrix,
    Povm,
    StateVector,
    binary_entropy,
    partial_trace,
    purify,
    random_density_matrix,
    random_isometry_mat,
    random_pure_state,
    random_unitary,
    von_neumann_entropy,
)
from .protocols import (
    ClonerOutput,
    CrossoverResult,
    PreparedEnsembleChannel,
    apply_broadcast,
    classical_copy_isometry,
    cloning_recipient_info,
    find_crossover,
    locc_transfer_info,
    measure_and_prepare,
    optimal_state_dependent_cloner,
    random_broadcast_isometry,
    recipient_infos,
)

__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
