"""eqlab: a numerical laboratory for equilibration of quantum subsystems."""

__version__ = "0.1.0"

from .bipartite import BipartiteSpace
from .dynamics import energy_coefficients
from .errors import (
    ConfigInvalidError,
    DegenerateHamiltonianError,
    DimensionMismatchError,
    DimensionOverflowError,
    EqlabError,
    NoConvergenceError,
    NotHermitianError,
)
from .hamiltonians import (
    SpectralHamiltonian,
    diagonal_product_hamiltonian,
    gap_analysis,
    random_spectral_hamiltonian,
    spin_bath_hamiltonian,
    with_nondegenerate_gaps,
)
from .linalg import haar_random_unitary, hermitian_eigendecomposition
from .runner import ExperimentConfig, ExperimentRecord, emit, run_experiment
from .states import (
    Subspace,
    effective_dimension,
    haar_random_state,
    product_state,
    purity,
    trace_distance,
)
from .verifiers import (
    CONSTANTS,
    BoundCheck,
    ConstantsTable,
    counterexample_checks,
    delta_quantity,
    theorem1_check,
    theorem4_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
