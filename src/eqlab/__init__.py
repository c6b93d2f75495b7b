"""eqlab: a numerical laboratory for equilibration of quantum subsystems."""

__version__ = "0.1.0"

from .bipartite import BipartiteSpace, swap_operator
from .dynamics import TrajectoryStats, energy_coefficients, torus_state, trajectory_statistics
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
    GapReport,
    SpectralHamiltonian,
    diagonal_product_hamiltonian,
    gap_analysis,
    random_spectral_hamiltonian,
    spin_bath_hamiltonian,
)
from .linalg import (
    EigenDecomposition,
    haar_random_unitary,
    hermitian_eigendecomposition,
    kronecker_product,
)
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
    counterexample_demonstrations,
    delta_quantity,
    haar_pair_moment_check,
    subadditivity_and_bath_checks,
    swap_trace_identity_check,
    theorem1_check,
    theorem2_statistics,
    theorem3_statistics,
    theorem4_tail,
)

__all__ = [name for name in dir() if not name.startswith("_")]
