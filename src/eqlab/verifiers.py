"""One check per theorem or identity: empirical quantity vs stated bound.

Checks that bound a true expectation are tested on sample means with a
one-sided 3-standard-error allowance. Tail bounds that exceed 1 at desk
scale are flagged vacuous in the check metadata rather than claimed
meaningful. A check of one initial state takes its energy coefficients c;
sweeps over many states run only in `eqlab.runner.REGISTRY`, whose
aggregates call `theorem2_summary` and `theorem3_summary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bipartite import BipartiteSpace, swap_operator
from .dynamics import (
    DEFAULT_N_SAMPLES,
    DEFAULT_THRESHOLDS,
    TrajectoryStats,
    default_t_max,
    dephased_bath,
    dephased_system,
    energy_coefficients,
    reduce_to_system,
    reduced_states,
    reduced_states_at_times,
    require_nondegenerate,
    sample_times,
    time_phases,
    trajectory_statistics,
)
from .errors import DimensionMismatchError
from .hamiltonians import SpectralHamiltonian, diagonal_product_hamiltonian, spin_bath_hamiltonian
from .linalg import as_matrix, check_dimension, hermitize, kronecker_product
from .states import (
    Subspace,
    effective_dimension,
    haar_random_state,
    numerical_rank,
    product_state,
    purity,
    trace_distance,
)


@dataclass(frozen=True)
class ConstantsTable:
    """Closed-form concentration constants."""

    c: float = math.log(2) ** 2 / (72 * math.pi**3)
    c_prime: float = 2 / (9 * math.pi**3)
    c_double_prime: float = 1 / (128 * math.pi**2)


CONSTANTS = ConstantsTable()


@dataclass(frozen=True)
class BoundCheck:
    """Uniform result carrier: satisfied iff empirical <= bound."""

    empirical: float
    bound: float
    satisfied: bool
    margin: float
    metadata: dict = field(default_factory=dict)

    @classmethod
    def upper(cls, empirical: float, bound: float, **metadata) -> "BoundCheck":
        margin = bound - empirical
        return cls(
            empirical=float(empirical),
            bound=float(bound),
            satisfied=margin >= 0,
            margin=float(margin),
            metadata=metadata,
        )

    @classmethod
    def lower(cls, quantity: float, lower_bound: float, **metadata) -> "BoundCheck":
        """Check quantity >= lower_bound, stored with roles swapped so the
        satisfied/margin invariant still reads empirical <= bound."""
        metadata = {"orientation": "lower", **metadata}
        return cls.upper(lower_bound, quantity, **metadata)


def _standard_error(samples: np.ndarray) -> float:
    if samples.size < 2:
        return 0.0
    return float(np.std(samples, ddof=1) / np.sqrt(samples.size))


# ---------------------------------------------------------------------------
# Theorem 1: time-averaged subsystem distance


# Markov's inequality bounds the share of times with D > K·⟨D⟩_t by 1/K. For
# the sampled distances against their own mean it holds exactly, so this fixed
# allowance only has to cover rounding, which it does by a wide margin.
EXCEED_SLACK = 0.02


def _d_eff(c) -> float:
    """d_eff(ω) = 1 / Σ_k |c_k|⁴ from the energy coefficients c_k = ⟨E_k|ψ₀⟩."""
    return float(1.0 / np.sum(np.abs(c) ** 4))


@dataclass(frozen=True)
class Theorem1Result:
    stats: TrajectoryStats
    bath_check: BoundCheck
    total_check: BoundCheck
    exceed_checks: dict[float, BoundCheck]
    d_eff_omega: float
    d_eff_omega_b: float


def theorem1_check(
    c,
    h: SpectralHamiltonian,
    space: BipartiteSpace,
    t_max: float | None = None,
    n_samples: int = DEFAULT_N_SAMPLES,
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
    *,
    rng: np.random.Generator,
) -> Theorem1Result:
    """Empirical ⟨D(ρ_S(t), ω_S)⟩_t against both equilibration bounds."""
    require_nondegenerate(h)
    if t_max is None:
        t_max = default_t_max(h)
    omega_b = dephased_bath(c, h, space)
    d_eff_omega = _d_eff(c)
    d_eff_omega_b = effective_dimension(omega_b)
    stats = trajectory_statistics(c, h, space, t_max, n_samples, thresholds, rng=rng)
    bath_bound = 0.5 * math.sqrt(space.d_S / d_eff_omega_b)
    total_bound = 0.5 * math.sqrt(space.d_S**2 / d_eff_omega)
    exceed_checks = {
        k: BoundCheck.upper(frac, 1.0 / k + EXCEED_SLACK, threshold=k, allowance=EXCEED_SLACK)
        for k, frac in stats.exceed_fractions.items()
    }
    return Theorem1Result(
        stats=stats,
        bath_check=BoundCheck.upper(stats.mean_distance, bath_bound, kind="bath"),
        total_check=BoundCheck.upper(stats.mean_distance, total_bound, kind="total"),
        exceed_checks=exceed_checks,
        d_eff_omega=d_eff_omega,
        d_eff_omega_b=d_eff_omega_b,
    )


# ---------------------------------------------------------------------------
# Theorem 2: concentration of the effective dimension


@dataclass(frozen=True)
class Theorem2Summary:
    d_eff_samples: np.ndarray
    mean: float
    std_error: float
    tail_frequency: float
    mean_check: BoundCheck
    tail_check: BoundCheck


def d_eff_of_time_average(psi, h: SpectralHamiltonian) -> float:
    """d_eff(ω) = 1 / Σ_k |c_k|⁴ for a pure initial state."""
    return _d_eff(energy_coefficients(psi, h))


def theorem2_summary(d_eff_samples, d_r: int) -> Theorem2Summary:
    """Mean and tail checks of Theorem 2 over sampled d_eff(ω) values."""
    samples = np.asarray(d_eff_samples, dtype=np.float64)
    trials = samples.size
    mean = float(np.mean(samples))
    se = _standard_error(samples)
    tail_freq = float(np.mean(samples < d_r / 4))
    tail_bound = 2 * math.exp(-CONSTANTS.c * math.sqrt(d_r))
    return Theorem2Summary(
        d_eff_samples=samples,
        mean=mean,
        std_error=se,
        tail_frequency=tail_freq,
        mean_check=BoundCheck.lower(
            mean + 3 * se, d_r / 2, allowance="3 standard errors", trials=trials
        ),
        tail_check=BoundCheck.upper(
            tail_freq, tail_bound, vacuous=tail_bound > 1, trials=trials
        ),
    )


# ---------------------------------------------------------------------------
# Theorem 3: initial-state independence of the equilibrium state


def reduced_eigenstates(
    h: SpectralHamiltonian, space: BipartiteSpace
) -> np.ndarray:
    """tr_B |E_k⟩⟨E_k| for every eigenstate, shape (d, d_S, d_S)."""
    return reduce_to_system(h.eigenbasis.T, space)


def delta_quantity(
    h: SpectralHamiltonian, subspace: Subspace, space: BipartiteSpace
) -> float:
    """Π_R-weighted average subsystem purity of the energy eigenstates."""
    if subspace.ambient_dim != h.dim or h.dim != space.d:
        raise DimensionMismatchError("Hamiltonian, subspace and space dimensions disagree")
    weights = np.sum(np.abs(subspace.basis.conj().T @ h.eigenbasis) ** 2, axis=0)
    purities = purity(reduced_eigenstates(h, space))
    return float(np.sum(weights * purities) / subspace.d_R)


# δ is a Π_R-weighted mean of eigenstate purities, each at most 1, so δ ≤ 1
# holds exactly; its computed value may exceed 1 by rounding.
DELTA_ALLOWANCE = 1e-10


@dataclass(frozen=True)
class Theorem3Summary:
    distances: np.ndarray
    mean: float
    std_error: float
    delta: float
    weak_check: BoundCheck
    delta_check: BoundCheck
    delta_range_check: BoundCheck
    tail_frequency: float
    tail_check: BoundCheck
    mean_bias_note: str


def theorem3_summary(
    omegas: np.ndarray,
    delta: float,
    d_r: int,
    d_s: int,
) -> Theorem3Summary:
    """Theorem 3 checks over per-state equilibrium states ω_S^Ψ, shape (n, d_S, d_S).

    Ω_S is estimated by the empirical mean of the same states; the induced
    O(1/√n) bias is noted in the summary.
    """
    trials = len(omegas)
    distances = trace_distance(omegas, hermitize(np.mean(omegas, axis=0)))
    mean = float(np.mean(distances))
    se = _standard_error(distances)
    weak_bound = math.sqrt(d_s / (4 * d_r))
    delta_bound = math.sqrt(d_s * delta / (4 * d_r))
    epsilon = d_r ** (-1 / 3)
    tail_threshold = 0.5 * math.sqrt(d_s * delta / d_r) + epsilon
    tail_freq = float(np.mean(distances > tail_threshold))
    tail_bound = 2 * math.exp(-CONSTANTS.c_prime * epsilon**2 * d_r)
    return Theorem3Summary(
        distances=distances,
        mean=mean,
        std_error=se,
        delta=delta,
        weak_check=BoundCheck.upper(
            mean, weak_bound + 3 * se, allowance="3 standard errors", trials=trials
        ),
        delta_check=BoundCheck.upper(
            mean, delta_bound + 3 * se, allowance="3 standard errors", trials=trials
        ),
        delta_range_check=BoundCheck.upper(
            delta, 1.0 + DELTA_ALLOWANCE, allowance=DELTA_ALLOWANCE
        ),
        tail_frequency=tail_freq,
        tail_check=BoundCheck.upper(
            tail_freq, tail_bound, vacuous=tail_bound > 1, epsilon=epsilon
        ),
        mean_bias_note=(
            "reference state is the sample mean over the same trials; "
            f"bias is O(1/sqrt(trials)) with trials={trials}"
        ),
    )


# ---------------------------------------------------------------------------
# Theorem 4: ergodic torus tail bound


def torus_distances(
    c,
    h: SpectralHamiltonian,
    space: BipartiteSpace,
    omega_s: np.ndarray,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """D(ρ_S(α), ω_S) for uniform independent phase vectors α.

    The phases are drawn block by block, which gives the same numbers as one
    (samples, d) draw.
    """
    def phases(start: int, stop: int) -> np.ndarray:
        return rng.uniform(0.0, 2 * np.pi, size=(stop - start, h.dim))

    rhos_s, _ = reduced_states(c, h, space, phases, samples)
    return trace_distance(rhos_s, omega_s)


def theorem4_tail(
    c,
    h: SpectralHamiltonian,
    space: BipartiteSpace,
    epsilon: float,
    samples: int,
    rng: np.random.Generator,
) -> BoundCheck:
    """Tail frequency of D above √(d_S/d_eff(ω_B)) + ε under phase sampling.

    The i.i.d. uniform spectra produced by the generators are treated as
    rationally independent (ergodic), which cannot be verified in floating
    point; the assumption is recorded in the metadata.
    """
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    omega_s, omega_b = dephased_system(c, h, space), dephased_bath(c, h, space)
    threshold = math.sqrt(space.d_S / effective_dimension(omega_b)) + epsilon
    distances = torus_distances(c, h, space, omega_s, samples, rng)
    freq = float(np.mean(distances > threshold))
    bound = math.exp(-CONSTANTS.c_double_prime * epsilon**4 * _d_eff(c))
    return BoundCheck.upper(
        freq,
        bound,
        vacuous=bound >= 1,
        threshold=threshold,
        epsilon=epsilon,
        samples=samples,
        assumption="i.i.d. uniform spectrum treated as rationally independent",
    )


# A fixed gate on the KS statistic, whatever the two sample sizes: at small
# samples it fails by construction (the 5 % critical value at n = m = 500 is
# about 0.086). It gates the exact rational h/lcm(n, m) of `_ks_statistic`.
KS_STATISTIC_GATE = 0.05


def _ks_statistic(a, b) -> float:
    """Two-sample Kolmogorov–Smirnov statistic sup |F_a − F_b|, exactly.

    The ECDF gap at each pooled point is count_a·m − count_b·n over n·m, in
    integers, so the result is the rational h/lcm(n, m) rounded once. It
    equals scipy's ``ks_2samp(a, b).statistic`` for max(n, m) ≤ 10000, where
    scipy's exact branch rounds the statistic to a multiple of 1/lcm.
    """
    a, b = np.sort(a), np.sort(b)
    n, m = len(a), len(b)
    pooled = np.concatenate([a, b])
    gap = np.searchsorted(a, pooled, "right") * m - np.searchsorted(b, pooled, "right") * n
    g = math.gcd(n, m)
    return (int(np.abs(gap).max()) // g) / ((n // g) * m)


def ergodicity_ks_statistic(
    c,
    h: SpectralHamiltonian,
    space: BipartiteSpace,
    t_max: float | None = None,
    n_samples: int = DEFAULT_N_SAMPLES,
    *,
    rng: np.random.Generator,
) -> float:
    """Two-sample KS statistic between time- and torus-sampled distances."""
    if t_max is None:
        t_max = default_t_max(h)
    time_d = trajectory_statistics(c, h, space, t_max, n_samples, rng=rng).distances
    omega_s = dephased_system(c, h, space)
    torus_d = torus_distances(c, h, space, omega_s, n_samples, rng)
    return _ks_statistic(time_d, torus_d)


# ---------------------------------------------------------------------------
# Subadditivity chain and bath non-equilibration


@dataclass(frozen=True)
class SubadditivityReport:
    renyi_check: BoundCheck
    bath_deff_check: BoundCheck
    omega_chain_check: BoundCheck
    rank_check: BoundCheck
    product_chain_check: BoundCheck | None


def subadditivity_and_bath_checks(
    c,
    h: SpectralHamiltonian,
    space: BipartiteSpace,
    t_max: float | None = None,
    n_samples: int = 200,
    rank_samples: int = 8,
    restricted_bath_dim: int | None = None,
    *,
    rng: np.random.Generator,
) -> SubadditivityReport:
    """Rényi weak-subadditivity chain, bath rank/d_eff bounds at sampled times."""
    require_nondegenerate(h)
    if t_max is None:
        t_max = default_t_max(h)
    omega_b = dephased_bath(c, h, space)
    d_eff_omega = _d_eff(c)
    renyi_check = BoundCheck.lower(1.0 / d_eff_omega, purity(omega_b) / space.d_S)
    omega_chain_check = BoundCheck.lower(
        effective_dimension(omega_b), d_eff_omega / space.d_S
    )

    times = sample_times(t_max, n_samples, rng)
    rhos_s, rhos_b = reduced_states(c, h, space, time_phases(times, h), n_samples, bath=True)
    bath_deff_check = BoundCheck.upper(float(np.max(effective_dimension(rhos_b))), space.d_S + 1e-6)

    # The global state is pure, so ρ_S(t) and ρ_B(t) share their nonzero spectrum.
    picked = slice(0, n_samples, max(1, n_samples // rank_samples))
    rank_diff = np.max(np.abs(numerical_rank(rhos_b[picked]) - numerical_rank(rhos_s[picked])))
    rank_check = BoundCheck.upper(float(rank_diff), 0.0)

    product_chain_check = None
    d_rb = restricted_bath_dim
    if d_rb is not None and d_eff_omega >= d_rb / 4:
        product_chain_check = BoundCheck.lower(effective_dimension(omega_b), d_rb / (4 * space.d_S))
    return SubadditivityReport(
        renyi_check=renyi_check,
        bath_deff_check=bath_deff_check,
        omega_chain_check=omega_chain_check,
        rank_check=rank_check,
        product_chain_check=product_chain_check,
    )


# ---------------------------------------------------------------------------
# Operator identities


def swap_trace_identity_check(a, b) -> float:
    """|tr(AB) - tr((A⊗B)S)|; exactly zero up to rounding."""
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    if am.shape != bm.shape or am.shape[0] != am.shape[1]:
        raise DimensionMismatchError(f"need equal square shapes, got {am.shape}, {bm.shape}")
    s = swap_operator(am.shape[0])
    lhs = np.trace(am @ bm)
    rhs = np.trace(kronecker_product(am, bm) @ s)
    return float(abs(lhs - rhs))


def haar_pair_moment_check(
    subspace: Subspace, trials: int, rng: np.random.Generator
) -> float:
    """Max entrywise deviation of the Monte Carlo pair moment from
    Π_RR(1 + S)/(d_R(d_R+1))."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dim = subspace.ambient_dim
    check_dimension(dim * dim)
    z = rng.standard_normal((trials, subspace.d_R)) + 1j * rng.standard_normal(
        (trials, subspace.d_R)
    )
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    psis = z @ subspace.basis.T
    v = (psis[:, :, None] * psis[:, None, :]).reshape(trials, dim * dim)
    estimate = (v.T @ v.conj()) / trials
    proj = subspace.projector()
    closed = (
        kronecker_product(proj, proj)
        @ (np.eye(dim * dim) + swap_operator(dim))
        / (subspace.d_R * (subspace.d_R + 1))
    )
    return float(np.max(np.abs(estimate - closed)))


def identity_checks(rng: np.random.Generator) -> dict[str, BoundCheck]:
    """SWAP trace identity over 100 random 4×4 pairs and the Haar pair
    moment of C⁴ over 10 000 draws, each against its gate."""
    pairs = 100
    swap_dev = 0.0
    for _ in range(pairs):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        swap_dev = max(swap_dev, swap_trace_identity_check(a, b))
    trials = 10_000
    moment_dev = haar_pair_moment_check(Subspace.full(4), trials, rng)
    return {
        "swap_identity_max_dev": BoundCheck.upper(swap_dev, 1e-10, pairs=pairs),
        "haar_pair_moment_dev": BoundCheck.upper(
            moment_dev, 5 / math.sqrt(trials), trials=trials
        ),
    }


# ---------------------------------------------------------------------------
# Counterexample Hamiltonians


# The diagonal model conserves the product-basis populations exactly; the
# sampled populations may drift from the initial ones by rounding.
POPULATION_DRIFT_ALLOWANCE = 1e-10
# The two product-basis initial states keep orthogonal pure ω_S, so their
# trace distance is exactly 1; it is computed by dephasing and an eigensolve.
BASIS_DISTANCE_ALLOWANCE = 1e-9
# ω_S of the diagonal model is diagonal with the conserved populations, so
# D(ω_a, ω_b) and the population total variation are the same exact quantity
# computed two ways; they may differ by rounding.
IMBALANCE_ALLOWANCE = 1e-10
# H_int and H_B have spectral radius 1, so each state's conserved energy is
# its field term ±E plus at most 2 in either direction: the difference of the
# σ_z-up and σ_z-down energies lies within 2E ± 4.
SPIN_BATH_ENERGY_SLACK = 4.0


def diagonal_counterexample(
    space: BipartiteSpace, rng: np.random.Generator, n_times: int = 500
) -> dict[str, BoundCheck]:
    """Population conservation and initial-state dependence of the diagonal model."""
    h = diagonal_product_hamiltonian(space, rng=rng)
    phi_b = haar_random_state(Subspace.full(space.d_B), rng)
    t_max = default_t_max(h, 100.0)
    times = sample_times(t_max, n_times, rng)

    def omega_s_and_drift(psi_s):
        c = energy_coefficients(product_state(psi_s, phi_b, space), h)
        rhos = reduced_states_at_times(c, h, space, times)
        pops = np.real(np.diagonal(rhos, axis1=1, axis2=2))
        drift = float(np.max(np.abs(pops - np.abs(np.asarray(psi_s)) ** 2)))
        omega_s = dephased_system(c, h, space)
        return omega_s, drift

    basis = np.eye(space.d_S, dtype=np.complex128)
    omega0, drift0 = omega_s_and_drift(basis[0])
    omega1, drift1 = omega_s_and_drift(basis[1])

    psi_a = haar_random_state(Subspace.full(space.d_S), rng)
    psi_b = haar_random_state(Subspace.full(space.d_S), rng)
    omega_a, drift_a = omega_s_and_drift(psi_a)
    omega_b, drift_b = omega_s_and_drift(psi_b)
    imbalance = 0.5 * float(np.sum(np.abs(np.abs(psi_a) ** 2 - np.abs(psi_b) ** 2)))

    return {
        "population_drift": BoundCheck.upper(
            max(drift0, drift1, drift_a, drift_b),
            POPULATION_DRIFT_ALLOWANCE,
            allowance=POPULATION_DRIFT_ALLOWANCE,
        ),
        "basis_omega_distance": BoundCheck.upper(
            abs(trace_distance(omega0, omega1) - 1.0),
            BASIS_DISTANCE_ALLOWANCE,
            allowance=BASIS_DISTANCE_ALLOWANCE,
        ),
        "imbalance_lower_bound": BoundCheck.lower(
            trace_distance(omega_a, omega_b) + IMBALANCE_ALLOWANCE,
            imbalance,
            allowance=IMBALANCE_ALLOWANCE,
        ),
    }


def spin_bath_counterexample(
    field: float, d_B: int, rng: np.random.Generator
) -> dict[str, BoundCheck]:
    """Conserved energy separation between σ_z-eigenstate initializations.

    ⟨ψ(t)|H|ψ(t)⟩ = Σ_k E_k |c_k|² at every t, so the separation is computed
    once from the energy coefficients. The metadata carries D(ω_S⁺, ω_S⁻) and
    the least subsystem purity of the energy eigenstates, both near 1 in a strong field.
    """
    h, space = spin_bath_hamiltonian(field, d_B, rng)
    phi_b = haar_random_state(Subspace.full(d_B), rng)
    c_plus = energy_coefficients(product_state(np.array([1.0, 0.0]), phi_b, space), h)
    c_minus = energy_coefficients(product_state(np.array([0.0, 1.0]), phi_b, space), h)
    energy_diff = float(np.sum(h.energies * (np.abs(c_plus) ** 2 - np.abs(c_minus) ** 2)))

    omega_plus = dephased_system(c_plus, h, space)
    omega_minus = dephased_system(c_minus, h, space)
    metadata = {
        "omega_distance": trace_distance(omega_plus, omega_minus),
        "min_eigenstate_purity": float(np.min(purity(reduced_eigenstates(h, space)))),
    }
    # Both rows hold the one conserved difference: perfbench's reference
    # CSVs carry both names until they are re-recorded.
    return {
        "energy_diff_min": BoundCheck.lower(
            energy_diff, 2 * field - SPIN_BATH_ENERGY_SLACK, **metadata
        ),
        "energy_diff_max": BoundCheck.upper(
            energy_diff, 2 * field + SPIN_BATH_ENERGY_SLACK, **metadata
        ),
    }


def counterexample_checks(
    space: BipartiteSpace, rng: np.random.Generator, field: float, n_times: int
) -> dict[str, BoundCheck]:
    """Both counterexample models' demonstrations, each against its stated gate."""
    return {
        **diagonal_counterexample(space, rng, n_times),
        **spin_bath_counterexample(field, space.d_B, rng),
    }
