"""One check per theorem or counterexample: empirical quantity vs stated bound.

Of the checks that bound a true expectation, `mean_d_eff` (Theorem 2) and
the two Theorem 3 mean rows test sample means with a one-sided 3-standard-error
allowance; Theorem 1's `mean_distance_bath_bound` and `mean_distance_total_bound`
test the sample mean with none. Tail bounds that exceed 1 at desk scale are
flagged vacuous in the check metadata rather than claimed meaningful. A check
of one initial state takes its energy coefficients c.
Every experiment's rows come from verifiers here, each of which computes
every shared quantity once and returns its rows as a dict of `BoundCheck`s
keyed by CSV quantity name, in output order: one per trial (`theorem1_check`,
`theorem2_check`, `theorem4_check`, `counterexample_checks`) and one per
sweep over many states (`theorem2_sweep_check`, `theorem3_sweep_check`),
which `eqlab.runner.REGISTRY`'s aggregates call.
Sampled distances to ω_S come from `time_distances` (stratified times) and
`torus_distances` (uniform phases), both through `dynamics.distances_to`.
δ reads Π_R through p_k and the eigenstates through their purities, both in
one pass over the eigenvectors (`SpectralHamiltonian.eigenvectors`) in blocks
of `block_rows(d)`: no d × d or (d, d_S, d_S) array is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bipartite import BipartiteSpace
from .dynamics import (
    block_rows,
    default_t_max,
    dephased_bath,
    dephased_system,
    distances_to,
    energy_coefficients,
    marginal_purities,
    reduced_states,
    reduced_states_at_times,
    require_distinct_levels,
    require_nondegenerate,
    sample_times,
    torus_phases,
)
from .errors import DimensionMismatchError
from .hamiltonians import SpectralHamiltonian, diagonal_product_hamiltonian, spin_bath_hamiltonian
from .linalg import hermitize
from .states import (
    Subspace,
    effective_dimension,
    haar_random_state,
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
    """Uniform result carrier: satisfied iff margin >= 0, so never at a NaN margin."""

    empirical: float
    bound: float
    margin: float
    metadata: dict = field(default_factory=dict)

    @property
    def satisfied(self) -> bool:
        return self.margin >= 0

    @classmethod
    def upper(cls, empirical: float, bound: float, **metadata) -> "BoundCheck":
        return cls(float(empirical), float(bound), float(bound - empirical), metadata)

    @classmethod
    def at_least(
        cls, quantity: float, lower_bound: float, allowance: float = 0.0, **metadata
    ) -> "BoundCheck":
        """Check quantity + allowance >= lower_bound, with the quantity in
        `empirical` and margin = quantity + allowance − lower_bound."""
        margin = quantity + allowance - lower_bound
        return cls(float(quantity), float(lower_bound), float(margin), metadata)

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


DEFAULT_N_SAMPLES = 2000
DEFAULT_THRESHOLDS = (2.0, 5.0, 10.0)
# Markov's inequality bounds the share of times with D > K·⟨D⟩_t by 1/K. For
# the sampled distances against their own mean it holds exactly, so this fixed
# allowance only has to cover rounding, which it does by a wide margin.
EXCEED_SLACK = 0.02
# The global state is pure, so ρ_B(t) and ρ_S(t) share their nonzero spectrum:
# d_eff(ρ_B(t)) = 1/tr ρ_S(t)² ≤ rank ρ_S(t) ≤ d_S holds exactly, and the
# computed d_eff, read from the smaller marginal (`marginal_purities`), may
# exceed d_S by rounding.
BATH_DEFF_ALLOWANCE = 1e-6
# Times at which d_eff(ρ_B(t)) is checked, drawn after the n_samples times of
# the mean distance.
BATH_SAMPLES = 200


def exceed_fraction_name(k: float) -> str:
    """The row name of threshold K; the config validator refuses K that share one."""
    return f"exceed_fraction_K{k:g}"


def d_eff_of_time_average(c) -> float:
    """d_eff(ω) = 1 / Σ_k |c_k|⁴ from the energy coefficients c_k = ⟨E_k|ψ₀⟩."""
    return float(1.0 / np.sum(np.abs(c) ** 4))


def time_distances(
    c,
    h: SpectralHamiltonian,
    space: BipartiteSpace,
    omega_s: np.ndarray,
    t_max: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """D(ρ_S(t), ω_S) at n stratified times in [0, t_max]: the time-sampled
    twin of `torus_distances`."""
    if n < 2:
        raise ValueError(f"n_samples must be >= 2, got {n}")
    times = sample_times(t_max, n, rng)
    return reduced_states_at_times(c, h, space, times, distances_to(omega_s, space))


def theorem1_check(
    c,
    h: SpectralHamiltonian,
    space: BipartiteSpace,
    t_max: float | None = None,
    n_samples: int = DEFAULT_N_SAMPLES,
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
    *,
    rng: np.random.Generator,
) -> dict[str, BoundCheck]:
    """Theorem 1's rows, keyed by quantity name in output order.

    The empirical ⟨D(ρ_S(t), ω_S)⟩_t against the bath bound
    ½√(d_S/d_eff(ω_B)) and the total bound ½√(d_S²/d_eff(ω)); the Rényi
    weak-subadditivity link tr ω² ≥ tr ω_B²/d_S between them; the largest
    d_eff(ρ_B(t)) against d_S; and the share of times with D above K times
    the mean, for each threshold K in increasing order. ω_S, tr ω_B² and
    d_eff(ω) are computed once; d_eff(ρ_B(t)) is read from the smaller
    marginal (`marginal_purities`), so no ρ_B(t) is formed when d_S ≤ d_B.
    The rng draws the n_samples times of the mean first, then `BATH_SAMPLES`
    times for the bath.
    """
    require_nondegenerate(h)
    if t_max is None:
        t_max = default_t_max(h)
    purity_b = purity(dephased_bath(c, h, space))  # tr ω_B², all that is read of ω_B
    d_eff_b, d_eff_omega = 1.0 / purity_b, d_eff_of_time_average(c)
    omega_s = dephased_system(c, h, space)
    distances = time_distances(c, h, space, omega_s, t_max, n_samples, rng)
    mean = math.fsum(distances) / n_samples
    bath_times = sample_times(t_max, BATH_SAMPLES, rng)
    bath_purities = reduced_states_at_times(
        c, h, space, bath_times, lambda a: marginal_purities(a, space)
    )
    checks = {
        "mean_distance_bath_bound": BoundCheck.upper(
            mean, 0.5 * math.sqrt(space.d_S / d_eff_b), kind="bath"
        ),
        "mean_distance_total_bound": BoundCheck.upper(
            mean, 0.5 * math.sqrt(space.d_S**2 / d_eff_omega), kind="total"
        ),
        "renyi_subadditivity": BoundCheck.lower(1.0 / d_eff_omega, purity_b / space.d_S),
        "bath_deff_max": BoundCheck.upper(
            float(np.max(1.0 / bath_purities)),
            space.d_S + BATH_DEFF_ALLOWANCE,
            allowance=BATH_DEFF_ALLOWANCE,
        ),
    }
    for k in sorted(thresholds):
        frac = float(np.mean(distances > k * mean)) if mean > 0 else 0.0
        checks[exceed_fraction_name(k)] = BoundCheck.upper(
            frac, 1.0 / k + EXCEED_SLACK, threshold=k, allowance=EXCEED_SLACK
        )
    return checks


# ---------------------------------------------------------------------------
# Theorem 2: concentration of the effective dimension


def _d_eff_tail_edge(d_r: int) -> float:
    """Theorem 2's tail event is d_eff(ω) < d_R/4."""
    return d_r / 4


def theorem2_check(c, d_r: int) -> dict[str, BoundCheck]:
    """Theorem 2's row of one state in a subspace of dimension d_R:
    `d_eff_omega`, d_eff(ω) against the edge d_R/4 of the tail event."""
    return {"d_eff_omega": BoundCheck.at_least(d_eff_of_time_average(c), _d_eff_tail_edge(d_r))}


def theorem2_sweep_check(d_eff_samples, d_r: int) -> dict[str, BoundCheck]:
    """Theorem 2's rows over sampled d_eff(ω) values, in output order: their
    mean against d_R/2 and the frequency of the tail event against 2e^{−c√d_R}."""
    samples = np.asarray(d_eff_samples, dtype=np.float64)
    trials = samples.size
    mean = float(np.mean(samples))
    se = _standard_error(samples)
    tail_freq = float(np.mean(samples < _d_eff_tail_edge(d_r)))
    tail_bound = 2 * math.exp(-CONSTANTS.c * math.sqrt(d_r))
    return {
        "mean_d_eff": BoundCheck.at_least(mean, d_r / 2, 3 * se, std_error=se, trials=trials),
        "tail_frequency": BoundCheck.upper(
            tail_freq, tail_bound, vacuous=tail_bound > 1, trials=trials
        ),
    }


# ---------------------------------------------------------------------------
# Theorem 3: initial-state independence of the equilibrium state


def _eigenstate_blocks(h: SpectralHamiltonian, space: BipartiteSpace):
    """Each block of `block_rows(d)` eigenvectors, in order: its (d, k) columns
    and its eigenstate purities, by `marginal_purities` on a contiguous copy
    of its rows that is freed before the columns are handed on. The strided view
    gives bit-equal purities but is slower on both sides (2-core x86_64, one
    OpenBLAS thread, medians of 15): 1.5 s against 0.16 s at (32, 64) for ρ_S,
    and 0.170 s against 0.162 s at (64, 32) for ρ_B."""
    rows = block_rows(h.dim)
    for start in range(0, h.dim, rows):
        columns = h.eigenvectors(start, start + rows)
        yield columns, marginal_purities(np.ascontiguousarray(columns.T), space)


def eigenstate_purities(h: SpectralHamiltonian, space: BipartiteSpace) -> np.ndarray:
    """tr(ρ_S^{(k)})², ρ_S^{(k)} = tr_B |E_k⟩⟨E_k|, of every eigenstate, in one
    pass over U in blocks of `block_rows(d)` eigenvectors (`_eigenstate_blocks`)."""
    return np.concatenate([purities for _, purities in _eigenstate_blocks(h, space)])


def delta_quantity(
    h: SpectralHamiltonian, subspace: Subspace, space: BipartiteSpace
) -> float:
    """δ = Σ_k p_k tr(ρ_S^{(k)})² / d_R with p_k = ⟨E_k|Π_R|E_k⟩, in one pass
    over U: each block of `block_rows(d)` eigenvectors (`_eigenstate_blocks`)
    gives its purities and, from its columns, its p_k. So a pinned subspace holds
    one block of its contraction: at (d_S, d_B) = (2, 1024) the peak is
    3.1 MiB under tracemalloc, against 48 MiB for all d columns at once."""
    if subspace.ambient_dim != h.dim or h.dim != space.d:
        raise DimensionMismatchError("Hamiltonian, subspace and space dimensions disagree")
    blocks = [(subspace.projector_diagonal(u), p) for u, p in _eigenstate_blocks(h, space)]
    weights, purities = (np.concatenate(values) for values in zip(*blocks))
    return float(np.sum(weights * purities) / subspace.d_R)


# δ is a Π_R-weighted mean of eigenstate purities, each at most 1, so δ ≤ 1
# holds exactly; its computed value may exceed 1 by rounding.
DELTA_ALLOWANCE = 1e-10


def theorem3_sweep_check(
    omegas: np.ndarray, h: SpectralHamiltonian, subspace: Subspace, space: BipartiteSpace
) -> dict[str, BoundCheck]:
    """Theorem 3's rows over the equilibrium states ω_S^Ψ, shape (n, d_S, d_S),
    of n states drawn from the subspace, in output order: the mean of each
    state's D(ω_S^Ψ, Ω_S) against the weak and the δ bound, and δ itself.

    Ω_S is estimated by the mean of the same states, which biases the
    distances by O(1/√n). The ω_S^Ψ are time averages only if h's levels are
    distinct, which is checked here.
    """
    require_distinct_levels(h)
    trials = len(omegas)
    delta = delta_quantity(h, subspace, space)
    distances = trace_distance(omegas, hermitize(np.mean(omegas, axis=0)))
    mean = float(np.mean(distances))
    se = _standard_error(distances)
    d_s, d_r = space.d_S, subspace.d_R
    return {
        "mean_distance_weak_bound": BoundCheck.upper(
            mean, math.sqrt(d_s / (4 * d_r)) + 3 * se, std_error=se, trials=trials
        ),
        "mean_distance_delta_bound": BoundCheck.upper(
            mean, math.sqrt(d_s * delta / (4 * d_r)) + 3 * se, std_error=se, trials=trials
        ),
        "delta": BoundCheck.upper(delta, 1.0 + DELTA_ALLOWANCE, allowance=DELTA_ALLOWANCE),
    }


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
    """D(ρ_S(α), ω_S) for uniform independent phase vectors α (`torus_phases`):
    the torus-sampled twin of `time_distances`."""
    return reduced_states(c, h, space, torus_phases(rng), samples, distances_to(omega_s, space))


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


def theorem4_check(
    c,
    h: SpectralHamiltonian,
    space: BipartiteSpace,
    epsilon: float,
    t_max: float | None = None,
    n_samples: int = DEFAULT_N_SAMPLES,
    *,
    rng: np.random.Generator,
) -> dict[str, BoundCheck]:
    """Theorem 4's rows, keyed by quantity name in output order.

    `torus_tail_frequency`: the share of uniform phase vectors with D above
    √(d_S/d_eff(ω_B)) + ε, against exp(−c″ε⁴d_eff(ω)). The i.i.d. uniform
    spectra produced by the generators are treated as rationally independent
    (ergodic), which cannot be verified in floating point; the assumption is
    recorded in the metadata. `ks_statistic`: the two-sample KS statistic
    between time- and torus-sampled distances, against `KS_STATISTIC_GATE`.
    ω_S is computed once. The rng draws the tail's torus samples, then the
    times, then the KS torus samples.
    """
    require_nondegenerate(h)
    if t_max is None:
        t_max = default_t_max(h)
    omega_s = dephased_system(c, h, space)
    threshold = math.sqrt(space.d_S / effective_dimension(dephased_bath(c, h, space))) + epsilon
    freq = float(np.mean(torus_distances(c, h, space, omega_s, n_samples, rng) > threshold))
    # Beyond float range numpy's ε⁴ (or the product) is inf, where Python's
    # float power raises OverflowError, and the bound is e^{−∞} = 0.
    with np.errstate(over="ignore"):
        exponent = -CONSTANTS.c_double_prime * np.float64(epsilon) ** 4 * d_eff_of_time_average(c)
    bound = math.exp(exponent)
    time_d = time_distances(c, h, space, omega_s, t_max, n_samples, rng)
    torus_d = torus_distances(c, h, space, omega_s, n_samples, rng)
    return {
        "torus_tail_frequency": BoundCheck.upper(
            freq,
            bound,
            vacuous=bound >= 1,
            threshold=threshold,
            epsilon=epsilon,
            samples=n_samples,
            assumption="i.i.d. uniform spectrum treated as rationally independent",
        ),
        "ks_statistic": BoundCheck.upper(_ks_statistic(time_d, torus_d), KS_STATISTIC_GATE),
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
    """Population conservation and initial-state dependence of the diagonal model.

    The four initial states ψ_S ⊗ φ_B (two basis states, ψ_a and ψ_b) share
    the Hamiltonian and the sample times, so one kernel call evolves them all.
    """
    h = diagonal_product_hamiltonian(space, rng=rng)
    phi_b = haar_random_state(Subspace.full(space.d_B), rng)
    t_max = default_t_max(h, 100.0)
    times = sample_times(t_max, n_times, rng)
    psi_a = haar_random_state(Subspace.full(space.d_S), rng)
    psi_b = haar_random_state(Subspace.full(space.d_S), rng)
    psis = np.array([*np.eye(space.d_S, dtype=np.complex128)[:2], psi_a, psi_b])
    cs = np.array([energy_coefficients(product_state(p, phi_b, space), h) for p in psis])
    pops = reduced_states_at_times(cs, h, space, times, lambda a: np.vecdot(a, a).real)
    drift = float(np.max(np.abs(pops - np.abs(psis[:, None]) ** 2)))
    omega0, omega1, omega_a, omega_b = (dephased_system(c, h, space) for c in cs)
    imbalance = 0.5 * float(np.sum(np.abs(np.abs(psi_a) ** 2 - np.abs(psi_b) ** 2)))

    return {
        "population_drift": BoundCheck.upper(
            drift,
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
        "min_eigenstate_purity": float(np.min(eigenstate_purities(h, space))),
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
