"""Time evolution in the energy eigenbasis and time-average machinery.

Evolution is exact: states are mapped to energy coefficients once, phases
e^{-iE_k t} are applied, and the result is mapped back. The infinite-time
average is computed exactly by dephasing whenever the spectrum passes the
gap check; time sampling is only used for fluctuation statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteSpace, partial_trace_bath
from .errors import DegenerateHamiltonianError, DimensionMismatchError
from .hamiltonians import SpectralHamiltonian
from .linalg import hermitize
from .states import as_state, trace_distance

DEFAULT_T_MAX_FACTOR = 1e3
DEFAULT_N_SAMPLES = 2000
DEFAULT_THRESHOLDS = (2.0, 5.0, 10.0)


def energy_coefficients(psi0, h: SpectralHamiltonian) -> np.ndarray:
    """c_k = ⟨E_k|ψ₀⟩."""
    v = as_state(psi0, h.dim)
    return h.eigenbasis.conj().T @ v


def from_energy_coefficients(c, h: SpectralHamiltonian) -> np.ndarray:
    return h.eigenbasis @ np.asarray(c, dtype=np.complex128)


def evolve(psi0, h: SpectralHamiltonian, t: float) -> np.ndarray:
    """|ψ(t)⟩ = Σ_k c_k e^{-iE_k t} |E_k⟩ in the computational basis."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    c = energy_coefficients(psi0, h)
    return h.eigenbasis @ (np.exp(-1j * h.energies * t) * c)


def require_nondegenerate(h: SpectralHamiltonian) -> None:
    report = h.gap_report
    if not report.passes:
        raise DegenerateHamiltonianError(
            f"Hamiltonian fails the gap check: {len(report.degenerate_pairs)} violations"
        )


def dephased_time_average(
    psi0, h: SpectralHamiltonian, check_gaps: bool = True
) -> np.ndarray:
    """ω = Σ_k |c_k|² |E_k⟩⟨E_k|, the exact infinite-time average."""
    if check_gaps:
        require_nondegenerate(h)
    c = energy_coefficients(psi0, h)
    u = h.eigenbasis
    return hermitize((u * np.abs(c) ** 2) @ u.conj().T)


def torus_state(c, h: SpectralHamiltonian, alpha) -> np.ndarray:
    """Ψ(α) = Σ_k e^{iα_k} c_k |E_k⟩: time evolution with free phases.

    ``alpha`` is one phase vector or an (n, d) stack of them; a stack gives
    one state per row.
    """
    cv = np.asarray(c, dtype=np.complex128)
    av = np.asarray(alpha, dtype=np.float64)
    if cv.size != h.dim or av.shape[-1:] != (h.dim,):
        raise DimensionMismatchError(
            f"coefficients ({cv.size}) and phases {av.shape} must have length {h.dim}"
        )
    return (np.exp(1j * av) * cv) @ h.eigenbasis.T


@dataclass(frozen=True)
class TrajectoryStats:
    """Time-sampled statistics of D(ρ_S(t), ω_S)."""

    mean_distance: float
    max_distance: float
    exceed_fractions: dict[float, float]
    sample_count: int
    t_max: float
    n_samples: int


def sample_times(
    t_max: float, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Stratified-jittered grid on [0, t_max]: one uniform draw per stratum."""
    jitter = rng.random(n_samples)
    return (np.arange(n_samples) + jitter) * (t_max / n_samples)


def states_at_times(psi0, h: SpectralHamiltonian, times: np.ndarray) -> np.ndarray:
    """Stack of ψ(t) for each sample time, shape (n, d): row j = ψ(t_j)."""
    c = energy_coefficients(psi0, h)
    phases = np.exp(-1j * np.outer(times, h.energies))
    return (phases * c) @ h.eigenbasis.T


def reduced_states_at_times(
    psi0, h: SpectralHamiltonian, space: BipartiteSpace, times: np.ndarray
) -> np.ndarray:
    """Stack of ρ_S(t) for each sample time, shape (n, d_S, d_S)."""
    amps = states_at_times(psi0, h, times).reshape(len(times), space.d_S, space.d_B)
    return np.einsum("nsb,ntb->nst", amps, amps.conj())


def trajectory_statistics(
    psi0,
    h: SpectralHamiltonian,
    space: BipartiteSpace,
    t_max: float,
    n_samples: int,
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS,
    rng: np.random.Generator | None = None,
) -> TrajectoryStats:
    """Sample D(ρ_S(t), ω_S) on a stratified time grid and aggregate."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    if rng is None:
        raise ValueError("rng is required")
    require_nondegenerate(h)
    omega_s = partial_trace_bath(dephased_time_average(psi0, h, check_gaps=False), space)
    times = sample_times(t_max, n_samples, rng)
    distances = trace_distance(reduced_states_at_times(psi0, h, space, times), omega_s)
    mean = math.fsum(distances) / n_samples
    exceed = {
        float(k): (float(np.mean(distances > k * mean)) if mean > 0 else 0.0)
        for k in thresholds
    }
    return TrajectoryStats(
        mean_distance=mean,
        max_distance=float(np.max(distances)),
        exceed_fractions=exceed,
        sample_count=n_samples,
        t_max=float(t_max),
        n_samples=n_samples,
    )


def default_t_max(h: SpectralHamiltonian, factor: float = DEFAULT_T_MAX_FACTOR) -> float:
    """Heuristic averaging window: factor / (minimum level spacing)."""
    gap = h.min_level_gap()
    if gap <= 0:
        raise DegenerateHamiltonianError("minimum level gap is not positive")
    return factor / gap
