"""Time evolution in the energy eigenbasis and time-average machinery.

Evolution is exact: one amplitude kernel, `torus_state`, applies phases to
the energy coefficients and maps back (α = −E t for time evolution), and
one reduction per side turns amplitude stacks into ρ_S or ρ_B stacks.
`reduced_states` runs the two over many phase vectors in row blocks of
`block_rows(d)`, so a trajectory or a torus sample never holds its whole
n × d amplitude stack. The infinite-time average is exact through its
marginals (`dephased_marginals`), and the d×d dephased state ω is never
formed; time sampling is only used for fluctuation statistics.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bipartite import BipartiteSpace
from .errors import DegenerateHamiltonianError, DimensionMismatchError
from .hamiltonians import SpectralHamiltonian
from .linalg import hermitize
from .states import as_state, trace_distance

DEFAULT_T_MAX_FACTOR = 1e3
DEFAULT_N_SAMPLES = 2000
DEFAULT_THRESHOLDS = (2.0, 5.0, 10.0)
# `reduced_states` works in blocks of 4096 amplitudes (64 KiB of complex128),
# and never fewer than 64 rows, so a run holds one block's phases and
# amplitudes instead of the n × d stack (131 MB at n = 2000, d = 4096).
# Measured with one BLAS thread: perfbench's thm1-readme and thm4-readme
# runs peak at 42.8 and 38.5 MB RSS, against 45.6 and 39.0 MB with 256 KiB
# blocks and 45.6 and 43.7 MB unblocked; `torus_distances` at d = 1024,
# n = 2000 takes about as long as one unblocked product with 64-row blocks
# (up to ~15 % slower in the median) and 1.6× as long with 8-row blocks.
BLOCK_AMPLITUDES = 4096
MIN_BLOCK_ROWS = 64


def energy_coefficients(psi0, h: SpectralHamiltonian) -> np.ndarray:
    """c_k = ⟨E_k|ψ₀⟩."""
    v = as_state(psi0, h.dim)
    return h.eigenbasis.conj().T @ v


def require_nondegenerate(h: SpectralHamiltonian) -> None:
    report = h.gap_report
    if not report.passes:
        raise DegenerateHamiltonianError(
            f"Hamiltonian fails the gap check: {len(report.degenerate_pairs)} violations"
        )


def dephased_marginals(c, h: SpectralHamiltonian, space: BipartiteSpace) -> tuple[np.ndarray, ...]:
    """(ω_S, ω_B), the re-Hermitized marginals of ω = Σ_k |c_k|² |E_k⟩⟨E_k|.

    With U[s, b, k] = ⟨s b|E_k⟩, ω_S[s, t] = Σ_{b,k} U[s,b,k] |c_k|² U*[t,b,k]
    and ω_B is the same sum over (s, k): two matrix products, without the
    dense d×d ω or a per-eigenstate stack.
    """
    cv = np.asarray(c, dtype=np.complex128)
    if cv.shape != (h.dim,) or h.dim != space.d:
        raise DimensionMismatchError(
            f"coefficients {cv.shape}, Hamiltonian ({h.dim}) and space ({space.d}) disagree"
        )
    u = h.eigenbasis.reshape(space.d_S, space.d_B, h.dim)
    weighted, u_conj = u * np.abs(cv) ** 2, u.conj()
    omega_s = np.tensordot(weighted, u_conj, axes=([1, 2], [1, 2]))
    omega_b = np.tensordot(weighted, u_conj, axes=([0, 2], [0, 2]))
    return hermitize(omega_s), hermitize(omega_b)


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
    """Time-sampled statistics of D(ρ_S(t), ω_S), with the sampled distances."""

    mean_distance: float
    max_distance: float
    exceed_fractions: dict[float, float]
    t_max: float
    n_samples: int
    distances: np.ndarray


def sample_times(
    t_max: float, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Stratified-jittered grid on [0, t_max]: one uniform draw per stratum."""
    jitter = rng.random(n_samples)
    return (np.arange(n_samples) + jitter) * (t_max / n_samples)


def reduce_to_system(amps: np.ndarray, space: BipartiteSpace) -> np.ndarray:
    """ρ_S = tr_B |ψ⟩⟨ψ| of each row of an (n, d) amplitude stack: (n, d_S, d_S)."""
    a = amps.reshape(-1, space.d_S, space.d_B)
    return np.einsum("nsb,ntb->nst", a, a.conj())


def reduce_to_bath(amps: np.ndarray, space: BipartiteSpace) -> np.ndarray:
    """ρ_B = tr_S |ψ⟩⟨ψ| of each row of an (n, d) amplitude stack: (n, d_B, d_B)."""
    a = amps.reshape(-1, space.d_S, space.d_B)
    return np.einsum("nsb,nsc->nbc", a, a.conj())


def block_rows(d: int) -> int:
    """Rows per `reduced_states` block at dimension d."""
    return max(MIN_BLOCK_ROWS, BLOCK_AMPLITUDES // d)


def reduced_states(
    c,
    h: SpectralHamiltonian,
    space: BipartiteSpace,
    phases: Callable[[int, int], np.ndarray],
    n: int,
    bath: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """(ρ_S, ρ_B) of Ψ(α_j) = `torus_state(c, h, α_j)` for j = 0 … n−1.

    ``phases(start, stop)`` returns the (stop − start, d) phase rows α_start …
    α_{stop−1}; it is called once per block, in row order, so a generator
    drawn block by block gives the same rows as one (n, d) draw. ρ_S has
    shape (n, d_S, d_S); ρ_B, computed only when ``bath`` is set, has shape
    (n, d_B, d_B) and is None otherwise.
    """
    rhos_s = np.empty((n, space.d_S, space.d_S), dtype=np.complex128)
    rhos_b = np.empty((n, space.d_B, space.d_B), dtype=np.complex128) if bath else None
    rows = block_rows(h.dim)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        amps = torus_state(c, h, phases(start, stop))
        rhos_s[start:stop] = reduce_to_system(amps, space)
        if bath:
            rhos_b[start:stop] = reduce_to_bath(amps, space)
    return rhos_s, rhos_b


def time_phases(times: np.ndarray, h: SpectralHamiltonian) -> Callable[[int, int], np.ndarray]:
    """Phase rows α_j = −E t_j of the sample times, for `reduced_states`."""
    return lambda start, stop: -np.outer(times[start:stop], h.energies)


def reduced_states_at_times(
    psi0, h: SpectralHamiltonian, space: BipartiteSpace, times: np.ndarray
) -> np.ndarray:
    """Stack of ρ_S(t) for each sample time, shape (n, d_S, d_S)."""
    c = energy_coefficients(psi0, h)
    return reduced_states(c, h, space, time_phases(times, h), len(times))[0]


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
    omega_s, _ = dephased_marginals(energy_coefficients(psi0, h), h, space)
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
        t_max=float(t_max),
        n_samples=n_samples,
        distances=distances,
    )


def default_t_max(h: SpectralHamiltonian, factor: float = DEFAULT_T_MAX_FACTOR) -> float:
    """Heuristic averaging window: factor / (minimum level spacing)."""
    gap = h.min_level_gap()
    if gap <= 0:
        raise DegenerateHamiltonianError("minimum level gap is not positive")
    return factor / gap
