"""Time evolution in the energy eigenbasis and time-average machinery.

Evolution is exact: one amplitude kernel, `torus_state`, applies phases to
the energy coefficients and maps back (α = −E t for time evolution), and
one reduction per side turns amplitude stacks into ρ_S or ρ_B stacks. The
kernel forms the phase factors e^{iα} from tan(α/2) by the half-angle
identity, which numpy vectorises, instead of an elementwise complex exp,
scales them by c and maps a whole stack with one matrix product against the
basis. ρ_S is one broadcast `np.linalg.vecdot` over the bath index,
ρ_B one batched matrix product over the system index. `reduced_states`
runs the kernel and the reductions over many phase vectors in row blocks of
`block_rows(d)` into one ρ_S or one ρ_B stack, so a trajectory or a torus
sample never holds its whole n × d amplitude stack. The infinite-time
average is exact through its marginals (`dephased_system`, `dephased_bath`),
each computed only where it is read, and the d×d dephased state ω is never
formed; time sampling (`sample_times`) is only used for the fluctuation
statistics of `eqlab.verifiers`.

Every function of an initial state takes its energy coefficients
c_k = ⟨E_k|ψ₀⟩ (`energy_coefficients`), not ψ₀, so a caller computes them
once per state.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .bipartite import BipartiteSpace
from .errors import DegenerateHamiltonianError, DimensionMismatchError
from .hamiltonians import SpectralHamiltonian
from .linalg import hermitize
from .states import as_state

DEFAULT_T_MAX_FACTOR = 1e3
# `reduced_states` works in blocks of 4096 amplitudes (64 KiB of complex128),
# and never fewer than 64 rows, so a run holds one block's phases and
# amplitudes instead of the n × d stack (131 MB at n = 2000, d = 4096).
# Re-measured in October 2026 with the vecdot reduction on a 2-core x86_64
# host (numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread), the mean of two 10 s
# perfbench runs per setting: thm1-readme and thm4-readme peak at 43.8 and
# 40.2 MB RSS, against 47.0 and 41.0 MB with 256 KiB blocks and 47.9 and 48.0
# MB unblocked, and their `wall_norm_s` is 0.048 and 0.065 s, against 0.053
# and 0.068 s and 0.060 and 0.096 s: 64 KiB stays. `torus_distances` at
# d = 1024, n = 2000 takes 0.47 s (median of 7) with 64-row blocks, 0.39 s
# as one unblocked product and 0.73 s with 8-row blocks; its tracemalloc
# peak is 5.1 MiB blocked and 125 MiB unblocked.
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


def _weighted_eigenbasis(c, h: SpectralHamiltonian, space: BipartiteSpace):
    """(U·|c|², U*) with U[s, b, k] = ⟨s b|E_k⟩, the factors of both marginals of ω."""
    cv = np.asarray(c, dtype=np.complex128)
    if cv.shape != (h.dim,) or h.dim != space.d:
        raise DimensionMismatchError(
            f"coefficients {cv.shape}, Hamiltonian ({h.dim}) and space ({space.d}) disagree"
        )
    u = h.eigenbasis.reshape(space.d_S, space.d_B, h.dim)
    return u * np.abs(cv) ** 2, u.conj()


def dephased_system(c, h: SpectralHamiltonian, space: BipartiteSpace) -> np.ndarray:
    """ω_S, the re-Hermitized system marginal of ω = Σ_k |c_k|² |E_k⟩⟨E_k|.

    ω_S[s, t] = Σ_{b,k} U[s,b,k] |c_k|² U*[t,b,k]: one matrix product of
    cost O(d_S·d²), without the dense d×d ω or a per-eigenstate stack.
    """
    weighted, u_conj = _weighted_eigenbasis(c, h, space)
    return hermitize(np.tensordot(weighted, u_conj, axes=([1, 2], [1, 2])))


def dephased_bath(c, h: SpectralHamiltonian, space: BipartiteSpace) -> np.ndarray:
    """ω_B, the re-Hermitized bath marginal of ω: the `dephased_system` sum
    taken over (s, k) instead of (b, k), which costs O(d³/d_S)."""
    weighted, u_conj = _weighted_eigenbasis(c, h, space)
    return hermitize(np.tensordot(weighted, u_conj, axes=([0, 2], [0, 2])))


def torus_state(c, h: SpectralHamiltonian, alpha) -> np.ndarray:
    """Ψ(α) = Σ_k e^{iα_k} c_k |E_k⟩: time evolution with free phases.

    ``alpha`` is one phase vector or an (n, d) stack of them; a stack gives
    one state per row, and ``alpha`` itself is never written.

    The phase factors come from the half-angle identity. With C = cos(θ/2),
    S = sin(θ/2) and t = S/C = tan(θ/2), cos θ = (C² − S²)/(C² + S²) and
    sin θ = 2SC/(C² + S²); dividing above and below by C² gives
    e^{iθ} = (1 − t² + 2it) / (1 + t²).
    Against ``np.exp(1j * θ)`` over 1.1·10⁷ arguments (|θ| up to 10⁸, and
    10⁶ within 10⁻⁶ of π, where t is largest) the largest difference is
    2.8e-16 and the largest deviation of |e^{iθ}| from 1 is 4.4e-16. Nothing
    overflows: π/2 is not a float64, so |tan(θ/2)| ≤ 1.7·10¹⁶ and t² ≤ 3·10³²
    for every finite θ, and there 1 ∓ t² rounds to ∓t², giving −1 exactly.
    The speed comes from numpy's SIMD dispatch of float64 ``tan``: about
    4 ns per element with AVX512, against ~49 ns for the complex exp, on a
    2-core x86_64 host with numpy 2.4. Without AVX512 numpy calls libm's
    ``tan``, which is slower but as accurate, so results agree to rounding.
    """
    cv = np.asarray(c, dtype=np.complex128)
    av = np.asarray(alpha, dtype=np.float64)
    if cv.size != h.dim or av.shape[-1:] != (h.dim,):
        raise DimensionMismatchError(
            f"coefficients ({cv.size}) and phases {av.shape} must have length {h.dim}"
        )
    t = 0.5 * av  # a fresh buffer, so the caller's alpha is never written
    np.tan(t, out=t)
    t2 = t * t
    den = 1.0 + t2
    np.subtract(1.0, t2, out=t2)
    t += t
    phased = np.empty(av.shape, dtype=np.complex128)
    np.divide(t2, den, out=phased.real)
    np.divide(t, den, out=phased.imag)
    phased *= cv
    return phased @ h.eigenbasis.T


def sample_times(
    t_max: float, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Stratified-jittered grid on [0, t_max]: one uniform draw per stratum."""
    jitter = rng.random(n_samples)
    return (np.arange(n_samples) + jitter) * (t_max / n_samples)


def reduce_to_system(amps: np.ndarray, space: BipartiteSpace) -> np.ndarray:
    """ρ_S = tr_B |ψ⟩⟨ψ| of each row of an (n, d) amplitude stack: (n, d_S, d_S).

    With a[n, s, b] = ⟨s b|ψ_n⟩, ρ[n, s, t] = Σ_b a[n,s,b] conj(a[n,t,b]):
    one broadcast `vecdot`, which conjugates its first argument. The stack
    may be a non-contiguous view, such as the transposed eigenbasis.
    """
    a = amps.reshape(-1, space.d_S, space.d_B)
    return np.linalg.vecdot(a[:, None], a[:, :, None])


def reduce_to_bath(amps: np.ndarray, space: BipartiteSpace) -> np.ndarray:
    """ρ_B = tr_S |ψ⟩⟨ψ| of each row of an (n, d) amplitude stack: (n, d_B, d_B).

    ρ[n, b, c] = Σ_s a[n,s,b] conj(a[n,s,c]): one batched matrix product.
    """
    a = amps.reshape(-1, space.d_S, space.d_B)
    return a.transpose(0, 2, 1) @ a.conj()


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
) -> np.ndarray:
    """ρ_S, or ρ_B when ``bath`` is set, of Ψ(α_j) = `torus_state(c, h, α_j)`
    for j = 0 … n−1: shape (n, d_S, d_S), or (n, d_B, d_B).

    ``phases(start, stop)`` returns the (stop − start, d) phase rows α_start …
    α_{stop−1}; it is called once per block, in row order, so a generator
    drawn block by block gives the same rows as one (n, d) draw.
    """
    side, reduce = (space.d_B, reduce_to_bath) if bath else (space.d_S, reduce_to_system)
    rhos = np.empty((n, side, side), dtype=np.complex128)
    rows = block_rows(h.dim)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        rhos[start:stop] = reduce(torus_state(c, h, phases(start, stop)), space)
    return rhos


def time_phases(times: np.ndarray, h: SpectralHamiltonian) -> Callable[[int, int], np.ndarray]:
    """Phase rows α_j = −E t_j of the sample times, for `reduced_states`."""
    return lambda start, stop: -np.outer(times[start:stop], h.energies)


def reduced_states_at_times(
    c, h: SpectralHamiltonian, space: BipartiteSpace, times: np.ndarray
) -> np.ndarray:
    """Stack of ρ_S(t) for each sample time, shape (n, d_S, d_S)."""
    return reduced_states(c, h, space, time_phases(times, h), len(times))


def default_t_max(h: SpectralHamiltonian, factor: float = DEFAULT_T_MAX_FACTOR) -> float:
    """Heuristic averaging window: factor / (minimum level spacing)."""
    gap = h.min_level_gap()
    if gap <= 0:
        raise DegenerateHamiltonianError("minimum level gap is not positive")
    return factor / gap
