"""Time evolution in the energy eigenbasis and time-average machinery.

Evolution is exact: Ψ(α) = Σ_k e^{iα_k} c_k |E_k⟩ (α = −E t for time
evolution) applies phase factors to the energy coefficients and maps back,
and one reduction per side turns amplitude stacks into ρ_S or ρ_B stacks.
`_phase_factors` forms e^{iα} from tan(α/2) by the half-angle identity,
which numpy vectorises, instead of an elementwise complex exp; the factors
are scaled by c and a whole stack is mapped with one matrix product against
the basis (`torus_state`). ρ_S is one broadcast `np.vecdot` over the bath
index, ρ_B one batched matrix product over the system index.
`reduced_states` runs these steps over many phase vectors in row blocks of
`block_rows(d)`, forming each block's phase factors once for every
coefficient vector that samples them, and hands the reduced states to a
per-state reducer (a distance, d_eff, the populations) in chunks of at most
`BLOCK_AMPLITUDES` entries. So a trajectory or a torus sample holds neither
its n × d amplitude stack nor its n × side × side state stack; its phase
sources (`time_phases`, the torus draw of `eqlab.verifiers`) write the
half-angles α/2 into a work arena allocated once per call.
The infinite-time average is exact through its marginals (`dephased_system`,
`dephased_bath`), each computed only where it is read, and the d×d dephased
state ω is never formed; time sampling (`sample_times`) is only used for the
fluctuation statistics of `eqlab.verifiers`.

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
# `reduced_states` works in blocks of 16384 amplitudes (256 KiB of
# complex128), never fewer than 64 rows, and reduces states in chunks of as
# many entries (one state if a state is larger). A call holds one block's
# arena and one chunk per coefficient vector whatever n: not the n × d
# amplitude stack (131 MB at n = 2000, d = 4096) nor the n × side² state stack
# (8.4 GB at n = 2000, d_S = 512). All planes come from one arena, because
# planes allocated on their own are faulted in again on every call.
BLOCK_AMPLITUDES = 16384
MIN_BLOCK_ROWS = 64
Reducer = Callable[[np.ndarray], np.ndarray]  # a (k, side, side) stack to (k, …) values


def energy_coefficients(psi0, h: SpectralHamiltonian) -> np.ndarray:
    """c_k = ⟨E_k|ψ₀⟩, computed as (ψ₀* U)* with U the eigenbasis.

    The vector is conjugated instead of U, so no d×d conjugate copy of U is
    made. At d = 1024 the call peaks at 32 KiB under tracemalloc and takes
    0.9 ms, against 16 MiB and 3.7 ms for U†ψ₀ (2-core x86_64 host, one
    OpenBLAS 0.3.31 thread), and its result was bit-equal to U†ψ₀ at every
    d from 1 to 1024 tried.
    """
    v = as_state(psi0, h.dim)
    return (v.conj() @ h.eigenbasis).conj()


def require_nondegenerate(h: SpectralHamiltonian) -> None:
    report = h.gap_report
    if not report.passes:
        raise DegenerateHamiltonianError(
            f"Hamiltonian fails the gap check: {report.violations} violations"
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


def _phase_factors(work: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{iθ} into the complex array ``out``, from the half-angles θ/2 in
    ``work[0]``; ``work`` is a float array of shape (3, *out.shape) for t, t²
    and 1 + t², and all three planes are overwritten.

    The phase factors come from the half-angle identity. With C = cos(θ/2),
    S = sin(θ/2) and t = S/C = tan(θ/2), cos θ = (C² − S²)/(C² + S²) and
    sin θ = 2SC/(C² + S²); dividing above and below by C² gives
    e^{iθ} = (1 − t² + 2it) / (1 + t²).
    Against ``np.exp(1j * θ)`` over 1.1·10⁷ arguments (|θ| up to 10⁸, and
    10⁶ within 10⁻⁶ of π, where t is largest) the largest difference is
    2.8e-16 and the largest deviation of |e^{iθ}| from 1 is 4.4e-16. Nothing
    overflows: π/2 is not a float64, so |tan(θ/2)| ≤ 1.7·10¹⁶ and t² ≤ 3·10³²
    for every finite θ, and there 1 ∓ t² rounds to ∓t², giving −1 exactly.
    The speed comes from numpy's SIMD dispatch of float64 ``tan`` with
    AVX512, whose cost depends on the argument's range: on a 2-core x86_64
    host with numpy 2.4.6, in 4096-element blocks, 2–2.7 ns per element for
    |θ/2| < 2¹⁶ but 7–7.7 ns above, where trajectory phases −E t fall for t
    up to 10³ / (minimum gap); the complex exp takes ~26 ns. Without AVX512
    numpy calls libm's ``tan``, slower but as accurate: results agree to rounding.
    """
    t, t2, den = work
    np.tan(t, out=t)
    np.multiply(t, t, out=t2)
    np.add(t2, 1.0, out=den)
    np.subtract(1.0, t2, out=t2)
    t += t
    np.divide(t2, den, out=out.real)
    np.divide(t, den, out=out.imag)
    return out


def torus_state(c, h: SpectralHamiltonian, alpha) -> np.ndarray:
    """Ψ(α) = Σ_k e^{iα_k} c_k |E_k⟩: time evolution with free phases.

    ``alpha`` is one phase vector or an (n, d) stack of them; a stack gives
    one state per row, and ``alpha`` itself is never written. The phase
    factors come from `_phase_factors`, as in `reduced_states`.
    """
    cv = np.asarray(c, dtype=np.complex128)
    av = np.asarray(alpha, dtype=np.float64)
    if cv.size != h.dim or av.shape[-1:] != (h.dim,):
        raise DimensionMismatchError(
            f"coefficients ({cv.size}) and phases {av.shape} must have length {h.dim}"
        )
    work = np.empty((3, *av.shape))
    np.multiply(av, 0.5, out=work[0])
    phased = _phase_factors(work, np.empty(av.shape, dtype=np.complex128))
    phased *= cv
    return phased @ h.eigenbasis.T


def sample_times(
    t_max: float, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Stratified-jittered grid on [0, t_max]: one uniform draw per stratum."""
    jitter = rng.random(n_samples)
    return (np.arange(n_samples) + jitter) * (t_max / n_samples)


def reduce_to_system(amps: np.ndarray, space: BipartiteSpace, out=None) -> np.ndarray:
    """ρ_S = tr_B |ψ⟩⟨ψ| of each row of an (n, d) amplitude stack: (n, d_S, d_S).

    With a[n, s, b] = ⟨s b|ψ_n⟩, ρ[n, s, t] = Σ_b a[n,s,b] conj(a[n,t,b]):
    one broadcast `vecdot`, which conjugates its first argument, written into
    ``out`` when given.
    """
    a = amps.reshape(-1, space.d_S, space.d_B)
    return np.vecdot(a[:, None], a[:, :, None], out=out)


def reduce_to_bath(amps: np.ndarray, space: BipartiteSpace, out=None) -> np.ndarray:
    """ρ_B = tr_S |ψ⟩⟨ψ| of each row of an (n, d) amplitude stack: (n, d_B, d_B).

    ρ[n, b, c] = Σ_s a[n,s,b] conj(a[n,s,c]): one batched matrix product,
    written into ``out`` when given.
    """
    a = amps.reshape(-1, space.d_S, space.d_B)
    return np.matmul(a.transpose(0, 2, 1), a.conj(), out=out)


def block_rows(d: int) -> int:
    """Rows per `reduced_states` block at dimension d."""
    return max(MIN_BLOCK_ROWS, BLOCK_AMPLITUDES // d)


def reduced_states(
    c,
    h: SpectralHamiltonian,
    space: BipartiteSpace,
    phases: Callable[[int, int, np.ndarray], object],
    n: int,
    reducer: Reducer,
    bath: bool = False,
) -> np.ndarray:
    """``reducer``'s values of ρ_S, or ρ_B when ``bath`` is set, of
    Ψ(α_j) = `torus_state(c, h, α_j)` for j = 0 … n−1: shape (n, …).

    ``reducer`` maps a (k, side, side) stack of states to a (k, …) array that
    takes each value from its own state alone. It is called once per chunk of
    max(1, BLOCK_AMPLITUDES // side²) rows, in row order, and its result is
    copied out, so it may return a view of its argument. A chunk may hold
    several blocks or part of one; the blocks, and so every value, do not
    depend on it. ``c`` is one coefficient vector or an (m, d) stack of them,
    which all sample the same phases and give shape (m, n, …); each block's
    phase factors e^{iα} are formed once for all rows of ``c``.
    ``phases(start, stop, out)`` writes the half-angles α/2 of the phase rows
    α_start … α_{stop−1} into the (stop − start, d) float array ``out``, once
    per block in row order, so a generator drawn block by block gives the
    same rows as one (n, d) draw.

    One arena per call holds every plane: the complex factors and amplitudes,
    the three float planes of `_phase_factors`, whose t and t² planes, free
    once the factors are formed, take each vector's scaled factors, and one
    chunk of states per vector.
    """
    cs = np.asarray(c, dtype=np.complex128)
    if cs.ndim not in (1, 2) or cs.size == 0 or cs.shape[-1] != h.dim or h.dim != space.d:
        raise DimensionMismatchError(
            f"coefficients {cs.shape}, Hamiltonian ({h.dim}) and space ({space.d}) disagree"
        )
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d, vectors = h.dim, cs.reshape(-1, h.dim)
    side, reduce = (space.d_B, reduce_to_bath) if bath else (space.d_S, reduce_to_system)
    rows = max(1, min(block_rows(d), n))
    chunk = max(1, min(BLOCK_AMPLITUDES // side**2, n))
    arena = np.empty(7 * rows * d + 2 * len(vectors) * chunk * side**2)
    factors, amps = arena[: 4 * rows * d].view(np.complex128).reshape(2, rows, d)
    work = arena[4 * rows * d : 7 * rows * d].reshape(3, rows, d)
    chunks = arena[7 * rows * d :].view(np.complex128).reshape(-1, chunk, side, side)
    scaled = work[:2].reshape(-1).view(np.complex128).reshape(rows, d)  # t, t² are free by then
    basis_t = h.eigenbasis.T
    values = None
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        k = stop - start
        phases(start, stop, work[0, :k])
        _phase_factors(work[:, :k], factors[:k])
        # The block's rows cut at the chunk boundaries inside it.
        cuts = [start, *range(start - start % chunk + chunk, stop, chunk), stop]
        for j, cv in enumerate(vectors):
            np.multiply(factors[:k], cv, out=scaled[:k])
            np.matmul(scaled[:k], basis_t, out=amps[:k])
            for lo, hi in zip(cuts, cuts[1:]):
                first = lo - lo % chunk  # the first row of lo's chunk
                reduce(amps[lo - start : hi - start], space, out=chunks[j, lo - first : hi - first])
                if hi % chunk == 0 or hi == n:
                    value = reducer(chunks[j, : hi - first])
                    if values is None:
                        values = np.empty((len(vectors), n, *value.shape[1:]), value.dtype)
                    values[j, first:hi] = value
    return values.reshape(*cs.shape[:-1], *values.shape[1:])


def time_phases(
    times: np.ndarray, h: SpectralHamiltonian
) -> Callable[[int, int, np.ndarray], object]:
    """Half-angles α_j/2 = −E t_j/2 of the sample times, for `reduced_states`;
    bit-equal to (−E t_j)·0.5, since halving E and the product are exact."""
    minus_half_e = -0.5 * h.energies
    return lambda start, stop, out: np.multiply.outer(times[start:stop], minus_half_e, out=out)


def reduced_states_at_times(
    c, h: SpectralHamiltonian, space: BipartiteSpace, times: np.ndarray, reducer: Reducer
) -> np.ndarray:
    """``reducer``'s values of ρ_S(t) at each sample time, as in
    `reduced_states`: shape (n, …), or (m, n, …) for an (m, d) stack of
    coefficient vectors."""
    return reduced_states(c, h, space, time_phases(times, h), len(times), reducer)


def default_t_max(h: SpectralHamiltonian, factor: float = DEFAULT_T_MAX_FACTOR) -> float:
    """Heuristic averaging window: factor / (minimum level spacing)."""
    gap = h.min_level_gap()
    if gap <= 0:
        raise DegenerateHamiltonianError("minimum level gap is not positive")
    return factor / gap
