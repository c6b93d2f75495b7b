"""Time evolution in the energy eigenbasis and time-average machinery.

Evolution is exact: Ψ(α) = Σ_k e^{iα_k} c_k |E_k⟩, with α = −E t for time
evolution. `reduced_states` is the one amplitude path: in row blocks of
`block_rows(d)` it forms e^{iα} from tan(α/2) (`_phase_factors`, which numpy
vectorises, unlike a complex exp) once for all coefficient vectors, scales
the factors by each c, maps them back with one matrix product against the
basis (none for a Hamiltonian diagonal in the product basis, whose scaled
factors are the amplitudes) and hands the (k, d_S, d_B) amplitudes to a
reducer. Its phase sources (`time_phases`, `torus_phases`) write α/2 into a
work arena allocated once per call. `distances_to` makes the reducer of
D(ρ_S, ω_S), the one path from amplitudes to distances: at d_S = 2 in closed
form from the amplitudes, else from ρ_S formed in chunks of at most
`BLOCK_AMPLITUDES` entries; `marginal_purities` reads tr ρ² of each row from
its smaller marginal, so no ρ_B on the larger side is formed.
The infinite-time average is exact through its marginals (`dephased_system`,
`dephased_bath`, O(d) for a diagonal Hamiltonian); the d×d dephased state ω
is never formed. Every product with the eigenbasis is a `SpectralHamiltonian`
method; the kernel reads `h.diagonal` only to size its arena. Sample times
(`sample_times`) serve only the fluctuation statistics of `eqlab.verifiers`.

Every function of an initial state takes its energy coefficients
c_k = ⟨E_k|ψ₀⟩ (`energy_coefficients`), not ψ₀, so a caller computes them once.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .bipartite import BipartiteSpace
from .errors import DegenerateHamiltonianError, DimensionMismatchError, NotHermitianError
from .hamiltonians import SpectralHamiltonian
from .linalg import HERMITICITY_TOL, as_matrix, hermitize, is_hermitian
from .states import _qubit_trace_distance, as_state, purity, trace_distance

DEFAULT_T_MAX_FACTOR = 1e3
# `reduced_states` works in blocks of 16384 amplitudes (256 KiB of complex128),
# never fewer than 64 rows, all planes from one arena per call (planes allocated
# on their own are faulted in again on every call); `distances_to` forms ρ_S,
# where d_S ≠ 2, in chunks of as many entries (one state if larger). Neither
# holds the n × d stack (131 MB at n = 2000, d = 4096) nor the n × d_S² stack
# (8.4 GB at d_S = 512).
# `marginal_purities` needs no chunks: a block's smaller marginals hold
# k·min(d_S, d_B)² ≤ k·d entries, no more than its amplitudes.
BLOCK_AMPLITUDES = 16384
MIN_BLOCK_ROWS = 64
Reducer = Callable[[np.ndarray], np.ndarray]  # a (k, d_S, d_B) amplitude block to (k, …) values


def energy_coefficients(psi0, h: SpectralHamiltonian) -> np.ndarray:
    """c_k = ⟨E_k|ψ₀⟩ (`SpectralHamiltonian.coefficients`): (ψ₀* U)*, or ψ₀
    itself when H is diagonal in the product basis.

    The vector is conjugated instead of U, so no d×d conjugate copy of U is
    made. At d = 1024 the call peaks at 32 KiB under tracemalloc and takes
    0.9 ms, against 16 MiB and 3.7 ms for U†ψ₀ (2-core x86_64 host, one
    OpenBLAS 0.3.31 thread), and its result was bit-equal to U†ψ₀ at every
    d from 1 to 1024 tried.
    """
    return h.coefficients(as_state(psi0, h.dim))


def require_nondegenerate(h: SpectralHamiltonian) -> None:
    report = h.gap_report
    if not report.passes:
        raise DegenerateHamiltonianError(
            f"Hamiltonian fails the gap check: {report.violations} violations"
        )


def _weights(c, h: SpectralHamiltonian, space: BipartiteSpace) -> np.ndarray:
    """|c_k|², the weights of ω = Σ_k |c_k|² |E_k⟩⟨E_k|."""
    cv = np.asarray(c, dtype=np.complex128)
    if cv.shape != (h.dim,) or h.dim != space.d:
        raise DimensionMismatchError(
            f"coefficients {cv.shape}, Hamiltonian ({h.dim}) and space ({space.d}) disagree"
        )
    return np.abs(cv) ** 2


def dephased_system(c, h: SpectralHamiltonian, space: BipartiteSpace) -> np.ndarray:
    """ω_S, the re-Hermitized system marginal of ω = Σ_k |c_k|² |E_k⟩⟨E_k|.

    ω_S[s, t] = Σ_{b,k} U[s,b,k] |c_k|² U*[t,b,k]: one matrix product of
    cost O(d_S·d²), without the dense d×d ω or a per-eigenstate stack, or
    diag(Σ_b |c_sb|²) in O(d) when H is diagonal (`SpectralHamiltonian.marginal`).
    """
    return hermitize(h.marginal(_weights(c, h, space), space))


def dephased_bath(c, h: SpectralHamiltonian, space: BipartiteSpace) -> np.ndarray:
    """ω_B, the re-Hermitized bath marginal of ω: the `dephased_system` sum
    taken over (s, k) instead of (b, k), which costs O(d³/d_S), or
    diag(Σ_s |c_sb|²) in O(d) when H is diagonal."""
    return hermitize(h.marginal(_weights(c, h, space), space, bath=True))


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


def sample_times(
    t_max: float, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Stratified-jittered grid on [0, t_max]: one uniform draw per stratum."""
    jitter = rng.random(n_samples)
    return (np.arange(n_samples) + jitter) * (t_max / n_samples)


def reduce_to_system(amps: np.ndarray, space: BipartiteSpace, out=None) -> np.ndarray:
    """ρ_S = tr_B |ψ⟩⟨ψ| of each row of an (n, d) or (n, d_S, d_B) amplitude
    stack a[n, s, b] = ⟨s b|ψ_n⟩, into ``out`` when given: (n, d_S, d_S) with
    ρ[n, s, t] = Σ_b a[n,s,b] conj(a[n,t,b]), one broadcast `vecdot`, which
    conjugates its first argument."""
    a = amps.reshape(-1, space.d_S, space.d_B)
    return np.vecdot(a[:, None], a[:, :, None], out=out)


def reduce_to_bath(amps: np.ndarray, space: BipartiteSpace) -> np.ndarray:
    """ρ_B = tr_S |ψ⟩⟨ψ| of each row of an amplitude stack: (n, d_B, d_B) with
    ρ[n, b, c] = Σ_s a[n,s,b] conj(a[n,s,c]), one batched matrix product."""
    a = amps.reshape(-1, space.d_S, space.d_B)
    return np.matmul(a.transpose(0, 2, 1), a.conj())


def marginal_purities(amps: np.ndarray, space: BipartiteSpace) -> np.ndarray:
    """tr ρ² of each row of an (n, d) or (n, d_S, d_B) amplitude stack, read
    from the smaller marginal: `reduce_to_system` when d_S ≤ d_B, else
    `reduce_to_bath`, then `purity`.

    A row, read as the d_S × d_B matrix A, is the pure state
    |ψ⟩ = Σ A_sb |s b⟩, normalised or not. By its Schmidt decomposition
    ρ_S = A A† and ρ_B = (A† A)ᵀ share their nonzero spectrum, so
    tr ρ_S² = tr ρ_B² = tr (A A†)². This holds only for amplitude rows, which
    are pure states, never for a mixed state such as ω_B, whose purity is read
    from ω_B itself.
    """
    reduce = reduce_to_bath if space.d_B < space.d_S else reduce_to_system
    return purity(reduce(amps, space))


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
) -> np.ndarray:
    """``reducer``'s values of Ψ(α_j) = Σ_k e^{iα_jk} c_k |E_k⟩, j = 0 … n−1:
    shape (n, …), or (m, n, …) for an (m, d) stack ``c`` of coefficient
    vectors, which all sample the same phases, each block's e^{iα} formed once.

    ``reducer`` maps a block's amplitudes, a (k, d_S, d_B) view with
    a[j, s, b] = ⟨s b|Ψ(α_j)⟩, to (k, …) values, one per row (`distances_to`
    makes the one of D(ρ_S, ω_S)); it is called once per block and vector, in
    row order, and its result is copied out, so it may return a view.
    ``phases(start, stop, out)`` writes the half-angles α/2 of rows start …
    stop−1 into the (stop − start, d) float array ``out``, block by block in row
    order, so a generator gives the same rows as one (n, d) draw. One arena per
    call holds the complex factors, the three float planes of `_phase_factors`,
    whose t and t² planes, free once the factors are formed, take each vector's
    scaled factors, and the complex amplitudes, their product with the basis
    (`SpectralHamiltonian.amplitudes`). When H is diagonal in the product basis
    the scaled factors are the amplitudes, and the arena has no amplitude plane.
    """
    cs = np.asarray(c, dtype=np.complex128)
    if cs.ndim not in (1, 2) or cs.size == 0 or cs.shape[-1] != h.dim or h.dim != space.d:
        raise DimensionMismatchError(
            f"coefficients {cs.shape}, Hamiltonian ({h.dim}) and space ({space.d}) disagree"
        )
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    d, vectors = h.dim, cs.reshape(-1, h.dim)
    rows = max(1, min(block_rows(d), n))
    arena = np.empty((5 if h.diagonal else 7) * rows * d)
    factors = arena[: 2 * rows * d].view(np.complex128).reshape(rows, d)
    work = arena[2 * rows * d : 5 * rows * d].reshape(3, rows, d)
    scaled = work[:2].reshape(-1).view(np.complex128).reshape(rows, d)  # t, t² are free by then
    amps = arena[5 * rows * d :].view(np.complex128).reshape(-1, d)  # no rows when diagonal
    values = None
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        k = stop - start
        phases(start, stop, work[0, :k])
        _phase_factors(work[:, :k], factors[:k])
        for j, cv in enumerate(vectors):
            np.multiply(factors[:k], cv, out=scaled[:k])
            a = h.amplitudes(scaled[:k], out=amps[:k])
            value = reducer(a.reshape(k, space.d_S, space.d_B))
            if values is None:
                values = np.empty((len(vectors), n, *value.shape[1:]), value.dtype)
            values[j, start:stop] = value
    return values.reshape(*cs.shape[:-1], *values.shape[1:])


def distances_to(omega_s, space: BipartiteSpace) -> Reducer:
    """The `Reducer` of D(ρ_S, ω_S) for each amplitude row, the one path from
    amplitude blocks to distances, with `trace_distance`'s errors: ω_S is
    checked once, and a block with a non-finite entry raises.

    At d_S = 2 no state is formed: the closed form `_qubit_trace_distance`
    reads ρ_S's populations Σ_b |a_sb|² and ρ₀₁ = Σ_b a_0b a*_1b. Otherwise
    ρ_S is formed by `reduce_to_system` in chunks of
    max(1, BLOCK_AMPLITUDES // d_S²) rows that share one buffer and change no
    value, and each chunk goes to `trace_distance`.
    """
    w, side = as_matrix(omega_s, "reference state"), space.d_S
    if w.shape != (side, side):
        raise DimensionMismatchError(f"expected a {side}×{side} reference state, got {w.shape}")
    if not is_hermitian(w):
        raise NotHermitianError(f"reference state is not Hermitian within {HERMITICITY_TOL}")
    if side == 2:
        w00, w11, w01 = w[0, 0].real, w[1, 1].real, (w[0, 1] + w[1, 0].conj()) / 2

        def qubit(a: np.ndarray) -> np.ndarray:
            pops, rho01 = np.vecdot(a, a).real, np.vecdot(a[:, 1], a[:, 0])
            d = _qubit_trace_distance(pops[:, 0] - w00, pops[:, 1] - w11, rho01 - w01)
            if not np.isfinite(d).all():
                raise ValueError("density matrices contain non-finite entries")
            return d

        return qubit
    chunk = max(1, BLOCK_AMPLITUDES // side**2)
    states = np.empty((chunk, side, side), np.complex128)

    def chunked(a: np.ndarray) -> np.ndarray:
        values = np.empty(len(a))
        for lo in range(0, len(a), chunk):
            rhos = reduce_to_system(a[lo : lo + chunk], space, out=states[: len(a) - lo])
            values[lo : lo + len(rhos)] = trace_distance(rhos, w)
        return values

    return chunked


def time_phases(
    times: np.ndarray, h: SpectralHamiltonian
) -> Callable[[int, int, np.ndarray], object]:
    """Half-angles α_j/2 = −E t_j/2 of the sample times, for `reduced_states`;
    bit-equal to (−E t_j)·0.5, since halving E and the product are exact."""
    minus_half_e = -0.5 * h.energies
    return lambda start, stop, out: np.multiply.outer(times[start:stop], minus_half_e, out=out)


def torus_phases(rng: np.random.Generator) -> Callable[[int, int, np.ndarray], object]:
    """Half-angles α/2 of uniform independent phase vectors, for `reduced_states`:
    π·U[0, 1), bit-equal to ``rng.uniform(0, 2π) * 0.5``, which is 2π·U[0, 1)
    halved; drawn block by block, they are the rows of one (n, d) draw."""
    return lambda start, stop, out: np.multiply(rng.random(out=out), np.pi, out=out)


def reduced_states_at_times(
    c, h: SpectralHamiltonian, space: BipartiteSpace, times: np.ndarray, reducer: Reducer
) -> np.ndarray:
    """``reducer``'s values of Ψ(t) at each sample time, as in
    `reduced_states`: shape (n, …), or (m, n, …) for an (m, d) stack of
    coefficient vectors."""
    return reduced_states(c, h, space, time_phases(times, h), len(times), reducer)


def default_t_max(h: SpectralHamiltonian, factor: float = DEFAULT_T_MAX_FACTOR) -> float:
    """Heuristic averaging window: factor / (minimum level spacing)."""
    gap = h.min_level_gap()
    if gap <= 0:
        raise DegenerateHamiltonianError("minimum level gap is not positive")
    return factor / gap
