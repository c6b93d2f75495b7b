"""Dense reference forms that the tests compare eqlab's kernels against.

eqlab never builds a d×d global operator on a run path: ρ_S(t), ρ_B(t), ω_S
and ω_B come from the blocked kernel `reduced_states`, the reductions
`reduce_to_system` / `reduce_to_bath` and `dephased_system` /
`dephased_bath`, and a subspace is stored by its pinned vector; distances
to ω_S are read from the amplitudes (`dynamics.distances_to`), ρ_S formed in
chunks where d_S ≠ 2. `system_states` is the reducer that keeps every ρ_S of
a block, from one unchunked `reduce_to_system`. The other
functions here build the same objects the direct way (the density matrix,
its partial traces, the dephased state, the evolved state and the torus
state Ψ(α) as one unblocked (n, d) stack, a subspace's
orthonormal basis and projector) so that the tests have an independent
reference. Each is checked against brute force or a closed form in the test
module of the eqlab module it stands beside. `DenseSubspace` has the draw
(`embed`) and weight (`projector_diagonal`) interface of `eqlab.states.Subspace`,
so `haar_random_state`, `delta_quantity` and the runner accept it in its
place, and `DenseSubspace.of` gives the dense form of a structured subspace;
`random_subspace` and `SHAPES` give the cases the two are compared on.
`numerical_rank` counts the eigenvalues of a state above a threshold; no
eqlab run path needs a rank. `SpectralHamiltonian` does not check that
a basis is unitary; `require_unitary` does, on every basis a test makes
itself before eqlab reads it. A Hamiltonian diagonal in the product basis
stores no eigenbasis; `eigenbasis` gives it as the dense identity, and
`with_dense_basis` the same Hamiltonian with that identity stored, the
reference its basis-free methods are compared against. The random models'
former forms are kept as bit-exact references: the complex Gaussian as two
draws (`two_draw_gaussian`), the Haar unitary as one out-of-place expression
(`two_draw_haar_unitary`) and the spin-bath matrix as its Kronecker sum
(`kronecker_sum_spin_bath`); `same_bits` compares arrays bit for bit.
Kronecker products are numpy's `np.kron`. The operator identities of the
proofs are checked here too: SWAP (`swap_operator`), the trace identity
tr(AB) = tr((A ⊗ B)S) (`swap_trace_identity_check`) and the Haar pair
moment E|ψ⟩⟨ψ|^{⊗2} = (1 + S)/(d(d + 1)) (`haar_pair_moment_check`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from eqlab.bipartite import BipartiteSpace
from eqlab.dynamics import _phase_factors, energy_coefficients, reduce_to_system
from eqlab.errors import DimensionMismatchError
from eqlab.hamiltonians import SpectralHamiltonian
from eqlab.linalg import as_matrix, complex_gaussian, hermitize
from eqlab.states import Subspace, _as_stack, as_state, haar_random_state

RANK_THRESHOLD = 1e-10
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
# (d_S, d_B) shapes on which a structured form is compared with its dense
# oracle: d_S = 1, d_S < d_B, d_S > d_B, d_S = d_B and coprime sides.
SHAPES = [(1, 4), (2, 8), (8, 2), (4, 4), (3, 5)]


def shape_id(shape: tuple[int, int]) -> str:
    return f"{shape[0]}x{shape[1]}"


def random_subspace(kind: str, space: BipartiteSpace, rng: np.random.Generator) -> Subspace:
    """`Subspace.full`, or `fixed_system` / `fixed_bath` on a Haar-random pinned vector."""
    if kind == "full":
        return Subspace.full(space.d)
    side = space.d_S if kind == "fixed_system" else space.d_B
    return getattr(Subspace, kind)(haar_random_state(Subspace.full(side), rng), space)


def eigenbasis(h: SpectralHamiltonian) -> np.ndarray:
    """U as a dense d × d matrix: the stored eigenbasis, or I when H stores none."""
    return np.eye(h.dim, dtype=np.complex128) if h.eigenbasis is None else h.eigenbasis


def with_dense_basis(h: SpectralHamiltonian) -> SpectralHamiltonian:
    """H with its eigenbasis stored densely, I for a diagonal Hamiltonian."""
    return SpectralHamiltonian(h.energies, eigenbasis(h))


def require_unitary(u: np.ndarray) -> np.ndarray:
    """u itself, once u†u = 1 within 1e-10 entrywise: the d³ check that
    `SpectralHamiltonian` leaves to whoever hands it a basis."""
    if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))) > 1e-10:
        raise ValueError("eigenbasis is not unitary within 1e-10")
    return u


def density_matrix(psi) -> np.ndarray:
    """ρ = |ψ⟩⟨ψ| for a normalized state vector."""
    v = as_state(psi)
    return np.outer(v, v.conj())


def _check_global(rho, space: BipartiteSpace) -> np.ndarray:
    a = as_matrix(rho, "rho")
    if a.shape != (space.d, space.d):
        raise DimensionMismatchError(
            f"expected {space.d}x{space.d} operator, got {a.shape}"
        )
    return a


def partial_trace_bath(rho, space: BipartiteSpace) -> np.ndarray:
    """tr_B: ρ_S[s,s'] = Σ_b ρ[(s,b),(s',b)], re-Hermitized."""
    a = _check_global(rho, space)
    t = a.reshape(space.d_S, space.d_B, space.d_S, space.d_B)
    return hermitize(np.trace(t, axis1=1, axis2=3))


def partial_trace_system(rho, space: BipartiteSpace) -> np.ndarray:
    """tr_S: ρ_B[b,b'] = Σ_s ρ[(s,b),(s,b')], re-Hermitized."""
    a = _check_global(rho, space)
    t = a.reshape(space.d_S, space.d_B, space.d_S, space.d_B)
    return hermitize(np.trace(t, axis1=0, axis2=2))


def evolve(psi0, h: SpectralHamiltonian, t: float) -> np.ndarray:
    """|ψ(t)⟩ = Σ_k c_k e^{-iE_k t} |E_k⟩ in the computational basis."""
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    c = energy_coefficients(psi0, h)
    return eigenbasis(h) @ (np.exp(-1j * h.energies * t) * c)


def system_states(space: BipartiteSpace):
    """The `reduced_states` reducer whose values are the ρ_S of a block's
    rows themselves, (k, d_S, d_S), from one unchunked `reduce_to_system`."""
    return lambda a: reduce_to_system(a, space)


def torus_state(c, h: SpectralHamiltonian, alpha) -> np.ndarray:
    """Ψ(α) = Σ_k e^{iα_k} c_k |E_k⟩, time evolution with free phases, unblocked.

    ``alpha`` is one phase vector or an (n, d) stack of them; a stack gives
    one state per row, and ``alpha`` itself is never written. The phase
    factors come from `eqlab.dynamics._phase_factors`, as in `reduced_states`,
    whose blocks the tests compare with this one (n, d) stack.
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
    return phased @ eigenbasis(h).T


def dephased_time_average(psi0, h: SpectralHamiltonian) -> np.ndarray:
    """ω = Σ_k |c_k|² |E_k⟩⟨E_k| as a dense d×d matrix.

    There is no gap check: ω is defined for any spectrum, and it is the
    infinite-time average only when the levels are non-degenerate.
    """
    c = energy_coefficients(psi0, h)
    u = eigenbasis(h)
    return hermitize((u * np.abs(c) ** 2) @ u.conj().T)


def dense(h: SpectralHamiltonian) -> np.ndarray:
    """H = Σ_k E_k |E_k⟩⟨E_k| as a dense matrix."""
    u = eigenbasis(h)
    return hermitize((u * h.energies) @ u.conj().T)


def noninteracting_hamiltonian(
    h_s: SpectralHamiltonian, h_b: SpectralHamiltonian, space: BipartiteSpace
) -> SpectralHamiltonian:
    """H = H_S + H_B: sum energies with product eigenvectors, re-sorted."""
    if h_s.dim != space.d_S or h_b.dim != space.d_B:
        raise DimensionMismatchError(
            f"factor dims ({h_s.dim}, {h_b.dim}) do not match space ({space.d_S}, {space.d_B})"
        )
    energies = (h_s.energies[:, None] + h_b.energies[None, :]).reshape(-1)
    basis = np.kron(eigenbasis(h_s), eigenbasis(h_b))
    order = np.argsort(energies, kind="stable")
    return SpectralHamiltonian(energies[order], require_unitary(basis[:, order]))


def same_bits(a, b) -> bool:
    """Equal shapes and equal bits, entry by entry (so -0.0 ≠ 0.0 and NaN = NaN)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def two_draw_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """a + ib from two ``standard_normal`` draws, a first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def two_draw_haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Q·diag(r_ii/|r_ii|) of the QR of a Ginibre matrix, out of place."""
    z = two_draw_gaussian((dim, dim), rng) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def kronecker_sum_spin_bath(field: float, d_B: int, rng: np.random.Generator) -> np.ndarray:
    """E σ^z ⊗ 1 + H_int + 1 ⊗ H_B as a dense Kronecker sum, H_int then H_B
    drawn out of place and rescaled to spectral radius 1."""

    def unit_radius(dim: int) -> np.ndarray:
        a = hermitize(two_draw_gaussian((dim, dim), rng)) / np.sqrt(2)
        return a / float(np.max(np.abs(np.linalg.eigvalsh(a))))

    h_int = unit_radius(2 * d_B)
    h_bath = unit_radius(d_B)
    return (
        field * np.kron(SIGMA_Z, np.eye(d_B))
        + h_int
        + np.kron(np.eye(2), h_bath)
    )


def swap_operator(dim: int) -> np.ndarray:
    """SWAP on H ⊗ H: S|i⟩|j⟩ = |j⟩|i⟩."""
    s = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
    for i in range(dim):
        for j in range(dim):
            s[i * dim + j, j * dim + i] = 1.0
    return s


def swap_trace_identity_check(a, b) -> float:
    """|tr(AB) − tr((A ⊗ B)S)|; exactly zero up to rounding."""
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    if am.shape != bm.shape or am.shape[0] != am.shape[1]:
        raise DimensionMismatchError(f"need equal square shapes, got {am.shape}, {bm.shape}")
    rhs = np.trace(np.kron(am, bm) @ swap_operator(am.shape[0]))
    return float(abs(np.trace(am @ bm) - rhs))


def haar_pair_moment_check(dim: int, trials: int, rng: np.random.Generator) -> float:
    """Max entrywise deviation of the Monte Carlo pair moment E|ψ⟩⟨ψ|^{⊗2}
    of ``trials`` Haar states on C^dim from (1 + S)/(d(d + 1))."""
    z = complex_gaussian((trials, dim), rng)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    v = (z[:, :, None] * z[:, None, :]).reshape(trials, dim * dim)
    estimate = (v.T @ v.conj()) / trials
    closed = (np.eye(dim * dim) + swap_operator(dim)) / (dim * (dim + 1))
    return float(np.max(np.abs(estimate - closed)))


def numerical_rank(rho, threshold: float = RANK_THRESHOLD):
    """Number of eigenvalues above the threshold, of a matrix (an int) or of
    each matrix in a (..., d, d) stack (an array).

    ``eigvalsh`` reads only the lower triangle, so ρ must be Hermitian.
    """
    ranks = np.sum(np.linalg.eigvalsh(_as_stack(rho)) > threshold, axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


@dataclass(frozen=True)
class DenseSubspace:
    """A d_R-dimensional subspace given by orthonormal basis columns (d × d_R)."""

    basis: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        b = as_matrix(self.basis, "basis")
        gram = b.conj().T @ b
        if np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-10:
            raise ValueError("subspace basis columns are not orthonormal within 1e-10")
        object.__setattr__(self, "basis", b)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def d_R(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T

    def embed(self, z: np.ndarray) -> np.ndarray:
        return self.basis @ z

    def projector_diagonal(self, u: np.ndarray) -> np.ndarray:
        """p_k = ‖Q†u_k‖² for each column u_k of u, Q the basis."""
        return np.sum(np.abs(self.basis.conj().T @ u) ** 2, axis=0)

    @classmethod
    def full(cls, dim: int) -> "DenseSubspace":
        return cls(np.eye(dim, dtype=np.complex128))

    @classmethod
    def of(cls, sub: Subspace, space: BipartiteSpace) -> "DenseSubspace":
        """The dense form of a structured subspace of the space."""
        if sub.pinned is None:
            return cls.full(space.d)
        return getattr(cls, f"fixed_{sub.side}")(sub.pinned, space)

    @classmethod
    def fixed_system(cls, psi_s, space: BipartiteSpace) -> "DenseSubspace":
        """|ψ⟩_S ⊗ H_B, basis ψ ⊗ e_b."""
        v = as_state(psi_s, space.d_S)
        return cls(np.kron(v.reshape(-1, 1), np.eye(space.d_B, dtype=np.complex128)))

    @classmethod
    def fixed_bath(cls, phi_b, space: BipartiteSpace) -> "DenseSubspace":
        """H_S ⊗ |φ⟩_B, basis e_s ⊗ φ."""
        v = as_state(phi_b, space.d_B)
        return cls(np.kron(np.eye(space.d_S, dtype=np.complex128), v.reshape(-1, 1)))
