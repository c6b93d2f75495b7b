"""Hamiltonians in spectral form and the non-degenerate-gap check, a count of violations.

Includes the model families the experiments build: generic random spectral
Hamiltonians, the diagonal product model with conserved subsystem
populations, and the strong-field spin-bath model whose eigenstates are
near-product. Each builder makes one draw and checks no spectral hypothesis.
The gap hypothesis belongs to Theorem 1 and to Theorem 4, which reuses its
dephasing argument: `with_nondegenerate_gaps` redraws a model's energies
until it holds, and the runner applies it for thm1 and thm4 only.
The diagonal model stores no eigenbasis: its basis is the product basis,
which `SpectralHamiltonian`'s methods (coefficients, eigenvector blocks, the
kernel's amplitudes, the dephased marginals) use without forming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bipartite import BipartiteSpace
from .errors import DegenerateHamiltonianError, DimensionMismatchError
from .linalg import (
    as_matrix,
    haar_random_unitary,
    hermitian_eigendecomposition,
    hermitize,
    kronecker_product,
)

GAP_TOL_FACTOR = 1e-9
RESAMPLE_LIMIT = 100

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _checked_energies(energies, dim: int | None) -> np.ndarray:
    """The energies as a float64 vector, of length ``dim`` unless it is None."""
    e = np.asarray(energies, dtype=np.float64)
    if e.shape != (e.size if dim is None else dim,):
        raise DimensionMismatchError(
            f"energies ({e.shape}) and a {dim}-dimensional eigenbasis are inconsistent"
        )
    if not np.all(np.isfinite(e)):
        raise ValueError("energies contain non-finite values")
    if np.any(np.diff(e) < 0):
        raise ValueError("energies must be sorted ascending")
    return e


def _require_unitary(u: np.ndarray) -> None:
    """u†u = 1 within 1e-10 entrywise: a d³ product, the cost of a build at large d."""
    if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))) > 1e-10:
        raise ValueError("eigenbasis is not unitary within 1e-10")


@dataclass(frozen=True)
class SpectralHamiltonian:
    """H = Σ_k E_k |E_k⟩⟨E_k| stored as (energies, eigenbasis), U[:, k] = |E_k⟩.

    An eigenbasis of None means |E_k⟩ = |k⟩, the product basis |s b⟩ in
    row-major order, which is not stored. The methods below are U's only
    readers and take that case in O(d) per row.
    """

    energies: np.ndarray
    eigenbasis: np.ndarray | None

    def __post_init__(self) -> None:
        if self.eigenbasis is None:
            object.__setattr__(self, "energies", _checked_energies(self.energies, None))
            return
        u = as_matrix(self.eigenbasis, "eigenbasis")
        if u.shape[0] != u.shape[1]:
            raise DimensionMismatchError(f"eigenbasis must be square, got {u.shape}")
        e = _checked_energies(self.energies, u.shape[0])
        _require_unitary(u)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "eigenbasis", u)

    @classmethod
    def trusted(cls, energies, eigenbasis: np.ndarray | None) -> "SpectralHamiltonian":
        """H on a basis unitary by construction (a Householder QR factor,
        LAPACK's ``eigh`` eigenvectors, or None for the product basis): only
        the energies are checked, not the d³ unitarity (1.46 s at d = 2048)."""
        dim = None if eigenbasis is None else eigenbasis.shape[0]
        h = object.__new__(cls)
        object.__setattr__(h, "energies", _checked_energies(energies, dim))
        object.__setattr__(h, "eigenbasis", eigenbasis)
        return h

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def diagonal(self) -> bool:
        """H is diagonal in the product basis, which is not stored."""
        return self.eigenbasis is None

    def coefficients(self, v: np.ndarray) -> np.ndarray:
        """c_k = ⟨E_k|v⟩ of a state vector: (v* U)*, or a copy of v when H is diagonal."""
        return v.copy() if self.diagonal else (v.conj() @ self.eigenbasis).conj()

    def eigenvectors(self, start: int, stop: int) -> np.ndarray:
        """The (d, k) columns |E_start⟩ … |E_{stop−1}⟩, stop clipped to d: a
        view of U, or columns of I when H is diagonal."""
        stop = min(stop, self.dim)
        if self.diagonal:
            return np.eye(self.dim, stop - start, -start, dtype=np.complex128)
        return self.eigenbasis[:, start:stop]

    def amplitudes(self, scaled: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Rows Σ_k scaled[j, k] ⟨s b|E_k⟩ of a (k, d) block: one matrix product
        with U into ``out``, or ``scaled`` itself when H is diagonal, which
        leaves ``out`` unread (it may then be empty)."""
        return scaled if self.diagonal else np.matmul(scaled, self.eigenbasis.T, out=out)

    def marginal(self, weights: np.ndarray, space: BipartiteSpace, bath: bool = False):
        """Σ_k w_k tr_B |E_k⟩⟨E_k| (tr_S with ``bath``), not re-Hermitized: one
        matrix product over U[s, b, k] = ⟨s b|E_k⟩, or diag(Σ_b w_sb) (Σ_s) in
        O(d) when H is diagonal."""
        if self.diagonal:
            return np.diag(weights.reshape(space.d_S, space.d_B).sum(axis=0 if bath else 1) + 0j)
        u = self.eigenbasis.reshape(space.d_S, space.d_B, self.dim)
        axes = [0, 2] if bath else [1, 2]
        return np.tensordot(u * weights, u.conj(), axes=(axes, axes))

    def min_level_gap(self) -> float:
        return float(np.min(np.diff(self.energies)))

    @cached_property
    def gap_violations(self) -> int:
        """gap_analysis at the default tolerance, computed once per Hamiltonian."""
        return gap_analysis(self)


def default_gap_tolerance(energies: np.ndarray) -> float:
    width = float(np.max(energies) - np.min(energies))
    return GAP_TOL_FACTOR * width if width > 0 else GAP_TOL_FACTOR


def gap_analysis(h: SpectralHamiltonian, tol: float | None = None) -> int:
    """Count the violations of the condition that every nonzero gap E_k - E_l
    determines the pair (k, l): each zero gap (degenerate levels, within tol)
    and each pair of neighbouring sorted nonzero gaps within tol of each other.

    The d(d-1)/2 gaps are sorted in place by numpy's SIMD sort. On a 2-core
    x86_64 host (numpy 2.4.6, AVX512, median of runs) a check takes 0.5 ms at
    d = 256, 11 ms at 1024, 63-72 ms at 2048 and 0.27-0.31 s at 4096, with or
    without violations (a random spectrum has 427, 5967 and 93192 at the last
    three). The tracemalloc peak is 26 bytes per gap (the d×d differences and
    their lower-triangle mask, then the gaps), ~220 MB at d = 4096.
    """
    e = h.energies
    d = e.size
    if d < 2:
        raise DimensionMismatchError("gap analysis requires d >= 2")
    if tol is None:
        tol = default_gap_tolerance(e)

    gaps = np.subtract.outer(e, e)[np.tri(d, k=-1, dtype=bool)]
    gaps.sort()
    zero = int(np.count_nonzero(gaps <= tol))
    return zero + int(np.count_nonzero(np.diff(gaps[zero:]) <= tol))


def _on_window(energy_window, dim: int, basis, rng: np.random.Generator) -> SpectralHamiltonian:
    """H in the trusted ``basis`` (None for the product basis) with ``dim``
    sorted i.i.d. uniform energies on the window: ``dim`` draws from the rng."""
    lo, hi = energy_window
    if not hi > lo:
        raise ValueError(f"energy window {energy_window} is empty")
    return SpectralHamiltonian.trusted(np.sort(rng.uniform(lo, hi, size=dim)), basis)


def with_nondegenerate_gaps(
    h: SpectralHamiltonian, energy_window: tuple[float, float], rng: np.random.Generator
) -> SpectralHamiltonian:
    """h, or h's basis with its energies redrawn on the window until the gap
    check passes, `RESAMPLE_LIMIT` draws in all, h's own the first: Theorem 1's
    hypothesis, which Theorem 4 reuses and no other claim reads.

    With tol > 0 a draw fails with a probability that grows with d: for
    i.i.d. uniform energies at d = 512, all 100 draws fail (seeds 0-2).
    """
    draws = 1
    while h.gap_violations and draws < RESAMPLE_LIMIT:
        h = _on_window(energy_window, h.dim, h.eigenbasis, rng)
        draws += 1
    if h.gap_violations:
        raise DegenerateHamiltonianError(
            f"non-degenerate gaps: no draw passes at d = {h.dim} in {draws} attempts "
            f"(tol {default_gap_tolerance(h.energies):.3g}; the last draw has "
            f"{h.gap_violations} violations)"
        )
    return h


def random_spectral_hamiltonian(
    space: BipartiteSpace,
    energy_window: tuple[float, float] = (0.0, 1.0),
    *,
    rng: np.random.Generator,
) -> SpectralHamiltonian:
    """Uniform i.i.d. energies on the window, Haar-random eigenbasis, drawn first."""
    return _on_window(energy_window, space.d, haar_random_unitary(space.d, rng), rng)


def diagonal_product_hamiltonian(
    space: BipartiteSpace,
    energy_window: tuple[float, float] = (0.0, 1.0),
    *,
    rng: np.random.Generator,
) -> SpectralHamiltonian:
    """Interacting but population-conserving model, diagonal in the product
    basis, which it does not store: its eigenbasis is None."""
    return _on_window(energy_window, space.d, None, rng)


def _random_hermitian_unit_radius(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian Hermitian matrix rescaled to spectral radius 1."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a = hermitize(g) / np.sqrt(2)
    radius = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    return a / radius


def spin_bath_hamiltonian(
    field: float, d_B: int, rng: np.random.Generator
) -> tuple[SpectralHamiltonian, BipartiteSpace]:
    """Qubit in a strong field: H = E σ_S^z ⊗ 1 + H_int + 1 ⊗ H_B.

    H_int acts on the full 2·d_B space and H_B on the bath, both rescaled to
    spectral radius 1, so their joint contribution to any expectation value
    lies in [-2, 2].
    """
    if field <= 0:
        raise ValueError(f"field strength must be positive, got {field}")
    if d_B < 2:
        raise DimensionMismatchError(f"d_B must be >= 2, got {d_B}")
    space = BipartiteSpace(2, d_B)
    h_int = _random_hermitian_unit_radius(space.d, rng)
    h_bath = _random_hermitian_unit_radius(d_B, rng)
    dense = (
        field * kronecker_product(SIGMA_Z, np.eye(d_B))
        + h_int
        + kronecker_product(np.eye(2), h_bath)
    )
    eig = hermitian_eigendecomposition(dense)
    return SpectralHamiltonian.trusted(eig.eigenvalues, eig.eigenvectors), space
