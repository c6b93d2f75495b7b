"""Hamiltonians in spectral form and the non-degenerate-gap condition.

Includes the model families the experiments build: generic random spectral
Hamiltonians, the diagonal product model with conserved subsystem
populations, and the strong-field spin-bath model whose eigenstates are
near-product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bipartite import BipartiteSpace
from .errors import DimensionMismatchError, EqlabError
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


def _checked_energies(energies, dim: int) -> np.ndarray:
    e = np.asarray(energies, dtype=np.float64)
    if e.shape != (dim,):
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
    """H = Σ_k E_k |E_k⟩⟨E_k| stored as (energies, eigenbasis)."""

    energies: np.ndarray
    eigenbasis: np.ndarray

    def __post_init__(self) -> None:
        u = as_matrix(self.eigenbasis, "eigenbasis")
        if u.shape[0] != u.shape[1]:
            raise DimensionMismatchError(f"eigenbasis must be square, got {u.shape}")
        e = _checked_energies(self.energies, u.shape[0])
        _require_unitary(u)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "eigenbasis", u)

    def with_energies(self, energies) -> "SpectralHamiltonian":
        """The same eigenbasis with new energies. The basis was checked when
        this Hamiltonian was built, so the unitarity check is not repeated."""
        h = object.__new__(SpectralHamiltonian)
        object.__setattr__(h, "energies", _checked_energies(energies, self.dim))
        object.__setattr__(h, "eigenbasis", self.eigenbasis)
        return h

    @property
    def dim(self) -> int:
        return self.energies.size

    def min_level_gap(self) -> float:
        return float(np.min(np.diff(self.energies)))

    @cached_property
    def gap_report(self) -> GapReport:
        """gap_analysis at the default tolerance, computed once per Hamiltonian."""
        return gap_analysis(self)


@dataclass(frozen=True)
class GapReport:
    """Outcome of the non-degenerate-energy-gaps check."""

    passes: bool
    min_gap_separation: float
    degenerate_pairs: tuple[tuple[int, int, int, int], ...]
    tolerance: float


def default_gap_tolerance(energies: np.ndarray) -> float:
    width = float(np.max(energies) - np.min(energies))
    return GAP_TOL_FACTOR * width if width > 0 else GAP_TOL_FACTOR


def gap_analysis(h: SpectralHamiltonian, tol: float | None = None) -> GapReport:
    """Check that every nonzero gap E_k - E_l determines the pair (k, l).

    Degenerate levels (zero gaps within tol) are reported as violations with
    quadruples of the form (k, l, k, l); a pair of equal gaps from distinct
    index pairs is reported as (k, l, m, n). Zero-gap quadruples come first,
    in (k, l < k) order, then the equal-gap pairs in ascending gap order.

    Vectorised over all d(d-1)/2 gaps: O(d² log d) time for the sort. Memory
    peaks at 6 × 8 bytes per gap (the two index arrays, the gaps, the sort
    order, the sorted gaps and their differences): ~400 MB at d = 4096.
    """
    e = h.energies
    d = e.size
    if d < 2:
        raise DimensionMismatchError("gap analysis requires d >= 2")
    if tol is None:
        tol = default_gap_tolerance(e)

    k, l = np.tril_indices(d, -1)  # k outer, l < k inner: the reporting order
    gaps = e[k] - e[l]
    zero = np.flatnonzero(gaps <= tol)
    # Zero gaps sort first; the stable sort keeps tied gaps in (k, l) order.
    order = np.argsort(gaps, kind="stable")[zero.size:]
    seps = np.diff(gaps[order])
    close = seps <= tol
    i = np.flatnonzero(close)
    first, second = order[i], order[i + 1]
    zk, zl = k[zero].tolist(), l[zero].tolist()
    violations = [
        *zip(zk, zl, zk, zl),
        *zip(k[first].tolist(), l[first].tolist(), k[second].tolist(), l[second].tolist()),
    ]

    return GapReport(
        passes=not violations,
        min_gap_separation=float(np.min(seps, where=~close, initial=np.inf)),
        degenerate_pairs=tuple(violations),
        tolerance=float(tol),
    )


def _resample(build, rng: np.random.Generator, what: str) -> SpectralHamiltonian:
    """Draw Hamiltonians until gap_analysis passes (measure-zero failures)."""
    for _ in range(RESAMPLE_LIMIT):
        h = build(rng)
        if h.gap_report.passes:
            return h
    raise EqlabError(
        f"{what}: no gap-nondegenerate sample in {RESAMPLE_LIMIT} attempts; "
        "this indicates a bug or a pathological energy window"
    )


def random_spectral_hamiltonian(
    space: BipartiteSpace,
    energy_window: tuple[float, float] = (0.0, 1.0),
    rng: np.random.Generator | None = None,
) -> SpectralHamiltonian:
    """Uniform i.i.d. energies on the window, Haar-random eigenbasis."""
    lo, hi = energy_window
    if not hi > lo:
        raise ValueError(f"energy window {energy_window} is empty")
    if rng is None:
        raise ValueError("rng is required")
    # Built once, so the basis is checked once; each attempt draws energies only.
    template = SpectralHamiltonian(np.zeros(space.d), haar_random_unitary(space.d, rng))

    def build(r: np.random.Generator) -> SpectralHamiltonian:
        return template.with_energies(np.sort(r.uniform(lo, hi, size=space.d)))

    return _resample(build, rng, "random_spectral_hamiltonian")


def diagonal_product_hamiltonian(
    space: BipartiteSpace,
    energy_window: tuple[float, float] = (0.0, 1.0),
    rng: np.random.Generator | None = None,
) -> SpectralHamiltonian:
    """Interacting but population-conserving model, diagonal in the product basis."""
    lo, hi = energy_window
    if not hi > lo:
        raise ValueError(f"energy window {energy_window} is empty")
    if rng is None:
        raise ValueError("rng is required")
    template = SpectralHamiltonian(np.zeros(space.d), np.eye(space.d, dtype=np.complex128))

    def build(r: np.random.Generator) -> SpectralHamiltonian:
        return template.with_energies(np.sort(r.uniform(lo, hi, size=space.d)))

    return _resample(build, rng, "diagonal_product_hamiltonian")


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

    def build(r: np.random.Generator) -> SpectralHamiltonian:
        h_int = _random_hermitian_unit_radius(space.d, r)
        h_bath = _random_hermitian_unit_radius(d_B, r)
        dense = (
            field * kronecker_product(SIGMA_Z, np.eye(d_B))
            + h_int
            + kronecker_product(np.eye(2), h_bath)
        )
        eig = hermitian_eigendecomposition(dense)
        return SpectralHamiltonian(eig.eigenvalues, eig.eigenvectors)

    return _resample(build, rng, "spin_bath_hamiltonian"), space
