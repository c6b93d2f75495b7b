"""Hamiltonians in spectral form and the non-degenerate-gap condition.

Includes the model families the experiments build: generic random spectral
Hamiltonians, the diagonal product model with conserved subsystem
populations, and the strong-field spin-bath model whose eigenstates are
near-product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

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

    @classmethod
    def trusted(cls, energies, eigenbasis: np.ndarray) -> "SpectralHamiltonian":
        """H on a basis unitary by construction (a Householder QR factor, or I):
        only the energies are checked, not the d³ unitarity (1.46 s at d = 2048)."""
        h = object.__new__(cls)
        object.__setattr__(h, "energies", _checked_energies(energies, eigenbasis.shape[0]))
        object.__setattr__(h, "eigenbasis", eigenbasis)
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


def _tril_pairs(flat: np.ndarray, d: int) -> tuple[list[int], list[int]]:
    """(k, l) of positions in the enumeration of the pairs l < k, k outer."""
    rows = np.arange(d)
    starts = rows * (rows - 1) // 2  # the position of (k, 0)
    k = np.searchsorted(starts, flat, side="right") - 1
    return k.tolist(), (flat - starts[k]).tolist()


def _stable_order_at(gaps: np.ndarray, ranked: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The indices into ``gaps`` that a stable argsort of ``gaps`` puts at
    the positions ``at`` of ``ranked``, the sorted gaps above tol.

    Only the gaps whose value occurs at those positions are argsorted: a
    value's run of ties starts at its ``searchsorted`` position in ``ranked``,
    and within the run the stable order is the enumeration order.
    """
    values = np.sort(ranked[at])
    # One of each value, then +inf, so that every searchsorted index is valid.
    values = np.append(values[np.diff(values, prepend=-np.inf) > 0], np.inf)
    tied = np.flatnonzero(values[np.searchsorted(values, gaps)] == gaps)
    tied = tied[np.argsort(gaps[tied], kind="stable")]
    v = gaps[tied]
    positions = np.searchsorted(ranked, v) + np.arange(v.size) - np.searchsorted(v, v)
    return tied[np.searchsorted(positions, at)]


def gap_analysis(h: SpectralHamiltonian, tol: float | None = None) -> GapReport:
    """Check that every nonzero gap E_k - E_l determines the pair (k, l).

    Degenerate levels (zero gaps within tol) are reported as violations with
    quadruples of the form (k, l, k, l); a pair of equal gaps from distinct
    index pairs is reported as (k, l, m, n). Zero-gap quadruples come first,
    in (k, l < k) order, then the equal-gap pairs in ascending gap order,
    tied gaps in (k, l) order.

    Vectorised over all d(d-1)/2 gaps: the values are sorted with numpy's
    SIMD ``np.sort``, and a stable argsort runs only over the gaps whose
    value takes part in a violation. Measured on a 2-core x86_64 host
    (numpy 2.4.6, AVX512, median of runs), a check that passes takes 0.4 ms
    at d = 256, 10 ms at d = 1024 and 58 ms at d = 2048 (a stable argsort
    of all gaps took 3.7, 84 and 367 ms). Random spectra at d = 1024 and
    2048 have 360 and 5654 violations; their checks take 31 and 170-230 ms,
    most of it the membership test of every gap against the tied values.
    The tracemalloc peak is 26 bytes per gap on a pass (the d×d differences
    and their lower-triangle mask, then the gaps, their sorted copy and the
    separations) and 32 with violations, ~270 MB at d = 4096.
    """
    e = h.energies
    d = e.size
    if d < 2:
        raise DimensionMismatchError("gap analysis requires d >= 2")
    if tol is None:
        tol = default_gap_tolerance(e)

    # Row k, then l < k: the reporting order.
    gaps = np.subtract.outer(e, e)[np.tri(d, k=-1, dtype=bool)]
    zero = np.flatnonzero(gaps <= tol)
    ranked = np.sort(gaps)[zero.size:]  # the nonzero gaps, ascending
    seps = np.diff(ranked)
    close = seps <= tol
    min_sep = float(np.min(seps, where=~close, initial=np.inf))
    i = np.flatnonzero(close)
    del seps, close  # before the membership test's two arrays of one word per gap
    zk, zl = _tril_pairs(zero, d)
    violations = [*zip(zk, zl, zk, zl)]
    if i.size:
        first, second = np.split(_stable_order_at(gaps, ranked, np.concatenate((i, i + 1))), 2)
        violations += zip(*_tril_pairs(first, d), *_tril_pairs(second, d))

    return GapReport(
        passes=not violations,
        min_gap_separation=min_sep,
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


def _spectral_model(space, energy_window, rng, eigenbasis, what) -> SpectralHamiltonian:
    """Uniform i.i.d. energies on the window in the trusted basis ``eigenbasis()``, drawn
    once the window is checked; energies are redrawn until the gap check passes."""
    lo, hi = energy_window
    if not hi > lo:
        raise ValueError(f"energy window {energy_window} is empty")
    basis = eigenbasis()

    def build(r: np.random.Generator) -> SpectralHamiltonian:
        return SpectralHamiltonian.trusted(np.sort(r.uniform(lo, hi, size=space.d)), basis)

    return _resample(build, rng, what)


def random_spectral_hamiltonian(
    space: BipartiteSpace,
    energy_window: tuple[float, float] = (0.0, 1.0),
    *,
    rng: np.random.Generator,
) -> SpectralHamiltonian:
    """Uniform i.i.d. energies on the window, Haar-random eigenbasis."""
    basis = partial(haar_random_unitary, space.d, rng)
    return _spectral_model(space, energy_window, rng, basis, "random_spectral_hamiltonian")


def diagonal_product_hamiltonian(
    space: BipartiteSpace,
    energy_window: tuple[float, float] = (0.0, 1.0),
    *,
    rng: np.random.Generator,
) -> SpectralHamiltonian:
    """Interacting but population-conserving model, diagonal in the product basis."""
    basis = partial(np.eye, space.d, dtype=np.complex128)
    return _spectral_model(space, energy_window, rng, basis, "diagonal_product_hamiltonian")


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
