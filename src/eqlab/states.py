"""Pure states, density matrices and their scalar functionals."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bipartite import BipartiteSpace
from .errors import DimensionMismatchError, NotHermitianError
from .linalg import HERMITICITY_TOL, complex_gaussian, hermitize, is_hermitian

STATE_NORM_TOL = 1e-12


def as_state(psi, dim: int | None = None) -> np.ndarray:
    """Coerce to a normalized complex state vector."""
    v = np.asarray(psi, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatchError("state must be a nonempty vector")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond {STATE_NORM_TOL}")
    return v


@dataclass(frozen=True)
class Subspace:
    """A subspace R of H_S ⊗ H_B stored by what defines it, never by a basis:
    the whole space, or |ψ⟩_S ⊗ H_B or H_S ⊗ |φ⟩_B with the pinned vector and
    the side it pins."""

    ambient_dim: int
    pinned: np.ndarray | None = field(default=None, repr=False)
    side: str | None = None  # "system" or "bath": the factor that `pinned` fixes

    def __post_init__(self) -> None:
        if self.ambient_dim < 1:
            raise DimensionMismatchError(f"dimension must be >= 1, got {self.ambient_dim}")

    @property
    def d_R(self) -> int:
        return self.ambient_dim if self.pinned is None else self.ambient_dim // self.pinned.size

    @classmethod
    def full(cls, dim: int) -> "Subspace":
        return cls(dim)

    @classmethod
    def fixed_system(cls, psi_s, space: BipartiteSpace) -> "Subspace":
        """|ψ⟩_S ⊗ H_B: the bath is free, the subsystem state is pinned."""
        return cls(space.d, as_state(psi_s, space.d_S), "system")

    @classmethod
    def fixed_bath(cls, phi_b, space: BipartiteSpace) -> "Subspace":
        """H_S ⊗ |φ⟩_B: the subsystem is free, the bath state is pinned."""
        return cls(space.d, as_state(phi_b, space.d_B), "bath")

    def embed(self, z: np.ndarray) -> np.ndarray:
        """The state of H with coordinates z in R: z, ψ ⊗ z or z ⊗ φ."""
        if self.pinned is None:
            return z
        pair = (self.pinned, z) if self.side == "system" else (z, self.pinned)
        return np.multiply.outer(*pair).ravel()

    def projector_diagonal(self, u: np.ndarray) -> np.ndarray:
        """p_k = ⟨u_k|Π_R|u_k⟩ for each column u_k of the (d, n) array u: 1 on
        the full space, else the squared norm of ⟨ψ b|u_k⟩ over b (or of
        ⟨s φ|u_k⟩ over s), u read as (d_S, d_B, n): O(d·n) work, a d_R × n array."""
        if self.pinned is None:
            return np.ones(u.shape[1])
        v, n = self.pinned.conj(), u.shape[1]
        w = v @ u.reshape(v.size, -1) if self.side == "system" else v @ u.reshape(-1, v.size, n)
        return np.sum(np.abs(w.reshape(self.d_R, n)) ** 2, axis=0)


def haar_random_state(subspace: Subspace, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform pure state within the given subspace: a normalised
    complex Gaussian z of dimension d_R, placed in H by `subspace.embed`."""
    z = complex_gaussian(subspace.d_R, rng)
    z /= np.linalg.norm(z)
    return subspace.embed(z)


def product_state(psi_s, phi_b, space: BipartiteSpace) -> np.ndarray:
    """Global state with amplitudes[(s,b)] = ψ_S[s]·φ_B[b], the raveled outer product."""
    vs = as_state(psi_s, space.d_S)
    vb = as_state(phi_b, space.d_B)
    return np.multiply.outer(vs, vb).ravel()


def _as_stack(rho) -> np.ndarray:
    """Coerce to a finite complex128 matrix, or stack of them, with nonempty matrices."""
    a = np.asarray(rho, dtype=np.complex128)
    if a.ndim < 2 or 0 in a.shape[-2:]:
        raise DimensionMismatchError(f"expected nonempty matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("density matrices contain non-finite entries")
    return a


def purity(rho):
    """tr(ρ²) of a matrix, or of each matrix in a (..., d, d) stack; for
    Hermitian ρ this equals the squared Frobenius norm. A matrix gives a
    float, a stack an array of the stack shape."""
    a = _as_stack(rho)
    flat = a.reshape(*a.shape[:-2], -1)
    purities = np.linalg.vecdot(flat, flat).real
    return float(purities) if purities.ndim == 0 else purities


def effective_dimension(rho):
    """1 / tr(ρ²), of a matrix or of each matrix in a stack: how many pure
    states contribute appreciably."""
    return 1.0 / purity(rho)


def _qubit_trace_distance(d00, d11, d01) -> np.ndarray:
    """½ Σ|λ_i| of the Hermitian 2×2 matrices [[Δ₀₀, Δ₀₁], [Δ₀₁*, Δ₁₁]] with
    these real diagonals and upper entries, exactly: their eigenvalues are m ± r,
    m = (Δ₀₀ + Δ₁₁)/2 and r = √(((Δ₀₀ − Δ₁₁)/2)² + |Δ₀₁|²), so
    ½(|m + r| + |m − r|) = max(|m|, r)."""
    half_split = (d00 - d11) / 2
    r = np.sqrt(half_split * half_split + d01.real * d01.real + d01.imag * d01.imag)
    return np.maximum(np.abs((d00 + d11) / 2), r)


def trace_distance(rho1, rho2):
    """½ Σ|λ_i| over the eigenvalues of the Hermitian difference ρ₁ − ρ₂.

    Each argument is a d×d matrix or a (..., d, d) stack of them, and the
    stacks broadcast against each other, so a stack of states is compared
    with one reference state in one batched ``eigvalsh`` call, at every size.
    Two matrices give a float; otherwise the result is an array of the
    broadcast stack shape.
    """
    a, b = _as_stack(rho1), _as_stack(rho2)
    if a.shape[-2:] != b.shape[-2:] or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    try:
        diff = a - b
    except ValueError as exc:
        raise DimensionMismatchError(f"stacks {a.shape} and {b.shape} do not broadcast") from exc
    if not is_hermitian(diff):
        raise NotHermitianError(f"difference is not Hermitian within {HERMITICITY_TOL}")
    distances = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(hermitize(diff))), axis=-1)
    return float(distances) if distances.ndim == 0 else distances
