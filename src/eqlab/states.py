"""Pure states, density matrices and their scalar functionals."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bipartite import BipartiteSpace
from .errors import DimensionMismatchError, NotHermitianError
from .linalg import HERMITICITY_TOL, as_matrix, hermitize, is_hermitian

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
    """A d_R-dimensional subspace given by orthonormal basis columns."""

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

    @classmethod
    def full(cls, dim: int) -> "Subspace":
        """The whole space, basis I. The Gram matrix of I is I, so the d³
        orthonormality check (~1.4 s at d = 2048) is skipped."""
        basis = np.eye(dim, dtype=np.complex128)
        if basis.size == 0:
            raise DimensionMismatchError("basis must be nonempty")
        sub = object.__new__(cls)
        object.__setattr__(sub, "basis", basis)
        return sub

    @classmethod
    def fixed_system(cls, psi_s, space: BipartiteSpace) -> "Subspace":
        """|ψ⟩_S ⊗ H_B: the bath is free, the subsystem state is pinned."""
        v = as_state(psi_s, space.d_S)
        return cls(np.kron(v.reshape(-1, 1), np.eye(space.d_B, dtype=np.complex128)))

    @classmethod
    def fixed_bath(cls, phi_b, space: BipartiteSpace) -> "Subspace":
        """H_S ⊗ |φ⟩_B: the subsystem is free, the bath state is pinned."""
        v = as_state(phi_b, space.d_B)
        return cls(np.kron(np.eye(space.d_S, dtype=np.complex128), v.reshape(-1, 1)))


def haar_random_state(subspace: Subspace, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform pure state within the given subspace."""
    z = rng.standard_normal(subspace.d_R) + 1j * rng.standard_normal(subspace.d_R)
    z /= np.linalg.norm(z)
    return subspace.basis @ z


def product_state(psi_s, phi_b, space: BipartiteSpace) -> np.ndarray:
    """Global state with amplitudes[(s,b)] = ψ_S[s]·φ_B[b]."""
    vs = as_state(psi_s, space.d_S)
    vb = as_state(phi_b, space.d_B)
    return np.kron(vs, vb)


def _as_stack(rho) -> np.ndarray:
    """Coerce to a finite complex128 matrix, or stack of them, with nonempty matrices."""
    a = np.asarray(rho, dtype=np.complex128)
    if a.ndim < 2 or 0 in a.shape[-2:]:
        raise DimensionMismatchError(f"expected nonempty matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
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


def _qubit_trace_distance(diff: np.ndarray) -> np.ndarray:
    """½ Σ|λ_i| of the Hermitian part of each 2×2 matrix of a stack, exactly.

    Its eigenvalues are m ± r with m = tr Δ/2 and
    r = √(((Δ₀₀ − Δ₁₁)/2)² + |Δ₀₁|²), so ½(|m + r| + |m − r|) = max(|m|, r).
    """
    d00, d11 = diff[..., 0, 0].real, diff[..., 1, 1].real
    off = (diff[..., 0, 1] + diff[..., 1, 0].conj()) / 2
    half_split = (d00 - d11) / 2
    r = np.sqrt(half_split * half_split + off.real * off.real + off.imag * off.imag)
    return np.maximum(np.abs((d00 + d11) / 2), r)


def trace_distance(rho1, rho2):
    """½ Σ|λ_i| over the eigenvalues of the Hermitian difference ρ₁ − ρ₂.

    Each argument is a d×d matrix or a (..., d, d) stack of them, and the
    stacks broadcast against each other, so a stack of states is compared
    with one reference state in one call. 2×2 differences use the exact
    closed form max(|m|, r) of `_qubit_trace_distance`; other sizes go to
    one batched ``eigvalsh`` call. Two matrices give a float; otherwise the
    result is an array of the broadcast stack shape.
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
    if diff.shape[-1] == 2:
        distances = _qubit_trace_distance(diff)
    else:
        distances = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(hermitize(diff))), axis=-1)
    return float(distances) if distances.ndim == 0 else distances
