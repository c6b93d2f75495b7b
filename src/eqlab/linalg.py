"""Dense complex linear algebra kernel.

Matrices are plain numpy complex128 arrays in row-major (C) order. This
module provides the validation helpers, the Hermitian eigendecomposition
(LAPACK through ``np.linalg.eigh``), the complex Gaussian draw and
Haar-random unitaries that the rest of the package is built on.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import (
    ConfigInvalidError,
    DimensionMismatchError,
    DimensionOverflowError,
    NoConvergenceError,
    NotHermitianError,
)

DEFAULT_MAX_DIM = 4096
HERMITICITY_TOL = 1e-12


def max_dimension() -> int:
    """Configured cap on total matrix dimension (env EQLAB_MAX_DIM, an integer >= 1)."""
    raw = os.environ.get("EQLAB_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ConfigInvalidError(f"EQLAB_MAX_DIM: must be an integer >= 1, got {raw!r}")
    return cap


def check_dimension(dim: int) -> None:
    if dim > max_dimension():
        raise DimensionOverflowError(
            f"dimension {dim} exceeds configured maximum {max_dimension()}"
        )


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-dimensional, got ndim={a.ndim}")
    if a.size == 0:
        raise DimensionMismatchError(f"{name} must be nonempty")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a (..., d, d) stack."""
    return a.conj().swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Exact Hermitian part (a + a†)/2 of a matrix or of each matrix in a stack."""
    return (a + dagger(a)) / 2


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """Every entry of a − a† (for every matrix of a stack) is within tol."""
    return bool((np.abs(a - dagger(a)) <= tol).all())


def hermitian_eigendecomposition(m):
    """Diagonalize a Hermitian matrix with LAPACK: ``np.linalg.eigh``'s result,
    whose ``eigenvalues`` ascend and whose column k of ``eigenvectors``
    belongs to ``eigenvalues[k]``.

    Raises DimensionMismatchError for a non-square input, NotHermitianError
    if the input is not symmetric to 1e-12 entrywise, and NoConvergenceError
    when LAPACK reports that the eigensolver did not converge (numpy's
    LinAlgError).
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    if not is_hermitian(a):
        raise NotHermitianError(
            f"max |m - m†| = {np.max(np.abs(a - dagger(a))):.3e} exceeds {HERMITICITY_TOL}"
        )
    try:
        return np.linalg.eigh(hermitize(a))
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"LAPACK eigensolver did not converge: {exc}") from exc


def complex_gaussian(shape, rng: np.random.Generator) -> np.ndarray:
    """a + ib of standard normal a, b of ``shape`` from one draw, a first: the bits
    of ``rng.standard_normal(shape) + 1j * rng.standard_normal(shape)``, one array."""
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = rng.standard_normal((2, *z.shape))
    return z


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: complex Ginibre matrix, QR-orthonormalized.

    The phases of the triangular factor's diagonal are absorbed into Q so
    that the factorization has real positive diagonal, which makes the
    distribution exactly Haar (Mezzadri, Notices AMS 54, 592, 2007).
    """
    if dim < 1:
        raise DimensionMismatchError(f"dim must be >= 1, got {dim}")
    check_dimension(dim)
    z = complex_gaussian((dim, dim), rng)
    z /= np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q *= d / np.abs(d)
    return q

