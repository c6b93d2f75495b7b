"""Kernel tests: eigensolver, Haar unitaries, Kronecker products."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlab.errors import (
    ConfigInvalidError,
    DimensionMismatchError,
    DimensionOverflowError,
    NoConvergenceError,
    NotHermitianError,
)
from eqlab.linalg import (
    DEFAULT_MAX_DIM,
    check_dimension,
    complex_gaussian,
    haar_random_unitary,
    hermitian_eigendecomposition,
    hermitize,
    is_hermitian,
    kronecker_product,
    max_dimension,
)
from oracles import same_bits, two_draw_gaussian, two_draw_haar_unitary

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(g)


def eig2x2_oracle(m: np.ndarray) -> np.ndarray:
    """Characteristic-polynomial eigenvalues of a 2x2 Hermitian matrix."""
    a = m[0, 0].real
    d = m[1, 1].real
    b = m[0, 1]
    disc = np.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
    mid = (a + d) / 2
    return np.array([mid - disc, mid + disc])


class TestEigendecomposition:
    def test_identity(self):
        eig = hermitian_eigendecomposition(np.eye(4))
        assert np.allclose(eig.eigenvalues, np.ones(4), atol=1e-12)

    def test_pauli_x(self):
        eig = hermitian_eigendecomposition(SIGMA_X)
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_reconstruction_random_8x8(self):
        rng = np.random.default_rng(11)
        m = random_hermitian(8, rng)
        eig = hermitian_eigendecomposition(m)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.linalg.norm(rebuilt - m) <= 1e-9 * np.linalg.norm(m)

    def test_eigenvectors_unitary(self):
        rng = np.random.default_rng(12)
        m = random_hermitian(12, rng)
        eig = hermitian_eigendecomposition(m)
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        assert np.max(np.abs(gram - np.eye(12))) <= 1e-10

    def test_eigenvalues_ascending_and_real(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = random_hermitian(9, rng)
            eig = hermitian_eigendecomposition(m)
            assert eig.eigenvalues.dtype == np.float64
            assert np.all(np.diff(eig.eigenvalues) >= 0)

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(14)
        for dim in (2, 5, 10, 17):
            m = random_hermitian(dim, rng)
            eig = hermitian_eigendecomposition(m)
            tr = np.trace(m).real
            assert abs(np.sum(eig.eigenvalues) - tr) <= 1e-9 * max(1.0, abs(tr))

    def test_2x2_characteristic_polynomial_oracle(self):
        span = range(-3, 4)
        for a, d, br, bi in itertools.product(span, span, span, span):
            m = np.array([[a, br + 1j * bi], [br - 1j * bi, d]], dtype=np.complex128)
            eig = hermitian_eigendecomposition(m)
            assert np.allclose(eig.eigenvalues, eig2x2_oracle(m), atol=1e-9)

    def test_degenerate_spectrum_allowed(self):
        m = np.diag([2.0, 2.0, 5.0]).astype(np.complex128)
        eig = hermitian_eigendecomposition(m)
        assert np.allclose(eig.eigenvalues, [2.0, 2.0, 5.0], atol=1e-12)

    def test_agrees_with_numpy(self):
        rng = np.random.default_rng(15)
        m = random_hermitian(16, rng)
        eig = hermitian_eigendecomposition(m)
        assert np.allclose(eig.eigenvalues, np.linalg.eigvalsh(m), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_eigendecomposition(np.zeros((2, 3)))

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergenceError):
            hermitian_eigendecomposition(SIGMA_Z)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
    def test_property_reconstruction(self, dim, seed):
        rng = np.random.default_rng(seed)
        m = random_hermitian(dim, rng)
        eig = hermitian_eigendecomposition(m)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.linalg.norm(rebuilt - m) <= 1e-9 * max(1.0, np.linalg.norm(m))


class TestHaarUnitary:
    def test_dim_1_unit_modulus(self):
        u = haar_random_unitary(1, np.random.default_rng(0))
        assert abs(abs(u[0, 0]) - 1.0) <= 1e-12

    def test_dim_16_unitary(self):
        u = haar_random_unitary(16, np.random.default_rng(3))
        assert np.max(np.abs(u.conj().T @ u - np.eye(16))) <= 1e-10

    def test_determinism(self):
        a = haar_random_unitary(8, np.random.default_rng(42))
        b = haar_random_unitary(8, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_first_moment(self):
        # |U_00|^2 is uniform on [0, 1] for dim=2: mean 1/2, variance 1/12.
        rng = np.random.default_rng(7)
        n = 100_000
        samples = np.array(
            [abs(haar_random_unitary(2, rng)[0, 0]) ** 2 for _ in range(n)]
        )
        se = np.sqrt(1.0 / 12.0 / n)
        assert abs(np.mean(samples) - 0.5) <= 3 * se

    @pytest.mark.parametrize("d", [1, 2, 3, 16, 64, 256])
    def test_bits_equal_the_out_of_place_form(self, d):
        # Scaling by 1/√2 and absorbing R's phases in place round as the
        # out-of-place expression does.
        u = haar_random_unitary(d, np.random.default_rng(d))
        assert same_bits(u, two_draw_haar_unitary(d, np.random.default_rng(d)))

    def test_rejects_bad_dim(self):
        with pytest.raises(DimensionMismatchError):
            haar_random_unitary(0, np.random.default_rng(0))


class TestComplexGaussian:
    @pytest.mark.parametrize("shape", [16, (16, 16), (5, 16)], ids=str)
    def test_bits_equal_two_draws(self, shape):
        # One draw of both halves fills them in the order of two draws, and
        # leaves the stream where the two draws leave it.
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        z = complex_gaussian(shape, ours)
        assert z.dtype == np.complex128
        assert same_bits(z, two_draw_gaussian(shape, theirs))
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestKroneckerProduct:
    def test_scalar_case(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(kronecker_product([[2.0]], m), 2 * m)

    def test_identity(self):
        assert np.array_equal(kronecker_product(np.eye(2), np.eye(3)), np.eye(6))

    def test_brute_force_oracle(self):
        out = kronecker_product(SIGMA_X, SIGMA_Z)
        expected = np.zeros((4, 4), dtype=np.complex128)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        expected[i * 2 + k, j * 2 + l] = SIGMA_X[i, j] * SIGMA_Z[k, l]
        assert np.array_equal(out, expected)

    def test_trace_multiplicativity(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lhs = np.trace(kronecker_product(a, b))
            rhs = np.trace(a) * np.trace(b)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_is_hermitian_tolerance():
    m = np.eye(3, dtype=np.complex128)
    m[0, 1] = 1e-13
    assert is_hermitian(m)
    assert is_hermitian(np.stack([np.eye(3), m]))
    m[0, 1] = 1e-6
    assert not is_hermitian(m)
    assert not is_hermitian(np.stack([np.eye(3), m]))


class TestMaxDimension:
    def test_default_and_set(self, monkeypatch):
        monkeypatch.delenv("EQLAB_MAX_DIM", raising=False)
        assert max_dimension() == DEFAULT_MAX_DIM
        monkeypatch.setenv("EQLAB_MAX_DIM", "64")
        assert max_dimension() == 64
        check_dimension(64)
        with pytest.raises(DimensionOverflowError):
            check_dimension(65)

    @pytest.mark.parametrize("raw", ["abc", "", "2.5", "0", "-3"])
    def test_refuses_anything_but_a_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("EQLAB_MAX_DIM", raw)
        with pytest.raises(ConfigInvalidError, match="^EQLAB_MAX_DIM: "):
            max_dimension()
