"""Kernel tests: eigensolver, complex Gaussian draws, Haar unitaries and states."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlab import linalg, states
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
    max_dimension,
)
from eqlab.states import Subspace, haar_random_state
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


def haar_fourth_moment_scores(seed: int) -> list[float]:
    """The mean |U_ij|⁴ over 200 Haar unitaries on C¹⁶ and the mean |ψ₀|⁴ over
    10⁴ Haar states on C⁴, each against its exact value 2/(d(d + 1)), in
    standard errors. The entries of one U are dependent, so the unitaries'
    standard error is that of their 200 per-draw means. Real draws give
    3/(d(d + 2)) instead, 1.4 and 1.25 times the complex value."""
    rng = np.random.default_rng(seed)
    unitaries = [np.mean(np.abs(haar_random_unitary(16, rng)) ** 4) for _ in range(200)]
    firsts = np.array([haar_random_state(Subspace.full(4), rng)[0] for _ in range(10_000)])
    scores = []
    for samples, d in ((np.array(unitaries), 16), (np.abs(firsts) ** 4, 4)):
        std_error = np.std(samples, ddof=1) / math.sqrt(samples.size)
        scores.append(float((np.mean(samples) - 2 / (d * (d + 1))) / std_error))
    return scores


class TestHaarFourthMoments:
    @pytest.mark.parametrize("seed", range(3))
    def test_complex_draws_within_three_standard_errors(self, seed):
        assert all(abs(z) <= 3 for z in haar_fourth_moment_scores(seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_real_draws_fail(self, monkeypatch, seed):
        def real_gaussian(shape, rng):
            return rng.standard_normal(shape).astype(np.complex128)

        monkeypatch.setattr(linalg, "complex_gaussian", real_gaussian)
        monkeypatch.setattr(states, "complex_gaussian", real_gaussian)
        assert all(abs(z) > 3 for z in haar_fourth_moment_scores(seed))


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
