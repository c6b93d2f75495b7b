"""Tensor-product structure: the index convention as eqlab reads it, and the
partial-trace, SWAP and operator-identity oracles of tests/oracles.py."""

from __future__ import annotations

import math

import numpy as np
import pytest

from eqlab.bipartite import BipartiteSpace
from eqlab.dynamics import (
    dephased_bath,
    dephased_system,
    energy_coefficients,
    reduce_to_bath,
    reduce_to_system,
)
from eqlab.errors import DimensionMismatchError
from eqlab.hamiltonians import SpectralHamiltonian
from eqlab.linalg import hermitian_eigendecomposition
from eqlab.states import Subspace, haar_random_state, product_state
from oracles import (
    density_matrix,
    haar_pair_moment_check,
    partial_trace_bath,
    partial_trace_system,
    require_unitary,
    swap_operator,
    swap_trace_identity_check,
)


def brute_force_trace_bath(rho: np.ndarray, space: BipartiteSpace) -> np.ndarray:
    out = np.zeros((space.d_S, space.d_S), dtype=np.complex128)
    for s in range(space.d_S):
        for sp in range(space.d_S):
            for b in range(space.d_B):
                out[s, sp] += rho[s * space.d_B + b, sp * space.d_B + b]
    return out


def brute_force_trace_system(rho: np.ndarray, space: BipartiteSpace) -> np.ndarray:
    out = np.zeros((space.d_B, space.d_B), dtype=np.complex128)
    for b in range(space.d_B):
        for bp in range(space.d_B):
            for s in range(space.d_S):
                out[b, bp] += rho[s * space.d_B + b, s * space.d_B + bp]
    return out


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    return density_matrix(haar_random_state(Subspace.full(dim), rng))


class TestIndexMaps:
    """|s⟩|b⟩ ↔ s·d_B + b, as the states and the reductions read it.

    d_S = 3 and d_B = 5 differ, so reading an amplitude vector as a (d_B, d_S)
    array, or transposing it, gives a different answer and fails.
    """

    space = BipartiteSpace(3, 5)

    def test_convention(self):
        space = self.space
        eye_s, eye_b = np.eye(space.d_S), np.eye(space.d_B)
        for s in range(space.d_S):
            for b in range(space.d_B):
                i = s * space.d_B + b
                assert np.array_equal(product_state(eye_s[s], eye_b[b], space), np.eye(space.d)[i])
                sys_pin = Subspace.fixed_system(eye_s[s], space)
                bath_pin = Subspace.fixed_bath(eye_b[b], space)
                assert np.array_equal(sys_pin.embed(eye_b[b]), np.eye(space.d)[i])
                assert np.array_equal(bath_pin.embed(eye_s[s]), np.eye(space.d)[i])
                # |s b⟩ = e_i lies in both subspaces: p_i = 1.
                assert sys_pin.projector_diagonal(np.eye(space.d))[i] == 1.0
                assert bath_pin.projector_diagonal(np.eye(space.d))[i] == 1.0

    def test_reductions_recover_factors(self):
        rng = np.random.default_rng(0)
        space = self.space
        psi_s = haar_random_state(Subspace.full(space.d_S), rng)
        phi_b = haar_random_state(Subspace.full(space.d_B), rng)
        psi = product_state(psi_s, phi_b, space)
        rho_s, rho_b = density_matrix(psi_s), density_matrix(phi_b)
        assert np.max(np.abs(reduce_to_system(psi[None, :], space)[0] - rho_s)) <= 1e-12
        assert np.max(np.abs(reduce_to_bath(psi[None, :], space)[0] - rho_b)) <= 1e-12
        # An eigenbasis containing |ψ_S⟩|φ_B⟩, with all the weight on it: ω = |ψ⟩⟨ψ|.
        q, _ = np.linalg.qr(np.column_stack([psi, rng.standard_normal((space.d, space.d - 1))]))
        h = SpectralHamiltonian(np.arange(space.d, dtype=np.float64), require_unitary(q))
        c = energy_coefficients(psi, h)
        omega_s, omega_b = dephased_system(c, h, space), dephased_bath(c, h, space)
        assert np.max(np.abs(omega_s - rho_s)) <= 1e-12
        assert np.max(np.abs(omega_b - rho_b)) <= 1e-12

    def test_invalid_space(self):
        with pytest.raises(DimensionMismatchError):
            BipartiteSpace(0, 3)


class TestPartialTraces:
    def test_product_state_recovers_factors(self):
        rng = np.random.default_rng(1)
        space = BipartiteSpace(3, 4)
        rho_s = random_density(3, rng)
        rho_b = random_density(4, rng)
        rho = np.kron(rho_s, rho_b)
        assert np.max(np.abs(partial_trace_bath(rho, space) - rho_s)) <= 1e-12
        assert np.max(np.abs(partial_trace_system(rho, space) - rho_b)) <= 1e-12

    def test_maximally_entangled(self):
        space = BipartiteSpace(2, 2)
        psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        rho = density_matrix(psi)
        assert np.max(np.abs(partial_trace_bath(rho, space) - np.eye(2) / 2)) <= 1e-12
        assert np.max(np.abs(partial_trace_system(rho, space) - np.eye(2) / 2)) <= 1e-12

    def test_brute_force_oracle_3x5(self):
        rng = np.random.default_rng(2)
        space = BipartiteSpace(3, 5)
        rho = random_density(space.d, rng)
        assert np.max(np.abs(
            partial_trace_bath(rho, space) - brute_force_trace_bath(rho, space)
        )) <= 1e-12
        assert np.max(np.abs(
            partial_trace_system(rho, space) - brute_force_trace_system(rho, space)
        )) <= 1e-12

    def test_schmidt_spectra_agree(self):
        # For a pure global state the nonzero eigenvalues of the two reduced
        # states coincide.
        rng = np.random.default_rng(3)
        space = BipartiteSpace(3, 5)
        rho = random_density(space.d, rng)
        eig_s = hermitian_eigendecomposition(partial_trace_bath(rho, space)).eigenvalues
        eig_b = hermitian_eigendecomposition(partial_trace_system(rho, space)).eigenvalues
        nz_s = np.sort(eig_s[eig_s > 1e-10])
        nz_b = np.sort(eig_b[eig_b > 1e-10])
        assert nz_s.size == nz_b.size
        assert np.allclose(nz_s, nz_b, atol=1e-9)

    def test_linearity_probe(self):
        rng = np.random.default_rng(4)
        space = BipartiteSpace(3, 4)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = (a + a.conj().T) / 2
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = (b + b.conj().T) / 2
        out = partial_trace_bath(np.kron(a, b), space)
        assert np.max(np.abs(out - np.trace(b) * a)) <= 1e-10

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        space = BipartiteSpace(2, 7)
        rho = random_density(space.d, rng)
        assert abs(np.trace(partial_trace_bath(rho, space)) - 1.0) <= 1e-12
        assert abs(np.trace(partial_trace_system(rho, space)) - 1.0) <= 1e-12

    def test_outputs_hermitian(self):
        rng = np.random.default_rng(6)
        space = BipartiteSpace(3, 3)
        rho = random_density(space.d, rng)
        out = partial_trace_bath(rho, space)
        assert np.array_equal(out, out.conj().T)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace_bath(np.eye(5), BipartiteSpace(2, 3))


class TestSwapOperator:
    def test_dim_1(self):
        assert np.array_equal(swap_operator(1), np.eye(1))

    def test_dim_2_permutation(self):
        s = swap_operator(2)
        expected = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(s, expected)

    def test_involution_and_hermitian(self):
        for dim in (2, 3, 4):
            s = swap_operator(dim)
            assert np.array_equal(s @ s, np.eye(dim * dim))
            assert np.array_equal(s, s.conj().T)

    def test_trace_equals_dim(self):
        for dim in (2, 3, 4):
            assert np.trace(swap_operator(dim)).real == dim

    def test_swap_trace_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            lhs = np.trace(a @ b)
            rhs = np.trace(np.kron(a, b) @ swap_operator(4))
            assert abs(lhs - rhs) <= 1e-10


class TestIdentities:
    def test_swap_identity_identity_matrices(self):
        assert swap_trace_identity_check(np.eye(3), np.eye(3)) <= 1e-12

    def test_swap_identity_random(self):
        rng = np.random.default_rng(216)
        for _ in range(20):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert swap_trace_identity_check(a, b) <= 1e-10

    def test_swap_identity_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            swap_trace_identity_check(np.eye(2), np.eye(3))

    def test_pair_moment_convergence(self):
        rng = np.random.default_rng(218)
        dev = haar_pair_moment_check(4, 10_000, rng)
        assert dev <= 5 / math.sqrt(10_000)
