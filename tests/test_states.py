"""States and scalar functionals: Haar sampling, purity, trace distance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlab.bipartite import BipartiteSpace
from eqlab.errors import DimensionMismatchError, NotHermitianError
from eqlab.states import (
    Subspace,
    as_state,
    effective_dimension,
    haar_random_state,
    product_state,
    purity,
    trace_distance,
)
from oracles import density_matrix, numerical_rank, partial_trace_bath


def random_mixed_state(dim: int, n_terms: int, rng: np.random.Generator) -> np.ndarray:
    weights = rng.dirichlet(np.ones(n_terms))
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for w in weights:
        rho += w * density_matrix(haar_random_state(Subspace.full(dim), rng))
    return rho


class TestStateValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            as_state(np.array([1.0, 1.0]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            as_state(np.array([1.0, 0.0]), dim=3)


class TestSubspace:
    def test_full_projector_is_identity(self):
        sub = Subspace.full(5)
        assert np.array_equal(sub.projector(), np.eye(5))
        assert sub.d_R == 5 and sub.ambient_dim == 5

    def test_projector_idempotent(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)))
        sub = Subspace(q)
        p = sub.projector()
        assert np.max(np.abs(p @ p - p)) <= 1e-9

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.ones((3, 2), dtype=np.complex128))

    def test_rejects_basis_just_off_orthonormal(self):
        basis = np.eye(4, dtype=np.complex128)
        basis[1, 0] = 1e-9
        with pytest.raises(ValueError):
            Subspace(basis)

    @pytest.mark.parametrize("d", [1, 2, 7, 256])
    def test_full_matches_checked_identity(self, d):
        full, checked = Subspace.full(d).basis, Subspace(np.eye(d)).basis
        assert full.dtype == checked.dtype == np.complex128
        assert np.array_equal(full, checked)

    def test_full_rejects_dimension_zero(self):
        with pytest.raises(DimensionMismatchError):
            Subspace.full(0)

    def test_fixed_system_and_bath_shapes(self):
        space = BipartiteSpace(2, 3)
        psi_s = np.array([1.0, 0.0])
        phi_b = np.array([0.0, 1.0, 0.0])
        assert Subspace.fixed_system(psi_s, space).d_R == 3
        assert Subspace.fixed_bath(phi_b, space).d_R == 2


class TestHaarRandomState:
    def test_d_r_1_is_basis_vector_up_to_phase(self):
        rng = np.random.default_rng(2)
        basis = haar_random_state(Subspace.full(5), rng).reshape(-1, 1)
        out = haar_random_state(Subspace(basis), rng)
        assert abs(abs(np.vdot(basis[:, 0], out)) - 1.0) <= 1e-12

    def test_membership(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))
        sub = Subspace(q)
        psi = haar_random_state(sub, rng)
        assert np.max(np.abs(sub.projector() @ psi - psi)) <= 1e-12

    def test_component_moment(self):
        # Mean of |<e_0|psi>|^2 over Haar samples is 1/d_R; the variance of
        # a single squared component is (d_R - 1) / (d_R^2 (d_R + 1)).
        rng = np.random.default_rng(4)
        sub = Subspace.full(4)
        n = 10_000
        samples = np.array(
            [abs(haar_random_state(sub, rng)[0]) ** 2 for _ in range(n)]
        )
        d_r = 4
        se = np.sqrt((d_r - 1) / (d_r**2 * (d_r + 1)) / n)
        assert abs(np.mean(samples) - 1 / d_r) <= 3 * se

    def test_determinism(self):
        sub = Subspace.full(6)
        a = haar_random_state(sub, np.random.default_rng(9))
        b = haar_random_state(sub, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestProductState:
    def test_basis_case(self):
        space = BipartiteSpace(2, 3)
        psi = product_state([1.0, 0.0], [1.0, 0.0, 0.0], space)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.array_equal(psi, expected)

    def test_reduced_state_is_pure_factor(self):
        rng = np.random.default_rng(5)
        space = BipartiteSpace(3, 4)
        psi_s = haar_random_state(Subspace.full(3), rng)
        phi_b = haar_random_state(Subspace.full(4), rng)
        rho_s = partial_trace_bath(density_matrix(product_state(psi_s, phi_b, space)), space)
        assert np.max(np.abs(rho_s - density_matrix(psi_s))) <= 1e-12

    def test_norm_preserved(self):
        rng = np.random.default_rng(6)
        space = BipartiteSpace(2, 5)
        psi = product_state(
            haar_random_state(Subspace.full(2), rng),
            haar_random_state(Subspace.full(5), rng),
            space,
        )
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


class TestPurityAndEffectiveDimension:
    def test_pure_state(self):
        rho = density_matrix(haar_random_state(Subspace.full(5), np.random.default_rng(7)))
        assert abs(effective_dimension(rho) - 1.0) <= 1e-10

    def test_maximally_mixed(self):
        for d in (2, 4, 9):
            assert abs(effective_dimension(np.eye(d) / d) - d) <= 1e-10

    def test_equal_mixture_of_n_orthogonal(self):
        # A mixture of n orthogonal states with equal probability has
        # effective dimension n.
        d = 6
        for n in (2, 3, 5):
            rho = np.diag([1.0 / n] * n + [0.0] * (d - n)).astype(np.complex128)
            assert abs(effective_dimension(rho) - n) <= 1e-10

    def test_deff_between_one_and_rank(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            rho = random_mixed_state(6, n, rng)
            d_eff = effective_dimension(rho)
            rank = numerical_rank(rho)
            assert 1.0 - 1e-10 <= d_eff <= rank + 1e-9
            assert rank <= 6


    def test_stack_matches_matrices(self):
        rng = np.random.default_rng(9)
        stack = np.array([[random_mixed_state(4, n, rng) for n in (1, 2, 3)] for _ in range(2)])
        purities, ranks = purity(stack), numerical_rank(stack)
        assert purities.shape == ranks.shape == (2, 3)
        assert isinstance(purity(stack[0, 0]), float)
        assert isinstance(numerical_rank(stack[0, 0]), int)
        assert np.max(np.abs(purities - [[purity(r) for r in row] for row in stack])) <= 1e-15
        assert ranks.tolist() == [[numerical_rank(r) for r in row] for row in stack]
        assert ranks.tolist() == [[1, 2, 3]] * 2

    def test_rejects_vector(self):
        with pytest.raises(DimensionMismatchError):
            purity(np.ones(4) / 2)
        with pytest.raises(DimensionMismatchError):
            numerical_rank(np.ones(4) / 2)


class TestTraceDistance:
    def test_self_distance(self):
        rho = np.eye(4) / 4
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = density_matrix(np.array([1.0, 0.0]))
        b = density_matrix(np.array([0.0, 1.0]))
        assert abs(trace_distance(a, b) - 1.0) <= 1e-12

    def test_qubit_vs_maximally_mixed(self):
        rho = density_matrix(np.array([1.0, 0.0]))
        assert abs(trace_distance(rho, np.eye(2) / 2) - 0.5) <= 1e-12

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            a = random_mixed_state(4, 2, rng)
            b = random_mixed_state(4, 3, rng)
            c = random_mixed_state(4, 2, rng)
            assert abs(trace_distance(a, b) - trace_distance(b, a)) <= 1e-10
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10

    def test_frobenius_upper_bound(self):
        # D(rho1, rho2) <= (1/2) sqrt(d * tr((rho1 - rho2)^2)).
        rng = np.random.default_rng(11)
        d = 5
        for _ in range(5):
            a = random_mixed_state(d, 2, rng)
            b = random_mixed_state(d, 3, rng)
            diff = a - b
            bound = 0.5 * np.sqrt(d * np.trace(diff @ diff).real)
            assert trace_distance(a, b) <= bound + 1e-10

    def test_stack_matches_pairs(self):
        rng = np.random.default_rng(12)
        stack = np.array([random_mixed_state(3, 2, rng) for _ in range(6)])
        ref = random_mixed_state(3, 3, rng)
        out = trace_distance(stack, ref)
        assert out.shape == (6,)
        assert isinstance(trace_distance(stack[0], ref), float)
        pairs = [trace_distance(rho, ref) for rho in stack]
        assert np.max(np.abs(out - pairs)) <= 1e-15
        assert np.max(np.abs(trace_distance(ref, stack) - pairs)) <= 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(np.eye(2) / 2, np.eye(3) / 3)
        with pytest.raises(DimensionMismatchError):
            trace_distance(np.stack([np.eye(2) / 2] * 4), np.eye(3) / 3)
        with pytest.raises(DimensionMismatchError):
            trace_distance(np.stack([np.eye(2) / 2] * 4), np.stack([np.eye(2) / 2] * 3))

    def test_non_hermitian_difference(self):
        skew = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=np.complex128)
        with pytest.raises(NotHermitianError):
            trace_distance(skew, np.eye(2) / 2)
        with pytest.raises(NotHermitianError):
            trace_distance(np.stack([np.eye(2) / 2, skew]), np.eye(2) / 2)

    @pytest.mark.parametrize("kind", ["traceless", "trace", "diagonal", "tiny", "zero"])
    def test_qubit_closed_form_matches_eigvalsh(self, kind):
        rng = np.random.default_rng(13)
        n = 2500
        g = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
        diff = (g + g.conj().swapaxes(-1, -2)) / 2
        if kind == "traceless":
            diff -= np.trace(diff, axis1=1, axis2=2)[:, None, None] / 2 * np.eye(2)
        elif kind == "diagonal":
            diff *= np.eye(2)
        elif kind == "tiny":
            diff *= 1e-12
        elif kind == "zero":
            diff *= 0.0
        oracle = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)
        scale = np.max(np.abs(diff), axis=(1, 2))
        assert np.all(np.abs(trace_distance(diff, np.zeros((2, 2))) - oracle) <= 2e-15 * scale)

    def test_qubit_stack_makes_no_eigensolve(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rng = np.random.default_rng(14)
        stack = np.array([random_mixed_state(2, 2, rng) for _ in range(8)])
        trace_distance(stack, np.eye(2) / 2)
        assert calls == []
        trace_distance(random_mixed_state(3, 2, rng), np.eye(3) / 3)
        assert calls == [(3, 3)]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_property_range(self, seed):
        rng = np.random.default_rng(seed)
        a = random_mixed_state(4, 2, rng)
        b = random_mixed_state(4, 2, rng)
        d = trace_distance(a, b)
        assert -1e-12 <= d <= 1.0 + 1e-10
