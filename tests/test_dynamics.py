"""Exact evolution, the dephased time average, and trajectory sampling."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from eqlab.bipartite import BipartiteSpace
from eqlab.dynamics import (
    block_rows,
    default_t_max,
    dephased_bath,
    dephased_system,
    energy_coefficients,
    reduce_to_bath,
    reduce_to_system,
    reduced_states,
    reduced_states_at_times,
    sample_times,
    time_phases,
    torus_state,
)
from eqlab.errors import DegenerateHamiltonianError, DimensionMismatchError
from eqlab.hamiltonians import SpectralHamiltonian, random_spectral_hamiltonian
from eqlab.linalg import haar_random_unitary
from eqlab.states import Subspace, effective_dimension, haar_random_state
from eqlab.verifiers import theorem1_check, theorem4_check, time_distances
from oracles import (
    dense,
    density_matrix,
    dephased_time_average,
    evolve,
    noninteracting_hamiltonian,
    partial_trace_bath,
    partial_trace_system,
)


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(100)
    space = BipartiteSpace(2, 8)
    h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
    psi = haar_random_state(Subspace.full(space.d), rng)
    return space, h, psi


class TestEnergyCoefficients:
    def test_eigenstate(self, instance):
        _, h, _ = instance
        c = energy_coefficients(h.eigenbasis[:, 3], h)
        expected = np.zeros(h.dim)
        expected[3] = 1.0
        assert np.max(np.abs(np.abs(c) - expected)) <= 1e-12

    def test_normalization(self, instance):
        _, h, psi = instance
        c = energy_coefficients(psi, h)
        assert abs(np.sum(np.abs(c) ** 2) - 1.0) <= 1e-12

    def test_round_trip(self, instance):
        _, h, psi = instance
        back = h.eigenbasis @ energy_coefficients(psi, h)
        assert np.max(np.abs(back - psi)) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 16, 256])
    def test_matches_dense_adjoint(self, d):
        rng = np.random.default_rng(110 + d)
        h = SpectralHamiltonian(np.sort(rng.uniform(0.0, 1.0, d)), haar_random_unitary(d, rng))
        psi = haar_random_state(Subspace.full(d), rng)
        reference = h.eigenbasis.conj().T @ psi
        assert np.max(np.abs(energy_coefficients(psi, h) - reference)) <= 1e-15

    def test_memory_is_o_of_d(self):
        # U†ψ copies the conjugate of U: 16 MiB at d = 1024. (ψ*U)* holds
        # a few d-vectors.
        d = 1024
        k = np.arange(d)
        dft = np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)
        h = SpectralHamiltonian(np.linspace(0.0, 1.0, d), dft)
        psi = haar_random_state(Subspace.full(d), np.random.default_rng(111))
        tracemalloc.start()
        try:
            energy_coefficients(psi, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak


class TestEvolve:
    def test_t_zero(self, instance):
        _, h, psi = instance
        assert np.max(np.abs(evolve(psi, h, 0.0) - psi)) <= 1e-12

    def test_eigenstate_stationary(self, instance):
        _, h, _ = instance
        psi = h.eigenbasis[:, 5]
        out = evolve(psi, h, 3.7)
        assert abs(abs(np.vdot(out, psi)) - 1.0) <= 1e-12

    def test_group_property(self, instance):
        _, h, psi = instance
        a = evolve(evolve(psi, h, 1.3), h, 2.4)
        b = evolve(psi, h, 3.7)
        assert np.max(np.abs(a - b)) <= 1e-11

    def test_norm_preservation(self, instance):
        _, h, _ = instance
        rng = np.random.default_rng(101)
        sub = Subspace.full(h.dim)
        for _ in range(200):
            psi = haar_random_state(sub, rng)
            t = rng.uniform(-100.0, 100.0)
            assert abs(np.linalg.norm(evolve(psi, h, t)) - 1.0) <= 1e-12

    def test_rejects_nonfinite_time(self, instance):
        _, h, psi = instance
        with pytest.raises(ValueError):
            evolve(psi, h, np.inf)


class TestDephasedTimeAverage:
    def test_eigenstate(self, instance):
        _, h, _ = instance
        omega = dephased_time_average(h.eigenbasis[:, 2], h)
        assert np.max(np.abs(omega - density_matrix(h.eigenbasis[:, 2]))) <= 1e-12

    def test_effective_dimension_formula(self, instance):
        _, h, psi = instance
        omega = dephased_time_average(psi, h)
        c = energy_coefficients(psi, h)
        assert abs(effective_dimension(omega) - 1.0 / np.sum(np.abs(c) ** 4)) <= 1e-10

    def test_commutes_with_hamiltonian(self, instance):
        _, h, psi = instance
        omega = dephased_time_average(psi, h)
        h_dense = dense(h)
        assert np.max(np.abs(omega @ h_dense - h_dense @ omega)) <= 1e-10

    def test_unit_trace(self, instance):
        _, h, psi = instance
        assert abs(np.trace(dephased_time_average(psi, h)) - 1.0) <= 1e-10

    def test_time_sampled_average_converges(self):
        # The numerical mean of rho(t) approaches omega entrywise; the
        # deviation shrinks as the averaging window grows.
        rng = np.random.default_rng(103)
        space = BipartiteSpace(4, 4)
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        psi = haar_random_state(Subspace.full(space.d), rng)
        omega = dephased_time_average(psi, h)
        gap = h.min_level_gap()
        c = energy_coefficients(psi, h)

        times = sample_times(1e3 / gap, 2000, rng)
        phases = np.exp(-1j * np.outer(times, h.energies))
        states = (phases * c) @ h.eigenbasis.T
        mean_rho = np.einsum("ni,nj->ij", states, states.conj()) / len(times)
        assert np.max(np.abs(mean_rho - omega)) <= 5e-2

        # Exact windowed average: (1/T) int_0^T e^{-i(E_k-E_l)t} dt has the
        # closed form (1 - e^{-i d T}) / (i d T), so the deviation from the
        # dephased limit can be checked without sampling noise.
        def exact_window_deviation(t_max: float) -> float:
            delta = h.energies[:, None] - h.energies[None, :]
            kernel = np.ones_like(delta, dtype=np.complex128)
            off = delta != 0
            kernel[off] = (1 - np.exp(-1j * delta[off] * t_max)) / (1j * delta[off] * t_max)
            avg_coeff = np.outer(c, c.conj()) * kernel
            avg = h.eigenbasis @ avg_coeff @ h.eigenbasis.conj().T
            return float(np.max(np.abs(avg - omega)))

        devs = [exact_window_deviation(f / gap) for f in (1e2, 1e3, 1e4)]
        assert devs[1] < devs[0] and devs[2] < devs[1]


def _spectral(d, basis, rng):
    return SpectralHamiltonian(np.sort(rng.uniform(0.0, 1.0, d)), basis)


# Built without the generators' gap-check resampling, so that d = 1 is allowed.
FAMILIES = {
    "random": lambda space, rng: _spectral(space.d, haar_random_unitary(space.d, rng), rng),
    "noninteracting": lambda space, rng: noninteracting_hamiltonian(
        _spectral(space.d_S, haar_random_unitary(space.d_S, rng), rng),
        _spectral(space.d_B, haar_random_unitary(space.d_B, rng), rng),
        space,
    ),
    "diagonal": lambda space, rng: _spectral(space.d, np.eye(space.d, dtype=np.complex128), rng),
}


class TestDephasedMarginals:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d_s", [1, 2, 3])
    @pytest.mark.parametrize("d_b", [1, 4, 5])
    def test_match_partial_traces_of_dense_form(self, family, d_s, d_b):
        # ω and its marginals are defined for any spectrum, so d = 1 and the
        # noninteracting spectrum, whose gaps repeat, are compared as well.
        rng = np.random.default_rng(110 + 10 * d_s + d_b)
        space = BipartiteSpace(d_s, d_b)
        h = FAMILIES[family](space, rng)
        psi = haar_random_state(Subspace.full(space.d), rng)
        omega = dephased_time_average(psi, h)
        c = energy_coefficients(psi, h)
        omega_s, omega_b = dephased_system(c, h, space), dephased_bath(c, h, space)
        assert omega_s.shape == (d_s, d_s) and omega_b.shape == (d_b, d_b)
        assert np.max(np.abs(omega_s - partial_trace_bath(omega, space))) <= 1e-12
        assert np.max(np.abs(omega_b - partial_trace_system(omega, space))) <= 1e-12

    def test_dimension_mismatch(self, instance):
        space, h, psi = instance
        c = energy_coefficients(psi, h)
        for marginal in (dephased_system, dephased_bath):
            with pytest.raises(DimensionMismatchError):
                marginal(c, h, BipartiteSpace(space.d_S, space.d_B + 1))
            with pytest.raises(DimensionMismatchError):
                marginal(c[:-1], h, space)


class TestTorusState:
    def test_zero_phases_reconstruct(self, instance):
        _, h, psi = instance
        c = energy_coefficients(psi, h)
        out = torus_state(c, h, np.zeros(h.dim))
        assert np.max(np.abs(out - psi)) <= 1e-12

    def test_single_eigenstate_phase_invariant(self, instance):
        _, h, _ = instance
        c = np.zeros(h.dim, dtype=np.complex128)
        c[4] = 1.0
        rng = np.random.default_rng(104)
        a = torus_state(c, h, rng.uniform(0, 2 * np.pi, h.dim))
        b = torus_state(c, h, rng.uniform(0, 2 * np.pi, h.dim))
        assert abs(abs(np.vdot(a, b)) - 1.0) <= 1e-12

    def test_phase_average_recovers_omega(self):
        rng = np.random.default_rng(105)
        space = BipartiteSpace(2, 3)
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        psi = haar_random_state(Subspace.full(space.d), rng)
        c = energy_coefficients(psi, h)
        omega = dephased_time_average(psi, h)
        n = 10_000
        acc = np.zeros((space.d, space.d), dtype=np.complex128)
        for _ in range(n):
            v = torus_state(c, h, rng.uniform(0, 2 * np.pi, h.dim))
            acc += np.outer(v, v.conj())
        assert np.max(np.abs(acc / n - omega)) <= 5.0 / np.sqrt(n)

    def test_length_mismatch(self, instance):
        _, h, psi = instance
        c = energy_coefficients(psi, h)
        with pytest.raises(DimensionMismatchError):
            torus_state(c, h, np.zeros(h.dim + 1))

    def test_phase_factor_matches_complex_exp(self):
        # With one level and eigenbasis [[1]], torus_state(1, h, θ) is the
        # phase factor e^{iθ} itself, which is computed from tan(θ/2). The
        # points near π are where tan(θ/2) is largest.
        h = SpectralHamiltonian(np.zeros(1), np.eye(1, dtype=np.complex128))
        rng = np.random.default_rng(109)
        special = [0.0, -0.0, np.pi, -np.pi, 3 * np.pi, np.nextafter(np.pi, 4)]
        theta = np.concatenate([
            *(rng.uniform(-s, s, 20_000) for s in (1.0, 2 * np.pi, 1e3, 1e6, 1e8)),
            special,
            np.pi + rng.uniform(-1e-6, 1e-6, 100_000),
        ])
        z = torus_state(np.ones(1), h, theta[:, None])[:, 0]
        assert np.max(np.abs(z - np.exp(1j * theta))) <= 1e-15
        assert np.max(np.abs(np.abs(z) - 1.0)) <= 1e-15

    @pytest.mark.parametrize("d_s", [1, 2, 3])
    @pytest.mark.parametrize("rows", [None, 1, 70], ids=["vector", "one row", "stack"])
    def test_matches_complex_exp_oracle(self, d_s, rows):
        rng = np.random.default_rng(130 + d_s)
        space = BipartiteSpace(d_s, 5)
        h = FAMILIES["random"](space, rng)
        c = energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h)
        shape = (space.d,) if rows is None else (rows, space.d)
        alpha = rng.uniform(-1e5, 1e5, size=shape)
        expected = (np.exp(1j * alpha) * c) @ h.eigenbasis.T
        out = torus_state(c, h, alpha)
        assert out.shape == expected.shape
        err = np.linalg.norm(out - expected, axis=-1)
        assert np.all(err <= 1e-14 * np.linalg.norm(expected, axis=-1))

    @pytest.mark.parametrize("rows", [None, 9], ids=["vector", "stack"])
    def test_alpha_not_written(self, instance, rows):
        _, h, psi = instance
        shape = (h.dim,) if rows is None else (rows, h.dim)
        alpha = np.random.default_rng(133).uniform(-10.0, 10.0, size=shape)
        kept = alpha.copy()
        torus_state(energy_coefficients(psi, h), h, alpha)
        assert np.array_equal(alpha, kept)


class TestTrajectoryStatistics:
    """Time-sampled distances D(ρ_S(t), ω_S) from `time_distances`."""

    def test_eigenstate_mean_zero(self, instance):
        space, h, _ = instance
        c = energy_coefficients(h.eigenbasis[:, 0], h)
        distances = time_distances(
            c, h, space, dephased_system(c, h, space), default_t_max(h), 64,
            np.random.default_rng(106),
        )
        assert np.mean(distances) <= 1e-10

    def test_random_state_bound(self, instance):
        space, h, psi = instance
        c = energy_coefficients(psi, h)
        distances = time_distances(
            c, h, space, dephased_system(c, h, space), default_t_max(h), 2000,
            np.random.default_rng(107),
        )
        mean = np.mean(distances)
        omega = dephased_time_average(psi, h)
        bound = 0.5 * np.sqrt(space.d_S**2 / effective_dimension(omega))
        assert 0 <= mean <= np.max(distances) <= 1
        assert mean <= bound
        for k in (2.0, 5.0, 10.0):
            assert np.mean(distances > k * mean) <= 1 / k + 0.02

    def test_degenerate_hamiltonian_rejected(self):
        rng = np.random.default_rng(102)
        space = BipartiteSpace(2, 2)
        ident2 = np.eye(2, dtype=np.complex128)
        h_s = SpectralHamiltonian(np.array([0.0, 1.0]), ident2)
        h = noninteracting_hamiltonian(h_s, h_s, space)
        c = energy_coefficients(haar_random_state(Subspace.full(4), rng), h)
        with pytest.raises(DegenerateHamiltonianError):
            theorem1_check(c, h, space, 1.0, 8, rng=rng)
        with pytest.raises(DegenerateHamiltonianError):
            theorem4_check(c, h, space, 0.2, 1.0, 8, rng=rng)

    def test_sample_times_stratified(self):
        times = sample_times(10.0, 5, np.random.default_rng(108))
        assert times.shape == (5,)
        for j, t in enumerate(times):
            assert j * 2.0 <= t <= (j + 1) * 2.0

    def test_reduced_states_match_evolve(self, instance):
        space, h, psi = instance
        times = np.array([0.0, 1.7, 9.2])
        rhos = reduced_states_at_times(energy_coefficients(psi, h), h, space, times)
        for t, rho in zip(times, rhos):
            v = evolve(psi, h, t).reshape(space.d_S, space.d_B)
            assert np.max(np.abs(rho - v @ v.conj().T)) <= 1e-12

    def test_bath_states_match_evolve(self, instance):
        space, h, psi = instance
        times = np.array([0.0, 1.7, 9.2])
        amps = torus_state(energy_coefficients(psi, h), h, -np.outer(times, h.energies))
        rhos_b = reduce_to_bath(amps, space)
        assert rhos_b.shape == (len(times), space.d_B, space.d_B)
        for t, rho_b in zip(times, rhos_b):
            v = evolve(psi, h, t).reshape(space.d_S, space.d_B)
            assert np.max(np.abs(rho_b - v.T @ v.conj())) <= 1e-12


class TestReductions:
    """`reduce_to_system` / `reduce_to_bath` of multi-row stacks against the
    partial traces of each row's dense |ψ⟩⟨ψ|."""

    @pytest.mark.parametrize("d_s", [1, 2, 3, 5])
    @pytest.mark.parametrize("d_b", [1, 2, 7])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed view"])
    def test_match_dense_partial_traces(self, d_s, d_b, layout):
        rng = np.random.default_rng(140 + 10 * d_s + d_b)
        space, n = BipartiteSpace(d_s, d_b), 6
        psis = np.array([haar_random_state(Subspace.full(space.d), rng) for _ in range(n)])
        # The transposed view is the layout `reduced_eigenstates` passes (eigenbasis.T).
        amps = psis if layout == "contiguous" else np.ascontiguousarray(psis.T).T
        assert amps.flags.c_contiguous == (layout == "contiguous" or space.d == 1)
        rhos_s, rhos_b = reduce_to_system(amps, space), reduce_to_bath(amps, space)
        assert rhos_s.shape == (n, d_s, d_s) and rhos_b.shape == (n, d_b, d_b)
        for psi, rho_s, rho_b in zip(psis, rhos_s, rhos_b):
            rho = density_matrix(psi)
            assert np.max(np.abs(rho_s - partial_trace_bath(rho, space))) <= 1e-14
            assert np.max(np.abs(rho_b - partial_trace_system(rho, space))) <= 1e-14


class TestReducedStates:
    """The blocked kernel against the unblocked reduction of one torus_state stack."""

    @pytest.mark.parametrize("d_s", [1, 2, 3])
    @pytest.mark.parametrize("blocks", ["one row", "part of a block", "blocks and a remainder"])
    def test_matches_unblocked_oracle(self, d_s, blocks):
        rng = np.random.default_rng(120 + d_s)
        space = BipartiteSpace(d_s, 5)
        h = FAMILIES["random"](space, rng)
        c = energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h)
        rows = block_rows(space.d)
        sizes = {"one row": 1, "part of a block": rows // 2, "blocks and a remainder": 2 * rows + 7}
        n = sizes[blocks]
        alpha = rng.uniform(0.0, 2 * np.pi, size=(n, space.d))
        calls = []

        def phases(start, stop):
            calls.append((start, stop))
            return alpha[start:stop]

        rhos_s = reduced_states(c, h, space, phases, n)
        rhos_b = reduced_states(c, h, space, phases, n, bath=True)
        amps = torus_state(c, h, alpha)
        assert rhos_s.shape == (n, d_s, d_s) and rhos_b.shape == (n, 5, 5)
        assert np.max(np.abs(rhos_s - reduce_to_system(amps, space))) <= 1e-14
        assert np.max(np.abs(rhos_b - reduce_to_bath(amps, space))) <= 1e-14
        bounds = list(range(0, n, rows)) + [n]
        assert calls == 2 * list(zip(bounds[:-1], bounds[1:]))

    @pytest.mark.parametrize("state", ["eigenstate", "random"])
    def test_system_and_bath_share_their_spectrum(self, instance, state):
        # The global state is pure, so ρ_S(t) and ρ_B(t) have the same nonzero
        # eigenvalues: the d_S largest of ρ_B(t) are those of ρ_S(t), and the
        # rest vanish. This holds the rank of ρ_B(t) to at most d_S.
        space, h, psi = instance
        c = energy_coefficients(h.eigenbasis[:, 3] if state == "eigenstate" else psi, h)
        times = sample_times(default_t_max(h), 50, np.random.default_rng(109))
        phases = time_phases(times, h)
        spec_s = np.linalg.eigvalsh(reduced_states(c, h, space, phases, len(times)))
        spec_b = np.linalg.eigvalsh(reduced_states(c, h, space, phases, len(times), bath=True))
        assert np.max(np.abs(spec_b[:, -space.d_S:] - spec_s)) <= 1e-12
        assert np.max(np.abs(spec_b[:, :-space.d_S])) <= 1e-12

    def test_block_rows(self):
        assert block_rows(2) == 2048
        assert block_rows(16) == 256
        assert block_rows(64) == block_rows(1024) == 64


def test_default_t_max(instance):
    _, h, _ = instance
    assert default_t_max(h) == 1e3 / h.min_level_gap()
