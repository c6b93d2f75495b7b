"""Exact evolution, the dephased time average, and trajectory sampling."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from eqlab import dynamics, states, verifiers
from eqlab.bipartite import BipartiteSpace
from eqlab.dynamics import (
    block_rows,
    default_t_max,
    dephased_bath,
    dephased_system,
    distances_to,
    energy_coefficients,
    marginal_purities,
    reduce_to_bath,
    reduce_to_system,
    reduced_states,
    reduced_states_at_times,
    sample_times,
    time_phases,
    torus_phases,
)
from eqlab.errors import DegenerateHamiltonianError, DimensionMismatchError, NotHermitianError
from eqlab.hamiltonians import (
    SpectralHamiltonian,
    diagonal_product_hamiltonian,
    random_spectral_hamiltonian,
)
from eqlab.linalg import haar_random_unitary
from eqlab.states import (
    Subspace,
    _qubit_trace_distance,
    effective_dimension,
    haar_random_state,
    purity,
    trace_distance,
)
from eqlab.verifiers import (
    diagonal_counterexample,
    theorem1_check,
    theorem3_sweep_check,
    theorem4_check,
    time_distances,
)
from oracles import (
    dense,
    density_matrix,
    dephased_time_average,
    evolve,
    noninteracting_hamiltonian,
    partial_trace_bath,
    partial_trace_system,
    require_unitary,
    shape_id,
    system_states,
    torus_state,
    with_dense_basis,
)


def keep(values):
    """The identity reducer: `reduced_states` then returns the amplitudes themselves."""
    return values


def states_of(space, bath=False):
    """The reducer whose values are the ρ_S states themselves (`system_states`),
    or with ``bath`` the ρ_B states (`reduce_to_bath` of the whole block)."""
    return (lambda a: reduce_to_bath(a, space)) if bath else system_states(space)


def make_instance(d_s):
    """A random Hamiltonian at (d_s, 8) and a Haar state."""
    rng = np.random.default_rng(100)
    space = BipartiteSpace(d_s, 8)
    h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
    psi = haar_random_state(Subspace.full(space.d), rng)
    return space, h, psi


@pytest.fixture(scope="module")
def instance():
    return make_instance(2)


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

    def test_memory_is_o_of_d(self, dft_1024):
        # U†ψ copies the conjugate of U: 16 MiB at d = 1024. (ψ*U)* holds
        # a few d-vectors.
        h = dft_1024
        psi = haar_random_state(Subspace.full(h.dim), np.random.default_rng(111))
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


# Haar, Kronecker-product (checked by `noninteracting_hamiltonian`) and
# product bases; d = 1 is allowed.
FAMILIES = {
    "random": lambda space, rng: _spectral(space.d, haar_random_unitary(space.d, rng), rng),
    "noninteracting": lambda space, rng: noninteracting_hamiltonian(
        _spectral(space.d_S, haar_random_unitary(space.d_S, rng), rng),
        _spectral(space.d_B, haar_random_unitary(space.d_B, rng), rng),
        space,
    ),
    "diagonal": lambda space, rng: _spectral(space.d, None, rng),
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
        h = SpectralHamiltonian(np.zeros(1), require_unitary(np.eye(1, dtype=np.complex128)))
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
        h_s = SpectralHamiltonian(np.array([0.0, 1.0]), require_unitary(ident2))
        h = noninteracting_hamiltonian(h_s, h_s, space)
        c = energy_coefficients(haar_random_state(Subspace.full(4), rng), h)
        with pytest.raises(DegenerateHamiltonianError, match="^non-degenerate gaps: "):
            theorem1_check(c, h, space, 1.0, 8, rng=rng)
        with pytest.raises(DegenerateHamiltonianError, match="^non-degenerate gaps: "):
            theorem4_check(c, h, space, 0.2, 1.0, 8, rng=rng)

    def test_equal_levels_rejected_by_one_check(self, monkeypatch):
        # default_t_max, thm3's verifier and the diagonal counterexample (through
        # default_t_max) refuse equal levels with one message.
        h = SpectralHamiltonian(np.array([0.0, 0.5, 0.5, 1.0]), None)
        space = BipartiteSpace(2, 2)
        monkeypatch.setattr(verifiers, "diagonal_product_hamiltonian", lambda space, rng: h)
        calls = [
            lambda: default_t_max(h),
            lambda: theorem3_sweep_check(np.zeros((2, 2, 2)), h, Subspace.full(4), space),
            lambda: diagonal_counterexample(space, np.random.default_rng(0)),
        ]
        for call in calls:
            with pytest.raises(DegenerateHamiltonianError) as caught:
                call()
            assert str(caught.value) == "distinct levels: the minimum level gap at d = 4 is not positive"

    def test_sample_times_stratified(self):
        times = sample_times(10.0, 5, np.random.default_rng(108))
        assert times.shape == (5,)
        for j, t in enumerate(times):
            assert j * 2.0 <= t <= (j + 1) * 2.0

    def test_reduced_states_match_evolve(self, instance):
        space, h, psi = instance
        times = np.array([0.0, 1.7, 9.2])
        c = energy_coefficients(psi, h)
        amps = reduced_states_at_times(c, h, space, times, keep)
        rhos = reduced_states_at_times(c, h, space, times, states_of(space))
        assert amps.shape == (len(times), space.d_S, space.d_B)
        for t, a, rho in zip(times, amps, rhos):
            v = evolve(psi, h, t).reshape(space.d_S, space.d_B)
            assert np.max(np.abs(a - v)) <= 1e-12
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
        # A transposed view, as of the eigenbasis (eigenbasis.T), reduces the same.
        amps = psis if layout == "contiguous" else np.ascontiguousarray(psis.T).T
        assert amps.flags.c_contiguous == (layout == "contiguous" or space.d == 1)
        rhos_s, rhos_b = reduce_to_system(amps, space), reduce_to_bath(amps, space)
        assert rhos_s.shape == (n, d_s, d_s) and rhos_b.shape == (n, d_b, d_b)
        for psi, rho_s, rho_b in zip(psis, rhos_s, rhos_b):
            rho = density_matrix(psi)
            assert np.max(np.abs(rho_s - partial_trace_bath(rho, space))) <= 1e-14
            assert np.max(np.abs(rho_b - partial_trace_system(rho, space))) <= 1e-14


BLOCKS = ["one row", "part of a block", "blocks and a remainder"]


def block_case(blocks, d):
    """The sample count n of a `BLOCKS` case at dimension d."""
    rows = block_rows(d)
    return {"one row": 1, "part of a block": rows // 2, "blocks and a remainder": 2 * rows + 7}[blocks]


class TestReducedStates:
    """The blocked kernel against the unblocked reduction of one torus_state stack."""

    @pytest.mark.parametrize("d_s", [1, 2, 3])
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_matches_unblocked_oracle(self, d_s, blocks):
        rng = np.random.default_rng(120 + d_s)
        space = BipartiteSpace(d_s, 5)
        h = FAMILIES["random"](space, rng)
        c = energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h)
        rows, n = block_rows(space.d), block_case(blocks, space.d)
        alpha = rng.uniform(0.0, 2 * np.pi, size=(n, space.d))
        kept = alpha.copy()
        calls = []

        def phases(start, stop, out):
            calls.append((start, stop))
            np.multiply(alpha[start:stop], 0.5, out=out)

        blocked = reduced_states(c, h, space, phases, n, keep)
        rhos_s = reduced_states(c, h, space, phases, n, states_of(space))
        rhos_b = reduced_states(c, h, space, phases, n, states_of(space, bath=True))
        assert np.array_equal(alpha, kept)
        amps = torus_state(c, h, alpha)
        assert blocked.shape == (n, d_s, 5)
        assert rhos_s.shape == (n, d_s, d_s) and rhos_b.shape == (n, 5, 5)
        assert np.max(np.abs(blocked.reshape(n, -1) - amps)) <= 1e-14
        assert np.max(np.abs(rhos_s - reduce_to_system(amps, space))) <= 1e-14
        assert np.max(np.abs(rhos_b - reduce_to_bath(amps, space))) <= 1e-14
        bounds = list(range(0, n, rows)) + [n]
        assert calls == 3 * list(zip(bounds[:-1], bounds[1:]))

    @pytest.mark.parametrize("d_s", [1, 2, 3])
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_stacked_coefficients_equal_per_vector_calls(self, d_s, blocks):
        rng = np.random.default_rng(150 + d_s)
        space = BipartiteSpace(d_s, 5)
        h = FAMILIES["random"](space, rng)
        cs = np.array([
            energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h) for _ in range(3)
        ])
        n = block_case(blocks, space.d)
        alpha = rng.uniform(-1e5, 1e5, size=(n, space.d))

        def phases(start, stop, out):
            np.multiply(alpha[start:stop], 0.5, out=out)

        for bath, side in ((False, d_s), (True, 5)):
            stacked = reduced_states(cs, h, space, phases, n, states_of(space, bath))
            assert stacked.shape == (3, n, side, side)
            singles = [reduced_states(c, h, space, phases, n, states_of(space, bath)) for c in cs]
            assert np.array_equal(stacked, np.array(singles))

    @pytest.mark.parametrize("d_s", [1, 2, 3])
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_diagonal_equals_the_dense_identity(self, d_s, blocks):
        # A Hamiltonian diagonal in the product basis stores no eigenbasis: the
        # kernel takes the scaled phase factors as the amplitudes, and the
        # coefficients are ψ₀. Both are bit-equal to the stored identity; the
        # marginals sum |c|² in another order, which moves them by rounding.
        rng = np.random.default_rng(170 + d_s)
        space = BipartiteSpace(d_s, 5)
        h = FAMILIES["diagonal"](space, rng)
        h_dense = with_dense_basis(h)
        psis = [haar_random_state(Subspace.full(space.d), rng) for _ in range(3)]
        cs = np.array([energy_coefficients(psi, h) for psi in psis])
        assert np.array_equal(cs, [energy_coefficients(psi, h_dense) for psi in psis])
        n = block_case(blocks, space.d)
        alpha = rng.uniform(-1e5, 1e5, size=(n, space.d))

        def phases(start, stop, out):
            np.multiply(alpha[start:stop], 0.5, out=out)

        for c in (cs[0], cs):
            for reducer in (keep, states_of(space), states_of(space, bath=True)):
                got = reduced_states(c, h, space, phases, n, reducer)
                assert np.array_equal(got, reduced_states(c, h_dense, space, phases, n, reducer))
        for c in cs:
            for marginal in (dephased_system, dephased_bath):
                assert np.max(np.abs(marginal(c, h, space) - marginal(c, h_dense, space))) <= 1e-15

    def test_diagonal_build_and_trajectory_hold_no_basis(self):
        # d = 256. The build stores no d × d eigenbasis (1 MiB of complex128)
        # and runs no gap check: its peak, 6 984 B, holds the energy draw and
        # its sorted copy. With the gap check it was 855 039 B, and with the
        # stored I 1 903 791 B.
        # The trajectory's arena holds the factors and the three float planes,
        # 5 × 64 × 256 × 8 = 655 360 B; with the amplitude plane of a stored
        # basis it would be 917 504 B, above the bound below. The rest is the
        # (n,) populations and numpy's iterator buffer (~132 kB). The peak
        # reads 798 628 B, and 1 060 772 B with the stored I.
        space, n = BipartiteSpace(2, 128), 500
        rng = np.random.default_rng(175)
        psi = haar_random_state(Subspace.full(space.d), rng)
        tracemalloc.start()
        try:
            h = diagonal_product_hamiltonian(space, rng=rng)
            build_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        c = energy_coefficients(psi, h)
        times = sample_times(default_t_max(h), n, rng)
        tracemalloc.start()
        try:
            pops = reduced_states_at_times(
                c, h, space, times, lambda a: np.vecdot(a[:, 0], a[:, 0]).real
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = block_rows(space.d)
        arena = rows * space.d * (3 * 8 + 16)
        assert h.eigenbasis is None
        assert build_peak <= 16 * 8 * space.d, build_peak
        assert (arena, pops.nbytes) == (655_360, 4000)
        bound = arena + pops.nbytes + (160 << 10)
        assert bound < arena + 16 * rows * space.d
        assert peak <= bound, peak

    @pytest.mark.parametrize(
        "shape", [(4,), (2, 3, 10), (0, 16)], ids=["short", "three axes", "empty stack"]
    )
    def test_coefficient_shape_checked(self, instance, shape):
        space, h, _ = instance
        with pytest.raises(DimensionMismatchError):
            reduced_states_at_times(np.ones(shape), h, space, np.zeros(3), keep)

    @pytest.mark.parametrize("d_s", [2, 4])
    def test_memory_is_one_block(self, dft_1024, d_s):
        # One 64-row block's arena (three float and two complex planes of
        # 64 × 1024, 3 670 016 B) and the (n,) distances (16 000 B), against
        # 31 MiB for the n × d amplitude stack alone. At d_S = 2 no state is
        # formed; at d_S = 4 `distances_to` holds one chunk of 1024 states of
        # 4 × 4 (256 KiB), of which each block fills 64. The rest is numpy's
        # iterator buffer for one broadcast ufunc call at a time (8192
        # elements, ~132 kB).
        h = dft_1024
        space = BipartiteSpace(d_s, h.dim // d_s)
        rng = np.random.default_rng(151)
        c = energy_coefficients(haar_random_state(Subspace.full(h.dim), rng), h)
        omega_s = dephased_system(c, h, space)
        times = sample_times(default_t_max(h), 2000, rng)
        arena = block_rows(h.dim) * h.dim * (3 * 8 + 2 * 16)
        chunk = 0 if d_s == 2 else 1024 * 16 * 16
        tracemalloc.start()
        try:
            distances = reduced_states_at_times(c, h, space, times, distances_to(omega_s, space))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (arena, distances.nbytes) == (3_670_016, 16_000)
        assert peak <= arena + chunk + distances.nbytes + (160 << 10), peak

    @pytest.mark.parametrize("m, n", [(1, 2000), (4, 500)], ids=["thm4", "counterexample"])
    def test_memory_is_one_arena_and_the_output(self, m, n):
        # d = 64, as in thm4 at d_B = 32, with four vectors and 500 times as in
        # the counterexamples: 256-row blocks. The arena holds two complex
        # planes (factors, amplitudes) and three float ones, in which each
        # vector is scaled: 917 504 B for one vector or four. (The diagonal
        # counterexample's Hamiltonian stores no basis, so its arena has no
        # amplitude plane: test_diagonal_build_and_trajectory_hold_no_basis.)
        # The populations are read from the
        # amplitude blocks, so no state is formed; the (m, n) populations are
        # 16 000 B. The rest is numpy's iterator buffer for one broadcast
        # ufunc call at a time (8192 elements, ~132 kB).
        rng = np.random.default_rng(160 + m)
        space = BipartiteSpace(2, 32)
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        cs = np.array([
            energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h) for _ in range(m)
        ])
        times = sample_times(default_t_max(h), n, rng)
        rows = block_rows(space.d)
        arena = rows * space.d * (3 * 8 + 2 * 16)
        tracemalloc.start()
        try:
            pops = reduced_states_at_times(
                cs[0] if m == 1 else cs, h, space, times, lambda a: np.vecdot(a[:, 0], a[:, 0]).real
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (rows, arena, pops.nbytes) == (256, 917_504, 16_000)
        assert peak <= arena + pops.nbytes + (160 << 10), peak

    def test_bath_purity_memory_is_one_arena_and_the_output(self):
        # theorem1_check's bath trajectory at (2, 256), d = 512: 200 rows in
        # 64-row blocks, whose arena holds 7 × 64 × 512 float64 (1 835 008 B).
        # `marginal_purities` reads each block's 64 ρ_S of 2 × 2, never the
        # 256 × 256 ρ_B, of which a chunk of one state took 1 MiB more. The
        # (200,) purities are 1600 B, and each block's are copied into them;
        # the rest is numpy's iterator buffer (~132 kB). The peak reads
        # 1 976 016 B, and read 3 024 360 B with the ρ_B chunk.
        rng = np.random.default_rng(165)
        space, n = BipartiteSpace(2, 256), verifiers.BATH_SAMPLES
        energies = np.sort(rng.uniform(0.0, 1.0, space.d))
        h = SpectralHamiltonian(energies, haar_random_unitary(space.d, rng))
        c = energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h)
        phases = time_phases(sample_times(default_t_max(h), n, rng), h)
        arena = block_rows(space.d) * space.d * (3 * 8 + 2 * 16)
        tracemalloc.start()
        try:
            purities = reduced_states(c, h, space, phases, n, lambda a: marginal_purities(a, space))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (arena, purities.nbytes) == (1_835_008, 1600)
        bound = arena + 2 * purities.nbytes + (160 << 10)
        assert bound < arena + 16 * space.d_B**2
        assert peak <= bound, peak

    def test_system_heavy_trajectory_memory(self):
        # (d_S, d_B) = (64, 4): chunks of four 64 × 64 states and their trace
        # distances, against 131 MB for the (2000, 64, 64) stack and ~500 MB
        # with the temporaries of its distances.
        rng = np.random.default_rng(166)
        space = BipartiteSpace(64, 4)
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        c = energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h)
        omega_s = dephased_system(c, h, space)
        tracemalloc.start()
        try:
            distances = time_distances(c, h, space, omega_s, default_t_max(h), 2000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert distances.shape == (2000,) and np.all((0 <= distances) & (distances <= 1))
        assert peak < 3 << 20, peak

    @pytest.mark.parametrize("coefficients", ["vector", "stack"])
    def test_values_do_not_depend_on_the_chunks(self, monkeypatch, coefficients):
        # `distances_to` at (3, 24), d = 72: ρ_S chunks hold 1820 rows. In one
        # block of n = 2 chunks + 7 rows, which spans three chunks, each chunk
        # reaches `trace_distance` once, and a one-chunk run of the same block
        # must give the same bits.
        rng = np.random.default_rng(167)
        space = BipartiteSpace(3, 24)
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        cs = np.array([
            energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h) for _ in range(3)
        ])
        c = cs[0] if coefficients == "vector" else cs
        side = space.d_S
        chunk = dynamics.BLOCK_AMPLITUDES // side**2
        assert chunk == 1820
        n = 2 * chunk + 7
        phases = time_phases(sample_times(default_t_max(h), n, rng), h)
        omega_s = dephased_system(cs[0], h, space)
        calls = []

        def counting(rhos, omega):
            calls.append(len(rhos))
            return trace_distance(rhos, omega)

        monkeypatch.setattr(dynamics, "trace_distance", counting)
        monkeypatch.setattr(dynamics, "block_rows", lambda d: n)
        chunked = reduced_states(c, h, space, phases, n, distances_to(omega_s, space))
        m = len(c) if c.ndim == 2 else 1
        assert calls == [chunk, chunk, 7] * m
        monkeypatch.setattr(dynamics, "BLOCK_AMPLITUDES", n * side**2)
        one_chunk = reduced_states(c, h, space, phases, n, distances_to(omega_s, space))
        assert calls[3 * m :] == [n] * m
        assert chunked.shape == one_chunk.shape == (*c.shape[:-1], n)
        assert np.array_equal(chunked, one_chunk)

    def test_small_states_reach_the_function_once_per_block(self, monkeypatch):
        # 3 × 3 states fit chunks of 1820 rows, so each block of a 2000-row
        # trajectory at (3, 8), 682 rows, reaches `trace_distance` in one call.
        space, h, psi = make_instance(3)
        c = energy_coefficients(psi, h)
        calls = []

        def recording(rhos, omega):
            calls.append(len(rhos))
            return trace_distance(rhos, omega)

        monkeypatch.setattr(dynamics, "trace_distance", recording)
        times = sample_times(default_t_max(h), 2000, np.random.default_rng(168))
        reducer = distances_to(dephased_system(c, h, space), space)
        reduced_states_at_times(c, h, space, times, reducer)
        assert calls == [682, 682, 636]

    def test_rejects_no_rows(self, instance):
        space, h, psi = instance
        with pytest.raises(ValueError):
            reduced_states_at_times(energy_coefficients(psi, h), h, space, np.zeros(0), keep)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("t_scale", [1.0, 1e6], ids=["below 2^16", "above 2^16"])
    def test_time_half_angles_equal_the_halved_phases(self, seed, t_scale):
        # −E t_j/2 from the halved energies equals the (−E t_j)·0.5 it
        # replaced, bit for bit, on both sides of numpy's 2¹⁶ step in tan.
        rng = np.random.default_rng(170 + seed)
        space = BipartiteSpace(2, 32)
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        times = sample_times(t_scale * 2**16, 300, rng)
        expected = np.multiply.outer(times, -h.energies) * 0.5
        out = np.empty_like(expected)
        time_phases(times, h)(0, len(times), out)
        assert np.array_equal(out, expected)
        above = np.mean(np.abs(expected) >= 2**16)
        assert above == 0.0 if t_scale == 1.0 else above > 0.9

    @pytest.mark.parametrize("blocks", [[300], [64, 64, 64, 64, 44], [1, 99, 200]])
    def test_torus_half_angles_equal_one_halved_uniform_draw(self, blocks):
        # Block by block, π·U[0, 1) gives the rows of one uniform(0, 2π)
        # draw halved, bit for bit, and leaves the rng where that draw does.
        n, d = sum(blocks), 16
        reference, rng = np.random.default_rng(175), np.random.default_rng(175)
        expected = reference.uniform(0, 2 * np.pi, (n, d)) * 0.5
        out, phases, start = np.empty((n, d)), torus_phases(rng), 0
        for k in blocks:
            phases(start, start + k, out[start : start + k])
            start += k
        assert np.array_equal(out, expected)
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("state", ["eigenstate", "random"])
    def test_system_and_bath_share_their_spectrum(self, instance, state):
        # The global state is pure, so ρ_S(t) and ρ_B(t) have the same nonzero
        # eigenvalues: the d_S largest of ρ_B(t) are those of ρ_S(t), and the
        # rest vanish. This holds the rank of ρ_B(t) to at most d_S.
        space, h, psi = instance
        c = energy_coefficients(h.eigenbasis[:, 3] if state == "eigenstate" else psi, h)
        times = sample_times(default_t_max(h), 50, np.random.default_rng(109))
        phases = time_phases(times, h)
        spec_s = reduced_states(
            c, h, space, phases, len(times), lambda a: np.linalg.eigvalsh(system_states(space)(a))
        )
        spec_b = reduced_states(
            c, h, space, phases, len(times), lambda a: np.linalg.eigvalsh(reduce_to_bath(a, space))
        )
        assert np.max(np.abs(spec_b[:, -space.d_S:] - spec_s)) <= 1e-12
        assert np.max(np.abs(spec_b[:, :-space.d_S])) <= 1e-12

    def test_block_rows(self):
        assert block_rows(2) == 8192
        assert block_rows(16) == 1024
        assert block_rows(64) == 256
        assert block_rows(256) == block_rows(1024) == 64


class TestAmplitudeReducers:
    """Reducers that read the amplitude blocks, against the states they stand for."""

    @pytest.mark.parametrize("d_b", [1, 3, 8, 32])
    @pytest.mark.parametrize("m", [1, 4])
    @pytest.mark.parametrize("blocks", BLOCKS)
    def test_equal_the_reduced_states_bit_for_bit(self, d_b, m, blocks):
        # The d_S = 2 distance and the populations of every block, from the
        # amplitudes, against the closed form of the same blocks' ρ_S − ω_S
        # (off-diagonal (Δ₀₁ + Δ₁₀*)/2) and their diagonals.
        rng = np.random.default_rng(180 + 10 * d_b + m)
        space = BipartiteSpace(2, d_b)
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        cs = np.array([
            energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h) for _ in range(m)
        ])
        c, n = cs[0] if m == 1 else cs, block_case(blocks, space.d)
        phases = time_phases(sample_times(default_t_max(h), n, rng), h)
        omega_s = dephased_system(cs[0], h, space)
        amps = reduced_states(c, h, space, phases, n, keep)
        rhos = reduce_to_system(amps.reshape(-1, space.d), space)
        distances = reduced_states(c, h, space, phases, n, distances_to(omega_s, space))
        pops = reduced_states(c, h, space, phases, n, lambda a: np.vecdot(a, a).real)
        assert distances.shape == (*c.shape[:-1], n) and pops.shape == (*c.shape[:-1], n, 2)
        diff = rhos - omega_s
        off = (diff[:, 0, 1] + diff[:, 1, 0].conj()) / 2
        oracle = _qubit_trace_distance(diff[:, 0, 0].real, diff[:, 1, 1].real, off)
        assert np.array_equal(distances.reshape(-1), oracle)
        assert np.array_equal(pops.reshape(-1, 2), np.diagonal(rhos, 0, 1, 2).real)

    @pytest.mark.parametrize("shape", [(2, 32), (64, 4), (8, 8)], ids=shape_id)
    def test_marginal_purities_equal_both_marginals(self, shape):
        # tr ρ_S² = tr ρ_B² = tr (A A†)² for any d_S × d_B amplitude matrix A,
        # normalised or not, so the smaller side gives either marginal's purity
        # to rounding, and a row fails a check on it exactly when it did on ρ_B.
        space, k = BipartiteSpace(*shape), 50
        rng = np.random.default_rng(190 + sum(shape))
        amps = rng.standard_normal((k, *shape)) + 1j * rng.standard_normal((k, *shape))
        amps *= rng.uniform(0.1, 10.0, (k, 1, 1))
        got = marginal_purities(amps, space)
        assert got.shape == (k,)
        for reduce in (reduce_to_system, reduce_to_bath):
            reference = purity(reduce(amps, space))
            assert np.max(np.abs(got - reference) / reference) <= 1e-13

    @pytest.mark.parametrize("d_s", [2, 3])
    def test_nonfinite_entries_raise(self, d_s):
        # A non-finite ω_S, or a non-finite block: in the closed form at
        # d_S = 2, in `trace_distance`'s check of ρ_S otherwise.
        space, h, psi = make_instance(d_s)
        c = energy_coefficients(psi, h)
        omega_s = dephased_system(c, h, space)
        rng = np.random.default_rng(185)
        with pytest.raises(ValueError, match="non-finite"):
            time_distances(c, h, space, np.where(np.eye(d_s), np.nan, omega_s), 10.0, 8, rng)
        c[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            time_distances(c, h, space, omega_s, 10.0, 8, rng)

    @pytest.mark.parametrize("d_s", [2, 3])
    def test_reference_of_the_wrong_shape_raises(self, d_s):
        space, h, psi = make_instance(d_s)
        c = energy_coefficients(psi, h)
        rng = np.random.default_rng(189)
        for omega in (np.eye(5 - d_s) / (5 - d_s), np.eye(d_s * d_s) / d_s**2, np.ones(d_s)):
            with pytest.raises(DimensionMismatchError):
                time_distances(c, h, space, omega, 10.0, 8, rng)

    @pytest.mark.parametrize("d_s", [2, 3])
    def test_non_hermitian_reference_raises_and_is_checked_once(self, monkeypatch, d_s):
        space, h, psi = make_instance(d_s)
        c = energy_coefficients(psi, h)
        rng = np.random.default_rng(186)
        skew = np.eye(d_s, dtype=np.complex128) / d_s
        skew[0, 1] = 0.1
        with pytest.raises(NotHermitianError):
            time_distances(c, h, space, skew, 10.0, 8, rng)
        checks = []
        is_hermitian = dynamics.is_hermitian

        def counting(a):
            checks.append(a.shape)
            return is_hermitian(a)

        monkeypatch.setattr(dynamics, "is_hermitian", counting)
        n = 2 * block_rows(space.d) + 7
        distances = time_distances(c, h, space, dephased_system(c, h, space), 10.0, n, rng)
        assert distances.shape == (n,) and checks == [(d_s, d_s)]

    def test_thm4_trajectories_reach_the_distances_once_per_block(self, monkeypatch):
        # theorem4_check at (2, 32), as in thm4: three 2000-row trajectories
        # of 256-row blocks each reach the amplitude distances once per
        # block, with the whole block, and never per chunk or per row.
        rng = np.random.default_rng(187)
        space = BipartiteSpace(2, 32)
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        c = energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h)
        rows = []

        def recording(omega, space):
            distances = distances_to(omega, space)

            def recorded(a):
                rows.append(len(a))
                return distances(a)

            return recorded

        monkeypatch.setattr(verifiers, "distances_to", recording)
        theorem4_check(c, h, space, 0.2, n_samples=2000, rng=rng)
        assert rows == ([256] * 7 + [208]) * 3


def test_default_t_max(instance):
    _, h, _ = instance
    assert default_t_max(h) == 1e3 / h.min_level_gap()
