"""Theorem checks, identities and counterexample demonstrations."""

from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from eqlab import dynamics, verifiers
from eqlab.bipartite import BipartiteSpace
from eqlab.dynamics import (
    block_rows,
    default_t_max,
    dephased_bath,
    dephased_system,
    energy_coefficients,
    reduce_to_bath,
    reduce_to_system,
    reduced_states_at_times,
    sample_times,
)
from eqlab.errors import DimensionMismatchError
from eqlab.hamiltonians import (
    SpectralHamiltonian,
    diagonal_product_hamiltonian,
    random_spectral_hamiltonian,
)
from eqlab.linalg import haar_random_unitary
from eqlab.states import (
    Subspace,
    effective_dimension,
    haar_random_state,
    product_state,
    purity,
    trace_distance,
)
from eqlab.verifiers import (
    BASIS_DISTANCE_ALLOWANCE,
    BATH_SAMPLES,
    CONSTANTS,
    IMBALANCE_ALLOWANCE,
    POPULATION_DRIFT_ALLOWANCE,
    BoundCheck,
    counterexample_checks,
    d_eff_of_time_average,
    delta_quantity,
    diagonal_counterexample,
    eigenstate_purities,
    haar_pair_moment_check,
    spin_bath_counterexample,
    swap_trace_identity_check,
    theorem1_check,
    theorem2_check,
    theorem2_sweep_check,
    theorem3_sweep_check,
    theorem4_check,
    torus_distances,
    _ks_statistic,
)
from oracles import (
    SHAPES,
    DenseSubspace,
    random_subspace,
    shape_id,
    system_states,
    torus_state,
    with_dense_basis,
)


def thm2_sweep(subspace, h, trials, rng):
    """d_eff(ω) of `trials` Haar states of the subspace, and
    theorem2_sweep_check over them."""
    samples = []
    for _ in range(trials):
        c = energy_coefficients(haar_random_state(subspace, rng), h)
        samples.append(theorem2_check(c, subspace.d_R)["d_eff_omega"].empirical)
    return np.array(samples), theorem2_sweep_check(samples, subspace.d_R)


def thm3_sweep(subspace, h, space, trials, rng):
    """theorem3_sweep_check over ω_S of `trials` Haar states of the subspace."""
    cs = [energy_coefficients(haar_random_state(subspace, rng), h) for _ in range(trials)]
    omegas = np.array([dephased_system(c, h, space) for c in cs])
    return theorem3_sweep_check(omegas, h, subspace, space)


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(200)
    space = BipartiteSpace(2, 16)
    h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
    psi = haar_random_state(Subspace.full(space.d), rng)
    return space, h, psi


class TestConstants:
    def test_closed_forms(self):
        assert abs(CONSTANTS.c - math.log(2) ** 2 / (72 * math.pi**3)) <= 1e-15 * CONSTANTS.c
        assert abs(CONSTANTS.c_prime - 2 / (9 * math.pi**3)) <= 1e-15 * CONSTANTS.c_prime
        assert (
            abs(CONSTANTS.c_double_prime - 1 / (128 * math.pi**2))
            <= 1e-15 * CONSTANTS.c_double_prime
        )

    def test_order_of_magnitude(self):
        assert 1e-4 <= CONSTANTS.c <= 1e-3


class TestBoundCheck:
    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    def test_invariant(self, empirical, bound):
        chk = BoundCheck.upper(empirical, bound)
        assert chk.satisfied == (chk.margin >= 0)
        assert chk.margin == chk.bound - chk.empirical

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    )
    def test_at_least_invariant(self, quantity, lower_bound, allowance):
        chk = BoundCheck.at_least(quantity, lower_bound, allowance)
        assert chk.satisfied == (chk.margin >= 0)
        assert chk.empirical == quantity and chk.bound == lower_bound
        assert chk.margin == quantity + allowance - lower_bound

    def test_at_least_matches_swapped_lower(self):
        # The margin of a mean checked with an allowance is bit-equal to the
        # swapped-role check of mean + allowance.
        mean, se, bound = 31.123456789, 0.4567891234, 32.0
        chk = BoundCheck.at_least(mean, bound, 3 * se)
        swapped = BoundCheck.lower(mean + 3 * se, bound)
        assert (chk.margin, chk.satisfied) == (swapped.margin, swapped.satisfied)
        assert not BoundCheck.at_least(2.0, 3.0).satisfied
        assert BoundCheck.at_least(3.0, 3.0).satisfied

    def test_diagnostic(self):
        chk = BoundCheck.diagnostic(5.0, 1.0, trials=3)
        assert (chk.empirical, chk.bound, chk.satisfied) == (5.0, 1.0, True)
        assert chk.margin == math.inf
        assert chk.metadata == {"diagnostic": True, "trials": 3}

    def test_lower_orientation(self):
        chk = BoundCheck.lower(5.0, 3.0)
        assert chk.satisfied
        assert chk.metadata["orientation"] == "lower"
        assert not BoundCheck.lower(2.0, 3.0).satisfied


class TestTheorem1:
    def test_eigenstate_trivial(self, instance):
        space, h, _ = instance
        c = energy_coefficients(h.eigenbasis[:, 0], h)
        res = theorem1_check(c, h, space, n_samples=64, rng=np.random.default_rng(201))
        assert res["mean_distance_bath_bound"].empirical <= 1e-10
        assert res["mean_distance_bath_bound"].satisfied
        assert res["mean_distance_total_bound"].satisfied

    def test_random_state(self, instance):
        space, h, psi = instance
        c = energy_coefficients(psi, h)
        res = theorem1_check(c, h, space, n_samples=2000, rng=np.random.default_rng(202))
        assert list(res) == [
            "mean_distance_bath_bound",
            "mean_distance_total_bound",
            "renyi_subadditivity",
            "bath_deff_max",
            "exceed_fraction_K2",
            "exceed_fraction_K5",
            "exceed_fraction_K10",
        ]
        bath, total = res["mean_distance_bath_bound"], res["mean_distance_total_bound"]
        assert bath.satisfied and total.satisfied
        # The bath bound is tighter than (or equal to) the total bound.
        assert bath.bound <= total.bound + 1e-12
        assert all(chk.satisfied for chk in res.values())
        bath_deff = res["bath_deff_max"]
        assert bath_deff.bound == space.d_S + 1e-6 and bath_deff.metadata["allowance"] == 1e-6

    def test_thresholds_sorted(self, instance):
        space, h, psi = instance
        c = energy_coefficients(psi, h)
        res = theorem1_check(c, h, space, n_samples=64, thresholds=(10.0, 2.5, 4.0),
                             rng=np.random.default_rng(203))
        exceed = [name for name in res if name.startswith("exceed_fraction_K")]
        assert exceed == ["exceed_fraction_K2.5", "exceed_fraction_K4", "exceed_fraction_K10"]
        assert res["exceed_fraction_K2.5"].metadata["threshold"] == 2.5

    def test_draws_n_samples_then_bath_times(self, instance):
        space, h, psi = instance
        rng, ref = np.random.default_rng(205), np.random.default_rng(205)
        theorem1_check(energy_coefficients(psi, h), h, space, n_samples=300, rng=rng)
        ref.random(300 + BATH_SAMPLES)
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("shape, reductions", [((2, 8), 0), ((8, 2), 1)], ids=["2x8", "8x2"])
    def test_bath_deff_reads_the_smaller_marginal(self, monkeypatch, shape, reductions):
        # d_eff(ρ_B(t)) = 1/tr ρ_S(t)², so at d_S ≤ d_B no ρ_B(t) is formed;
        # at (8, 2) the 200 bath times are one block, reduced to ρ_B once. The
        # row equals the largest d_eff of the ρ_B(t) themselves to rounding.
        space = BipartiteSpace(*shape)
        rng = np.random.default_rng(207 + shape[0])
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        c = energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h)
        to_bath, calls = dynamics.reduce_to_bath, []

        def counting(amps, space):
            calls.append(len(amps))
            return to_bath(amps, space)

        monkeypatch.setattr(dynamics, "reduce_to_bath", counting)
        row = theorem1_check(c, h, space, n_samples=64, rng=np.random.default_rng(208))
        assert calls == [BATH_SAMPLES] * reductions
        ref = np.random.default_rng(208)
        t_max = default_t_max(h)
        sample_times(t_max, 64, ref)
        bath_times = sample_times(t_max, BATH_SAMPLES, ref)
        rhos_b = reduced_states_at_times(c, h, space, bath_times, lambda a: to_bath(a, space))
        reference = np.max(effective_dimension(rhos_b))
        assert abs(row["bath_deff_max"].empirical - reference) <= 1e-13 * reference

    def test_both_trajectories_are_sampled_at_times(self, instance, monkeypatch):
        # The mean's times and the bath's times both go through the one
        # time-sampled entry point, the torus phase source through neither.
        space, h, psi = instance
        lengths = []
        at_times = verifiers.reduced_states_at_times

        def recording(c, h, space, times, reducer):
            lengths.append(len(times))
            return at_times(c, h, space, times, reducer)

        monkeypatch.setattr(verifiers, "reduced_states_at_times", recording)
        monkeypatch.setattr(verifiers, "reduced_states", None)
        theorem1_check(energy_coefficients(psi, h), h, space, n_samples=300,
                       rng=np.random.default_rng(206))
        assert lengths == [300, BATH_SAMPLES]


class TestTheorem2:
    def test_one_dimensional_eigenstate_subspace(self, instance):
        # With d_R = 1 spanned by an energy eigenstate, every trial dephases
        # to that eigenstate: d_eff = 1 >= d_R / 2 always.
        space, h, _ = instance
        rng = np.random.default_rng(203)
        samples, checks = thm2_sweep(DenseSubspace(h.eigenbasis[:, :1]), h, 40, rng)
        assert np.allclose(samples, 1.0, atol=1e-10)
        assert checks["mean_d_eff"].satisfied

    def test_full_space(self, instance):
        space, h, _ = instance
        _, checks = thm2_sweep(Subspace.full(space.d), h, 60, np.random.default_rng(204))
        assert list(checks) == ["mean_d_eff", "tail_frequency"]
        tail = checks["tail_frequency"]
        assert checks["mean_d_eff"].satisfied
        assert tail.empirical == 0.0
        assert tail.metadata["vacuous"] == (tail.bound > 1)

    def test_reproducible(self, instance):
        space, h, _ = instance
        a = thm2_sweep(Subspace.full(space.d), h, 30, np.random.default_rng(205))
        b = thm2_sweep(Subspace.full(space.d), h, 30, np.random.default_rng(205))
        assert np.array_equal(a[0], b[0])
        assert a[1]["mean_d_eff"].empirical == b[1]["mean_d_eff"].empirical

    def test_tail_edge(self):
        # d_eff_omega fails exactly on the tail event d_eff < d_R/4 that
        # tail_frequency counts.
        c = np.full(16, 0.25)  # d_eff(ω) = 16
        assert theorem2_check(c, 64)["d_eff_omega"].satisfied
        assert not theorem2_check(c, 65)["d_eff_omega"].satisfied
        checks = theorem2_sweep_check([16.0, 15.0, 17.0, 16.0], 64)
        assert checks["tail_frequency"].empirical == 0.25

    def test_mean_metadata(self):
        samples = np.array([30.0, 31.0, 33.0, 34.0])
        mean = theorem2_sweep_check(samples, 64)["mean_d_eff"]
        se = np.std(samples, ddof=1) / 2
        assert (mean.empirical, mean.bound) == (32.0, 32.0)
        assert mean.metadata == {"std_error": se, "trials": 4}
        assert mean.margin == 32.0 + 3 * se - 32.0


class TestDelta:
    def test_product_eigenbasis(self):
        rng = np.random.default_rng(206)
        space = BipartiteSpace(2, 8)
        h = diagonal_product_hamiltonian(space, (0.0, 1.0), rng=rng)
        sub = Subspace.full(space.d)
        assert abs(delta_quantity(h, sub, space) - 1.0) <= 1e-10

    def test_range_for_random_hamiltonian(self, instance):
        space, h, _ = instance
        delta = delta_quantity(h, Subspace.full(space.d), space)
        assert 1 / space.d_S <= delta <= 1.0

    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_eigenstate_purities_match_reduced_stack(self, monkeypatch, shape):
        # The purities of the whole (d, d_S, d_S) stack, read from the smaller
        # side in blocks; block_rows(d) > d here, so patch it to 3 to
        # cover several blocks and a remainder.
        space = BipartiteSpace(*shape)
        u = haar_random_unitary(space.d, np.random.default_rng(220 + sum(shape)))
        h = SpectralHamiltonian(np.arange(space.d, dtype=np.float64), u)
        reference = purity(reduce_to_system(u.T, space))
        assert np.max(np.abs(eigenstate_purities(h, space) - reference)) <= 1e-14
        monkeypatch.setattr(verifiers, "block_rows", lambda d: 3)
        assert np.max(np.abs(eigenstate_purities(h, space) - reference)) <= 1e-14

    @pytest.mark.parametrize("shape", [(8, 4), (16, 8), (32, 16), (64, 16), (3, 2)], ids=shape_id)
    def test_bath_purities_do_not_depend_on_the_block_layout(self, shape):
        # d_B < d_S, so the purities come from ρ_B. Each block is copied
        # contiguous for speed alone: the strided view of the eigenbasis gives
        # bit-equal purities.
        space = BipartiteSpace(*shape)
        u = haar_random_unitary(space.d, np.random.default_rng(240 + sum(shape)))
        h = SpectralHamiltonian.trusted(np.arange(space.d, dtype=np.float64), u)
        rows = block_rows(space.d)
        strided = [purity(reduce_to_bath(u.T[s : s + rows], space)) for s in range(0, space.d, rows)]
        assert np.array_equal(eigenstate_purities(h, space), np.concatenate(strided))

    @pytest.mark.parametrize("kind", ["full", "fixed_system", "fixed_bath"])
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_diagonal_equals_the_dense_identity(self, kind, shape):
        # Product-basis eigenstates have purity 1; δ reads columns of I.
        space = BipartiteSpace(*shape)
        rng = np.random.default_rng(250 + sum(shape))
        h = SpectralHamiltonian(np.linspace(0.0, 1.0, space.d), None)
        sub = random_subspace(kind, space, rng)
        assert np.array_equal(eigenstate_purities(h, space), np.ones(space.d))
        assert delta_quantity(h, sub, space) == delta_quantity(with_dense_basis(h), sub, space)

    @pytest.mark.parametrize("kind", ["full", "fixed_system", "fixed_bath"])
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_matches_dense_subspace(self, kind, shape):
        space = BipartiteSpace(*shape)
        rng = np.random.default_rng(230 + sum(shape))
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        sub = random_subspace(kind, space, rng)
        dense_sub = DenseSubspace.of(sub, space)
        weights = dense_sub.projector_diagonal(h.eigenbasis)
        purities = purity(reduce_to_system(h.eigenbasis.T, space))
        reference = np.sum(weights * purities) / dense_sub.d_R
        assert abs(delta_quantity(h, sub, space) - reference) <= 1e-14
        assert delta_quantity(h, dense_sub, space) == pytest.approx(reference, rel=1e-14)

    @pytest.mark.parametrize("shape", [(32, 32), (64, 16)], ids=shape_id)
    def test_eigenstate_purities_memory(self, dft_1024, shape):
        # At d = 1024 the (d, d_S, d_S) stack of reduced eigenstates is 16 MiB
        # at (32, 32) and 64 MiB at (64, 16). The blocks hold 64 reduced
        # states of the smaller side at a time (64 ρ_S at (64, 16) are 4 MiB).
        h, space = dft_1024, BipartiteSpace(*shape)
        tracemalloc.start()
        try:
            purities = eigenstate_purities(h, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert purities.shape == (1024,)
        assert peak < 3 << 20, peak

    @pytest.mark.parametrize("kind", ["full", "fixed_system", "fixed_bath"])
    @pytest.mark.parametrize("shape", [(3, 64), (5, 64), (64, 3), (2, 96), (4, 37)], ids=shape_id)
    def test_weights_in_blocks_equal_one_call(self, kind, shape):
        # d = 192 in blocks of 85, 85 and 22, d = 320 in five blocks of 64,
        # and d = 148 in blocks of 110 and 38: δ equals the unblocked formula
        # bit for bit.
        space = BipartiteSpace(*shape)
        rng = np.random.default_rng(235 + sum(shape))
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        sub = random_subspace(kind, space, rng)
        weights = sub.projector_diagonal(h.eigenbasis)
        reference = np.sum(weights * eigenstate_purities(h, space)) / sub.d_R
        assert delta_quantity(h, sub, space) == reference

    @pytest.mark.parametrize(
        "kind, shape", [("fixed_system", (2, 1024)), ("fixed_bath", (1024, 2))]
    )
    def test_pinned_subspace_memory(self, kind, shape):
        # d = 2048. Taken over all d columns at once, the contraction with the
        # pinned vector is a (1024, 2048) complex array, 32 MiB, and δ peaked
        # at 48 MiB with its |·|² copies. In the block_rows(2048) = 64 columns
        # of one block the contraction holds 1 MiB; the peak, 3.1 and 4.1 MiB,
        # is set by the purities of the block.
        space = BipartiteSpace(*shape)
        k = np.arange(space.d)
        dft = np.exp(2j * np.pi * np.outer(k, k) / space.d) / np.sqrt(space.d)
        h = SpectralHamiltonian(np.linspace(0.0, 1.0, space.d), dft)
        sub = random_subspace(kind, space, np.random.default_rng(240))
        weights = sub.projector_diagonal(h.eigenbasis)
        reference = np.sum(weights * eigenstate_purities(h, space)) / sub.d_R
        tracemalloc.start()
        try:
            delta = delta_quantity(h, sub, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert delta == reference
        assert peak < 5 << 20, peak

    @pytest.mark.parametrize("kind", ["fixed_system", "fixed_bath"])
    @pytest.mark.parametrize("shape", [(2, 8), (3, 43), (2, 1024)], ids=shape_id)
    def test_one_pass_over_the_eigenbasis(self, monkeypatch, kind, shape):
        # p_k and the purities come from the same blocks: U is read once per
        # block of block_rows(d) eigenvectors, in order.
        space = BipartiteSpace(*shape)
        k = np.arange(space.d)
        dft = np.exp(2j * np.pi * np.outer(k, k) / space.d) / np.sqrt(space.d)
        h = SpectralHamiltonian.trusted(np.linspace(0.0, 1.0, space.d), dft)
        sub = random_subspace(kind, space, np.random.default_rng(248))
        starts, read = [], SpectralHamiltonian.eigenvectors

        def counted(self, start, stop):
            starts.append(start)
            return read(self, start, stop)

        monkeypatch.setattr(SpectralHamiltonian, "eigenvectors", counted)
        delta_quantity(h, sub, space)
        assert starts == list(range(0, space.d, block_rows(space.d)))

    @pytest.mark.parametrize("kind", ["fixed_system", "fixed_bath"])
    @pytest.mark.parametrize("shape", [(3, 43), (33, 33), (2, 1000)], ids=shape_id)
    def test_short_last_block_moves_delta_by_rounding(self, kind, shape):
        # d = 129, 1089 and 2000 end in a block of 2, 1 and 16 columns, which
        # may move p_k against one call by rounding (none did where measured).
        # The blocks cap the peak: taken over all d columns at once, the
        # contraction at (2, 1000) peaked at 45.8 MiB.
        space = BipartiteSpace(*shape)
        rng = np.random.default_rng(245 + sum(shape))
        k = np.arange(space.d)
        dft = np.exp(2j * np.pi * np.outer(k, k) / space.d) / np.sqrt(space.d)
        u = np.exp(1j * rng.uniform(0.0, 2 * np.pi, (space.d, 1))) * dft
        h = SpectralHamiltonian.trusted(np.linspace(0.0, 1.0, space.d), u)
        sub = random_subspace(kind, space, rng)
        weights = sub.projector_diagonal(h.eigenbasis)
        reference = np.sum(weights * eigenstate_purities(h, space)) / sub.d_R
        tracemalloc.start()
        try:
            delta = delta_quantity(h, sub, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert delta == pytest.approx(reference, rel=1e-14, abs=0.0)
        assert peak < 5 << 20, peak

    def test_dimension_mismatch(self, instance):
        space, h, _ = instance
        with pytest.raises(DimensionMismatchError):
            delta_quantity(h, Subspace.full(space.d + 1), space)


class TestTheorem3:
    def test_bath_independence_setup(self, instance):
        space, h, _ = instance
        rng = np.random.default_rng(207)
        psi_s = haar_random_state(Subspace.full(space.d_S), rng)
        sub = Subspace.fixed_system(psi_s, space)
        checks, per_state = thm3_sweep(sub, h, space, 60, rng)
        assert list(checks) == ["mean_distance_weak_bound", "mean_distance_delta_bound", "delta"]
        weak, delta = checks["mean_distance_weak_bound"], checks["mean_distance_delta_bound"]
        assert weak.satisfied
        assert delta.satisfied
        assert delta.bound <= weak.bound + 1e-12
        assert weak.metadata["trials"] == 60
        assert len(per_state) == 60
        assert all(chk.metadata["diagnostic"] and chk.bound == weak.bound for chk in per_state)

    def test_subsystem_independence_setup(self, instance):
        # d_R = d_S makes the weak bound 1/2 (uninformative); the delta bound
        # is the meaningful one.
        space, h, _ = instance
        rng = np.random.default_rng(208)
        phi_b = haar_random_state(Subspace.full(space.d_B), rng)
        sub = Subspace.fixed_bath(phi_b, space)
        checks, _ = thm3_sweep(sub, h, space, 60, rng)
        weak = math.sqrt(space.d_S / (4 * sub.d_R))
        assert abs(weak - 0.5) <= 1e-12
        delta = checks["mean_distance_delta_bound"]
        assert delta.bound < checks["mean_distance_weak_bound"].bound
        assert delta.satisfied

    def test_one_dimensional_subspace(self, instance):
        space, h, _ = instance
        rng = np.random.default_rng(209)
        basis = haar_random_state(Subspace.full(space.d), rng).reshape(-1, 1)
        _, per_state = thm3_sweep(DenseSubspace(basis), h, space, 30, rng)
        assert max(chk.empirical for chk in per_state) <= 1e-10


class TestTheorem4:
    def test_single_eigenstate(self, instance):
        space, h, _ = instance
        c = np.zeros(h.dim, dtype=np.complex128)
        c[0] = 1.0
        res = theorem4_check(c, h, space, 0.2, n_samples=100, rng=np.random.default_rng(210))
        chk = res["torus_tail_frequency"]
        assert chk.empirical == 0.0
        assert "assumption" in chk.metadata

    def test_random_state_tail(self, instance):
        space, h, psi = instance
        c = energy_coefficients(psi, h)
        res = theorem4_check(c, h, space, 0.2, n_samples=1000, rng=np.random.default_rng(211))
        chk = res["torus_tail_frequency"]
        assert chk.satisfied or chk.metadata["vacuous"]
        assert 0.0 <= chk.empirical <= 1.0

    def test_ks_statistic_small(self, instance):
        space, h, psi = instance
        res = theorem4_check(
            energy_coefficients(psi, h), h, space, 0.2, n_samples=800,
            rng=np.random.default_rng(212),
        )
        assert list(res) == ["torus_tail_frequency", "ks_statistic"]
        assert 0.0 <= res["ks_statistic"].empirical <= 0.1
        assert res["ks_statistic"].bound == 0.05

    @pytest.mark.parametrize("epsilon", [1e77, 1e100])
    def test_tail_bound_underflows_to_zero(self, instance, epsilon):
        # The bound e^{−c″ε⁴d_eff} is 0: its exponent is below −10³⁰⁰ at
        # ε = 1e77, and ε⁴ is beyond float range at ε = 1e100. No distance
        # exceeds a threshold above ε, so the row holds.
        space, h, psi = instance
        c = energy_coefficients(psi, h)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = theorem4_check(c, h, space, epsilon, n_samples=16, rng=np.random.default_rng(213))
        chk = res["torus_tail_frequency"]
        assert (chk.empirical, chk.bound, chk.satisfied) == (0.0, 0.0, True)

    def test_draws_tail_times_and_torus(self, instance):
        space, h, psi = instance
        n = 70
        rng, ref = np.random.default_rng(214), np.random.default_rng(214)
        theorem4_check(energy_coefficients(psi, h), h, space, 0.2, n_samples=n, rng=rng)
        ref.random(2 * n * h.dim + n)
        assert rng.bit_generator.state == ref.bit_generator.state


def unblocked_torus_distances(c, h, space, omega_s, samples, rng):
    """The reference form: one (samples, d) phase draw and amplitude stack."""
    alpha = rng.uniform(0.0, 2 * np.pi, size=(samples, h.dim))
    return trace_distance(reduce_to_system(torus_state(c, h, alpha), space), omega_s)


class TestTorusDistances:
    def test_phases_drawn_in_blocks_equal_one_draw(self, instance, monkeypatch):
        space, h, psi = instance
        c = energy_coefficients(psi, h)
        omega_s = dephased_system(c, h, space)
        drawn = []
        phase_factors = dynamics._phase_factors

        def recording(work, out):
            drawn.append(work[0].copy())
            return phase_factors(work, out)

        monkeypatch.setattr(dynamics, "_phase_factors", recording)
        n = 2 * block_rows(h.dim) + 5
        # The source writes π·U[0, 1) in place of uniform(0, 2π)·0.5: halving
        # is exact, and uniform(0, 2π) is 0 + 2π·U[0, 1).
        for seed in (213, 0, 1, 2):
            drawn.clear()
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            distances = torus_distances(c, h, space, omega_s, n, rng)
            assert len(drawn) == 3
            assert np.array_equal(
                np.concatenate(drawn), ref_rng.uniform(0.0, 2 * np.pi, size=(n, h.dim)) * 0.5
            )
            assert rng.random() == ref_rng.random()
            reference = unblocked_torus_distances(
                c, h, space, omega_s, n, np.random.default_rng(seed)
            )
            assert np.max(np.abs(distances - reference)) <= 1e-14

    def test_memory_is_a_fraction_of_the_unblocked_stack(self):
        # d = 512, n = 2000: the unblocked stack and its temporaries peak at
        # ~66 MB under tracemalloc, the blocked kernel at ~3 MB (one block's
        # arena and the distances, read from the amplitudes).
        rng = np.random.default_rng(215)
        space, n = BipartiteSpace(2, 256), 2000
        energies = np.sort(rng.uniform(0.0, 1.0, space.d))
        h = SpectralHamiltonian(energies, haar_random_unitary(space.d, rng))
        c = energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h)
        omega_s = dephased_system(c, h, space)

        def peak(distances):
            tracemalloc.start()
            try:
                out = distances(c, h, space, omega_s, n, np.random.default_rng(216))
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        blocked, blocked_peak = peak(torus_distances)
        reference, reference_peak = peak(unblocked_torus_distances)
        assert np.max(np.abs(blocked - reference)) <= 1e-14
        assert blocked_peak <= reference_peak / 4, (blocked_peak, reference_peak)


def scipy_ks(a, b) -> float:
    return float(scipy_stats.ks_2samp(a, b).statistic)


class TestKSStatistic:
    """`_ks_statistic` against scipy's `ks_2samp`, which eqlab does not import."""

    @pytest.mark.parametrize("seed", range(4))
    def test_unequal_sizes_match_scipy_exactly(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            n, m = rng.integers(1, 300, size=2)
            a = rng.standard_normal(n)
            b = rng.standard_normal(m) * rng.uniform(0.5, 2.0) + rng.uniform(-1.0, 1.0)
            assert _ks_statistic(a, b) == scipy_ks(a, b)

    @pytest.mark.parametrize("seed", range(4))
    def test_heavy_ties_match_scipy_exactly(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(100):
            n, m = rng.integers(1, 300, size=2)
            a = rng.integers(0, 4, size=n).astype(float)
            b = rng.integers(0, rng.integers(1, 6), size=m).astype(float)
            assert _ks_statistic(a, b) == scipy_ks(a, b)

    @pytest.mark.parametrize("n", [500, 2000])
    def test_equal_sizes_match_scipy_exactly(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            a, b = rng.random(n), rng.random(n) ** rng.uniform(0.8, 1.25)
            assert _ks_statistic(a, b) == scipy_ks(a, b)

    def test_above_scipy_exact_range(self):
        # Above max(n, m) = 10000 scipy takes its asymptotic branch and returns
        # the difference of the two float ECDFs unrounded. Each ECDF value in
        # [0, 1] rounds by at most eps/2, their difference and the exact
        # quotient by eps/2 each, so the two agree to within 2 eps.
        rng = np.random.default_rng(9)
        a, b = rng.random(12000), rng.random(13001) ** 1.02
        assert abs(_ks_statistic(a, b) - scipy_ks(a, b)) <= 2 * np.finfo(float).eps

    def test_disjoint_samples(self):
        assert _ks_statistic([0.0, 1.0, 2.0], [3.0, 4.0]) == 1.0

    def test_identical_samples(self):
        a = np.random.default_rng(3).random(50)
        assert _ks_statistic(a, a.copy()) == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a, b = rng.random(37), rng.random(91) + 0.1
        assert _ks_statistic(a, b) == _ks_statistic(b, a)


class TestSubadditivity:
    def test_eigenstate_trivial(self, instance):
        space, h, _ = instance
        c = energy_coefficients(h.eigenbasis[:, 1], h)
        res = theorem1_check(c, h, space, n_samples=32, rng=np.random.default_rng(213))
        assert res["renyi_subadditivity"].satisfied
        assert res["bath_deff_max"].satisfied
        omega_b_deff = effective_dimension(dephased_bath(c, h, space))
        assert omega_b_deff >= d_eff_of_time_average(c) / space.d_S

    def test_random_state(self, instance):
        space, h, psi = instance
        c = energy_coefficients(psi, h)
        res = theorem1_check(c, h, space, n_samples=128, rng=np.random.default_rng(214))
        renyi = res["renyi_subadditivity"]
        assert renyi.satisfied and renyi.margin > 0
        assert res["bath_deff_max"].satisfied
        omega_b_deff = effective_dimension(dephased_bath(c, h, space))
        assert omega_b_deff >= d_eff_of_time_average(c) / space.d_S

    def test_product_chain(self, instance):
        # For a state in |ψ⟩_S ⊗ H_B (d_R = d_B) with d_eff(ω) ≥ d_R/4, the chain
        # d_eff(ω_B) ≥ d_eff(ω)/d_S gives d_eff(ω_B) ≥ d_R/(4 d_S).
        space, h, _ = instance
        rng = np.random.default_rng(215)
        psi_s = haar_random_state(Subspace.full(space.d_S), rng)
        sub = Subspace.fixed_system(psi_s, space)
        c = energy_coefficients(haar_random_state(sub, rng), h)
        assert d_eff_of_time_average(c) >= sub.d_R / 4
        omega_b_deff = effective_dimension(dephased_bath(c, h, space))
        assert omega_b_deff >= sub.d_R / (4 * space.d_S)


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


def per_state_diagonal_counterexample(space, rng, n_times):
    """The reference form of `diagonal_counterexample`: the same draws, and
    one single-vector trajectory call per initial state, whose populations
    are the diagonals of the unchunked ρ_S (`system_states`)."""
    h = diagonal_product_hamiltonian(space, rng=rng)
    phi_b = haar_random_state(Subspace.full(space.d_B), rng)
    times = sample_times(default_t_max(h, 100.0), n_times, rng)
    psis = [*np.eye(space.d_S, dtype=np.complex128)[:2]]
    psis += [haar_random_state(Subspace.full(space.d_S), rng) for _ in range(2)]
    drifts, omegas = [], []
    for psi_s in psis:
        c = energy_coefficients(product_state(psi_s, phi_b, space), h)
        rhos = reduced_states_at_times(c, h, space, times, system_states(space))
        pops = np.real(np.diagonal(rhos, axis1=1, axis2=2))
        drifts.append(float(np.max(np.abs(pops - np.abs(psi_s) ** 2))))
        omegas.append(dephased_system(c, h, space))
    imbalance = 0.5 * float(np.sum(np.abs(np.abs(psis[2]) ** 2 - np.abs(psis[3]) ** 2)))
    return {
        "population_drift": BoundCheck.upper(
            max(drifts), POPULATION_DRIFT_ALLOWANCE, allowance=POPULATION_DRIFT_ALLOWANCE
        ),
        "basis_omega_distance": BoundCheck.upper(
            abs(trace_distance(omegas[0], omegas[1]) - 1.0),
            BASIS_DISTANCE_ALLOWANCE,
            allowance=BASIS_DISTANCE_ALLOWANCE,
        ),
        "imbalance_lower_bound": BoundCheck.lower(
            trace_distance(omegas[2], omegas[3]) + IMBALANCE_ALLOWANCE,
            imbalance,
            allowance=IMBALANCE_ALLOWANCE,
        ),
    }


class TestCounterexamples:
    @pytest.mark.parametrize("d_b", [2, 16])
    @pytest.mark.parametrize("seed", [221, 222, 223])
    def test_diagonal_model_matches_per_state_oracle(self, d_b, seed):
        space = BipartiteSpace(2, d_b)
        checks = diagonal_counterexample(space, np.random.default_rng(seed), n_times=500)
        oracle = per_state_diagonal_counterexample(space, np.random.default_rng(seed), 500)
        assert checks == oracle

    def test_diagonal_model(self):
        rng = np.random.default_rng(219)
        checks = diagonal_counterexample(BipartiteSpace(2, 8), rng, n_times=100)
        assert list(checks) == ["population_drift", "basis_omega_distance", "imbalance_lower_bound"]
        assert checks["population_drift"].empirical <= 1e-10
        assert checks["basis_omega_distance"].empirical <= 1e-9  # |D(ω_0, ω_1) − 1|
        assert all(chk.satisfied for chk in checks.values())

    def test_spin_bath_model(self):
        rng = np.random.default_rng(220)
        checks = spin_bath_counterexample(50.0, 8, rng)
        low, high = checks["energy_diff_min"], checks["energy_diff_max"]
        assert low.satisfied and high.satisfied
        assert low.bound == high.empirical  # one conserved difference, in both rows
        assert 2 * 50.0 - 4 <= high.empirical <= 2 * 50.0 + 4

    def test_spin_bath_metadata(self):
        # The strong field leaves the eigenstates near-product and the
        # subsystem never forgets σ_z; both rows carry the two diagnostics.
        rng = np.random.default_rng(220)
        for chk in spin_bath_counterexample(50.0, 8, rng).values():
            assert chk.metadata["min_eigenstate_purity"] >= 0.99
            assert chk.metadata["omega_distance"] > 0.9

    def test_spin_bath_weak_field_control(self):
        # Out of the strong-field regime no conservation claim is made; the
        # checks are still produced with a finite distance.
        rng = np.random.default_rng(221)
        checks = spin_bath_counterexample(0.1, 4, rng)
        assert 0.0 <= checks["energy_diff_max"].metadata["omega_distance"] <= 1.0

    def test_combined_report(self):
        rng = np.random.default_rng(222)
        checks = counterexample_checks(BipartiteSpace(2, 8), rng, 50.0, 60)
        assert list(checks) == [
            "population_drift", "basis_omega_distance", "imbalance_lower_bound",
            "energy_diff_min", "energy_diff_max",
        ]
        assert checks["population_drift"].empirical <= 1e-10
        assert checks["energy_diff_max"].bound == 2 * 50.0 + 4
