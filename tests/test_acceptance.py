"""Acceptance suite: one test per advertised guarantee, at stated tolerances.

Each criterion prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) in addition to its assertions.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from eqlab.bipartite import BipartiteSpace
from eqlab.dynamics import (
    dephased_system,
    energy_coefficients,
    reduce_to_bath,
    reduce_to_system,
)
from eqlab.hamiltonians import (
    diagonal_product_hamiltonian,
    random_spectral_hamiltonian,
)
from eqlab.linalg import hermitian_eigendecomposition, hermitize
from eqlab.runner import ExperimentConfig, derive_seed, emit, run_experiment
from eqlab.states import Subspace, haar_random_state
from eqlab.verifiers import (
    CONSTANTS,
    d_eff_of_time_average,
    delta_quantity,
    diagonal_counterexample,
    spin_bath_counterexample,
    theorem1_check,
    theorem2_sweep_check,
    theorem3_sweep_check,
    theorem4_check,
)
from oracles import haar_pair_moment_check, swap_trace_identity_check

MASTER_SEED = 20240901


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def equilibration_runs():
    """50 seeded instances, d_S=2, d_B cycling over {8, 16, 32}."""
    runs = []
    t0 = time.perf_counter()
    for i in range(50):
        d_b = (8, 16, 32)[i % 3]
        space = BipartiteSpace(2, d_b)
        rng = np.random.default_rng(derive_seed(MASTER_SEED, 0, i))
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        c = energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h)
        runs.append(theorem1_check(c, h, space, n_samples=2000, rng=rng))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"equilibration sweep took {elapsed:.1f}s (budget 120s)"
    return runs


def test_criterion_01_time_average_distance_bound(equilibration_runs):
    bath_checks = [r["mean_distance_bath_bound"] for r in equilibration_runs]
    failures = [chk for chk in bath_checks if not chk.satisfied]
    worst = min(chk.margin for chk in bath_checks)
    report(
        "criterion 01",
        not failures,
        f"bath bound held in {50 - len(failures)}/50 instances, worst margin {worst:.4f}",
    )
    assert not failures


def test_criterion_02_fluctuation_fractions(equilibration_runs):
    bad = [
        (name, chk.empirical)
        for r in equilibration_runs
        for name, chk in r.items()
        if name.startswith("exceed_fraction_K") and not chk.satisfied
    ]
    report(
        "criterion 02",
        not bad,
        "exceed_fraction(K) <= 1/K + 0.02 for K in {2, 5, 10} in all 50 instances",
    )
    assert not bad


def test_criterion_03_effective_dimension_concentration():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 1, 0))
    space = BipartiteSpace(2, 32)
    h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
    d_effs = [
        d_eff_of_time_average(energy_coefficients(haar_random_state(Subspace.full(64), rng), h))
        for _ in range(200)
    ]
    checks = theorem2_sweep_check(d_effs, 64)
    mean, tail = checks["mean_d_eff"], checks["tail_frequency"]
    ok = mean.satisfied and tail.empirical == 0.0
    report(
        "criterion 03",
        ok,
        f"mean d_eff = {mean.empirical:.2f} (>= 32 - 3SE), tail frequency "
        f"{tail.empirical}, exponential tail bound {tail.bound:.3f}"
        f"{' (vacuous)' if tail.metadata['vacuous'] else ''}",
    )
    assert mean.empirical + 3 * mean.metadata["std_error"] >= 32
    assert tail.empirical == 0.0
    assert tail.metadata["vacuous"] == (tail.bound > 1)


def test_criterion_04_bath_state_independence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 2, 0))
    space = BipartiteSpace(2, 64)
    h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
    psi_s = haar_random_state(Subspace.full(2), rng)
    sub = Subspace.fixed_system(psi_s, space)
    cs = [energy_coefficients(haar_random_state(sub, rng), h) for _ in range(100)]
    omegas = np.array([dephased_system(c, h, space) for c in cs])
    weak = theorem3_sweep_check(omegas, h, sub, space)["mean_distance_weak_bound"]
    elapsed = time.perf_counter() - t0
    bound = math.sqrt(2 / (4 * 64))
    ok = weak.empirical <= bound + 3 * weak.metadata["std_error"]
    report(
        "criterion 04",
        ok,
        f"mean distance {weak.empirical:.4f} <= {bound:.4f} + 3SE in {elapsed:.1f}s",
    )
    assert abs(bound - 0.0884) <= 5e-4
    assert ok
    assert elapsed < 180.0


def test_criterion_05a_delta_product_eigenbasis():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 3, 0))
    space = BipartiteSpace(2, 8)
    h = diagonal_product_hamiltonian(space, (0.0, 1.0), rng=rng)
    delta = delta_quantity(h, Subspace.full(space.d), space)
    ok = abs(delta - 1.0) <= 1e-10
    report("criterion 05a", ok, f"delta = {delta!r} for a product eigenbasis")
    assert ok


def _haar_basis_delta() -> float:
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 3, 1))
    space = BipartiteSpace(2, 32)
    h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
    return delta_quantity(h, Subspace.full(space.d), space)


def test_criterion_05b_delta_haar_eigenbasis_range():
    delta = _haar_basis_delta()
    # Regression target: measured value for this seed, frozen after the
    # first computation.
    target = 0.5210831589767393
    ok = 0.5 <= delta <= 1.0 and abs(delta - target) <= 1e-12
    report(
        "criterion 05b",
        ok,
        f"delta = {delta!r} in [1/d_S, 1] = [0.5, 1], regression target {target!r}",
    )
    assert 0.5 <= delta <= 1.0
    assert abs(delta - target) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason=(
        "delta is a weighted average of subsystem eigenstate purities, each of "
        "which is at least 1/d_S; with d_S = 2 the value can never drop below "
        "0.5, so the advertised 0.2 threshold is unattainable. For a Haar "
        "eigenbasis at d_S=2, d_B=32 the typical value is "
        "(d_S + d_B)/(d_S d_B + 1) ~ 0.52."
    ),
)
def test_criterion_05b_delta_haar_eigenbasis_below_0p2():
    delta = _haar_basis_delta()
    report("criterion 05b (threshold)", delta < 0.2, f"delta = {delta!r} < 0.2")
    assert delta < 0.2


def test_criterion_06_population_conserving_counterexample():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 4, 0))
    checks = diagonal_counterexample(BipartiteSpace(2, 16), rng, n_times=500)
    drift = checks["population_drift"].empirical
    distance_gap = checks["basis_omega_distance"].empirical  # |D(omega_0, omega_1) - 1|
    ok = drift <= 1e-10 and distance_gap <= 1e-9
    report(
        "criterion 06",
        ok,
        f"max population drift {drift:.2e}, |D(omega_0, omega_1) - 1| = {distance_gap!r}",
    )
    assert drift <= 1e-10
    assert distance_gap <= 1e-9


def test_criterion_07_energy_separation_counterexample():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 5, 0))
    energy_diff = spin_bath_counterexample(50.0, 8, rng)["energy_diff_max"].empirical
    ok = 96.0 <= energy_diff <= 104.0
    report(
        "criterion 07",
        ok,
        f"conserved energy difference {energy_diff:.2f} in [96, 104]",
    )
    assert 96.0 <= energy_diff <= 104.0


def test_criterion_08_operator_identities():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 6, 0))
    swap_dev = 0.0
    for _ in range(100):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        swap_dev = max(swap_dev, swap_trace_identity_check(a, b))
    dev_small = haar_pair_moment_check(4, 10_000, rng)
    dev_large = haar_pair_moment_check(4, 40_000, rng)
    ratio = dev_large / dev_small
    ok = swap_dev <= 1e-10 and dev_small <= 5 / math.sqrt(10_000) and 0.25 <= ratio <= 1.0
    report(
        "criterion 08",
        ok,
        f"swap deviation {swap_dev:.2e}; pair-moment deviation {dev_small:.4f} at 1e4 "
        f"trials, x{ratio:.2f} at 4e4 (expected ~0.5, factor-2 window)",
    )
    assert swap_dev <= 1e-10
    assert dev_small <= 5 / math.sqrt(10_000)
    assert 0.25 <= ratio <= 1.0


def test_criterion_09_subadditivity_and_bath_bounds(equilibration_runs):
    bad = [
        r
        for r in equilibration_runs
        if not (r["renyi_subadditivity"].satisfied and r["bath_deff_max"].satisfied)
    ]
    report(
        "criterion 09",
        not bad,
        "purity subadditivity and bath d_eff <= d_S held in all 50 instances",
    )
    assert not bad


def test_criterion_10_phase_sampling_ergodicity():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 7, 0))
    space = BipartiteSpace(2, 32)
    h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
    c = energy_coefficients(haar_random_state(Subspace.full(space.d), rng), h)
    res = theorem4_check(c, h, space, 0.2, n_samples=2000, rng=rng)
    ks, tail = res["ks_statistic"].empirical, res["torus_tail_frequency"]
    tail_ok = tail.satisfied or tail.metadata["vacuous"]
    ok = ks <= 0.05 and tail_ok
    report(
        "criterion 10",
        ok,
        f"KS statistic {ks:.4f} <= 0.05; tail frequency {tail.empirical} vs bound "
        f"{tail.bound:.3f}{' (vacuous)' if tail.metadata['vacuous'] else ''}",
    )
    assert ks <= 0.05
    if tail.bound < 1:
        assert tail.satisfied
    else:
        assert tail.metadata["vacuous"]


def test_criterion_11_kernel_correctness():
    rng = np.random.default_rng(derive_seed(MASTER_SEED, 8, 0))
    worst = 0.0
    for _ in range(100):
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        m = hermitize(g)
        eig = hermitian_eigendecomposition(m)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        worst = max(worst, np.linalg.norm(rebuilt - m) / np.linalg.norm(m))

    # The live reductions of a 3x5 Haar state, as a one-row amplitude stack,
    # against a loop over the dense |psi><psi|.
    space = BipartiteSpace(3, 5)
    psi = haar_random_state(Subspace.full(space.d), rng)
    rho = np.outer(psi, psi.conj())
    oracle_s = np.zeros((3, 3), dtype=np.complex128)
    oracle_b = np.zeros((5, 5), dtype=np.complex128)
    for s in range(3):
        for sp in range(3):
            for b in range(5):
                oracle_s[s, sp] += rho[s * 5 + b, sp * 5 + b]
    for b in range(5):
        for bp in range(5):
            for s in range(3):
                oracle_b[b, bp] += rho[s * 5 + b, s * 5 + bp]
    dev_s = np.max(np.abs(reduce_to_system(psi[None, :], space)[0] - oracle_s))
    dev_b = np.max(np.abs(reduce_to_bath(psi[None, :], space)[0] - oracle_b))
    ok = worst <= 1e-9 and dev_s <= 1e-12 and dev_b <= 1e-12
    report(
        "criterion 11",
        ok,
        f"worst eigensolver reconstruction {worst:.2e} (<= 1e-9); reduction "
        f"deviations from the loop oracle {dev_s:.2e}, {dev_b:.2e} (<= 1e-12)",
    )
    assert worst <= 1e-9
    assert dev_s <= 1e-12 and dev_b <= 1e-12


def test_criterion_12_reproducible_output(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "thm1",
            "d_S": 2,
            "d_B": [8],
            "trials": 3,
            "time_sampling": {"t_max_factor": 1e3, "n_samples": 400},
            "master_seed": MASTER_SEED,
        }
    )
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(run_experiment(cfg), "csv", str(pa))
    emit(run_experiment(cfg), "csv", str(pb))
    identical = pa.read_bytes() == pb.read_bytes()
    report("criterion 12", identical, "re-run with the same config is byte-identical")
    assert identical


def test_constants_sanity():
    assert abs(CONSTANTS.c - math.log(2) ** 2 / (72 * math.pi**3)) <= 1e-18
