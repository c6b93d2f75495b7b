"""Hamiltonian models and the non-degenerate-gap condition."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from eqlab import hamiltonians, runner
from eqlab.bipartite import BipartiteSpace
from eqlab.errors import DimensionMismatchError
from eqlab.hamiltonians import (
    GapReport,
    SpectralHamiltonian,
    default_gap_tolerance,
    diagonal_product_hamiltonian,
    gap_analysis,
    random_spectral_hamiltonian,
    spin_bath_hamiltonian,
)
from eqlab.linalg import (
    haar_random_unitary,
    hermitian_eigendecomposition,
    kronecker_product,
)
from eqlab.states import Subspace, haar_random_state, product_state
from oracles import dense, density_matrix, noninteracting_hamiltonian, partial_trace_bath

SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def brute_force_gap_degenerate(energies: np.ndarray, tol: float) -> bool:
    """O(d^4) check: does some nonzero gap repeat across distinct pairs?"""
    d = len(energies)
    gaps = {}
    for k in range(d):
        for l in range(d):
            if k == l:
                continue
            g = energies[k] - energies[l]
            if abs(g) <= tol:
                return True
            for (m, n), other in gaps.items():
                if abs(g - other) <= tol and (k, l) != (m, n):
                    return True
            gaps[(k, l)] = g
    return False


def loop_gap_analysis(h: SpectralHamiltonian, tol: float | None = None) -> GapReport:
    """Reference gap check: the pure-Python double loop and stable list sort."""
    e = h.energies
    d = e.size
    if tol is None:
        tol = default_gap_tolerance(e)
    violations: list[tuple[int, int, int, int]] = []
    gaps = []
    for k in range(d):
        for l in range(k):
            g = e[k] - e[l]
            if g <= tol:
                violations.append((k, l, k, l))
            else:
                gaps.append((g, k, l))
    gaps.sort(key=lambda t: t[0])
    min_sep = np.inf
    for (g1, k1, l1), (g2, k2, l2) in zip(gaps, gaps[1:]):
        sep = g2 - g1
        if sep <= tol:
            violations.append((k1, l1, k2, l2))
        else:
            min_sep = min(min_sep, sep)
    return GapReport(
        passes=not violations,
        min_gap_separation=float(min_sep),
        degenerate_pairs=tuple(violations),
        tolerance=float(tol),
    )


def trivial_hamiltonian(energies) -> SpectralHamiltonian:
    e = np.asarray(energies, dtype=np.float64)
    return SpectralHamiltonian(e, np.eye(e.size, dtype=np.complex128))


class TestSpectralHamiltonian:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            trivial_hamiltonian([1.0, 0.0])

    def test_rejects_non_unitary_basis(self):
        with pytest.raises(ValueError):
            SpectralHamiltonian(np.array([0.0, 1.0]), np.ones((2, 2)))

    def test_dense_round_trip(self):
        rng = np.random.default_rng(1)
        space = BipartiteSpace(2, 4)
        h = random_spectral_hamiltonian(space, (0.0, 1.0), rng=rng)
        eig = hermitian_eigendecomposition(dense(h))
        assert np.allclose(eig.eigenvalues, h.energies, atol=1e-8)

    def test_min_level_gap(self):
        h = trivial_hamiltonian([0.0, 0.25, 1.0])
        assert h.min_level_gap() == 0.25


class TestGapAnalysis:
    def test_equal_spacing_fails(self):
        report = gap_analysis(trivial_hamiltonian([0.0, 1.0, 2.0]))
        assert not report.passes
        assert report.degenerate_pairs

    def test_degenerate_levels_fail(self):
        report = gap_analysis(trivial_hamiltonian([0.0, 0.0, 1.0]))
        assert not report.passes
        assert (1, 0, 1, 0) in report.degenerate_pairs

    def test_generic_spectrum_passes(self):
        rng = np.random.default_rng(2)
        e = np.sort(rng.uniform(0.0, 1.0, size=16))
        report = gap_analysis(trivial_hamiltonian(e))
        assert report.passes
        assert report.min_gap_separation > 0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            e = np.sort(rng.uniform(0.0, 1.0, size=6))
            if rng.random() < 0.5:  # inject a degenerate gap half the time
                e[3] = e[2] + (e[1] - e[0])
                e = np.sort(e)
            h = trivial_hamiltonian(e)
            tol = default_gap_tolerance(e)
            assert gap_analysis(h).passes == (not brute_force_gap_degenerate(e, tol))

    @pytest.mark.parametrize("kind", ["random", "integer", "rounded"])
    @pytest.mark.parametrize("d", [2, 3, 4, 7, 16, 33, 64, 120])
    def test_matches_loop_oracle(self, kind, d):
        rng = np.random.default_rng(1000 * d + len(kind))
        if kind == "random":
            e = rng.uniform(-1.0, 3.0, size=d)
        elif kind == "integer":
            e = rng.integers(0, 2 * d, size=d).astype(np.float64)
        else:  # a coarse grid makes many gaps tie exactly
            e = np.round(rng.uniform(0.0, 1.0, size=d), 2)
        h = trivial_hamiltonian(np.sort(e))
        assert gap_analysis(h) == loop_gap_analysis(h)
        assert gap_analysis(h, tol=0.05) == loop_gap_analysis(h, tol=0.05)
        assert gap_analysis(h, tol=0.0) == loop_gap_analysis(h, tol=0.0)

    @pytest.mark.parametrize(
        "energies, min_sep",
        [
            ([0.0, 1.0], np.inf),  # one gap: nothing to separate
            ([0.0, 0.0], np.inf),
            ([0.0, 0.0, 0.0], np.inf),  # every gap is zero
            ([0.0, 1.0, 2.0], 1.0),
            ([0.0, 0.0, 1.0, 1.0, 3.0], 1.0),
        ],
    )
    def test_matches_loop_oracle_edge_cases(self, energies, min_sep):
        h = trivial_hamiltonian(energies)
        report = gap_analysis(h)
        assert report == loop_gap_analysis(h)
        assert report.min_gap_separation == min_sep
        if energies[0] == energies[1]:
            assert (1, 0, 1, 0) in report.degenerate_pairs

    @pytest.mark.parametrize(
        "energies",
        [
            np.arange(9.0),  # gap j repeats 9 - j times
            [0.0, 1.0, 2.0, 3.0, 5.5, 6.5, 7.5],  # clusters of 3, 4 and 6 equal gaps
            [0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 4.0],  # degenerate levels inside the clusters
            np.cumsum([0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0]),
        ],
        ids=["ladder", "clusters", "degenerate", "steps"],
    )
    @pytest.mark.parametrize("tol", [None, 0.0, 0.5, 1.0])
    def test_matches_loop_oracle_on_clusters(self, energies, tol):
        h = trivial_hamiltonian(energies)
        report = gap_analysis(h, tol)
        assert report == loop_gap_analysis(h, tol)
        assert not report.passes

    @pytest.mark.parametrize("tol", [0.0, 0.01, 0.02])
    def test_matches_loop_oracle_where_ties_straddle_tol(self, tol):
        # On a grid of step 0.01 the float gaps and their separations land
        # just below, on and just above multiples of 0.01, so chains of
        # near-ties cross tol in both directions.
        rng = np.random.default_rng(30)
        for _ in range(20):
            e = np.sort(np.round(rng.uniform(0.0, 0.3, size=12), 2))
            h = trivial_hamiltonian(e)
            assert gap_analysis(h, tol) == loop_gap_analysis(h, tol)

    def test_matches_loop_oracle_on_a_coarse_grid_at_d200(self):
        rng = np.random.default_rng(32)
        h = trivial_hamiltonian(np.sort(np.round(rng.uniform(0.0, 1.0, size=200), 2)))
        report = gap_analysis(h)
        assert len(report.degenerate_pairs) > 10_000
        assert report == loop_gap_analysis(h)

    def test_matches_loop_oracle_on_the_first_thm2_d256_draw(self, monkeypatch):
        # The shared Hamiltonian of thm2 at d_S = 2, d_B = 128, master_seed 7:
        # its first energy draw fails the check with two violations.
        drawn = []

        def recording(h, tol=None):
            drawn.append(h)
            return gap_analysis(h, tol)

        monkeypatch.setattr(hamiltonians, "gap_analysis", recording)
        cfg = runner.ExperimentConfig.from_dict(
            {"experiment": "thm2", "d_S": 2, "d_B": [128], "trials": 1, "master_seed": 7}
        )
        runner._build_hamiltonian(cfg, BipartiteSpace(2, 128), runner._shared_rng(cfg, 0))
        first = drawn[0]
        report = gap_analysis(first)
        assert len(report.degenerate_pairs) == 2
        assert report == loop_gap_analysis(first)

    def test_memory_per_gap(self):
        # A random spectrum at d = 1024 has violations, so the membership
        # test and the stable argsort of the tied gaps run too. 48 bytes per
        # gap is ~400 MB at d = 4096.
        d = 1024
        e = np.sort(np.random.default_rng(33).uniform(0.0, 1.0, d))
        h = trivial_hamiltonian(np.zeros(d)).with_energies(e)
        tracemalloc.start()
        try:
            report = gap_analysis(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.passes
        assert peak <= 48 * d * (d - 1) // 2, peak / (d * (d - 1) // 2)

    def test_noninteracting_always_fails(self):
        rng = np.random.default_rng(4)
        space = BipartiteSpace(2, 3)
        h_s = trivial_hamiltonian(np.sort(rng.uniform(0, 1, 2)))
        h_b = trivial_hamiltonian(np.sort(rng.uniform(0, 1, 3)))
        h = noninteracting_hamiltonian(h_s, h_b, space)
        assert not gap_analysis(h).passes


class TestRandomSpectralHamiltonian:
    def test_gap_check_passes(self):
        rng = np.random.default_rng(5)
        h = random_spectral_hamiltonian(BipartiteSpace(2, 2), (0.0, 1.0), rng=rng)
        assert gap_analysis(h).passes

    def test_gap_report_computed_once(self):
        rng = np.random.default_rng(5)
        h = random_spectral_hamiltonian(BipartiteSpace(2, 2), (0.0, 1.0), rng=rng)
        assert h.gap_report is h.gap_report
        assert h.gap_report == gap_analysis(h)
        assert gap_analysis(h, tol=0.5) != h.gap_report  # an explicit call is not cached

    def test_determinism(self):
        space = BipartiteSpace(2, 3)
        a = random_spectral_hamiltonian(space, (0.0, 1.0), rng=np.random.default_rng(6))
        b = random_spectral_hamiltonian(space, (0.0, 1.0), rng=np.random.default_rng(6))
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.eigenbasis, b.eigenbasis)

    def test_column_norms(self):
        rng = np.random.default_rng(7)
        h = random_spectral_hamiltonian(BipartiteSpace(2, 4), (0.0, 1.0), rng=rng)
        norms = np.linalg.norm(h.eigenbasis, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-10

    @pytest.mark.parametrize("builder", ["random", "diagonal"])
    def test_basis_checked_once_per_build(self, monkeypatch, builder):
        # The first attempt's gap check fails, so the build draws energies
        # twice; the shared basis is checked for unitarity once.
        checks, reports = [], []
        require_unitary, analyse = hamiltonians._require_unitary, hamiltonians.gap_analysis

        def counting(u):
            checks.append(u.shape)
            require_unitary(u)

        def failing_first(h):
            report = analyse(h)
            reports.append(report)
            return report if len(reports) > 1 else GapReport(False, 0.0, ((1, 0, 1, 0),), 0.0)

        monkeypatch.setattr(hamiltonians, "_require_unitary", counting)
        monkeypatch.setattr(hamiltonians, "gap_analysis", failing_first)
        space, seed = BipartiteSpace(2, 3), 8
        build = {"random": random_spectral_hamiltonian, "diagonal": diagonal_product_hamiltonian}
        h = build[builder](space, (0.0, 1.0), rng=np.random.default_rng(seed))
        assert len(reports) == 2 and checks == [(6, 6)]

        # The same numbers as building each attempt from scratch.
        rng = np.random.default_rng(seed)
        basis = haar_random_unitary(6, rng) if builder == "random" else np.eye(6)
        rng.uniform(0.0, 1.0, size=6)
        assert np.array_equal(h.energies, np.sort(rng.uniform(0.0, 1.0, size=6)))
        assert np.array_equal(h.eigenbasis, basis)

    def test_with_energies_checks_energies(self):
        rng = np.random.default_rng(9)
        h = random_spectral_hamiltonian(BipartiteSpace(2, 2), (0.0, 1.0), rng=rng)
        assert np.array_equal(h.with_energies([0.0, 0.1, 0.2, 0.3]).eigenbasis, h.eigenbasis)
        with pytest.raises(ValueError):
            h.with_energies([0.3, 0.2, 0.1, 0.0])
        with pytest.raises(DimensionMismatchError):
            h.with_energies([0.0, 0.1, 0.2])

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            random_spectral_hamiltonian(
                BipartiteSpace(2, 2), (1.0, 1.0), rng=np.random.default_rng(0)
            )


class TestNoninteractingHamiltonian:
    def test_energy_sums(self):
        space = BipartiteSpace(2, 2)
        h_s = trivial_hamiltonian([0.0, 1.0])
        h_b = trivial_hamiltonian([0.0, 1.0])
        h = noninteracting_hamiltonian(h_s, h_b, space)
        assert np.array_equal(h.energies, [0.0, 1.0, 1.0, 2.0])

    def test_eigenvectors_are_product(self):
        rng = np.random.default_rng(8)
        space = BipartiteSpace(2, 3)
        h_s = SpectralHamiltonian(np.sort(rng.uniform(0, 1, 2)), haar_random_unitary(2, rng))
        h_b = SpectralHamiltonian(np.sort(rng.uniform(0, 1, 3)), haar_random_unitary(3, rng))
        h = noninteracting_hamiltonian(h_s, h_b, space)
        for k in range(h.dim):
            rho_s = partial_trace_bath(density_matrix(h.eigenbasis[:, k]), space)
            top = hermitian_eigendecomposition(rho_s).eigenvalues[-1]
            assert abs(top - 1.0) <= 1e-10  # Schmidt rank 1


class TestDiagonalProductHamiltonian:
    def test_identity_eigenbasis(self):
        rng = np.random.default_rng(9)
        h = diagonal_product_hamiltonian(BipartiteSpace(2, 3), (0.0, 1.0), rng=rng)
        assert np.array_equal(h.eigenbasis, np.eye(6))
        assert gap_analysis(h).passes

    def test_commutes_with_diagonal_subsystem_operators(self):
        rng = np.random.default_rng(10)
        space = BipartiteSpace(2, 4)
        h = diagonal_product_hamiltonian(space, (0.0, 1.0), rng=rng)
        h_dense = dense(h)
        a = kronecker_product(np.diag(rng.standard_normal(2)), np.eye(4))
        assert np.max(np.abs(a @ h_dense - h_dense @ a)) <= 1e-12


@pytest.fixture(scope="module")
def model():
    return spin_bath_hamiltonian(50.0, 8, np.random.default_rng(11))


class TestSpinBathHamiltonian:
    def test_perturbation_bounded(self, model):
        # Removing the field term leaves H_int + 1 x H_B, whose expectation
        # values lie in [-2, 2].
        h, space = model
        pert = dense(h) - 50.0 * kronecker_product(SIGMA_Z, np.eye(space.d_B))
        eig = hermitian_eigendecomposition(pert).eigenvalues
        assert eig[0] >= -2.0 - 1e-9 and eig[-1] <= 2.0 + 1e-9

    def test_energy_separation(self, model):
        h, space = model
        rng = np.random.default_rng(12)
        phi = haar_random_state(Subspace.full(space.d_B), rng)
        up = product_state([1.0, 0.0], phi, space)
        down = product_state([0.0, 1.0], phi, space)
        h_dense = dense(h)
        diff = np.vdot(up, h_dense @ up).real - np.vdot(down, h_dense @ down).real
        assert 2 * 50.0 - 4 <= diff <= 2 * 50.0 + 4

    def test_near_product_eigenstates(self, model):
        h, space = model
        for k in range(h.dim):
            rho_s = partial_trace_bath(density_matrix(h.eigenbasis[:, k]), space)
            assert np.vdot(rho_s, rho_s).real >= 0.99

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            spin_bath_hamiltonian(0.0, 8, np.random.default_rng(0))

