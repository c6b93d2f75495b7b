"""Hamiltonian models and the non-degenerate-gap condition."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from eqlab import hamiltonians, runner
from eqlab.bipartite import BipartiteSpace
from eqlab.errors import ConfigInvalidError, DegenerateHamiltonianError, DimensionMismatchError
from eqlab.hamiltonians import (
    SpectralHamiltonian,
    default_gap_tolerance,
    diagonal_product_hamiltonian,
    gap_analysis,
    random_spectral_hamiltonian,
    spin_bath_hamiltonian,
    with_nondegenerate_gaps,
)
from eqlab.linalg import (
    haar_random_unitary,
    hermitian_eigendecomposition,
    kronecker_product,
)
from eqlab.states import Subspace, haar_random_state, product_state
from oracles import (
    SIGMA_Z,
    dense,
    density_matrix,
    eigenbasis,
    kronecker_sum_spin_bath,
    noninteracting_hamiltonian,
    partial_trace_bath,
    same_bits,
    shape_id,
    with_dense_basis,
)
from test_config_fields import LARGEST_FIELD

# The diagonal marginals sum d_B (or d_S) weights of total at most 1 in
# another order than the dense product with I: a rounding allowance.
MARGINAL_ROUNDING = 1e-15


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


def loop_gap_analysis(h: SpectralHamiltonian, tol: float | None = None) -> int:
    """Reference gap count: the pure-Python double loop and list sort."""
    e = h.energies
    d = e.size
    if tol is None:
        tol = default_gap_tolerance(e)
    violations = 0
    gaps = []
    for k in range(d):
        for l in range(k):
            g = e[k] - e[l]
            if g <= tol:
                violations += 1
            else:
                gaps.append(g)
    gaps.sort()
    for g1, g2 in zip(gaps, gaps[1:]):
        if g2 - g1 <= tol:
            violations += 1
    return violations


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
        assert gap_analysis(trivial_hamiltonian([0.0, 1.0, 2.0])) == 1  # the gaps are 1, 1 and 2

    def test_degenerate_levels_fail(self):
        assert gap_analysis(trivial_hamiltonian([0.0, 0.0, 1.0])) == 2  # zero gap, gap 1 twice

    def test_generic_spectrum_passes(self):
        rng = np.random.default_rng(2)
        e = np.sort(rng.uniform(0.0, 1.0, size=16))
        assert gap_analysis(trivial_hamiltonian(e)) == 0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            e = np.sort(rng.uniform(0.0, 1.0, size=6))
            if rng.random() < 0.5:  # inject a degenerate gap half the time
                e[3] = e[2] + (e[1] - e[0])
                e = np.sort(e)
            h = trivial_hamiltonian(e)
            tol = default_gap_tolerance(e)
            assert (gap_analysis(h) == 0) == (not brute_force_gap_degenerate(e, tol))

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
        "energies",
        [
            [0.0, 1.0],  # one gap: nothing to separate
            [0.0, 0.0],
            [0.0, 0.0, 0.0],  # every gap is zero
            [0.0, 1.0, 2.0],
            [0.0, 0.0, 1.0, 1.0, 3.0],
        ],
    )
    def test_matches_loop_oracle_edge_cases(self, energies):
        h = trivial_hamiltonian(energies)
        assert gap_analysis(h) == loop_gap_analysis(h)

    @pytest.mark.parametrize(
        "energies, violations",
        [
            ([0.0, 1.0], 0),
            ([0.0, 0.0], 1),
            ([0.0, 0.0, 0.0], 3),  # every gap is zero
            # Zero gaps (1, 0) and (3, 2); the gap 1 four times, 2 and 3 twice.
            ([0.0, 0.0, 1.0, 1.0, 3.0], 7),
        ],
    )
    def test_violation_counts(self, energies, violations):
        assert gap_analysis(trivial_hamiltonian(energies)) == violations

    @pytest.mark.parametrize("n", [3, 9, 20, 64])
    def test_ladder_violations_in_closed_form(self, n):
        # On the ladder 0, 1, ..., n-1 the gap j occurs n - j times, so each
        # j from 1 to n-2 gives n - j - 1 neighbouring equal pairs: in all
        # (n-1)(n-2)/2 violations, 28 at n = 9 and 171 at n = 20.
        assert gap_analysis(trivial_hamiltonian(np.arange(float(n)))) == (n - 1) * (n - 2) // 2

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
        violations = gap_analysis(h, tol)
        assert violations == loop_gap_analysis(h, tol)
        assert violations > 0

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
        violations = gap_analysis(h)
        assert violations > 10_000
        assert violations == loop_gap_analysis(h)

    def test_matches_loop_oracle_on_the_first_thm2_d256_draw(self):
        # The first draw of thm2's shared stream at d_S = 2, d_B = 128,
        # master_seed 7 fails the check with two violations.
        cfg = runner.ExperimentConfig.from_dict(
            {"experiment": "thm2", "d_S": 2, "d_B": [128], "trials": 1, "master_seed": 7}
        )
        first = random_spectral_hamiltonian(BipartiteSpace(2, 128), rng=runner._shared_rng(cfg, 0))
        assert gap_analysis(first) == loop_gap_analysis(first) == 2

    def test_memory_per_gap(self):
        # The peak holds the d×d differences, their lower-triangle mask and
        # the gaps, 26 bytes per gap; 28 is ~235 MB at d = 4096.
        d = 1024
        e = np.sort(np.random.default_rng(33).uniform(0.0, 1.0, d))
        h = SpectralHamiltonian.trusted(e, np.eye(d, dtype=np.complex128))
        tracemalloc.start()
        try:
            violations = gap_analysis(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert violations > 0
        assert peak <= 28 * d * (d - 1) // 2, peak / (d * (d - 1) // 2)

    def test_noninteracting_always_fails(self):
        rng = np.random.default_rng(4)
        space = BipartiteSpace(2, 3)
        h_s = trivial_hamiltonian(np.sort(rng.uniform(0, 1, 2)))
        h_b = trivial_hamiltonian(np.sort(rng.uniform(0, 1, 3)))
        h = noninteracting_hamiltonian(h_s, h_b, space)
        assert gap_analysis(h) > 0


class TestRandomSpectralHamiltonian:
    def test_gap_check_passes(self):
        rng = np.random.default_rng(5)
        h = random_spectral_hamiltonian(BipartiteSpace(2, 2), (0.0, 1.0), rng=rng)
        assert gap_analysis(h) == 0

    def test_gap_violations_computed_once(self, monkeypatch):
        calls = []
        analyse = hamiltonians.gap_analysis
        monkeypatch.setattr(hamiltonians, "gap_analysis", lambda h: calls.append(h) or analyse(h))
        rng = np.random.default_rng(5)
        h = random_spectral_hamiltonian(BipartiteSpace(2, 2), (0.0, 1.0), rng=rng)
        assert calls == []  # the builder checks nothing
        assert h.gap_violations == h.gap_violations == analyse(h) == 0
        assert calls == [h]
        assert analyse(h, tol=0.5) != h.gap_violations  # an explicit call is not cached

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

    def test_trusted_checks_energies(self):
        rng = np.random.default_rng(9)
        h = random_spectral_hamiltonian(BipartiteSpace(2, 2), (0.0, 1.0), rng=rng)
        trusted = SpectralHamiltonian.trusted([0.0, 0.1, 0.2, 0.3], h.eigenbasis)
        assert trusted.eigenbasis is h.eigenbasis
        assert np.array_equal(trusted.energies, [0.0, 0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            SpectralHamiltonian.trusted([0.3, 0.2, 0.1, 0.0], h.eigenbasis)
        with pytest.raises(DimensionMismatchError):
            SpectralHamiltonian.trusted([0.0, 0.1, 0.2], h.eigenbasis)

    @pytest.mark.parametrize("d", [1, 2, 7, 64, 256])
    def test_haar_unitary_passes_unitarity_check(self, d):
        # The trusted path rests on a Householder QR factor being unitary to
        # rounding; the check it skips must pass on it.
        hamiltonians._require_unitary(haar_random_unitary(d, np.random.default_rng(d)))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            random_spectral_hamiltonian(
                BipartiteSpace(2, 2), (1.0, 1.0), rng=np.random.default_rng(0)
            )


def test_builders_make_one_draw_and_no_gap_check(monkeypatch):
    # At d = 512 no draw tried passes the gap check; the builders run no check.
    def refused(h, tol=None):
        raise AssertionError("gap check in a builder")

    monkeypatch.setattr(hamiltonians, "gap_analysis", refused)
    space = BipartiteSpace(2, 256)
    for build in (random_spectral_hamiltonian, diagonal_product_hamiltonian):
        rng = np.random.default_rng(0)
        h = build(space, rng=rng)
        ref = np.random.default_rng(0)
        basis = None if h.diagonal else haar_random_unitary(512, ref)
        assert np.array_equal(h.energies, np.sort(ref.uniform(0.0, 1.0, 512)))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert basis is None or np.array_equal(h.eigenbasis, basis)
    h, _ = spin_bath_hamiltonian(50.0, 256, np.random.default_rng(0))
    assert h.dim == 512


class TestWithNondegenerateGaps:
    def test_passing_draw_is_kept(self):
        rng = np.random.default_rng(5)
        h = random_spectral_hamiltonian(BipartiteSpace(2, 2), rng=rng)
        state = rng.bit_generator.state
        assert with_nondegenerate_gaps(h, (0.0, 1.0), rng) is h
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("builder", ["random", "diagonal"])
    def test_trusted_build_skips_unitarity_check(self, monkeypatch, builder):
        # The first draw's gap check fails, so the redraw step draws energies
        # twice; the basis, a QR factor or I, is never checked for unitarity.
        checks, counts = [], []
        require_unitary, analyse = hamiltonians._require_unitary, hamiltonians.gap_analysis

        def counting(u):
            checks.append(u.shape)
            require_unitary(u)

        def failing_first(h, tol=None):
            counts.append(analyse(h, tol))
            return counts[-1] if len(counts) > 1 else 1

        monkeypatch.setattr(hamiltonians, "_require_unitary", counting)
        monkeypatch.setattr(hamiltonians, "gap_analysis", failing_first)
        space, seed = BipartiteSpace(2, 3), 8
        build = {"random": random_spectral_hamiltonian, "diagonal": diagonal_product_hamiltonian}
        rng = np.random.default_rng(seed)
        h = with_nondegenerate_gaps(build[builder](space, (0.0, 1.0), rng=rng), (0.0, 1.0), rng)
        assert counts == [0, 0] and checks == []

        # The stream of the resampling builds: the basis once, then d uniforms per draw.
        rng = np.random.default_rng(seed)
        basis = haar_random_unitary(6, rng) if builder == "random" else None
        rng.uniform(0.0, 1.0, size=6)
        assert np.array_equal(h.energies, np.sort(rng.uniform(0.0, 1.0, size=6)))
        if basis is None:
            assert h.eigenbasis is None
        else:
            assert np.array_equal(h.eigenbasis, basis)

    def test_resample_error_names_the_failed_draws(self, monkeypatch):
        # At d = 512 every draw fails the check at the default tolerance, so
        # the redraw step gives up; the error names the hypothesis, d, the
        # attempts, tol and the last draw's violation count.
        monkeypatch.setattr(hamiltonians, "RESAMPLE_LIMIT", 2)
        rng = np.random.default_rng(0)
        h = random_spectral_hamiltonian(BipartiteSpace(2, 256), (0.0, 1.0), rng=rng)
        with pytest.raises(DegenerateHamiltonianError) as caught:
            with_nondegenerate_gaps(h, (0.0, 1.0), rng)
        rng = np.random.default_rng(0)
        basis = haar_random_unitary(512, rng)
        rng.uniform(0.0, 1.0, size=512)
        e = np.sort(rng.uniform(0.0, 1.0, 512))
        last = gap_analysis(SpectralHamiltonian.trusted(e, basis))
        assert last > 0
        message = str(caught.value)
        assert message.startswith("non-degenerate gaps: ")
        assert "d = 512 in 2 attempts" in message
        assert f"tol {default_gap_tolerance(e):.3g}" in message
        assert f"the last draw has {last} violations" in message


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
        # The product basis is not stored; its eigenvector blocks are columns of I.
        rng = np.random.default_rng(9)
        h = diagonal_product_hamiltonian(BipartiteSpace(2, 3), (0.0, 1.0), rng=rng)
        assert h.eigenbasis is None and h.diagonal
        assert np.array_equal(eigenbasis(h), np.eye(6))
        for start, stop in [(0, 6), (0, 4), (2, 5), (4, 64)]:
            block = h.eigenvectors(start, stop)
            assert block.dtype == np.complex128
            assert np.array_equal(block, np.eye(6)[:, start:stop])
        assert gap_analysis(h) == 0

    def test_basis_free_constructor_checks_energies(self):
        h = SpectralHamiltonian([0.0, 0.5, 1.0], None)
        assert h.diagonal and h.dim == 3
        assert SpectralHamiltonian.trusted([0.0, 0.5], None).dim == 2
        assert not random_spectral_hamiltonian(
            BipartiteSpace(2, 2), rng=np.random.default_rng(9)
        ).diagonal
        for build in (SpectralHamiltonian, SpectralHamiltonian.trusted):
            with pytest.raises(ValueError):
                build([0.5, 0.0], None)
            with pytest.raises(ValueError):
                build([0.0, np.nan], None)
            with pytest.raises(DimensionMismatchError):
                build(np.zeros((2, 2)), None)

    @pytest.mark.parametrize("shape", [(1, 4), (2, 8), (8, 2), (3, 5)], ids=shape_id)
    def test_methods_equal_the_dense_identity(self, shape):
        # Coefficients, eigenvector blocks and amplitudes are bit-equal to the
        # stored identity; the marginals sum the weights in another order,
        # which moves them by rounding only (at most 1.1e-16 measured here).
        space = BipartiteSpace(*shape)
        rng = np.random.default_rng(12 + sum(shape))
        h = SpectralHamiltonian(np.linspace(0.0, 1.0, space.d), None)
        h_dense = with_dense_basis(h)
        psi = haar_random_state(Subspace.full(space.d), rng)
        assert np.array_equal(h.coefficients(psi), h_dense.coefficients(psi))
        assert h.coefficients(psi) is not psi
        assert np.array_equal(h.eigenvectors(1, 4), h_dense.eigenvectors(1, 4))
        scaled = rng.standard_normal((5, space.d)) + 1j * rng.standard_normal((5, space.d))
        amps = h_dense.amplitudes(scaled, np.empty_like(scaled))
        assert np.array_equal(h.amplitudes(scaled, np.empty((0, space.d), complex)), amps)
        weights = np.abs(psi) ** 2
        for bath in (False, True):
            diagonal = h.marginal(weights, space, bath)
            assert diagonal.dtype == np.complex128
            assert np.count_nonzero(diagonal - np.diag(np.diagonal(diagonal))) == 0
            reference = h_dense.marginal(weights, space, bath)
            assert np.max(np.abs(diagonal - reference)) <= MARGINAL_ROUNDING

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

    @pytest.mark.parametrize("d_b", [8, 32])
    def test_eigh_basis_is_unitary_and_trusted(self, monkeypatch, d_b):
        # LAPACK's eigh returns an orthonormal basis, so the build skips the d³
        # unitarity check, which the basis would pass.
        checks = []
        monkeypatch.setattr(hamiltonians, "_require_unitary", checks.append)
        h, space = spin_bath_hamiltonian(50.0, d_b, np.random.default_rng(13 + d_b))
        u = h.eigenbasis
        assert checks == []
        assert np.max(np.abs(u.conj().T @ u - np.eye(space.d))) <= 1e-12

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            spin_bath_hamiltonian(0.0, 8, np.random.default_rng(0))

    @pytest.mark.parametrize("field", [0.5, 50.0, "largest"])
    @pytest.mark.parametrize("d_b", [2, 3, 16, 32])
    def test_bits_equal_the_kronecker_sum(self, monkeypatch, d_b, field):
        # H assembled in H_int's buffer has the bits of the Kronecker sum, so
        # its eigendecomposition does too, at the strongest admitted field as well.
        if field == "largest":
            field = LARGEST_FIELD[d_b]
            doc = {"experiment": "counterexamples", "d_B": [d_b]}
            runner.ExperimentConfig.from_dict({**doc, "hamiltonian": {"field": field}})
            with pytest.raises(ConfigInvalidError, match="^hamiltonian.field: "):
                runner.ExperimentConfig.from_dict(
                    {**doc, "hamiltonian": {"field": math.nextafter(field, math.inf)}}
                )
        assembled = []

        def recording(m):
            assembled.append(m.copy())
            return hermitian_eigendecomposition(m)

        monkeypatch.setattr(hamiltonians, "hermitian_eigendecomposition", recording)
        h, _ = spin_bath_hamiltonian(field, d_b, np.random.default_rng(d_b))
        oracle = kronecker_sum_spin_bath(field, d_b, np.random.default_rng(d_b))
        (m,) = assembled
        assert same_bits(m, oracle)
        assert np.array_equal(m, m.conj().T)  # exactly Hermitian, up to the sign of zero
        eig = hermitian_eigendecomposition(oracle)
        assert same_bits(h.energies, eig.eigenvalues)
        assert same_bits(h.eigenbasis, eig.eigenvectors)

    def test_memory(self):
        # Live at the peak: H (assembled in H_int's buffer), H_B (a quarter of
        # H) and two d × d temporaries of the eigendecomposition (a − a† or
        # a + a† and its half, or the Hermitized copy and the eigenvectors):
        # 3.25 complex d × d arrays. O(d) vectors and one ufunc buffer of
        # 8192 complex numbers come on top. The Kronecker sum held a fourth.
        d_b = 128
        d = 2 * d_b
        spin_bath_hamiltonian(50.0, d_b, np.random.default_rng(0))  # warm numpy's caches
        tracemalloc.start()
        try:
            spin_bath_hamiltonian(50.0, d_b, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * (3.25 * d * d + 16 * d + 8192), peak / (16 * d * d)

