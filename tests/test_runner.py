"""Experiment runner: config validation, determinism, output schemas, CLI."""

from __future__ import annotations

import csv
import dataclasses
import importlib
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import eqlab
from eqlab import dynamics, hamiltonians, runner, verifiers
from eqlab.bipartite import BipartiteSpace
from eqlab.cli import main
from eqlab.errors import ConfigInvalidError
from eqlab.hamiltonians import random_spectral_hamiltonian
from eqlab.runner import (
    AGGREGATE_TRIAL,
    CSV_HEADER,
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentRecord,
    all_bounds_satisfied,
    derive_seed,
    emit,
    run_experiment,
    splitmix64,
)
from eqlab.states import Subspace, haar_random_state
from oracles import DenseSubspace
from test_config_fields import LARGEST_FIELD


def load_records(path):
    return [ExperimentRecord(**row) for row in json.loads(path.read_text())]


def strip_walltime(records):
    return [dataclasses.replace(r, wall_ms=0.0) for r in records]


def small_config(**overrides) -> ExperimentConfig:
    doc = {
        "experiment": "thm1",
        "d_S": 2,
        "d_B": [8],
        "trials": 3,
        "time_sampling": {"t_max_factor": 1e3, "n_samples": 200},
        "master_seed": 7,
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


class TestSeedDerivation:
    def test_splitmix64_reference_vector(self):
        # Known output of the splitmix64 finalizer for state 0.
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_derive_seed_deterministic_and_distinct(self):
        a = derive_seed(7, 0, 0)
        assert a == derive_seed(7, 0, 0)
        seeds = {derive_seed(7, s, t) for s in range(3) for t in range(100)}
        assert len(seeds) == 300

    def test_fits_64_bits(self):
        assert 0 <= derive_seed(2**64 - 1, 5, 9) < 2**64


# The largest accepted |window|: hi − lo = max at [−HALF_MAX, HALF_MAX];
# ABOVE_HALF_MAX is the next float above HALF_MAX.
HALF_MAX = sys.float_info.max / 2
ABOVE_HALF_MAX = math.nextafter(HALF_MAX, math.inf)
# Configs whose run would crash, or whose field would mean nothing: each is
# refused by validate(), which names the field. A case is keyed by the field,
# or by "field=value" where a field has more than one case. The integer
# fields take a JSON integer only: a float would be truncated or crash the
# seed mixer, and JSON true/false load as bools, which Python counts as ints.
UNRUNNABLE = {
    "hamiltonian.window": {"hamiltonian": {"window": [1, 0]}},
    "hamiltonian.field": {"experiment": "counterexamples", "hamiltonian": {"field": 0}},
    "hamiltonian.name": {"experiment": "counterexamples", "hamiltonian": {"name": "foo"}},
    "time_sampling.t_max_factor": {"time_sampling": {"t_max_factor": math.nan, "n_samples": 200}},
    "trials": {"trials": 2.5},
    "trials=true": {"trials": True},
    "epsilon": {"epsilon": math.nan},
    "d_S=2.5": {"d_S": 2.5},
    "d_S=true": {"d_S": True},
    "d_B=8.5": {"d_B": [8.5]},
    "d_B=true": {"d_B": [8, True]},
    "master_seed=7.5": {"master_seed": 7.5},
    "master_seed=true": {"master_seed": True},
    "time_sampling.n_samples=50.7": {"time_sampling": {"t_max_factor": 1e3, "n_samples": 50.7}},
    "time_sampling.n_samples=500.0": {"time_sampling": {"t_max_factor": 1e3, "n_samples": 500.0}},
    "thresholds_K=a": {"thresholds_K": ["a"]},
    "thresholds_K=5": {"thresholds_K": 5},
    "thresholds_K=true": {"thresholds_K": [True]},
    "thresholds_K=-1": {"thresholds_K": [-1]},
    # Thresholds whose rows would share the name exceed_fraction_K2.
    "thresholds_K=[2.0000001,2.0000002,2]": {"thresholds_K": [2.0000001, 2.0000002, 2]},
    "thresholds_K=[2,2]": {"thresholds_K": [2, 2]},
    "epsilon=true": {"epsilon": True},
    "hamiltonian.window=true": {"hamiltonian": {"window": [0, True]}},
    "time_sampling=5": {"time_sampling": 5},
    "hamiltonian.windw": {"hamiltonian": {"windw": [0, 5]}},
    "time_sampling.n_sample": {
        "time_sampling": {"t_max_factor": 1e3, "n_samples": 200, "n_sample": 7}
    },
    # JSON integers beyond float range, which math.isfinite cannot convert.
    "epsilon=1e400": {"epsilon": 10**400},
    "hamiltonian.window=1e400": {"hamiltonian": {"window": [0, 10**400]}},
    "thresholds_K=1e400": {"thresholds_K": [2, 10**400]},
    "time_sampling.t_max_factor=1e400": {
        "time_sampling": {"t_max_factor": 10**400, "n_samples": 200}
    },
    "hamiltonian.field=1e400": {"experiment": "counterexamples", "hamiltonian": {"field": 10**400}},
    # Finite values whose run would overflow or fail by rounding: the energies
    # are drawn as lo + (hi − lo)·U, just outside the widest window; at fields
    # this strong the spin-bath energy difference, 2E ± 4, is lost to the
    # rounding of its sum. tests/test_config_fields.py walks the field's limit.
    "hamiltonian.window=[-1e308,1e308]": {"hamiltonian": {"window": [-1e308, 1e308]}},
    "hamiltonian.window=width": {"hamiltonian": {"window": [-HALF_MAX, ABOVE_HALF_MAX]}},
    "hamiltonian.field=1e308": {"experiment": "counterexamples", "hamiltonian": {"field": 1e308}},
    "hamiltonian.field=max": {
        "experiment": "counterexamples", "hamiltonian": {"field": ABOVE_HALF_MAX}
    },
    "hamiltonian.field=1e16": {
        "experiment": "counterexamples", "d_B": [2], "hamiltonian": {"field": 1e16}
    },
    # The output files are named <output_path>.csv and .json.
    "output_path=5": {"output_path": 5},
    "output_path=''": {"output_path": ""},
}


class TestConfigValidation:
    def test_zero_trials(self):
        with pytest.raises(ConfigInvalidError, match="trials"):
            small_config(trials=0)

    def test_unknown_field(self):
        with pytest.raises(ConfigInvalidError, match="unknown config fields"):
            small_config(bogus=1)

    def test_missing_experiment(self):
        with pytest.raises(ConfigInvalidError, match="experiment"):
            ExperimentConfig.from_dict({"d_S": 2})

    def test_unknown_experiment(self):
        with pytest.raises(ConfigInvalidError, match="experiment"):
            small_config(experiment="thm9")

    @pytest.mark.parametrize("case", UNRUNNABLE)
    def test_unrunnable_field(self, case):
        field = case.split("=")[0]
        with pytest.raises(ConfigInvalidError, match=f"^{field}: "):
            small_config(**UNRUNNABLE[case])

    @pytest.mark.parametrize("field, dims", [("d_S", {"d_S": 1}), ("d_B", {"d_B": [4, 1]})])
    def test_counterexamples_dimensions(self, field, dims):
        # The diagonal model needs two system basis states, the spin bath two
        # bath levels; below that the run would crash or read as a violation.
        with pytest.raises(ConfigInvalidError, match=f"^{field}: counterexamples"):
            small_config(experiment="counterexamples", **dims)

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "identities"])
    def test_one_level_space_rejected(self, experiment):
        # The rule holds for every experiment but identities: a one-level
        # Hamiltonian has no gap (thm1, thm4) and no level spacing (thm3).
        with pytest.raises(ConfigInvalidError, match="^d_B: "):
            small_config(experiment=experiment, d_S=1, d_B=[4, 1])

    @pytest.mark.parametrize("doc", [[{}], 5, None, "experiment", []], ids=repr)
    def test_document_that_is_not_an_object(self, doc):
        with pytest.raises(ConfigInvalidError, match="^config document: must be an object"):
            ExperimentConfig.from_dict(doc)

    def test_identities_admit_one_level_space(self):
        assert small_config(experiment="identities", d_S=1, d_B=[1]).d_B == (1,)

    def test_scalar_d_b_coerced(self):
        cfg = small_config(d_B=16)
        assert cfg.d_B == (16,)

    @pytest.mark.parametrize("d_b", [True, "abc", 8.5, {}], ids=repr)
    def test_d_b_refused_as_written(self, d_b):
        # Only one integer reads as a list of one; any other value that is
        # not a list is refused and quoted as the config wrote it.
        with pytest.raises(ConfigInvalidError, match="^d_B: ") as caught:
            small_config(d_B=d_b)
        assert str(caught.value).endswith(f", got {d_b!r}")

    def test_config_hash_stable(self):
        assert small_config().config_hash() == small_config().config_hash()
        assert small_config().config_hash() != small_config(master_seed=8).config_hash()
        # Integer thresholds read as the floats they stand for.
        assert small_config(thresholds_K=[2, 5, 10]).config_hash() == small_config().config_hash()

    def test_default_config_hash_pinned(self):
        # The run defaults are read from dynamics and verifiers; a config that
        # leaves them out hashes as it did when they were spelt out here.
        assert ExperimentConfig(experiment="thm1").config_hash() == "59023b2344309e66"


@pytest.fixture(scope="module")
def thm1_records():
    return run_experiment(small_config())


class TestRunExperiment:
    def test_row_counts(self, thm1_records):
        # Per trial: 2 distance bounds + 2 subadditivity checks + 3 exceed
        # fractions; plus one aggregate row per sweep point.
        trial_rows = [r for r in thm1_records if r.trial >= 0]
        agg_rows = [r for r in thm1_records if r.trial == -1]
        assert len(trial_rows) == 3 * 7
        assert len(agg_rows) == 1

    def test_all_bounds_satisfied(self, thm1_records):
        assert all_bounds_satisfied(thm1_records)

    def test_deterministic(self, thm1_records):
        # Everything except the measured wall time is reproducible.
        again = run_experiment(small_config())
        assert strip_walltime(again) == strip_walltime(thm1_records)

    def test_parallel_matches_serial(self, thm1_records):
        parallel = run_experiment(small_config(), workers=2)
        assert strip_walltime(parallel) == strip_walltime(thm1_records)

    def test_sweep_points_independent(self):
        records = run_experiment(small_config(d_B=[4, 8], trials=2))
        assert {r.d_B for r in records} == {4, 8}

    def test_thm2_aggregate(self):
        cfg = small_config(experiment="thm2", d_B=[8], trials=40)
        records = run_experiment(cfg)
        agg = {r.quantity: r for r in records if r.trial == -1}
        assert agg["mean_d_eff"].satisfied
        assert agg["tail_frequency"].empirical == 0.0

    def test_thm3_aggregate(self):
        cfg = small_config(
            experiment="thm3-bath", subspace_spec="product-fixed-system",
            d_B=[8], trials=40,
        )
        records = run_experiment(cfg)
        agg = {r.quantity: r for r in records if r.trial == -1}
        assert agg["mean_distance_weak_bound"].satisfied
        assert agg["mean_distance_delta_bound"].satisfied
        assert 0.5 <= agg["delta"].empirical <= 1.0

    def test_counterexamples(self):
        cfg = small_config(experiment="counterexamples", d_B=[8], trials=1)
        records = run_experiment(cfg)
        assert all_bounds_satisfied(records)

    def test_counterexamples_imbalance_rounding(self):
        # At master seed 7 some trials compute D(ω_a, ω_b) a few ulp below
        # the population imbalance it equals exactly; the check's rounding
        # allowance must absorb that.
        cfg = small_config(
            experiment="counterexamples", d_B=[16], trials=4,
            time_sampling={"t_max_factor": 1e3, "n_samples": 500},
        )
        records = run_experiment(cfg)
        assert all(r.satisfied for r in records)

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_refused(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(small_config(trials=1), workers=workers)

    def test_field_default(self):
        # A config that leaves hamiltonian.field out runs at its FIELDS default.
        base = {"experiment": "counterexamples", "d_B": [4], "trials": 1}
        field = runner.FIELDS["hamiltonian.field"].default
        left_out = run_experiment(small_config(**base))
        given = run_experiment(small_config(**base, hamiltonian={"field": field}))
        assert strip_walltime(left_out) == strip_walltime(given)

    def test_identities(self):
        cfg = small_config(experiment="identities", d_B=[4], trials=1)
        records = run_experiment(cfg)
        assert all_bounds_satisfied(records)

    def test_thm3_delta_rounding(self):
        # δ ≤ 1 holds exactly, but at d_S = 1 and master seed 7 it is computed
        # as 1.0000000000000002; the row's rounding allowance must absorb that.
        cfg = small_config(
            experiment="thm3-subsystem", subspace_spec="product-fixed-bath",
            d_S=1, d_B=[4], trials=3,
        )
        agg = {r.quantity: r for r in run_experiment(cfg) if r.trial == AGGREGATE_TRIAL}
        assert agg["delta"].satisfied
        assert agg["delta"].bound == 1.0 + verifiers.DELTA_ALLOWANCE

    def test_gap_check_once_per_hamiltonian(self, monkeypatch):
        checked = []
        analyse = hamiltonians.gap_analysis

        def counting(h, tol=None):
            checked.append(h)
            return analyse(h, tol)

        for module in (hamiltonians, dynamics, verifiers):
            if getattr(module, "gap_analysis", None) is analyse:
                monkeypatch.setattr(module, "gap_analysis", counting)
        run_experiment(small_config(trials=1))
        assert checked
        assert len({id(h) for h in checked}) == len(checked)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_smallest_trials_and_samples(experiment, tmp_path):
    """Every registered experiment runs at trials=1 and n_samples=2, the
    smallest values the validator accepts, and emits the fixed schema.

    Whether the rows pass is not asserted: thm4's ks_statistic gate is a
    fixed 0.05 whatever the sample size, so it fails at n_samples=2.
    """
    cfg = small_config(
        experiment=experiment, d_B=[2], trials=1,
        time_sampling={"t_max_factor": 1e3, "n_samples": 2},
    )
    records = run_experiment(cfg)
    assert {r.trial for r in records} <= {0, AGGREGATE_TRIAL}
    assert any(r.trial == AGGREGATE_TRIAL for r in records)
    for r in records:
        assert (r.experiment, r.d_S, r.d_B) == (experiment, 2, 2)
        assert math.isfinite(r.empirical) and math.isfinite(r.bound)
        assert isinstance(r.satisfied, bool)
    path = tmp_path / "out.csv"
    emit(records, "csv", str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_HEADER.split(",")
    assert all(len(row) == len(rows[0]) for row in rows)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_written_check_has_a_finite_margin(experiment, monkeypatch):
    """No row is hard-wired to pass: every check the runner writes compares a
    value with a bound, and every aggregate row carries the shared stream's seed."""
    written = []
    records_of = runner._records

    def capturing(cfg, d_b, d_r, trial, seed, checks, wall_ms):
        written.extend(checks.items())
        return records_of(cfg, d_b, d_r, trial, seed, checks, wall_ms)

    monkeypatch.setattr(runner, "_records", capturing)
    cfg = small_config(
        experiment=experiment, d_B=[4], trials=3,
        time_sampling={"t_max_factor": 1e3, "n_samples": 50},
    )
    records = run_experiment(cfg)
    assert [name for name, _ in written] == [r.quantity for r in records]
    assert [name for name, chk in written if not math.isfinite(chk.margin)] == []
    shared_seed = derive_seed(7, 0, runner._SHARED_STREAM)
    assert {r.seed for r in records if r.trial == AGGREGATE_TRIAL} == {shared_seed}


@pytest.mark.parametrize("experiment", ["thm3-bath", "thm3-subsystem"])
def test_thm3_writes_only_sweep_rows(experiment):
    records = run_experiment(small_config(experiment=experiment, d_B=[4, 8], trials=3))
    assert {r.trial for r in records} == {AGGREGATE_TRIAL}
    quantities = ["mean_distance_weak_bound", "mean_distance_delta_bound", "delta"]
    assert [r.quantity for r in records] == quantities * 2


PINNED_ROWS = Path(__file__).with_name("pinned_rows.csv")
PINNED_CONFIGS = {
    "thm1": {"d_B": [4]},
    "thm2": {"d_B": [8], "trials": 3},
    "thm3-bath": {"d_B": [4], "trials": 3},
    "thm3-subsystem": {"d_S": 1, "d_B": [4], "trials": 3},
    "thm4": {"d_B": [4]},
    "counterexamples": {"d_B": [4], "trials": 1},
    "identities": {"d_B": [2], "trials": 1},
    # d_S ≠ 2: the distances come from ρ_S and `trace_distance`, not the qubit closed form.
    "thm1-d3": {"experiment": "thm1", "d_S": 3, "d_B": [8]},
    "thm4-d3": {"experiment": "thm4", "d_S": 3, "d_B": [8]},
}


def pinned_records(name):
    """The rows of a tiny config, named by its experiment unless it sets one;
    tests/pinned_rows.csv holds emit()'s CSV of these for every entry in
    PINNED_CONFIGS order."""
    doc = {
        "experiment": name, "d_S": 2, "trials": 2, "master_seed": 7,
        "time_sampling": {"t_max_factor": 1e3, "n_samples": 50},
        **PINNED_CONFIGS[name],
    }
    return run_experiment(ExperimentConfig.from_dict(doc))


def assert_pinned(records):
    """Rows match the pinned fixture, found by experiment and d_S: quantity,
    trial, seed and satisfied exactly; empirical and bound to a relative
    1e-9, with an absolute 1e-12 for the values that measure an exact zero at
    rounding level."""
    key = (records[0].experiment, str(records[0].d_S))
    with open(PINNED_ROWS) as fh:
        expected = [row for row in csv.DictReader(fh) if (row["experiment"], row["d_S"]) == key]
    assert len(records) == len(expected)
    for rec, row in zip(records, expected):
        assert (rec.quantity, rec.trial, rec.seed) == (
            row["quantity"], int(row["trial"]), int(row["seed"])
        )
        assert rec.satisfied == (row["satisfied"] == "true"), rec.quantity
        for key in ("empirical", "bound"):
            assert math.isclose(
                getattr(rec, key), float(row[key]), rel_tol=1e-9, abs_tol=1e-12
            ), (rec.quantity, key)


@pytest.mark.parametrize("name", list(PINNED_CONFIGS))
def test_pinned_rows(name):
    assert_pinned(pinned_records(name))


@pytest.mark.parametrize("name", ["thm2", "thm3-bath", "thm3-subsystem", "counterexamples"])
def test_pinned_rows_without_the_gap_check(name, monkeypatch):
    # Only Theorems 1 and 4 assume non-degenerate gaps; no other row reads the check.
    def refused(h, tol=None):
        raise AssertionError(f"gap check on the {name} path")

    monkeypatch.setattr(hamiltonians, "gap_analysis", refused)
    assert_pinned(pinned_records(name))


@pytest.fixture
def hamiltonian_builds(monkeypatch):
    """Energies of every shared Hamiltonian the runner builds, in order."""
    built = []
    build = runner.random_spectral_hamiltonian

    def counting(*args, **kwargs):
        h = build(*args, **kwargs)
        built.append(h.energies)
        return h

    runner._sweep_shared.cache_clear()
    monkeypatch.setattr(runner, "random_spectral_hamiltonian", counting)
    return built


class TestSharedPerSweep:
    @pytest.mark.parametrize(
        "experiment, subspace_spec",
        [("thm2", "full"), ("thm3-subsystem", "product-fixed-bath"), ("thm4", "full")],
    )
    def test_built_once_per_sweep(self, hamiltonian_builds, experiment, subspace_spec):
        cfg = small_config(
            experiment=experiment, subspace_spec=subspace_spec, d_B=[4, 8], trials=5
        )
        run_experiment(cfg)
        assert [e.size for e in hamiltonian_builds] == [8, 16]
        assert runner._sweep_shared.cache_info().currsize == 0  # released after the run

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_parallel_matches_serial(self, experiment):
        subspace_spec = {
            "thm3-bath": "product-fixed-system", "thm3-subsystem": "product-fixed-bath"
        }.get(experiment, "full")
        cfg = small_config(
            experiment=experiment, subspace_spec=subspace_spec, d_B=[4, 8], trials=5
        )
        serial = run_experiment(cfg)
        parallel = run_experiment(cfg, workers=2)
        assert strip_walltime(parallel) == strip_walltime(serial)

    def test_memo_keyed_on_seed(self, hamiltonian_builds):
        a = run_experiment(small_config(experiment="thm2", trials=3, master_seed=7))
        b = run_experiment(small_config(experiment="thm2", trials=3, master_seed=8))
        assert len(hamiltonian_builds) == 2
        assert not np.array_equal(hamiltonian_builds[0], hamiltonian_builds[1])
        assert [r.empirical for r in a] != [r.empirical for r in b]

    def test_matches_shared_stream(self):
        # The memoised objects are exactly what the shared stream draws.
        cfg = small_config(experiment="thm3-bath", subspace_spec="product-fixed-system")
        h, sub = runner._sweep_shared(cfg.canonical_json(), 0)
        shared = runner._shared_rng(cfg, 0)
        space = BipartiteSpace(2, 8)
        h_ref = random_spectral_hamiltonian(space, (0.0, 1.0), rng=shared)
        psi_s = haar_random_state(Subspace.full(2), shared)
        assert np.array_equal(h.energies, h_ref.energies)
        assert np.array_equal(h.eigenbasis, h_ref.eigenbasis)
        assert sub.side == "system" and np.array_equal(sub.pinned, psi_s)


class TestStructuredSubspaces:
    @pytest.mark.parametrize(
        "experiment, subspace_spec",
        [
            ("thm2", "product-fixed-system"),
            ("thm2", "product-fixed-bath"),
            ("thm3-bath", "full"),
            ("thm3-subsystem", "full"),
        ],
    )
    @pytest.mark.parametrize("d_s, d_b", [(2, [4, 8]), (4, [2])])
    def test_rows_match_dense_oracle(self, monkeypatch, experiment, subspace_spec, d_s, d_b):
        # The same run with every subspace replaced by its dense basis form,
        # built from the same pinned vector and so from the same rng calls.
        cfg = small_config(
            experiment=experiment, subspace_spec=subspace_spec, d_S=d_s, d_B=d_b, trials=5
        )
        structured = run_experiment(cfg)
        build = runner._build_subspace

        def dense_build(spec, space, rng):
            return DenseSubspace.of(build(spec, space, rng), space)

        monkeypatch.setattr(runner, "_build_subspace", dense_build)
        dense_rows = run_experiment(cfg)
        assert len(structured) == len(dense_rows) > 0
        for a, b in zip(strip_walltime(structured), strip_walltime(dense_rows)):
            moved = dict(empirical=b.empirical, bound=b.bound)
            assert dataclasses.replace(a, **moved) == b
            assert a.empirical == pytest.approx(b.empirical, rel=1e-12, abs=0)
            assert a.bound == pytest.approx(b.bound, rel=1e-12, abs=0)


@pytest.fixture(scope="module")
def records():
    return run_experiment(small_config(trials=2))


class TestEmit:
    def test_csv_header_and_literals(self, records, tmp_path):
        path = tmp_path / "out.csv"
        emit(records, "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(records) + 1
        for line in lines[1:]:
            satisfied = line.split(",")[9]
            assert satisfied in ("true", "false")

    def test_csv_byte_identical_rerun(self, tmp_path):
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_experiment(small_config(trials=2)), "csv", str(pa))
        emit(run_experiment(small_config(trials=2)), "csv", str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_csv_17_significant_digits(self, records, tmp_path):
        path = tmp_path / "out.csv"
        emit(records, "csv", str(path))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        for row, rec in zip(rows, records):
            assert float(row["empirical"]) == rec.empirical
            assert float(row["bound"]) == rec.bound

    def test_json_round_trip(self, records, tmp_path):
        path = tmp_path / "out.json"
        emit(records, "json", str(path))
        loaded = load_records(path)
        assert [r.quantity for r in loaded] == [r.quantity for r in records]
        assert [r.empirical for r in loaded] == [r.empirical for r in records]
        assert [r.satisfied for r in loaded] == [r.satisfied for r in records]

    def test_walltime_zeroed_by_default(self, records, tmp_path):
        path = tmp_path / "out.json"
        emit(records, "json", str(path))
        assert all(r.wall_ms == 0.0 for r in load_records(path))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            emit([], "csv", "unused.csv")


class TestCli:
    def write_config(self, tmp_path, **overrides):
        doc = {
            "experiment": "thm1",
            "d_S": 2,
            "d_B": [8],
            "trials": 2,
            "time_sampling": {"t_max_factor": 1e3, "n_samples": 200},
            "master_seed": 7,
            "output_path": str(tmp_path / "results"),
        }
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.startswith("eqlab ")

    def test_constants(self, capsys):
        assert main(["constants"]) == 0
        out = capsys.readouterr().out
        assert "c_prime" in out and "c_dprime" in out

    def test_check_identities(self):
        assert main(["check-identities", "--seed", "3"]) == 0

    def test_run_success(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "results.csv").exists()
        assert (tmp_path / "results.json").exists()
        assert "all bounds satisfied" in capsys.readouterr().out

    def test_run_with_override(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "other"
        assert main([
            "run", "--config", str(cfg),
            "--set", f"output_path={out}",
            "--set", "trials=1",
        ]) == 0
        assert (tmp_path / "other.csv").exists()

    def test_bad_config_exits_1(self, tmp_path):
        cfg = self.write_config(tmp_path, trials=0)
        assert main(["run", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("case", UNRUNNABLE)
    def test_unrunnable_field_exits_1(self, tmp_path, capsys, case):
        cfg = self.write_config(tmp_path, **UNRUNNABLE[case])
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {case.split('=')[0]}: ")

    @pytest.mark.parametrize("text", ["[{}]", "5", "null", '"experiment"', "[]"])
    @pytest.mark.parametrize("overrides", [[], ["--set", "trials=1"]], ids=["plain", "--set"])
    def test_document_that_is_not_an_object_exits_1(self, tmp_path, capsys, text, overrides):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["run", "--config", str(path), *overrides]) == 1
        assert capsys.readouterr().err.startswith(f"error: config {str(path)!r}: must be an object")

    @pytest.mark.parametrize(
        "experiment, d_b, hamiltonian",
        [
            ("thm1", 2, {"window": [-HALF_MAX, HALF_MAX]}),
            *(("counterexamples", b, {"field": LARGEST_FIELD[b]}) for b in (2, 16, 64)),
        ],
        ids=["window", "field", "field-d_B16", "field-d_B64"],
    )
    def test_largest_window_and_field_run(self, tmp_path, experiment, d_b, hamiltonian):
        # The widest window runs and passes. At the strongest field the
        # rounding of the conserved spin-bath difference stays within its
        # slack, so both energy rows pass too.
        cfg = self.write_config(
            tmp_path, experiment=experiment, d_B=[d_b], trials=1, hamiltonian=hamiltonian
        )
        assert main(["run", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize(
        "experiment, trials, code",
        [
            ("thm2", 2, 0),
            ("thm3-bath", 2, 0),
            ("thm3-subsystem", 2, 0),
            ("counterexamples", 1, 0),
            ("thm1", 1, 2),
            ("thm4", 1, 2),
        ],
    )
    def test_d512_runs_but_for_the_gap_hypothesis(
        self, tmp_path, capsys, experiment, trials, code
    ):
        # At d = 512 no energy draw tried has non-degenerate gaps: only the
        # claims that assume them, Theorems 1 and 4, stop, and say why.
        cfg = self.write_config(
            tmp_path, experiment=experiment, d_B=[256], trials=trials,
            time_sampling={"t_max_factor": 1e3, "n_samples": 50},
        )
        assert main(["run", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: non-degenerate gaps: ") if code else err == ""

    @pytest.mark.parametrize(
        "experiment, code, message",
        [
            ("thm2", 0, None),
            ("thm3-bath", 2, "distinct levels: "),
            ("thm1", 2, "non-degenerate gaps: no draw passes at d = 16 in 100 attempts"),
            ("thm4", 2, "non-degenerate gaps: no draw passes at d = 16 in 100 attempts"),
        ],
    )
    def test_window_narrower_than_the_levels(self, tmp_path, capsys, experiment, code, message):
        # [0, 5e-324] holds two floats, so every draw at d = 16 repeats a level.
        # thm2 reads the basis alone; thm3 needs distinct levels and stops at
        # its one draw; thm1 and thm4 redraw 100 times for non-degenerate gaps.
        cfg = self.write_config(
            tmp_path, experiment=experiment, hamiltonian={"window": [0.0, 5e-324]}
        )
        assert main(["run", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") if message else err == ""

    def test_readme_override_without_time_sampling(self, tmp_path):
        # A key left out of time_sampling runs at its default, as in hamiltonian.
        cfg = self.write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        del doc["time_sampling"]
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--set", "time_sampling.n_samples=500"]) == 0

    @pytest.mark.parametrize("experiment", ["thm1", "thm4"])
    def test_phase_overflow_exits_1(self, tmp_path, capsys, experiment):
        # t_max·max|E|/2 beyond float range: the half-angles would be inf.
        cfg = self.write_config(
            tmp_path, experiment=experiment, d_B=[2], trials=1,
            time_sampling={"t_max_factor": 1e308, "n_samples": 200},
        )
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: time_sampling.t_max_factor: ")

    @pytest.mark.parametrize("seed, code", [(-1, 1), (0, 0), (2**64 - 1, 0), (2**64, 1)])
    def test_check_identities_seed_range(self, capsys, seed, code):
        # --seed takes master_seed's range, [0, 2^64).
        assert main(["check-identities", "--seed", str(seed)]) == code
        err = capsys.readouterr().err
        assert err == "" if code == 0 else err.startswith("error: --seed: ")

    def test_epsilon_fourth_power_beyond_float_range(self, tmp_path):
        # ε⁴ = 1e400 is no float: the tail bound e^{−c″ε⁴d_eff} reads 0, and
        # no distance exceeds the threshold ε, so the row holds.
        cfg = self.write_config(tmp_path, experiment="thm4", d_B=[4], trials=1, epsilon=1e100)
        assert main(["run", "--config", str(cfg)]) in (0, 2)
        with open(tmp_path / "results.csv") as fh:
            rows = {row["quantity"]: row for row in csv.DictReader(fh)}
        tail = rows["torus_tail_frequency"]
        assert (tail["empirical"], tail["bound"], tail["satisfied"]) == ("0", "0", "true")

    @pytest.mark.parametrize("dims", [{"d_S": 1}, {"d_B": [1]}])
    def test_unrunnable_counterexamples_exit_1(self, tmp_path, dims):
        cfg = self.write_config(tmp_path, experiment="counterexamples", **dims)
        assert main(["run", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("experiment", ["thm1", "thm2", "thm3-bath", "thm4"])
    def test_one_level_space_exits_1(self, tmp_path, experiment):
        cfg = self.write_config(tmp_path, experiment=experiment, d_S=1, d_B=[1])
        assert main(["run", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one_exits_1(self, tmp_path, capsys, workers):
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--workers", workers]) == 1
        assert capsys.readouterr().err.startswith("error: --workers: ")
        assert not (tmp_path / "results.csv").exists()

    def test_bad_output_path_refused_before_any_trial(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "_run_trial", calls.append)
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--set", "output_path=5"]) == 1
        assert capsys.readouterr().err.startswith("error: output_path: ")
        assert calls == []

    def test_bad_max_dimension_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EQLAB_MAX_DIM", "abc")
        assert main(["run", "--config", str(self.write_config(tmp_path))]) == 1
        assert capsys.readouterr().err.startswith("error: EQLAB_MAX_DIM: ")
        assert not (tmp_path / "results.csv").exists()

    def test_failed_write_exits_1(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(runner, "_run_trial", calls.append)
        cfg = self.write_config(tmp_path, output_path=str(tmp_path / "missing" / "results"))
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: failed writing csv output to ")
        assert calls == []

    def test_walltime(self, tmp_path):
        cfg = self.write_config(tmp_path)
        for argv, timed in ([], False), (["--walltime"], True):
            assert main(["run", "--config", str(cfg), *argv]) == 0
            with open(tmp_path / "results.csv") as fh:
                csv_rows = [(int(r["trial"]), float(r["wall_ms"])) for r in csv.DictReader(fh)]
            json_rows = [(r.trial, r.wall_ms) for r in load_records(tmp_path / "results.json")]
            assert csv_rows == json_rows
            trial_walls = [wall for trial, wall in csv_rows if trial != AGGREGATE_TRIAL]
            assert len(trial_walls) == 2 * 7
            if timed:
                assert all(wall > 0 for wall in trial_walls)
            else:
                assert all(wall == 0.0 for _, wall in csv_rows)

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1

    def test_usage_error_exits_1(self):
        assert main(["run"]) == 1

    def test_run_deterministic_csv(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert main(["run", "--config", str(cfg)]) == 0
        first = (tmp_path / "results.csv").read_bytes()
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "results.csv").read_bytes() == first


def test_seed_column_reproduces_trial():
    # Any row's seed rebuilds the exact trial stream.
    cfg = small_config(trials=2)
    records = run_experiment(cfg)
    trial_rows = [r for r in records if r.trial == 1]
    expected = derive_seed(cfg.master_seed, 0, 1)
    assert all(r.seed == expected for r in trial_rows)
    assert isinstance(np.random.default_rng(expected), np.random.Generator)


# perfbench/child.py relies on these: it reads eqlab.__version__ and the
# config hash of each perfbench config for its manifest, and hooks
# runner._run_trial, looked up by name at call time, before it calls
# cli.main(argv). The hashes are those of the committed reference runs.
PERFBENCH_CONFIG_HASHES = {
    "counterexamples-small": "5f1a71c9de22a985",
    "thm1-readme": "27f6cd188d8f6a89",
    "thm2-d256": "d6aeccba930ecd48",
    "thm4-readme": "58e0e3cd835abef7",
}
PERFBENCH_CONFIGS = Path(__file__).parents[1] / "perfbench" / "configs"
# The layers perfbench/spans.py traces that name an eqlab function today. The
# other seven (dephased_time_average, numerical_rank, both partial traces,
# subadditivity_and_bath_checks, theorem4_tail, ergodicity_ks_statistic) are
# not in eqlab, and their per-layer metrics read 0.
TRACED_LAYERS = (
    "linalg.hermitian_eigendecomposition",
    "linalg.haar_random_unitary",
    "hamiltonians.gap_analysis",
    "hamiltonians.random_spectral_hamiltonian",
    "hamiltonians.spin_bath_hamiltonian",
    "hamiltonians.diagonal_product_hamiltonian",
    "dynamics.reduced_states_at_times",
    "dynamics.energy_coefficients",
    "dynamics.require_nondegenerate",
    "states.trace_distance",
    "states.haar_random_state",
    "verifiers.theorem1_check",
    "verifiers.torus_distances",
    "verifiers.d_eff_of_time_average",
    "verifiers.diagonal_counterexample",
    "verifiers.spin_bath_counterexample",
    "runner.run_experiment",
    "runner.emit",
)


class TestPerfbenchContract:
    @pytest.mark.parametrize("name", PERFBENCH_CONFIG_HASHES)
    def test_config_hash(self, name):
        doc = json.loads((PERFBENCH_CONFIGS / f"{name}.json").read_text())
        assert ExperimentConfig.from_dict(doc).config_hash() == PERFBENCH_CONFIG_HASHES[name]

    def test_version_is_str(self):
        assert isinstance(eqlab.__version__, str)

    def test_trajectory_layer_signature(self):
        # perfbench/spans.py wraps dynamics.reduced_states_at_times and reads
        # its first four positional arguments as (c, h, space, times).
        params = list(inspect.signature(dynamics.reduced_states_at_times).parameters)
        assert params[:4] == ["c", "h", "space", "times"]

    def test_traced_layers_resolve(self):
        # perfbench/spans.py, loaded read-only: Tracer.install() indexes
        # sys.modules["eqlab.<module>"] for every module it names, and a
        # layer whose function is gone silently reads 0.
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", PERFBENCH_CONFIGS.parent / "spans.py"
        )
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        layers = spans.layer_names()
        names = {layer.split(".")[0] for layer in layers}
        modules = {name: importlib.import_module(f"eqlab.{name}") for name in names}
        assert set(TRACED_LAYERS) <= set(layers)
        for layer in TRACED_LAYERS:
            module, name = layer.split(".")
            assert callable(getattr(modules[module], name, None)), layer

    def test_run_trial_hook(self, tmp_path, monkeypatch):
        calls = []
        run_trial = runner._run_trial

        def hook(payload):
            calls.append(payload[1:])
            return run_trial(payload)

        monkeypatch.setattr(runner, "_run_trial", hook)
        assert main([
            "run", "--config", str(PERFBENCH_CONFIGS / "thm2-d256.json"),
            "--set", "d_B=[4,8]", "--set", "trials=2",
            "--set", f"output_path={tmp_path / 'results'}",
        ]) == 0
        assert calls == [(0, 0), (0, 1), (1, 0), (1, 1)]
