"""Experiment runner: config validation, determinism, output schemas, CLI."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

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


# Configs whose run would crash, or whose field would mean nothing: each is
# refused by validate(), which names the field.
UNRUNNABLE = [
    ("hamiltonian.window", {"hamiltonian": {"window": [1, 0]}}),
    ("hamiltonian.field", {"experiment": "counterexamples", "hamiltonian": {"field": 0}}),
    ("hamiltonian.name", {"experiment": "counterexamples", "hamiltonian": {"name": "foo"}}),
    ("time_sampling.t_max_factor", {"time_sampling": {"t_max_factor": math.nan, "n_samples": 200}}),
    ("trials", {"trials": 2.5}),
    ("epsilon", {"epsilon": math.nan}),
]


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

    @pytest.mark.parametrize("field, overrides", UNRUNNABLE, ids=[f for f, _ in UNRUNNABLE])
    def test_unrunnable_field(self, field, overrides):
        with pytest.raises(ConfigInvalidError, match=f"^{field}: "):
            small_config(**overrides)

    @pytest.mark.parametrize("field, dims", [("d_S", {"d_S": 1}), ("d_B", {"d_B": [4, 1]})])
    def test_counterexamples_dimensions(self, field, dims):
        # The diagonal model needs two system basis states, the spin bath two
        # bath levels; below that the run would crash or read as a violation.
        with pytest.raises(ConfigInvalidError, match=f"^{field}: counterexamples"):
            small_config(experiment="counterexamples", **dims)

    @pytest.mark.parametrize("experiment", [e for e in EXPERIMENTS if e != "identities"])
    def test_one_level_space_rejected(self, experiment):
        # Every experiment but identities builds a Hamiltonian, and no
        # one-level Hamiltonian passes the gap check.
        with pytest.raises(ConfigInvalidError, match="^d_B: "):
            small_config(experiment=experiment, d_S=1, d_B=[4, 1])

    def test_identities_admit_one_level_space(self):
        assert small_config(experiment="identities", d_S=1, d_B=[1]).d_B == (1,)

    def test_scalar_d_b_coerced(self):
        cfg = small_config(d_B=16)
        assert cfg.d_B == (16,)

    def test_config_hash_stable(self):
        assert small_config().config_hash() == small_config().config_hash()
        assert small_config().config_hash() != small_config(master_seed=8).config_hash()


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


PINNED_ROWS = Path(__file__).with_name("pinned_rows.csv")
PINNED_CONFIGS = {
    "thm1": {"d_B": [4]},
    "thm2": {"d_B": [8], "trials": 3},
    "thm3-bath": {"d_B": [4], "trials": 3},
    "thm3-subsystem": {"d_S": 1, "d_B": [4], "trials": 3},
    "thm4": {"d_B": [4]},
    "counterexamples": {"d_B": [4], "trials": 1},
    "identities": {"d_B": [2], "trials": 1},
}


def pinned_records(experiment):
    """The rows of the experiment's tiny config; tests/pinned_rows.csv holds
    emit()'s CSV of these for every experiment in PINNED_CONFIGS order."""
    doc = {
        "experiment": experiment, "d_S": 2, "trials": 2, "master_seed": 7,
        "time_sampling": {"t_max_factor": 1e3, "n_samples": 50},
        **PINNED_CONFIGS[experiment],
    }
    return run_experiment(ExperimentConfig.from_dict(doc))


@pytest.mark.parametrize("experiment", list(PINNED_CONFIGS))
def test_pinned_rows(experiment):
    """Rows match the pinned fixture: quantity, trial, seed and satisfied
    exactly; empirical and bound to a relative 1e-9, with an absolute 1e-12
    for the values that measure an exact zero at rounding level."""
    with open(PINNED_ROWS) as fh:
        expected = [row for row in csv.DictReader(fh) if row["experiment"] == experiment]
    records = pinned_records(experiment)
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

    @pytest.mark.parametrize(
        "experiment, subspace_spec",
        [("thm2", "full"), ("thm3-bath", "product-fixed-system")],
    )
    def test_parallel_matches_serial(self, experiment, subspace_spec):
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
        h_ref = random_spectral_hamiltonian(space, (0.0, 1.0), shared)
        psi_s = haar_random_state(Subspace.full(2), shared)
        assert np.array_equal(h.energies, h_ref.energies)
        assert np.array_equal(h.eigenbasis, h_ref.eigenbasis)
        assert np.array_equal(sub.basis, Subspace.fixed_system(psi_s, space).basis)


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

    @pytest.mark.parametrize("field, overrides", UNRUNNABLE, ids=[f for f, _ in UNRUNNABLE])
    def test_unrunnable_field_exits_1(self, tmp_path, capsys, field, overrides):
        cfg = self.write_config(tmp_path, **overrides)
        assert main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {field}: ")

    @pytest.mark.parametrize("dims", [{"d_S": 1}, {"d_B": [1]}])
    def test_unrunnable_counterexamples_exit_1(self, tmp_path, dims):
        cfg = self.write_config(tmp_path, experiment="counterexamples", **dims)
        assert main(["run", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("experiment", ["thm1", "thm2", "thm3-bath", "thm4"])
    def test_one_level_space_exits_1(self, tmp_path, experiment):
        cfg = self.write_config(tmp_path, experiment=experiment, d_S=1, d_B=[1])
        assert main(["run", "--config", str(cfg)]) == 1

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
