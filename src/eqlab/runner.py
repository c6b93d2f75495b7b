"""Config-driven experiment suites with seeded, reproducible output.

Each trial derives its own random stream from (master_seed, sweep index,
trial index) through a splitmix64 finalizer, so any single trial can be
reproduced in isolation and parallel execution is order-independent.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np
from numpy.random import default_rng  # numpy loads it lazily; load it with eqlab, not in a trial

from .bipartite import BipartiteSpace
from .dynamics import default_t_max, dephased_marginals, energy_coefficients
from .errors import ConfigInvalidError
from .hamiltonians import random_spectral_hamiltonian
from .states import Subspace, haar_random_state
from .verifiers import (
    KS_STATISTIC_GATE,
    BoundCheck,
    counterexample_demonstrations,
    d_eff_of_time_average,
    delta_quantity,
    ergodicity_ks_statistic,
    identity_checks,
    subadditivity_and_bath_checks,
    theorem1_check,
    theorem2_summary,
    theorem3_summary,
    theorem4_tail,
)

CSV_HEADER = (
    "experiment,d_S,d_B,d_R,trial,seed,quantity,empirical,bound,satisfied,wall_ms"
)

AGGREGATE_TRIAL = -1
_SHARED_STREAM = 0xFFFFFFFF  # trial slot reserved for per-sweep shared objects

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """The splitmix64 finalizer; the published per-trial seed mixer."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, sweep_index: int, trial_index: int) -> int:
    z = splitmix64(master_seed & _MASK64)
    z = splitmix64(z ^ splitmix64(sweep_index & _MASK64))
    return splitmix64(z ^ splitmix64(trial_index & _MASK64))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    d_S: int = 2
    d_B: tuple[int, ...] = (32,)
    subspace_spec: str = "full"
    hamiltonian: dict = field(default_factory=lambda: {"name": "random-spectral", "window": [0.0, 1.0]})
    trials: int = 10
    time_sampling: dict = field(default_factory=lambda: {"t_max_factor": 1e3, "n_samples": 2000})
    thresholds_K: tuple[float, ...] = (2.0, 5.0, 10.0)
    epsilon: float = 0.2
    master_seed: int = 0
    output_path: str = "results"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigInvalidError(f"unknown config fields: {sorted(unknown)}")
        if "experiment" not in doc:
            raise ConfigInvalidError("experiment: field is required")
        merged = dict(doc)
        if "d_B" in merged and isinstance(merged["d_B"], (int, float)):
            merged["d_B"] = (int(merged["d_B"]),)
        elif "d_B" in merged:
            merged["d_B"] = tuple(int(x) for x in merged["d_B"])
        if "thresholds_K" in merged:
            merged["thresholds_K"] = tuple(float(x) for x in merged["thresholds_K"])
        cfg = cls(**merged)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigInvalidError(
                f"experiment: {self.experiment!r} not one of {EXPERIMENTS}"
            )
        if self.d_S < 1:
            raise ConfigInvalidError(f"d_S: must be >= 1, got {self.d_S}")
        if not self.d_B or any(b < 1 for b in self.d_B):
            raise ConfigInvalidError(f"d_B: entries must be >= 1, got {self.d_B}")
        # Every experiment but identities builds a Hamiltonian; the gap check needs d >= 2.
        if self.experiment != "identities" and self.d_S * min(self.d_B) < 2:
            raise ConfigInvalidError(f"d_B: {self.experiment} needs d_S*d_B >= 2: {self.d_B}")
        # The diagonal model compares two system basis states; the spin-bath
        # model needs a bath of at least two levels.
        if self.experiment == "counterexamples" and self.d_S < 2:
            raise ConfigInvalidError(f"d_S: counterexamples needs d_S >= 2, got {self.d_S}")
        if self.experiment == "counterexamples" and min(self.d_B) < 2:
            raise ConfigInvalidError(f"d_B: counterexamples needs entries >= 2, got {self.d_B}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ConfigInvalidError(f"trials: must be an integer >= 1, got {self.trials!r}")
        if self.subspace_spec not in ("full", "product-fixed-system", "product-fixed-bath"):
            raise ConfigInvalidError(f"subspace_spec: unknown value {self.subspace_spec!r}")
        if not _finite(self.epsilon) or self.epsilon <= 0:
            raise ConfigInvalidError(f"epsilon: must be positive and finite, got {self.epsilon!r}")
        for key in ("t_max_factor", "n_samples"):
            if key not in self.time_sampling:
                raise ConfigInvalidError(f"time_sampling.{key}: missing")
        t_max_factor = self.time_sampling["t_max_factor"]
        if not _finite(t_max_factor) or t_max_factor <= 0:
            raise ConfigInvalidError("time_sampling.t_max_factor: must be positive and finite")
        if int(self.time_sampling["n_samples"]) < 2:
            raise ConfigInvalidError("time_sampling.n_samples: must be >= 2")
        # Every experiment's model fields are checked, whether or not it reads them.
        ham = self.hamiltonian
        if not isinstance(ham, dict):
            raise ConfigInvalidError(f"hamiltonian: must be an object, got {ham!r}")
        if ham.get("name", "random-spectral") != "random-spectral":
            raise ConfigInvalidError(f"hamiltonian.name: unknown model {ham['name']!r}")
        window = ham.get("window", [0.0, 1.0])
        if not (
            isinstance(window, (list, tuple)) and len(window) == 2
            and all(_finite(x) for x in window) and window[0] < window[1]
        ):
            raise ConfigInvalidError(f"hamiltonian.window: need finite lo < hi, got {window!r}")
        field_strength = ham.get("field", 1.0)
        if not _finite(field_strength) or field_strength <= 0:
            raise ConfigInvalidError(f"hamiltonian.field: must be positive, got {field_strength!r}")
        for b in self.d_B:
            BipartiteSpace(self.d_S, b)  # raises DimensionOverflow on cap breach
        if not (0 <= self.master_seed <= _MASK64):
            raise ConfigInvalidError("master_seed: must fit in 64 bits")

    def canonical_json(self) -> str:
        """The config as sorted-key JSON that from_dict() reads back."""
        doc = asdict(self)
        doc["d_B"] = list(self.d_B)
        doc["thresholds_K"] = list(self.thresholds_K)
        return json.dumps(doc, sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ExperimentRecord:
    experiment: str
    d_S: int
    d_B: int
    d_R: int
    trial: int
    seed: int
    quantity: str
    empirical: float
    bound: float
    satisfied: bool
    wall_ms: float


def _csv_cell(value):
    """Floats with 17 significant digits, booleans as true/false literals."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.17g" % value if isinstance(value, float) else value


class Row(NamedTuple):
    """Output columns given as they are, not as a BoundCheck: a lower check
    reported with its quantity in the empirical column, or a diagnostic."""

    empirical: float
    bound: float
    satisfied: bool


class TrialResult(NamedTuple):
    """One trial's d_R, its output rows and its payload for the aggregate."""

    d_r: int
    records: list[ExperimentRecord]
    payload: object


def _record(cfg, d_b, d_r, trial, seed, quantity, check, wall_ms) -> ExperimentRecord:
    """The output row of a named BoundCheck or Row."""
    return ExperimentRecord(
        cfg.experiment, cfg.d_S, d_b, d_r, trial, seed, quantity,
        float(check.empirical), float(check.bound), bool(check.satisfied), wall_ms,
    )


def _shared_rng(cfg: ExperimentConfig, sweep_index: int) -> np.random.Generator:
    return default_rng(derive_seed(cfg.master_seed, sweep_index, _SHARED_STREAM))


def _build_hamiltonian(cfg: ExperimentConfig, space: BipartiteSpace, rng):
    window = tuple(cfg.hamiltonian.get("window", (0.0, 1.0)))
    return random_spectral_hamiltonian(space, window, rng)


def _build_subspace(spec: str, space: BipartiteSpace, rng) -> Subspace:
    if spec == "full":
        return Subspace.full(space.d)
    if spec == "product-fixed-system":
        psi = haar_random_state(Subspace.full(space.d_S), rng)
        return Subspace.fixed_system(psi, space)
    psi = haar_random_state(Subspace.full(space.d_B), rng)
    return Subspace.fixed_bath(psi, space)


@lru_cache(maxsize=1)
def _sweep_shared(cfg_json: str, sweep_index: int) -> tuple:
    """The sweep's shared (H, subspace), built once per sweep and process.

    Both come from the shared stream of (master_seed, sweep_index), so every
    trial and every worker sees the same objects. The subspace is None where
    the experiment draws it per trial (thm4). Callers must not modify the
    returned arrays: later trials of the sweep receive the same objects.
    run_experiment clears the memo when it returns.
    """
    cfg = ExperimentConfig.from_dict(json.loads(cfg_json))
    space = BipartiteSpace(cfg.d_S, cfg.d_B[sweep_index])
    shared = _shared_rng(cfg, sweep_index)
    h = _build_hamiltonian(cfg, space, shared)
    # thm3-bath fixes the system's state, thm3-subsystem the bath's.
    spec = {
        "thm2": cfg.subspace_spec,
        "thm3-bath": "product-fixed-system",
        "thm3-subsystem": "product-fixed-bath",
    }.get(cfg.experiment)
    return h, None if spec is None else _build_subspace(spec, space, shared)


# ---------------------------------------------------------------------------
# The experiment registry. A trial function maps (cfg, space, rng, shared) to
# (d_R, named checks, payload); an aggregate function maps (cfg, space, the
# sweep's TrialResults in trial order, shared) to (trial, quantity, check)
# rows, where trial is AGGREGATE_TRIAL for the sweep's own rows. shared()
# returns the sweep's memoised (H, subspace). Verifiers are called through
# this module's names.


def _n_samples(cfg: ExperimentConfig) -> int:
    return int(cfg.time_sampling["n_samples"])


def _t_max(cfg: ExperimentConfig, h) -> float:
    return default_t_max(h, float(cfg.time_sampling["t_max_factor"]))


def _thm1_trial(cfg, space, rng, shared):
    h = _build_hamiltonian(cfg, space, rng)
    psi0 = haar_random_state(_build_subspace(cfg.subspace_spec, space, rng), rng)
    t_max = _t_max(cfg, h)
    res = theorem1_check(
        psi0, h, space, t_max, _n_samples(cfg), thresholds=cfg.thresholds_K, rng=rng
    )
    sub = subadditivity_and_bath_checks(psi0, h, space, t_max=t_max, rng=rng)
    checks = [
        ("mean_distance_bath_bound", res.bath_check),
        ("mean_distance_total_bound", res.total_check),
        ("renyi_subadditivity", sub.renyi_check),
        ("bath_deff_max", sub.bath_deff_check),
    ]
    checks += [
        (f"exceed_fraction_K{k:g}", chk) for k, chk in sorted(res.exceed_checks.items())
    ]
    return space.d, checks, None


def _thm2_trial(cfg, space, rng, shared):
    h, sub = shared()
    d_eff = d_eff_of_time_average(haar_random_state(sub, rng), h)
    return sub.d_R, [("d_eff_omega", Row(d_eff, sub.d_R / 4, d_eff >= sub.d_R / 4))], d_eff


def _thm2_aggregate(cfg, space, results, shared):
    d_r = results[0].d_r
    summary = theorem2_summary([r.payload for r in results], d_r)
    mean_row = Row(summary.mean, d_r / 2, summary.mean_check.satisfied)
    return [
        (AGGREGATE_TRIAL, "mean_d_eff", mean_row),
        (AGGREGATE_TRIAL, "tail_frequency", summary.tail_check),
    ]


def _thm3_trial(cfg, space, rng, shared):
    h, sub = shared()
    psi = haar_random_state(sub, rng)
    omega_s, _ = dephased_marginals(energy_coefficients(psi, h), h, space)
    return sub.d_R, [], omega_s


def _thm3_aggregate(cfg, space, results, shared):
    h, sub = shared()
    omegas = np.array([r.payload for r in results])
    summary = theorem3_summary(omegas, delta_quantity(h, sub, space), sub.d_R, space.d_S)
    weak = summary.weak_check
    rows = [
        (AGGREGATE_TRIAL, "mean_distance_weak_bound", weak),
        (AGGREGATE_TRIAL, "mean_distance_delta_bound", summary.delta_check),
        (AGGREGATE_TRIAL, "delta", summary.delta_range_check),
    ]
    rows += [
        (trial, "distance_to_mean", Row(d, weak.bound, True))
        for trial, d in enumerate(summary.distances)
    ]
    return rows


def _thm4_trial(cfg, space, rng, shared):
    h, _ = shared()
    psi0 = haar_random_state(_build_subspace(cfg.subspace_spec, space, rng), rng)
    n_samples = _n_samples(cfg)
    tail = theorem4_tail(energy_coefficients(psi0, h), h, space, cfg.epsilon, n_samples, rng)
    ks = ergodicity_ks_statistic(
        psi0, h, space, t_max=_t_max(cfg, h), n_samples=n_samples, rng=rng
    )
    checks = [
        ("torus_tail_frequency", tail),
        ("ks_statistic", BoundCheck.upper(ks, KS_STATISTIC_GATE)),
    ]
    return space.d, checks, None


def _counterexamples_trial(cfg, space, rng, shared):
    report = counterexample_demonstrations(
        space, rng, field=float(cfg.hamiltonian.get("field", 50.0)), n_times=_n_samples(cfg)
    )
    return space.d, list(report.checks().items()), None


def _identities_trial(cfg, space, rng, shared):
    return space.d, list(identity_checks(rng).items()), None


def _fraction_satisfied(cfg, space, results, shared):
    passed = [all(r.satisfied for r in res.records) for res in results]
    return [
        (AGGREGATE_TRIAL, "fraction_satisfied", Row(float(np.mean(passed)), 1.0, all(passed)))
    ]


REGISTRY = {
    "thm1": (_thm1_trial, _fraction_satisfied),
    "thm2": (_thm2_trial, _thm2_aggregate),
    "thm3-bath": (_thm3_trial, _thm3_aggregate),
    "thm3-subsystem": (_thm3_trial, _thm3_aggregate),
    "thm4": (_thm4_trial, _fraction_satisfied),
    "counterexamples": (_counterexamples_trial, _fraction_satisfied),
    "identities": (_identities_trial, _fraction_satisfied),
}

EXPERIMENTS = tuple(REGISTRY)


def _run_trial(payload: tuple) -> TrialResult:
    """Execute one trial; fully self-contained for process-pool dispatch."""
    cfg_json, sweep_index, trial_index = payload
    cfg = ExperimentConfig.from_dict(json.loads(cfg_json))
    space = BipartiteSpace(cfg.d_S, cfg.d_B[sweep_index])
    seed = derive_seed(cfg.master_seed, sweep_index, trial_index)
    trial_fn, _ = REGISTRY[cfg.experiment]
    t0 = time.perf_counter()
    shared = partial(_sweep_shared, cfg_json, sweep_index)
    d_r, checks, result = trial_fn(cfg, space, default_rng(seed), shared)
    wall = (time.perf_counter() - t0) * 1e3
    records = [
        _record(cfg, space.d_B, d_r, trial_index, seed, name, chk, wall) for name, chk in checks
    ]
    return TrialResult(d_r, records, result)


def _aggregate_rows(cfg, cfg_json, sweep_index, results) -> list[ExperimentRecord]:
    """The sweep's aggregate rows from its trial results, in trial order."""
    space = BipartiteSpace(cfg.d_S, cfg.d_B[sweep_index])
    _, aggregate = REGISTRY[cfg.experiment]
    shared = partial(_sweep_shared, cfg_json, sweep_index)
    rows = []
    for trial, name, chk in aggregate(cfg, space, results, shared):
        stream = _SHARED_STREAM if trial == AGGREGATE_TRIAL else trial
        seed = derive_seed(cfg.master_seed, sweep_index, stream)
        rows.append(_record(cfg, space.d_B, results[0].d_r, trial, seed, name, chk, 0.0))
    return rows


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[ExperimentRecord]:
    """Execute the configured suite; records are sorted by (sweep, trial).

    Sweeps run one after another, so a process builds each sweep's shared
    objects once, for its trials and then for the sweep's aggregate rows.
    """
    config.validate()
    cfg_json = config.canonical_json()
    records: list[ExperimentRecord] = []
    if workers > 1:  # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
    try:
        with (ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()) as pool:
            run = pool.map if pool else map
            for sweep_index in range(len(config.d_B)):
                tasks = [(cfg_json, sweep_index, trial) for trial in range(config.trials)]
                results = list(run(_run_trial, tasks))  # in task order: by trial
                for result in results:
                    records.extend(result.records)
                records.extend(_aggregate_rows(config, cfg_json, sweep_index, results))
    finally:
        _sweep_shared.cache_clear()  # the memo serves one run; release its arrays
    return records


def all_bounds_satisfied(records: list[ExperimentRecord]) -> bool:
    return all(r.satisfied for r in records)


def emit(
    records: list[ExperimentRecord],
    fmt: str,
    path: str,
    include_walltime: bool = False,
) -> None:
    """Write records as CSV or JSON with the fixed schema.

    Wall times are zeroed by default so that re-runs of the same config are
    byte-identical; pass include_walltime=True to keep the measurements.
    """
    if not records:
        raise ValueError("records must be nonempty")
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    fields = CSV_HEADER.split(",")
    rows = [{**vars(r), "wall_ms": r.wall_ms if include_walltime else 0.0} for r in records]
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(fields)
                writer.writerows([_csv_cell(row[key]) for key in fields] for row in rows)
        else:
            with open(path, "w") as fh:
                json.dump(rows, fh, indent=1)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing {fmt} output to {path!r}: {exc}") from exc
