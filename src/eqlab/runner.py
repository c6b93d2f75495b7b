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
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, asdict
from functools import lru_cache

import numpy as np

from .bipartite import BipartiteSpace
from .errors import ConfigInvalidError
from .hamiltonians import random_spectral_hamiltonian
from .states import Subspace, haar_random_state
from .verifiers import (
    CONSTANTS,
    BoundCheck,
    d_eff_of_time_average,
    delta_quantity,
    diagonal_counterexample,
    ergodicity_ks_statistic,
    identity_checks,
    spin_bath_counterexample,
    subadditivity_and_bath_checks,
    theorem1_check,
    theorem4_tail,
)
from .dynamics import default_t_max, dephased_time_average, energy_coefficients
from .bipartite import partial_trace_bath
from .linalg import hermitize
from .states import trace_distance

EXPERIMENTS = (
    "thm1",
    "thm2",
    "thm3-bath",
    "thm3-subsystem",
    "thm4",
    "counterexamples",
    "identities",
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
        if self.trials < 1:
            raise ConfigInvalidError(f"trials: must be >= 1, got {self.trials}")
        if self.subspace_spec not in ("full", "product-fixed-system", "product-fixed-bath"):
            raise ConfigInvalidError(f"subspace_spec: unknown value {self.subspace_spec!r}")
        if self.epsilon <= 0:
            raise ConfigInvalidError(f"epsilon: must be positive, got {self.epsilon}")
        for key in ("t_max_factor", "n_samples"):
            if key not in self.time_sampling:
                raise ConfigInvalidError(f"time_sampling.{key}: missing")
        if int(self.time_sampling["n_samples"]) < 2:
            raise ConfigInvalidError("time_sampling.n_samples: must be >= 2")
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


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _record(cfg, d_b, d_r, trial, seed, quantity, empirical, bound, satisfied, wall_ms):
    return ExperimentRecord(
        experiment=cfg.experiment,
        d_S=cfg.d_S,
        d_B=d_b,
        d_R=d_r,
        trial=trial,
        seed=seed,
        quantity=quantity,
        empirical=float(empirical),
        bound=float(bound),
        satisfied=bool(satisfied),
        wall_ms=wall_ms,
    )


def _check_rows(cfg, d_b, d_r, trial, seed, named_checks, wall_ms):
    rows = []
    for name, chk in named_checks:
        rows.append(
            _record(cfg, d_b, d_r, trial, seed, name, chk.empirical, chk.bound, chk.satisfied, wall_ms)
        )
    return rows


def _shared_rng(cfg: ExperimentConfig, sweep_index: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(cfg.master_seed, sweep_index, _SHARED_STREAM))


def _build_hamiltonian(cfg: ExperimentConfig, space: BipartiteSpace, rng):
    window = tuple(cfg.hamiltonian.get("window", (0.0, 1.0)))
    name = cfg.hamiltonian.get("name", "random-spectral")
    if name != "random-spectral":
        raise ConfigInvalidError(f"hamiltonian.name: unknown model {name!r}")
    return random_spectral_hamiltonian(space, window, rng)


def _build_subspace(cfg: ExperimentConfig, space: BipartiteSpace, rng) -> Subspace:
    if cfg.subspace_spec == "full":
        return Subspace.full(space.d)
    if cfg.subspace_spec == "product-fixed-system":
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
    if cfg.experiment == "thm2":
        sub = _build_subspace(cfg, space, shared)
    elif cfg.experiment == "thm3-bath":
        sub = Subspace.fixed_system(haar_random_state(Subspace.full(space.d_S), shared), space)
    elif cfg.experiment == "thm3-subsystem":
        sub = Subspace.fixed_bath(haar_random_state(Subspace.full(space.d_B), shared), space)
    else:
        sub = None
    return h, sub


def _run_trial(payload: tuple) -> tuple[int, int, list, dict]:
    """Execute one trial; fully self-contained for process-pool dispatch."""
    cfg_json, sweep_index, trial_index = payload
    cfg = ExperimentConfig.from_dict(json.loads(cfg_json))
    d_b = cfg.d_B[sweep_index]
    space = BipartiteSpace(cfg.d_S, d_b)
    seed = derive_seed(cfg.master_seed, sweep_index, trial_index)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    rows: list[ExperimentRecord] = []
    extras: dict = {}

    n_samples = int(cfg.time_sampling["n_samples"])
    t_factor = float(cfg.time_sampling["t_max_factor"])

    if cfg.experiment == "thm1":
        h = _build_hamiltonian(cfg, space, rng)
        psi0 = haar_random_state(_build_subspace(cfg, space, rng), rng)
        res = theorem1_check(
            psi0,
            h,
            space,
            t_max=default_t_max(h, t_factor),
            n_samples=n_samples,
            thresholds=cfg.thresholds_K,
            rng=rng,
        )
        sub = subadditivity_and_bath_checks(
            psi0, h, space, t_max=default_t_max(h, t_factor), rng=rng
        )
        wall = (time.perf_counter() - t0) * 1e3
        checks = [
            ("mean_distance_bath_bound", res.bath_check),
            ("mean_distance_total_bound", res.total_check),
            ("renyi_subadditivity", sub.renyi_check),
            ("bath_deff_max", sub.bath_deff_check),
        ]
        checks += [
            (f"exceed_fraction_K{k:g}", chk) for k, chk in sorted(res.exceed_checks.items())
        ]
        rows += _check_rows(cfg, d_b, space.d, trial_index, seed, checks, wall)
        extras["satisfied"] = all(c.satisfied for _, c in checks)

    elif cfg.experiment == "thm2":
        h, sub = _sweep_shared(cfg_json, sweep_index)
        psi = haar_random_state(sub, rng)
        d_eff = d_eff_of_time_average(psi, h)
        wall = (time.perf_counter() - t0) * 1e3
        tail_ok = d_eff >= sub.d_R / 4
        rows.append(
            _record(cfg, d_b, sub.d_R, trial_index, seed, "d_eff_omega", d_eff, sub.d_R / 4, tail_ok, wall)
        )
        extras["d_eff"] = d_eff
        extras["d_R"] = sub.d_R

    elif cfg.experiment in ("thm3-bath", "thm3-subsystem"):
        h, sub = _sweep_shared(cfg_json, sweep_index)
        psi = haar_random_state(sub, rng)
        omega_s = partial_trace_bath(dephased_time_average(psi, h, check_gaps=False), space)
        wall = (time.perf_counter() - t0) * 1e3
        extras["omega_s"] = omega_s
        extras["d_R"] = sub.d_R

    elif cfg.experiment == "thm4":
        h, _ = _sweep_shared(cfg_json, sweep_index)
        psi0 = haar_random_state(_build_subspace(cfg, space, rng), rng)
        c = energy_coefficients(psi0, h)
        tail = theorem4_tail(c, h, space, cfg.epsilon, n_samples, rng)
        ks = ergodicity_ks_statistic(
            psi0, h, space, t_max=default_t_max(h, t_factor), n_samples=n_samples, rng=rng
        )
        wall = (time.perf_counter() - t0) * 1e3
        rows += _check_rows(
            cfg,
            d_b,
            space.d,
            trial_index,
            seed,
            [("torus_tail_frequency", tail), ("ks_statistic", BoundCheck.upper(ks, 0.05))],
            wall,
        )
        extras["satisfied"] = tail.satisfied and ks <= 0.05

    elif cfg.experiment == "counterexamples":
        diag = diagonal_counterexample(space, rng, n_times=max(2, n_samples))
        field_strength = float(cfg.hamiltonian.get("field", 50.0))
        spin = spin_bath_counterexample(field_strength, d_b, rng, n_times=max(2, n_samples // 2))
        wall = (time.perf_counter() - t0) * 1e3
        checks = [
            ("population_drift", BoundCheck.upper(diag.max_population_drift, 1e-10)),
            (
                "basis_omega_distance",
                BoundCheck.upper(abs(diag.basis_omega_distance - 1.0), 1e-9),
            ),
            ("imbalance_lower_bound", diag.imbalance_check),
            (
                "energy_diff_min",
                BoundCheck.lower(spin.energy_diff_min, 2 * field_strength - 4),
            ),
            (
                "energy_diff_max",
                BoundCheck.upper(spin.energy_diff_max, 2 * field_strength + 4),
            ),
        ]
        rows += _check_rows(cfg, d_b, space.d, trial_index, seed, checks, wall)
        extras["satisfied"] = all(c.satisfied for _, c in checks)

    elif cfg.experiment == "identities":
        checks = list(identity_checks(rng).items())
        wall = (time.perf_counter() - t0) * 1e3
        rows += _check_rows(cfg, d_b, space.d, trial_index, seed, checks, wall)
        extras["satisfied"] = all(c.satisfied for _, c in checks)

    else:  # pragma: no cover - guarded by validate()
        raise ConfigInvalidError(f"experiment: {cfg.experiment!r}")

    return sweep_index, trial_index, rows, extras


def _aggregate_rows(cfg, sweep_index, d_b, trial_results) -> list[ExperimentRecord]:
    """Deterministic aggregate rows computed from sorted per-trial extras."""
    seed = derive_seed(cfg.master_seed, sweep_index, _SHARED_STREAM)
    extras = [e for _, e in trial_results]
    rows: list[ExperimentRecord] = []

    if cfg.experiment == "thm2":
        d_r = extras[0]["d_R"]
        samples = np.array([e["d_eff"] for e in extras])
        mean = float(np.mean(samples))
        se = float(np.std(samples, ddof=1) / np.sqrt(len(samples))) if len(samples) > 1 else 0.0
        tail_freq = float(np.mean(samples < d_r / 4))
        tail_bound = 2 * math.exp(-CONSTANTS.c * math.sqrt(d_r))
        rows.append(
            _record(cfg, d_b, d_r, AGGREGATE_TRIAL, seed, "mean_d_eff", mean, d_r / 2,
                    mean + 3 * se >= d_r / 2, 0.0)
        )
        rows.append(
            _record(cfg, d_b, d_r, AGGREGATE_TRIAL, seed, "tail_frequency", tail_freq,
                    tail_bound, tail_freq <= tail_bound, 0.0)
        )
    elif cfg.experiment in ("thm3-bath", "thm3-subsystem"):
        d_r = extras[0]["d_R"]
        omegas = np.array([e["omega_s"] for e in extras])
        distances = trace_distance(omegas, hermitize(np.mean(omegas, axis=0)))
        mean = float(np.mean(distances))
        se = float(np.std(distances, ddof=1) / np.sqrt(len(distances))) if len(distances) > 1 else 0.0
        h, sub = _sweep_shared(cfg.canonical_json(), sweep_index)
        delta = delta_quantity(h, sub, BipartiteSpace(cfg.d_S, d_b))
        weak = math.sqrt(cfg.d_S / (4 * d_r))
        tight = math.sqrt(cfg.d_S * delta / (4 * d_r))
        rows.append(
            _record(cfg, d_b, d_r, AGGREGATE_TRIAL, seed, "mean_distance_weak_bound",
                    mean, weak + 3 * se, mean <= weak + 3 * se, 0.0)
        )
        rows.append(
            _record(cfg, d_b, d_r, AGGREGATE_TRIAL, seed, "mean_distance_delta_bound",
                    mean, tight + 3 * se, mean <= tight + 3 * se, 0.0)
        )
        rows.append(
            _record(cfg, d_b, d_r, AGGREGATE_TRIAL, seed, "delta", delta, 1.0, delta <= 1.0, 0.0)
        )
        for i, (trial_index, _) in enumerate(trial_results):
            rows.append(
                _record(cfg, d_b, d_r, trial_index,
                        derive_seed(cfg.master_seed, sweep_index, trial_index),
                        "distance_to_mean", float(distances[i]), weak + 3 * se,
                        True, 0.0)
            )
    else:
        sat = all(e.get("satisfied", True) for e in extras)
        rows.append(
            _record(cfg, d_b, cfg.d_S * d_b, AGGREGATE_TRIAL, seed, "fraction_satisfied",
                    float(np.mean([1.0 if e.get("satisfied", True) else 0.0 for e in extras])),
                    1.0, sat, 0.0)
        )
    return rows


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[ExperimentRecord]:
    """Execute the configured suite; records are sorted by (sweep, trial).

    Sweeps run one after another, so a process builds each sweep's shared
    objects once, for its trials and then for the sweep's aggregate rows.
    """
    config.validate()
    cfg_json = config.canonical_json()
    records: list[ExperimentRecord] = []
    try:
        with (ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()) as pool:
            run = pool.map if pool else map
            for sweep_index, d_b in enumerate(config.d_B):
                tasks = [(cfg_json, sweep_index, trial) for trial in range(config.trials)]
                results = list(run(_run_trial, tasks))  # in task order: by trial
                for _, _, rows, _ in results:
                    records.extend(rows)
                records.extend(
                    _aggregate_rows(config, sweep_index, d_b, [(t, e) for _, t, _, e in results])
                )
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
    rows = []
    for r in records:
        wall = r.wall_ms if include_walltime else 0.0
        rows.append(
            {
                "experiment": r.experiment,
                "d_S": r.d_S,
                "d_B": r.d_B,
                "d_R": r.d_R,
                "trial": r.trial,
                "seed": r.seed,
                "quantity": r.quantity,
                "empirical": r.empirical,
                "bound": r.bound,
                "satisfied": r.satisfied,
                "wall_ms": wall,
            }
        )
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(CSV_HEADER.split(","))
                for row in rows:
                    writer.writerow(
                        [
                            row["experiment"],
                            row["d_S"],
                            row["d_B"],
                            row["d_R"],
                            row["trial"],
                            row["seed"],
                            row["quantity"],
                            _fmt(row["empirical"]),
                            _fmt(row["bound"]),
                            "true" if row["satisfied"] else "false",
                            _fmt(row["wall_ms"]),
                        ]
                    )
        else:
            payload = [
                {**row, "empirical": float(_fmt(row["empirical"])),
                 "bound": float(_fmt(row["bound"])),
                 "wall_ms": float(_fmt(row["wall_ms"]))}
                for row in rows
            ]
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=1)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing {fmt} output to {path!r}: {exc}") from exc


def load_records_json(path: str) -> list[ExperimentRecord]:
    with open(path) as fh:
        payload = json.load(fh)
    return [ExperimentRecord(**row) for row in payload]
