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
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, asdict
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np
from numpy.random import default_rng  # numpy loads it lazily; load it with eqlab, not in a trial

from .bipartite import BipartiteSpace
from .dynamics import DEFAULT_T_MAX_FACTOR, default_t_max, dephased_system, energy_coefficients
from .errors import ConfigInvalidError
from .hamiltonians import random_spectral_hamiltonian, with_nondegenerate_gaps
from .states import Subspace, haar_random_state
from .verifiers import (
    DEFAULT_N_SAMPLES,
    DEFAULT_THRESHOLDS,
    BoundCheck,
    counterexample_checks,
    exceed_fraction_name,
    identity_checks,
    theorem1_check,
    theorem2_check,
    theorem2_sweep_check,
    theorem3_sweep_check,
    theorem4_check,
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


def _integer(x) -> bool:
    """An int that is not a bool: JSON true/false load as Python bools, which are ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def _finite(x) -> bool:
    """A number that is a finite float: a JSON integer beyond float range is not."""
    if _integer(x):
        return abs(x) <= sys.float_info.max  # exact: Python compares int and float exactly
    return isinstance(x, float) and math.isfinite(x)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    d_S: int = 2
    d_B: tuple[int, ...] = (32,)
    subspace_spec: str = "full"
    # A key left out runs at its FIELDS default, which config_hash() does not
    # cover; `field` is left out here too, as when the pinned hashes were taken.
    hamiltonian: dict = field(default_factory=lambda: {
        key: FIELDS[f"hamiltonian.{key}"].default for key in ("name", "window")
    })
    trials: int = 10
    time_sampling: dict = field(default_factory=lambda: {
        "t_max_factor": DEFAULT_T_MAX_FACTOR, "n_samples": DEFAULT_N_SAMPLES
    })
    thresholds_K: tuple[float, ...] = DEFAULT_THRESHOLDS
    epsilon: float = 0.2
    master_seed: int = 0
    output_path: str = "results"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigInvalidError(f"config document: must be an object, got {doc!r}")
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigInvalidError(f"unknown config fields: {sorted(unknown)}")
        if "experiment" not in doc:
            raise ConfigInvalidError("experiment: field is required")
        merged = dict(doc)
        d_b = merged.get("d_B")
        if _integer(d_b):  # one integer reads as a list of one
            d_b = [d_b]
        if isinstance(d_b, (list, tuple)):  # validate() refuses any other type
            merged["d_B"] = tuple(d_b)
        ks = merged.get("thresholds_K")
        if isinstance(ks, (list, tuple)):  # validate() refuses any other type
            merged["thresholds_K"] = tuple(float(k) if _finite(k) else k for k in ks)
        cfg = cls(**merged)
        cfg.validate()
        return cfg

    def value(self, name: str):
        """The field that FIELDS calls `name`; an object's key left out reads as its default."""
        parent, _, key = name.partition(".")
        return getattr(self, parent).get(key, FIELDS[name].default) if key else getattr(self, name)

    def validate(self) -> None:
        """Refuse the first field, in FIELDS order, whose value fails its test."""
        for name, spec in FIELDS.items():
            value = self.value(name)
            if not spec.test(value, self):
                shown = list(value) if isinstance(value, tuple) else value
                raise ConfigInvalidError(f"{name}: {spec.rule}, got {shown!r}")
            for key in value if isinstance(value, dict) else ():  # an object's keys are in FIELDS
                if f"{name}.{key}" not in FIELDS:
                    known = [n.partition(".")[2] for n in FIELDS if n.startswith(name + ".")]
                    raise ConfigInvalidError(f"{name}.{key}: unknown field; known are {known}")
        for b in self.d_B:
            BipartiteSpace(self.d_S, b)  # raises DimensionOverflow on cap breach

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


CSV_HEADER = ",".join(f.name for f in fields(ExperimentRecord))


def _csv_cell(value):
    """Floats with 17 significant digits, booleans as true/false literals."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return "%.17g" % value if isinstance(value, float) else value


class TrialResult(NamedTuple):
    """One trial's d_R, its output rows and its payload for the aggregate."""

    d_r: int
    records: list[ExperimentRecord]
    payload: object


def _records(cfg, d_b, d_r, trial, seed, checks, wall_ms) -> list[ExperimentRecord]:
    """The output rows of a verifier's named BoundChecks, in its order."""
    return [
        ExperimentRecord(
            cfg.experiment, cfg.d_S, d_b, d_r, trial, seed, quantity,
            float(check.empirical), float(check.bound), bool(check.satisfied), wall_ms,
        )
        for quantity, check in checks.items()
    ]


def _shared_rng(cfg: ExperimentConfig, sweep_index: int) -> np.random.Generator:
    return default_rng(derive_seed(cfg.master_seed, sweep_index, _SHARED_STREAM))


def _build_hamiltonian(cfg: ExperimentConfig, space: BipartiteSpace, rng):
    window = tuple(cfg.value("hamiltonian.window"))
    h = random_spectral_hamiltonian(space, window, rng=rng)
    # Theorems 1 and 4 assume non-degenerate gaps; no other claim reads them.
    return with_nondegenerate_gaps(h, window, rng) if cfg.experiment in ("thm1", "thm4") else h


def _build_subspace(spec: str, space: BipartiteSpace, rng) -> Subspace:
    if spec == "full":
        return Subspace.full(space.d)
    if spec == "product-fixed-system":
        psi = haar_random_state(Subspace.full(space.d_S), rng)
        return Subspace.fixed_system(psi, space)
    psi = haar_random_state(Subspace.full(space.d_B), rng)
    return Subspace.fixed_bath(psi, space)


@lru_cache(maxsize=1)  # read and validated once per process, not once per trial
def _config(cfg_json: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(json.loads(cfg_json))


@lru_cache(maxsize=1)
def _sweep_shared(cfg_json: str, sweep_index: int) -> tuple:
    """The sweep's shared (H, subspace), built once per sweep and process.

    Both come from the shared stream of (master_seed, sweep_index), so every
    trial and every worker sees the same objects. The subspace is None where
    the experiment draws it per trial (thm4). Callers must not modify the
    returned arrays: later trials of the sweep receive the same objects.
    run_experiment clears the memo when it returns.
    """
    cfg = _config(cfg_json)
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
# sweep's TrialResults in trial order, shared) to the sweep's named checks,
# written at AGGREGATE_TRIAL with the seed of the sweep's shared stream. Named
# checks are a verifier's dict of BoundChecks keyed by quantity in output
# order, taken as they are; the one gate set here is fraction_satisfied's 1.0.
# shared() returns the sweep's memoised (H, subspace). Verifiers are called
# through this module's names.


def _n_samples(cfg: ExperimentConfig) -> int:
    return cfg.value("time_sampling.n_samples")


def _t_max(cfg: ExperimentConfig, h) -> float:
    t_max = default_t_max(h, float(cfg.value("time_sampling.t_max_factor")))
    # time_phases writes the half-angles t·E/2, which must be finite floats.
    if not math.isfinite(t_max * (0.5 * float(np.max(np.abs(h.energies))))):
        raise ConfigInvalidError(
            f"time_sampling.t_max_factor: t_max*max|E|/2 must be finite, got t_max = {t_max!r}"
        )
    return t_max


def _thm1_trial(cfg, space, rng, shared):
    h = _build_hamiltonian(cfg, space, rng)
    psi0 = haar_random_state(_build_subspace(cfg.subspace_spec, space, rng), rng)
    c = energy_coefficients(psi0, h)
    checks = theorem1_check(
        c, h, space, _t_max(cfg, h), _n_samples(cfg), cfg.thresholds_K, rng=rng
    )
    return space.d, checks, None


def _thm2_trial(cfg, space, rng, shared):
    h, sub = shared()
    checks = theorem2_check(energy_coefficients(haar_random_state(sub, rng), h), sub.d_R)
    return sub.d_R, checks, checks["d_eff_omega"].empirical


def _thm2_aggregate(cfg, space, results, shared):
    return theorem2_sweep_check([r.payload for r in results], results[0].d_r)


def _thm3_trial(cfg, space, rng, shared):
    h, sub = shared()
    c = energy_coefficients(haar_random_state(sub, rng), h)
    return sub.d_R, {}, dephased_system(c, h, space)


def _thm3_aggregate(cfg, space, results, shared):
    h, sub = shared()
    return theorem3_sweep_check(np.array([r.payload for r in results]), h, sub, space)


def _thm4_trial(cfg, space, rng, shared):
    h, _ = shared()
    psi0 = haar_random_state(_build_subspace(cfg.subspace_spec, space, rng), rng)
    c = energy_coefficients(psi0, h)
    checks = theorem4_check(c, h, space, cfg.epsilon, _t_max(cfg, h), _n_samples(cfg), rng=rng)
    return space.d, checks, None


def _counterexamples_trial(cfg, space, rng, shared):
    field_strength = float(cfg.value("hamiltonian.field"))
    return space.d, counterexample_checks(space, rng, field_strength, _n_samples(cfg)), None


def _identities_trial(cfg, space, rng, shared):
    return space.d, identity_checks(rng), None


def _fraction_satisfied(cfg, space, results, shared):
    passed = [all(r.satisfied for r in res.records) for res in results]
    return {"fraction_satisfied": BoundCheck.at_least(np.mean(passed), 1.0)}


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


class Field(NamedTuple):
    """A field's test of (value, config), its refusal's rule, and an object key's default."""

    test: Callable[[object, ExperimentConfig], bool]
    rule: str
    default: object = None


def _one_of(*values: str, default: str | None = None) -> Field:
    return Field(lambda v, c: v in values, f"must be one of {', '.join(values)}", default)


# The fields validate() checks, in order: an object before its keys, its only
# dotted entries. Every experiment's model fields are checked, read or not.
FIELDS = {
    "experiment": _one_of(*EXPERIMENTS),
    # Counterexamples needs two bath levels and, for the diagonal model, two
    # system levels; every other experiment but identities builds a Hamiltonian,
    # and thm1/thm4's gap check and thm3's level check need d >= 2. d_B comes
    # first: it names a one-level space.
    "d_B": Field(
        lambda v, c: isinstance(v, (list, tuple)) and bool(v)
        and all(_integer(b) and b >= 1 for b in v) and (
            min(v) >= 2 or c.experiment == "identities"
            or c.experiment != "counterexamples" and c.d_S != 1
        ),
        "counterexamples needs a list of integers >= 2, the others a nonempty list of"
        " integers >= 1 with d_S*d_B >= 2 but for identities; one integer reads as a"
        " list of one",
    ),
    "d_S": Field(
        lambda v, c: _integer(v) and v >= (2 if c.experiment == "counterexamples" else 1),
        "counterexamples needs an integer >= 2, the others an integer >= 1",
    ),
    "trials": Field(lambda v, c: _integer(v) and v >= 1, "must be an integer >= 1"),
    "subspace_spec": _one_of("full", "product-fixed-system", "product-fixed-bath"),
    "epsilon": Field(lambda v, c: _finite(v) and v > 0, "must be a finite number > 0"),
    "thresholds_K": Field(
        lambda v, c: isinstance(v, (list, tuple)) and all(_finite(k) and k > 0 for k in v)
        and len({exceed_fraction_name(k) for k in v}) == len(v),
        "must be a list of finite numbers > 0 with distinct row names exceed_fraction_K<%g>",
    ),
    "time_sampling": Field(lambda v, c: isinstance(v, dict), "must be an object"),
    "time_sampling.t_max_factor": Field(
        lambda v, c: _finite(v) and v > 0, "must be a finite number > 0", DEFAULT_T_MAX_FACTOR
    ),
    "time_sampling.n_samples": Field(
        lambda v, c: _integer(v) and v >= 2, "must be an integer >= 2", DEFAULT_N_SAMPLES
    ),
    "hamiltonian": Field(lambda v, c: isinstance(v, dict), "must be an object"),
    "hamiltonian.name": _one_of("random-spectral", default="random-spectral"),
    # The energies are drawn as lo + (hi − lo)·U, so the width must be finite too.
    "hamiltonian.window": Field(
        lambda v, c: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_finite, v))
        and v[0] < v[1] and math.isfinite(float(v[1]) - float(v[0])),
        "must be [lo, hi], finite numbers with lo < hi and a finite hi - lo", (0.0, 1.0),
    ),
    # The spin-bath energies lie within ±(field + 2), so Σ_k E_k(|c⁺_k|² − |c⁻_k|²)
    # over d = 2·max(d_B) levels is summed with an error of at most about
    # (d + 2)·2⁻⁵³·2(field + 2): this keeps it within SPIN_BATH_ENERGY_SLACK / 2.
    "hamiltonian.field": Field(
        lambda v, c: _finite(v) and v > 0 and (2 * max(c.d_B) + 2) * (float(v) + 2) <= 2**53,
        "must be a finite number > 0 with (2*max(d_B) + 2)*(field + 2) <= 2^53", 50.0,
    ),
    "master_seed": Field(
        lambda v, c: _integer(v) and 0 <= v <= _MASK64, "must be an integer in [0, 2^64)"
    ),
    "output_path": Field(lambda v, c: isinstance(v, str) and v != "", "must be a nonempty string"),
}


def _run_trial(payload: tuple) -> TrialResult:
    """Execute one trial; fully self-contained for process-pool dispatch."""
    cfg_json, sweep_index, trial_index = payload
    cfg = _config(cfg_json)
    space = BipartiteSpace(cfg.d_S, cfg.d_B[sweep_index])
    seed = derive_seed(cfg.master_seed, sweep_index, trial_index)
    trial_fn, _ = REGISTRY[cfg.experiment]
    t0 = time.perf_counter()
    shared = partial(_sweep_shared, cfg_json, sweep_index)
    d_r, checks, result = trial_fn(cfg, space, default_rng(seed), shared)
    wall = (time.perf_counter() - t0) * 1e3
    return TrialResult(d_r, _records(cfg, space.d_B, d_r, trial_index, seed, checks, wall), result)


def _aggregate_rows(cfg, cfg_json, sweep_index, results) -> list[ExperimentRecord]:
    """The sweep's aggregate rows from its trial results, in trial order, with
    the seed of its shared stream."""
    space = BipartiteSpace(cfg.d_S, cfg.d_B[sweep_index])
    _, aggregate = REGISTRY[cfg.experiment]
    checks = aggregate(cfg, space, results, partial(_sweep_shared, cfg_json, sweep_index))
    seed = derive_seed(cfg.master_seed, sweep_index, _SHARED_STREAM)
    return _records(cfg, space.d_B, results[0].d_r, AGGREGATE_TRIAL, seed, checks, 0.0)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> list[ExperimentRecord]:
    """Execute the configured suite; records are sorted by (sweep, trial).

    Sweeps run one after another, so a process builds each sweep's shared
    objects once, for its trials and then for the sweep's aggregate rows.
    """
    config.validate()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
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
    columns = CSV_HEADER.split(",")
    rows = [{**vars(r), "wall_ms": r.wall_ms if include_walltime else 0.0} for r in records]
    try:
        if fmt == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(columns)
                writer.writerows([_csv_cell(row[key]) for key in columns] for row in rows)
        else:
            with open(path, "w") as fh:
                json.dump(rows, fh, indent=1)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing {fmt} output to {path!r}: {exc}") from exc
