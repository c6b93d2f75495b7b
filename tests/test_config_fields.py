"""The config field table: a walk over each field's limits, and the README's copy of it."""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from pathlib import Path

import pytest

from eqlab.cli import main
from eqlab.errors import ConfigInvalidError
from eqlab.runner import EXPERIMENTS, FIELDS, ExperimentConfig

MAX = sys.float_info.max
TINY = math.nextafter(0.0, 1.0)  # the least positive float
HALF_MAX = MAX / 2
# The largest field admitted at each max(d_B): (2·max(d_B) + 2)·(field + 2),
# computed in floats, reaches 2⁵³ there, and the next float is refused.
LARGEST_FIELD = {
    2: 1501199875790163.5,
    3: 1125899906842622.1,
    16: 264917625139438.97,
    32: 136472715980922.12,
    64: 69286148113390.25,
}

# Each field's values just inside and just outside its limits, as overrides
# keyed by dotted field name. Where a limit reads another field, the override
# sets that field too.
WALK = {
    "experiment": ([{"experiment": e} for e in EXPERIMENTS], [{"experiment": "thm5"}]),
    "d_B": (
        [
            {"d_B": [1]},
            {"d_S": 1, "d_B": [2]},
            {"experiment": "counterexamples", "d_B": [2]},
            {"d_B": 2},  # one integer reads as a list of one
        ],
        [
            {"d_B": []},
            {"d_B": [0]},
            {"d_B": [2.0]},
            {"d_S": 1, "d_B": [1]},
            {"experiment": "counterexamples", "d_B": [1]},
            {"d_B": 0},
        ],
    ),
    "d_S": (
        [{"d_S": 1}, {"experiment": "counterexamples", "d_S": 2}],
        [{"d_S": 0}, {"d_S": True}, {"experiment": "counterexamples", "d_S": 1}],
    ),
    "trials": ([{"trials": 1}], [{"trials": 0}, {"trials": 1.0}]),
    "subspace_spec": (
        [{"subspace_spec": s} for s in ("full", "product-fixed-system", "product-fixed-bath")],
        [{"subspace_spec": "Full"}],
    ),
    "epsilon": ([{"epsilon": TINY}, {"epsilon": MAX}], [{"epsilon": 0.0}, {"epsilon": math.inf}]),
    "thresholds_K": (
        [
            {"thresholds_K": []},
            {"thresholds_K": [TINY]},
            {"thresholds_K": [MAX]},
            {"thresholds_K": [2, 2.00001]},
        ],
        [
            {"thresholds_K": [0.0]},
            {"thresholds_K": [math.inf]},
            {"thresholds_K": [2, 2.000001]},  # both rows exceed_fraction_K2
        ],
    ),
    "time_sampling": ([{"time_sampling": {}}], [{"time_sampling": []}]),
    "time_sampling.t_max_factor": (
        [{"time_sampling.t_max_factor": TINY}, {"time_sampling.t_max_factor": MAX}],
        [{"time_sampling.t_max_factor": 0.0}, {"time_sampling.t_max_factor": math.inf}],
    ),
    "time_sampling.n_samples": (
        [{"time_sampling.n_samples": 2}], [{"time_sampling.n_samples": 1}]
    ),
    "hamiltonian": ([{"hamiltonian": {}}], [{"hamiltonian": []}]),
    "hamiltonian.name": (
        [{"hamiltonian.name": "random-spectral"}], [{"hamiltonian.name": "random_spectral"}]
    ),
    "hamiltonian.window": (
        [
            {"hamiltonian.window": [0.0, TINY]},
            {"hamiltonian.window": [-HALF_MAX, HALF_MAX]},
            {"hamiltonian.window": [0.0, MAX]},
        ],
        [
            {"hamiltonian.window": [0.0, 0.0]},
            {"hamiltonian.window": [-HALF_MAX, math.nextafter(HALF_MAX, math.inf)]},
            {"hamiltonian.window": [0.0, math.inf]},
        ],
    ),
    "hamiltonian.field": (
        [{"hamiltonian.field": TINY}]
        + [{"d_B": [b], "hamiltonian.field": LARGEST_FIELD[b]} for b in (2, 64)],
        [{"hamiltonian.field": 0.0}]
        + [
            {"d_B": [b], "hamiltonian.field": math.nextafter(LARGEST_FIELD[b], math.inf)}
            for b in (2, 64)
        ],
    ),
    "master_seed": (
        [{"master_seed": 0}, {"master_seed": 2**64 - 1}],
        [{"master_seed": -1}, {"master_seed": 2**64}],
    ),
    "output_path": ([{"output_path": "r"}], [{"output_path": ""}]),
}


def cheapest(experiment: str) -> dict:
    return {
        "experiment": experiment, "d_S": 2, "d_B": [2], "trials": 1,
        "time_sampling": {"n_samples": 2}, "output_path": "results",
    }


def overridden(doc: dict, overrides: dict) -> dict:
    """The document with each dotted key set, as `eqlab run --set` sets it."""
    doc = json.loads(json.dumps(doc))
    for key, value in overrides.items():
        *parents, last = key.split(".")
        node = doc
        for part in parents:
            node = node.setdefault(part, {})
        node[last] = value
    return doc


def cases(side: int):
    return [
        pytest.param(name, overrides, id=f"{name}-{i}")
        for name, walk in WALK.items()
        for i, overrides in enumerate(walk[side])
    ]


def test_walk_covers_every_field():
    assert set(WALK) == set(FIELDS)


@pytest.mark.parametrize("name, overrides", cases(1))
def test_just_outside_is_refused(name, overrides):
    with pytest.raises(ConfigInvalidError, match=f"^{re.escape(name)}: "):
        ExperimentConfig.from_dict(overridden(cheapest("thm1"), overrides))


@pytest.mark.parametrize("name, overrides", cases(0))
def test_just_inside_runs(name, overrides, tmp_path, monkeypatch, capsys):
    """Every experiment at its cheapest shape exits 0 or 2, or 1 naming a
    field the override sets; an exception escaping `main`, a RuntimeWarning
    among them, fails."""
    monkeypatch.chdir(tmp_path)
    refusals = tuple(f"error: {key}: " for key in overrides)
    docs = {json.dumps(overridden(cheapest(e), overrides)) for e in EXPERIMENTS}
    for text in sorted(docs):
        Path("config.json").write_text(text)
        code = main(["run", "--config", "config.json"])
        err = capsys.readouterr().err
        assert code in (0, 2) or code == 1 and err.startswith(refusals), (text, err)


def expected_default(name: str) -> str:
    """A field's default as the README's table gives it."""
    if "." in name:
        return f"`{json.dumps(FIELDS[name].default)}`"
    spec = {f.name: f for f in dataclasses.fields(ExperimentConfig)}[name]
    if spec.default is not dataclasses.MISSING:
        return f"`{json.dumps(spec.default)}`"
    return "required" if spec.default_factory is dataclasses.MISSING else "its keys' defaults"


def test_readme_table_is_fields():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([^`]+)` \| (.+) \| (.+) \|$", readme, re.MULTILINE)
    assert [name for name, _, _ in rows] == list(FIELDS)
    for name, rule, default in rows:
        assert (rule, default) == (FIELDS[name].rule, expected_default(name)), name


@pytest.mark.parametrize("d_s, d_b", [(2, 8), (4, 4)])
def test_max_dim_reached_runs(d_s, d_b, tmp_path, monkeypatch, capsys):
    """At d_S·d_B = EQLAB_MAX_DIM every experiment exits 0 or 2, or 1 naming a field."""
    monkeypatch.setenv("EQLAB_MAX_DIM", "16")
    monkeypatch.chdir(tmp_path)
    for experiment in EXPERIMENTS:
        Path("config.json").write_text(json.dumps({**cheapest(experiment), "d_S": d_s, "d_B": [d_b]}))
        code = main(["run", "--config", "config.json"])
        err = capsys.readouterr().err
        assert code in (0, 2) or code == 1 and re.match(r"error: [\w.]+: ", err), (experiment, err)


def test_max_dim_exceeded_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EQLAB_MAX_DIM", "16")
    monkeypatch.chdir(tmp_path)
    for experiment in EXPERIMENTS:
        Path("config.json").write_text(json.dumps({**cheapest(experiment), "d_B": [9]}))
        assert main(["run", "--config", "config.json"]) == 1
        err = capsys.readouterr().err
        assert "dimension 18 exceeds configured maximum 16" in err and "Traceback" not in err
