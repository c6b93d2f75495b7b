"""Every perfbench workload config, run through `eqlab run`, against its
reference CSV: the check the benchmark makes after each of its runs.

The configs, the reference CSVs and the checker are read from `perfbench/`
and never written; each run's output goes to the test's own directory.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from eqlab.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIGS = sorted(PERFBENCH.glob("configs/*.json"))


def load_checker():
    """perfbench/check.py as a module; its dataclasses need it in sys.modules."""
    name = "perfbench_check"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / "check.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_every_workload_has_a_config():
    assert [p.stem for p in CONFIGS] == sorted(p.stem for p in PERFBENCH.glob("reference/*.csv"))
    assert len(CONFIGS) == 4


@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_config_matches_reference(config, tmp_path, capsys):
    checker = load_checker()
    reference = PERFBENCH / "reference" / f"{config.stem}.csv"
    out = tmp_path / config.stem
    code = main(["run", "--config", str(config), "--set", f"output_path={out}"])
    _, ref_rows = checker.read_csv(str(reference))
    reference_has_false = any(row["satisfied"] != "true" for row in ref_rows)
    assert code in ((0, 2) if reference_has_false else (0,)), capsys.readouterr()
    verdict = checker.check(f"{out}.csv", str(reference), json.loads(config.read_text()))
    assert verdict.structural == []
    assert verdict.mismatches == []
    assert verdict.new_false == []
