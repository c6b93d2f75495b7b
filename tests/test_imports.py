"""What the package imports: every name is used, and a serial run stays light.

No linter runs on the sources, so an import left behind by a refactor would
otherwise stay. ``__init__.py`` re-exports its imports and is exempt, and so
are ``__future__`` imports, which are compiler directives.

Importing scipy.stats made up most of the start-up of a short ``eqlab run``,
and the process pool added to it. A serial run needs neither, so one is run
in a fresh interpreter and must not have loaded them.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eqlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    source = (
        "from __future__ import annotations\nimport os\nfrom math import pi, tau as t\nprint(pi)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "t (line 3)"]


HEAVY_MODULES = ("scipy", "concurrent.futures.process")

SERIAL_RUN = """
import sys
import eqlab, eqlab.cli
status = eqlab.cli.main(["run", "--config", sys.argv[1]])
print(status, [m for m in {heavy!r} if m in sys.modules])
"""


def test_serial_run_loads_no_heavy_module(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiment": "thm1",
        "d_S": 2,
        "d_B": [4],
        "trials": 1,
        "time_sampling": {"t_max_factor": 1e3, "n_samples": 50},
        "master_seed": 7,
        "output_path": str(tmp_path / "results"),
    }))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SERIAL_RUN.format(heavy=HEAVY_MODULES), str(config)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 []"
