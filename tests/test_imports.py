"""What the package imports and exports: every name is used, and a serial run stays light.

No linter runs on the sources, so an import left behind by a refactor would
otherwise stay. ``__init__.py`` re-exports its imports and is exempt, and so
are ``__future__`` imports, which are compiler directives. For the same
reason a public function or class must have a caller in the package or be
documented in README.md, whose session is run here so that it stays true.

Importing scipy.stats made up most of the start-up of a short ``eqlab run``,
and the process pool added to it. A serial run needs neither, so one is run
in a fresh interpreter and must not have loaded them.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eqlab"
README = SRC.parent.parent / "README.md"
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


def dead_public_names(sources: dict[str, str], readme: str) -> list[str]:
    """Public top-level functions and classes of the modules in ``sources``
    (module name to source) that no module uses and ``readme`` does not name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set(re.findall(r"\w+", readme))
    for tree in trees.values():
        used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
        used.update(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    )


def test_every_public_name_is_used_or_documented():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert dead_public_names(sources, README.read_text()) == []


def test_detects_dead_public_name():
    sources = {
        "a": "def used():\n    pass\ndef dead():\n    pass\nclass Qualified:\n    pass\n"
        "class Documented:\n    pass\ndef _private():\n    pass\n",
        "b": "from . import a\nfrom .a import used\nused()\na.Qualified()\n",
    }
    assert dead_public_names(sources, "`Documented` is a class") == ["a.dead"]


def test_readme_session_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


HEAVY_MODULES = ("scipy", "concurrent.futures.process", "numpy.ma")

SERIAL_RUN = """
import sys
import eqlab, eqlab.cli
status = eqlab.cli.main(["run", "--config", sys.argv[1]])
print(status, [m for m in {heavy!r} if m in sys.modules])
"""

# thm1 at d = 256 and master_seed 7: the first energy draw of its trial
# fails the gap check, so the redraw step runs too; thm2 runs no gap check.
# numpy.ma is loaded by the first call of np.unique or np.isin and costs 13-25 ms.
SERIAL_CONFIGS = (
    {"experiment": "thm1", "d_S": 2, "d_B": [128], "trials": 1},
    {"experiment": "thm2", "d_S": 2, "d_B": [128], "trials": 1},
)


def test_serial_run_loads_no_heavy_module(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    for fields in SERIAL_CONFIGS:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            **fields,
            "time_sampling": {"t_max_factor": 1e3, "n_samples": 50},
            "master_seed": 7,
            "output_path": str(tmp_path / "results"),
        }))
        done = subprocess.run(
            [sys.executable, "-c", SERIAL_RUN.format(heavy=HEAVY_MODULES), str(config)],
            capture_output=True, text=True, env=env, timeout=120, check=True,
        )
        assert done.stdout.splitlines()[-1] == "0 []", fields["experiment"]
