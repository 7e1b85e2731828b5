"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []``.  This test holds the
tree to it: a fresh interpreter with numpy blocked
(``sys.modules["numpy"] = None`` makes every ``import numpy`` raise
``ImportError``) must import the library, the daemon and the CLI, and
solve a stand-in to the optimum pinned in ``perfbench/expected.json``.
Where numpy is importable, the same imports and solves must not load
it either: no module of the package asks for it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Imports the library, the daemon and the CLI, then solves bitcoin
#: against ``perfbench/expected.json`` (path in ``argv[1]``).
_SOLVE = """
import json

import repro
import repro.cli
import repro.serve
from repro.core.mbc_star import mbc_star
from repro.core.pf import pf_star
from repro.datasets.registry import load

expected = json.loads(open(sys.argv[1], encoding="utf-8").read())
graph = load("bitcoin", scale=expected["scale"])
size = mbc_star(graph, expected["tau"]).size
beta = pf_star(graph)
assert size == expected["mbc"]["bitcoin"], size
assert beta == expected["pf"]["bitcoin"], beta
"""

_PROBE = """
import sys

sys.modules["numpy"] = None
""" + _SOLVE + """
print("ok", size, beta)
"""

#: Records every request for a numpy module, even one an ``ImportError``
#: guard would swallow, without blocking numpy.
_WATCH = """
import importlib.abc
import sys

requested = []


class _Watch(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            requested.append(name)
        return None


sys.meta_path.insert(0, _Watch())
""" + _SOLVE + """
assert "numpy" not in sys.modules
assert not requested, requested
print("ok", size, beta)
"""


def _run(probe: str) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-c", probe,
         str(REPO_ROOT / "perfbench" / "expected.json")],
        env=env, capture_output=True, text=True, timeout=120)


def test_imports_and_solves_without_numpy():
    completed = _run(_PROBE)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("ok "), completed.stdout


def test_library_import_loads_no_numpy():
    completed = _run(_WATCH)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("ok "), completed.stdout
