"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []``.  This test holds the
tree to it: a fresh interpreter with numpy blocked
(``sys.modules["numpy"] = None`` makes every ``import numpy`` raise
``ImportError``) must import the library, the daemon and the CLI, and
solve a stand-in to the optimum pinned in ``perfbench/expected.json``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import json
import sys

sys.modules["numpy"] = None

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
print("ok", size, beta)
"""


def test_imports_and_solves_without_numpy():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE,
         str(REPO_ROOT / "perfbench" / "expected.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.startswith("ok "), completed.stdout
