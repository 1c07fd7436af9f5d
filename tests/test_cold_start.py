"""Import surface of a cold process: commands import only what they run.

A short ``repro`` process pays for every module it imports, and scipy
alone used to be most of a cold ``repro sweep``.  scipy and the
fault-injection package (:mod:`repro.resilience`) are imported by the
functions that call them, so a command that never calls them never
loads them.  Each case runs in a fresh interpreter, because this test
session has long since imported both.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the statement in a fresh interpreter (stdout of the statement
# discarded), then prints the loaded scipy and repro.resilience modules.
_PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
{statement}
print(json.dumps(sorted(
    name for name in sys.modules
    if name.partition(".")[0] == "scipy"
    or name.startswith("repro.resilience")
)))
"""


def loaded_after(statement: str) -> list:
    """Names of scipy and ``repro.resilience`` modules after *statement*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    body = "\n".join(f"    {line}" for line in statement.splitlines())
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE.format(statement=body)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def scipy_modules(names):
    return [name for name in names if name.partition(".")[0] == "scipy"]


def resilience_modules(names):
    return [name for name in names if name.startswith("repro.resilience")]


def test_cli_import_loads_no_scipy():
    assert scipy_modules(loaded_after("import repro.cli")) == []


def test_engine_import_loads_no_resilience_package():
    assert resilience_modules(loaded_after("import repro.engine")) == []


def test_sweep_loads_neither_scipy_nor_resilience():
    names = loaded_after(
        "from repro.cli import main\n"
        "assert main(['sweep', '--figure', '12']) == 0"
    )
    assert scipy_modules(names) == []
    assert resilience_modules(names) == []


def test_inject_loads_no_scipy():
    names = loaded_after(
        "from repro.cli import main\n"
        "assert main(['inject', '--scenario', 'lan-host', '--horizon', "
        "'100', '--replications', '2', '--workers', '1']) == 0"
    )
    assert scipy_modules(names) == []


def test_deferred_scipy_import_still_runs():
    # Positive control: the irreducibility check of a steady-state solve
    # still reaches scipy's component labelling, through its deferred
    # import.
    names = loaded_after(
        "import numpy as np\n"
        "from repro.markov.solvers import steady_state\n"
        "steady_state(np.array([[-1.0, 1.0, 0.0], [0.0, -2.0, 2.0], "
        "[3.0, 0.0, -3.0]]))"
    )
    assert "scipy.sparse.csgraph" in names


def _import_time_statements(tree):
    """Import statements that run when the module is imported."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        pending.extend(ast.iter_child_nodes(node))


def test_no_module_imports_scipy_at_import_time():
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in _import_time_statements(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module or ""]
            if any(name.partition(".")[0] == "scipy" for name in modules):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []
