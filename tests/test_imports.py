"""Import surface: lazy package facades, per-command closures, and the
``from repro… import …`` lines the documentation shows.

``repro`` and ``repro.sim`` resolve their public names on first use,
so a command loads only the modules it runs: ``python -m repro store
--stats`` (the set-up of every cold run) loads no simulator.  These
tests pin the facade contract, each light command's module closure in
a fresh interpreter, and that every documented import still works.
"""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FACADES = ("repro", "repro.sim")


def _child(script, tmp_path, *args):
    """Run ``script`` in a fresh interpreter; returns its stdout."""
    out = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, cwd=str(ROOT), timeout=120,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin",
             "REPRO_CACHE_DIR": str(tmp_path / "store")},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


# -- facades ------------------------------------------------------------

_FACADE_SCRIPT = """
import importlib, json, sys
facades = [importlib.import_module(name) for name in sys.argv[1:]]
report = {}
for facade in facades:
    for name in facade.__all__:
        if name == "__version__":
            continue
        loaded = name in vars(facade)
        value = getattr(facade, name)
        home = facade._EXPORTS[name]
        report["%s.%s" % (facade.__name__, name)] = {
            "loaded_before_use": loaded,
            "cached": vars(facade).get(name) is value,
            "is_defining_object":
                getattr(importlib.import_module(home), name) is value,
            "defined_in_home": getattr(value, "__module__", home) == home,
        }
print(json.dumps(report))
"""


def test_facade_names_resolve_on_first_use_and_stay_cached(tmp_path):
    report = json.loads(_child(_FACADE_SCRIPT, tmp_path, *FACADES))
    assert len(report) == 18 + 7
    expected = {
        "loaded_before_use": False,
        "cached": True,
        "is_defining_object": True,
        "defined_in_home": True,
    }
    for name, facts in report.items():
        assert facts == expected, name


@pytest.mark.parametrize("facade_name", FACADES)
def test_facade_dir_and_unknown_names(facade_name):
    import importlib

    facade = importlib.import_module(facade_name)
    listing = dir(facade)
    for name in facade.__all__:
        assert name in listing
        assert getattr(facade, name) is vars(facade)[name]
    with pytest.raises(AttributeError, match="no_such_name"):
        facade.no_such_name
    assert not hasattr(facade, "no_such_name")


def test_top_level_all_is_unchanged():
    import repro

    assert repro.__all__ == [
        "Simulator", "SimResult", "MachineConfig", "baseline_config",
        "scaled_config", "register_policy", "parse_policy_spec",
        "available_policies", "build_workload", "parse_workload_spec",
        "register_workload", "available_workloads", "experiment_config",
        "BENCHMARKS", "LRUPolicy", "LINPolicy", "SBARController",
        "CBSController", "__version__",
    ]


# -- per-command closures -----------------------------------------------

_CLOSURE_SCRIPT = """
import contextlib, io, json, sys
from repro.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps({
    "repro": sorted(m for m in sys.modules if m.startswith("repro")),
    "asyncio": "asyncio" in sys.modules,
}))
"""


def _closure(tmp_path, argv):
    return json.loads(_child(_CLOSURE_SCRIPT, tmp_path, *argv))


@pytest.mark.parametrize("argv", (
    ["store", "--stats"], ["store", "--gc", "--dry-run"], ["store", "--clear"],
), ids=("stats", "gc-dry-run", "clear"))
def test_store_loads_no_simulator(tmp_path, argv):
    assert set(_closure(tmp_path, argv)["repro"]) <= {
        "repro", "repro.__main__", "repro.sim", "repro.sim.store",
    }


@pytest.mark.parametrize("argv", (["--help"], ["--version"]),
                         ids=("help", "version"))
def test_umbrella_help_and_version_load_only_the_umbrella(tmp_path, argv):
    assert _closure(tmp_path, argv)["repro"] == ["repro", "repro.__main__"]


@pytest.mark.parametrize("argv", (["submit", "--help"], ["workloads", "--list"]),
                         ids=("submit-help", "workloads-list"))
def test_light_commands_load_no_simulator_and_no_asyncio(tmp_path, argv):
    closure = _closure(tmp_path, argv)
    assert "repro.sim.simulator" not in closure["repro"]
    assert not closure["asyncio"]


def test_service_loads_what_a_cell_runs_before_it_listens(tmp_path):
    # Slots fork from the daemon on first use; what the daemon has not
    # imported by then, every slot imports inside a timed cell.
    script = (
        "import sys, json\n"
        "import repro.service.server\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    loaded = set(json.loads(_child(script, tmp_path)))
    assert {
        "repro.sim.runner", "repro.sim.simulator", "repro.sim.native",
        "repro.sim.store", "repro.workloads", "repro.workloads.registry",
        "repro.workloads.spec2000",
    } <= loaded


# -- documented imports -------------------------------------------------

_IMPORT_LINE = re.compile(r"^\s*(?:>>>\s*)?(from\s+repro(?:\.\w+)*\s+import\b.*)$")
_CONTINUATION = re.compile(r"^\s*(?:\.\.\.\s?)?")


def _unfinished(lines):
    code = re.sub(r"#.*", "", "\n".join(lines)).rstrip()
    return code.endswith("\\") or code.count("(") > code.count(")")


def _import_statements(text):
    """Every ``from repro… import …`` statement in ``text``, with its
    parenthesized or backslash-continued lines joined."""
    lines = text.splitlines()
    found = []
    for number, line in enumerate(lines):
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        statement = [match.group(1)]
        cursor = number + 1
        while cursor < len(lines) and _unfinished(statement):
            statement.append(_CONTINUATION.sub("", lines[cursor]))
            cursor += 1
        found.append((number, "\n".join(statement)))
    return found


def _docstrings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                yield node.body[0].lineno, docstring


def _documented_imports():
    cases = []
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        for number, statement in _import_statements(path.read_text()):
            cases.append(("%s:%d" % (path.relative_to(ROOT), number + 1),
                          statement))
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for first, docstring in _docstrings(path):
            for number, statement in _import_statements(docstring):
                cases.append(("%s:%d" % (path.relative_to(ROOT), first + number),
                              statement))
    return cases


DOCUMENTED_IMPORTS = _documented_imports()


def test_documented_imports_are_found():
    found = dict(DOCUMENTED_IMPORTS)
    assert len(found) >= 30
    assert "from repro import Simulator, build_workload, experiment_config" \
        in found.values()
    # Parenthesized statements arrive whole.
    assert any(s.startswith("from repro.sbar import (") and s.endswith(")")
               for s in found.values())


@pytest.mark.parametrize(
    "statement", [s for _, s in DOCUMENTED_IMPORTS],
    ids=[where for where, _ in DOCUMENTED_IMPORTS],
)
def test_documented_import_works(statement):
    exec(compile(statement, "<documented import>", "exec"), {})


def test_continued_statements_are_joined():
    text = (
        "    >>> from repro.sim import (\n"
        "    ...     RunOptions,  # the options\n"
        "    ... )\n"
        "from repro.sim.store import ResultStore, \\\n"
        "    default_store\n"
    )
    assert [s for _, s in _import_statements(text)] == [
        "from repro.sim import (\n    RunOptions,  # the options\n)",
        "from repro.sim.store import ResultStore, \\\ndefault_store",
    ]
