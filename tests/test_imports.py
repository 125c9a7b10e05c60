"""The import graph of the kirch package: no module imports, directly or
through others, a module that imports it back; and the modules a call
of each command loads."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from kirch import cli, verify

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kirch"


def imported_modules(path: Path, modules: set[str]) -> set[str]:
    """The kirch modules that one source file imports, at module level
    or inside a function: `from .m import x`, `from . import m`,
    `from kirch.m import x` and `import kirch.m`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                top, _, module = module.partition(".")
                if top != "kirch":
                    continue
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names if a.name.startswith("kirch."))
    return found & modules


def import_graph(package: Path) -> dict[str, set[str]]:
    modules = {p.stem for p in package.glob("*.py")}
    return {m: imported_modules(package / f"{m}.py", modules) - {m} for m in sorted(modules)}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as [a, b, ..., a], or None."""
    done: set[str] = set()

    def visit(m: str, path: list[str]) -> list[str] | None:
        if m in path:
            return path[path.index(m):] + [m]
        if m in done:
            return None
        for n in sorted(graph[m]):
            if cycle := visit(n, path + [m]):
                return cycle
        done.add(m)
        return None

    for m in graph:
        if cycle := visit(m, []):
            return cycle
    return None


def test_find_cycle_sees_an_import_inside_a_function(tmp_path):
    (tmp_path / "a.py").write_text("from .b import f\n")
    (tmp_path / "b.py").write_text("def f():\n    from .a import g\n    return g\n")
    (tmp_path / "c.py").write_text("from . import a\nimport kirch.b\n")
    graph = import_graph(tmp_path)
    assert graph == {"a": {"b"}, "b": {"a"}, "c": {"a", "b"}}
    assert find_cycle(graph) == ["a", "b", "a"]


def test_the_package_has_no_import_cycle():
    graph = import_graph(PACKAGE)
    assert graph["cli"] >= {"verify", "graphs"}
    assert find_cycle(graph) is None


# Runs under python -S. After each stage it prints which of the three
# modules are loaded: the import, one call of each query command, gamma,
# then --help.
_LOADED_BY_STAGE = """
import contextlib, io, json, sys
import kirch.cli

watched = ("argparse", "kirch.graphs", "kirch.verify")
calls = {
    "query": [["closure", "1", "30"], ["ae", "5", "10"], ["cmp", "5", "10", ";", "7", "14"],
              ["classify", "15", "30"], ["realize", "--A", "2,5", "--alpha", "2=1,5=2"],
              ["prime-class", "31"]],
    "gamma": [["gamma", "7", "--bounds", "4,3"]],
    "help": [["--help"]],
}
stages = {"import": [m for m in watched if m in sys.modules]}
with contextlib.redirect_stdout(io.StringIO()):
    for stage, argvs in calls.items():
        codes = [kirch.cli.main(argv) for argv in argvs]
        stages[stage] = [codes, [m for m in watched if m in sys.modules]]
print(json.dumps(stages))
"""


def test_each_command_loads_only_what_it_runs():
    # without a bytecode cache every module a call imports is compiled
    # again, so a query must not pay for the verify harness, the Gamma_p
    # renderers or argparse
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED_BY_STAGE], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == {
        "import": [],
        "query": [[0] * 6, []],
        "gamma": [[0], ["kirch.graphs"]],
        "help": [[0], ["argparse", "kirch.graphs"]],
    }


def test_the_command_table_matches_verify():
    # the table writes these out so that building it imports no verify
    assert cli._SUITE_NAMES == (*verify._SUITES, "all")
    arguments = dict(cli._COMMANDS["verify"][2])
    defaults = verify.SuiteConfig()
    assert arguments["--bounds"]["default"] == "%d,%d" % defaults.graph_bounds
    assert arguments["--seed"]["default"] == defaults.seed
    assert arguments["--max-element"]["default"] == defaults.max_element
