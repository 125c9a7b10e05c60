"""What a one-lane `kirch verify all` and the query commands never run.

Under sys.setprofile, `verify all --format json` runs in one lane, so
that the functions `order` calls are seen too, `verify mihailescu`
prints a text report, and each query command runs once in text and
once in JSON. Every function definition in src/kirch that was never
entered must be listed in NEVER_ENTERED with its reason: a new
function that no suite and no command reaches shows up here, and so
does one that has lost its last caller. The list may only shrink.
"""

import ast
import os
import pathlib
import sys

from kirch import cli, numtheory, verify

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "kirch"

NEVER_ENTERED = {
    "cli._build_parser.<locals>._Parser.error": "a usage error, which no plain call makes; "
                                                "tests/test_cli.py has them",
    "cli._build_parser": "only a call that is not plain (help, --opt=value, an error) parses",
    "cli._command": "builds the command table at import",
    "cli._plain_table": "builds the plain-call tables at import",
    "cli.run": "the entry point of the kirch script and of python -m kirch; main is called",
    "filters.FiniteSubset.__contains__": "the set protocol of a public type",
    "filters.FiniteSubset.__iter__": "the set protocol of a public type",
    "graphs._check_vertex": "edge_predicate's argument check",
    "graphs.edge_predicate": "the definitional edge test; ROADMAP item 1 gives it a caller",
    "numtheory._Frozen.__reduce__": "copy and pickle, which nothing in kirch does; "
                                    "pinned by tests/test_values.py",
    "numtheory._Frozen.__repr__": "the value-type contract, pinned by tests/test_values.py",
    "numtheory._Frozen.__setattr__": "the value-type contract, pinned by tests/test_values.py",
    "numtheory._Value.__eq__": "the value-type contract, pinned by tests/test_values.py",
    "numtheory._Value.__hash__": "the value-type contract, pinned by tests/test_values.py",
    "numtheory._Value.__init_subclass__": "runs at import, once per value type",
    "numtheory.small_primes": "perfbench/workload.py calls it",
    "topology.Progression.__contains__": "the reference for members() in tests/test_topology.py",
    "verify.VerifyFailure.to_json_dict": "renders a failure, and a passing run has none",
    "verify._usable_cpus": "patched out, for one lane",
}

# one call of each query command; the closure modulus 1000003 * 1000033
# is split by rho
QUERIES = [
    ("closure", "5", str(1000003 * 1000033)),
    ("ae", "5", "10", "7"),
    ("cmp", "5", "10", ";", "7", "14"),
    ("classify", "15", "30"),
    ("realize", "--A", "2,5", "--alpha", "2=1,5=2"),
    ("gamma", "3", "--bounds", "3,2"),
    ("prime-class", "31"),
]


def _definitions() -> dict[tuple[str, int], str]:
    """module.qualname of each function definition in src/kirch, keyed
    as its code object is: by file and by the line of its first
    decorator, or of its def."""
    found = {}

    def walk(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found[(str(path), first)] = f"{path.stem}.{name}"
                walk(path, child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(path, child, prefix + child.name + ".")
            else:
                walk(path, child, prefix)

    for path in SRC.glob("*.py"):
        walk(path, ast.parse(path.read_text()), "")
    return found


def test_never_entered_functions_are_the_listed_ones(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    # a cached answer would skip factorize
    numtheory.prime_divisors.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # the text report comes from a one-case suite
    calls = [("verify", "all", "--format", "json"), ("verify", "mihailescu")]
    calls += [(*q, "--format", f) for q in QUERIES for f in ("text", "json")]
    sys.setprofile(profile)
    try:
        status = [cli.main(list(argv)) for argv in calls]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert status == [0] * len(calls)
    entered = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}
    never = {name for key, name in _definitions().items() if key not in entered}
    assert never == set(NEVER_ENTERED)
