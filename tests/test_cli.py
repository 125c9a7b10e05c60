"""Command-line behavior: output routing, formats, exit codes."""

import collections
import functools
import hashlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirch import cli, filters, topology
from kirch.cli import _build_parser, main
from kirch.filters import FiniteSubset, descriptor

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ae_text(capsys):
    code, out, err = run(capsys, "ae", "5", "10")
    assert code == 0 and err == ""
    assert out.strip() == "A={2, 5} Pi={5} alpha={2:1, 5:0}"


def test_ae_json(capsys):
    code, out, err = run(capsys, "ae", "--format", "json", "5", "10")
    assert code == 0
    d = json.loads(out)
    assert d["A"] == [2, 5] and d["Pi"] == [5]
    assert d["alpha"] == {"2": 1, "5": 0}


def test_ae_singleton(capsys):
    code, out, _ = run(capsys, "ae", "--format", "json", "7")
    assert code == 0
    assert json.loads(out)["A"] == "all"


def test_closure_text_and_json_agree(capsys):
    code, out, err = run(capsys, "closure", "-1", "3", "--window", "10")
    assert code == 0 and err == ""
    assert "mod 3: {0, 2}" in out
    code, jout, _ = run(capsys, "closure", "-1", "3", "--window", "10",
                        "--format", "json")
    d = json.loads(jout)
    assert d["residues"] == {"3": [0, 2]}
    assert d["sample"] == [z for z in range(-10, 11)
                           if z != 0 and z % 3 in (0, 2)]


def test_closure_rejects_zero_modulus(capsys):
    code, out, err = run(capsys, "closure", "1", "0")
    assert code == 2
    assert out == "" and err != ""


def test_closure_rejects_huge_window(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "closure", "1", "3", "--window", "9223372036854775808")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_rejects_huge_window(capsys):
    # verify closure checks one fixed window and takes no --window
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "closure", "--window", "200000000")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cmp_directions(capsys):
    code, out, _ = run(capsys, "cmp", "5", "10", ";", "1", "5", "10")
    assert code == 0
    assert "E <= F: true" in out
    assert "F <= E: false" in out
    assert "escaping element" in out


def test_cmp_json_witness(capsys):
    code, out, _ = run(capsys, "cmp", "--format", "json",
                       "5", "10", ";", "7", "14")
    assert code == 0
    d = json.loads(out)
    assert d["e_leq_f"]["holds"] is False
    assert d["e_leq_f"]["witness"]["prime"] == 7
    assert d["e_leq_f"]["witness"]["element"] == 1


def in_generator(z, d, L):
    """Membership in G(L): nonzero, divisible by L, and at each prime of
    A outside Pi either divisible or in the alpha class."""
    free = set(d.A) - set(d.Pi)
    return (
        z != 0
        and all(z % r == 0 for r in L)
        and all(z % p in (0, d.alpha[p]) for p in free)
    )


def test_cmp_witness_past_a_billion(capsys):
    # A_F = {2, 101, 9901, 1000003}: the escaping element is their CRT
    # solution, far above 10^9
    code, out, err = run(capsys, "cmp", "--format", "json",
                         "1", "3", ";", "2", "1000003")
    assert code == 0 and err == ""
    w = json.loads(out)["e_leq_f"]["witness"]
    assert w["prime"] == 101 and w["element"] > 10**9
    assert w["reason"] == "A(F) reaches outside A(E)"  # target G_E({101})
    dE = descriptor(FiniteSubset.of(1, 3))
    dF = descriptor(FiniteSubset.of(2, 1000003))
    assert in_generator(w["element"], dF, ())
    assert not in_generator(w["element"], dE, (w["prime"],))


def test_cmp_singleton_rule(capsys):
    code, out, _ = run(capsys, "cmp", "--format", "json", "5", ";", "5", "10")
    assert code == 0
    d = json.loads(out)
    assert d["e_leq_f"] == {
        "holds": True, "rule": "singleton containment", "witness": None
    }


def test_cmp_requires_separator(capsys):
    code, out, err = run(capsys, "cmp", "5", "10", "7", "14")
    assert code == 2 and out == "" and "';'" in err


def test_classify_fprime(capsys):
    code, out, _ = run(capsys, "classify", "1", "5", "10")
    assert code == 0
    assert out.splitlines()[0] == "FPrime"


def test_classify_fdoubleprime_upset(capsys):
    code, out, _ = run(capsys, "classify", "--format", "json", "5", "10")
    assert code == 0
    d = json.loads(out)
    assert d["class"] == "FDoublePrime"
    assert len(d["upset"]) == 4


def test_realize(capsys):
    code, out, _ = run(capsys, "realize", "--A", "2,5", "--alpha", "2=1,5=2")
    assert code == 0
    assert out.strip() == "{5, 7, 10}"


@pytest.mark.parametrize("argv,stdout", [
    (("ae", "7"), "A=all Pi={7} alpha={}\n"),
    (("ae", "--format", "json", "7"),
     '{"A": "all", "Pi": [7], "alpha": {}, "source": [7]}\n'),
    (("ae", "1", "15", "30"), "A={2, 3, 5} Pi={} alpha={2:1, 3:1, 5:1}\n"),
    (("classify", "1", "15", "30"),
     "FDoublePrime\n"
     "  A={2, 3, 5} Pi={} alpha={2:1, 3:1, 5:1}\n"
     "  upset: 2 descriptors\n"
     "    A={2, 3} Pi={} alpha={2:1, 3:1}\n"
     "    A={2, 5} Pi={} alpha={2:1, 5:1}\n"),
    (("closure", "1", "1", "--window", "3"),
     "Z\\{0}\n  members in [-3, 3]: -3, -2, -1, 1, 2, 3\n"),
    (("closure", "--format", "json", "1", "1", "--window", "3"),
     '{"a": 1, "b": 1, "primes": [], "residues": {}, '
     '"sample": [-3, -2, -1, 1, 2, 3], "window": 3}\n'),
    (("realize", "--A", "2", "--alpha", "2=1"), "{1, 2}\n"),
    (("realize", "--format", "json", "--A", "5,2", "--alpha", "5=3,2=1"),
     '{"A": [2, 5], "alpha": {"2": 1, "5": 3}, "set": [3, 5, 10]}\n'),
    (("realize", "--format", "json", "--A", "2,5,5", "--alpha", "2=1,5=2"),
     '{"A": [2, 5], "alpha": {"2": 1, "5": 2}, "set": [5, 7, 10]}\n'),
    (("gamma", "3", "--bounds", "1,2"),
     'graph gamma_3 {\n'
     '  "-3";\n  "3";\n  "-2*3";\n  "2*3";\n'
     '  "-3^2";\n  "3^2";\n  "-2*3^2";\n  "2*3^2";\n'
     '  "-2*3" -- "-2*3^2";\n  "-2*3" -- "-3^2";\n'
     '  "-2*3" -- "2*3";\n  "-2*3" -- "2*3^2";\n'
     '  "-2*3^2" -- "2*3^2";\n  "-3" -- "-2*3";\n'
     '  "-3" -- "-3^2";\n  "-3" -- "2*3";\n'
     '  "-3" -- "3";\n  "-3" -- "3^2";\n'
     '  "-3^2" -- "-2*3^2";\n  "-3^2" -- "2*3^2";\n'
     '  "-3^2" -- "3^2";\n  "2*3" -- "-2*3^2";\n'
     '  "2*3" -- "2*3^2";\n  "2*3" -- "3^2";\n'
     '  "3" -- "-2*3";\n  "3" -- "-3^2";\n'
     '  "3" -- "2*3";\n  "3" -- "3^2";\n'
     '  "3^2" -- "-2*3^2";\n  "3^2" -- "2*3^2";\n'
     '}\n'),
    (("gamma", "3", "--bounds", "1,2", "--format", "json"),
     '{"bounds": [1, 2], "edges": '
     '[[-3, 3], [-3, -6], [-3, 6], [-3, -9], [-3, 9], [3, -6], [3, 6], '
     '[3, -9], [3, 9], [-6, 6], [-6, -9], [-6, -18], [-6, 18], [6, 9], '
     '[6, -18], [6, 18], [-9, 9], [-9, -18], [-9, 18], [9, -18], [9, 18], '
     '[-18, 18]], "p": 3, "provenance": {"both": '
     '[[-3, 3], [-3, -6], [-3, 6], [-3, -9], [-3, 9], [3, -6], [3, 6], '
     '[3, -9], [3, 9], [-6, 6], [-6, -9], [-6, -18], [-6, 18], [6, 9], '
     '[6, -18], [6, 18], [-9, 9], [-9, -18], [-9, 18], [9, -18], [9, 18], '
     '[-18, 18]], "closed_form": [], "predicate": []}, '
     '"vertices": [-3, 3, -6, 6, -9, 9, -18, 18]}\n'),
    # x - y leaves the 63-bit range: -2^63 and 2^64 - 2
    (("ae", "1", "-9223372036854775807"),
     "A={2, 7, 73, 127, 337, 92737, 649657} Pi={} "
     "alpha={2:1, 7:1, 73:1, 127:1, 337:1, 92737:1, 649657:1}\n"),
    (("ae", "--", "-9223372036854775807", "9223372036854775807"),
     "A={2, 7, 73, 127, 337, 92737, 649657} "
     "Pi={7, 73, 127, 337, 92737, 649657} "
     "alpha={2:1, 7:0, 73:0, 127:0, 337:0, 92737:0, 649657:0}\n"),
], ids=[
    "ae-singleton", "ae-singleton-json", "ae-empty-pi", "classify-upset",
    "closure-whole-line", "closure-whole-line-json", "realize-top",
    "realize-json", "realize-json-duplicate-primes", "gamma-dot",
    "gamma-json", "ae-difference-2^63", "ae-difference-2^64-2",
])
def test_exact_renderings(capsys, argv, stdout):
    assert run(capsys, *argv) == (0, stdout, "")


def test_realize_rejects_bad_alpha(capsys):
    code, out, err = run(capsys, "realize", "--A", "2,5", "--alpha", "5=2")
    assert code == 2 and err != ""
    code, _, err = run(capsys, "realize", "--A", "2,5", "--alpha", "whatever")
    assert code == 2 and "p=r" in err
    code, out, err = run(capsys, "realize", "--A", "2,3", "--alpha", "2=1,3=1,3=2")
    assert code == 2 and out == "" and err.count("\n") == 1 and "twice" in err


# sha256 of `kirch gamma` stdout, DOT and JSON: the benchmark's p = 3
# grid, the p = 2 row and the p = 3 grid near the 63-bit edge, the one
# row of Gamma_5 that fits, a Fermat and a Mersenne prime, the largest
# p = 3 grid the 63-bit range admits (1,280 vertices), and an empty grid
GAMMA_SHA256 = {
    "3 --bounds 14,8": "e91153254c3d4d7ddce9a62b36a9fa13123f00c58de2feaafc679f3b1b1112ea",
    "3 --bounds 14,8 --format json":
        "6f07cc509ef91c5666cad943db08e8715ee9b129f99bb10702246811ae84689f",
    "2 --bounds 62,0": "7f32b129ff90834fc27ce6d098357d6efc7d5861222c7c514b2f7446f6599e1e",
    "2 --bounds 62,0 --format json":
        "a86404bee4b86d2df8eb41ed0da34c3ede5db8ac753a0f9383d80fe01bd6f98d",
    "3 --bounds 38,14": "751dcc932b4965054e3e12a81b2e0b8be1194f9e13ae4244dc07ffab71a05df2",
    "3 --bounds 38,14 --format json":
        "4ca932e4fff05834598280ca67176a2e5354bd199a3c8de507398b71d2a0feab",
    "5 --bounds 0,27": "65e32732a058babb3f63a7328af036b1d1b97b1a14e5b7ea554c5b891a1efec7",
    "5 --bounds 0,27 --format json":
        "0091281aa714d5fbd3af333c9359f2726ada3e2050d0a4dc8eab64d3bd70a2ac",
    "17 --bounds 16,5": "a43b862c2326cf502a9b24980ac983943aa825fc03facecc5cceb391379e3bc8",
    "17 --bounds 16,5 --format json":
        "0f254c6bf73963cd0db309b7a08f973e8d95f53913658b432a1cc39fa36d9a49",
    "31 --bounds 16,4": "6499a9f6005de098b919723bf7694227e1d23cd184b8f98c03170922a7834f5d",
    "31 --bounds 16,4 --format json":
        "d916bd17b31368a4394fb59d7401c262aa776664c35481daaa4dc654a11e82c3",
    "3 --bounds 31,20": "2bb2bfb33c09780cd22e130f2ed4c445e3b43db5f7c3e544cb9e402ef18a913b",
    "3 --bounds 31,20 --format json":
        "a665643b6f1f5c12ad5ccdcea1f4f76b1003777b17cbd9f3489b7771b7ecde47",
    "5 --bounds 3,0 --format json":
        "92abc4da6878469d90d17a7dab746d8247d9b1557d38cda68291396eae14831b",
}


@pytest.mark.parametrize("args", GAMMA_SHA256)
def test_gamma_output_is_pinned(capsys, args):
    code, out, err = run(capsys, "gamma", *args.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GAMMA_SHA256[args]


TOO_BIG = "9223372036854775808"  # 2^63
P61 = str(2**61 - 1)  # a Mersenne prime
P62 = str(2**62 - 57)  # the largest prime below 2^62

# Calls of the query commands, each made as text and as --format json
# (inserted after the command name): singletons, every filter class, an
# FDoublePrime upset of each shape and one refused, both order rules
# with a witness of each reason, closures whose moduli are a product of
# small primes, a semiprime and 62- and 63-bit numbers, prime classes
# up to 2^63 - 25, and refusals, the 63-bit guard of each command among
# them.
QUERY_CALLS = [
    ("ae", "1", "2"), ("ae", "5", "10"), ("ae", "7"), ("ae", "-12"),
    ("ae", "6", "-12", "30"), ("ae", "1", "15", "30"), ("ae", "3", "7", "11", "13"),
    ("ae", "1", "-9223372036854775807"), ("ae", "1", P62),
    ("ae", "--", "-9223372036854775807", "9223372036854775807"),
    ("classify", "7"), ("classify", "1", "2"), ("classify", "1", "5", "10"),
    ("classify", "5", "10"), ("classify", "1", "15", "30"), ("classify", "3", "7"),
    ("classify", "6", "-12", "30"), ("classify", "-97", "97"),
    ("classify", f"-{P61}", P61),
    ("cmp", "5", "10", ";", "7", "14"), ("cmp", "7", ";", "7", "14"),
    ("cmp", "5", ";", "5", "10"), ("cmp", "3", ";", "5"),
    ("cmp", "5", "10", ";", "1", "5", "10"), ("cmp", "1", "5", "10", ";", "2", "5", "10"),
    ("cmp", "1", "15", ";", "1", "5", "10"), ("cmp", "1", "3", ";", "2", "1000003"),
    ("cmp", "6", "-12", "30", ";", "6", "-12", "30"), ("cmp", "1", P62, ";", "1", "2"),
    ("cmp", "5", "10", "7", "14"), ("cmp", "1", ";"),
    ("closure", "1", "30"), ("closure", "-1", "3", "--window", "10"),
    ("closure", "1", "1", "--window", "3"), ("closure", "7", "210"),
    ("closure", "1", "30", "--window", "1000"), ("closure", "5", str(1000003 * 1000033)),
    ("closure", "12", P62), ("closure", "9223372036854775807", "9223372036854775806"),
    ("closure", "1", "0"), ("closure", "1", "3", "--window", "0"),
    ("realize", "--A", "2,5", "--alpha", "2=1,5=2"), ("realize", "--A", "2", "--alpha", "2=1"),
    ("realize", "--A", "2,3,7", "--alpha", "2=1,3=0,7=4"),
    ("realize", "--A", "5,2", "--alpha", "5=3,2=1"),
    ("realize", "--A", "2,4", "--alpha", "2=1,4=1"), ("realize", "--A", "2,5", "--alpha", "5=2"),
    ("realize", "--A", "2,3", "--alpha", "2=1,3=3"),
    ("realize", "--A", "2,3", "--alpha", "2=1,3=1,3=2"),
    *(("prime-class", p) for p in (
        "2", "3", "5", "7", "31", "257", "65537", "2147483647", P61, P62,
        str(2**63 - 25), "4", "1", "0", "-3")),
    ("ae", "1", TOO_BIG), ("classify", "1", TOO_BIG), ("cmp", "1", TOO_BIG, ";", "1", "2"),
    ("closure", "1", TOO_BIG), ("prime-class", TOO_BIG),
    ("realize", "--A", f"2,{TOO_BIG}", "--alpha", f"2=1,{TOO_BIG}=1"),
]
# sha256 over the JSON list [argv, exit status, stdout, stderr] of each
# call of QUERY_CALLS, text then JSON, in order
QUERY_SHA256 = "f17aa0c9b415960010c7d76bc45820b5553b193c5802cd8d4f7dc370985d7d1f"


def test_query_output_is_pinned(capsys):
    h = hashlib.sha256()
    for cmd, *rest in QUERY_CALLS:
        for fmt in ((), ("--format", "json")):
            argv = (cmd, *fmt, *rest)
            h.update(json.dumps([argv, *run(capsys, *argv)]).encode())
    assert h.hexdigest() == QUERY_SHA256


def test_json_calls_build_only_what_they_print(capsys, monkeypatch):
    # descriptors counted by source set through every name they are
    # called by; a text rendering of a descriptor or closure refused
    built = collections.Counter()

    def counted(E, real=filters.descriptor):
        built[E] += 1
        return real(E)

    def refuse(self):
        raise AssertionError(f"a JSON call rendered a {type(self).__name__} as text")

    for module in (filters, cli):
        monkeypatch.setattr(module, "descriptor", counted)
    monkeypatch.setattr(filters.FilterDescriptor, "__str__", refuse)
    monkeypatch.setattr(topology.ClosureSet, "__str__", refuse)
    assert run(capsys, "classify", "--format", "json", "3", "7")[0] == 0
    assert built[FiniteSubset.of(3, 7)] <= 2
    for left, right in (((5, 10), (7, 14)), ((1, 5, 10), (2, 5, 10)), ((1, 3), (2, 1000003))):
        built.clear()
        argv = ("cmp", "--format", "json", *map(str, left), ";", *map(str, right))
        assert run(capsys, *argv)[0] == 0
        assert built == {FiniteSubset(left): 1, FiniteSubset(right): 1}
    for cmd, *rest in QUERY_CALLS:
        run(capsys, cmd, "--format", "json", *rest)


def test_gamma_dot(capsys):
    code, out, _ = run(capsys, "gamma", "5", "--bounds", "2,2")
    assert code == 0
    assert out.startswith("graph gamma_5 {")
    assert '"2^2*5^2"' in out


def test_gamma_json(capsys):
    code, out, _ = run(capsys, "gamma", "5", "--bounds", "2,2",
                       "--format", "json")
    d = json.loads(out)
    assert d["p"] == 5 and d["bounds"] == [2, 2]
    assert 25 in d["vertices"]


def test_gamma_two_uses_power_chain(capsys):
    code, out, _ = run(capsys, "gamma", "2", "--bounds", "2,0")
    assert code == 0
    assert out.startswith("graph gamma_2 {")
    assert out.count("--") == 7


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"

# The benchmark's checker, loaded by path: its own vertex list and its
# own smooth-difference edges, with no kirch import.
_spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


# kirch gamma in DOT and JSON, read back and checked against the
# pairwise smooth-difference edges, for each odd prime class: p = 3,
# Fermat, Mersenne and neither.
@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_gamma_output_matches_the_checker(capsys, p):
    bounds = (6, 3)
    code, dot, err = run(capsys, "gamma", str(p), "--bounds", "6,3")
    assert code == 0 and err == ""
    code, out, err = run(capsys, "gamma", str(p), "--bounds", "6,3", "--format", "json")
    assert code == 0 and err == ""
    data = json.loads(out)
    truth = checks.gamma_edges(p, bounds)
    assert truth
    assert checks.check_gamma(p, bounds, dot, data, truth) == []
    # check_gamma compares the vertices as sets, and Gamma_p is symmetric
    # under x -> -x, so a renderer that swapped the labels of x and -x
    # would pass it: the i-th DOT vertex line must name the i-th JSON
    # vertex
    names = [line.strip().rstrip(";").strip('"') for line in dot.splitlines()
             if line.count('"') == 2]
    assert [checks._dot_value(name) for name in names] == data["vertices"]


# kirch verify all at its default, judged by the benchmark's checker:
# the suite list, every suite's case count from the loop bounds, and
# each gamma grid's vertex and predicate edge counts against the
# checker's own pairwise edges, with the p = 3 printed-list report.
def test_verify_all_report_matches_the_checker(capsys):
    code, out, err = run(capsys, "verify", "all", "--format", "json")
    assert code == 0 and err == ""
    assert checks.check_verify_all(out) == []


# The benchmark's stream of CLI calls, two rounds for each of two seeds
# across the 63-bit range, each judged as the queries workload judges
# it: exit 0 with an empty checker verdict, or exit 2 with nothing on
# stdout and one line on stderr. No exception may escape main.
@pytest.mark.parametrize("seed", [7, 11])
def test_query_stream_keeps_the_cli_contract(monkeypatch, capsys, seed):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    queries = importlib.import_module("queries")
    workload = importlib.import_module("workload")
    kinds = set()
    for calls in queries.rounds(seed, 0, 2):
        for q in calls:
            code, out, err = run(capsys, *q.argv)
            assert workload._check_query(q, code, out, err) == [], q.argv
            assert code in (0, 2), q.argv
            if code == 2:
                assert out == "" and err.count("\n") == 1, q.argv
            kinds.add((q.kind, code))
    assert ("out_of_range", 2) in kinds and len(kinds) > 5


# The values at the edges of the 63-bit range, 0 and +-1, and 61- and
# 62-bit primes and a 62-bit composite, 3 * (2^31 - 1) * 715827883.
QUERY_EDGES = [0, 1, -1, 2**61 - 1, -(2**61 - 1), 2**62 - 57, -(2**62 - 57), 2**62 - 1,
               2**63 - 1, -(2**63 - 1), 2**63, -(2**63)]


def edge_queries(queries):
    """Fixed calls of the five query commands on the edge values: ae and
    classify on every pair, cmp of every pair against {1, 2} (it answers
    both directions) and of every two singletons, closure on every
    (a, b), prime-class on every value; each a Query as the queries
    workload's checker reads it."""
    fmt = ("--format", "json")
    for x, y in combinations(QUERY_EDGES, 2):
        E = (x, y)
        for kind in ("ae", "classify"):
            yield queries.Query(kind, (kind, *fmt, str(x), str(y)), E)
        for left, right in ((E, (1, 2)), ((x,), (y,))):
            argv = ("cmp", *fmt, *map(str, left), ";", *map(str, right))
            yield queries.Query("cmp", argv, (left, right))
    for a, b in product(QUERY_EDGES, QUERY_EDGES):
        yield queries.Query("closure", ("closure", *fmt, str(a), str(b)), (a, b))
    for p in QUERY_EDGES:
        yield queries.Query("prime_class", ("prime-class", *fmt, str(p)), (p,))


# Each edge call exits 0 with an empty checker verdict, or exits 2 with
# nothing on stdout and one line on stderr. No exception may escape main.
def test_query_commands_keep_the_cli_contract_at_the_63_bit_edges(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    queries = importlib.import_module("queries")
    workload = importlib.import_module("workload")
    checker = importlib.import_module("checks")
    # the checker factors every number afresh, and the calls share their
    # elements and differences: a cache keeps its verdicts and the time
    monkeypatch.setattr(checker, "prime_factors", functools.cache(checker.prime_factors))
    kinds = set()
    for q in edge_queries(queries):
        code, out, err = run(capsys, *q.argv)
        assert code in (0, 2), q.argv
        if code == 0:
            assert workload._check_query(q, code, out, err) == [], q.argv
        else:
            assert out == "" and err.count("\n") == 1, q.argv
        kinds.add((q.kind, code))
    # each of the five commands both answers and refuses
    assert len(kinds) == 10


# The edge values of every integer option of gamma and verify, and the
# bounds built from them, two malformed ones included.
EDGES = ["0", "1", "62", "63", str(2**63 - 1), str(2**63), "-1"]
BOUNDS = [f"{i},{j}" for i in EDGES for j in EDGES] + ["1,2,3", "x,y"]
# primes of every class, the Mersenne prime 2^61 - 1, the largest prime
# below 2^63, non-primes, 0, +-1 and 2^63
GAMMA_P = ["2", "3", "5", "7", "11", "13", "17", "31", "127", "257", "65537",
           str(2**61 - 1), str(2**63 - 25), "4", "9", "15", "91", str(2**63 - 1),
           "0", "1", "-1", "-3", str(2**63)]


def contract_calls():
    """gamma on every p and bounds above; every suite, all included, on
    every edge value of --max-element, and on every bounds value that
    gamma or gamma2 reads or that is refused as it is parsed (the other
    suites ignore well-formed bounds, so there each would rerun one
    default plan); order on every edge value of --seed, at
    --max-element 1."""
    for p in GAMMA_P:
        for b in BOUNDS:
            yield "gamma", p, "--bounds", b
    for suite in cli._SUITE_NAMES:
        for m in EDGES:
            yield "verify", suite, "--max-element", m
        for b in BOUNDS:
            if suite in ("gamma", "gamma2") or not re.fullmatch(r"\d+,\d+", b):
                yield "verify", suite, "--bounds", b
    for seed in EDGES:
        yield "verify", "order", "--seed", seed, "--max-element", "1"


# Every call ends in exit 0 with parseable JSON and nothing on stderr,
# or in exit 2 with nothing on stdout and one line on stderr; exit 1
# (no suite may fail) and an exception escaping main both fail the test.
def test_gamma_and_verify_keep_the_cli_contract(capsys):
    codes = {0: 0, 2: 0}
    for argv in contract_calls():
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code in codes, argv
        if code == 0:
            json.loads(out)
            assert err == "", argv
        else:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), argv
        codes[code] += 1
    assert min(codes.values()) > 100


def test_gamma_rejects_nonprime(capsys):
    code, out, err = run(capsys, "gamma", "9")
    assert code == 2 and out == "" and err != ""


def test_prime_class(capsys):
    code, out, _ = run(capsys, "prime-class", "31")
    assert code == 0 and out.strip() == "mersenne (m=5)"
    code, out, _ = run(capsys, "prime-class", "--format", "json", "3")
    d = json.loads(out)
    assert d == {"p": 3, "fermat": True, "mersenne": True, "m": 1}
    code, out, _ = run(capsys, "prime-class", "11")
    assert out.strip() == "neither"


def test_prime_class_rejects_composite(capsys):
    code, _, err = run(capsys, "prime-class", "4")
    assert code == 2 and err != ""


@pytest.mark.parametrize("argv", [
    ("ae", "1", TOO_BIG),
    ("classify", "1", TOO_BIG),
    ("cmp", "1", TOO_BIG, ";", "1", "2"),
    ("closure", "1", TOO_BIG),
    ("prime-class", TOO_BIG),
    ("realize", "--A", f"2,{TOO_BIG}", "--alpha", "2=1"),
    ("ae", "4", TOO_BIG, "2"),
    ("classify", "3", "6", TOO_BIG),
    ("closure", TOO_BIG, "3"),
    # the element 2 * 3037000427 * 3037000429 passes 2^63
    ("realize", "--A", "2,3037000427,3037000429",
     "--alpha", "2=1,3037000427=1,3037000429=1"),
])
def test_out_of_range_is_unusable_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "63-bit" in err


@pytest.mark.parametrize(
    "p,bounds",
    [("3", "1000,1000"), ("3", "40,24"), ("2", "63,0"), ("2", "70,0"), ("2", "1000,0")],
    ids=["1000,1000", "40,24", "p2-63,0", "p2-70,0", "p2-1000,0"],
)
def test_gamma_grid_past_63_bits_is_unusable_input(capsys, p, bounds):
    start = time.perf_counter()
    code, out, err = run(capsys, "gamma", p, "--bounds", bounds)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "63-bit" in err and "Traceback" not in err


@pytest.mark.parametrize("p,bounds", [("3", "-3,2"), ("3", "3,-1"), ("2", "-1,0")])
def test_gamma_negative_bounds_are_unusable_input(capsys, p, bounds):
    code, out, err = run(capsys, "gamma", p, f"--bounds={bounds}")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


def test_gamma2_at_the_63_bit_edge(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "gamma", "2", "--bounds", "62,0")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert '"-2^62" -- "2^62";' in out


# 2^63 - 2 = 2 * 3 * 715827883 * 2147483647, a 63-bit modulus with two
# factors past the trial primes; 2^62 - (-2^62) = 2^63 in the gamma2 suite
@pytest.mark.parametrize("argv,lines", [
    (("closure", "9223372036854775807", "9223372036854775806"),
     ["  mod 2: {0, 1}", "  mod 3: {0, 1}", "  mod 715827883: {0, 1}",
      "  mod 2147483647: {0, 1}"]),
    (("verify", "gamma2", "--bounds", "61,0"), ["gamma2: PASS (7999 cases)"]),
], ids=["closure-63-bit-modulus", "verify-gamma2-61"])
def test_63_bit_edge_answers_quickly(capsys, argv, lines):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 0 and err == ""
    assert all(line in out.splitlines() for line in lines)


@pytest.mark.parametrize("module", ["kirch", "kirch.cli"])
def test_runs_as_module(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", module, "ae", "5", "10"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == "A={2, 5} Pi={5} alpha={2:1, 5:0}\n"


def test_verify_text(capsys):
    code, out, _ = run(capsys, "verify", "mihailescu")
    assert code == 0
    assert out.strip() == "mihailescu: PASS (1 cases)"


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "classify", "--format", "json")
    code2, out2, _ = run(capsys, "verify", "classify", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    d = json.loads(out1)
    assert d["millis"] is None and d["failures"] == []


def test_verify_failure_exit_code(capsys, monkeypatch):
    from kirch.verify import SuiteReport, VerifyFailure

    failing = SuiteReport(
        "classify", 1, (VerifyFailure("E={1}", "FPrime", "Other"),), {}
    )
    monkeypatch.setattr("kirch.verify.run_suite", lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify", "classify")
    assert code == 1
    assert "FAIL" in out


def test_verify_gamma_smallest_admitted_bounds(capsys):
    code, out, err = run(capsys, "verify", "gamma", "--bounds", "5,2")
    assert (code, err) == (0, "") and "gamma: PASS" in out


def test_realize_drift_is_a_verify_failure(capsys, monkeypatch):
    from kirch import filters, numtheory

    monkeypatch.setattr(filters, "crt_solve", lambda system: numtheory.crt_solve(system) + 1)
    code, out, err = run(capsys, "verify", "realize")
    assert code == 1 and "realize: FAIL" in out and "drifted" in out
    assert err == ""


def test_verify_rejects_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "bogus")
    assert code == 2 and out == ""


def test_verify_pair_formula_past_the_sieve_bound_is_refused_at_once(capsys):
    # the suite sieves to twice its bound, and 300002 passes 300000
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "pair_formula", "--max-element", "150001")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv,why", [
    (("order", "--max-element", "1000"), "budget"),  # 1.3 G catalog subsets
    # 10,039,316 catalog subsets: the least bound refused before its
    # catalog is built
    (("order", "--max-element", "196"), "catalog subsets exceed"),
    # 41 to 195: the catalog is refused while it is built, once it holds
    # more than 3,162 sets (41 has 3,164 and 63 has 8,630)
    (("order", "--max-element", "63"), "catalog pairs exceed"),
    (("order", "--max-element", "41"), "budget"),
    (("order", "--max-element", "195"), "catalog pairs exceed"),
    (("closure", "--max-element", "100000"), "budget"),
    (("closure", "--max-element", "36"), "budget"),  # 10.4 M cases, the smallest refused
    (("pair_formula", "--max-element", "3000"), "budget"),  # below the sieve bound
    (("top", "--max-element", "100000"), "budget"),
    (("ppix", "--max-element", "10000000"), "budget"),
    (("pair_formula", "--max-element", "235"), "budget"),  # 110215 cases of 91 prime tests
    # plans that would pass on nothing
    (("gamma", "--bounds", "5,1"), "interior"),  # none in Gamma_3, 5, 7, 31
    (("gamma", "--bounds", "4,2"), "interior"),  # none in Gamma_31
    (("ppix", "--max-element", "2"), "vacuous"),  # no x outside -2..2
], ids=["order-1000", "order-196", "order-63", "order-41", "order-195", "closure-100000",
        "closure-36", "pair_formula-3000", "top-100000", "ppix-10000000", "pair_formula-235",
        "gamma-5,1", "gamma-4,2", "ppix-2"])
def test_verify_past_the_case_budget_is_refused_at_once(capsys, argv, why):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and why in err and "Traceback" not in err


@pytest.mark.parametrize("argv,code", [
    (("verify", "gamma", "--format", "json"), 0),
    (("gamma", "3"), 0),
    (("ae", "5", "10"), 0),
    (("verify", "closure", "--max-element", "0"), 2),
], ids=["verify-gamma-json", "gamma-dot", "ae", "unusable-input"])
def test_closed_stdout_keeps_the_exit_status(argv, code):
    # the reader is gone before the first write, as in `kirch ... | head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kirch", *argv], stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr and "Broken" not in proc.stderr


def test_repeated_calls_match_fresh_processes(capsys):
    # main reuses one parser; a usage error in between must not leak
    # into the next call
    env = dict(os.environ, PYTHONPATH=str(SRC))
    calls = [
        ("cmp", "5", "10", ";", "7", "14", "--format", "json"),
        ("ae", "--format", "bogus", "5"),
        ("cmp", "5", "10", ";", "7", "14", "--format", "json"),
        ("ae", "5", "10"),
    ]
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "kirch", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr)


def test_every_verify_option_has_help():
    verify = _build_parser().commands["verify"]
    options = [a for a in verify._actions if a.option_strings]
    assert {"bounds", "seed", "max_element"} <= {a.dest for a in options}
    assert [a.dest for a in options if not a.help] == []


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "ae", "x")[0] == 2
    assert run(capsys, "ae", "--format", "dot", "5")[0] == 2


def test_gamma_takes_no_dot_format(capsys):
    # text is DOT already, so gamma has the same two renderings as every command
    code, out, err = run(capsys, "gamma", "3", "--format", "dot")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("kirch gamma: error: argument --format: invalid choice: 'dot'")


@pytest.mark.parametrize("argv", [
    (), ("nonsense",), ("clos", "1", "2"), ("--format", "json", "ae", "1", "2"),
    ("-h", "ae"),
    ("ae", "1", "2", "--bogus"), ("closure", "1", "2", "3"),
    ("verify", "closure", "--window", "5"),
    ("realize", "--A", "2", "--alpha", "2=1", "extra"),
    ("ae", "x"), ("ae", "--format", "dot", "5"), ("verify", "al"),
    ("ae", "--form", "json", "1", "2"),
    ("closure", "-h"), ("ae", "--", "-5", "3"),
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_dispatch_matches_the_two_level_parse(capsys, monkeypatch, argv):
    # main parses a named command with that command's parser alone; its
    # exit status, stdout and stderr must be those of the full two-level
    # parse on this interpreter, whose argparse words its own messages
    once = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: _build_parser().parse_args(argv))
    assert run(capsys, *argv) == once


def test_a_plain_call_builds_no_parser(capsys, monkeypatch):
    # a plain call is read off the command table; a slide back to
    # argparse on every call fails here, not only in the benchmark
    def refuse():
        raise AssertionError("a plain call built the argparse parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    calls = [
        ("closure", "1", "30"),
        ("ae", "5", "10"),
        ("cmp", "5", "10", ";", "7", "14"),
        ("classify", "1", "5", "10"),
        ("realize", "--A", "2,5", "--alpha", "2=1,5=2"),
        ("gamma", "7", "--bounds", "4,3"),
        ("prime-class", "31"),
        ("verify", "zsigmondy"),
    ]
    assert sorted(argv[0] for argv in calls) == sorted(cli._COMMANDS)
    for argv in calls:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out, argv


@pytest.mark.parametrize("argv", [
    (), ("nonsense",), ("clos", "1", "2"), ("--format", "json", "ae", "1"),
    ("ae", "-h"), ("ae", "1", "--help"), ("ae", "--form", "json", "1"),
    ("ae", "--format=json", "1"), ("ae", "--", "-5", "3"), ("ae", "1", "--"),
    ("ae", "1", "--format", "json", "2"), ("closure", "1", "--window", "5", "2"),
    ("ae", "x"), ("ae", "1.5"), ("ae", "-1.5"), ("ae", "-x"), ("ae", "-"),
    ("cmp", "1", ";", "-5x"), ("closure", "1", "2", "--window"),
    ("ae", "--format", "dot", "1"), ("ae", "--format"), ("ae", "1", "--format", "-j"),
    ("ae",), ("closure", "1"), ("closure", "1", "2", "3"), ("closure", "1", "2", "--bogus", "3"),
    ("realize", "--A", "2"), ("realize", "--alpha", "2=1"),
    ("realize", "--A", "2", "--alpha", "2=1", "extra"),
    ("verify", "al"), ("verify", "all", "--seed", "x"), ("verify", "all", "--window", "5"),
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_these_calls_go_to_argparse(argv):
    assert cli._plain(list(argv)) is None


_OPTIONS = sorted({flag for _, _, arguments in cli._COMMANDS.values()
                   for flag, _ in arguments if flag[0] == "-"})
_TOKENS = st.sampled_from([
    "0", "1", "5", "-3", "-0", "30", "9223372036854775807", "-9223372036854775807",
    "9223372036854775808", "1_000", " 7", "-\u0663", "\u00b2", "-1.5", "", "-", "x",
    ";", "all", "order", "al", "2,5", "2=1,5=2", "9,5", "json", "text", "dot",
    "-h", "--help", "--", "--form", "--win", "--max", "--al", "--bogus",
    "--format=json", "--window=5", "--A=2", "-5x",
]) | st.sampled_from(_OPTIONS) | st.integers().map(str) | st.text(max_size=3)


def _accepted(kwargs):
    """Values that argparse accepts for an argument of the table."""
    if "choices" in kwargs:
        return st.sampled_from(kwargs["choices"])
    numbers = st.integers(-2**64, 2**64).map(str)
    return numbers if "type" in kwargs else numbers | st.sampled_from([";", "9,5", "2=1,5=2"])


@st.composite
def _calls(draw):
    """A call of one command: option pairs, a block of positionals and
    option pairs again, with up to two tokens inserted or replaced."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    arguments = cli._COMMANDS[name][2]
    options = st.lists(st.sampled_from([a for a in arguments if a[0][0] == "-"]), max_size=3)

    def pairs():
        return [token for flag, kw in draw(options) for token in (flag, draw(_accepted(kw)))]

    block = [
        draw(_accepted(kw)) for flag, kw in arguments if flag[0] != "-"
        for _ in range(draw(st.integers(1, 3)) if kw.get("nargs") == "+" else 1)
    ]
    argv = [name, *pairs(), *block, *pairs()]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [draw(_TOKENS)]
    return argv


@given(_calls())
@settings(max_examples=500, deadline=None)
def test_plain_parse_defers_or_matches_argparse(argv):
    # a call the plain parse accepts but argparse refuses exits here
    ns = cli._plain(argv)
    if ns is not None:
        assert vars(ns) == vars(_build_parser().parse_args(argv))
