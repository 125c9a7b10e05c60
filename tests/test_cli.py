"""Command-line behavior: output routing, formats, exit codes."""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

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


# sha256 of `kirch gamma` stdout: DOT and JSON on the benchmark's p = 3
# grid, the p = 2 row at the 63-bit edge, an empty grid, and the p = 3
# grid near the 63-bit edge
GAMMA_SHA256 = {
    "3 --bounds 14,8": "e91153254c3d4d7ddce9a62b36a9fa13123f00c58de2feaafc679f3b1b1112ea",
    "3 --bounds 14,8 --format json":
        "6f07cc509ef91c5666cad943db08e8715ee9b129f99bb10702246811ae84689f",
    "2 --bounds 62,0 --format json":
        "a86404bee4b86d2df8eb41ed0da34c3ede5db8ac753a0f9383d80fe01bd6f98d",
    "5 --bounds 3,0 --format json":
        "92abc4da6878469d90d17a7dab746d8247d9b1557d38cda68291396eae14831b",
    "3 --bounds 38,14": "751dcc932b4965054e3e12a81b2e0b8be1194f9e13ae4244dc07ffab71a05df2",
}


@pytest.mark.parametrize("args", GAMMA_SHA256)
def test_gamma_output_is_pinned(capsys, args):
    code, out, err = run(capsys, "gamma", *args.split())
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GAMMA_SHA256[args]


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


TOO_BIG = "9223372036854775808"  # 2^63


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
    monkeypatch.setattr("kirch.cli.run_suite", lambda *a, **k: failing)
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
    (("order", "--max-element", "41"), "budget"),  # 3164^2 catalog pairs
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
], ids=["order-1000", "order-41", "closure-100000", "closure-36",
        "pair_formula-3000", "top-100000", "ppix-10000000", "pair_formula-235",
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
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = [a for a in sub.choices["verify"]._actions if a.option_strings]
    assert {"bounds", "seed", "max_element"} <= {a.dest for a in options}
    assert [a.dest for a in options if not a.help] == []


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "ae", "x")[0] == 2
    assert run(capsys, "ae", "--format", "dot", "5")[0] == 2
