"""Command-line behavior: output routing, formats, exit codes."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from kirch.cli import main
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
    free = d.A.as_set() - d.Pi.as_set()
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


def test_realize_rejects_bad_alpha(capsys):
    code, out, err = run(capsys, "realize", "--A", "2,5", "--alpha", "5=2")
    assert code == 2 and err != ""
    code, _, err = run(capsys, "realize", "--A", "2,5", "--alpha", "whatever")
    assert code == 2 and "p=r" in err


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
])
def test_out_of_range_is_unusable_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "63-bit" in err


@pytest.mark.parametrize("bounds", ["1000,1000", "40,24"])
def test_gamma_grid_past_63_bits_is_unusable_input(capsys, bounds):
    start = time.perf_counter()
    code, out, err = run(capsys, "gamma", "3", "--bounds", bounds)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "63-bit" in err and "Traceback" not in err


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
        "classify", 1, (VerifyFailure("E={1}", "FPrime", "Other"),), 0.0, {}
    )
    monkeypatch.setattr("kirch.cli.run_suite", lambda *a, **k: failing)
    code, out, _ = run(capsys, "verify", "classify")
    assert code == 1
    assert "FAIL" in out


def test_verify_rejects_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "bogus")
    assert code == 2 and out == ""


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


def test_usage_errors(capsys):
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "ae", "x")[0] == 2
