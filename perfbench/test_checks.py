"""Each checker accepts the program's real output and rejects a
deliberately wrong one.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import queries  # noqa: E402
from kirch.cli import main  # noqa: E402
from kirch.graphs import build_gamma, emit_dot, graph_json_dict  # noqa: E402


def cli_json(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([argv[0], "--format", "json", *argv[1:]]) == 0
    return json.loads(out.getvalue())


def test_own_arithmetic():
    assert [p for p in range(60) if checks.is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert checks.is_prime(2**61 - 1) and not checks.is_prime(3215031751)
    assert checks.prime_factors(2_000_003 * 2_000_029 * 12) == {2, 3, 2_000_003, 2_000_029}
    assert checks.prime_factors(-1) == set()


def test_closure_rejects_a_prime_set_missing_a_factor():
    b = 2_000_003 * 2_000_029
    out = cli_json("closure", "5", str(b))
    assert checks.check_closure(5, b, out) == []
    wrong = dict(out, primes=[2_000_003])
    assert any("cofactor" in m for m in checks.check_closure(5, b, wrong))
    wrong = dict(out, primes=[1_000_003, 2_000_003, 2_000_029])
    assert checks.check_closure(5, b, wrong)
    wrong = dict(out, sample=out["sample"][1:])
    assert checks.check_closure(5, b, wrong)


def test_ae_rejects_wrong_invariants():
    out = cli_json("ae", "12", "-30", "42")
    assert checks.check_ae(["12", "-30", "42"], out) == []
    assert checks.check_ae(["12", "-30", "42"], dict(out, A=out["A"][:-1]))
    assert checks.check_ae(["12", "-30", "42"], dict(out, Pi=out["Pi"][:-1]))
    alpha = dict(out["alpha"])
    alpha["2"] = 0
    assert checks.check_ae(["12", "-30", "42"], dict(out, alpha=alpha))


def test_classify_rejects_wrong_class_and_upset():
    for E in ([1, 15, 30], [5, 10], [3, 7], [1, 5, 10]):
        out = cli_json("classify", *map(str, E))
        assert checks.check_classify(E, out) == [], E
    out = cli_json("classify", "5", "10")
    assert checks.check_classify([5, 10], dict(out, **{"class": "FPrime"}))
    assert checks.check_classify([5, 10], dict(out, upset=out["upset"][1:]))


def test_cmp_rejects_broken_order_laws():
    out = cli_json("cmp", "5", "10", ";", "5", "10")
    assert checks.check_cmp([5, 10], [5, 10], out) == []
    wrong = copy.deepcopy(out)
    wrong["f_leq_e"]["holds"] = False
    assert checks.check_cmp([5, 10], [5, 10], wrong)
    # {1, 4} and {1, 4, 7}: same invariants, so each is below the other
    out = cli_json("cmp", "1", "4", ";", "1", "4", "7")
    assert checks.check_cmp([1, 4], [1, 4, 7], out) == []
    wrong = copy.deepcopy(out)
    wrong["e_leq_f"]["holds"] = False
    assert checks.check_cmp([1, 4], [1, 4, 7], wrong)
    # {1, 15} lies strictly below {1, 5, 10}: each flag flipped alone,
    # and both answered False, must be caught
    out = cli_json("cmp", "1", "15", ";", "1", "5", "10")
    assert (out["e_leq_f"]["holds"], out["f_leq_e"]["holds"]) == (True, False)
    assert checks.check_cmp([1, 15], [1, 5, 10], out) == []
    for flag in ("e_leq_f", "f_leq_e"):
        wrong = copy.deepcopy(out)
        wrong[flag]["holds"] = not wrong[flag]["holds"]
        assert checks.check_cmp([1, 15], [1, 5, 10], wrong), flag
    # two unrelated sets: a claimed inclusion must be caught
    out = cli_json("cmp", "3", "7", ";", "5", "10")
    assert checks.check_cmp([3, 7], [5, 10], out) == []
    wrong = copy.deepcopy(out)
    wrong["f_leq_e"]["holds"] = not wrong["f_leq_e"]["holds"]
    assert checks.check_cmp([3, 7], [5, 10], wrong)


def test_realize_and_prime_class_reject_wrong_answers():
    out = cli_json("realize", "--A", "2,5,7", "--alpha", "2=1,5=2,7=0")
    want = {2: 1, 5: 2, 7: 0}
    assert checks.check_realize([2, 5, 7], want, out) == []
    assert checks.check_realize([2, 5, 7], want, dict(out, set=[1, 35, 70]))
    out = cli_json("prime-class", "31")
    assert checks.check_prime_class(31, out) == []
    assert checks.check_prime_class(31, dict(out, m=4))
    assert checks.check_prime_class(31, dict(out, fermat=True))


def test_gamma_rejects_a_flipped_edge():
    bounds = (6, 3)
    g = build_gamma(5, bounds)
    dot, data = emit_dot(g), graph_json_dict(g)
    truth = checks.gamma_edges(5, bounds)
    assert checks.check_gamma(5, bounds, dot, data, truth) == []
    # drop one predicate edge from the JSON
    wrong = copy.deepcopy(data)
    dropped = wrong["provenance"]["both"].pop()
    wrong["edges"].remove(dropped)
    assert checks.check_gamma(5, bounds, dot, wrong, truth)
    # add a non-edge to the JSON
    wrong = copy.deepcopy(data)
    extra = [data["vertices"][0], data["vertices"][-1]]
    assert frozenset(extra) not in truth
    wrong["provenance"]["predicate"].append(extra)
    wrong["edges"].append(extra)
    assert checks.check_gamma(5, bounds, dot, wrong, truth)
    # DOT loses an edge the JSON keeps
    lines = dot.splitlines()
    cut = next(k for k, line in enumerate(lines) if " -- " in line)
    assert checks.check_gamma(5, bounds, "\n".join(lines[:cut] + lines[cut + 1:]), data, truth)


def _verify_report() -> dict:
    suites = []
    for name in checks.SUITES:
        details: dict = {}
        cases = checks.EXPECTED_CASES.get(name, 0)
        if name == "order":
            details = {"descriptors": 1450, "exhaustive_pairs": 1450**2, "sampled_pairs": 400}
            cases = 1450**2 + 1450 + 400
        if name == "gamma":
            for p in checks.VERIFY_GAMMA_PRIMES:
                bounds = (9, 6) if p == 3 else (9, 5)
                truth = checks.gamma_edges(p, bounds)
                details[str(p)] = {"vertices": 20 * bounds[1], "edges": len(truth),
                                   "grid_closed_only": 0}
                if p == 3:
                    details["p3_printed"] = {"agree": len(truth), "printed_only": [],
                                             "predicate_only": []}
            cases = 910
        suites.append({"suite": name, "cases": cases, "failures": [], "details": details})
    return {"suite": "all", "cases": sum(s["cases"] for s in suites), "failures": [],
            "details": {"suites": suites}}


def test_verify_all_rejects_wrong_counts_and_changed_bytes():
    report = _verify_report()
    text = json.dumps(report, sort_keys=True, indent=2)
    assert checks.check_verify_all(text) == []
    wrong = copy.deepcopy(report)
    wrong["details"]["suites"][0]["cases"] -= 1
    wrong["cases"] -= 1
    assert checks.check_verify_all(json.dumps(wrong))
    wrong = copy.deepcopy(report)
    wrong["details"]["suites"][7]["details"]["5"]["edges"] += 1
    assert checks.check_verify_all(json.dumps(wrong))
    same = checks.digest(text)
    assert checks.check_same_bytes([same, same], same) == []
    changed = checks.digest(text.replace('"cases": 1', '"cases": 2', 1))
    assert checks.check_same_bytes([same, changed], None)
    assert checks.check_same_bytes([changed], same)


def test_query_stream_is_seeded_fresh_and_whole():
    first = queries.rounds(3, 0, 4)
    assert first == queries.rounds(3, 0, 4)
    assert queries.rounds(3, 2, 2) == first[2:]
    argvs = [q.argv for r in first for q in r]
    assert len(set(argvs)) == len(argvs) == 4 * queries.ROUND_SIZE
    other = {q.argv for r in queries.rounds(4, 0, 4) for q in r}
    out_of_range = {q.argv for r in first for q in r if q.kind == "out_of_range"}
    assert len(out_of_range) == 4 and out_of_range <= other
