"""End-to-end acceptance: every advertised behavior at its full range.

Each test exercises one acceptance item through the public verify/cli
surface and prints a single status line.  Run with -s to see the lines;
under plain pytest the PASSED/FAILED verdict per test carries the same
information.
"""

import hashlib
import json
import time

import pytest

from kirch.cli import main
from kirch.verify import SuiteConfig, run_suite


@pytest.fixture(scope="module")
def suite():
    """Run each suite once at the defaults; get.millis[name] holds the
    wall time of that run."""
    cache = {}

    def get(name):
        if name not in cache:
            t0 = time.perf_counter()
            cache[name] = run_suite(name, SuiteConfig())
            get.millis[name] = (time.perf_counter() - t0) * 1000.0
        return cache[name]

    get.millis = {}
    return get


def _line(num: int, label: str, rep) -> None:
    print(f"acceptance {num:02d} PASS: {label} ({rep.cases} cases)")


def test_a01_closure_formula_full_window(suite):
    rep = suite("closure")
    assert rep.passed, rep.render_text()
    assert rep.cases == 3_200_000
    assert suite.millis["closure"] < 60_000
    _line(1, "closure formula vs membership oracle", rep)


def test_a02_pair_descriptor_formula(suite):
    rep = suite("pair_formula")
    assert rep.passed, rep.render_text()
    assert rep.cases == 4950
    _line(2, "two-element A-set formula", rep)


def test_a03_order_catalog_and_laws(suite):
    rep = suite("order")
    assert rep.passed, rep.render_text()
    assert rep.details["descriptors"] == 1450
    assert rep.details["exhaustive_pairs"] == 1450 * 1450
    assert rep.details["sampled_pairs"] == 400
    _line(3, "descriptor order vs oracle, partial-order laws", rep)


def test_a04_top_class_detection(suite):
    rep = suite("top")
    assert rep.passed, rep.render_text()
    assert rep.cases == 8128
    _line(4, "maximal filters among doubletons", rep)


def test_a05_classification_families(suite):
    rep = suite("classify")
    assert rep.passed, rep.render_text()
    assert rep.cases == 52
    _line(5, "FPrime/FDoublePrime families and upset sizes", rep)


def test_a06_descriptor_realization_roundtrip(suite):
    rep = suite("realize")
    assert rep.passed, rep.render_text()
    assert rep.cases == 614
    _line(6, "realize(A, alpha) roundtrip over all small descriptors", rep)


def test_a07_divisibility_criterion(suite):
    rep = suite("ppix")
    assert rep.passed, rep.render_text()
    assert rep.cases == 5544
    _line(7, "p | x via filter comparison", rep)


def test_a08_graph_degree_facts(suite):
    gamma = suite("gamma")
    gamma2 = suite("gamma2")
    assert gamma.passed, gamma.render_text()
    assert gamma2.passed, gamma2.render_text()
    profile = gamma2.details["profile"]
    assert len(profile) == 20
    assert all(d == (2 if v in ("1", "-1") else 3) for v, d in profile.items())
    _line(8, "degree facts across gamma_p and the power chain", gamma)


def test_a09_interior_edge_agreement_and_printed_list(suite):
    rep = suite("gamma")
    assert rep.passed, rep.render_text()
    for p in (3, 5, 7, 11, 13, 29, 31):
        d = rep.details[str(p)]
        assert d["grid_predicate_only"] == 0, (p, d)
        assert d["grid_closed_only"] == 0, (p, d)
    printed = rep.details["p3_printed"]
    assert [3, 54] in printed["printed_only"]
    assert [6, 9] in printed["predicate_only"]
    assert printed["agree"] > 100
    _line(9, "closed-form edges match the predicate; published "
             "p=3 list defects reported", rep)


def test_a10_consecutive_powers(suite):
    rep = suite("mihailescu")
    assert rep.passed, rep.render_text()
    assert rep.details["pairs"] == [[8, 9]]
    assert suite.millis["mihailescu"] < 5_000
    _line(10, "consecutive perfect powers below 10^6", rep)


def test_a11_zsigmondy_exceptions(suite):
    rep = suite("zsigmondy")
    assert rep.passed, rep.render_text()
    assert rep.cases == 209
    assert rep.details["exceptions"] == [[2, 6], [3, 2], [7, 2], [15, 2]]
    _line(11, "primitive-divisor exceptions", rep)


# sha256 of `kirch verify all --seed 7 --format json`. Change it only in
# a change that alters the report on purpose and records why in
# CHANGES.md.
VERIFY_ALL_SHA256 = "dfc98ce7f9634e04a5eabc3c0f40b30695d2075e800b4794df140f46ca26df91"


def test_a12_verify_all_deterministic(capsys):
    code1 = main(["verify", "all", "--seed", "7", "--format", "json"])
    out1 = capsys.readouterr().out
    code2 = main(["verify", "all", "--seed", "7", "--format", "json"])
    out2 = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert hashlib.sha256(out1.encode()).hexdigest() == VERIFY_ALL_SHA256
    merged = json.loads(out1)
    assert merged["failures"] == []
    names = [s["suite"] for s in merged["details"]["suites"]]
    assert names == ["closure", "pair_formula", "order", "top", "classify",
                     "realize", "ppix", "gamma", "gamma2", "zsigmondy",
                     "mihailescu"]
    print("acceptance 12 PASS: verify all --seed 7 is byte-identical "
          "across runs and exits 0")
