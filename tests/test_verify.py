"""Harness behavior: suite verdicts, determinism, fault injection."""

import json
from itertools import combinations

import pytest

from kirch.filters import FiniteSubset, descriptor
from kirch.verify import (
    FAULTS,
    SuiteConfig,
    SuiteReport,
    VerifyFailure,
    _order_catalog,
    run_suite,
)


def small(**kw):
    return SuiteConfig(**kw)


def test_quick_suites_pass():
    cfg = small()
    for name in ("classify", "realize", "gamma2", "zsigmondy", "mihailescu"):
        report = run_suite(name, cfg)
        assert report.passed, report.failures[:3]
        assert report.cases > 0
        assert report.suite == name


def test_closure_suite_small_window():
    report = run_suite("closure", small(window=60, max_element=6))
    assert report.passed
    assert report.cases == 2 * 6 * 6 * 120
    assert report.details["window"] == 60


def test_pair_formula_suite_small():
    report = run_suite("pair_formula", small(max_element=15))
    assert report.passed
    assert report.cases == 30 * 29 // 2


def test_order_suite_small():
    report = run_suite("order", small(max_element=10))
    assert report.passed
    assert report.details["descriptors"] > 50
    assert report.details["exhaustive_pairs"] == report.details["descriptors"] ** 2
    assert report.details["sampled_pairs"] == 400


def test_top_suite():
    report = run_suite("top", small(max_element=32))
    assert report.passed
    # chains {2^n, 2^(n+1)} up to 32 on both signs, mirrors at each power
    assert report.details["listed_doubletons"] == 16


def test_ppix_suite_small():
    report = run_suite("ppix", small(max_element=60))
    assert report.passed
    assert report.cases == 116 * 14


def test_pair_formula_fault_is_caught():
    report = run_suite(
        "pair_formula", small(max_element=15), fault="pair_formula_drop_difference"
    )
    assert not report.passed
    # (-15, -14) survives the mutation (difference -1 adds nothing and 2
    # comes from -14), so the first catch is the next pair along
    first = report.failures[0]
    assert first.inputs == "x=-15 y=-13"


def test_order_fault_is_caught():
    report = run_suite("order", small(max_element=8), fault="order_skip_alpha")
    assert "oracle=False" in report.failures[0].expected


def test_order_suite_checks_every_escape(monkeypatch):
    # with every element a generator member, the F-side check passes and
    # the per-pair E-side escape check must raise
    from kirch import filters

    monkeypatch.setattr(filters, "_generator_member", lambda z, d, L: True)
    with pytest.raises(AssertionError):
        run_suite("order", small(max_element=4))


def test_order_suite_solves_each_witness_system_once(monkeypatch):
    from kirch import filters, verify

    column = [None]
    solved = []
    failing_pairs = [0]
    real_witness, real_crt = verify._order_witness, filters.crt_solve

    def witness(dE, dF, failure, memo):
        failing_pairs[0] += 1
        column[0] = dF.source
        try:
            return real_witness(dE, dF, failure, memo)
        finally:
            column[0] = None

    def crt(system):
        if column[0] is not None:  # not one of the sampled pairs
            solved.append((column[0], system.congruences))
        return real_crt(system)

    monkeypatch.setattr(verify, "_order_witness", witness)
    monkeypatch.setattr(filters, "crt_solve", crt)
    report = run_suite("order", small(max_element=4))
    assert report.passed
    # a column's systems differ only in the extra congruence, so distinct
    # (F, system) pairs are distinct (F, extra congruence) pairs
    assert solved and len(solved) == len(set(solved))
    assert len(solved) < failing_pairs[0]


def test_order_catalog_leaves_descriptor_cache_empty():
    descriptor.cache_clear()
    keys = [d.canonical_key() for d in _order_catalog(8)]
    assert descriptor.cache_info().currsize == 0
    vals = [v for v in range(-8, 9) if v != 0]
    want: dict = {}
    for size in (2, 3):
        for combo in combinations(vals, size):
            want.setdefault(descriptor(FiniteSubset(combo)).canonical_key(), None)
    assert keys == list(want)


def test_fault_ignored_by_unrelated_suite():
    report = run_suite("top", small(max_element=16), fault="order_skip_alpha")
    assert report.passed


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", small())
    with pytest.raises(ValueError):
        run_suite("order", small(), fault="bogus")
    assert "order_skip_alpha" in FAULTS


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(window=0)
    with pytest.raises(ValueError):
        SuiteConfig(max_element=-3)
    with pytest.raises(ValueError):
        SuiteConfig(graph_bounds=(-1, 2))


def test_json_report_is_deterministic_and_schema_stable():
    cfg = small(max_element=12)
    a = run_suite("pair_formula", cfg)
    b = run_suite("pair_formula", cfg)
    ja = json.dumps(a.to_json_dict(), sort_keys=True)
    jb = json.dumps(b.to_json_dict(), sort_keys=True)
    assert ja == jb
    d = a.to_json_dict()
    assert set(d) == {"suite", "cases", "failures", "millis", "details"}
    assert d["millis"] is None  # wall time never serialized


def test_millis_measured_on_object():
    report = run_suite("classify", small())
    assert report.millis >= 0.0


def test_render_text_lines():
    report = run_suite("classify", small())
    text = report.render_text()
    assert text == f"classify: PASS ({report.cases} cases)"
    failing = SuiteReport(
        "demo", 3,
        (VerifyFailure("x=1", "2", "3"),), 0.0, {},
    )
    text = failing.render_text()
    assert "demo: FAIL (3 cases)" in text
    assert "x=1: expected 2, got 3" in text


def test_all_merges_in_fixed_order():
    cfg = small(window=30, max_element=5)
    report = run_suite("all", cfg)
    subs = [s["suite"] for s in report.details["suites"]]
    assert subs == [
        "closure", "pair_formula", "order", "top", "classify", "realize",
        "ppix", "gamma", "gamma2", "zsigmondy", "mihailescu",
    ]
    assert report.cases == sum(s["cases"] for s in report.details["suites"])
    assert report.passed


def test_gamma_suite_details_include_p3_report():
    report = run_suite("gamma", small(graph_bounds=(6, 4)))
    assert report.passed
    rep3 = report.details["p3_printed"]
    assert [6, 9] in rep3["predicate_only"]
    assert rep3["printed_only"]
    assert report.details["3"]["grid_predicate_only"] == 0
