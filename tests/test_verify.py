"""Harness behavior: suite verdicts, determinism, caught faults."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

from kirch import filters, graphs, verify
from kirch.filters import (
    FilterDescriptor,
    FiniteSubset,
    _DescriptorIndex,
    _Generators,
    descriptor,
    filter_leq,
    order_oracle,
)
from kirch.graphs import GammaGraph, build_gamma, degree_signature
from kirch.numtheory import prime_divisors, primes_upto
from kirch.topology import ClosureSet, Progression
from kirch.verify import (
    SuiteConfig,
    SuiteReport,
    VerifyFailure,
    _order_catalog,
    _order_matrix,
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


def test_closure_suite_small_window(monkeypatch):
    monkeypatch.setattr(verify, "_CLOSURE_WINDOW", 60)
    report = run_suite("closure", small(max_element=6))
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


@pytest.mark.parametrize("bound,listed", [(32, 16), (1, 1), (3, 4)])
def test_top_suite(bound, listed):
    report = run_suite("top", small(max_element=bound))
    assert report.passed
    # chains {2^n, 2^(n+1)} up to the bound on both signs, mirrors at
    # each power; 1 and 3 sit at the ends of the bit_length derivation
    assert report.details["listed_doubletons"] == listed


def test_ppix_suite_small():
    report = run_suite("ppix", small(max_element=60))
    assert report.passed
    assert report.cases == 116 * 14


def _difference_dropped(real):
    # a broken closed form that drops the primes of the difference
    return lambda x, y: tuple(sorted({*prime_divisors(x), *prime_divisors(y)}))


def _stray_prime(real):
    # a broken closed form that adds 31, a prime past the 2 * bound = 30
    # the oracle scans, so it has no bitset of its own to differ in
    return lambda x, y: tuple(sorted({*real(x, y), 31}))


@pytest.mark.parametrize(
    "mutant, first",
    [
        # (-15, -14) survives the mutation (difference -1 adds nothing
        # and 2 comes from -14), so the first catch is the next pair along
        (_difference_dropped, ("x=-15 y=-13", "A=[2, 3, 5, 13]", "formula=[3, 5, 13]")),
        (_stray_prime, ("x=-15 y=-14", "A=[2, 3, 5, 7]", "formula=[2, 3, 5, 7, 31]")),
    ],
    ids=["difference-dropped", "stray-prime"],
)
def test_pair_formula_fault_is_caught(monkeypatch, mutant, first):
    monkeypatch.setattr(verify, "a_of_pair_formula", mutant(verify.a_of_pair_formula))
    report = run_suite("pair_formula", small(max_element=15))
    assert not report.passed
    f = report.failures[0]
    assert (f.inputs, f.expected, f.actual) == first


@pytest.mark.parametrize("verdict", [True, False], ids=["always-below", "never-below"])
def test_ppix_fault_is_caught(monkeypatch, verdict):
    # a broken order that answers every inclusion alike: the criterion
    # then claims p | x for every case, or for none, so the failures
    # are exactly the cases where p | x says otherwise
    monkeypatch.setattr(
        filters._DescriptorIndex, "column", lambda self, dF: self.full if verdict else 0
    )
    # blocks of 10 rows, so that the failures span several blocks
    monkeypatch.setattr(verify, "_PPIX_BLOCK", 10)
    report = run_suite("ppix", small(max_element=30))
    odd_primes = [p for p in primes_upto(50) if p != 2]
    want = [
        (f"x={x} p={p}", f"divides={not verdict}", f"filters={verdict}")
        for x in range(-30, 31)
        if abs(x) > 2
        for p in odd_primes
        if (x % p == 0) != verdict
    ]
    assert want
    assert [(f.inputs, f.expected, f.actual) for f in report.failures] == want


def test_ppix_partial_fault_is_reported_in_order(monkeypatch):
    # a broken order that drops the condition of 7 alone fails only the
    # cases it decides wrongly; the suite reports exactly those that two
    # filter_leq calls per case find under the same fault, x-major
    real = filters._DescriptorIndex.column

    def column(self, dF):
        alpha = {p: r for p, r in dF.alpha.items() if p != 7}
        return real(self, FilterDescriptor(dF.Pi, alpha, dF.source))

    monkeypatch.setattr(filters._DescriptorIndex, "column", column)
    # blocks of 10 rows, so that the failures span several blocks
    monkeypatch.setattr(verify, "_PPIX_BLOCK", 10)
    report = run_suite("ppix", small(max_element=40))
    S = FiniteSubset.of
    want = []
    for x in range(-40, 41):
        if abs(x) <= 2:
            continue
        for p in primes_upto(50)[1:]:
            got = filter_leq(S(1, x), S(1, p, 2 * p)) and filter_leq(S(2, x), S(2, p, 2 * p))
            if got != (x % p == 0):
                want.append((f"x={x} p={p}", f"divides={not got}", f"filters={got}"))
    # 7's targets lose their one odd prime, so every x claims 7 | x
    assert want and {w[0].split()[1] for w in want} == {"p=7"}
    assert [(f.inputs, f.expected, f.actual) for f in report.failures] == want


def _any_residue(groups, r):
    # the residue check dropped: any row with p in A_E passes (the
    # groups at p are disjoint, so their sum is their union)
    return sum(groups.values())


def _no_zero_group(groups, r):
    # the 0 group dropped: a prime of Pi_E no longer allows every residue
    return groups.get(r, 0)


@pytest.mark.parametrize(
    "allowed, verdicts",
    [
        (_any_residue, ("oracle=False", "closed=True")),
        (_no_zero_group, ("oracle=True", "closed=False")),
    ],
    ids=["residue-dropped", "zero-group-dropped"],
)
def test_order_fault_is_caught(monkeypatch, allowed, verdicts):
    # a broken closed form; filter_leq runs the same column, so the
    # sampled pairs see it too
    def column(self, dF):
        rows = self.full
        for p, r in dF.alpha.items():
            rows &= allowed(self.rows_with.get(p, {}), r)
        return rows

    monkeypatch.setattr(filters._DescriptorIndex, "column", column)
    report = run_suite("order", small(max_element=8))
    # the catalog's columns come first, so a catalog pair leads
    first = report.failures[0]
    assert not first.inputs.startswith("sampled"), first
    assert (first.expected, first.actual) == verdicts
    # the fault only adds rows or only drops them, so every mismatch
    # reads the same way
    assert {(f.expected, f.actual) for f in report.failures if f.expected.startswith("oracle=")} == {verdicts}


# sha256 of repr([E.elements for E in drawn]), the 800 sets the order
# suite samples at seed 7, in the order filter_leq meets them
ORDER_SAMPLES_SHA256 = "e17f6433bce5b3027c0f3e093d91374d6e31eccce95ffc96daf29ca1241e26de"


def test_order_samples_two_to_four_elements_of_50(monkeypatch):
    # the report counts the 400 sampled pairs but does not show them:
    # each side holds 2 to 4 nonzero elements of [-50, 50] at any
    # bound up to 50, every one of which is drawn, from a stream the
    # seed fixes
    drawn = []

    def leq(E, F):
        drawn.extend((E, F))
        return filter_leq(E, F)

    monkeypatch.setattr(verify, "filter_leq", leq)
    assert run_suite("order", small(max_element=4)).passed
    assert len(drawn) == 800
    assert {len(E.elements) for E in drawn} == {2, 3, 4}
    assert {x for E in drawn for x in E.elements} == set(range(-50, 51)) - {0}
    elements = repr([E.elements for E in drawn]).encode()
    assert hashlib.sha256(elements).hexdigest() == ORDER_SAMPLES_SHA256


def test_order_suite_checks_every_escape(monkeypatch):
    # with every row a generator member, each witness passes its F-side
    # check and the escape check of its group must raise
    monkeypatch.setattr(filters._Generators, "members", lambda self, z: self.full)
    with pytest.raises(AssertionError, match="fails to escape"):
        run_suite("order", small(max_element=4))


def test_order_suite_checks_each_witness_against_its_column(monkeypatch):
    # 0 lies in no generator, so the F-side check must refuse it
    monkeypatch.setattr(filters, "crt_solve", lambda system: 0)
    with pytest.raises(AssertionError, match="outside the F-side generator"):
        run_suite("order", small(max_element=4))


def test_order_suite_solves_each_witness_system_once(monkeypatch):
    # the sampled pairs build a two-row instance each, so a column is
    # named by its instance and its index
    column = [None]
    solved = []
    failing_pairs = [0]
    real_column, real_crt = filters._Generators.column, filters.crt_solve

    def tracked(self, j):
        column[0] = (self, j)
        try:
            below, witnesses = real_column(self, j)
        finally:
            column[0] = None
        failing_pairs[0] += bin(self.full & ~below).count("1")
        return below, witnesses

    def crt(system):
        solved.append((column[0], tuple(system)))
        return real_crt(system)

    monkeypatch.setattr(filters._Generators, "column", tracked)
    monkeypatch.setattr(filters, "crt_solve", crt)
    report = run_suite("order", small(max_element=4))
    assert report.passed
    assert all(col is not None for col, _ in solved)
    # a column's systems differ only in the extra congruence, so distinct
    # (F, system) pairs are distinct (F, extra congruence) pairs
    assert solved and len(solved) == len(set(solved))
    assert len(solved) < failing_pairs[0]


def _doubletons(bound):
    vals = [v for v in range(-bound, bound + 1) if v]
    return [FiniteSubset.of(x, y) for x, y in combinations(vals, 2)]


def test_order_matrix_on_doubletons_with_shared_filters():
    # the 66 doubletons of [-6, 6], where {1, -1} and {2, 4} both name
    # the top filter: equal filters below each other break no law
    sets = _doubletons(6)
    cols, failures, law_failures = _order_matrix(sets, 6)
    assert failures == [] and law_failures == []
    row = {E: i for i, E in enumerate(sets)}
    top, also_top = row[FiniteSubset.of(-1, 1)], row[FiniteSubset.of(2, 4)]
    assert cols[top] >> also_top & 1 and cols[also_top] >> top & 1

    def broken(swap):
        # the ordered pairs (E, F) whose order the map x -> swap(x) on
        # elements changes, read off the columns alone
        image = [row[FiniteSubset.of(*map(swap, E))] for E in sets]
        return sum((cols[j] >> i & 1) != (cols[image[j]] >> image[i] & 1)
                   for i in range(len(sets)) for j in range(len(sets)))

    assert broken(lambda x: -x) == 0
    # exchanging 1 and -1 alone is no self-map of the order
    assert broken(lambda x: {1: -1, -1: 1}.get(x, x)) == 636


def test_order_matrix_reports_each_broken_law(monkeypatch):
    # a closed form that puts nothing below anything breaks reflexivity
    # on every row; one that puts everything below everything breaks
    # antisymmetry on each ordered pair of rows whose conditions differ,
    # and on no other
    sets = _doubletons(6)
    monkeypatch.setattr(_DescriptorIndex, "column", lambda self, dF: 0)
    assert _order_matrix(sets, 6)[2] == [VerifyFailure(f"E={E}", "E<=E", "false") for E in sets]
    monkeypatch.setattr(_DescriptorIndex, "column", lambda self, dF: self.full)
    conds = _Generators(sets, primes_upto(12)).conds
    want = [VerifyFailure(f"E={E} F={F}", "antisymmetry", "mutual order")
            for j, F in enumerate(sets) for i, E in enumerate(sets) if conds[i] != conds[j]]
    assert len(sets) < len(want) < len(sets) * (len(sets) - 1)
    assert _order_matrix(sets, 6)[2] == want


def _pairwise_law_failures(sets, cols, conds):
    # the order's laws read off the columns pair by pair, in the order
    # _order_matrix reports them
    found = []
    for j, F in enumerate(sets):
        if not cols[j] >> j & 1:
            found.append(VerifyFailure(f"E={F}", "E<=E", "false"))
        for i, E in enumerate(sets):
            if cols[j] >> i & 1:
                if cols[i] & ~cols[j]:
                    found.append(VerifyFailure(f"E={E} F={F}", "transitivity", "escape"))
                if cols[i] >> j & 1 and conds[i] != conds[j]:
                    found.append(VerifyFailure(f"E={E} F={F}", "antisymmetry", "mutual order"))
    return found


# rows 5 and 9 of _doubletons(6), {-6, 1} and {-6, 5}: two filters
# that lie below no other row
_TWO_MINIMAL = 1 << 5 | 1 << 9


@pytest.mark.parametrize("fault,laws", [
    # row 1 below what row 0 is
    (lambda col: col | 0b10 if col & 1 else col, {"transitivity"}),
    # rows 0 and 3 below every row
    (lambda col: col | 0b1001, {"transitivity", "antisymmetry"}),
    # two filters merged: equal columns, with transitivity intact
    (lambda col: col | _TWO_MINIMAL if col & _TWO_MINIMAL else col, {"antisymmetry"}),
], ids=["row-1-follows-row-0", "two-rows-below-all", "two-filters-merged"])
def test_order_matrix_reads_every_law_of_a_faulty_order(monkeypatch, fault, laws):
    # closed forms that break the order's laws: the fast path of the
    # audit reports what the pair-by-pair reading of the same columns
    # finds, in its order
    sets = _doubletons(6)
    real = _DescriptorIndex.column
    monkeypatch.setattr(_DescriptorIndex, "column", lambda self, dF: fault(real(self, dF)))
    cols, _, found = _order_matrix(sets, 6)
    want = _pairwise_law_failures(sets, cols, _Generators(sets, primes_upto(12)).conds)
    assert {f.expected for f in want} == laws
    assert found == want


def test_generator_order_agrees_with_order_oracle():
    # the suite's batch over the sieve primes against the two-row
    # instances of order_oracle over the primes of one pair of F
    sources = _order_catalog(8)
    gens = _Generators(sources, primes_upto(16))
    for j, F in enumerate(sources):
        below = gens.column(j)[0]
        for i, E in enumerate(sources):
            assert bool(below >> i & 1) == order_oracle(E, F)[0], (E, F)


# sha256 of the lines repr((holds, prime, element, reason)) of
# order_oracle(E, F), None for each field of a missing witness, over
# the ordered pairs of _order_catalog(8), F-major: the witnesses
# `kirch cmp` prints
ORDER_WITNESS_SHA256 = "61d4ba1ba2d2ad63fb1c9c5c5ba1212334eb920d4dd97f668d7000118511bf78"


def test_order_witnesses_are_pinned():
    sources = _order_catalog(8)
    h = hashlib.sha256()
    for F in sources:
        for E in sources:
            holds, w = order_oracle(E, F)
            fields = (None, None, None) if w is None else (w.prime, w.element, w.reason)
            h.update(repr((holds, *fields)).encode() + b"\n")
    assert len(sources) ** 2 == 2916
    assert h.hexdigest() == ORDER_WITNESS_SHA256


def test_generator_columns_do_not_depend_on_their_order():
    # witnesses are solved per column and extra congruence; state that
    # outlived its column would hand one column's witness to another or
    # skip an escape check, and then the two orders would differ
    sources = _order_catalog(12)
    primes = primes_upto(24)
    forward, backward = _Generators(sources, primes), _Generators(sources, primes)
    k = len(sources)
    got = [forward.column(j) for j in range(k)]
    back = {j: backward.column(j) for j in reversed(range(k))}
    conds = [filters._conditions(E.elements, primes) for E in sources]

    def in_generator(i, z):
        # z in G_E(()), E the set of row i, from its conditions alone
        return z != 0 and all(not (m := z % p) or m == r or not r for p, r in conds[i].items())

    for j in range(k):
        assert got[j] == back[j], sources[j]
        # each row outside the column has one witness, whose reason
        # names its target
        covered = 0
        for rows, p, z, reason in got[j][1]:
            assert rows and not rows & covered, (sources[j], p, z)
            covered |= rows
            assert in_generator(j, z), (sources[j], p, z)
            for i in filters._bits(rows):
                # the target is G_E({p}) when p is outside A_E, else G_E(())
                caught = in_generator(i, z) and (p in conds[i] or z % p == 0)
                assert not caught, (sources[i], sources[j], p, z)
                want = (filters._MISSING if p not in conds[i]
                        else filters._ALPHA if conds[j][p] else filters._PI_BLOCK)
                assert reason == want, (sources[i], sources[j], p, z)
        assert covered == forward.full & ~got[j][0], sources[j]
    # members reads masks prepared once per instance; row by row, it is
    # the generator test above
    for z in range(-300, 301):
        assert forward.members(z) == sum(1 << i for i in range(k) if in_generator(i, z)), z


def test_filter_leq_agrees_with_the_catalog_column(monkeypatch):
    # the one-row instance of filter_leq against the suite's batch over
    # the whole catalog; neither reads the generator conditions
    sources = _order_catalog(8)
    descs = [descriptor(E) for E in sources]

    def refuse(*args):
        raise AssertionError("the closed form read the sets' elements")

    monkeypatch.setattr(filters, "_conditions", refuse)
    monkeypatch.setattr(filters, "_Generators", refuse)
    index = _DescriptorIndex(descs)
    for F, dF in zip(sources, descs):
        col = index.column(dF)
        for i, E in enumerate(sources):
            assert bool(col >> i & 1) == filter_leq(E, F), (E, F)


def test_closure_mismatch_reported_under_every_naming_pair(monkeypatch):
    # a closed form that returns the whole punctured line for 1 + 3Z only
    broken = Progression(1, 3)
    real = verify.closure
    monkeypatch.setattr(
        verify, "closure",
        lambda prog: ClosureSet((), prog.a) if prog == broken else real(prog),
    )
    monkeypatch.setattr(verify, "_CLOSURE_WINDOW", 10)
    report = run_suite("closure", small(max_element=6))
    assert report.cases == 2 * 6 * 6 * 20
    by_pair: dict = {}
    for f in report.failures:
        a, b, z = (int(part.split("=")[1]) for part in f.inputs.split())
        by_pair.setdefault((a, b), []).append(z)
        assert (f.expected, f.actual) == ("oracle=False", "formula=True")
    # (1, 3) and (-2, 3) both name 1 + 3Z, as do (4, 3) and (-5, 3)
    assert set(by_pair) == {(-5, 3), (-2, 3), (1, 3), (4, 3)}
    zs = [z for z in range(-10, 11) if z % 3 == 2]
    assert all(found == zs for found in by_pair.values())


def test_closure_with_a_foreign_prime_fails_as_per_z(monkeypatch):
    # 7 divides no modulus up to 6, so the suite's period must take it in
    real = verify.closure
    monkeypatch.setattr(
        verify, "closure",
        lambda prog: ClosureSet(real(prog).modulus_primes + (7,), prog.a),
    )
    monkeypatch.setattr(verify, "_CLOSURE_WINDOW", 10)
    report = run_suite("closure", small(max_element=6))
    expected = []
    for a in (*range(-6, 0), *range(1, 7)):
        for b in range(1, 7):
            prog = Progression(a, b)
            cs = verify.closure(prog)
            for z in [*range(-10, 0), *range(1, 11)]:
                lhs, rhs = z in cs, verify.closure_oracle_member(z, prog)
                if lhs != rhs:
                    expected.append(VerifyFailure(
                        f"a={a} b={b} z={z}", f"oracle={rhs}", f"formula={lhs}"
                    ))
    assert expected
    assert list(report.failures) == expected


def test_closure_lie_on_positive_points_fails(monkeypatch):
    class Flipped(ClosureSet):
        def __contains__(self, z):
            return (z > 0) != ClosureSet.__contains__(self, z)

    real = verify.closure
    monkeypatch.setattr(
        verify, "closure",
        lambda prog: Flipped(real(prog).modulus_primes, prog.a),
    )
    monkeypatch.setattr(verify, "_CLOSURE_WINDOW", 10)
    report = run_suite("closure", small(max_element=6))
    zs = sorted(int(f.inputs.split("z=")[1]) for f in report.failures)
    # every positive window point of every (a, b) pair, and nothing else
    assert zs == sorted(list(range(1, 11)) * 2 * 6 * 6)


def test_closure_suite_calls_the_oracle_once_per_class(monkeypatch):
    calls = 0
    real = verify.closure_oracle_member

    def counted(z, prog):
        nonlocal calls
        calls += 1
        return real(z, prog)

    monkeypatch.setattr(verify, "closure_oracle_member", counted)
    report = run_suite("closure", small())
    assert report.passed and report.cases == 3_200_000
    # on each sign, b classes for each of the b progressions of modulus
    # b <= 20: 2,870 in all
    assert calls <= 2 * 2870


def test_order_catalog_builds_no_descriptor(monkeypatch):
    # keyed on generator conditions, the catalog keeps the same sets in
    # the same order as deduplicating every subset on its descriptor;
    # its budget counts those subsets before it builds anything, then
    # the pairs of the sets found so far
    def refuse(E):
        raise AssertionError("the catalog built a descriptor")

    for bound in (8, 12):
        budgeted = []
        with monkeypatch.context() as m:
            m.setattr(verify, "descriptor", refuse)
            m.setattr(filters, "descriptor", refuse)
            m.setattr(verify, "_within_budget", lambda cases, what: budgeted.append(cases) or cases)
            catalog = _order_catalog(bound)
        vals = [v for v in range(-bound, bound + 1) if v != 0]
        want: dict = {}
        subsets = 0
        for size in (2, 3):
            for combo in combinations(vals, size):
                subsets += 1
                E = FiniteSubset(combo)
                want.setdefault(tuple(descriptor(E).alpha.items()), E)
        assert catalog == list(want.values())
        assert budgeted[0] == subsets
        assert budgeted[1:] == sorted(budgeted[1:]) and budgeted[-1] == len(catalog) ** 2


def _triple_loop_catalog(bound):
    # the catalog as one key per pair and per triple, in combination order
    vals = [v for v in range(-bound, bound + 1) if v != 0]
    primes = primes_upto(2 * bound)
    reps: dict = {}
    pairs = {}
    for pair in combinations(vals, 2):
        pairs[pair] = conds = tuple(filters._conditions(pair, primes).items())
        reps.setdefault(conds, pair)
    for (x, y), conds in pairs.items():
        for z in vals[vals.index(y) + 1:]:
            key = tuple((p, r or m) for p, r in conds if not (m := z % p) or m == r or not r)
            reps.setdefault(key, (x, y, z))
    return [FiniteSubset(combo) for combo in reps.values()]


@pytest.mark.parametrize("bound", [*range(1, 21), 30, 40])
def test_order_catalog_matches_the_triple_loop(bound):
    assert _order_catalog(bound) == _triple_loop_catalog(bound)


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus", small())


def test_config_validation():
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


def test_render_text_lines():
    report = run_suite("classify", small())
    text = report.render_text()
    assert text == f"classify: PASS ({report.cases} cases)"
    failing = SuiteReport(
        "demo", 3,
        (VerifyFailure("x=1", "2", "3"),), {},
    )
    text = failing.render_text()
    assert "demo: FAIL (3 cases)" in text
    assert "x=1: expected 2, got 3" in text


def test_all_merges_in_fixed_order():
    cfg = small(max_element=5)
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


def test_gamma_suite_compares_the_whole_grid(monkeypatch):
    real = graphs.build_gamma

    def build(p, bounds):
        # drop the closed-form edges at the grid's far corner, which
        # no interior reaches
        g = real(p, bounds)
        corner = g.vertices.index(max(g.vertices))
        # an edge code is k << 16 | l for indices k < l into g.vertices
        closed = frozenset(e for e in g.closed if corner not in (e >> 16, e & 0xFFFF))
        return GammaGraph(g.p, g.bounds, g.vertices, g.predicate, closed)

    monkeypatch.setattr(graphs, "build_gamma", build)
    report = run_suite("gamma", small())
    assert {f.actual for f in report.failures} == {"only predicate"}
    assert {f.inputs.split()[0] for f in report.failures} == {
        f"p={p}" for p in (3, 5, 7, 11, 13, 29, 31)
    }


@pytest.mark.parametrize("p,bounds", [
    (17, (9, 5)), (127, (20, 4)), (257, (20, 3)), (2, (10, 0)),
])
def test_degree_lemma_follows_the_prime_class(p, bounds):
    # Fermat and Mersenne primes past 31 take the lemma of their class,
    # and 2 the lemma of the other primes, one case per interior vertex
    sig = degree_signature(build_gamma(p, bounds))
    cases, failures = verify._gamma_degree_checks(p, sig)
    assert cases == len(sig) and failures == []


def test_degree_lemma_sees_one_vertex_off_column_zero():
    # a vertex of Gamma_11 whose degree grows from 3 to 4 keeps the
    # degree-2 set as it was, and must still fail the lemma; off the
    # column i = 0 means an even value
    sig = degree_signature(build_gamma(11, (9, 5)))
    x = next(x for x in sig if x % 2 == 0)
    cases, failures = verify._gamma_degree_checks(11, {**sig, x: 4})
    assert cases == len(sig)
    assert failures == [VerifyFailure(f"deg({x})", "3", "4")]


def test_degree_lemma_sees_a_wrong_degree_at_minus_p():
    # -5 has degree 4 in Gamma_5, as 5 does; one more fails the lemma
    sig = degree_signature(build_gamma(5, (7, 5)))
    assert sig[-5] == 4
    cases, failures = verify._gamma_degree_checks(5, {**sig, -5: 5})
    assert cases == len(sig)
    assert failures == [VerifyFailure("deg(-5)", "4", "5")]


def test_top_disagreements_are_reported_not_raised(monkeypatch):
    from kirch import filters

    # a broken A_E turns every doubleton's verdict false; the listed
    # ones must come back as failures of both suites that read is_top
    monkeypatch.setattr(filters, "a_of", lambda E: (2, 3))
    top = run_suite("top", small(max_element=8))
    assert len(top.failures) == top.details["listed_doubletons"]
    assert top.failures[0].actual == "is_top=False"
    gamma2 = run_suite("gamma2", small(graph_bounds=(2, 0)))
    max_exp = gamma2.details["max_exp"]
    assert len(gamma2.failures) == 3 * max_exp + 1  # chains and rungs
    assert gamma2.failures[0].actual == "predicate=True closed_form=True"


# --- run_suite("all"): `order` in a forked child ---------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def forks(monkeypatch):
    """Make two CPUs usable; yield the pids of the children
    run_suite("all") forks, and check after the test that none is left."""
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    yield forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raiser(message, exc=ValueError):
    def raises(*args):
        raise exc(message)
    return raises


def _one_lane(monkeypatch, cfg):
    with monkeypatch.context() as m:
        m.setattr(verify, "_usable_cpus", lambda: 1)
        return run_suite("all", cfg)


@needs_fork
@pytest.mark.parametrize("cfg", [small(max_element=5), small()], ids=["bound-5", "default"])
def test_forked_report_equals_the_one_lane_report(forks, monkeypatch, cfg):
    two = run_suite("all", cfg)
    assert len(forks) == 1
    assert two.to_json_dict() == _one_lane(monkeypatch, cfg).to_json_dict()


@needs_fork
def test_failures_of_the_forked_suite_come_back_in_place(forks, monkeypatch):
    sent = (5, [VerifyFailure("E={1, 3}", "oracle=True", "closed=False")], {"k": [1, (2, 3)]})
    monkeypatch.setitem(verify._SUITES, "order", lambda cfg: sent)
    two = run_suite("all", small(max_element=5))
    assert len(forks) == 1
    assert two == _one_lane(monkeypatch, small(max_element=5))
    assert two.failures == (VerifyFailure("[order] E={1, 3}", "oracle=True", "closed=False"),)


@needs_fork
def test_a_refusal_in_the_child_exits_2(forks, monkeypatch, capsys):
    from kirch.cli import main

    monkeypatch.setitem(verify._SUITES, "order", _raiser("x"))
    assert main(["verify", "all"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "kirch verify: x\n")
    assert len(forks) == 1


@needs_fork
@pytest.mark.parametrize("raising,first", [
    (("closure", "order"), "closure"),
    (("pair_formula", "order", "gamma"), "pair_formula"),
    (("order", "top"), "order"),
    (("top", "mihailescu"), "top"),
], ids=["closure-and-order", "pair_formula-order-gamma", "order-and-top", "top-and-mihailescu"])
def test_the_earliest_suite_raises(forks, monkeypatch, raising, first):
    for name in raising:
        monkeypatch.setitem(verify._SUITES, name, _raiser(name))
    with pytest.raises(ValueError, match=f"^{first}$"):
        run_suite("all", small(max_element=5))
    assert len(forks) == 1


@needs_fork
def test_an_exception_keeps_its_type_from_the_child(forks, monkeypatch):
    monkeypatch.setitem(verify._SUITES, "order", _raiser("big", OverflowError))
    with pytest.raises(OverflowError, match="^big$"):
        run_suite("all", small(max_element=5))


def _in_child(misbehave):
    """An `order` that misbehaves only in a forked child: the fallback
    runs `order` in this process, where an os._exit or a SIGKILL would
    end the test run, so here it runs the real suite."""
    pid, real = os.getpid(), verify._SUITES["order"]
    return lambda cfg: real(cfg) if os.getpid() == pid else misbehave(cfg)


def _sleep_60(cfg):
    time.sleep(60)


@needs_fork
def test_a_refusal_before_order_kills_the_child_at_once(forks, monkeypatch):
    monkeypatch.setitem(verify._SUITES, "order", _in_child(_sleep_60))
    monkeypatch.setitem(verify._SUITES, "pair_formula", _raiser("refused"))
    start = time.monotonic()
    with pytest.raises(ValueError, match="refused"):
        run_suite("all", small(max_element=5))
    assert time.monotonic() - start < 10


@needs_fork
def test_a_refusal_after_order_does_not_wait_for_the_child(forks, monkeypatch):
    monkeypatch.setitem(verify._SUITES, "order", _in_child(_sleep_60))
    monkeypatch.setitem(verify._SUITES, "top", _raiser("refused"))
    start = time.monotonic()
    with pytest.raises(ValueError, match="^refused$"):
        run_suite("all", small(max_element=5))
    assert time.monotonic() - start < 10
    assert len(forks) == 1


@needs_fork
def test_an_interrupt_in_the_parent_reaps_the_child(forks, monkeypatch):
    monkeypatch.setitem(verify._SUITES, "order", _in_child(_sleep_60))
    monkeypatch.setitem(verify._SUITES, "top", _raiser("", KeyboardInterrupt))
    with pytest.raises(KeyboardInterrupt):
        run_suite("all", small(max_element=5))


# run_suite("all") in a process of its own, whose `order` child prints
# its pid and sleeps; the fallback's `order` in the parent runs for real
_ORPHAN_SCRIPT = """
import os, time
from kirch import verify
parent, real = os.getpid(), verify._SUITES["order"]

def order(cfg):
    if os.getpid() == parent:
        return real(cfg)
    print(os.getpid(), flush=True)
    time.sleep(60)

verify._SUITES["order"] = order
verify._usable_cpus = lambda: 2
verify.run_suite("all", verify.SuiteConfig(max_element=5))
"""


def _alive(pid: int) -> bool:
    """Whether pid runs; a zombie has ended and only waits to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@needs_fork
@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads /proc")
def test_the_child_leaves_once_its_parent_is_killed():
    proc = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_SCRIPT], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    try:
        child = int(proc.stdout.readline())
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    try:
        deadline = time.monotonic() + 1.0
        while _alive(child) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not _alive(child)
    finally:
        if _alive(child):
            os.kill(child, signal.SIGKILL)


def _exit_0(cfg):
    os._exit(0)


def _exit_3(cfg):
    os._exit(3)


def _killed(cfg):
    os.kill(os.getpid(), signal.SIGKILL)


# marshal refuses it, which only matters in the child; one object, so
# that the fallback's report and the one-lane report compare equal
_UNMARSHALLABLE = object()


def _marshal_refuses(cfg):
    return 1, [], {"k": _UNMARSHALLABLE}


@needs_fork
@pytest.mark.parametrize("make_order", [
    lambda: _in_child(_exit_0),
    lambda: _in_child(_exit_3),
    lambda: _in_child(_killed),
    lambda: _marshal_refuses,
], ids=["exit-0", "exit-3", "sigkill", "unmarshallable"])
def test_a_child_without_a_report_falls_back_to_one_lane(forks, monkeypatch, make_order):
    monkeypatch.setitem(verify._SUITES, "order", make_order())
    two = run_suite("all", small(max_element=5))
    assert len(forks) == 1
    assert two == _one_lane(monkeypatch, small(max_element=5))


@pytest.mark.parametrize("cpus,fork", [(1, True), (2, False)], ids=["one-cpu", "no-fork"])
def test_one_lane_without_fork_or_a_second_cpu(monkeypatch, cpus, fork):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    if fork:
        monkeypatch.setattr(os, "fork", _raiser("forked", AssertionError))
    else:
        monkeypatch.delattr(os, "fork", raising=False)
    report = run_suite("all", small(max_element=5))
    assert report.passed and len(report.details["suites"]) == len(verify._SUITES)


def test_a_failed_fork_runs_one_lane(monkeypatch):
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", _raiser("no more processes", BlockingIOError))
    report = run_suite("all", small(max_element=5))
    assert report.passed and len(report.details["suites"]) == len(verify._SUITES)


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
@pytest.mark.parametrize("cfg", [SuiteConfig(), SuiteConfig(graph_bounds=(5, 1))],
                         ids=["merged", "refused-after-order"])
def test_the_lanes_split_the_mask_and_the_mask_comes_back(forks, monkeypatch, tmp_path, cfg):
    """The parent pins itself to the lower half of the mask and the
    child to the upper half, disjoint where the mask holds two CPUs or
    more, and the parent restores the caller's mask whether the reports
    merge or `gamma` refuses after `order` ran."""
    log, real = tmp_path / "pins", os.sched_setaffinity

    def recorded(pid, cpus):
        with open(log, "a") as f:
            f.write(json.dumps([os.getpid(), sorted(cpus)]) + "\n")
        real(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", recorded)
    before = os.sched_getaffinity(0)
    refused = cfg.graph_bounds == (5, 1)
    if refused:
        with pytest.raises(ValueError):
            run_suite("all", cfg)
    else:
        assert run_suite("all", cfg).passed
    assert os.sched_getaffinity(0) == before
    assert len(forks) == 1
    calls = [json.loads(line) for line in log.read_text().splitlines()]
    mask = sorted(before)
    low, high = mask[:len(mask) // 2], mask[len(mask) // 2:]
    assert [cpus for pid, cpus in calls if pid == os.getpid()] == [low, mask]
    child = [cpus for pid, cpus in calls if pid != os.getpid()]
    # a refusal may kill the child before it pins
    assert child == [high] or refused and child == []


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
@pytest.mark.parametrize("refused", [True, False], ids=["pin-refused", "no-sched_setaffinity"])
def test_the_lanes_run_unpinned_where_no_pin_can_be_set(forks, monkeypatch, refused):
    if refused:
        monkeypatch.setattr(os, "sched_setaffinity", _raiser("refused", OSError))
    else:
        monkeypatch.delattr(os, "sched_setaffinity")
    # `order` may run only in the child: the one-lane fallback fails here
    parent, real = os.getpid(), verify._SUITES["order"]
    monkeypatch.setitem(verify._SUITES, "order", lambda cfg: real(cfg) if os.getpid() != parent
                        else pytest.fail("fell back to one lane"))
    assert run_suite("all", small(max_element=5)).passed
    assert len(forks) == 1


def test_importing_the_cli_loads_no_fork_machinery():
    # every kirch call imports the cli; a process pool or pickle would
    # cost more than the fork of `verify all` saves
    code = ("import sys, kirch.cli; print(sorted({'multiprocessing', 'concurrent.futures',"
            " 'pickle'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"
