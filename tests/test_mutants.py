"""Faults the checks must catch: each row names a target, a one-line
mutant of it applied with monkeypatch, and a check that passes on the
real code and fails under the mutant."""

from itertools import product

import pytest

from kirch import filters, graphs, verify
from kirch.filters import FilterClass, filter_leq, realize
from kirch.numtheory import prime_divisors
from kirch.topology import ClosureSet
from kirch.verify import SuiteConfig, run_suite

# Top < FPrime < FDoublePrime < Other, from the top of the order down
_DEPTH = {c: k for k, c in enumerate(FilterClass)}


def _layer_violations():
    """classify against the filter order on every realized set with
    A inside {2, 3, 5}: a layered E strictly below F lies deeper."""
    sets = [
        realize((2, *odd), {2: 1, **dict(zip(odd, residues))})
        for odd in ((), (3,), (5,), (3, 5))
        for residues in product(*(range(p) for p in odd))
    ]
    assert len(sets) == 24
    depth = {E: _DEPTH[filters.classify(E)] for E in sets}
    return [
        (E, F) for E in sets for F in sets
        if depth[E] < _DEPTH[FilterClass.OTHER]
        and filter_leq(E, F) and not filter_leq(F, E) and depth[E] <= depth[F]
    ]


def _closure_failures_at_31():
    # 31 is the least bound with a modulus b > 30
    return run_suite("closure", SuiteConfig(max_element=31)).failures


def _pair_formula_failures_at_10():
    return run_suite("pair_formula", SuiteConfig(max_element=10)).failures


def _top_failures_at_8():
    return run_suite("top", SuiteConfig(max_element=8)).failures


def _order_failures_at_8():
    return run_suite("order", SuiteConfig(max_element=8)).failures


def _realize_failures():
    return run_suite("realize", SuiteConfig()).failures


def _gamma_failures_at_6_3():
    return run_suite("gamma", SuiteConfig(graph_bounds=(6, 3))).failures


def _column_without_the_pi_exemption(real):
    # `groups.get(r, 0)` in place of `groups.get(0, 0) | groups.get(r, 0)`
    def column(self, dF):
        rows = self.full
        rows_with = self.rows_with
        for p, r in dF.alpha.items():
            groups = rows_with.get(p)
            if groups is None:
                return 0
            rows &= groups.get(r, 0)
            if not rows:
                return 0
        return rows
    return column


def _crt_solve_off_by_one(real):
    return lambda system: real(system) + 1


def _families_without_the_last(real):
    return lambda p: real(p)[:-1]


def _pair_formula_without_the_difference(real):
    return lambda x, y: tuple(sorted({*prime_divisors(x), *prime_divisors(y)}))


def _is_top_accepting_2_and_3(real):
    return lambda E: real(E) or filters.a_of(E) == (2, 3)


def _classify_ignoring_pi(real):
    # `len(A) == 3` in place of `len(A) == 3 and set(d.Pi) <= {2}`
    def classify(E):
        A = filters.descriptor(E).A
        return FilterClass.F_DOUBLE_PRIME if A is not None and len(A) == 3 else real(E)
    return classify


def _closure_dropping_its_largest_prime_past_30(real):
    def closure(prog):
        cs = real(prog)
        if prog.b > 30:
            return ClosureSet(cs.modulus_primes[:-1], prog.a)
        return cs
    return closure


@pytest.mark.parametrize("module,name,mutant,check", [
    (filters, "classify", _classify_ignoring_pi, _layer_violations),
    (verify, "closure", _closure_dropping_its_largest_prime_past_30, _closure_failures_at_31),
    (verify, "a_of_pair_formula", _pair_formula_without_the_difference,
     _pair_formula_failures_at_10),
    (verify, "is_top", _is_top_accepting_2_and_3, _top_failures_at_8),
    (filters._DescriptorIndex, "column", _column_without_the_pi_exemption, _order_failures_at_8),
    (filters, "crt_solve", _crt_solve_off_by_one, _realize_failures),
    (graphs, "_families", _families_without_the_last, _gamma_failures_at_6_3),
], ids=["classify-pi", "closure-b-past-30", "pair-formula-no-difference", "top-2-3",
        "column-no-pi-exemption", "crt-plus-one", "families-no-last"])
def test_mutant_is_caught(monkeypatch, module, name, mutant, check):
    assert not check()
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    assert check()
