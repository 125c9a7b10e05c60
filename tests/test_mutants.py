"""Faults the checks must catch: each row names a target, a one-line
mutant of it applied with monkeypatch, and a check that passes on the
real code and fails under the mutant."""

from itertools import product

import pytest

from kirch import filters, verify
from kirch.filters import FilterClass, filter_leq, realize
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
], ids=["classify-pi", "closure-b-past-30"])
def test_mutant_is_caught(monkeypatch, module, name, mutant, check):
    assert not check()
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    assert check()
