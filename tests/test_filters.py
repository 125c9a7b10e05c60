"""Filter invariants against brute quantifier checks.

The independent oracle for A_E tests every prime up to a generous
bound by literally asking for a k with E inside {0,k}+pZ; the fast
path bounds its candidates through one element pair, so agreement is
meaningful evidence.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirch import filters
from kirch.filters import (
    _ALPHA,
    _MISSING,
    _PI_BLOCK,
    FilterClass,
    FiniteSubset,
    _bits,
    _conditions,
    _DescriptorIndex,
    a_of,
    a_of_pair_formula,
    classify,
    descriptor,
    filter_leq,
    is_top,
    order_oracle,
    realize,
    upset_in_fprime,
)
from kirch.numtheory import MAX_MAGNITUDE, prime_divisors, primes_upto
from test_cli import in_generator

S = FiniteSubset.of


def naive_a_of(E: FiniteSubset, prime_bound: int) -> set[int]:
    hits = set()
    for p in primes_upto(prime_bound):
        for k in range(p):
            if all(x % p in (0, k) for x in E):
                hits.add(p)
                break
    return hits


small_sets = st.builds(
    FiniteSubset,
    st.sets(
        st.integers(-60, 60).filter(lambda x: x != 0), min_size=2, max_size=4
    ).map(tuple),
)


class TestASet:
    def test_frozen_examples(self):
        assert a_of(S(1, 2)) == (2,)
        assert a_of(S(5, 10)) == (2, 5)
        assert a_of(S(3, 6, 12)) == (2, 3)
        assert a_of(S(7)) is None

    @given(small_sets)
    @settings(max_examples=300, deadline=None)
    def test_matches_naive(self, E):
        assert a_of(E) == tuple(sorted(naive_a_of(E, 200)))

    @given(small_sets)
    @settings(max_examples=150, deadline=None)
    def test_negation_invariance(self, E):
        mirror = FiniteSubset(tuple(-x for x in E))
        assert a_of(mirror) == a_of(E)

    def test_doubleton_residues_match_the_definition(self):
        # _residues reads a pair off a_of_pair_formula without a scan;
        # here every prime up to 80 with at most one nonzero residue
        # keeps that residue, or 0, in ascending order
        primes = primes_upto(80)
        vals = [v for v in range(-40, 41) if v]
        for i, x in enumerate(vals):
            for y in vals[i + 1:]:
                want = [(p, next(iter(nonzero), 0)) for p in primes
                        if len(nonzero := {x % p, y % p} - {0}) <= 1]
                assert list(filters._residues((x, y)).items()) == want, (x, y)

    def test_pair_formula_frozen(self):
        assert a_of_pair_formula(3, 6) == (2, 3)
        assert a_of_pair_formula(1, 7) == (2, 3, 7)
        assert a_of_pair_formula(16, 32) == (2,)
        with pytest.raises(ValueError):
            a_of_pair_formula(4, 4)

    def test_pair_formula_past_63_bit_differences(self):
        # in-range elements whose difference is 2^63, 2^63 + 1 =
        # 3^3 * 19 * 43 * 5419 * 77158673929, and 2 * (2^63 - 1)
        m = MAX_MAGNITUDE
        assert a_of_pair_formula(2**62, -(2**62)) == (2,)
        assert a_of_pair_formula(m, -2) == (
            2, 3, 7, 19, 43, 73, 127, 337, 5419, 92737, 649657, 77158673929)
        assert a_of_pair_formula(m, -m) == (2, 7, 73, 127, 337, 92737, 649657)
        with pytest.raises(OverflowError):
            a_of_pair_formula(1, 2**63)

    @given(
        st.integers(-50, 50).filter(lambda x: x != 0),
        st.integers(-50, 50).filter(lambda x: x != 0),
    )
    @settings(max_examples=300, deadline=None)
    def test_pair_formula_matches_general(self, x, y):
        if x == y:
            return
        assert a_of_pair_formula(x, y) == a_of(S(x, y))


def common_primes(E: FiniteSubset) -> tuple[int, ...]:
    """Pi_E from its definition, apart from descriptor's residue scan."""
    return prime_divisors(math.gcd(*E.elements))


class TestAlpha:
    def test_frozen_examples(self):
        assert descriptor(S(1, 2)).alpha == {2: 1}
        assert descriptor(S(5, 10)).alpha == {2: 1, 5: 0}
        assert descriptor(S(7, 5, 10)).alpha == {2: 1, 5: 2}

    def test_rejects_singleton(self):
        assert descriptor(S(9)).alpha is None

    @given(small_sets)
    @settings(max_examples=200, deadline=None)
    def test_covers_source(self, E):
        d = descriptor(E)
        al = d.alpha
        pi = common_primes(E)
        assert d.Pi == pi
        assert tuple(al) == a_of(E)
        for p, r in al.items():
            assert all(x % p in (0, r) for x in E)
            if p == 2:
                assert r == 1
            elif p in pi:
                assert r == 0
            else:
                assert 0 < r < p


class TestGeneratorConditions:
    @given(small_sets)
    @settings(max_examples=200, deadline=None)
    def test_match_the_invariants(self, E):
        # every prime of A_E is at most 2 max|x|, so the scan sees them all
        conds = _conditions(E.elements, primes_upto(2 * max(abs(x) for x in E)))
        pi = common_primes(E)
        assert descriptor(E).Pi == pi
        assert tuple(conds) == a_of(E)
        assert [p for p, r in conds.items() if r == 0] == [p for p in pi if p != 2]
        assert conds == descriptor(E).alpha


class TestFiniteSubset:
    @pytest.mark.parametrize("elements", [
        (4, 2**63, 2), (-(2**63), 1), (1, 2**64, -(2**64)),
    ])
    def test_rejects_past_63_bits(self, elements):
        with pytest.raises(OverflowError, match="63-bit"):
            FiniteSubset(elements)

    def test_accepts_the_63_bit_ends(self):
        E = S(MAX_MAGNITUDE, 1, -MAX_MAGNITUDE)
        assert E.elements == (-MAX_MAGNITUDE, 1, MAX_MAGNITUDE)


class TestDescriptor:
    def test_frozen_examples(self):
        d = descriptor(S(5, 10))
        assert d.A == (2, 5)
        assert d.Pi == (5,)
        assert d.alpha == {2: 1, 5: 0}
        d3 = descriptor(S(1, 15, 30))
        assert d3.A == (2, 3, 5)
        assert d3.Pi == ()
        assert d3.alpha == {2: 1, 3: 1, 5: 1}
        d7 = descriptor(S(7))
        assert (d7.A, d7.Pi, d7.alpha) == (None, (7,), None)
        assert str(d7) == "A=all Pi={7} alpha={}"

    def test_prime_factor_past_the_table(self):
        # 10000000019 is prime, far past the 300000 sieve bound, and
        # 10000000018 = 2 * 131 * 521 * 73259
        d = descriptor(S(1, 10000000019))
        assert d.A == (2, 131, 521, 73259, 10000000019)

    def test_json_shape(self):
        assert descriptor(S(5, 10)).to_json_dict() == {
            "A": [2, 5],
            "Pi": [5],
            "alpha": {"2": 1, "5": 0},
            "source": [5, 10],
        }
        assert descriptor(S(7)).to_json_dict() == {
            "A": "all",
            "Pi": [7],
            "alpha": {},
            "source": [7],
        }


def catalog() -> list[FiniteSubset]:
    """Deterministic mix of doubletons and triples with elements <= 30."""
    sets = []
    for x in range(1, 16):
        sets.append(S(x, 2 * x))
    for p in (3, 5, 7, 11, 13):
        for a in (1, 2, p - 1):
            sets.append(S(a, p, 2 * p))
    sets += [S(-3, -6), S(-1, 1), S(4, 8), S(1, 15), S(2, 15), S(1, 15, 30),
             S(2, 21), S(5, 7), S(6, 10, 15), S(-5, 10), S(9, 27), S(1, 30)]
    return sets


class TestOrder:
    def test_frozen_examples(self):
        assert filter_leq(S(1, 15), S(1, 5, 10))
        assert filter_leq(S(3), S(3, 6))
        assert not filter_leq(S(1, 15), S(1, 11, 22))

    def test_seven_divides_fourteen(self):
        # A_{1,7,14} = {2,7} sits inside A_{1,15} = {2,3,5,7} with
        # matching residues, so the inclusion holds
        assert filter_leq(S(1, 15), S(1, 7, 14))
        assert order_oracle(S(1, 15), S(1, 7, 14))[0]

    def test_singleton_rule(self):
        assert filter_leq(S(3), S(3))
        assert not filter_leq(S(3), S(6, 9))
        assert not filter_leq(S(3, 6), S(3))
        assert not filter_leq(S(3), S(5))

    def test_oracle_frozen_examples(self):
        assert order_oracle(S(1, 15), S(1, 5, 10))[0]
        assert order_oracle(S(5, 10), S(5, 10))[0]
        assert not order_oracle(S(5, 10), S(7, 14))[0]

    def test_oracle_rejects_singletons(self):
        with pytest.raises(ValueError):
            order_oracle(S(3), S(3, 6))

    def test_witness_paths(self):
        holds, w = order_oracle(S(5, 10), S(7, 14))
        assert not holds and w.prime == 7 and w.reason == _MISSING
        # residue clash at 3: E wants 1, F wants 2
        holds, w = order_oracle(S(1, 3), S(2, 3, 8))
        assert not holds and w.prime == 3 and w.element % 3 == 2
        # 3 divides all of F but E constrains residues mod 3
        holds, w = order_oracle(S(1, 3), S(3, 6))
        assert not holds and w.prime == 3 and w.element % 3 not in (0, 1)

    def test_escape_from_the_generator_at_a_missing_prime(self, monkeypatch):
        # 7 lies outside A_E for E = {5, 10}, so the target is G_E({7});
        # a constructed element divisible by 7 lies in it and must not
        # pass as a witness
        monkeypatch.setattr(filters, "crt_solve", lambda system: 7)
        with pytest.raises(AssertionError, match="fails to escape"):
            order_oracle(S(5, 10), S(7, 14))

    def test_witnesses_checked_against_descriptors(self):
        # each witness lies in G_F(()), escapes the E-side generator its
        # reason names, and that reason names the role of its prime in
        # the descriptors
        failing = 0
        for E in catalog():
            for F in catalog():
                holds, w = order_oracle(E, F)
                if holds:
                    continue
                failing += 1
                dE, dF = descriptor(E), descriptor(F)
                assert in_generator(w.element, dF, ()), (E, F, w)
                p = w.prime
                target = (p,) if w.reason == _MISSING else ()
                assert not in_generator(w.element, dE, target), (E, F, w)
                assert p in dF.A, (E, F, w)
                if p not in dE.A:
                    assert w.reason == _MISSING, (E, F, w)
                elif p in dF.Pi:
                    assert w.reason == _PI_BLOCK, (E, F, w)
                else:
                    assert w.reason == _ALPHA, (E, F, w)
                    assert p not in dE.Pi and dE.alpha[p] != dF.alpha[p], (E, F, w)
        assert failing >= 200

    def test_agreement_on_catalog(self):
        sets = catalog()
        pairs = 0
        for E in sets:
            for F in sets:
                assert filter_leq(E, F) == order_oracle(E, F)[0], (E, F)
                pairs += 1
        assert pairs >= 200

    def test_partial_order_laws(self):
        sets = catalog()
        rel = {
            (i, j): filter_leq(E, F)
            for i, E in enumerate(sets)
            for j, F in enumerate(sets)
        }
        n = len(sets)
        for i in range(n):
            assert rel[i, i]
            for j in range(n):
                if rel[i, j] and rel[j, i]:
                    assert descriptor(sets[i]).alpha == descriptor(sets[j]).alpha
                for k in range(n):
                    if rel[i, j] and rel[j, k]:
                        assert rel[i, k]

    def test_column_is_empty_when_no_row_meets_every_prime(self):
        # every prime of F is some row's, so no lookup misses; the AND
        # still empties: only the first row has 3, only the second 5
        rows = [descriptor(realize((2, 3), {2: 1, 3: 1})),
                descriptor(realize((2, 5), {2: 1, 5: 1}))]
        index = _DescriptorIndex(rows)
        assert index.column(descriptor(realize((2, 3, 5), {2: 1, 3: 1, 5: 1}))) == 0
        assert index.column(descriptor(realize((2, 3), {2: 1, 3: 1}))) == 0b01
        assert index.column(descriptor(realize((2, 5), {2: 1, 5: 1}))) == 0b10


@given(st.integers(min_value=0, max_value=2**200))
def test_bits_lists_the_set_bits_in_order(mask):
    assert list(_bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


@pytest.mark.parametrize("mask", [-1, -2**70])
def test_bits_refuses_a_negative_mask(mask):
    with pytest.raises(ValueError, match="negative mask"):
        list(_bits(mask))


class TestTopAndClasses:
    def test_top_frozen(self):
        assert is_top(S(-4, 4))
        assert is_top(S(1, 2))
        assert not is_top(S(5, 10))

    def test_top_none_among_odd_pairs(self):
        assert not is_top(S(3, 9))
        assert not is_top(S(-2, 4))
        assert not is_top(S(7))

    def test_doubleton_catalog_sweep(self):
        powers = {2**n for n in range(6)}
        for x in range(-32, 33):
            for y in range(x + 1, 33):
                if 0 in (x, y):
                    continue
                expected = (
                    (0 < x and y == 2 * x and x in powers)
                    or (y < 0 and x == 2 * y and -y in powers)
                    or (x == -y and y in powers)
                )
                assert is_top(S(x, y)) == expected, (x, y)

    def test_classify_frozen(self):
        assert classify(S(1, 5, 10)) is FilterClass.F_PRIME
        assert classify(S(5, 10)) is FilterClass.F_DOUBLE_PRIME
        assert classify(S(1, 15, 30)) is FilterClass.F_DOUBLE_PRIME
        assert classify(S(1, 2)) is FilterClass.TOP
        assert classify(S(9)) is FilterClass.OTHER
        assert classify(S(1, 15)) is FilterClass.OTHER

    def test_classify_more(self):
        assert classify(S(2, 3)) is FilterClass.F_PRIME
        assert classify(S(6, 12)) is FilterClass.F_DOUBLE_PRIME
        # no odd prime sees {3,5,7} in two classes, so it tops out
        assert classify(S(3, 5, 7)) is FilterClass.TOP


class TestUpset:
    def test_frozen_sizes(self):
        assert len(upset_in_fprime(S(5, 10))) == 4
        assert len(upset_in_fprime(S(7, 14))) == 6
        assert len(upset_in_fprime(S(1, 15, 30))) == 2

    def test_lists_at_most_10_4_filters(self):
        # 9973 is the largest prime below 10^4; {-p, p} for a 61-bit
        # prime p would otherwise list p - 1 descriptors
        assert len(upset_in_fprime(S(-9973, 9973))) == 9972
        for p in (10007, 2**61 - 1):
            with pytest.raises(ValueError, match="at most 10\\^4"):
                upset_in_fprime(S(-p, p))

    def test_rejects_wrong_class(self):
        with pytest.raises(ValueError):
            upset_in_fprime(S(1, 2))
        with pytest.raises(ValueError):
            upset_in_fprime(S(1, 5, 10))

    def test_matches_direct_order_scan(self):
        for E in (S(5, 10), S(3, 6), S(1, 15, 30), S(2, 15, 30)):
            ups = {d.source for d in upset_in_fprime(E)}
            assert all(classify(G) is FilterClass.F_PRIME for G in ups)
            for p in (3, 5, 7, 11, 13):
                for a in range(1, p):
                    G = S(a, p, 2 * p)
                    assert (G in ups) == filter_leq(E, G), (E, G)

    def test_members_sit_strictly_above(self):
        for d in upset_in_fprime(S(7, 14)):
            assert filter_leq(S(7, 14), d.source)
            assert not filter_leq(d.source, S(7, 14))


class TestRealize:
    def test_frozen_examples(self):
        assert realize((2, 5), {2: 1, 5: 2}) == S(5, 7, 10)
        assert realize((2,), {2: 1}) == S(1, 2)
        assert realize((2, 3, 5), {2: 1, 3: 1, 5: 1}) == S(1, 15, 30)
        # any collection of primes, any mapping order
        assert realize([5, 2, 5], {5: 2, 2: 1}) == S(5, 7, 10)

    def test_roundtrip_small(self):
        for pa in ((2,), (2, 3), (2, 5), (2, 3, 5), (2, 3, 7)):
            choices = [[1]] + [list(range(p)) for p in pa[1:]]
            import itertools

            for combo in itertools.product(*choices):
                alpha = dict(zip(pa, combo))
                E = realize(pa, alpha)
                assert a_of(E) == pa
                assert descriptor(E).alpha == alpha

    @pytest.mark.parametrize("A,alpha,message", [
        ((2, 9), {2: 1, 9: 2}, "9 is not prime"),
        ((2, 5), {2: 1, 9: 2}, "9 is not prime"),
        ((2, 5), {2: 1, 5: 5}, "residue 5 out of range for prime 5"),
        ((2, 5), {2: 1, 5: -1}, "residue -1 out of range for prime 5"),
        ((2, 5), {2: 0, 5: 1}, "alpha\\(2\\) must be present and equal 1"),
        ((3, 5), {2: 1}, "A must contain 2"),
        ((2, 5), {2: 1}, "alpha must be defined exactly on A"),
    ], ids=[
        "composite-in-A", "composite-in-alpha", "residue-out-of-range",
        "negative-residue",
        "alpha2-not-1", "missing-2", "domain-mismatch",
    ])
    def test_rejects_bad_input(self, A, alpha, message):
        with pytest.raises(ValueError, match=message):
            realize(A, alpha)

