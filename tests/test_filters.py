"""Filter invariants against brute quantifier checks.

The independent oracle for A_E tests every prime up to a generous
bound by literally asking for a k with E inside {0,k}+pZ; the fast
path bounds its candidates through one element pair, so agreement is
meaningful evidence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirch.filters import (
    AlphaMap,
    FilterClass,
    FiniteSubset,
    a_of,
    a_of_pair_formula,
    alpha_of,
    classify,
    descriptor,
    divides_via_filters,
    filter_leq,
    is_top,
    order_oracle,
    pi_of,
    realize,
    upset_in_fprime,
)
from kirch.numtheory import PrimeSet, primes_upto

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
        assert a_of(S(1, 2)).as_set() == {2}
        assert a_of(S(5, 10)).as_set() == {2, 5}
        assert a_of(S(3, 6, 12)).as_set() == {2, 3}
        assert a_of(S(7)).is_all

    @given(small_sets)
    @settings(max_examples=300, deadline=None)
    def test_matches_naive(self, E):
        assert a_of(E).as_set() == naive_a_of(E, 200)

    @given(small_sets)
    @settings(max_examples=150, deadline=None)
    def test_negation_invariance(self, E):
        mirror = FiniteSubset(tuple(-x for x in E))
        assert a_of(mirror).as_set() == a_of(E).as_set()

    def test_pair_formula_frozen(self):
        assert a_of_pair_formula(3, 6).as_set() == {2, 3}
        assert a_of_pair_formula(1, 7).as_set() == {2, 3, 7}
        assert a_of_pair_formula(16, 32).as_set() == {2}
        with pytest.raises(ValueError):
            a_of_pair_formula(4, 4)

    @given(
        st.integers(-50, 50).filter(lambda x: x != 0),
        st.integers(-50, 50).filter(lambda x: x != 0),
    )
    @settings(max_examples=300, deadline=None)
    def test_pair_formula_matches_general(self, x, y):
        if x == y:
            return
        assert a_of_pair_formula(x, y).as_set() == a_of(S(x, y)).as_set()


class TestAlpha:
    def test_frozen_examples(self):
        assert alpha_of(S(1, 2)).as_dict() == {2: 1}
        assert alpha_of(S(5, 10)).as_dict() == {2: 1, 5: 0}
        assert alpha_of(S(7, 5, 10)).as_dict() == {2: 1, 5: 2}

    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            alpha_of(S(9))

    def test_map_validation(self):
        with pytest.raises(ValueError):
            AlphaMap.of({2: 0})
        with pytest.raises(ValueError):
            AlphaMap.of({2: 1, 5: 5})
        with pytest.raises(ValueError):
            AlphaMap.of({2: 1, 9: 2})

    @given(small_sets)
    @settings(max_examples=200, deadline=None)
    def test_covers_source(self, E):
        al = alpha_of(E)
        pi = pi_of(E).as_set()
        for p, r in al.entries:
            assert all(x % p in (0, r) for x in E)
            if p == 2:
                assert r == 1
            elif p in pi:
                assert r == 0
            else:
                assert 0 < r < p


class TestDescriptor:
    def test_frozen_examples(self):
        d = descriptor(S(5, 10))
        assert d.A.as_set() == {2, 5}
        assert d.Pi.as_set() == {5}
        assert d.alpha.as_dict() == {2: 1, 5: 0}
        d3 = descriptor(S(1, 15, 30))
        assert d3.A.as_set() == {2, 3, 5}
        assert d3.Pi.primes == ()
        assert d3.alpha.as_dict() == {2: 1, 3: 1, 5: 1}
        assert descriptor(S(7)).A.is_all

    def test_prime_factor_past_the_table(self):
        # 10000000019 is prime, far past the prime table, and
        # 10000000018 = 2 * 131 * 521 * 73259
        d = descriptor(S(1, 10000000019))
        assert str(d.A) == "{2, 131, 521, 73259, 10000000019}"

    def test_canonical_equality_ignores_source(self):
        assert descriptor(S(1, 5, 10)) == descriptor(S(6, 5, 10))
        assert hash(descriptor(S(1, 5, 10))) == hash(descriptor(S(6, 5, 10)))
        assert descriptor(S(1, 5, 10)) != descriptor(S(2, 5, 10))

    def test_canonical_equality_ignores_two_in_pi(self):
        # both are the top filter; common divisor 2 carries no information
        assert descriptor(S(2, 4)) == descriptor(S(1, 2))

    def test_singletons_equal_by_element(self):
        assert descriptor(S(7)) == descriptor(S(7))
        assert descriptor(S(7)) != descriptor(S(11))
        assert descriptor(S(7)) != descriptor(S(7, 14))

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
        assert not holds and w.prime == 7 and w.target_L == (7,)
        # residue clash at 3: E wants 1, F wants 2
        holds, w = order_oracle(S(1, 3), S(2, 3, 8))
        assert not holds and w.prime == 3 and w.element % 3 == 2
        # 3 divides all of F but E constrains residues mod 3
        holds, w = order_oracle(S(1, 3), S(3, 6))
        assert not holds and w.prime == 3 and w.element % 3 not in (0, 1)

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
                    assert descriptor(sets[i]) == descriptor(sets[j])
                for k in range(n):
                    if rel[i, j] and rel[j, k]:
                        assert rel[i, k]


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

    def test_rejects_wrong_class(self):
        with pytest.raises(ValueError):
            upset_in_fprime(S(1, 2))
        with pytest.raises(ValueError):
            upset_in_fprime(S(1, 5, 10))

    def test_matches_direct_order_scan(self):
        for E in (S(5, 10), S(3, 6), S(1, 15, 30), S(2, 15, 30)):
            ups = set(upset_in_fprime(E))
            assert all(classify(d.source) is FilterClass.F_PRIME for d in ups)
            for p in (3, 5, 7, 11, 13):
                for a in range(1, p):
                    G = S(a, p, 2 * p)
                    assert (descriptor(G) in ups) == filter_leq(E, G), (E, G)

    def test_members_sit_strictly_above(self):
        for d in upset_in_fprime(S(7, 14)):
            assert filter_leq(S(7, 14), d.source)
            assert not filter_leq(d.source, S(7, 14))


class TestRealize:
    def test_frozen_examples(self):
        assert realize(PrimeSet.of(2, 5), AlphaMap.of({2: 1, 5: 2})) == S(5, 7, 10)
        assert realize(PrimeSet.of(2), AlphaMap.of({2: 1})) == S(1, 2)
        assert realize(
            PrimeSet.of(2, 3, 5), AlphaMap.of({2: 1, 3: 1, 5: 1})
        ) == S(1, 15, 30)

    def test_roundtrip_small(self):
        for pa in ((2,), (2, 3), (2, 5), (2, 3, 5), (2, 3, 7)):
            A = PrimeSet.of(*pa)
            choices = [[1]] + [list(range(p)) for p in pa[1:]]
            import itertools

            for combo in itertools.product(*choices):
                alpha = AlphaMap.of(dict(zip(pa, combo)))
                E = realize(A, alpha)
                assert a_of(E).as_set() == set(pa)
                assert alpha_of(E) == alpha

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            realize(PrimeSet.of(3, 5), AlphaMap.of({2: 1}))
        with pytest.raises(ValueError):
            realize(PrimeSet.of(2, 5), AlphaMap.of({2: 1}))
        with pytest.raises(ValueError):
            realize(PrimeSet.all_primes(), AlphaMap.of({2: 1}))


class TestDividesViaFilters:
    def test_frozen_examples(self):
        assert divides_via_filters(15, 5)
        assert not divides_via_filters(15, 7)
        assert divides_via_filters(-9, 3)

    def test_rejects_excluded_input(self):
        for x in (-2, -1, 0, 1, 2):
            with pytest.raises(ValueError):
                divides_via_filters(x, 3)
        with pytest.raises(ValueError):
            divides_via_filters(15, 2)
        with pytest.raises(ValueError):
            divides_via_filters(15, 9)

    def test_tracks_divisibility(self):
        for x in range(-40, 41):
            if x in (-2, -1, 0, 1, 2):
                continue
            for p in (3, 5, 7):
                assert divides_via_filters(x, p) == (x % p == 0), (x, p)
