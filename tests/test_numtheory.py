"""Checks for the exact arithmetic layer.

The oracle here is naive trial division, kept deliberately dumb so the
table-plus-wheel path in kirch.numtheory has something independent to
disagree with.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirch.numtheory import (
    MAX_MAGNITUDE,
    CongruenceSystem,
    PrimeSet,
    classify_prime,
    consecutive_power_pairs,
    crt_solve,
    factorize,
    fm_exponent,
    is_prime,
    is_squarefree,
    perfect_powers,
    prime_divisors,
    primes_upto,
    zsigmondy_closed_form,
    zsigmondy_is_exception,
)


def naive_prime_divisors(x: int) -> set[int]:
    n = abs(x)
    out: set[int] = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def naive_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


nonzero_ints = st.integers(-10**6, 10**6).filter(lambda x: x != 0)


class TestFactorization:
    def test_frozen_examples(self):
        assert prime_divisors(63).as_set() == {3, 7}
        assert prime_divisors(-1).as_set() == set()
        assert prime_divisors(360).as_set() == {2, 3, 5}
        assert prime_divisors(1).as_set() == set()
        assert prime_divisors(-97).as_set() == {97}

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            prime_divisors(0)
        with pytest.raises(ValueError):
            factorize(0)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            factorize(2**63)
        with pytest.raises(OverflowError):
            is_prime(2**63)

    def test_full_63_bit_value(self):
        # all factors of 2^63-1 sit below the table bound except the last
        assert factorize(MAX_MAGNITUDE) == {
            7: 2, 73: 1, 127: 1, 337: 1, 92737: 1, 649657: 1,
        }

    # table primes, a composite cofactor past the table split by the
    # wheel, a prime cofactor past the table, and a 62-bit prime
    @pytest.mark.parametrize("x", [
        -360, 63, 299993, 2 * 3**4 * 29, 12 * 1_000_003,
        300007 * 300017, 3 * 300007**2, 2**62 - 57, MAX_MAGNITUDE,
    ])
    def test_prime_divisors_are_the_keys_of_factorize(self, x):
        got = prime_divisors(x)
        assert got == PrimeSet.from_iterable(factorize(x))
        assert all(is_prime(p) for p in factorize(x))

    def test_multiplicities_reconstruct(self):
        for x in (-360, 1024, 9999, 2 * 3**4 * 29):
            prod = 1
            for p, k in factorize(x).items():
                prod *= p**k
            assert prod == abs(x)

    @given(nonzero_ints)
    @settings(max_examples=300, deadline=None)
    def test_matches_naive(self, x):
        assert prime_divisors(x).as_set() == naive_prime_divisors(x)

    @given(st.integers(2, 10**12))
    @settings(max_examples=150, deadline=None)
    def test_is_prime_iff_single_divisor_with_multiplicity_one(self, n):
        assert is_prime(n) == (factorize(n) == {n: 1})

    def test_is_prime_small_exhaustive(self):
        for n in range(-3, 2000):
            assert is_prime(n) == naive_is_prime(n)

    def test_primes_upto(self):
        assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_upto(1) == []
        table = primes_upto(300_000)
        assert table[-1] == 299993 and len(table) == 25997
        with pytest.raises(ValueError):
            primes_upto(300_001)

    @given(nonzero_ints)
    @settings(max_examples=200, deadline=None)
    def test_squarefree_matches_naive(self, x):
        naive = all(abs(x) % (d * d) for d in range(2, math.isqrt(abs(x)) + 1))
        assert is_squarefree(x) == naive

    def test_squarefree_frozen(self):
        assert is_squarefree(30)
        assert is_squarefree(-1)
        assert not is_squarefree(12)


class TestPrimeSet:
    def test_of_sorts_and_dedups(self):
        assert PrimeSet.of(7, 3, 7, 2).primes == (2, 3, 7)

    def test_rejects_composites(self):
        with pytest.raises(ValueError):
            PrimeSet.of(2, 9)

    def test_membership_and_ops(self):
        s = PrimeSet.of(3, 5)
        assert 5 in s and 7 not in s
        assert s.union(PrimeSet.of(2, 5)).primes == (2, 3, 5)
        assert s.issubset(PrimeSet.of(2, 3, 5))
        assert not PrimeSet.of(2, 3, 5).issubset(s)
        assert str(s) == "{3, 5}"

    def test_validating_constructors_reject_composites(self):
        with pytest.raises(ValueError):
            PrimeSet((4,))
        with pytest.raises(ValueError):
            PrimeSet.from_iterable([4])

    @given(
        st.lists(st.sampled_from(primes_upto(200)), max_size=8),
        st.lists(st.sampled_from(primes_upto(200)), max_size=8),
    )
    @settings(max_examples=100)
    def test_union_matches_from_iterable(self, xs, ys):
        got = PrimeSet.from_iterable(xs).union(PrimeSet.from_iterable(ys))
        assert got == PrimeSet.from_iterable(xs + ys)
        assert got.primes == tuple(sorted(set(xs + ys)))

    def test_all_primes_variant(self):
        a = PrimeSet.all_primes()
        assert a.is_all
        assert 101 in a and 102 not in a
        assert PrimeSet.of(3, 5).issubset(a) and not a.issubset(PrimeSet.of(3, 5))
        assert str(a) == "all"
        with pytest.raises(TypeError):
            len(a)
        with pytest.raises(TypeError):
            list(a)


class TestCrt:
    def test_frozen_examples(self):
        assert crt_solve(CongruenceSystem.of((1, 2), (2, 3))) == 5
        assert crt_solve(CongruenceSystem.of((0, 1))) == 1
        assert crt_solve(CongruenceSystem.of((1, 2), (2, 5))) == 7

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            CongruenceSystem.of((1, 4), (0, 6))
        with pytest.raises(ValueError):
            CongruenceSystem.of((1, 2), (0, 0))

    @st.composite
    @staticmethod
    def coprime_systems(draw):
        pool = [2, 3, 5, 7, 11, 13, 17, 19, 23]
        exps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        chosen = draw(st.permutations(pool))[: len(exps)]
        moduli = [p**e for p, e in zip(chosen, exps)]
        pairs = tuple((draw(st.integers(0, b - 1)), b) for b in moduli)
        return CongruenceSystem(pairs)

    @given(coprime_systems())
    @settings(max_examples=200, deadline=None)
    def test_solution_is_least_positive(self, sys):
        x = crt_solve(sys)
        assert x >= 1
        assert all(x % b == a % b for a, b in sys.congruences)
        assert x - sys.modulus <= 0


class TestPrimeClasses:
    def test_frozen_examples(self):
        assert classify_prime(3).is_fermat and classify_prime(3).is_mersenne
        assert classify_prime(5).is_fermat and not classify_prime(5).is_mersenne
        assert classify_prime(7).is_mersenne and not classify_prime(7).is_fermat
        assert classify_prime(31).is_mersenne
        for p in (2, 11, 13, 29):
            assert not classify_prime(p).is_fermat_mersenne

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            classify_prime(9)

    def test_exponents(self):
        assert [fm_exponent(p) for p in (3, 5, 7, 17, 31)] == [1, 2, 3, 4, 5]
        with pytest.raises(ValueError):
            fm_exponent(11)

    def test_against_power_tables(self):
        two_powers = {2**n for n in range(1, 20)}
        for p in primes_upto(10_000):
            c = classify_prime(p)
            assert c.is_fermat == (p - 1 in two_powers)
            assert c.is_mersenne == (p + 1 in two_powers)


class TestPowerGaps:
    def test_perfect_powers_small(self):
        assert perfect_powers(36) == [1, 4, 8, 9, 16, 25, 27, 32, 36]

    def test_consecutive_pairs_frozen(self):
        assert consecutive_power_pairs(10**6) == [(8, 9)]
        assert consecutive_power_pairs(9) == [(8, 9)]
        with pytest.raises(ValueError):
            consecutive_power_pairs(8)

    def test_consecutive_pairs_against_naive(self):
        limit = 20_000
        naive = {1}
        for m in range(2, limit):
            v = m * m
            while v <= limit:
                naive.add(v)
                v *= m
        expected = sorted(
            (u, u + 1) for u in naive if u + 1 in naive
        )
        assert consecutive_power_pairs(limit) == expected


class TestZsigmondy:
    def test_frozen_examples(self):
        assert zsigmondy_is_exception(2, 6)
        assert zsigmondy_is_exception(7, 2)
        assert zsigmondy_is_exception(3, 2)
        assert zsigmondy_is_exception(15, 2)
        assert not zsigmondy_is_exception(2, 4)
        assert not zsigmondy_is_exception(2, 5)
        assert not zsigmondy_is_exception(10, 2)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            zsigmondy_is_exception(1, 5)
        with pytest.raises(OverflowError):
            zsigmondy_is_exception(10, 19)

    def test_agrees_with_closed_form_on_small_grid(self):
        for a in range(2, 13):
            for n in range(2, 9):
                assert zsigmondy_is_exception(a, n) == zsigmondy_closed_form(a, n), (a, n)
