"""Checks for the exact arithmetic layer.

The oracle here is naive trial division, kept deliberately dumb so the
trial-division-plus-rho path in kirch.numtheory has something
independent to disagree with. Past the reach of that oracle, a
factorization is checked by multiplying it back out and by testing
each key for primality.
"""

import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kirch import numtheory
from kirch.numtheory import (
    MAX_MAGNITUDE,
    classify_prime,
    consecutive_power_pairs,
    crt_solve,
    factorize,
    is_prime,
    perfect_powers,
    prime_divisors,
    primes_upto,
    small_primes,
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


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


# n -> the least prime >= n stays below 2^31, since 2^31 - 1 is prime
primes_2_30_to_2_31 = st.integers(2**30, 2**31 - 1).map(next_prime)


class TestFactorization:
    def test_frozen_examples(self):
        assert prime_divisors(63) == (3, 7)
        assert prime_divisors(-1) == ()
        assert prime_divisors(360) == (2, 3, 5)
        assert prime_divisors(1) == ()
        assert prime_divisors(-97) == (97,)

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

    # table primes, composite cofactors past the trial primes split by
    # rho, a prime cofactor past the table, a 62-bit prime, prime
    # squares and cubes near 2^62, balanced semiprimes up to 63 bits,
    # and the Carmichael number 914521 * 1829041 * 2743561
    @pytest.mark.parametrize("x", [
        -360, 63, 299993, 2 * 3**4 * 29, 12 * 1_000_003,
        300007 * 300017, 3 * 300007**2, 2**62 - 57, MAX_MAGNITUDE,
        2147483647**2, 3037000493**2, 1664501**3, 2097143**3,
        300000007 * 300000031, 4294967291 * 2147483647,
        914521 * 1829041 * 2743561,
    ])
    def test_prime_divisors_are_the_keys_of_factorize(self, x):
        start = time.perf_counter()
        got = prime_divisors(x)
        assert time.perf_counter() - start < 1.0
        assert got == tuple(sorted(factorize(x)))
        assert all(is_prime(p) for p in factorize(x))

    @given(st.integers(1, MAX_MAGNITUDE))
    @settings(max_examples=200, deadline=1000)
    def test_factorization_multiplies_back_over_63_bits(self, n):
        f = factorize(n)
        assert list(f) == sorted(f)
        assert math.prod(p**k for p, k in f.items()) == n
        assert all(is_prime(p) for p in f)

    @given(primes_2_30_to_2_31, primes_2_30_to_2_31)
    @settings(max_examples=40, deadline=1000)
    def test_splits_balanced_62_bit_semiprimes(self, p, q):
        want = {p: 2} if p == q else {min(p, q): 1, max(p, q): 1}
        assert factorize(p * q) == want

    def test_difference_path_reaches_2_64(self):
        # 2^64 - 2 = 2 * (2^63 - 1), the largest difference of two inputs
        from kirch.filters import a_of_pair_formula

        assert a_of_pair_formula(-(2**63 - 1), 2**63 - 1) == (2, *prime_divisors(MAX_MAGNITUDE))

    def test_prime_squares_skip_rho(self, monkeypatch):
        from kirch import numtheory

        def rho(n):
            raise AssertionError(f"rho ran on {n}")

        monkeypatch.setattr(numtheory, "_rho", rho)
        for p in (3037000493, 2147483647):
            assert factorize(p * p) == {p: 2}

    def test_rho_gives_up_on_a_prime(self):
        # its caps end it; the least factor of a 64-bit composite is
        # found far below them
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="no factor of 2305843009213693951"):
            numtheory._rho(2**61 - 1)
        assert time.perf_counter() - start < 5.0

    def test_a_prime_called_composite_fails_rather_than_hangs(self, monkeypatch):
        real = numtheory._is_prime
        monkeypatch.setattr(numtheory, "_is_prime", lambda n: n < 1000 and real(n))
        with pytest.raises(RuntimeError, match="no factor of 2147483647"):
            factorize(2**31 - 1)

    def test_multiplicities_reconstruct(self):
        for x in (-360, 1024, 9999, 2 * 3**4 * 29):
            prod = 1
            for p, k in factorize(x).items():
                prod *= p**k
            assert prod == abs(x)

    @given(nonzero_ints)
    @settings(max_examples=300, deadline=None)
    def test_matches_naive(self, x):
        assert prime_divisors(x) == tuple(sorted(naive_prime_divisors(x)))

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
        assert primes_upto(0) == [] and primes_upto(-5) == []
        assert primes_upto(2) == [2]
        for n in range(3, 200):
            assert primes_upto(n) == [p for p in range(n + 1) if naive_is_prime(p)]
        table = primes_upto(300_000)
        assert table[-1] == 299993 and len(table) == 25997
        assert small_primes() == tuple(table)
        with pytest.raises(ValueError):
            primes_upto(300_001)

    def test_caches_are_bounded(self):
        # factorize is reached only through the cached prime_divisors;
        # descriptor is not cached at all
        from kirch.filters import descriptor

        for fn in (factorize, descriptor):
            assert not hasattr(fn, "cache_info")
        assert prime_divisors.cache_info().maxsize is not None


# OEIS A014233, psi_1 .. psi_9: the least odd composite that is a
# strong probable prime to each of the first k primes
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051)
FIRST_12_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def strong_probable_prime(n: int, a: int) -> bool:
    """The strong test of the odd n > a to base a: with n - 1 = 2^s d,
    d odd, a^d = 1 or a^(2^r d) = -1 (mod n) for some r < s. A failure
    proves n composite."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def twelve_base_is_prime(n: int) -> bool:
    """The test _is_prime ran before its bases depended on n: all 12
    bases past 1000, naive trial division below."""
    if n < 1000:
        return naive_is_prime(n)
    return n % 2 == 1 and all(strong_probable_prime(n, a) for a in FIRST_12_PRIMES)


class TestMillerRabinBases:
    def test_psi_table_is_a014233(self):
        assert numtheory._PSI == A014233
        assert numtheory._MR_BASES == FIRST_12_PRIMES

    @pytest.mark.parametrize("k", range(1, 10))
    def test_psi_k_fools_its_first_k_bases_and_is_refused(self, k):
        # so the first k bases do not decide psi_k itself: n < psi_k is strict
        n = A014233[k - 1]
        assert all(strong_probable_prime(n, a) for a in FIRST_12_PRIMES[:k])
        assert not all(strong_probable_prime(n, a) for a in FIRST_12_PRIMES)
        assert not numtheory._is_prime(n) and not is_prime(n)

    def test_equals_a_sieve_below_200000(self):
        limit = 200_000
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for i in range(2, math.isqrt(limit) + 1):
            if sieve[i]:
                sieve[i * i::i] = bytes(len(range(i * i, limit, i)))
        assert [n for n in range(limit) if numtheory._is_prime(n)] == \
            [n for n in range(limit) if sieve[n]]

    def test_equals_twelve_bases_in_every_band(self):
        # each band [psi_(k-1), psi_k) that k bases serve, then psi_9 to
        # 2^63 and on to 2^64, where the difference path reaches: random
        # odd numbers, primes, and the neighbours of each bound
        rng = random.Random(46)
        bounds = (1000, *sorted(set(A014233)), 2**63, 2**64)
        for lo, hi in zip(bounds, bounds[1:]):
            sample = [rng.randrange(lo, hi) | 1 for _ in range(300)]
            sample += [n for n in range(lo - 8, lo + 9) if n >= 1000]
            found = 0
            while found < 30:
                n = rng.randrange(lo, hi) | 1
                if twelve_base_is_prime(n):
                    sample.append(n)
                    found += 1
            for n in sample:
                assert numtheory._is_prime(n) == twelve_base_is_prime(n), n


class TestPrimeSet:
    """Prime sets are plain ascending tuples of distinct primes."""

    def test_of_sorts_and_dedups(self):
        assert prime_divisors(7 * 3 * 7 * 2) == (2, 3, 7)

    # at most 8 primes below 200, so the product stays under 2^63
    @given(
        st.lists(st.sampled_from(primes_upto(200)), max_size=4),
        st.lists(st.sampled_from(primes_upto(200)), max_size=4),
    )
    @settings(max_examples=100)
    def test_union_matches_from_iterable(self, xs, ys):
        # the primes of a product are the ascending union of both sides
        got = prime_divisors(math.prod(xs) * math.prod(ys))
        assert got == tuple(sorted(set(xs + ys)))


class TestCrt:
    def test_frozen_examples(self):
        assert crt_solve(((1, 2), (2, 3))) == 5
        assert crt_solve(((0, 1),)) == 1
        assert crt_solve(((1, 2), (2, 5))) == 7
        assert crt_solve(()) == 1

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            crt_solve(((1, 4), (0, 6)))
        with pytest.raises(ValueError):
            crt_solve(((1, 2), (0, 0)))

    @given(st.lists(st.integers(1, 60), max_size=6))
    @example([])
    @settings(max_examples=300, deadline=None)
    def test_accepts_exactly_the_pairwise_coprime_moduli(self, moduli):
        # crt_solve tests coprimality by lcm against product; the
        # pairwise definition decides, and names the first bad pair; the
        # empty system has modulus 1
        bad = [(b1, b2) for b1, b2 in itertools.combinations(moduli, 2) if math.gcd(b1, b2) != 1]
        if bad:
            with pytest.raises(ValueError, match=f"^moduli {bad[0][0]} and {bad[0][1]} are not"):
                crt_solve((0, b) for b in moduli)
        else:
            assert crt_solve((0, b) for b in moduli) == math.prod(moduli)

    @pytest.mark.parametrize("moduli,named", [((3, 0, -5), 0), ((3, -5, 0), -5), ((-1, -2), -1)])
    def test_names_the_first_modulus_below_1(self, moduli, named):
        # in input order, not the least one
        with pytest.raises(ValueError, match=f"^modulus {named} must be >= 1$"):
            crt_solve((0, b) for b in moduli)

    def test_list_input_equals_the_tuple_form(self):
        # any iterable of pairs is read once: a list of lists, a
        # generator, a tuple of tuples
        assert crt_solve([[1, 2], [2, 3]]) == crt_solve(iter(((1, 2), (2, 3)))) == 5

    @pytest.mark.parametrize("bad", [((1, 2), (3,)), ((1, 2, 3),), (5,)])
    def test_refuses_a_congruence_that_is_not_a_pair(self, bad):
        with pytest.raises((ValueError, TypeError)):
            crt_solve(bad)

    @st.composite
    @staticmethod
    def coprime_systems(draw):
        pool = [2, 3, 5, 7, 11, 13, 17, 19, 23]
        exps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        chosen = draw(st.permutations(pool))[: len(exps)]
        moduli = [p**e for p, e in zip(chosen, exps)]
        return tuple((draw(st.integers(0, b - 1)), b) for b in moduli)

    @given(coprime_systems())
    @settings(max_examples=200, deadline=None)
    def test_solution_is_least_positive(self, system):
        # in (0, prod b], and the least there, as solutions repeat mod prod b
        x = crt_solve(system)
        assert 0 < x <= math.prod(b for _, b in system)
        assert all(x % b == a % b for a, b in system)


class TestPrimeClasses:
    def test_frozen_examples(self):
        assert classify_prime(3).is_fermat and classify_prime(3).is_mersenne
        assert classify_prime(5).is_fermat and not classify_prime(5).is_mersenne
        assert classify_prime(7).is_mersenne and not classify_prime(7).is_fermat
        assert classify_prime(31).is_mersenne
        for p in (2, 11, 13, 29):
            assert classify_prime(p).m is None

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            classify_prime(9)

    def test_exponents(self):
        assert [classify_prime(p).m for p in (3, 5, 7, 17, 31)] == [1, 2, 3, 4, 5]

    def test_against_power_tables(self):
        two_powers = {2**n for n in range(1, 20)}
        for p in primes_upto(10_000):
            c = classify_prime(p)
            assert c.is_fermat == (p - 1 in two_powers)
            assert c.is_mersenne == (p + 1 in two_powers)
            if c.is_fermat:
                assert 2**c.m + 1 == p
            elif c.is_mersenne:
                assert 2**c.m - 1 == p
            else:
                assert c.m is None


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
