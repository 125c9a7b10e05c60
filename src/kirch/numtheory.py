"""Exact integer arithmetic services.

Factorization, coprimality, CRT, Fermat/Mersenne classification,
and the two power-gap checks (consecutive perfect powers, primitive
prime divisors).

All arithmetic is exact. Inputs are bounded to 63-bit magnitude and
anything beyond raises OverflowError rather than silently wrapping.
`factorize` trial-divides by the 168 primes below 1000, takes the
square root of a square cofactor, splits any other composite cofactor
with Pollard's rho in Brent's form (fixed seeds, so the same input
always takes the same steps), and proves every factor with a
deterministic Miller-Rabin test; `is_prime` answers below 1000 from
those 168 primes, and past them runs the first k prime bases, k the
least with n < psi_k (OEIS A014233), or all 12 from psi_9 ~ 3.8 * 10^18
on. The difference x - y of two in-range integers can reach 2^64 - 2,
so the private `_factorize` works on any n below 2^64, without the
63-bit guard; the 12 bases are proved far past that bound.
`primes_upto` sieves to its own limit, at most 300000, and no sieved
table outlives a call.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Iterable
from functools import lru_cache

MAX_MAGNITUDE = 2**63 - 1

# primes_upto sieves to its limit, which may not pass this bound, so
# no input sizes a sieve; small_primes returns every prime up to it.
_SIEVE_LIMIT = 300_000
# factorize trial-divides by the primes below this bound and leaves
# every larger factor to Pollard-Brent rho. Trial division by every
# prime up to _SIEVE_LIMIT first costs more than rho saves: 5.3 ms
# against 1.3 ms per balanced 44-bit semiprime on a 2-core 2.1 GHz
# Xeon VM.
_TRIAL_LIMIT = 1000
# rho steps per gcd in Brent's batched cycle search
_RHO_BATCH = 128


def _primes_upto(limit: int) -> list[int]:
    """Sieve of Eratosthenes: the primes p <= limit, ascending."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return list(itertools.compress(range(limit + 1), sieve))


_TRIAL_PRIMES = tuple(_primes_upto(_TRIAL_LIMIT - 1))
# _is_prime answers every n below _TRIAL_LIMIT from the table
_TRIAL_PRIME_SET = frozenset(_TRIAL_PRIMES)


def small_primes() -> tuple[int, ...]:
    """The 25997 primes up to 300000, sieved afresh on each call."""
    return tuple(_primes_upto(_SIEVE_LIMIT))


def primes_upto(limit: int) -> list[int]:
    """Primes p <= limit, ascending, sieved to the limit; limits past
    300000 raise rather than sieve to the size of the input.

    >>> primes_upto(20)
    [2, 3, 5, 7, 11, 13, 17, 19]
    >>> primes_upto(-5)
    []
    """
    if limit > _SIEVE_LIMIT:
        raise ValueError(f"limit {limit} exceeds the sieve bound {_SIEVE_LIMIT}")
    return _primes_upto(limit)


# The first 12 primes as witnesses make Miller-Rabin deterministic for
# n < psi_12 = 318,665,857,834,031,151,167,461 (about 3.2 * 10^23;
# Sorenson and Webster, Math. Comp. 2017), which covers the 63-bit range
# and the 2^64 difference path.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# psi_k, k = 1..9 (OEIS A014233): the least odd composite that is a
# strong probable prime to the first k primes, so they decide n < psi_k.
# _MR_PREFIXES[i] is run for psi_i <= n < psi_(i+1); all 12 from psi_9 on.
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051)
_MR_PREFIXES = (*(_MR_BASES[:k] for k in range(1, 10)), _MR_BASES)


def is_prime(n: int) -> bool:
    """Deterministic primality test for |n| within the 63-bit range.

    >>> is_prime(63)
    False
    >>> is_prime(2**31 - 1)
    True
    """
    if n > MAX_MAGNITUDE:
        raise OverflowError(f"{n} exceeds the supported 63-bit range")
    return _is_prime(n)


def _is_prime(n: int) -> bool:
    """Table lookup below _TRIAL_LIMIT, else Miller-Rabin over the
    bases _MR_PREFIXES gives for n, without the range guard."""
    if n < _TRIAL_LIMIT:
        return n in _TRIAL_PRIME_SET
    if n % 2 == 0:
        return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # n exceeds every base, so no base is a multiple of n
    for a in _MR_PREFIXES[bisect.bisect_right(_PSI, n)]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(x: int) -> dict[int, int]:
    """Prime factorization of |x| as {prime: multiplicity}, in ascending
    prime order; units give {}.

    Trial division by the primes below 1000, then Pollard-Brent rho on
    any composite cofactor that is not a square, with every factor
    proved prime by Miller-Rabin. Rho starts from fixed seeds, so the
    result and the work done are the same on every call.

    >>> factorize(-360)
    {2: 3, 3: 2, 5: 1}
    """
    if x == 0:
        raise ValueError("0 has no prime factorization")
    if abs(x) > MAX_MAGNITUDE:
        raise OverflowError(f"|{x}| exceeds the supported 63-bit range")
    return _factorize(abs(x))


def _factorize(n: int) -> dict[int, int]:
    """factorize for 1 <= n < 2^64, without the range guard."""
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out[p] = k
    # every prime below _TRIAL_LIMIT is divided out, so a cofactor
    # below _TRIAL_LIMIT^2 is 1 or prime
    if n >= _TRIAL_LIMIT * _TRIAL_LIMIT:
        _split(n, out)
        return dict(sorted(out.items()))
    if n > 1:
        out[n] = 1
    return out


def _split(n: int, out: dict[int, int]) -> None:
    """Add the prime factors of n, which has none below _TRIAL_LIMIT, to out."""
    if _is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    r = math.isqrt(n)
    if r * r == n:
        # rho finds the factor of a prime square no sooner than that
        # of a balanced semiprime
        _split(r, out)
        _split(r, out)
        return
    d = _rho(n)
    _split(d, out)
    _split(n // d, out)


def _rho(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard's rho on
    y -> y^2 + c from y = 2, with Brent's cycle search and one gcd per
    _RHO_BATCH steps. A run that closes the cycle mod n itself finds
    only n, and the next c is tried. Below 2^64 a composite has a prime
    p < 2^32, whose rho of length k <= 2^19 each c finds but for a
    chance of exp(-k^2 / 2p) <= e^-32, so r stops at 2^18 and c at 4;
    a prime n, a caller's fault, then ends in RuntimeError."""
    for c in range(1, 5):
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and r <= 2**18:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: replay it one gcd per step
            while True:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                if g > 1:
                    break
        if 1 < g < n:
            return g
    raise RuntimeError(f"rho found no factor of {n}, which may be prime")


@lru_cache(maxsize=2**16)
def prime_divisors(x: int) -> tuple[int, ...]:
    """The primes dividing |x|, ascending; empty for units.

    >>> prime_divisors(63)
    (3, 7)
    >>> prime_divisors(-1)
    ()
    """
    if x == 0:
        raise ValueError("every prime divides 0; prime_divisors needs x != 0")
    return tuple(factorize(x))


class _Frozen:
    """Base of kirch's records. __init__ stores one value per field, in
    __slots__ order (another count raises TypeError); a record that
    validates overrides it and calls it. Assignment then raises
    AttributeError, and the repr shows the fields in __slots__ order. A
    record compares by identity unless it is a _Value. copy and pickle
    rebuild a record by calling its type on its fields, since the
    default reduce would restore them through __setattr__."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} values")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)


class _Value(_Frozen):
    """A _Frozen record equal only to one of its exact type with equal
    fields, never to a tuple, and hashed by them; _fields reads every
    field in one C call."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._fields(other) == self._fields(self)

    def __hash__(self) -> int:
        return hash(self._fields(self))


def crt_solve(congruences: Iterable[tuple[int, int]]) -> int:
    """Smallest positive x with x = a (mod b) for each pair (a, b)
    given; the moduli must be pairwise coprime.

    >>> crt_solve(((1, 2), (2, 3)))
    5
    >>> crt_solve([[0, 1]])
    1
    """
    # one copy, which refuses a congruence that is not a pair
    congruences = [(a, b) for a, b in congruences]
    moduli = [b for _, b in congruences]
    for b in moduli:
        if b < 1:
            raise ValueError(f"modulus {b} must be >= 1")
    # positive moduli are pairwise coprime iff their lcm is their
    # product; the pairs are searched only to name the first bad one
    m = math.prod(moduli)
    if math.lcm(*moduli) != m:
        for b1, b2 in itertools.combinations(moduli, 2):
            if math.gcd(b1, b2) != 1:
                raise ValueError(f"moduli {b1} and {b2} are not coprime")
    x = 0
    for a, b in congruences:
        if b == 1:
            continue
        g = m // b
        x += a * g * pow(g, -1, b)
    x %= m
    return x if x > 0 else x + m


class PrimeClass(_Value):
    """Fermat/Mersenne membership flags, both true only for 3, and the
    exponent m with p = 2^m + 1 or p = 2^m - 1 (the Fermat form first,
    so m = 1 for 3); m is None for every other prime."""

    __slots__ = ("is_fermat", "is_mersenne", "m")

    def __str__(self) -> str:
        names = [n for n, f in (("fermat", self.is_fermat), ("mersenne", self.is_mersenne)) if f]
        return " ".join(names) if names else "neither"


def _is_power_of_two(v: int) -> bool:
    return v >= 2 and v & (v - 1) == 0


def classify_prime(p: int) -> PrimeClass:
    """Flags for p = 2^m + 1 (Fermat) and p = 2^m - 1 (Mersenne), m >= 1,
    with that m, from one primality test.

    >>> classify_prime(3)
    PrimeClass(is_fermat=True, is_mersenne=True, m=1)
    >>> classify_prime(31)
    PrimeClass(is_fermat=False, is_mersenne=True, m=5)
    >>> classify_prime(11)
    PrimeClass(is_fermat=False, is_mersenne=False, m=None)
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    fermat, mersenne = _is_power_of_two(p - 1), _is_power_of_two(p + 1)
    if fermat:
        m = (p - 1).bit_length() - 1
    elif mersenne:
        m = (p + 1).bit_length() - 1
    else:
        m = None
    return PrimeClass(fermat, mersenne, m)


def perfect_powers(limit: int) -> list[int]:
    """All m^e <= limit with m >= 1, e >= 2, ascending and distinct."""
    if limit < 1:
        return []
    found = {1}
    for m in range(2, math.isqrt(limit) + 1):
        v = m * m
        while v <= limit:
            found.add(v)
            v *= m
    return sorted(found)


def consecutive_power_pairs(limit: int) -> list[tuple[int, int]]:
    """Unordered pairs of perfect powers <= limit at distance 1.

    Every pair is reported as (u, u+1). Scanning any limit >= 9 finds
    exactly (8, 9) and nothing else.
    """
    if limit < 9:
        raise ValueError("limit must be >= 9, the smallest window with a pair")
    powers = perfect_powers(limit)
    return [
        (u, v) for u, v in zip(powers, powers[1:]) if v - u == 1
    ]


def zsigmondy_is_exception(a: int, n: int) -> bool:
    """Whether every prime divisor of a^n - 1 already divides some a^k - 1, k < n.

    Computed directly from factorizations; overflow of the exact range
    raises rather than wrapping.
    """
    if a < 2 or n < 2:
        raise ValueError("need a >= 2 and n >= 2")
    top = a**n
    if top > MAX_MAGNITUDE:
        raise OverflowError(f"{a}^{n} exceeds the supported 63-bit range")
    seen: set[int] = set()
    for k in range(1, n):
        if a**k - 1 > 1:
            seen.update(prime_divisors(a**k - 1))
    return seen.issuperset(prime_divisors(top - 1))


def zsigmondy_closed_form(a: int, n: int) -> bool:
    """Exception predicate in closed form: (n=2 and a=2^k-1) or (n,a)=(6,2)."""
    if a < 2 or n < 2:
        raise ValueError("need a >= 2 and n >= 2")
    return (n == 2 and _is_power_of_two(a + 1)) or (n == 6 and a == 2)
