"""Exact integer arithmetic services.

Factorization, coprimality, CRT, Fermat/Mersenne classification,
and the two power-gap checks (consecutive perfect powers, primitive
prime divisors).

All arithmetic is exact. Inputs are bounded to 63-bit magnitude and
anything beyond raises OverflowError rather than silently wrapping.
"""

from __future__ import annotations

import itertools
import math
import threading
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce

MAX_MAGNITUDE = 2**63 - 1

# Sieve covers trial divisors up to this bound; composites whose second
# largest prime factor exceeds it are finished by a 6k+-1 wheel.
_SIEVE_LIMIT = 300_000

_sieve_lock = threading.Lock()
_sieve_primes: tuple[int, ...] | None = None


def _primes_upto(limit: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(limit + 1) if sieve[i])


def small_primes() -> tuple[int, ...]:
    """The precomputed prime table (primes up to 300000), built once."""
    global _sieve_primes
    if _sieve_primes is None:
        with _sieve_lock:
            if _sieve_primes is None:
                _sieve_primes = _primes_upto(_SIEVE_LIMIT)
    return _sieve_primes


def primes_upto(limit: int) -> list[int]:
    """Primes p <= limit, ascending, read from the prime table; limits
    past the table raise rather than sieve to the size of the input."""
    if limit > _SIEVE_LIMIT:
        raise ValueError(f"limit {limit} exceeds the prime table bound {_SIEVE_LIMIT}")
    table = small_primes()
    return list(table[: bisect_right(table, limit)])


# Witnesses making Miller-Rabin deterministic for n < 3.3 * 10^24,
# which covers the whole 63-bit range.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for |n| within the 63-bit range.

    >>> is_prime(63)
    False
    >>> is_prime(2**31 - 1)
    True
    """
    if n > MAX_MAGNITUDE:
        raise OverflowError(f"{n} exceeds the supported 63-bit range")
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
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


@lru_cache(maxsize=None)
def factorize(x: int) -> dict[int, int]:
    """Prime factorization of |x| as {prime: multiplicity}; units give {}.

    Deterministic trial division over the precomputed table, finished by
    a 6k+-1 wheel when a composite cofactor survives the table.
    """
    if x == 0:
        raise ValueError("0 has no prime factorization")
    if abs(x) > MAX_MAGNITUDE:
        raise OverflowError(f"|{x}| exceeds the supported 63-bit range")
    n = abs(x)
    if n > 1 and is_prime(n):
        return {n: 1}
    out: dict[int, int] = {}
    for p in small_primes():
        if p * p > n:
            break
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out[p] = k
            if n > 1 and is_prime(n):
                out[n] = out.get(n, 0) + 1
                return dict(out)
    if n > 1 and not is_prime(n):
        # remaining factors all exceed the table; wheel from its edge
        f = _SIEVE_LIMIT + 1
        f += (5 - f % 6) % 6  # align to 6k-1
        step = 2
        while f * f <= n:
            if n % f == 0:
                k = 0
                while n % f == 0:
                    n //= f
                    k += 1
                out[f] = k
                if n > 1 and is_prime(n):
                    break
            f += step
            step = 6 - step
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return dict(out)


@dataclass(frozen=True)
class PrimeSet:
    """A strictly increasing tuple of primes, or every prime (primes=None).

    The all-primes variant exists only to describe the A-set of a
    one-element subset, which no finite list captures.
    """

    primes: tuple[int, ...] | None

    def __post_init__(self) -> None:
        if self.primes is None:
            return
        ps = tuple(self.primes)
        object.__setattr__(self, "primes", ps)
        if list(ps) != sorted(set(ps)):
            raise ValueError("primes must be strictly increasing and distinct")
        for p in ps:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")

    @classmethod
    def of(cls, *primes: int) -> "PrimeSet":
        return cls(tuple(sorted(set(primes))))

    @classmethod
    def from_iterable(cls, primes) -> "PrimeSet":
        return cls(tuple(sorted(set(primes))))

    @classmethod
    def all_primes(cls) -> "PrimeSet":
        return cls(None)

    @classmethod
    def _trusted(cls, primes: tuple[int, ...]) -> "PrimeSet":
        """Wrap a strictly increasing tuple of primes already proved prime
        (drawn from validated PrimeSets, or the keys of factorize) without
        proving each member prime again."""
        ps = object.__new__(cls)
        object.__setattr__(ps, "primes", primes)
        return ps

    @property
    def is_all(self) -> bool:
        return self.primes is None

    def __contains__(self, p: int) -> bool:
        if self.primes is None:
            return is_prime(p)
        return p in self.primes

    def __iter__(self):
        if self.primes is None:
            raise TypeError("cannot iterate over all primes")
        return iter(self.primes)

    def __len__(self) -> int:
        if self.primes is None:
            raise TypeError("all-primes variant has no finite size")
        return len(self.primes)

    def as_set(self) -> frozenset[int]:
        if self.primes is None:
            raise TypeError("all-primes variant has no finite extension")
        return frozenset(self.primes)

    def union(self, other: "PrimeSet") -> "PrimeSet":
        if self.primes is None or other.primes is None:
            return PrimeSet(None)
        return PrimeSet._trusted(tuple(sorted(set(self.primes + other.primes))))

    def issubset(self, other: "PrimeSet") -> bool:
        if other.primes is None:
            return True
        if self.primes is None:
            return False
        return set(self.primes) <= set(other.primes)

    def __str__(self) -> str:
        if self.primes is None:
            return "all"
        return "{" + ", ".join(str(p) for p in self.primes) + "}"


@lru_cache(maxsize=None)
def prime_divisors(x: int) -> PrimeSet:
    """The set of primes dividing |x|; empty for units.

    >>> prime_divisors(63)
    PrimeSet(primes=(3, 7))
    >>> prime_divisors(-1)
    PrimeSet(primes=())
    """
    if x == 0:
        raise ValueError("every prime divides 0; prime_divisors needs x != 0")
    # every key of factorize is already proved prime: a table prime, the
    # smallest wheel divisor left, or a cofactor that passed is_prime
    return PrimeSet._trusted(tuple(sorted(factorize(x))))


def is_squarefree(x: int) -> bool:
    """True iff no p^2 divides |x|; units are squarefree."""
    if x == 0:
        raise ValueError("0 is divisible by every square")
    return all(k == 1 for k in factorize(x).values())


@dataclass(frozen=True)
class CongruenceSystem:
    """Congruences x = a_i (mod b_i) with pairwise coprime moduli."""

    congruences: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "congruences", tuple((a, b) for a, b in self.congruences)
        )
        for _, b in self.congruences:
            if b < 1:
                raise ValueError(f"modulus {b} must be >= 1")
        for (_, b1), (_, b2) in itertools.combinations(self.congruences, 2):
            if math.gcd(b1, b2) != 1:
                raise ValueError(f"moduli {b1} and {b2} are not coprime")

    @classmethod
    def of(cls, *congruences: tuple[int, int]) -> "CongruenceSystem":
        return cls(tuple(congruences))

    @property
    def modulus(self) -> int:
        return reduce(lambda acc, c: acc * c[1], self.congruences, 1)


def crt_solve(sys: CongruenceSystem) -> int:
    """Smallest positive solution of the system.

    >>> crt_solve(CongruenceSystem.of((1, 2), (2, 3)))
    5
    >>> crt_solve(CongruenceSystem.of((0, 1)))
    1
    """
    m = sys.modulus
    x = 0
    for a, b in sys.congruences:
        if b == 1:
            continue
        g = m // b
        x += a * g * pow(g, -1, b)
    x %= m
    return x if x > 0 else x + m


@dataclass(frozen=True)
class PrimeClass:
    """Fermat/Mersenne membership flags; both hold only for 3."""

    is_fermat: bool
    is_mersenne: bool

    @property
    def is_fermat_mersenne(self) -> bool:
        return self.is_fermat or self.is_mersenne

    def __str__(self) -> str:
        names = [n for n, f in (("fermat", self.is_fermat), ("mersenne", self.is_mersenne)) if f]
        return " ".join(names) if names else "neither"


def _is_power_of_two(v: int) -> bool:
    return v >= 2 and v & (v - 1) == 0


def classify_prime(p: int) -> PrimeClass:
    """Flags for p = 2^n + 1 (Fermat) and p = 2^n - 1 (Mersenne), n >= 1.

    >>> classify_prime(3)
    PrimeClass(is_fermat=True, is_mersenne=True)
    >>> classify_prime(11)
    PrimeClass(is_fermat=False, is_mersenne=False)
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return PrimeClass(_is_power_of_two(p - 1), _is_power_of_two(p + 1))


def fm_exponent(p: int) -> int:
    """The n with p = 2^n + 1 or p = 2^n - 1, preferring the Fermat form.

    For 3 this gives 1 (3 = 2^1 + 1); non-Fermat-Mersenne primes raise.
    """
    cls = classify_prime(p)
    if cls.is_fermat:
        return (p - 1).bit_length() - 1
    if cls.is_mersenne:
        return (p + 1).bit_length() - 1
    raise ValueError(f"{p} is neither Fermat nor Mersenne")


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
    target = prime_divisors(top - 1).as_set()
    seen: set[int] = set()
    for k in range(1, n):
        if a**k - 1 > 1:
            seen |= prime_divisors(a**k - 1).as_set()
    return target <= seen


def zsigmondy_closed_form(a: int, n: int) -> bool:
    """Exception predicate in closed form: (n=2 and a=2^k-1) or (n,a)=(6,2)."""
    if a < 2 or n < 2:
        raise ValueError("need a >= 2 and n >= 2")
    return (n == 2 and _is_power_of_two(a + 1)) or (n == 6 and a == 2)
