"""Progressions and their closures over the nonzero integers.

The ground set everywhere is the punctured line: an arithmetic
progression enters the data model as (a+bZ) minus {0}, its closure as a
finite conjunction of residue conditions, one per prime divisor of the
modulus. Closure sets stay intensional; materialization happens only
through an explicit finite window.
"""

from __future__ import annotations

import itertools
import math

from .numtheory import MAX_MAGNITUDE, _Value, prime_divisors

# largest window bound W; a sample of [-W, W] is built and printed whole
_MAX_WINDOW = 10**6


class Progression(_Value):
    """(a + bZ) minus {0}, with a reduced to the least-magnitude nonzero
    representative of its class (ties broken toward the positive one).
    Both a and b must lie within the 63-bit range.

    >>> Progression(8, 3)
    Progression(a=-1, b=3)
    >>> Progression(0, 5)
    Progression(a=5, b=5)
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        for v in (a, b):
            if abs(v) > MAX_MAGNITUDE:
                raise OverflowError(f"|{v}| exceeds the supported 63-bit range")
        if b < 1:
            raise ValueError(f"modulus {b} must be positive")
        r = a % b
        if r == 0:
            rep = b
        elif 2 * r <= b:
            rep = r
        else:
            rep = r - b
        super().__init__(rep, b)

    def __contains__(self, z: int) -> bool:
        return z != 0 and (z - self.a) % self.b == 0


class ClosureSet(_Value):
    """{z != 0 : z = 0 or allowed_residue (mod p) for every listed p}.

    This is the closure of a progression whose modulus has exactly the
    listed prime divisors; an empty prime list describes the whole
    punctured line.
    """

    __slots__ = ("modulus_primes", "allowed_residue")

    def __contains__(self, z: int) -> bool:
        if z == 0:
            return False
        a = self.allowed_residue
        for p in self.modulus_primes:
            if z % p and (z - a) % p:
                return False
        return True

    def residues_mod(self, p: int) -> frozenset[int]:
        """The allowed residue classes mod p, as canonical residues."""
        return frozenset({0, self.allowed_residue % p})

    def sample(self, W: int) -> list[int]:
        """The members of the closure in [-W, W] minus 0, ascending, for
        1 <= W <= _MAX_WINDOW.

        The window is filtered one modulus prime at a time, through a
        lazy chain of filters: no method call or generator per point,
        and no list per prime. Each filter binds its p and r as lambda
        defaults; a plain closure would read the loop's last prime.
        The largest prime, which passes the fewest points, filters
        first, and a prime whose residues 0 and r cover every class
        (p = 2 with r odd) passes every point and is skipped.
        """
        if not 1 <= W <= _MAX_WINDOW:
            raise ValueError(f"window bound {W} must lie in [1, {_MAX_WINDOW}]")
        a = self.allowed_residue
        zs = itertools.chain(range(-W, 0), range(1, W + 1))
        for p in reversed(self.modulus_primes):
            r = a % p
            if p == 2 and r:
                continue
            zs = filter(lambda z, p=p, r=r: z % p == 0 or z % p == r, zs)
        return list(zs)

    def __str__(self) -> str:
        if not self.modulus_primes:
            return "Z\\{0}"
        conds = ", ".join(
            "z = {} (mod {})".format(" or ".join(str(r) for r in sorted(self.residues_mod(p))), p)
            for p in self.modulus_primes
        )
        return f"{{z != 0 : {conds}}}"


def closure(p: Progression) -> ClosureSet:
    """Closure of a progression, for any representative and any modulus;
    no coprimality or squarefreeness is assumed.

    >>> 7 in closure(Progression(1, 15)), 6 in closure(Progression(1, 15))
    (False, True)
    """
    return ClosureSet(prime_divisors(p.b), p.a)


def closure_oracle_member(z: int, p: Progression) -> bool:
    """Definitional closure test: z lies outside the closure iff some
    basic neighborhood of z misses the progression.

    A candidate neighborhood is z + dZ for squarefree d coprime to z; it
    misses a + bZ exactly when gcd(d, b) does not divide z - a. Every
    product of prime divisors of b prime to z is tried, and nothing
    else needs to be: if a separating d exists, gcd(d, rad(b)) is also
    separating (same gcd with b, still coprime to z).
    """
    if z == 0:
        raise ValueError("0 is not a point of the space")
    usable = [q for q in prime_divisors(p.b) if z % q != 0]
    for r in range(1, len(usable) + 1):
        for combo in itertools.combinations(usable, r):
            d = math.prod(combo)
            if (z - p.a) % math.gcd(d, p.b) != 0:
                return False
    return True

