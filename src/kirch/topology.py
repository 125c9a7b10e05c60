"""Progressions, basic open sets, and closures over the nonzero integers.

The ground set everywhere is the punctured line: an arithmetic
progression enters the data model as (a+bZ) minus {0}, its closure as a
finite conjunction of residue conditions, one per prime divisor of the
modulus. Closure sets stay intensional; materialization happens only
through an explicit finite window.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .numtheory import PrimeSet, is_squarefree, prime_divisors


@dataclass(frozen=True)
class Progression:
    """(a + bZ) minus {0}, with a reduced to the least-magnitude nonzero
    representative of its class (ties broken toward the positive one).

    >>> Progression(8, 3)
    Progression(a=-1, b=3)
    >>> Progression(0, 5)
    Progression(a=5, b=5)
    """

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.b < 1:
            raise ValueError(f"modulus {self.b} must be positive")
        r = self.a % self.b
        if r == 0:
            rep = self.b
        elif 2 * r <= self.b:
            rep = r
        else:
            rep = r - self.b
        object.__setattr__(self, "a", rep)

    def __contains__(self, z: int) -> bool:
        return z != 0 and (z - self.a) % self.b == 0

    def sample(self, w: "Window") -> list[int]:
        return [z for z in w.members() if z in self]

    def __str__(self) -> str:
        return f"{self.a}+{self.b}Z"


@dataclass(frozen=True)
class Window:
    """The finite test universe [-W, W] minus {0}."""

    W: int

    def __post_init__(self) -> None:
        if self.W < 1:
            raise ValueError("window bound must be >= 1")

    def members(self):
        return itertools.chain(range(-self.W, 0), range(1, self.W + 1))

    def __contains__(self, z: int) -> bool:
        return z != 0 and -self.W <= z <= self.W


@dataclass(frozen=True)
class ClosureSet:
    """{z != 0 : z = 0 or allowed_residue (mod p) for every listed p}.

    This is the closure of a progression whose modulus has exactly the
    listed prime divisors; an empty prime list describes the whole
    punctured line.
    """

    modulus_primes: PrimeSet
    allowed_residue: int

    def __post_init__(self) -> None:
        if self.modulus_primes.is_all:
            raise ValueError("closure conditions must involve finitely many primes")

    def __contains__(self, z: int) -> bool:
        if z == 0:
            return False
        a = self.allowed_residue
        return all(z % p == 0 or (z - a) % p == 0 for p in self.modulus_primes)

    def residues_mod(self, p: int) -> frozenset[int]:
        """The allowed residue classes mod p, as canonical residues."""
        return frozenset({0, self.allowed_residue % p})

    def sample(self, w: Window) -> list[int]:
        return [z for z in w.members() if z in self]

    def __str__(self) -> str:
        if self.modulus_primes.primes == ():
            return "Z\\{0}"
        conds = ", ".join(
            "z = {} (mod {})".format(" or ".join(str(r) for r in sorted(self.residues_mod(p))), p)
            for p in self.modulus_primes
        )
        return f"{{z != 0 : {conds}}}"


def is_kirch_open_basic(a: int, b: int) -> bool:
    """Whether (a + bZ) minus {0} is a basic open set: squarefree modulus,
    coprime to the representative.

    >>> is_kirch_open_basic(1, 6), is_kirch_open_basic(3, 6), is_kirch_open_basic(5, 4)
    (True, False, False)
    """
    if a == 0:
        raise ValueError("representative must be nonzero")
    if b < 1:
        raise ValueError("modulus must be positive")
    return is_squarefree(b) and math.gcd(a, b) == 1


def closure(p: Progression) -> ClosureSet:
    """Closure of a progression, for any representative and any modulus;
    no coprimality or squarefreeness is assumed.

    >>> 7 in closure(Progression(1, 15)), 6 in closure(Progression(1, 15))
    (False, True)
    """
    return ClosureSet(prime_divisors(p.b), p.a)


def closure_oracle_member(z: int, p: Progression, d_bound: int) -> bool:
    """Definitional closure test: z lies outside the closure iff some
    basic neighborhood of z misses the progression.

    A candidate neighborhood is z + dZ for squarefree d <= d_bound
    coprime to z; it misses a + bZ exactly when gcd(d, b) does not
    divide z - a. Only divisors of the product of the prime divisors of
    b prime to z are tried: if a separating d exists, gcd(d, rad(b)) is
    also separating (same gcd with b, still coprime to z), so nothing
    is lost by the restriction. d_bound is validated against that
    product so the claimed search space is genuinely covered.
    """
    if z == 0:
        raise ValueError("0 is not a point of the space")
    pb = prime_divisors(p.b)
    threshold = math.prod(pb)
    if d_bound < threshold:
        raise ValueError(
            f"d_bound {d_bound} below the sufficiency threshold {threshold}"
        )
    usable = [q for q in pb if z % q != 0]
    for r in range(1, len(usable) + 1):
        for combo in itertools.combinations(usable, r):
            d = math.prod(combo)
            if (z - p.a) % math.gcd(d, p.b) != 0:
                return False
    return True


def superconnect_witness(q: int, w: Window) -> set[int]:
    """Intersection of cl(1+qZ) and cl(2+qZ) inside the window, for odd
    squarefree q >= 3; checked against its exact value, the nonzero
    multiples of q.

    >>> sorted(superconnect_witness(3, Window(9)))
    [-9, -6, -3, 3, 6, 9]
    """
    if q < 3 or q % 2 == 0:
        raise ValueError(f"{q} must be odd and >= 3")
    if not is_squarefree(q):
        raise ValueError(f"{q} must be squarefree")
    if w.W < q:
        raise ValueError(f"window {w.W} too small to contain a multiple of {q}")
    c1 = closure(Progression(1, q))
    c2 = closure(Progression(2, q))
    got = {z for z in w.members() if z in c1 and z in c2}
    expected = {z for z in w.members() if z % q == 0}
    if got != expected:
        raise AssertionError(
            f"cl(1+{q}Z) & cl(2+{q}Z) differs from {q}Z on window {w.W}"
        )
    return got
