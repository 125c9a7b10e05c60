"""The poset of superconnecting filters attached to finite sets.

Every nonempty finite set E of nonzero integers determines a filter
generated by sets of the form

    G_E(L)  =  (intersection of pZ* over p in L)
               cut with  ({0, alpha_E(p)} + pZ)  for p in A_E minus Pi_E

where Pi_E collects the common prime divisors of E, A_E collects the
primes p for which E fits inside {0,k}+pZ for a single k, alpha_E(p)
is that k (normalized: alpha_E(2)=1, alpha_E(p)=0 on Pi_E minus {2}),
and L runs over finite prime sets disjoint from A_E. The triple
(A_E, Pi_E, alpha_E) is a complete invariant of the filter once E has
at least two elements, and inclusion of filters is decidable from the
triples alone. This module computes the triples, decides the order two
independent ways, classifies filters against the layers directly under
the top one, and realizes a prescribed (A, alpha) pair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

from .numtheory import (
    CongruenceSystem,
    PrimeSet,
    crt_solve,
    is_prime,
    prime_divisors,
)


@dataclass(frozen=True)
class FiniteSubset:
    """A nonempty set of nonzero integers, stored sorted.

    >>> FiniteSubset.of(10, 5, 10)
    FiniteSubset(elements=(5, 10))
    """

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        xs = tuple(sorted(set(self.elements)))
        if not xs:
            raise ValueError("the empty set carries no filter")
        if 0 in xs:
            raise ValueError("0 is not a point of the space")
        object.__setattr__(self, "elements", xs)

    @classmethod
    def of(cls, *elements: int) -> "FiniteSubset":
        return cls(tuple(elements))

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def issubset(self, other: "FiniteSubset") -> bool:
        return set(self.elements) <= set(other.elements)

    def __str__(self) -> str:
        return "{" + ", ".join(str(x) for x in self.elements) + "}"


@dataclass(frozen=True)
class AlphaMap:
    """Residue choices alpha(p) in {0..p-1}, one per prime of the domain.

    The domain always contains 2 and alpha(2) is pinned to 1; the other
    structural constraint (alpha = 0 exactly on the common divisors
    other than 2) is the business of alpha_of, not of the bare type.
    """

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        es = tuple(sorted(dict(self.entries).items()))
        object.__setattr__(self, "entries", es)
        for p, r in es:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if not 0 <= r < p:
                raise ValueError(f"residue {r} out of range for prime {p}")
        d = dict(es)
        if d.get(2) != 1:
            raise ValueError("alpha(2) must be present and equal 1")
        object.__setattr__(self, "_map", d)

    @classmethod
    def of(cls, mapping: dict[int, int]) -> "AlphaMap":
        return cls(tuple(mapping.items()))

    def __getitem__(self, p: int) -> int:
        return self._map[p]

    def domain(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.entries)

    def as_dict(self) -> dict[int, int]:
        return dict(self.entries)

    def restricted(self, primes) -> tuple[tuple[int, int], ...]:
        keep = set(primes)
        return tuple((p, r) for p, r in self.entries if p in keep)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{p}:{r}" for p, r in self.entries) + "}"


def residue_classes(E: FiniteSubset, p: int) -> frozenset[int]:
    """The nonzero residues of E mod p."""
    return frozenset(x % p for x in E) - {0}


def pi_of(E: FiniteSubset) -> PrimeSet:
    """Common prime divisors of the elements.

    >>> pi_of(FiniteSubset.of(6, -12, 30))
    PrimeSet(primes=(2, 3))
    """
    g = math.gcd(*E.elements)
    return prime_divisors(g) if g > 1 else PrimeSet.of()


def a_of(E: FiniteSubset) -> PrimeSet:
    """The primes p with E inside {0,k}+pZ for some single k.

    A singleton fits such a set for every p, so it gets the all-primes
    marker. Otherwise any two distinct elements x, y bound the answer:
    a qualifying p must divide x, y, or x-y, so only the primes of
    a_of_pair_formula(x, y) need the residue test.
    """
    if len(E) == 1:
        return PrimeSet.all_primes()
    x, y = E.elements[0], E.elements[1]
    candidates = a_of_pair_formula(x, y)
    return PrimeSet.from_iterable(
        p for p in candidates if len(residue_classes(E, p)) <= 1
    )


def a_of_pair_formula(x: int, y: int) -> PrimeSet:
    """Closed form for a doubleton: the prime divisors of x, y, and x-y.

    >>> a_of_pair_formula(3, 6)
    PrimeSet(primes=(2, 3))
    """
    if x == y:
        raise ValueError("need two distinct elements")
    return prime_divisors(x).union(prime_divisors(y)).union(prime_divisors(x - y))


def alpha_of(E: FiniteSubset) -> AlphaMap:
    """The residue data of E: 1 at 2, 0 at the other common divisors,
    and the unique shared nonzero residue class elsewhere on A_E."""
    if len(E) == 1:
        raise ValueError("a singleton has no finite residue data")
    A = a_of(E)
    Pi = pi_of(E).as_set()
    entries = {}
    for p in A:
        if p == 2:
            entries[p] = 1
        elif p in Pi:
            entries[p] = 0
        else:
            (r,) = residue_classes(E, p)
            entries[p] = r
    return AlphaMap.of(entries)


@dataclass(frozen=True, eq=False)
class FilterDescriptor:
    """The invariant triple plus its source set.

    Equality and hashing follow the filter, not the record: descriptors
    compare equal iff the A-sets agree, the odd parts of the Pi-sets
    agree, and the alpha maps agree off Pi and 2. Singleton sources
    determine their filter by the element alone.
    """

    A: PrimeSet
    Pi: PrimeSet
    alpha: AlphaMap | None
    source: FiniteSubset

    def __post_init__(self) -> None:
        # cached plain-set views; the hot comparison paths live on these
        a = frozenset() if self.A.is_all else frozenset(self.A.primes)
        pi = frozenset(self.Pi.primes)
        object.__setattr__(self, "_a_set", a)
        object.__setattr__(self, "_pi_set", pi)
        object.__setattr__(self, "_free_set", a - pi)

    def canonical_key(self):
        if self.A.is_all:
            return ("singleton", self.source.elements[0])
        assert self.alpha is not None
        pi_odd = tuple(sorted(self.Pi.as_set() - {2}))
        free = self.A.as_set() - self.Pi.as_set() - {2}
        return (self.A.primes, pi_odd, self.alpha.restricted(free))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FilterDescriptor):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def to_json_dict(self) -> dict:
        return {
            "A": "all" if self.A.is_all else list(self.A.primes),
            "Pi": list(self.Pi.primes),
            "alpha": {} if self.alpha is None else {
                str(p): r for p, r in self.alpha.entries
            },
            "source": list(self.source.elements),
        }

    def __str__(self) -> str:
        alpha = "{}" if self.alpha is None else str(self.alpha)
        return f"A={self.A} Pi={self.Pi} alpha={alpha}"


@lru_cache(maxsize=None)
def descriptor(E: FiniteSubset) -> FilterDescriptor:
    """Bundle (A_E, Pi_E, alpha_E) for E; singletons get the all-primes
    marker and no alpha map.

    >>> str(descriptor(FiniteSubset.of(5, 10)))
    'A={2, 5} Pi={5} alpha={2:1, 5:0}'
    """
    A = a_of(E)
    Pi = pi_of(E)
    alpha = alpha_of(E) if len(E) >= 2 else None
    return FilterDescriptor(A, Pi, alpha, E)


def filter_leq(E: FiniteSubset, F: FiniteSubset) -> bool:
    """Decide whether the filter of E is contained in the filter of F.

    With a singleton on either side the answer is set membership: the
    inclusion holds iff E is a singleton contained in F. Otherwise it
    reduces to three comparisons of the descriptor triples.

    >>> filter_leq(FiniteSubset.of(1, 15), FiniteSubset.of(1, 5, 10))
    True
    """
    if min(len(E), len(F)) == 1:
        return len(E) == 1 and E.issubset(F)
    dE, dF = descriptor(E), descriptor(F)
    if not dF._a_set <= dE._a_set:
        return False
    if not (dF._pi_set - {2}) <= dE._pi_set:
        return False
    ae, af = dE.alpha, dF.alpha
    return all(ae[p] == af[p] for p in dF._a_set if p not in dE._pi_set)


class _Reason(enum.Enum):
    MISSING = "A(F) reaches outside A(E)"
    PI_BLOCK = "odd common divisor of F is unconstrained in E"
    ALPHA = "residue choices disagree"


@dataclass(frozen=True)
class OrderWitness:
    """Evidence that one generator inclusion fails: an element of the
    minimal F-side generator escaping the E-side generator G_E(target_L)
    through the named prime."""

    prime: int
    element: int
    target_L: tuple[int, ...]
    reason: str


def _generator_member(z: int, d: FilterDescriptor, L: tuple[int, ...]) -> bool:
    if z == 0:
        return False
    if any(z % r for r in L):
        return False
    alpha = d.alpha
    return all(z % p == 0 or z % p == alpha[p] for p in d._free_set)


def order_oracle(
    E: FiniteSubset, F: FiniteSubset
) -> tuple[bool, OrderWitness | None]:
    """Inclusion test via generators, independent of filter_leq.

    The filter of E sits inside the filter of F iff every generator
    G_E(L) contains some generator G_F(L'). Enlarging L' only shrinks
    G_F(L'), so the smallest-first search over L' (subsets of candidate
    primes outside A_F) succeeds iff taking every viable single-prime
    fix at once succeeds, and per prime the implication is pure residue
    logic: a fix is viable exactly when the prime avoids A_F, a residue
    clash or an odd common divisor of F at a prime constrained by E can
    never be fixed. Dually, G_E(L) over arbitrary L is covered by the
    single-prime targets G_E({r}), which are obstructed exactly when r
    lands in A_F. On failure an explicit escaping element of the
    minimal F-side generator is built by CRT and checked against both
    generators.

    >>> order_oracle(FiniteSubset.of(5, 10), FiniteSubset.of(7, 14))[0]
    False
    """
    if min(len(E), len(F)) < 2:
        raise ValueError("generator form needs at least two elements per set")
    dE, dF = descriptor(E), descriptor(F)
    ae, af = dE._a_set, dF._a_set
    pie, pif = dE._pi_set, dF._pi_set

    failure: tuple[int, _Reason] | None = None
    for p in sorted(ae - pie):
        if p not in af:
            continue  # viable fix: L' may force 0 mod p
        if p in pif:
            if p != 2:
                failure = (p, _Reason.PI_BLOCK)
                break
        elif dF.alpha[p] != dE.alpha[p]:
            failure = (p, _Reason.ALPHA)
            break
    if failure is None:
        # a target G_E({r}) with r outside A_E is obstructed exactly
        # when r lies in A_F
        missing = sorted(af - ae)
        if missing:
            failure = (missing[0], _Reason.MISSING)
    if failure is None:
        return True, None

    bad, why = failure
    system = [(dF.alpha[p], p) for p in sorted(af - pif)]
    if why is _Reason.PI_BLOCK:
        # bad is an odd common divisor of F: send z somewhere E forbids,
        # i.e. the least nonzero residue differing from alpha_E(bad)
        c = 1 if dE.alpha[bad] != 1 else 2
        system.append((c, bad))
    elif why is _Reason.MISSING and bad in pif:
        system.append((1, bad))
    # otherwise z = alpha_F(bad) mod bad already escapes the target
    z = crt_solve(CongruenceSystem(tuple(system)))
    target_L = (bad,) if why is _Reason.MISSING else ()
    if not _generator_member(z, dF, ()) or _generator_member(z, dE, target_L):
        raise AssertionError("constructed element fails to witness the escape")
    return False, OrderWitness(bad, z, target_L, why.value)


def is_top(E: FiniteSubset) -> bool:
    """Whether the filter of E is the largest one, i.e. A_E = {2}.

    For doubletons the arithmetic answer is cross-checked against the
    explicit catalog: {2^n, 2^(n+1)}, its negation, and {-2^n, 2^n}.
    """
    A = a_of(E)
    verdict = not A.is_all and A.as_set() == {2}
    if len(E) == 2:
        x, y = E.elements
        m = min(abs(x), abs(y))
        power = m & (m - 1) == 0  # m >= 1 is a power of two
        listed = power and (
            (0 < x and y == 2 * x) or (y < 0 and x == 2 * y) or x == -y
        )
        if listed != verdict:
            raise AssertionError(f"doubleton catalog disagrees on {E}")
    return verdict


class FilterClass(enum.Enum):
    TOP = "Top"
    F_PRIME = "FPrime"
    F_DOUBLE_PRIME = "FDoublePrime"
    OTHER = "Other"

    def __str__(self) -> str:
        return self.value


def classify(E: FiniteSubset) -> FilterClass:
    """Place E's filter: the top filter, the layer directly below it
    (FPrime), the layer below that (FDoublePrime), or anything else.

    >>> str(classify(FiniteSubset.of(1, 5, 10)))
    'FPrime'
    """
    A = a_of(E)
    if A.is_all:
        return FilterClass.OTHER
    aset = A.as_set()
    pi = pi_of(E).as_set()
    if aset == {2}:
        return FilterClass.TOP
    if len(aset) == 2:
        (p,) = aset - {2}
        return FilterClass.F_DOUBLE_PRIME if p in pi else FilterClass.F_PRIME
    if len(aset) == 3 and pi <= {2}:
        return FilterClass.F_DOUBLE_PRIME
    return FilterClass.OTHER


def upset_in_fprime(E: FiniteSubset) -> list[FilterDescriptor]:
    """The filters of the FPrime layer strictly above a FDoublePrime one.

    A filter with A_E = {2,p}, p common, sits below the p-1 filters of
    {a, p, 2p}; one with A_E = {2,p,q} sits below exactly the two
    filters picked out by its residues at p and q.
    """
    if classify(E) is not FilterClass.F_DOUBLE_PRIME:
        raise ValueError(f"{E} is not in the FDoublePrime layer")
    d = descriptor(E)
    aset = d.A.as_set()
    if len(aset) == 2:
        (p,) = aset - {2}
        return [
            descriptor(FiniteSubset.of(a, p, 2 * p)) for a in range(1, p)
        ]
    out = []
    for p in sorted(aset - {2}):
        a = d.alpha[p]
        out.append(descriptor(FiniteSubset.of(a, p, 2 * p)))
    return out


def realize(A: PrimeSet, alpha: AlphaMap) -> FiniteSubset:
    """Build a set whose invariants are exactly (A, alpha): take x as
    the product of the odd primes of A, y solving the residue system,
    and return {y, x, 2x}.

    >>> realize(PrimeSet.of(2, 5), AlphaMap.of({2: 1, 5: 2}))
    FiniteSubset(elements=(5, 7, 10))
    """
    if A.is_all:
        raise ValueError("only finite A-sets are realizable")
    if 2 not in A:
        raise ValueError("A must contain 2")
    if alpha.domain() != A.as_set():
        raise ValueError("alpha must be defined exactly on A")
    odd = [p for p in A if p != 2]
    x = math.prod(odd)
    y = crt_solve(CongruenceSystem(tuple((alpha[p], p) for p in A)))
    E = FiniteSubset.of(y, x, 2 * x)
    got_a, got_alpha = a_of(E), alpha_of(E)
    if got_a.as_set() != A.as_set() or got_alpha != alpha:
        raise AssertionError(f"realization of (A={A}, alpha={alpha}) drifted: {E}")
    return E


def divides_via_filters(x: int, p: int) -> bool:
    """Test p | x purely through two filter inclusions, for odd prime p
    and x outside {-2,-1,1,2}.

    >>> divides_via_filters(15, 5), divides_via_filters(15, 7)
    (True, False)
    """
    if x in (-2, -1, 0, 1, 2):
        raise ValueError(f"{x} is outside the criterion's domain")
    if p == 2 or not is_prime(p):
        raise ValueError(f"{p} must be an odd prime")
    return filter_leq(
        FiniteSubset.of(1, x), FiniteSubset.of(1, p, 2 * p)
    ) and filter_leq(FiniteSubset.of(2, x), FiniteSubset.of(2, p, 2 * p))
