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
triples alone. A_E and Pi_E are ascending tuples of primes and alpha_E
a dict in ascending p; a singleton fits {0,k}+pZ for every p, so its
A-set is None, rendered "all". This module computes each triple in
one pass over the residues that decide A_E (descriptor), decides the
order from the triples by the three-condition comparison and,
independently, from the sets' elements by the per-prime generator
argument (which also builds an escaping element), classifies filters
against the layers directly under the top one, and realizes a
prescribed (A, alpha) pair.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache

from .numtheory import (
    MAX_MAGNITUDE,
    CongruenceSystem,
    _difference_prime_divisors,
    crt_solve,
    is_prime,
    prime_divisors,
)


def _braced(xs) -> str:
    """Render a prime tuple, None (every prime) or an alpha map."""
    if xs is None:
        return "all"
    if isinstance(xs, dict):
        xs = [f"{p}:{r}" for p, r in xs.items()]
    return "{" + ", ".join(map(str, xs)) + "}"


@dataclass(frozen=True)
class FiniteSubset:
    """A nonempty set of nonzero integers within the 63-bit range,
    stored sorted.

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
        # sorted, so only the two ends can be out of range
        for x in (xs[0], xs[-1]):
            if abs(x) > MAX_MAGNITUDE:
                raise OverflowError(f"|{x}| exceeds the supported 63-bit range")
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

    def __str__(self) -> str:
        return "{" + ", ".join(str(x) for x in self.elements) + "}"


def a_of(E: FiniteSubset) -> tuple[int, ...] | None:
    """The primes p with E inside {0,k}+pZ for some single k, ascending:
    those at which E has at most one nonzero residue.

    A singleton fits such a set for every p, so it gets None. Otherwise
    any two distinct elements x, y bound the answer: a qualifying p
    must divide x, y, or x-y, so only the primes of
    a_of_pair_formula(x, y) need the residue test. Uncached: is_top
    needs it alone, and descriptor() caches the whole triple.
    """
    if len(E) == 1:
        return None
    candidates = a_of_pair_formula(*E.elements[:2])
    return tuple(p for p in candidates if len({x % p for x in E} - {0}) <= 1)


def a_of_pair_formula(x: int, y: int) -> tuple[int, ...]:
    """Closed form for a doubleton: the prime divisors of x, y, and x-y.

    x - y of two in-range elements can pass the 63-bit range; such a
    difference is factored on the 2^64 difference path.

    >>> a_of_pair_formula(3, 6)
    (2, 3)
    >>> a_of_pair_formula(1, -(2**63 - 1))
    (2, 7, 73, 127, 337, 92737, 649657)
    """
    if x == y:
        raise ValueError("need two distinct elements")
    # x and y first, so that an element past 63 bits meets that guard
    px, py = prime_divisors(x), prime_divisors(y)
    d = x - y
    pd = prime_divisors(d) if abs(d) <= MAX_MAGNITUDE else _difference_prime_divisors(d)
    return tuple(sorted({*px, *py, *pd}))


@dataclass(frozen=True, eq=False)
class FilterDescriptor:
    """The invariant triple plus its source set.

    Equality and hashing follow the filter, not the record: descriptors
    compare equal iff the A-sets agree, the odd parts of the Pi-sets
    agree, and the alpha maps agree off Pi and 2. Singleton sources
    determine their filter by the element alone. descriptor() caches
    and shares these records, so the alpha dict must not be mutated.
    """

    A: tuple[int, ...] | None
    Pi: tuple[int, ...]
    alpha: dict[int, int] | None
    source: FiniteSubset

    def __post_init__(self) -> None:
        # cached plain views; the hot comparison path lives on these
        object.__setattr__(self, "_a_set", frozenset(self.A or ()))
        object.__setattr__(self, "_pi_set", frozenset(self.Pi))

    def canonical_key(self):
        # alpha's keys are A, its zeros the odd primes of Pi and its
        # other values off 2 the free residues
        if self.A is None:
            return ("singleton", self.source.elements[0])
        return tuple(self.alpha.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FilterDescriptor):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def to_json_dict(self) -> dict:
        return {
            "A": "all" if self.A is None else list(self.A),
            "Pi": list(self.Pi),
            "alpha": {str(p): r for p, r in (self.alpha or {}).items()},
            "source": list(self.source.elements),
        }

    def __str__(self) -> str:
        alpha = _braced(self.alpha or {})
        return f"A={_braced(self.A)} Pi={_braced(self.Pi)} alpha={alpha}"


@lru_cache(maxsize=2**16)
def descriptor(E: FiniteSubset) -> FilterDescriptor:
    """Bundle (A_E, Pi_E, alpha_E) for E, the one place Pi_E and alpha_E
    are computed: one pass over A_E = a_of(E), which holds every common
    prime (each divides x and y). A prime where E has no nonzero
    residue joins Pi_E; alpha_E(p) is 1 at 2, 0 on Pi_E, else that
    residue. A singleton {x} gets A = None, no alpha, Pi the primes of x.

    >>> str(descriptor(FiniteSubset.of(5, 10)))
    'A={2, 5} Pi={5} alpha={2:1, 5:0}'
    >>> descriptor(FiniteSubset.of(6, -12, 30)).Pi
    (2, 3)
    """
    A = a_of(E)
    if A is None:
        return FilterDescriptor(None, prime_divisors(E.elements[0]), None, E)
    Pi, alpha = [], {}
    for p in A:
        r = next((m for x in E if (m := x % p)), 0)
        if not r:
            Pi.append(p)
        alpha[p] = 1 if p == 2 else r
    return FilterDescriptor(A, tuple(Pi), alpha, E)


def filter_leq(E: FiniteSubset, F: FiniteSubset) -> bool:
    """Decide whether the filter of E is contained in the filter of F.

    With a singleton on either side the answer is set membership: the
    inclusion holds iff E is a singleton contained in F. Otherwise it
    reduces to three comparisons of the descriptor triples.

    >>> filter_leq(FiniteSubset.of(1, 15), FiniteSubset.of(1, 5, 10))
    True
    """
    if min(len(E), len(F)) == 1:
        return len(E) == 1 and E.elements[0] in F
    return _descriptor_leq(descriptor(E), descriptor(F))


def _descriptor_leq(dE: FilterDescriptor, dF: FilterDescriptor) -> bool:
    """The three-condition comparison behind filter_leq, for sets of at
    least two elements."""
    ae, pie = dE._a_set, dE._pi_set
    if not dF._a_set <= ae:
        return False
    if not all(p == 2 or p in pie for p in dF._pi_set):
        return False
    alpha_e, alpha_f = dE.alpha, dF.alpha
    return all(alpha_e[p] == alpha_f[p] for p in dF._a_set if p not in pie)


# why an inclusion fails, as OrderWitness.reason reports it
_MISSING = "A(F) reaches outside A(E)"
_PI_BLOCK = "odd common divisor of F is unconstrained in E"
_ALPHA = "residue choices disagree"


@dataclass(frozen=True)
class OrderWitness:
    """Evidence that one generator inclusion fails: an element of the
    minimal F-side generator escaping the E-side generator G_E(target_L)
    through the named prime."""

    prime: int
    element: int
    target_L: tuple[int, ...]
    reason: str


def _bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _conditions(elements: tuple[int, ...], primes: Iterable[int]) -> dict[int, int]:
    """S_E(p) for each given p in A_E, E the set of elements, in the
    form _Generators keeps; a prime's scan stops at the second distinct
    nonzero residue."""
    conds = {}
    for p in primes:
        r = 0
        for x in elements:
            m = x % p
            if m and m != r:
                if r:
                    break
                r = m
        else:
            conds[p] = r or (1 if p == 2 else 0)
    return conds


class _Generators:
    """The generator conditions of a list of sets, read off the residues
    of their elements, as per-prime bitsets over the rows.

    For a set E of at least two elements and a prime p, let R be the
    nonzero residues of E mod p. Then p lies in A_E iff R has at most
    one element, and the generator G_E(()) allows the residues
    S_E(p) = {0, r} mod p when R = {r}, kept as r, and every residue
    when R is empty, kept as 0; mod 2 that is {0, 1}, kept as 1. Only
    the given primes are scanned, so a caller must pass every prime of
    A_F for each column F it asks for. Row masks are Python ints, bit
    i standing for the i-th set.
    """

    def __init__(self, sources: list[FiniteSubset], primes: Iterable[int]):
        self.primes = tuple(primes)
        self.full = (1 << len(sources)) - 1
        self.conds = [_conditions(E.elements, self.primes) for E in sources]
        # rows_with[p] maps r to the rows E with S_E(p) = {0, r}; r = 0
        # stands for every residue
        self.rows_with: dict[int, dict[int, int]] = {p: {} for p in self.primes}
        for i, conds in enumerate(self.conds):
            for p, r in conds.items():
                self.rows_with[p][r] = self.rows_with[p].get(r, 0) | 1 << i
        # the groups at p are disjoint, so their sum is their union
        self.in_a = {p: sum(groups.values()) for p, groups in self.rows_with.items()}

    def allowing(self, p: int, r: int) -> int:
        """The rows E with p in A_E and S_E(p) holding {0, r}, or every
        residue when r = 0."""
        groups = self.rows_with[p]
        return groups.get(0, 0) | groups.get(r, 0)

    def members(self, z: int, L: tuple[int, ...]) -> int:
        """The rows E whose generator G_E(L) contains z, among the rows
        with L outside A_E. Scanning fewer primes than A_E only adds
        members, so a z outside every returned row escapes for good."""
        if z == 0 or any(z % r for r in L):
            return 0
        rows = self.full
        for p in self.primes:
            if m := z % p:
                rows &= ~self.in_a[p] | self.allowing(p, m)
        return rows

    def column(self, j: int) -> tuple[int, list[tuple[int, OrderWitness]]]:
        """The rows E whose filter lies inside that of F, the set of row
        j, and a witness for each group of the other rows, after
        checking it against every row of its group.

        The filter of E lies inside that of F iff every p in A_F lies in
        A_E with S_F(p) inside S_E(p). If p lies outside A_E, G_E({p})
        forces 0 mod p, which no generator G_F(L') can do, since L'
        avoids A_F. If S_F(p) reaches outside S_E(p), G_E(()) forbids a
        residue mod p that every G_F(L') still takes. Otherwise each
        G_E(L) contains G_F(L'), where L' adds to L the primes of A_E
        outside A_F: 0 lies in every S_E(p).

        A failing row is grouped by its least failing prime p, by
        whether p lies in A_E, and by the least nonzero residue t of
        S_F(p) that its target forbids: G_E({p}) when p lies outside
        A_E (it allows only 0 mod p), else G_E(()). The escaping element
        z solves z = r (mod q) for each S_F(q) = {0, r}, plus z = t
        (mod p) when S_F(p) is every residue. It is built once per extra
        congruence, checked once against G_F(()), and checked against
        each group's targets with one mask test.
        """
        conds = self.conds[j]
        system = tuple((r, q) for q, r in conds.items() if r)
        solved: dict[tuple[int, int] | None, tuple[int, int]] = {}
        witnesses = []
        below = self.full
        for p, r in conds.items():
            failing = below & ~self.allowing(p, r)
            if not failing:
                continue
            below ^= failing
            in_a = self.in_a[p]
            # every residue: a row's S_E(p) = {0, 1} forbids 2, any other
            # forbids 1 (p is odd, since mod 2 no row fails)
            for t in ((r,) if r else (1, 2)):
                group = failing & ~self.allowing(p, t)
                if not group:
                    continue
                failing ^= group
                extra = None if r else (t, p)
                if extra not in solved:
                    z = crt_solve(CongruenceSystem(system + ((extra,) if extra else ())))
                    inside = self.members(z, ())
                    if not inside >> j & 1:
                        raise AssertionError("constructed element lies outside the F-side generator")
                    solved[extra] = z, inside
                z, inside = solved[extra]
                caught = self.members(z, (p,)) & ~in_a | inside & in_a
                if group & caught:
                    raise AssertionError("constructed element fails to escape the E-side generator")
                if group & ~in_a:
                    witnesses.append((group & ~in_a, OrderWitness(p, z, (p,), _MISSING)))
                if group & in_a:
                    why = _ALPHA if r else _PI_BLOCK
                    witnesses.append((group & in_a, OrderWitness(p, z, (), why)))
        return below, witnesses


def order_oracle(
    E: FiniteSubset, F: FiniteSubset
) -> tuple[bool, OrderWitness | None]:
    """Inclusion test from the sets' elements: the generator argument
    of _Generators.column on the two-row instance [E, F], with the
    escaping element it builds and checks on failure.

    Every prime of A_F divides f1, f2 or f1 - f2 for two elements of F,
    so the primes of a_of_pair_formula(f1, f2) are all that is scanned.
    A_E may reach past them, but an element escaping G_E on fewer
    primes escapes it on all of them. The witness names the least
    prime of A_F at which the inclusion fails.

    >>> order_oracle(FiniteSubset.of(5, 10), FiniteSubset.of(7, 14))
    (False, OrderWitness(prime=7, element=1, target_L=(7,), reason='A(F) reaches outside A(E)'))
    """
    if min(len(E), len(F)) < 2:
        raise ValueError("generator form needs at least two elements per set")
    below, witnesses = _Generators([E, F], a_of_pair_formula(*F.elements[:2])).column(1)
    if below & 1:
        return True, None
    return False, next(w for rows, w in witnesses if rows & 1)


def is_top(E: FiniteSubset) -> bool:
    """Whether the filter of E is the largest one, i.e. A_E = {2}."""
    return a_of(E) == (2,)


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
    d = descriptor(E)
    if d.A is None:
        return FilterClass.OTHER
    # A holds 2 and is ascending
    if d.A == (2,):
        return FilterClass.TOP
    if len(d.A) == 2:
        return FilterClass.F_DOUBLE_PRIME if d.A[1] in d._pi_set else FilterClass.F_PRIME
    if len(d.A) == 3 and d._pi_set <= {2}:
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
    if len(d.A) == 2:
        p = d.A[1]
        return [
            descriptor(FiniteSubset.of(a, p, 2 * p)) for a in range(1, p)
        ]
    return [descriptor(FiniteSubset.of(d.alpha[p], p, 2 * p)) for p in d.A[1:]]


def realize(A: Iterable[int], alpha: Mapping[int, int]) -> FiniteSubset:
    """Build a set whose invariants are exactly (A, alpha): take x as
    the product of the odd primes of A, y solving the residue system,
    and return {y, x, 2x}. A is any collection of primes and alpha any
    mapping from primes to residues; this is where outside input is
    validated.

    >>> realize((2, 5), {2: 1, 5: 2})
    FiniteSubset(elements=(5, 7, 10))
    """
    A = tuple(sorted(set(A)))
    alpha = dict(sorted(alpha.items()))
    for p in A:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
    for p, r in alpha.items():
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 0 <= r < p:
            raise ValueError(f"residue {r} out of range for prime {p}")
    if alpha.get(2) != 1:
        raise ValueError("alpha(2) must be present and equal 1")
    if 2 not in A:
        raise ValueError("A must contain 2")
    if tuple(alpha) != A:
        raise ValueError("alpha must be defined exactly on A")
    x = math.prod(A[1:])
    y = crt_solve(CongruenceSystem(tuple((alpha[p], p) for p in A)))
    E = FiniteSubset.of(y, x, 2 * x)
    d = descriptor(E)
    if d.A != A or d.alpha != alpha:
        raise AssertionError(
            f"realization of (A={_braced(A)}, alpha={_braced(alpha)}) drifted: {E}"
        )
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
