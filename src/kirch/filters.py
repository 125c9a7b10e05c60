"""The poset of superconnecting filters attached to finite sets.

Every nonempty finite set E of nonzero integers determines a filter
generated by sets of the form

    G_E(L)  =  (intersection of pZ* over p in L)
               cut with  ({0, alpha_E(p)} + pZ)  for p in A_E minus Pi_E

where Pi_E collects the common prime divisors of E, A_E collects the
primes p for which E fits inside {0,k}+pZ for a single k, alpha_E(p)
is that k (normalized: alpha_E(2)=1, alpha_E(p)=0 on Pi_E minus {2}),
and L runs over finite prime sets disjoint from A_E. descriptor()
normalizes alpha_E so that it carries the rest: its keys are A_E, its
zeros the odd primes of Pi_E, and alpha_E(2) = 1. That one map is a
complete invariant of the filter once E has at least two elements, and
inclusion of filters is decidable from the maps alone. A_E and Pi_E
are ascending tuples of primes and alpha_E a dict in ascending p; a
singleton fits {0,k}+pZ for every p, so its A-set is None, rendered
"all". This module computes the invariants in one pass over the
residues that decide A_E (_residues, whose map descriptor reads Pi_E
and alpha_E from, and whose keys a_of reads for three or more
elements; a pair's A-set is the primes of a_of_pair_formula, with no
map built), decides the order twice, each time a column at a time
from per-prime bitsets over a list of sets: from the alpha maps by
one condition per prime (_DescriptorIndex) and, independently, from
the sets' elements by the per-prime generator argument (_Generators,
which also builds an escaping element, and scans the residues with
its own _conditions so that the oracle shares no code with the closed
form), classifies filters against the layers directly under the top
one, and realizes a prescribed (A, alpha) pair. Nothing is cached: filter_leq builds a
one-row _DescriptorIndex per call, and a caller that compares many
sets builds one index over all of them.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping

from .numtheory import (
    MAX_MAGNITUDE,
    _Frozen,
    _Value,
    _factorize,
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


class FiniteSubset(_Value):
    """A nonempty set of nonzero integers within the 63-bit range,
    stored sorted.

    >>> FiniteSubset.of(10, 5, 10)
    FiniteSubset(elements=(5, 10))
    """

    __slots__ = ("elements",)

    def __init__(self, elements: tuple[int, ...]):
        xs = tuple(sorted(set(elements)))
        if not xs:
            raise ValueError("the empty set carries no filter")
        if 0 in xs:
            raise ValueError("0 is not a point of the space")
        # sorted, so only the two ends can be out of range
        if xs[0] < -MAX_MAGNITUDE or xs[-1] > MAX_MAGNITUDE:
            x = xs[0] if abs(xs[0]) > MAX_MAGNITUDE else xs[-1]
            raise OverflowError(f"|{x}| exceeds the supported 63-bit range")
        # set here, not by the slower _Frozen.__init__: `top` builds 8,128
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

    A singleton fits such a set for every p, so it gets None. A pair
    {x, y} fits at exactly the primes of x, y and x - y, so it reads
    them off a_of_pair_formula(x, y) without a residue map; a larger
    set gets the keys of _residues(E), which descriptor() also keeps as
    the keys of alpha. is_top needs them alone.
    """
    xs = E.elements
    if len(xs) == 1:
        return None
    if len(xs) == 2:
        return a_of_pair_formula(*xs)
    return tuple(_residues(xs))


def _residues(xs: tuple[int, ...]) -> dict[int, int]:
    """For each prime p at which the at least two elements xs have at
    most one nonzero residue, ascending, that residue, or 0 when p
    divides every element; a prime's scan stops at the second distinct
    nonzero residue.

    Any two distinct elements x, y bound the primes: a qualifying p
    must divide x, y, or x-y, so only the primes of
    a_of_pair_formula(x, y) are scanned. For a pair every one of them
    qualifies, with the residue of whichever of x, y is not 0 mod p (x
    and y agree mod a prime of x - y), so a pair is read off the
    primes without a scan.
    """
    if len(xs) == 2:
        x, y = xs
        return {p: x % p or y % p for p in a_of_pair_formula(x, y)}
    found = {}
    for p in a_of_pair_formula(xs[0], xs[1]):
        r = 0
        for x in xs:
            m = x % p
            if m and m != r:
                if r:
                    break
                r = m
        else:
            found[p] = r
    return found


def a_of_pair_formula(x: int, y: int) -> tuple[int, ...]:
    """Closed form for a doubleton: the prime divisors of x, y, and x-y.

    The primes of x, y and x - y all come from the cached
    prime_divisors, so a difference that recurs, as it does across the
    pairs of a suite, is factored once. x and y meet its 63-bit guard
    first; a difference past that guard is below 2^64, the bound
    _factorize works to, and is factored there.

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
    pd = prime_divisors(d) if abs(d) <= MAX_MAGNITUDE else _factorize(abs(d))
    return tuple(sorted({*px, *py, *pd}))


class FilterDescriptor(_Frozen):
    """A filter's invariants, held in alpha, plus its source set.

    alpha's keys are A_E, its zeros the odd primes of Pi_E and
    alpha(2) = 1, so A is read off it. Pi also records whether 2 is
    common, and for a singleton, whose A is None and alpha None, the
    primes of its element. Records compare by identity.
    """

    __slots__ = ("Pi", "alpha", "source")

    def __init__(self, Pi: tuple[int, ...], alpha: dict[int, int] | None, source: FiniteSubset):
        # set here, not by the slower _Frozen.__init__: order and ppix build 2,250
        object.__setattr__(self, "Pi", Pi)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "source", source)

    @property
    def A(self) -> tuple[int, ...] | None:
        return None if self.alpha is None else tuple(self.alpha)

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


def descriptor(E: FiniteSubset) -> FilterDescriptor:
    """The invariants of E, the one place Pi_E and alpha_E are computed,
    in one pass: the residue map _residues(E), whose keys A_E hold every
    common prime (each divides x and y). A prime where E has no nonzero
    residue joins Pi_E; alpha_E(p) is 1 at 2, 0 on Pi_E, else that
    residue. A singleton {x} gets A = None, no alpha, Pi the primes of
    x.

    >>> str(descriptor(FiniteSubset.of(5, 10)))
    'A={2, 5} Pi={5} alpha={2:1, 5:0}'
    >>> descriptor(FiniteSubset.of(6, -12, 30)).Pi
    (2, 3)
    """
    if len(E.elements) == 1:
        return FilterDescriptor(prime_divisors(E.elements[0]), None, E)
    alpha = _residues(E.elements)
    Pi = tuple([p for p, r in alpha.items() if not r])
    # 2 divides x, y or x - y, so it is a key, the first, of every map
    alpha[2] = 1
    return FilterDescriptor(Pi, alpha, E)


def filter_leq(E: FiniteSubset, F: FiniteSubset) -> bool:
    """Decide whether the filter of E is contained in the filter of F.

    With a singleton on either side the answer is set membership: the
    inclusion holds iff E is a singleton contained in F. Otherwise it
    compares the alpha maps, run as _DescriptorIndex.column on the
    one-row instance [E].

    >>> filter_leq(FiniteSubset.of(1, 15), FiniteSubset.of(1, 5, 10))
    True
    """
    if len(E.elements) == 1 or len(F.elements) == 1:
        return len(E.elements) == 1 and E.elements[0] in F.elements
    return _DescriptorIndex([descriptor(E)]).column(descriptor(F)) == 1


class _DescriptorIndex:
    """The alpha maps of a list of sets of at least two elements, as
    per-prime bitsets over the rows: rows_with[p] maps r to the rows E
    with alpha_E(p) = r, so a row without p in A_E is in none of them.
    Row masks are Python ints, bit i standing for the i-th set.

    This rests on the form descriptor() gives alpha_E: its keys are
    A_E, it is 0 exactly on the odd primes of Pi_E, and alpha_E(2) = 1.
    """

    __slots__ = ("full", "rows_with")

    def __init__(self, descs: list[FilterDescriptor]):
        self.full = (1 << len(descs)) - 1
        self.rows_with: dict[int, dict[int, int]] = {}
        for i, d in enumerate(descs):
            for p, r in d.alpha.items():
                groups = self.rows_with.setdefault(p, {})
                groups[r] = groups.get(r, 0) | 1 << i

    def column(self, dF: FilterDescriptor) -> int:
        """The rows E whose filter lies inside that of F: the AND, over
        the items (p, r) of alpha_F, of alpha_E(p) in {0, r}. That says
        p lies in A_E; an odd prime of Pi_F (r = 0) lies in Pi_E; and
        otherwise alpha_E(p) = r unless p lies in Pi_E, where G_E(())
        allows every residue mod p."""
        rows = self.full
        rows_with = self.rows_with
        for p, r in dF.alpha.items():
            groups = rows_with.get(p)
            if groups is None:
                return 0
            rows &= groups.get(0, 0) | groups.get(r, 0)
        return rows


# why an inclusion fails, as OrderWitness.reason reports it
_MISSING = "A(F) reaches outside A(E)"
_PI_BLOCK = "odd common divisor of F is unconstrained in E"
_ALPHA = "residue choices disagree"


class OrderWitness(_Value):
    """Evidence that one generator inclusion fails: an element of the
    minimal F-side generator G_F(()) escaping an E-side generator through
    the named prime p. The reason names that generator: G_E({p}) when
    p reaches outside A_E (_MISSING), else G_E(())."""

    __slots__ = ("prime", "element", "reason")


def _bits(mask: int):
    """The indices of the set bits of mask, ascending. A negative mask
    has infinitely many set bits, so it is refused with ValueError."""
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _conditions(elements: tuple[int, ...], primes: Iterable[int]) -> dict[int, int]:
    """S_E(p) for each given p in A_E, E the set of at least two
    elements, in the form _Generators keeps; a prime's scan stops at the
    second distinct nonzero residue. A prime dividing none of x, y and
    x - y, for the first two elements x and y, leaves them two distinct
    nonzero residues, so it is passed over without a scan."""
    a, b = elements[0], elements[1]
    spread = a * b * (a - b)
    conds = {}
    for p in primes:
        if spread % p:
            continue
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
        primes = tuple(primes)
        self.full = full = (1 << len(sources)) - 1
        self.conds = [_conditions(E.elements, primes) for E in sources]
        # rows_with[p] maps r to the rows E with S_E(p) = {0, r}; r = 0
        # stands for every residue
        rows_with = {p: {} for p in primes}
        for i, conds in enumerate(self.conds):
            bit = 1 << i
            for p, r in conds.items():
                groups = rows_with[p]
                groups[r] = groups.get(r, 0) | bit
        # at[p]: unfit, mapping each r some row has to the rows whose
        # S_E(p) does not hold S_F(p) = {0, r} (every residue for r = 0);
        # the rows with p in A_E; and those with S_E(p) = {0, 1}
        self.at = {}
        # per prime, the rows whose G_E(()) takes every nonzero residue
        # (p outside A_E, or R empty), and those that take m, by m, with
        # every row at m = 0
        scan = []
        for p, groups in rows_with.items():
            # the groups at p are disjoint, so their sum is their union
            in_a = sum(groups.values())
            every = groups.get(0, 0)
            free = full & ~in_a | every
            unfit, takes = {}, {}
            for r, g in groups.items():
                unfit[r] = full & ~(every | g)
                takes[r] = free | g
            takes[0] = full
            self.at[p] = unfit, in_a, groups.get(1, 0)
            scan.append((p, free, takes))
        self.scan = tuple(scan)

    def members(self, z: int) -> int:
        """The rows E whose generator G_E(()) contains z: at each scanned
        p with z = m != 0 (mod p), the rows outside A_E and those whose
        S_E(p) holds {0, m} or every residue. Scanning fewer primes than
        A_E only adds members, so a z outside every returned row escapes
        for good."""
        if not z:
            return 0
        rows = self.full
        for p, free, takes in self.scan:
            rows &= takes.get(z % p, free)
        return rows

    def column(self, j: int) -> tuple[int, list[tuple[int, int, int, str]]]:
        """The rows E whose filter lies inside that of F, the set of row
        j, and a witness for each group of the other rows, after
        checking it against every row of its group: the group's rows
        and the fields of its OrderWitness.

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
        congruence, checked against G_F(()), and checked against each
        group's targets with one mask test; its membership in every
        G_E(()) comes from one members scan.
        """
        conds = self.conds[j]
        at = self.at
        system = tuple([(s, q) for q, s in conds.items() if s])
        solved: dict[tuple[int, int] | None, tuple[int, int]] = {}
        witnesses = []
        below = self.full
        for p, r in conds.items():
            unfit, in_a, ones = at[p]
            failing = below & unfit[r]
            below ^= failing
            if r:
                parts = ((None, failing),)
            else:
                # every residue: a row's S_E(p) = {0, 1} forbids 2, any
                # other forbids 1 (p is odd, since mod 2 no row fails)
                parts = (((1, p), failing & ~ones), ((2, p), failing & ones))
            for extra, group in parts:
                if not group:
                    continue
                hit = solved.get(extra)
                if hit is None:
                    z = crt_solve(system + ((extra,) if extra else ()))
                    inside = self.members(z)
                    if not inside >> j & 1:
                        raise AssertionError("constructed element lies outside the F-side generator")
                    hit = solved[extra] = z, inside
                z, inside = hit
                # the rows whose target holds z: G_E(()) for p in A_E,
                # else G_E({p}), which is G_E(()) cut with pZ
                caught = group & inside
                if z % p:
                    caught &= in_a
                if caught:
                    raise AssertionError("constructed element fails to escape the E-side generator")
                in_group = group & in_a
                if group ^ in_group:
                    witnesses.append((group ^ in_group, p, z, _MISSING))
                if in_group:
                    witnesses.append((in_group, p, z, _ALPHA if r else _PI_BLOCK))
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
    (False, OrderWitness(prime=7, element=1, reason='A(F) reaches outside A(E)'))
    """
    if min(len(E), len(F)) < 2:
        raise ValueError("generator form needs at least two elements per set")
    below, witnesses = _Generators([E, F], a_of_pair_formula(*F.elements[:2])).column(1)
    if below & 1:
        return True, None
    return False, next(OrderWitness(*w) for rows, *w in witnesses if rows & 1)


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
    """Place E's filter by _layer: the top filter, the layer directly below
    it (FPrime), the layer below that (FDoublePrime), or anything else.

    >>> str(classify(FiniteSubset.of(1, 5, 10)))
    'FPrime'
    """
    return _layer(descriptor(E))


def _layer(d: FilterDescriptor) -> FilterClass:
    """The class of the filter whose descriptor is d, as classify gives it."""
    A = d.A
    if A is None:
        return FilterClass.OTHER
    # A holds 2 and is ascending
    if A == (2,):
        return FilterClass.TOP
    if len(A) == 2:
        return FilterClass.F_DOUBLE_PRIME if A[1] in d.Pi else FilterClass.F_PRIME
    if len(A) == 3 and set(d.Pi) <= {2}:
        return FilterClass.F_DOUBLE_PRIME
    return FilterClass.OTHER


def upset_in_fprime(E: FiniteSubset) -> list[FilterDescriptor]:
    """The filters of the FPrime layer strictly above a FDoublePrime one.

    A filter with A_E = {2,p}, p common, sits below the p-1 filters of
    {a, p, 2p}, refused with ValueError past p = 10^4; one with A_E =
    {2,p,q} sits below exactly the two filters picked out by its
    residues at p and q. E's descriptor is built once, for _layer too.
    """
    d = descriptor(E)
    if _layer(d) is not FilterClass.F_DOUBLE_PRIME:
        raise ValueError(f"{E} is not in the FDoublePrime layer")
    if len(d.A) == 2:
        p = d.A[1]
        if p > 10**4:
            raise ValueError(f"{E} lies below {p - 1} FPrime filters; at most 10^4 are listed")
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
    y = crt_solve((alpha[p], p) for p in A)
    E = FiniteSubset.of(y, x, 2 * x)
    d = descriptor(E)
    if d.alpha != alpha:
        raise AssertionError(
            f"realization of (A={_braced(A)}, alpha={_braced(alpha)}) drifted: {E}"
        )
    return E

