"""Faults the checks must catch: each row names a target, a one-line
mutant of it applied with monkeypatch, and a check that passes on the
real code and fails under the mutant."""

import math
from functools import partial
from itertools import combinations, product

import pytest

from kirch import filters, graphs, numtheory, verify
from kirch.filters import FilterClass, FilterDescriptor, FiniteSubset, filter_leq, realize
from kirch.numtheory import prime_divisors
from kirch.topology import ClosureSet
from kirch.verify import SuiteConfig, run_suite

# Top < FPrime < FDoublePrime < Other, from the top of the order down
_DEPTH = {c: k for k, c in enumerate(FilterClass)}


def _realized_sets():
    """One realized set per filter with A inside {2, 3, 5}."""
    sets = [
        realize((2, *odd), {2: 1, **dict(zip(odd, residues))})
        for odd in ((), (3,), (5,), (3, 5))
        for residues in product(*(range(p) for p in odd))
    ]
    assert len(sets) == 24
    return sets


def _layer_violations():
    """classify against the filter order on every realized set with
    A inside {2, 3, 5}: a layered E strictly below F lies deeper."""
    sets = _realized_sets()
    depth = {E: _DEPTH[filters.classify(E)] for E in sets}
    return [
        (E, F) for E in sets for F in sets
        if depth[E] < _DEPTH[FilterClass.OTHER]
        and filter_leq(E, F) and not filter_leq(F, E) and depth[E] <= depth[F]
    ]


def _doubling_changes_the_class():
    """The realized sets whose class changes when every element is
    doubled. Doubling keeps A_E and the odd part of Pi_E, which is all
    a class depends on, and makes every element even: {7, 15, 30}
    doubles to {14, 30, 60}, with Pi = {2}, and both are FDoublePrime."""
    return [
        E for E in _realized_sets()
        if filters.classify(E) != filters.classify(FiniteSubset(tuple(2 * x for x in E.elements)))
    ]


def _failures(suite, **cfg):
    """The failures of one suite, at a config small enough to run here."""
    return run_suite(suite, SuiteConfig(**cfg)).failures


def _column_without_the_pi_exemption(real):
    # `groups.get(r, 0)` in place of `groups.get(0, 0) | groups.get(r, 0)`
    def column(self, dF):
        rows = self.full
        rows_with = self.rows_with
        for p, r in dF.alpha.items():
            groups = rows_with.get(p)
            if groups is None:
                return 0
            rows &= groups.get(r, 0)
            if not rows:
                return 0
        return rows
    return column


def _crt_solve_off_by_one(real):
    return lambda system: real(system) + 1


def _column_ignoring_primes_past_40(real):
    # the items of alpha_F past 40 skipped; ppix's primes reach 47
    def column(self, dF):
        alpha = {p: r for p, r in dF.alpha.items() if p <= 40}
        return real(self, FilterDescriptor(dF.Pi, alpha, dF.source))
    return column


def _upset_without_its_first(real):
    return lambda E: real(E)[1:]


def _zsigmondy_missing_2_6(real):
    return lambda a, n: False if (a, n) == (2, 6) else real(a, n)


def _perfect_powers_without_8(real):
    return lambda limit: [v for v in real(limit) if v != 8]


def _families_without_the_last(real):
    return lambda p: real(p)[:-1]


# a prime of each class whose table _families gives
_CLASS_PRIMES = {"p3": 3, "fermat": 5, "mersenne": 7, "neither": 11}


def _prime_class(p):
    if p == 3:
        return "p3"
    cls = numtheory.classify_prime(p)
    return "fermat" if cls.is_fermat else "mersenne" if cls.is_mersenne else "neither"


def _families_without(cls, k):
    # family k of one class's table dropped, for the primes of that class only
    def mutant(real):
        def families(p):
            table = real(p)
            return table[:k] + table[k + 1:] if _prime_class(p) == cls else table
        return families
    return mutant


def _json_with_reversed_edges(real):
    # each edge [x, y] listed as [y, x], in edges and in every provenance list
    def graph_json_dict(g):
        data = real(g)
        prov = {tag: [[y, x] for x, y in pairs] for tag, pairs in data["provenance"].items()}
        return {**data, "edges": [[y, x] for x, y in data["edges"]], "provenance": prov}
    return graph_json_dict


def _pair_formula_without_the_difference(real):
    return lambda x, y: tuple(sorted({*prime_divisors(x), *prime_divisors(y)}))


def _is_top_accepting_2_and_3(real):
    return lambda E: real(E) or filters.a_of(E) == (2, 3)


def _classify_ignoring_pi(real):
    # `len(A) == 3` in place of `len(A) == 3 and set(d.Pi) <= {2}`
    def classify(E):
        A = filters.descriptor(E).A
        return FilterClass.F_DOUBLE_PRIME if A is not None and len(A) == 3 else real(E)
    return classify


def _classify_with_pi_test(pi_test):
    # `set(d.Pi) <= {2}` in the three-prime branch of _layer, which
    # classify runs, replaced by pi_test(set(d.Pi))
    def mutant(real):
        def classify(E):
            d = filters.descriptor(E)
            if d.A is not None and len(d.A) == 3:
                return FilterClass.F_DOUBLE_PRIME if pi_test(set(d.Pi)) else FilterClass.OTHER
            return real(E)
        return classify
    return mutant


def _closure_dropping_its_largest_prime_past_30(real):
    def closure(prog):
        cs = real(prog)
        if prog.b > 30:
            return ClosureSet(cs.modulus_primes[:-1], prog.a)
        return cs
    return closure


def _golomb_oracle_member(real):
    # the prime-power parts q**k of b tried where the primes q are: the
    # Golomb topology's neighborhoods, not only squarefree ones
    def closure_oracle_member(z, p):
        usable = [q**k for q, k in numtheory.factorize(p.b).items() if z % q != 0]
        return not any(
            (z - p.a) % math.gcd(math.prod(combo), p.b)
            for r in range(1, len(usable) + 1)
            for combo in combinations(usable, r)
        )
    return closure_oracle_member


# (module, name, mutant, check); a check that runs a suite is
# partial(_failures, suite, ...), so the table shows which suites it covers
MUTANTS = [
    pytest.param(filters, "classify", _classify_ignoring_pi, _layer_violations,
                 id="classify-pi"),
    pytest.param(filters, "classify", _classify_with_pi_test(lambda pi: pi < {2}),
                 _doubling_changes_the_class, id="classify-pi-strict-subset"),
    pytest.param(filters, "classify", _classify_with_pi_test(lambda pi: pi <= {1}),
                 _doubling_changes_the_class, id="classify-pi-within-1"),
    pytest.param(verify, "upset_in_fprime", _upset_without_its_first,
                 partial(_failures, "classify"), id="upset-no-first"),
    # 31 is the least bound with a modulus b > 30
    pytest.param(verify, "closure", _closure_dropping_its_largest_prime_past_30,
                 partial(_failures, "closure", max_element=31), id="closure-b-past-30"),
    # the squarefree condition that tells the Kirch space from Golomb's
    pytest.param(verify, "closure_oracle_member", _golomb_oracle_member,
                 partial(_failures, "closure", max_element=4), id="closure-oracle-golomb"),
    pytest.param(verify, "a_of_pair_formula", _pair_formula_without_the_difference,
                 partial(_failures, "pair_formula", max_element=10),
                 id="pair-formula-no-difference"),
    pytest.param(verify, "is_top", _is_top_accepting_2_and_3,
                 partial(_failures, "top", max_element=8), id="top-2-3"),
    pytest.param(filters._DescriptorIndex, "column", _column_without_the_pi_exemption,
                 partial(_failures, "order", max_element=8), id="column-no-pi-exemption"),
    pytest.param(filters._DescriptorIndex, "column", _column_ignoring_primes_past_40,
                 partial(_failures, "ppix"), id="column-past-40"),
    pytest.param(filters, "crt_solve", _crt_solve_off_by_one,
                 partial(_failures, "realize"), id="crt-plus-one"),
    # one row per shift family: the (6, 3) grids must need every one
    *(pytest.param(graphs, "_families", _families_without(cls, k),
                   partial(_failures, "gamma", graph_bounds=(6, 3)), id=f"families-{cls}-{k}")
      for cls, p in _CLASS_PRIMES.items() for k in range(len(graphs._families(p)))),
    pytest.param(graphs, "_families", _families_without_the_last,
                 partial(_failures, "gamma2"), id="families-no-last-gamma2"),
    pytest.param(graphs, "graph_json_dict", _json_with_reversed_edges,
                 partial(_failures, "gamma2"), id="json-reversed-edges-gamma2"),
    pytest.param(verify, "zsigmondy_closed_form", _zsigmondy_missing_2_6,
                 partial(_failures, "zsigmondy"), id="zsigmondy-2-6"),
    pytest.param(numtheory, "perfect_powers", _perfect_powers_without_8,
                 partial(_failures, "mihailescu"), id="perfect-powers-no-8"),
]

# The mutants of the one-site mutation sweep (a comparison swapped, an
# integer constant moved by 1, and/or, +/-, <</>> or |/& swapped, a
# `not` or a unary minus dropped, a table row dropped) that pass every
# suite and every test, and need no row above: each is equivalent to
# the real code, or changes only a guard that no input in range
# reaches. 67 in all.
#
#   target                       n  why no check can tell
#   filters.a_of                 1  the pair branch `len(xs) == 2` as
#                                   `== 1`: a pair then takes the keys of
#                                   _residues, the same primes
#   filters._residues            3  the pair shortcut, which only
#                                   descriptor reaches, and which two
#                                   elements bound the scan: any two
#                                   distinct elements bound the primes
#   filters.a_of_pair_formula    1  `<` at exactly 2^63 - 1: both branches
#                                   factor the same difference
#   filters.descriptor           1  a singleton reads elements[-1], which
#                                   is its only element
#   filters._conditions          4  the pass over primes dividing none of
#                                   x, y, x - y: skipped (`continue` as
#                                   `pass`), or read off another element
#                                   (3): a distinct one bounds the primes
#                                   too, the same one twice gives 0,
#                                   which every prime divides
#   filters._Generators.column   2  `continue` as `pass` on an empty mask
#                                   of failing rows or an empty group: it
#                                   adds no witness, the second after
#                                   solving a system for nothing
#   filters.order_oracle         1  `rows & 1` as `rows | 1`: every
#                                   witness of a two-row instance's
#                                   column 1 is for row 0
#   graphs._shape                6  the exponent short-circuits before the
#                                   exact 63-bit test, which decides alone
#   graphs._scored_offsets       6  the power table's bound 2 * MAX_MAGNITUDE
#                                   as 1 *, 3 * or `<` (3): no odd part
#                                   of a representative that is a power
#                                   of p exceeds the largest vertex, and
#                                   2^64 - 2 is no power of p;
#                                   `di < 0` as `di <= 0` or `di < 1` (2):
#                                   at di = 0 both branches give (1, p^dj);
#                                   `d & -d` as `d | -d` (1): that is
#                                   -(d & -d), of the same bit length
#   graphs._edges                1  a range's stop `+ gap` as `- gap`: a gap
#                                   is below 1,280 vertices, far below
#                                   _DIAGONAL / 2, so no code crosses it
#   graphs.printed_p3_report     1  `x < y` as `x <= y`: an edge joins two
#                                   distinct values
#   numtheory.crt_solve          2  the skip of modulus 1, whose term is 0,
#                                   dropped or tested as `b == 0`
#   numtheory.classify_prime     2  m read off p + 2 or p in place of
#                                   p + 1 or p - 1: the same bit length
#   numtheory.prime_divisors     4  the cache size, which no answer reads
#   numtheory._is_prime          7  `n < _TRIAL_LIMIT` as `<=` (1): 1000 is
#                                   even, refused either way; the even
#                                   test `n % 2 == 0` as `== -1` or
#                                   `n % 3 == 0` (2): an even n then
#                                   fails base 2, as 2^(n-1) mod n is
#                                   even, and n >= 1000 is not 3; more
#                                   squarings, from `s = 1`, `s += 2`,
#                                   `range(s + 1)` or `range(s - 0)` (4):
#                                   a^(2^r d) = -1 (mod n) for an r >= s
#                                   would put every prime p of n at
#                                   p = 1 (mod 2^(s+1)), and so n too
#   graphs.printed_p3_edges      8  a range past the grid (1), and a sign
#                                   moved off +-1 or its test `s > 0`
#                                   loosened (7): only the side of 0 that
#                                   a sign is on is read
#   verify._order_catalog        2  `primes_upto(2 * bound)` as `3 *`, as
#                                   in _order_matrix; a triple's mask
#                                   `2 << j` as `1 << j`: z = y extends a
#                                   pair to its own key, already kept
#   verify._cells                5  the shortcuts for a prime that no
#                                   value or every value keeps, skipped
#                                   or their tests widened (4): the split
#                                   gives the same cells; `cell & -cell`
#                                   as `cell | -cell` (1), of the same
#                                   bit length
#   verify._order_matrix         9  `primes_upto(2 * bound)` as `3 *` (1): a
#                                   prime past 2 * bound divides none of
#                                   x, y, x - y, so it is in no A_E; the
#                                   law audit's fast path turned off (8):
#                                   `transitive` set False, the union
#                                   seeded nonzero (2), its test widened
#                                   or its `~` dropped (2), the `break`
#                                   dropped, the skip of an unshared
#                                   column dropped or tested as `== 0`
#                                   (2); the pair-by-pair scan then finds
#                                   the same failures
#   verify._suite_top            1  `vals[i + 1:]` as `vals[i:]`: the loop
#                                   also meets {x, x}, a singleton, which
#                                   is not top and is no listed edge; the
#                                   case count is read off the bound
#
# The sweep itself is not kept here: through `kirch verify all` and then
# the tests it takes about an hour on two cores.


@pytest.mark.parametrize("module,name,mutant,check", MUTANTS)
def test_mutant_is_caught(monkeypatch, module, name, mutant, check):
    assert not check()
    monkeypatch.setattr(module, name, mutant(getattr(module, name)))
    assert check()


def test_every_suite_has_a_mutant():
    # a new suite cannot arrive without a mutant its run catches
    checked = {p.values[3].args[0] for p in MUTANTS if isinstance(p.values[3], partial)}
    assert checked == set(verify._SUITES)
