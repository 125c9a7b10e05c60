"""Named verification suites.

Each suite pits a closed-form statement against its definitional
oracle over an exhaustive catalog, collecting mismatches as explicit
failures, and refuses with ValueError a config that plans more than
_MAX_CASES cases, or none. A suite refuses from its bounds alone,
before it builds anything, with two exceptions: `order` refuses its
k^2 catalog pairs as k grows, and `gamma` refuses only after it has
built a graph with no interior vertex, on which the degree lemmas
would check nothing. The `order` suite names a filter by its generator
conditions, read from the residues of a set's elements: they pick its
1450 catalog sets and decide its 1450^2 catalog pairs and its sampled
pairs, never the alpha maps its closed form compares. _order_matrix
decides the order on any list of sets a column at a time on both
sides, from per-prime bitsets over its rows, with no loop over pairs,
and reads antisymmetry modulo equal conditions, so a list may name one
filter twice. Reports are deterministic: catalogs
enumerate in canonical order, any sampling is driven by the configured
seed, and the JSON rendering carries no wall-clock data.

run_suite("all", cfg) merges the eleven reports, which _all_reports
may compute in two processes; the merged report is that of running
them one after another. Only the suites that build a graph (top,
gamma, gamma2) import graphs, inside the function, so a call that
runs none of them never compiles it, and under `verify all` the
import falls in the lane that does not run order.
"""

from __future__ import annotations

import marshal
import math
import os
import random
from collections import Counter
from contextlib import suppress
from itertools import combinations, product

from .filters import (
    FilterClass,
    FiniteSubset,
    _bits,
    _braced,
    _DescriptorIndex,
    _Generators,
    a_of_pair_formula,
    classify,
    descriptor,
    filter_leq,
    is_top,
    order_oracle,
    realize,
    upset_in_fprime,
)
from .numtheory import (
    _Value,
    classify_prime,
    consecutive_power_pairs,
    primes_upto,
    zsigmondy_closed_form,
    zsigmondy_is_exception,
)
from .topology import Progression, closure, closure_oracle_member


class SuiteConfig(_Value):
    """Knobs shared by the suites; every bound has a suite-appropriate
    default, and max_element of None means each suite uses the bound
    its statement is quoted at."""

    __slots__ = ("max_element", "graph_bounds", "seed")

    def __init__(self, max_element: int | None = None,
                 graph_bounds: tuple[int, int] = (9, 5), seed: int = 7):
        if max_element is not None and max_element < 1:
            raise ValueError("max_element must be positive")
        if min(graph_bounds) < 0:
            raise ValueError("graph bounds must be nonnegative")
        super().__init__(max_element, graph_bounds, seed)


# the most cases a suite may plan; the defaults plan at most 3.2 M
_MAX_CASES = 10**7
# the half-width w of closure's window; the default report's 3,200,000
# cases and "window": 2000 are pinned by test_a12 and perfbench/checks.py
_CLOSURE_WINDOW = 2000


def _within_budget(cases: int, what: str) -> int:
    if cases > _MAX_CASES:
        raise ValueError(f"{cases} {what} exceed the budget of {_MAX_CASES}")
    if cases == 0:
        raise ValueError(f"no {what} to check: a pass would be vacuous")
    return cases


class VerifyFailure(_Value):
    __slots__ = ("inputs", "expected", "actual")

    def to_json_dict(self) -> dict:
        return {"inputs": self.inputs, "expected": self.expected, "actual": self.actual}


class SuiteReport(_Value):
    """Outcome of one suite (or of all of them merged): passed iff
    failures is empty. No wall time is measured: the JSON key millis
    is always null, so identical configurations produce byte-identical
    JSON."""

    __slots__ = ("suite", "cases", "failures", "details")

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": [f.to_json_dict() for f in self.failures],
            "millis": None,
            "details": self.details,
        }

    def render_text(self) -> str:
        lines = []
        subs = self.details.get("suites", [self.to_json_dict()])
        for sub in subs:
            verdict = "PASS" if not sub["failures"] else "FAIL"
            lines.append(f"{sub['suite']}: {verdict} ({sub['cases']} cases)")
            for f in sub["failures"][:5]:
                lines.append(
                    f"  {f['inputs']}: expected {f['expected']}, got {f['actual']}"
                )
        if self.suite == "all":
            verdict = "PASS" if self.passed else "FAIL"
            lines.append(f"all: {verdict} ({self.cases} cases)")
        return "\n".join(lines)


def _suite_closure(cfg: SuiteConfig):
    """closure(Progression(a, b)) against closure_oracle_member on the
    window [-w, w] minus 0, for 0 < |a| <= bound and 1 <= b <= bound.

    Progression reduces a mod b, so the 2 * bound^2 pairs (a, b) name
    far fewer progressions (210 of 800 at the default bound of 20).
    Each progression is decided once, and its mismatches are reported
    under every pair that names it.

    Premise: on each sign, both sides are periodic in z with period
    lcm(b, product of the closed form's primes). The oracle reads z only
    mod the primes of b and mod divisors of b, and the closed form only
    mod its own primes, so the period also covers a closed form that
    lists a wrong prime; tests/test_topology.py guards the premise. So
    each (sign, residue class) is decided once, at its point nearest 0:
    2,870 classes per sign at the default, not 840,000 points, while
    the case count stays that of the window. A class that disagrees is
    reported at each of its window points, in window order, so a lie
    at a single z is reported under its whole class.
    """
    bound = cfg.max_element if cfg.max_element is not None else 20
    w = _CLOSURE_WINDOW
    cases = _within_budget(2 * bound * bound * 2 * w, "closure cases")
    # keyed by the reduced (a, b), which names the progression: a tuple
    # hashes in C, a Progression through Python-level __hash__ and __eq__
    mismatches: dict[tuple[int, int], list[tuple[int, bool, bool]]] = {}
    failures = []
    for a in range(-bound, bound + 1):
        if a == 0:
            continue
        for b in range(1, bound + 1):
            prog = Progression(a, b)
            key = prog.a, b
            if key not in mismatches:
                cs = closure(prog)
                period = math.lcm(prog.b, math.prod(cs.modulus_primes))
                reps = min(period, w)
                found = []
                for z in (*range(-reps, 0), *range(1, reps + 1)):
                    lhs = z in cs
                    rhs = closure_oracle_member(z, prog)
                    if lhs != rhs:
                        step, stop = (period, w + 1) if z > 0 else (-period, -w - 1)
                        found += [(y, lhs, rhs) for y in range(z, stop, step)]
                mismatches[key] = sorted(found)
            for z, lhs, rhs in mismatches[key]:
                failures.append(VerifyFailure(
                    f"a={a} b={b} z={z}", f"oracle={rhs}", f"formula={lhs}"
                ))
    return cases, failures, {"progressions": 2 * bound * bound, "window": w}


def _residue_bitsets(vals: list[int], primes) -> dict[int, list[int]]:
    """by_res[p][r], the bitset of the indices j with vals[j] = r
    (mod p), for each given prime p."""
    by_res = {p: [0] * p for p in primes}
    for j, y in enumerate(vals):
        for p in primes:
            by_res[p][y % p] |= 1 << j
    return by_res


def _suite_pair_formula(cfg: SuiteConfig):
    """a_of_pair_formula(x, y) against the primes p up to 2 * bound at
    which {x, y} has at most one nonzero residue, for every pair x < y
    of nonzero integers in [-bound, bound].

    The oracle is a row of per-prime bitsets over the values: for row x
    and prime p, the partners y that qualify are all of them when
    x = 0 (mod p), and otherwise those with y = 0 or x (mod p). The
    closed form is called once per pair, and each prime it returns sets
    the pair's bit under that prime, so one XOR per prime compares a
    row; a prime outside the scanned range fails its pair outright.
    Failures come x-major, y ascending."""
    bound = cfg.max_element if cfg.max_element is not None else 50
    # every qualifying prime divides x, y or x-y, so none exceeds
    # the largest of their magnitudes, which is at most 2 * bound
    primes = primes_upto(2 * bound)
    # each case tests every prime, so the budget counts prime tests
    cases = math.comb(2 * bound, 2)
    _within_budget(cases * len(primes), "pair_formula prime tests")
    vals = [v for v in range(-bound, bound + 1) if v != 0]
    full = (1 << len(vals)) - 1
    by_res = _residue_bitsets(vals, primes)
    failures = []
    for i, x in enumerate(vals):
        later = full & ~((2 << i) - 1)
        formula = dict.fromkeys(primes, 0)
        got_at = {}
        stray = 0
        for j in range(i + 1, len(vals)):
            got_at[j] = got = a_of_pair_formula(x, vals[j])
            for p in got:
                if p in formula:
                    formula[p] |= 1 << j
                else:
                    stray |= 1 << j
        oracle = {}
        bad = stray
        for p, res in by_res.items():
            r = x % p
            oracle[p] = later if not r else (res[0] | res[r]) & later
            bad |= formula[p] ^ oracle[p]
        for j in _bits(bad):
            want = [p for p in primes if oracle[p] >> j & 1]
            failures.append(VerifyFailure(
                f"x={x} y={vals[j]}", f"A={want}", f"formula={sorted(set(got_at[j]))}"
            ))
    return cases, failures, {"values": len(vals)}


def _order_catalog(bound: int) -> list[FiniteSubset]:
    """One set per filter among the two- and three-element sets of
    nonzero integers in [-bound, bound], the first of each in
    combination order (pairs, then triples), keyed on its generator
    conditions over the primes up to 2 * bound (each prime of an A-set
    divides x, y or x - y for two of the set's elements). No descriptor
    is built and no triple is visited one at a time.

    A set's conditions keep, at each prime p of its A-set, one residue
    r (0 for none, 1 mod 2). Adding z keeps p iff z = 0 or r (mod p),
    or r = 0, which then keeps z's residue; so the larger sets split
    into residue cells (_cells), found by ANDing per-prime residue
    bitsets over the values, one cell per key. A pair is x's residues
    extended by y, and a triple its pair's conditions extended by z.
    The cells of each set come in the order of their lowest z, so the
    first set of each key is the one a loop over every subset in
    combination order would keep."""
    _within_budget(math.comb(2 * bound, 2) + math.comb(2 * bound, 3), "order catalog subsets")
    vals = [v for v in range(-bound, bound + 1) if v != 0]
    n = len(vals)
    primes = primes_upto(2 * bound)
    by_res = _residue_bitsets(vals, primes)
    # index tuples, in the order their keys are first met
    reps: dict = {}
    for i, x in enumerate(vals):
        # mod 2 every pair keeps {0, 1}, whatever x is
        single = tuple((p, 1 if p == 2 else x % p) for p in primes)
        for low, conds in _cells((1 << n) - (2 << i), single, by_res):
            reps.setdefault(conds, (i, low))
        _within_budget(len(reps) ** 2, "or more order catalog pairs")
    # a triple's key is its set's conditions, so only the first pair of
    # each key is extended: for a later pair with the key of (x', y'),
    # any z gives the key of {x', y', z}, a pair or a triple earlier in
    # combination order, whose key is kept by induction
    for conds, (i, j) in list(reps.items()):
        for low, key in _cells((1 << n) - (2 << j), conds, by_res):
            reps.setdefault(key, (i, j, low))
        _within_budget(len(reps) ** 2, "or more order catalog pairs")
    return [FiniteSubset(tuple(map(vals.__getitem__, combo))) for combo in reps.values()]


def _cells(mask: int, conds, by_res) -> list[tuple[int, tuple]]:
    """Split the value indices in mask by the conditions a value z
    extends conds to: each cell as its lowest index and that key,
    ascending. At (p, r) with r != 0, z keeps (p, r) iff z = 0 or r
    (mod p) and drops p otherwise; with r = 0, z keeps (p, t) for its
    residue t."""
    cells = [(mask, ())] if mask else []
    for p, r in conds:
        res = by_res[p]
        if r:
            keep = res[0] | res[r]
            # every cell lies inside mask, so a prime that no value
            # keeps changes no cell, and one that every value keeps
            # extends every key
            if not mask & keep:
                continue
            if not mask & ~keep:
                cells = [(cell, key + ((p, r),)) for cell, key in cells]
                continue
            split = []
            for cell, key in cells:
                kept = cell & keep
                if not kept:
                    split.append((cell, key))
                    continue
                split.append((kept, key + ((p, r),)))
                if kept != cell:
                    split.append((cell ^ kept, key))
        else:
            split = []
            for cell, key in cells:
                for t, values in enumerate(res):
                    if part := cell & values:
                        split.append((part, key + ((p, t),)))
        cells = split
    # the cells are disjoint, so no two lowest indices tie
    lows = [((cell & -cell).bit_length() - 1, key) for cell, key in cells]
    lows.sort()
    return lows


def _order_matrix(sets: list[FiniteSubset], bound: int):
    """The filter order on sets of two or more elements, each at most
    bound in magnitude: column j holds the rows i with E_i <= E_j, from
    _DescriptorIndex, checked against _Generators.column; then the
    order's laws. Returns (cols, failures, law_failures).

    Two rows may name one filter, as {1, -1} and {2, 4} both name the
    top, and then lie below each other. So two rows below each other
    fail antisymmetry only if their generator conditions differ: over
    the primes up to 2 * bound, which hold every A_E, equal conditions
    are equal filters, and the comparison with _Generators catches two
    that the closed form leaves unordered."""
    descs = [descriptor(E) for E in sets]
    index = _DescriptorIndex(descs)
    gens = _Generators(sets, primes_upto(2 * bound))
    failures = []
    cols = []
    for j, dF in enumerate(descs):
        col = index.column(dF)
        for i in _bits(col ^ gens.column(j)[0]):
            closed = bool(col >> i & 1)
            failures.append(VerifyFailure(
                f"E={sets[i]} F={sets[j]}", f"oracle={not closed}", f"closed={closed}"
            ))
        cols.append(col)

    # Transitivity holds iff each column holds the OR of the columns of
    # its rows. Where it holds, two rows below each other have equal
    # columns, so only a column that another shares can break
    # antisymmetry; the pair-by-pair scan below, which reports each
    # broken law in order, runs on those columns, or on every column
    # once transitivity fails anywhere.
    transitive = True
    for col in cols:
        union = 0
        for i in _bits(col):
            union |= cols[i]
        if union & ~col:
            transitive = False
            break
    shared = Counter(cols)
    law_failures = []
    for j, col in enumerate(cols):
        if not col >> j & 1:
            law_failures.append(VerifyFailure(f"E={sets[j]}", "E<=E", "false"))
        if transitive and shared[col] == 1:
            continue
        not_below = ~col
        for i in _bits(col):
            if cols[i] & not_below:
                law_failures.append(VerifyFailure(
                    f"E={sets[i]} F={sets[j]}", "transitivity", "escape"))
            if cols[i] >> j & 1 and gens.conds[i] != gens.conds[j]:
                law_failures.append(VerifyFailure(
                    f"E={sets[i]} F={sets[j]}", "antisymmetry", "mutual order"))
    return cols, failures, law_failures


def _suite_order(cfg: SuiteConfig):
    """_order_matrix on the catalog, whose sets all differ in their
    generator conditions, then 400 seeded pairs of larger sets,
    filter_leq against order_oracle, which never sees a descriptor."""
    bound = cfg.max_element if cfg.max_element is not None else 30
    reps = _order_catalog(bound)
    k = len(reps)
    _, failures, law_failures = _order_matrix(reps, bound)

    rng = random.Random(cfg.seed)
    sample_bound = max(bound, 50)

    def draw() -> FiniteSubset:
        # randrange(a, b + 1) is what randint(a, b) calls
        size = rng.randrange(2, 5)
        elems = set()
        while len(elems) < size:
            v = rng.randrange(-sample_bound, sample_bound + 1)
            if v:
                elems.add(v)
        return FiniteSubset(elems)

    samples = 400
    for _ in range(samples):
        E, F = draw(), draw()
        closed = filter_leq(E, F)
        oracle = order_oracle(E, F)[0]
        if closed != oracle:
            failures.append(VerifyFailure(
                f"sampled E={E} F={F}", f"oracle={oracle}", f"closed={closed}"
            ))

    cases = k * k + k + samples  # the pairs, one law audit per column, the samples
    failures.extend(law_failures)
    details = {"descriptors": k, "exhaustive_pairs": k * k, "sampled_pairs": samples}
    return cases, failures, details


def _suite_top(cfg: SuiteConfig):
    """is_top on every doubleton of nonzero integers in [-bound, bound]
    against the edges of Gamma_2's closed form on the powers of two up
    to bound: the doubling chains {n, 2n} and {-n, -2n} and the mirrors
    {-n, n}. is_top reads A_E through a_of, not the shift families."""
    from .graphs import build_gamma

    bound = cfg.max_element if cfg.max_element is not None else 64
    cases = _within_budget(math.comb(2 * bound, 2), "top cases")
    vals = [v for v in range(-bound, bound + 1) if v != 0]
    _, _, closed = _edge_pairs(build_gamma(2, (bound.bit_length() - 1, 0)))
    # each edge as (x, y) with x < y, the order the loop below meets it in
    listed = {tuple(sorted(e)) for e in closed}
    failures = []
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            got = is_top(FiniteSubset((x, y)))
            want = (x, y) in listed
            if got != want:
                failures.append(VerifyFailure(
                    f"E={{{x}, {y}}}", f"listed={want}", f"is_top={got}"
                ))
    return cases, failures, {"values": len(vals), "listed_doubletons": len(listed)}


def _suite_classify(cfg: SuiteConfig):
    failures = []
    cases = 0
    # FDoublePrime sets with the size of their FPrime upset
    doubles = []
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            cases += 1
            got = classify(FiniteSubset.of(a, p, 2 * p))
            if got is not FilterClass.F_PRIME:
                failures.append(VerifyFailure(
                    f"E={{{a}, {p}, {2 * p}}}", "FPrime", str(got)
                ))
        doubles.append((FiniteSubset.of(p, 2 * p), p - 1))
    for p, q, x in ((3, 5, 1), (3, 5, 2), (3, 7, 2), (5, 7, 1)):
        doubles.append((FiniteSubset.of(x, p * q, 2 * p * q), 2))
    for E, size in doubles:
        cases += 1
        got = classify(E)
        if got is not FilterClass.F_DOUBLE_PRIME:
            failures.append(VerifyFailure(f"E={E}", "FDoublePrime", str(got)))
            continue
        up = upset_in_fprime(E)
        cases += 1
        if len(up) != size:
            failures.append(VerifyFailure(
                f"upset({E})", f"{size} descriptors", f"{len(up)}"
            ))
    return cases, failures, {}


def _suite_realize(cfg: SuiteConfig):
    odd = (3, 5, 7, 11, 13)
    a_sets = [()]
    a_sets += [(p,) for p in odd]
    a_sets += list(combinations(odd, 2))
    failures = []
    cases = 0
    for rest in a_sets:
        A = (2, *rest)
        residue_spaces = [range(p) for p in rest]
        for residues in product(*residue_spaces):
            alpha = {2: 1, **dict(zip(rest, residues))}
            cases += 1
            # realize checks its own roundtrip and names the set it built
            try:
                realize(A, alpha)
            except AssertionError as e:
                failures.append(VerifyFailure(
                    f"A={_braced(A)} alpha={_braced(alpha)}", "roundtrip recovery", str(e)
                ))
    return cases, failures, {"a_sets": len(a_sets)}


# rows per ppix block: each of a block's primes keeps a bitset over its
# rows, so one index over every x would grow with the square of the plan
_PPIX_BLOCK = 1024


def _suite_ppix(cfg: SuiteConfig):
    """The divisibility criterion read from the filter order: for an
    odd prime p and x outside -2..2, p | x iff {1, x} <= {1, p, 2p} and
    {2, x} <= {2, p, 2p}, for x in [-bound, bound] and the odd primes up
    to 50. It runs filter_leq's closed form a prime at a time on blocks
    of _PPIX_BLOCK values of x: one _DescriptorIndex over the block's
    {1, x} rows and one over its {2, x} rows, whose columns at p's two
    targets are ANDed and compared with the rows where p | x by one
    XOR. Failures come x-major, p ascending."""
    bound = cfg.max_element if cfg.max_element is not None else 200
    odd_primes = [p for p in primes_upto(50) if p != 2]
    # x runs over [-bound, bound] minus -2..2
    cases = _within_budget(max(2 * bound - 4, 0) * len(odd_primes), "ppix cases")
    xs = [x for x in range(-bound, bound + 1) if abs(x) > 2]
    targets = [
        (p, descriptor(FiniteSubset.of(1, p, 2 * p)), descriptor(FiniteSubset.of(2, p, 2 * p)))
        for p in odd_primes
    ]
    failures = []
    for start in range(0, len(xs), _PPIX_BLOCK):
        block = xs[start:start + _PPIX_BLOCK]
        ones = _DescriptorIndex([descriptor(FiniteSubset.of(1, x)) for x in block])
        twos = _DescriptorIndex([descriptor(FiniteSubset.of(2, x)) for x in block])
        wrong = []
        for p, F1, F2 in targets:
            got = ones.column(F1) & twos.column(F2)
            divisible = sum(1 << i for i, x in enumerate(block) if x % p == 0)
            wrong.extend((i, p, bool(divisible >> i & 1)) for i in _bits(got ^ divisible))
        failures.extend(
            VerifyFailure(f"x={block[i]} p={p}", f"divides={want}", f"filters={not want}")
            for i, p, want in sorted(wrong)
        )
    return cases, failures, {"primes": len(odd_primes)}


def _gamma_degree_checks(p: int, sig) -> tuple[int, list[VerifyFailure]]:
    """The degree lemma of p's class, one case per interior vertex of
    sig, keyed by value. For a Fermat or Mersenne prime the vertices
    +-p have degree 4 (8 for p = 3) and every other vertex more; for
    every other prime, 2 included, the column i = 0, the odd values,
    has degree 2 and every other vertex 3."""
    failures = []
    if classify_prime(p).m is not None:
        low = 8 if p == 3 else 4
        for x, d in sig.items():
            if abs(x) == p:
                if d != low:
                    failures.append(VerifyFailure(f"deg({x})", str(low), str(d)))
            elif d <= low:
                failures.append(VerifyFailure(f"deg({x})", f">={low + 1}", str(d)))
    else:
        for x, d in sig.items():
            want = 2 if x & 1 else 3
            if d != want:
                failures.append(VerifyFailure(f"deg({x})", str(want), str(d)))
    return len(sig), failures


def _edge_pairs(g) -> tuple[list[int], set[tuple[int, int]], set[tuple[int, int]]]:
    """A built graph read through its JSON form, which `kirch gamma
    --format json` prints: the vertex values in grid order, and the
    value pairs, each in grid order, that the predicate claims and that
    the closed form claims."""
    from .graphs import graph_json_dict

    data = graph_json_dict(g)
    prov = data["provenance"]
    both = {*map(tuple, prov["both"])}
    return (data["vertices"], both | {*map(tuple, prov["predicate"])},
            both | {*map(tuple, prov["closed_form"])})


def _suite_gamma(cfg: SuiteConfig):
    """The edge families of Gamma_p against the predicate on the whole
    grid, where the closed form adds an edge only when both endpoints
    fit, so the two agree exactly; and the degree lemmas on the grid's
    interior. Edges are read from graph_json_dict, the form `kirch gamma
    --format json` prints, as are the Gamma_2 edges of `top` and
    `gamma2`. A grid without interior vertices would pass the lemmas
    on nothing, so the bounds are refused as soon as a built graph has
    none; such a grid has i < 5 or at most two rows, so it is small."""
    from .graphs import build_gamma, degree_signature, graph_json_dict, printed_p3_report

    i, j = cfg.graph_bounds
    grids = {p: (i, j + 1) if p == 3 else (i, j) for p in (3, 5, 7, 11, 13, 29, 31)}
    failures = []
    cases = 0
    details: dict = {}
    for p, bounds in grids.items():
        g = build_gamma(p, bounds)
        data = graph_json_dict(g)
        prov = data["provenance"]
        edge_count = len(data["edges"])
        cases += edge_count
        for side in ("predicate", "closed_form"):
            for a, b in prov[side]:
                failures.append(VerifyFailure(
                    f"p={p} edge {a},{b}",
                    "claimed by both constructions", f"only {side}",
                ))
        sig = degree_signature(g)
        _within_budget(len(sig), f"interior vertices of Gamma_{p} at graph bounds {i},{j}")
        dc, df = _gamma_degree_checks(p, sig)
        cases += dc
        failures.extend(df)
        details[str(p)] = {
            "bounds": list(bounds),
            "vertices": len(data["vertices"]),
            "edges": edge_count,
            "interior": len(sig),
            "grid_predicate_only": len(prov["predicate"]),
            "grid_closed_only": len(prov["closed_form"]),
        }
    details["p3_printed"] = printed_p3_report(grids[3])
    return cases, failures, details


def _suite_gamma2(cfg: SuiteConfig):
    from .graphs import build_gamma, degree_signature

    max_exp = cfg.graph_bounds[0] + 1
    g = build_gamma(2, (max_exp, 0))
    failures = []
    cases = 0
    vals, predicate, closed_form = _edge_pairs(g)
    for k, x in enumerate(vals):
        for y in vals[k + 1:]:
            cases += 1
            top = is_top(FiniteSubset((x, y)))
            pred, closed = (x, y) in predicate, (x, y) in closed_form
            if not top == pred == closed:
                failures.append(VerifyFailure(
                    f"E={{{x}, {y}}}", f"is_top={top}",
                    f"predicate={pred} closed_form={closed}",
                ))
    sig = degree_signature(g)
    dc, df = _gamma_degree_checks(2, sig)
    cases += dc
    failures.extend(df)
    profile = {str(x): d for x, d in sig.items()}
    details = {"max_exp": max_exp, "profile": dict(sorted(profile.items()))}
    return cases, failures, details


def _suite_zsigmondy(cfg: SuiteConfig):
    failures = []
    cases = 0
    computed = []
    for a in range(2, 21):
        for n in range(2, 13):
            cases += 1
            got = zsigmondy_is_exception(a, n)
            want = zsigmondy_closed_form(a, n)
            if got:
                computed.append([a, n])
            if got != want:
                failures.append(VerifyFailure(
                    f"a={a} n={n}", f"closed_form={want}", f"computed={got}"
                ))
    return cases, failures, {"exceptions": computed}


def _suite_mihailescu(cfg: SuiteConfig):
    limit = 10**6
    pairs = consecutive_power_pairs(limit)
    failures = []
    if pairs != [(8, 9)]:
        failures.append(VerifyFailure(
            f"limit={limit}", "[(8, 9)]", str(pairs)
        ))
    return 1, failures, {"pairs": [list(p) for p in pairs]}


_SUITES = {
    "closure": _suite_closure,
    "pair_formula": _suite_pair_formula,
    "order": _suite_order,
    "top": _suite_top,
    "classify": _suite_classify,
    "realize": _suite_realize,
    "ppix": _suite_ppix,
    "gamma": _suite_gamma,
    "gamma2": _suite_gamma2,
    "zsigmondy": _suite_zsigmondy,
    "mihailescu": _suite_mihailescu,
}


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _all_reports(cfg: SuiteConfig) -> list[SuiteReport]:
    """run_suite(s, cfg) for each suite s in _SUITES order: the reports,
    or the exception, of running them one after another.

    Where os.fork exists and at least two CPUs are usable (the affinity
    mask; a cgroup's CPU quota is not read), a forked child runs
    `order`, about half of the default run, while this process runs the
    other ten. The child writes its report to a pipe as marshal data
    and leaves with os._exit(0), or leaves with status 1 and no report;
    it only computes and writes to its own pipe, so it takes no lock
    that another thread could have held at the fork. Only that clean
    case is merged. An Exception in either lane, a nonzero child status
    or a report that does not decode reaps the child and runs the
    eleven suites again in process, so the outcome is that of the
    one-lane loop by construction; running again costs time only on a
    refusal after `order`. The child is reaped on every path, and an
    orphan exits within a quarter second, on a SIGALRM timer.

    After the fork the mask is split: this process pins itself to its
    lower half and the child to the upper half, so on two CPUs each
    lane has one of its own and on more each keeps room to move. The
    finally that reaps the child restores the caller's mask. A pin that
    raises OSError, or one without os.sched_setaffinity, leaves its
    lane where the scheduler puts it. Under a cpuset with
    sched_load_balance = 0 a forked child stays on its parent's CPU,
    so unsplit lanes may share one: on two vCPUs, fresh
    `kirch verify all` runs took a median 318-352 ms unsplit, wall
    about equal to CPU time, and 248-251 ms split, lower in 40 of 40
    alternating pairs; in a series where the unsplit lanes ran apart,
    the split was lower in 1 of 10 (BENCH_51.json). A scheduler that
    balances, and a mask of more than two CPUs, were not measured. On
    one CPU, or beside a process busy on the second, the fork costs
    more than it saves (BENCH_31.json, BENCH_36.json); os.fork with
    marshal stays clear of the 12 to 35 ms that importing
    multiprocessing or concurrent.futures takes."""
    pid = None
    if hasattr(os, "fork") and _usable_cpus() >= 2:
        parent = os.getpid()
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        half = len(cpus) // 2
        fd, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(fd)
            os.close(w)
    if pid == 0:  # the child: exit 0 with a report, or 1 without
        status = 1
        try:
            os.close(fd)
            with suppress(AttributeError, OSError):
                os.sched_setaffinity(0, cpus[half:])
            import signal
            signal.signal(signal.SIGALRM, lambda *_: os.getppid() == parent or os._exit(1))
            signal.setitimer(signal.ITIMER_REAL, 0.25, 0.25)
            r = run_suite("order", cfg)
            failures = [(f.inputs, f.expected, f.actual) for f in r.failures]
            with open(w, "wb") as out:
                out.write(marshal.dumps((r.cases, failures, r.details)))
            status = 0
        finally:
            os._exit(status)  # never return into the caller's frames
    if pid is not None:
        os.close(w)
        try:
            with suppress(AttributeError, OSError):
                os.sched_setaffinity(0, cpus[:half])
            with open(fd, "rb") as inp:
                reports = {s: run_suite(s, cfg) for s in _SUITES if s != "order"}
                data = inp.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pid = None
            if code == 0:
                cases, failures, details = marshal.loads(data)
                failures = tuple(VerifyFailure(*f) for f in failures)
                reports["order"] = SuiteReport("order", cases, failures, details)
                return [reports[s] for s in _SUITES]
        except Exception:
            pass  # the one-lane loop below gives the outcome
        finally:
            if pid is not None:
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            with suppress(AttributeError, OSError):
                os.sched_setaffinity(0, cpus)
    return [run_suite(s, cfg) for s in _SUITES]


def run_suite(name: str, cfg: SuiteConfig) -> SuiteReport:
    """Run one named suite, or all of them merged in fixed order (see
    _all_reports).

    >>> run_suite("mihailescu", SuiteConfig()).passed
    True
    """
    if name == "all":
        subs = _all_reports(cfg)
        failures = tuple(
            VerifyFailure(f"[{r.suite}] {f.inputs}", f.expected, f.actual)
            for r in subs
            for f in r.failures
        )
        return SuiteReport("all", sum(r.cases for r in subs), failures,
                           {"suites": [r.to_json_dict() for r in subs]})
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    cases, failures, details = _SUITES[name](cfg)
    return SuiteReport(name, cases, tuple(failures), details)
