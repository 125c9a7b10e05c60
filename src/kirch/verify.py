"""Named verification suites.

Each suite pits a closed-form statement against its definitional
oracle over an exhaustive catalog, collecting mismatches as explicit
failures, and refuses with ValueError before it starts when its
config plans more than _MAX_CASES cases, or none. The `order` suite names a
filter by its generator conditions, read from the residues of a set's
elements: they pick its 1450 catalog sets and decide its 1450^2
catalog pairs and its sampled pairs, never the alpha maps its
closed form compares. Both sides decide the catalog
a column at a time, from per-prime bitsets over its rows, with no
loop over pairs. Reports are deterministic:
catalogs enumerate in canonical order, any sampling is driven by the
configured seed, and the JSON rendering carries no wall-clock data.

run_suite("all", cfg) runs the suites in two lanes where os.fork exists
and at least two CPUs are usable (see kirch.lanes); its report is the
same, byte for byte, as that of running them one after another.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product
from typing import NamedTuple

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
from .graphs import _grid, build_gamma, closed_form_edges, degree_signature, printed_p3_report
from .numtheory import (
    classify_prime,
    consecutive_power_pairs,
    primes_upto,
    zsigmondy_closed_form,
    zsigmondy_is_exception,
)
from .topology import Progression, closure, closure_oracle_member


class SuiteConfig:
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
        object.__setattr__(self, "max_element", max_element)
        object.__setattr__(self, "graph_bounds", graph_bounds)
        object.__setattr__(self, "seed", seed)

    def _key(self) -> tuple:
        return self.max_element, self.graph_bounds, self.seed

    def __repr__(self) -> str:
        return "SuiteConfig(max_element=%r, graph_bounds=%r, seed=%r)" % self._key()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


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


class VerifyFailure(NamedTuple):
    inputs: str
    expected: str
    actual: str

    def to_json_dict(self) -> dict:
        return {"inputs": self.inputs, "expected": self.expected, "actual": self.actual}


class SuiteReport(NamedTuple):
    """Outcome of one suite (or of all of them merged): passed iff
    failures is empty. No wall time is measured: the JSON key millis
    is always null, so identical configurations produce byte-identical
    JSON."""

    suite: str
    cases: int
    failures: tuple[VerifyFailure, ...]
    details: dict

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
    mismatches: dict[Progression, list[tuple[int, bool, bool]]] = {}
    failures = []
    for a in range(-bound, bound + 1):
        if a == 0:
            continue
        for b in range(1, bound + 1):
            prog = Progression(a, b)
            if prog not in mismatches:
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
                mismatches[prog] = sorted(found)
            for z, lhs, rhs in mismatches[prog]:
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
        for cell, conds in _cells((1 << n) - (2 << i), single, by_res):
            reps.setdefault(conds, (i, _low(cell)))
    # a triple's key is its set's conditions, so only the first pair of
    # each key is extended: for a later pair with the key of (x', y'),
    # any z gives the key of {x', y', z}, a pair or a triple earlier in
    # combination order, whose key is kept by induction
    for conds, (i, j) in list(reps.items()):
        for cell, key in _cells((1 << n) - (2 << j), conds, by_res):
            reps.setdefault(key, (i, j, _low(cell)))
    return [FiniteSubset(tuple(vals[i] for i in combo)) for combo in reps.values()]


def _low(mask: int) -> int:
    """The index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _cells(mask: int, conds, by_res) -> list[tuple[int, tuple]]:
    """Split the value indices in mask by the conditions a value z
    extends conds to, ascending in each cell's lowest index: at (p, r)
    with r != 0, z keeps (p, r) iff z = 0 or r (mod p) and drops p
    otherwise; with r = 0, z keeps (p, t) for its residue t."""
    cells = [(mask, ())]
    for p, r in conds:
        res = by_res[p]
        split = []
        if r:
            keep = res[0] | res[r]
            # every cell lies inside mask
            drop = mask & ~keep
            for cell, key in cells:
                if kept := cell & keep:
                    split.append((kept, key + ((p, r),)))
                if dropped := cell & drop:
                    split.append((dropped, key))
        else:
            for cell, key in cells:
                for t, values in enumerate(res):
                    if part := cell & values:
                        split.append((part, key + ((p, t),)))
        cells = split
    cells.sort(key=lambda c: c[0] & -c[0])
    return cells


def _suite_order(cfg: SuiteConfig):
    """The alpha-map comparison on every pair of the catalog, a
    column at a time from _DescriptorIndex over the catalog's
    descriptors, against _Generators.column on the catalog's sets;
    reflexivity, transitivity and antisymmetry on the comparison's
    columns; and 400 seeded pairs of larger sets, filter_leq against
    order_oracle. Both oracles read the sets' elements, never the
    descriptors, and no two catalog sets share generator conditions,
    so antisymmetry tests the closed form."""
    bound = cfg.max_element if cfg.max_element is not None else 30
    reps = _order_catalog(bound)
    k = len(reps)
    _within_budget(k * k, "order catalog pairs")
    descs = [descriptor(E) for E in reps]
    index = _DescriptorIndex(descs)
    gens = _Generators(reps, primes_upto(2 * bound))
    failures = []
    # column j holds the rows i with E_i <= E_j
    cols = []
    for j, dF in enumerate(descs):
        col = index.column(dF)
        for i in _bits(col ^ gens.column(j)[0]):
            closed = bool(col >> i & 1)
            failures.append(VerifyFailure(
                f"E={reps[i]} F={reps[j]}", f"oracle={not closed}", f"closed={closed}"
            ))
        cols.append(col)

    law_failures = []
    for j, col in enumerate(cols):
        if not col >> j & 1:
            law_failures.append(VerifyFailure(f"E={reps[j]}", "E<=E", "false"))
        not_below = ~col
        for i in _bits(col):
            if cols[i] & not_below:
                law_failures.append(VerifyFailure(
                    f"E={reps[i]} F={reps[j]}", "transitivity", "escape"))
            if i != j and cols[i] >> j & 1:
                law_failures.append(VerifyFailure(
                    f"E={reps[i]} F={reps[j]}", "antisymmetry", "mutual order"))

    rng = random.Random(cfg.seed)
    sample_bound = max(bound, 50)

    def draw() -> FiniteSubset:
        size = rng.randint(2, 4)
        elems = set()
        while len(elems) < size:
            v = rng.randint(-sample_bound, sample_bound)
            if v:
                elems.add(v)
        return FiniteSubset(tuple(sorted(elems)))

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
    bound = cfg.max_element if cfg.max_element is not None else 64
    cases = _within_budget(math.comb(2 * bound, 2), "top cases")
    vals = [v for v in range(-bound, bound + 1) if v != 0]
    bounds = (bound.bit_length() - 1, 0)
    powers = [v.value(2) for v in _grid(2, bounds)]
    # each edge as (x, y) with x < y, the order the loop below meets it in
    listed = {tuple(sorted((powers[k], powers[l]))) for k, l in closed_form_edges(2, bounds)}
    failures = []
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            got = is_top(FiniteSubset.of(x, y))
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
    sig. For a Fermat or Mersenne prime the vertices +-p have degree 4
    (8 for p = 3) and every other vertex more; for every other prime,
    2 included, the column two_exp = 0 has degree 2 and every other
    vertex 3."""
    failures = []
    if classify_prime(p).m is not None:
        low = 8 if p == 3 else 4
        for v, d in sig.items():
            if (v.two_exp, v.p_exp) == (0, 1):
                if d != low:
                    failures.append(VerifyFailure(f"deg({v.value(p)})", str(low), str(d)))
            elif d <= low:
                failures.append(VerifyFailure(f"deg({v.value(p)})", f">={low + 1}", str(d)))
    else:
        for v, d in sig.items():
            want = 2 if v.two_exp == 0 else 3
            if d != want:
                failures.append(VerifyFailure(f"deg({v.value(p)})", str(want), str(d)))
    return len(sig), failures


def _suite_gamma(cfg: SuiteConfig):
    """The edge families of Gamma_p against the predicate on the whole
    grid, where the closed form adds an edge only when both endpoints
    fit, so the two agree exactly; and the degree lemmas on the grid's
    interior. A grid without interior vertices would pass the lemmas
    on nothing, so the bounds are refused as soon as a built graph has
    none; such a grid has i < 5 or at most two rows, so it is small."""
    i, j = cfg.graph_bounds
    grids = {p: (i, j + 1) if p == 3 else (i, j) for p in (3, 5, 7, 11, 13, 29, 31)}
    failures = []
    cases = 0
    details: dict = {}
    for p, bounds in grids.items():
        g = build_gamma(p, bounds)
        whole = g.discrepancies()
        cases += len(g.edges)
        for side, edges in whole.items():
            for a, b in edges:
                failures.append(VerifyFailure(
                    f"p={p} edge {a.value(p)},{b.value(p)}",
                    "claimed by both constructions", f"only {side}",
                ))
        sig = degree_signature(g)
        if not sig:
            raise ValueError(f"graph bounds {i},{j} leave Gamma_{p} without interior vertices")
        dc, df = _gamma_degree_checks(p, sig)
        cases += dc
        failures.extend(df)
        details[str(p)] = {
            "bounds": list(bounds),
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "interior": len(sig),
            "grid_predicate_only": len(whole["predicate"]),
            "grid_closed_only": len(whole["closed_form"]),
        }
    details["p3_printed"] = printed_p3_report(grids[3])
    return cases, failures, details


def _suite_gamma2(cfg: SuiteConfig):
    max_exp = cfg.graph_bounds[0] + 1
    g = build_gamma(2, (max_exp, 0))
    failures = []
    cases = 0
    vals = [v.value(2) for v in g.vertices]
    for k, x in enumerate(vals):
        for l in range(k + 1, len(vals)):
            cases += 1
            y = vals[l]
            top = is_top(FiniteSubset.of(x, y))
            pred, closed = (k, l) in g.predicate, (k, l) in g.closed
            if not top == pred == closed:
                failures.append(VerifyFailure(
                    f"E={{{x}, {y}}}", f"is_top={top}",
                    f"predicate={pred} closed_form={closed}",
                ))
    sig = degree_signature(g)
    dc, df = _gamma_degree_checks(2, sig)
    cases += dc
    failures.extend(df)
    profile = {str(v.value(2)): d for v, d in sig.items()}
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


def run_suite(name: str, cfg: SuiteConfig) -> SuiteReport:
    """Run one named suite, or all of them merged in fixed order.

    For "all", each suite runs through run_suite. With os.fork and at
    least two usable CPUs (os.sched_getaffinity), `order` runs in a
    forked child while this process runs the other ten; the child's
    report comes back over a pipe and is merged in its place, so the
    report, and the exception raised, if any, are those of running the
    suites one after another, as happens everywhere else. The child is
    reaped before this returns or raises. The fork machinery lives in
    kirch.lanes, imported here so that no other kirch call compiles it.

    >>> run_suite("mihailescu", SuiteConfig()).passed
    True
    """
    if name == "all":
        from .lanes import all_reports

        subs = all_reports(cfg)
        failures = tuple(
            VerifyFailure(f"[{r.suite}] {f.inputs}", f.expected, f.actual)
            for r in subs
            for f in r.failures
        )
        return SuiteReport(
            suite="all",
            cases=sum(r.cases for r in subs),
            failures=failures,
            details={"suites": [r.to_json_dict() for r in subs]},
        )
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    cases, failures, details = _SUITES[name](cfg)
    return SuiteReport(name, cases, tuple(failures), details)

