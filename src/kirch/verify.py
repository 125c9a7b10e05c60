"""Named verification suites.

Each suite pits a closed-form statement against its definitional
oracle over an exhaustive catalog, collecting mismatches as explicit
failures, and refuses with ValueError before it starts when its
config plans more than _MAX_CASES cases, or none. The `order` suite names a
filter by its generator conditions, read from the residues of a set's
elements: they pick its 1450 catalog sets and decide its 1450^2
catalog pairs and its sampled pairs, never the (A, Pi, alpha)
descriptors its closed form compares. Reports are deterministic:
catalogs enumerate in canonical order, any sampling is driven by the
configured seed, and the JSON rendering carries no wall-clock data.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from itertools import combinations, product

from .filters import (
    FilterClass,
    FiniteSubset,
    _bits,
    _braced,
    _conditions,
    _descriptor_leq,
    _Generators,
    a_of_pair_formula,
    classify,
    descriptor,
    divides_via_filters,
    is_top,
    order_oracle,
    realize,
    upset_in_fprime,
)
from .graphs import (
    build_gamma,
    degree_signature,
    interior_margins,
    interior_vertices,
    printed_p3_report,
)
from .numtheory import (
    consecutive_power_pairs,
    primes_upto,
    zsigmondy_closed_form,
    zsigmondy_is_exception,
)
from .topology import Progression, Window, closure, closure_oracle_member


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by the suites; every bound has a suite-appropriate
    default, and max_element of None means each suite uses the bound
    its statement is quoted at."""

    window: int = 2000
    max_element: int | None = None
    graph_bounds: tuple[int, int] = (9, 5)
    seed: int = 7

    def __post_init__(self) -> None:
        Window(self.window)
        if self.max_element is not None and self.max_element < 1:
            raise ValueError("max_element must be positive")
        if min(self.graph_bounds) < 0:
            raise ValueError("graph bounds must be nonnegative")


# the most cases a suite may plan; the defaults plan at most 3.2 M
_MAX_CASES = 10**7


def _within_budget(cases: int, what: str) -> int:
    if cases > _MAX_CASES:
        raise ValueError(f"{cases} {what} exceed the budget of {_MAX_CASES}")
    if cases == 0:
        raise ValueError(f"no {what} to check: a pass would be vacuous")
    return cases


@dataclass(frozen=True)
class VerifyFailure:
    inputs: str
    expected: str
    actual: str

    def to_json_dict(self) -> dict:
        return {"inputs": self.inputs, "expected": self.expected, "actual": self.actual}


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one suite (or of all of them merged): passed iff
    failures is empty. millis is measured but never serialized, so
    identical configurations produce byte-identical JSON."""

    suite: str
    cases: int
    failures: tuple[VerifyFailure, ...]
    millis: float
    details: dict = field(default_factory=dict)

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
    Each progression's window runs once, and its mismatches are
    reported under every pair that names it.
    """
    bound = cfg.max_element if cfg.max_element is not None else 20
    cases = _within_budget(2 * bound * bound * 2 * cfg.window, "closure cases")
    window = list(Window(cfg.window).members())
    mismatches: dict[Progression, list[tuple[int, bool, bool]]] = {}
    failures = []
    for a in range(-bound, bound + 1):
        if a == 0:
            continue
        for b in range(1, bound + 1):
            prog = Progression(a, b)
            if prog not in mismatches:
                cs = closure(prog)
                found = []
                for z in window:
                    lhs = z in cs
                    rhs = closure_oracle_member(z, prog)
                    if lhs != rhs:
                        found.append((z, lhs, rhs))
                mismatches[prog] = found
            for z, lhs, rhs in mismatches[prog]:
                failures.append(VerifyFailure(
                    f"a={a} b={b} z={z}", f"oracle={rhs}", f"formula={lhs}"
                ))
    return cases, failures, {"progressions": 2 * bound * bound, "window": cfg.window}


def _suite_pair_formula(cfg: SuiteConfig):
    bound = cfg.max_element if cfg.max_element is not None else 50
    # every qualifying prime divides x, y or x-y, so none exceeds
    # the largest of their magnitudes, which is at most 2 * bound
    primes = primes_upto(2 * bound)
    # each case tests every prime, so the budget counts prime tests
    cases = math.comb(2 * bound, 2)
    _within_budget(cases * len(primes), "pair_formula prime tests")
    vals = [v for v in range(-bound, bound + 1) if v != 0]
    failures = []
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            got = set(a_of_pair_formula(x, y))
            want = {p for p in primes if len({x % p, y % p} - {0}) <= 1}
            if got != want:
                failures.append(VerifyFailure(
                    f"x={x} y={y}", f"A={sorted(want)}", f"formula={sorted(got)}"
                ))
    return cases, failures, {"values": len(vals)}


def _order_catalog(bound: int) -> list[FiniteSubset]:
    """One set per filter among the two- and three-element sets of
    nonzero integers in [-bound, bound], the first of each in
    combination order, keyed on its generator conditions over the
    primes up to 2 * bound (each prime of an A-set divides x, y or
    x - y for two of the set's elements). No descriptor is built."""
    _within_budget(math.comb(2 * bound, 2) + math.comb(2 * bound, 3), "order catalog subsets")
    vals = [v for v in range(-bound, bound + 1) if v != 0]
    primes = primes_upto(2 * bound)
    reps: dict = {}
    for size in (2, 3):
        for combo in combinations(vals, size):
            reps.setdefault(tuple(_conditions(combo, primes).items()), combo)
    return [FiniteSubset(combo) for combo in reps.values()]


def _suite_order(cfg: SuiteConfig):
    """The three-condition comparison _descriptor_leq on every pair of
    the catalog, column by column against _Generators.column on the
    catalog's sets; reflexivity, transitivity and antisymmetry on the
    comparison's columns; and 400 seeded pairs of larger sets against
    order_oracle. Both oracles read the sets' elements, and no two
    catalog sets share generator conditions, so antisymmetry tests the
    closed form."""
    bound = cfg.max_element if cfg.max_element is not None else 30
    reps = _order_catalog(bound)
    k = len(reps)
    _within_budget(k * k, "order catalog pairs")
    descs = [descriptor(E) for E in reps]
    gens = _Generators(reps, primes_upto(2 * bound))
    failures = []
    # column j holds the rows i with E_i <= E_j
    cols = []
    for j, dF in enumerate(descs):
        col = 0
        for i, dE in enumerate(descs):
            if _descriptor_leq(dE, dF):
                col |= 1 << i
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
        for i in _bits(col):
            if cols[i] & ~col:
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
        closed = _descriptor_leq(descriptor(E), descriptor(F))
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
    bound = cfg.max_element if cfg.max_element is not None else 64
    cases = _within_budget(math.comb(2 * bound, 2), "top cases")
    vals = [v for v in range(-bound, bound + 1) if v != 0]
    listed = set()
    n = 1
    while 2 * n <= bound:
        listed |= {frozenset({n, 2 * n}), frozenset({-n, -2 * n})}
        n *= 2
    n = 1
    while n <= bound:
        listed.add(frozenset({-n, n}))
        n *= 2
    failures = []
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            got = is_top(FiniteSubset.of(x, y))
            want = frozenset({x, y}) in listed
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
            E = realize(A, alpha)
            got = descriptor(E)
            if got.A != A or got.alpha != alpha:
                failures.append(VerifyFailure(
                    f"A={_braced(A)} alpha={_braced(alpha)}",
                    "roundtrip recovery",
                    f"E={E} A={_braced(got.A)} alpha={_braced(got.alpha)}",
                ))
    return cases, failures, {"a_sets": len(a_sets)}


def _suite_ppix(cfg: SuiteConfig):
    bound = cfg.max_element if cfg.max_element is not None else 200
    odd_primes = [p for p in primes_upto(50) if p != 2]
    # x runs over [-bound, bound] minus -2..2
    cases = _within_budget(max(2 * bound - 4, 0) * len(odd_primes), "ppix cases")
    failures = []
    for x in range(-bound, bound + 1):
        if x in (-2, -1, 0, 1, 2):
            continue
        for p in odd_primes:
            got = divides_via_filters(x, p)
            want = x % p == 0
            if got != want:
                failures.append(VerifyFailure(
                    f"x={x} p={p}", f"divides={want}", f"filters={got}"
                ))
    return cases, failures, {"primes": len(odd_primes)}


def _gamma_degree_checks(p: int, sig) -> tuple[int, list[VerifyFailure]]:
    failures = []
    cases = 0
    if p in (3, 5, 7, 31):
        # the vertices +-p have degree low, every other one more
        low = 8 if p == 3 else 4
        for v, d in sig.items():
            cases += 1
            if (v.two_exp, v.p_exp) == (0, 1):
                if d != low:
                    failures.append(VerifyFailure(f"deg({v.value(p)})", str(low), str(d)))
            elif d <= low:
                failures.append(VerifyFailure(f"deg({v.value(p)})", f">={low + 1}", str(d)))
    else:
        expected = {v.value(p) for v in sig if v.two_exp == 0}
        got = {v.value(p) for v, d in sig.items() if d == 2}
        cases += 1
        if got != expected:
            failures.append(VerifyFailure(
                f"degree-2 interior set of p={p}",
                f"{sorted(expected)}", f"{sorted(got)}",
            ))
    return cases, failures


def _suite_gamma(cfg: SuiteConfig):
    """The edge families and degree lemmas of Gamma_p on each grid's
    interior; a grid without interior vertices would pass on nothing,
    so it is refused before any graph is built."""
    i, j = cfg.graph_bounds
    grids = {p: (i, j + 1) if p == 3 else (i, j) for p in (3, 5, 7, 11, 13, 29, 31)}
    for p, (max_i, max_j) in grids.items():
        m2, mp = interior_margins(p)
        # odd-p rows start at j = 1
        if max_i < m2 or max_j <= mp:
            raise ValueError(f"graph bounds {i},{j} leave Gamma_{p} without interior vertices")
    failures = []
    cases = 0
    details: dict = {}
    for p, bounds in grids.items():
        g = build_gamma(p, bounds)
        inner = set(interior_vertices(g))
        pred_in = {e for e in g.predicate if e[0] in inner and e[1] in inner}
        closed_in = {e for e in g.closed if e[0] in inner and e[1] in inner}
        cases += len(pred_in | closed_in)
        for e in sorted(pred_in ^ closed_in):
            side = "predicate" if e in pred_in else "closed_form"
            failures.append(VerifyFailure(
                f"p={p} edge {e[0].value(p)},{e[1].value(p)}",
                "claimed by both constructions", f"only {side}",
            ))
        sig = degree_signature(g)
        dc, df = _gamma_degree_checks(p, sig)
        cases += dc
        failures.extend(df)
        whole = g.discrepancies()
        details[str(p)] = {
            "bounds": list(bounds),
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "interior": len(inner),
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
    order = sorted(g.vertices)
    for k, v in enumerate(order):
        for w in order[k + 1:]:
            cases += 1
            x, y = v.value(2), w.value(2)
            top = is_top(FiniteSubset.of(x, y))
            pred, closed = (v, w) in g.predicate, (v, w) in g.closed
            if not top == pred == closed:
                failures.append(VerifyFailure(
                    f"E={{{x}, {y}}}", f"is_top={top}",
                    f"predicate={pred} closed_form={closed}",
                ))
    sig = degree_signature(g)
    profile = {}
    for v, d in sig.items():
        cases += 1
        want = 2 if v.two_exp == 0 else 3
        profile[str(v.value(2))] = d
        if d != want:
            failures.append(VerifyFailure(f"deg({v.value(2)})", str(want), str(d)))
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

    >>> run_suite("mihailescu", SuiteConfig()).passed
    True
    """
    if name == "all":
        subs = [run_suite(s, cfg) for s in _SUITES]
        failures = tuple(
            VerifyFailure(f"[{r.suite}] {f.inputs}", f.expected, f.actual)
            for r in subs
            for f in r.failures
        )
        return SuiteReport(
            suite="all",
            cases=sum(r.cases for r in subs),
            failures=failures,
            millis=sum(r.millis for r in subs),
            details={"suites": [r.to_json_dict() for r in subs]},
        )
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    t0 = time.perf_counter()
    cases, failures, details = _SUITES[name](cfg)
    millis = (time.perf_counter() - t0) * 1000.0
    return SuiteReport(name, cases, tuple(failures), millis, details)

