"""Named verification suites.

Each suite pits a closed-form statement against its definitional
oracle over an exhaustive catalog, collecting mismatches as explicit
failures. Reports are deterministic: catalogs enumerate in canonical
order, any sampling is driven by the configured seed, and the JSON
rendering carries no wall-clock data.

The harness can also sabotage itself: run_suite accepts a fault name
that swaps in a deliberately broken closed form, which the matching
suite must then catch. That keeps "zero failures" falsifiable.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from .filters import (
    AlphaMap,
    FilterClass,
    FilterDescriptor,
    FiniteSubset,
    PrimeSet,
    _descriptor_leq,
    _order_failure,
    _order_witness,
    a_of,
    a_of_pair_formula,
    alpha_of,
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
    gamma2,
    interior_vertices,
    printed_p3_report,
)
from .numtheory import (
    consecutive_power_pairs,
    prime_divisors,
    primes_upto,
    zsigmondy_closed_form,
    zsigmondy_is_exception,
)
from .topology import Progression, closure, closure_oracle_member

FAULTS = ("pair_formula_drop_difference", "order_skip_alpha")


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
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.max_element is not None and self.max_element < 1:
            raise ValueError("max_element must be positive")
        if min(self.graph_bounds) < 0:
            raise ValueError("graph bounds must be nonnegative")


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


def _suite_closure(cfg: SuiteConfig, fault: str | None):
    bound = cfg.max_element if cfg.max_element is not None else 20
    w = cfg.window
    failures = []
    cases = 0
    for a in range(-bound, bound + 1):
        if a == 0:
            continue
        for b in range(1, bound + 1):
            prog = Progression(a, b)
            cs = closure(prog)
            d_bound = max(210, math.prod(prime_divisors(b)))
            for z in range(-w, w + 1):
                if z == 0:
                    continue
                cases += 1
                lhs = z in cs
                rhs = closure_oracle_member(z, prog, d_bound)
                if lhs != rhs:
                    failures.append(VerifyFailure(
                        f"a={a} b={b} z={z}", f"oracle={rhs}", f"formula={lhs}"
                    ))
    return cases, failures, {"progressions": 2 * bound * bound, "window": w}


def _suite_pair_formula(cfg: SuiteConfig, fault: str | None):
    bound = cfg.max_element if cfg.max_element is not None else 50
    vals = [v for v in range(-bound, bound + 1) if v != 0]
    failures = []
    cases = 0
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            cases += 1
            if fault == "pair_formula_drop_difference":
                got = prime_divisors(x).union(prime_divisors(y)).as_set()
            else:
                got = a_of_pair_formula(x, y).as_set()
            # every qualifying prime divides x, y or x-y, so none
            # exceeds the largest of their magnitudes
            want = {
                p for p in primes_upto(max(abs(x), abs(y), abs(x - y)))
                if len({x % p, y % p} - {0}) <= 1
            }
            if got != want:
                failures.append(VerifyFailure(
                    f"x={x} y={y}", f"A={sorted(want)}", f"formula={sorted(got)}"
                ))
    return cases, failures, {"values": len(vals)}


def _order_catalog(bound: int) -> list[FilterDescriptor]:
    """One descriptor per filter among all two- and three-element sets.

    Built with the uncached descriptor function, so the tens of
    thousands of subsets it scans do not stay in descriptor's cache.
    """
    from itertools import combinations

    vals = [v for v in range(-bound, bound + 1) if v != 0]
    reps: dict = {}
    for size in (2, 3):
        for combo in combinations(vals, size):
            d = descriptor.__wrapped__(FiniteSubset(combo))
            reps.setdefault(d.canonical_key(), d)
    return list(reps.values())


def _suite_order(cfg: SuiteConfig, fault: str | None):
    bound = cfg.max_element if cfg.max_element is not None else 30
    descs = _order_catalog(bound)
    reps = [d.source for d in descs]
    k = len(descs)
    failures = []
    cases = 0

    leq = _descriptor_leq
    if fault == "order_skip_alpha":
        def leq(dE, dF):
            return dF._a_set <= dE._a_set and (
                dF._pi_set - {2} <= dE._pi_set
            )

    # witnesses_of[j] holds the escaping elements already built for
    # column F_j, keyed by their extra congruence
    witnesses_of = [{} for _ in descs]
    rows = [0] * k
    for i, dE in enumerate(descs):
        row = 0
        for j, dF in enumerate(descs):
            closed = leq(dE, dF)
            failure = _order_failure(dE, dF)
            oracle = failure is None
            if failure is not None:
                _order_witness(dE, dF, failure, witnesses_of[j])
            if closed != oracle:
                failures.append(VerifyFailure(
                    f"E={reps[i]} F={reps[j]}", f"oracle={oracle}", f"closed={closed}"
                ))
            if closed:
                row |= 1 << j
        rows[i] = row
    cases += k * k

    law_failures = []
    for i in range(k):
        if not rows[i] >> i & 1:
            law_failures.append(VerifyFailure(f"E={reps[i]}", "E<=E", "false"))
        row = rows[i]
        j = 0
        rest = row
        while rest:
            if rest & 1:
                if rows[j] & ~row:
                    law_failures.append(VerifyFailure(
                        f"E={reps[i]} F={reps[j]}",
                        "transitive closure inside row", "escape"
                    ))
                if j != i and rows[j] >> i & 1:
                    law_failures.append(VerifyFailure(
                        f"E={reps[i]} F={reps[j]}",
                        "antisymmetry up to canonical equality", "mutual order"
                    ))
            rest >>= 1
            j += 1
    cases += k  # one law audit per catalog row

    rng = random.Random(cfg.seed)
    sample_bound = max(bound, 50)
    sampled = 0
    while sampled < 400:
        size = rng.randint(2, 4)
        elems = set()
        while len(elems) < size:
            v = rng.randint(-sample_bound, sample_bound)
            if v:
                elems.add(v)
        E = FiniteSubset(tuple(sorted(elems)))
        size = rng.randint(2, 4)
        elems = set()
        while len(elems) < size:
            v = rng.randint(-sample_bound, sample_bound)
            if v:
                elems.add(v)
        F = FiniteSubset(tuple(sorted(elems)))
        sampled += 1
        cases += 1
        closed = leq(descriptor(E), descriptor(F))
        oracle = order_oracle(E, F)[0]
        if closed != oracle:
            failures.append(VerifyFailure(
                f"sampled E={E} F={F}", f"oracle={oracle}", f"closed={closed}"
            ))

    failures.extend(law_failures)
    details = {"descriptors": k, "exhaustive_pairs": k * k, "sampled_pairs": sampled}
    return cases, failures, details


def _suite_top(cfg: SuiteConfig, fault: str | None):
    bound = cfg.max_element if cfg.max_element is not None else 64
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
    cases = 0
    for i, x in enumerate(vals):
        for y in vals[i + 1:]:
            cases += 1
            got = is_top(FiniteSubset.of(x, y))
            want = frozenset({x, y}) in listed
            if got != want:
                failures.append(VerifyFailure(
                    f"E={{{x}, {y}}}", f"listed={want}", f"is_top={got}"
                ))
    return cases, failures, {"values": len(vals), "listed_doubletons": len(listed)}


def _suite_classify(cfg: SuiteConfig, fault: str | None):
    failures = []
    cases = 0
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            cases += 1
            got = classify(FiniteSubset.of(a, p, 2 * p))
            if got is not FilterClass.F_PRIME:
                failures.append(VerifyFailure(
                    f"E={{{a}, {p}, {2 * p}}}", "FPrime", str(got)
                ))
        cases += 1
        E = FiniteSubset.of(p, 2 * p)
        got = classify(E)
        if got is not FilterClass.F_DOUBLE_PRIME:
            failures.append(VerifyFailure(f"E={E}", "FDoublePrime", str(got)))
            continue
        up = upset_in_fprime(E)
        cases += 1
        if len(up) != p - 1:
            failures.append(VerifyFailure(
                f"upset({E})", f"{p - 1} descriptors", f"{len(up)}"
            ))
    for p, q, x in ((3, 5, 1), (3, 5, 2), (3, 7, 2), (5, 7, 1)):
        E = FiniteSubset.of(x, p * q, 2 * p * q)
        cases += 1
        got = classify(E)
        if got is not FilterClass.F_DOUBLE_PRIME:
            failures.append(VerifyFailure(f"E={E}", "FDoublePrime", str(got)))
            continue
        up = upset_in_fprime(E)
        cases += 1
        if len(up) != 2:
            failures.append(VerifyFailure(
                f"upset({E})", "2 descriptors", f"{len(up)}"
            ))
    return cases, failures, {}


def _suite_realize(cfg: SuiteConfig, fault: str | None):
    from itertools import combinations, product

    odd = (3, 5, 7, 11, 13)
    a_sets = [()]
    a_sets += [(p,) for p in odd]
    a_sets += list(combinations(odd, 2))
    failures = []
    cases = 0
    for rest in a_sets:
        A = PrimeSet.of(2, *rest)
        residue_spaces = [range(p) for p in rest]
        for residues in product(*residue_spaces):
            alpha = AlphaMap.of({2: 1, **dict(zip(rest, residues))})
            cases += 1
            E = realize(A, alpha)
            got_a = a_of(E)
            got_alpha = alpha_of(E)
            if got_a.is_all or got_a.as_set() != A.as_set() or (
                got_alpha.as_dict() != alpha.as_dict()
            ):
                failures.append(VerifyFailure(
                    f"A={A} alpha={alpha}",
                    "roundtrip recovery",
                    f"E={E} A={got_a} alpha={got_alpha}",
                ))
    return cases, failures, {"a_sets": len(a_sets)}


def _suite_ppix(cfg: SuiteConfig, fault: str | None):
    bound = cfg.max_element if cfg.max_element is not None else 200
    failures = []
    cases = 0
    odd_primes = [p for p in primes_upto(50) if p != 2]
    for x in range(-bound, bound + 1):
        if x in (-2, -1, 0, 1, 2):
            continue
        for p in odd_primes:
            cases += 1
            got = divides_via_filters(x, p)
            want = x % p == 0
            if got != want:
                failures.append(VerifyFailure(
                    f"x={x} p={p}", f"divides={want}", f"filters={got}"
                ))
    return cases, failures, {"primes": len(odd_primes)}


def _gamma_degree_checks(p: int, g, sig) -> tuple[int, list[VerifyFailure]]:
    failures = []
    cases = 0
    if p == 3:
        for v, d in sig.items():
            cases += 1
            want_eight = (v.two_exp, v.p_exp) == (0, 1)
            if want_eight and d != 8:
                failures.append(VerifyFailure(f"deg({v.value(3)})", "8", str(d)))
            if not want_eight and d < 9:
                failures.append(VerifyFailure(f"deg({v.value(3)})", ">=9", str(d)))
    elif p in (5, 7, 31):
        for v, d in sig.items():
            cases += 1
            want_four = (v.two_exp, v.p_exp) == (0, 1)
            if want_four and d != 4:
                failures.append(VerifyFailure(f"deg({v.value(p)})", "4", str(d)))
            if not want_four and d < 5:
                failures.append(VerifyFailure(f"deg({v.value(p)})", ">=5", str(d)))
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


def _suite_gamma(cfg: SuiteConfig, fault: str | None):
    failures = []
    cases = 0
    details: dict = {}
    for p in (3, 5, 7, 11, 13, 29, 31):
        bounds = (cfg.graph_bounds[0], cfg.graph_bounds[1] + 1) if p == 3 else cfg.graph_bounds
        g = build_gamma(p, bounds)
        inner = set(interior_vertices(g))
        pred_in = {e for e in g.predicate_edges() if e[0] in inner and e[1] in inner}
        closed_in = {e for e in g.closed_edges() if e[0] in inner and e[1] in inner}
        cases += len(pred_in | closed_in)
        for e in sorted(pred_in ^ closed_in,
                        key=lambda e: (e[0].grid_key(), e[1].grid_key())):
            side = "predicate" if e in pred_in else "closed_form"
            failures.append(VerifyFailure(
                f"p={p} edge {e[0].value(p)},{e[1].value(p)}",
                "claimed by both constructions", f"only {side}",
            ))
        sig = degree_signature(g)
        dc, df = _gamma_degree_checks(p, g, sig)
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
    details["p3_printed"] = printed_p3_report(
        (cfg.graph_bounds[0], cfg.graph_bounds[1] + 1)
    )
    return cases, failures, details


def _suite_gamma2(cfg: SuiteConfig, fault: str | None):
    max_exp = cfg.graph_bounds[0] + 1
    g = gamma2(max_exp)  # builds only if every pair agrees with is_top
    sig = degree_signature(g)
    failures = []
    cases = len(g.vertices) * (len(g.vertices) - 1) // 2
    profile = {}
    for v, d in sig.items():
        cases += 1
        want = 2 if v.two_exp == 0 else 3
        profile[str(v.value(2))] = d
        if d != want:
            failures.append(VerifyFailure(f"deg({v.value(2)})", str(want), str(d)))
    details = {"max_exp": max_exp, "profile": dict(sorted(profile.items()))}
    return cases, failures, details


def _suite_zsigmondy(cfg: SuiteConfig, fault: str | None):
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


def _suite_mihailescu(cfg: SuiteConfig, fault: str | None):
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


def run_suite(name: str, cfg: SuiteConfig, fault: str | None = None) -> SuiteReport:
    """Run one named suite, or all of them merged in fixed order.

    >>> run_suite("mihailescu", SuiteConfig()).passed
    True
    """
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}")
    if name == "all":
        subs = [run_suite(s, cfg, fault) for s in _SUITES]
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
    cases, failures, details = _SUITES[name](cfg, fault)
    millis = (time.perf_counter() - t0) * 1000.0
    return SuiteReport(name, cases, tuple(failures), millis, details)

