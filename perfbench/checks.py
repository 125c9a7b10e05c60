"""Output checkers for the benchmark, written apart from the `kirch` code.

Every checker takes what the program printed (parsed JSON, DOT text)
plus the inputs it was given, recomputes the answer from the paper's
definitions with this module's own arithmetic, and returns a list of
problems; an empty list means the output is correct. Nothing here
imports `kirch`, and nothing compares against a stored copy of an
earlier output.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# Deterministic Miller-Rabin bases: the first twelve primes decide
# every n below 3.3e24, which covers the whole 63-bit range.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL = [p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def is_prime(n: int) -> bool:
    """Strong-probable-prime test to the twelve bases above."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while not odd & 1:
        odd >>= 1
        twos += 1
    for a in _BASES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Pollard-Brent)."""
    rng = random.Random(n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 64
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def prime_factors(n: int) -> set[int]:
    """The primes dividing |n|; empty for units."""
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no finite set of prime factors")
    out: set[int] = set()
    for p in _TRIAL:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.add(m)
        else:
            d = _rho(m)
            stack += [d, m // d]
    return out


def _is_power_of_two(v: int) -> bool:
    return v >= 1 and v & (v - 1) == 0


# --- the invariants (A, Pi, alpha) of a finite set, from the definition

def descriptor(elements) -> tuple[tuple[int, ...], tuple[int, ...], dict[int, int]]:
    """(A, Pi, alpha) of a set of two or more nonzero integers.

    A holds the primes p for which the set fits inside {0, k} + pZ,
    i.e. shows at most one nonzero residue class mod p. Two distinct
    nonzero elements x, y already show two classes mod any p dividing
    none of x, y, x - y, so those three numbers bound the search.
    """
    E = sorted(set(elements))
    x, y = E[0], E[1]
    candidates = prime_factors(x) | prime_factors(y) | prime_factors(x - y)
    A = sorted(p for p in candidates if len({e % p for e in E} - {0}) <= 1)
    g = math.gcd(*E)
    Pi = sorted(prime_factors(g)) if g > 1 else []
    alpha = {}
    for p in A:
        if p == 2:
            alpha[p] = 1
        elif p in Pi:
            alpha[p] = 0
        else:
            (alpha[p],) = {e % p for e in E} - {0}
    return tuple(A), tuple(Pi), alpha


def filter_leq(left, right) -> bool:
    """Whether the filter of E = left lies inside the filter of F = right.

    A singleton {x} is below exactly the sets that hold x, and nothing
    but {x} is below a singleton. For two or more elements on each side
    the invariants decide it: A_F lies inside A_E, the odd part of Pi_F
    inside Pi_E, and alpha_E agrees with alpha_F on A_F outside Pi_E.
    """
    E, F = set(left), set(right)
    if min(len(E), len(F)) == 1:
        return len(E) == 1 and E <= F
    A_E, Pi_E, alpha_E = descriptor(E)
    A_F, Pi_F, alpha_F = descriptor(F)
    return (
        set(A_F) <= set(A_E)
        and set(Pi_F) - {2} <= set(Pi_E)
        and all(alpha_E[p] == alpha_F[p] for p in A_F if p not in Pi_E)
    )


def _descriptor_problems(tag: str, d: dict, elements) -> list[str]:
    problems = certify_prime_set(tag + " Pi", d["Pi"], [math.gcd(*elements)], exact=True)
    E = sorted(set(elements))
    problems += certify_prime_set(tag + " A", d["A"], [E[0], E[1], E[0] - E[1]], exact=False)
    A, Pi, alpha = descriptor(E)
    got_alpha = {int(p): r for p, r in d["alpha"].items()}
    if (tuple(d["A"]), tuple(d["Pi"]), got_alpha) != (A, Pi, alpha):
        problems.append(
            f"{tag}: got A={d['A']} Pi={d['Pi']} alpha={d['alpha']},"
            f" definition gives A={list(A)} Pi={list(Pi)} alpha={alpha}"
        )
    return problems


def certify_prime_set(tag: str, primes, numbers, exact: bool) -> list[str]:
    """Each listed prime is prime and divides one of the numbers; with
    exact=True, dividing them all out of every number leaves +-1."""
    problems = []
    if list(primes) != sorted(set(primes)):
        problems.append(f"{tag}: {primes} is not strictly increasing")
    for p in primes:
        if not is_prime(p):
            problems.append(f"{tag}: {p} is not prime")
        elif not any(n % p == 0 for n in numbers):
            problems.append(f"{tag}: {p} divides none of {numbers}")
    if exact:
        for n in numbers:
            for p in primes:
                while p > 1 and n % p == 0:
                    n //= p
            if abs(n) != 1:
                problems.append(f"{tag}: {primes} leaves cofactor {n}")
    return problems


# --- queries: one checker per CLI subcommand, fed the parsed JSON

def check_ae(argv, out) -> list[str]:
    return _descriptor_problems("ae", out, [int(t) for t in argv])


def check_classify(argv, out) -> list[str]:
    E = sorted({int(t) for t in argv})
    problems = _descriptor_problems("classify", out["descriptor"], E)
    A, Pi, _ = descriptor(E)
    A, Pi = set(A), set(Pi)
    if A == {2}:
        want = "Top"
    elif len(A) == 2:
        want = "FDoublePrime" if (A - {2}) <= Pi else "FPrime"
    elif len(A) == 3 and Pi <= {2}:
        want = "FDoublePrime"
    else:
        want = "Other"
    if out["class"] != want:
        problems.append(f"classify {E}: got {out['class']}, definition gives {want}")
    if want == "FDoublePrime":
        # the FPrime filters above: p - 1 of them when A = {2, p}, one
        # per odd prime of A when A = {2, p, q}
        size = max(A) - 1 if len(A) == 2 else 2
        if len(out["upset"]) != size:
            problems.append(f"classify {E}: upset has {len(out['upset'])} members, not {size}")
        for u in out["upset"]:
            problems += _descriptor_problems("classify upset", u, u["source"])
            if len(u["A"]) != 2 or u["A"][1] in u["Pi"] or u["A"][1] not in A:
                problems.append(f"classify {E}: upset member {u['source']} is not FPrime above")
    return problems


def check_cmp(left, right, out) -> list[str]:
    """Both directions of the order, each worked out from the invariants
    (filter_leq above); on E ; E this is reflexivity."""
    got = (out["e_leq_f"]["holds"], out["f_leq_e"]["holds"])
    want = (filter_leq(left, right), filter_leq(right, left))
    if got != want:
        return [f"cmp {sorted(set(left))} ; {sorted(set(right))}: got {got}, invariants give {want}"]
    return []


def check_closure(a: int, b: int, out) -> list[str]:
    problems = certify_prime_set("closure", out["primes"], [b], exact=True)
    for p in out["primes"]:
        if out["residues"].get(str(p)) != sorted({0, a % p}):
            problems.append(f"closure {a} {b}: residues mod {p} are {out['residues'].get(str(p))}")
    w = out["window"]
    members = [
        z for z in range(-w, w + 1)
        if z and all(z % p == 0 or (z - a) % p == 0 for p in out["primes"])
    ]
    if out["sample"] != members:
        problems.append(f"closure {a} {b}: sample differs from the residue conditions")
    return problems


def check_realize(primes, alpha: dict[int, int], out) -> list[str]:
    got = descriptor(out["set"])
    problems = []
    if list(got[0]) != sorted(primes) or got[2] != alpha:
        problems.append(
            f"realize A={sorted(primes)} alpha={alpha}: {out['set']} has"
            f" A={list(got[0])} alpha={got[2]}"
        )
    return problems


def check_prime_class(p: int, out) -> list[str]:
    fermat, mersenne = _is_power_of_two(p - 1) and p > 2, _is_power_of_two(p + 1)
    if fermat:
        m = (p - 1).bit_length() - 1
    elif mersenne:
        m = (p + 1).bit_length() - 1
    else:
        m = None
    want = {"p": p, "fermat": fermat, "mersenne": mersenne, "m": m}
    return [] if out == want else [f"prime-class {p}: got {out}, want {want}"]


# --- gamma_grid: the graphs Gamma_p

def gamma_vertices(p: int, bounds) -> list[int]:
    max_i, max_j = bounds
    return [s * 2**i * p**j for j in range(1, max_j + 1) for i in range(max_i + 1) for s in (1, -1)]


def _smooth_unit(d: int, p: int) -> bool:
    """Whether d becomes +-1 once every factor 2 and p is divided out."""
    d = abs(d)
    d //= d & -d
    while d % p == 0:
        d //= p
    return d == 1


def gamma_edges(p: int, bounds) -> set[frozenset[int]]:
    """Pairs of vertices whose doubleton has A-set exactly {2, p}: both
    are {2,p}-smooth multiples of p, so this holds exactly when their
    difference has no prime factor besides 2 and p."""
    vs = gamma_vertices(p, bounds)
    return {
        frozenset((x, y))
        for k, x in enumerate(vs)
        for y in vs[k + 1:]
        if _smooth_unit(x - y, p)
    }


def _dot_value(label: str) -> int:
    sign = -1 if label.startswith("-") else 1
    value = 1
    for part in label.lstrip("-").split("*"):
        base, _, exp = part.partition("^")
        value *= int(base) ** int(exp or 1)
    return sign * value


def parse_dot(text: str) -> tuple[set[int], dict[frozenset[int], str]]:
    """Vertex values and edges (value pairs -> style) of a DOT graph."""
    vertices, edges = set(), {}
    for line in text.splitlines():
        line = line.strip().rstrip(";")
        if line.count('"') == 2:
            vertices.add(_dot_value(line.strip('"')))
        elif " -- " in line:
            pair, _, style = line.partition(" [")
            a, b = (s.strip().strip('"') for s in pair.split(" -- "))
            edges[frozenset((_dot_value(a), _dot_value(b)))] = style.rstrip("]")
    return vertices, edges


_STYLE = {"both": "", "predicate": "style=dashed", "closed_form": "style=dotted"}


def check_gamma(p: int, bounds, dot: str, data: dict, truth: set) -> list[str]:
    """truth is gamma_edges(p, bounds), passed in so it is built once."""
    problems = []
    max_i, max_j = bounds
    if len(data["vertices"]) != 2 * (max_i + 1) * max_j:
        problems.append(f"gamma {p} {bounds}: {len(data['vertices'])} vertices")
    if set(data["vertices"]) != set(gamma_vertices(p, bounds)):
        problems.append(f"gamma {p} {bounds}: JSON vertex values differ from the grid")
    json_edges = {
        frozenset(e): tag for tag, es in data["provenance"].items() for e in es
    }
    if {frozenset(e) for e in data["edges"]} != set(json_edges):
        problems.append(f"gamma {p} {bounds}: JSON edges and provenance disagree")
    predicate = {e for e, tag in json_edges.items() if tag != "closed_form"}
    if predicate != truth:
        problems.append(
            f"gamma {p} {bounds}: predicate edges differ from the smooth-difference"
            f" pairs in {len(predicate ^ truth)} places"
        )
    vertices, dot_edges = parse_dot(dot)
    if vertices != set(data["vertices"]):
        problems.append(f"gamma {p} {bounds}: DOT vertices differ from JSON")
    if dot_edges != {e: _STYLE[tag] for e, tag in json_edges.items()}:
        problems.append(f"gamma {p} {bounds}: DOT edges differ from JSON")
    return problems


def check_p3_report(report: dict, truth: set) -> list[str]:
    """The audit of the published p = 3 list against the predicate."""
    pred_only = {frozenset(e) for e in report["predicate_only"]}
    printed_only = {frozenset(e) for e in report["printed_only"]}
    problems = []
    if not pred_only <= truth:
        problems.append("p3 report: a predicate-only pair is not an edge")
    if printed_only & truth:
        problems.append("p3 report: a printed-only pair is an edge")
    if report["agree"] + len(pred_only) != len(truth):
        problems.append(f"p3 report: {report['agree']} + {len(pred_only)} != {len(truth)} edges")
    return problems


# --- verify_all: `kirch verify all --format json` at the default config

def _pairs(n: int) -> int:
    return n * (n - 1) // 2


_ODD = (3, 5, 7, 11, 13)

# case counts derived from each suite's loop bounds at the default
# SuiteConfig (window 2000, graph bounds (9, 5)); order depends on the
# catalog size k and gamma on the graphs' interior edges
EXPECTED_CASES = {
    "closure": 2 * 20 * 20 * 2 * 2000,
    "pair_formula": _pairs(2 * 50),
    "top": _pairs(2 * 64),
    "classify": sum(p + 1 for p in _ODD) + 4 * 2,
    "realize": 1 + sum(_ODD) + sum(p * q for k, p in enumerate(_ODD) for q in _ODD[k + 1:]),
    "ppix": (2 * 200 + 1 - 5) * sum(1 for p in range(3, 51) if is_prime(p)),
    "gamma2": _pairs(2 * 11) + 2 * 10,
    "zsigmondy": 19 * 11,
    "mihailescu": 1,
}
SUITES = (
    "closure", "pair_formula", "order", "top", "classify", "realize",
    "ppix", "gamma", "gamma2", "zsigmondy", "mihailescu",
)
VERIFY_GAMMA_PRIMES = (3, 5, 7, 11, 13, 29, 31)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_same_bytes(digests: list[str], recorded: str | None) -> list[str]:
    """Runs of the same code with the same seed print the same bytes:
    every digest agrees with the others and with the recorded one."""
    if len(set(digests)) > 1:
        return ["verify all: JSON bytes differ between passes"]
    if recorded is not None and digests[0] != recorded:
        return ["verify all: JSON bytes differ from an earlier run with the same seed"]
    return []


def check_verify_all(text: str) -> list[str]:
    """Every suite passes with the case count its loop bounds give."""
    report = json.loads(text)
    problems = []
    if report["failures"]:
        problems.append(f"verify all: {len(report['failures'])} failures")
    subs = {s["suite"]: s for s in report["details"]["suites"]}
    if tuple(subs) != SUITES:
        return problems + [f"verify all: suites {list(subs)}"]
    if report["cases"] != sum(s["cases"] for s in subs.values()):
        problems.append("verify all: total cases is not the sum of the suites")
    want = dict(EXPECTED_CASES)
    order = subs["order"]["details"]
    k = order["descriptors"]
    want["order"] = k * k + k + 400
    if (order["exhaustive_pairs"], order["sampled_pairs"]) != (k * k, 400):
        problems.append(f"verify order: details {order}")
    for name, s in subs.items():
        if s["failures"]:
            problems.append(f"verify {name}: {len(s['failures'])} failures")
        if name in want and s["cases"] != want[name]:
            problems.append(f"verify {name}: {s['cases']} cases, loop bounds give {want[name]}")
    gamma = subs["gamma"]["details"]
    for p in VERIFY_GAMMA_PRIMES:
        bounds = (9, 6) if p == 3 else (9, 5)
        g = gamma[str(p)]
        if g["vertices"] != 2 * 10 * bounds[1]:
            problems.append(f"verify gamma {p}: {g['vertices']} vertices")
        truth = gamma_edges(p, bounds)
        if g["edges"] - g["grid_closed_only"] != len(truth):
            problems.append(f"verify gamma {p}: predicate edge count differs from the grid's")
        if p == 3:
            problems += check_p3_report(gamma["p3_printed"], truth)
    return problems

