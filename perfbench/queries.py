"""The seeded stream of CLI calls that makes up the queries workload.

The stream is cut into rounds of `ROUND_SIZE` calls. Every round has
the make-up `SHARES`, except that the first round of each pass trades
one sieve call for a larger one. Each round is drawn afresh from a
generator seeded by the workload seed and the round number, and
shuffled; no call repeats anywhere in the stream. Each call is a `Query`: the argv handed to
`kirch.cli.main`, its class, and what the checker needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checks import is_prime

ROUND_SIZE = 100
# a pass of the workload is this many rounds, begun at a multiple of it
ROUNDS_PER_PASS = 12
# Calls per round for each query class. The mix is synthetic: kirch has
# no recorded traffic. The small classes fill most of a round, so that
# query_p50_ms is the cost of one ordinary call (parse, compute, render).
# The heavy classes have 2 calls a round, 24 a pass: more than the 11
# successful calls that lie beyond the nearest-rank p99 of a pass's 1188,
# so query_p99_ms falls among them, on a semiprime today, with the sieve
# calls just below. Each heavy share is chosen for that, not observed.
SHARES = {
    "ae": 20,
    "classify": 13,
    "classify_upset": 1,
    "cmp": 12,
    "cmp_reflexive": 4,
    "closure": 14,
    "realize": 14,
    "prime_class": 15,
    "semiprime": 2,
    "sieve": 2,
    "prime62_class": 1,
    "prime62_closure": 1,
    "out_of_range": 1,
}
assert sum(SHARES.values()) == ROUND_SIZE

# balanced semiprimes: both factors in this band, above the 300 000
# bound of the program's trial-division table, so 44-bit products that
# the factorize wheel must split
SEMIPRIME_FACTOR = (3_600_000, 3_800_000)
# sets whose A-bound (largest prime factor of x, y, x - y) lies here:
# past the table, so a_of sieves, at about the cost of a semiprime
SIEVE_PRIME = (320_000, 350_000)
# The first round of every pass has one of its sieve calls here, near
# 10^7, instead. At about 3.7 s and 40 MB it is the pass's slowest call
# and sets its peak memory; with one per pass, and its bound always
# within 2 % of 10^7, peak_rss_mb stays steady.
LARGE_SIEVE_PRIME = (9_800_000, 10_000_000)
# out-of-range values are 2^63 + round: the same on every seed
OUT_OF_RANGE = 2**63
OUT_OF_RANGE_COMMANDS = ("ae", "classify", "cmp", "closure", "prime-class", "realize")
SMALL_ODD_PRIMES = [p for p in range(3, 100) if is_prime(p)]


@dataclass(frozen=True)
class Query:
    kind: str
    argv: tuple[str, ...]
    data: tuple = ()


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.randint(1, bound) * rng.choice((1, -1))


def _small_set(rng: random.Random, bound: int) -> list[int]:
    out: set[int] = set()
    size = rng.randint(2, 3)
    while len(out) < size:
        out.add(_nonzero(rng, bound))
    return sorted(out)


def _make(kind: str, rng: random.Random, round_no: int) -> Query:
    fmt = ("--format", "json")
    if kind in ("ae", "classify"):
        E = _small_set(rng, 10_000)
        return Query(kind, (kind, *fmt, *map(str, E)), tuple(E))
    if kind == "classify_upset":
        # {2^k p, 2^(k+1) p} and {-2^k p, 2^k p} sit in FDoublePrime with
        # A = {2, p}; {x, pq, 2pq} sits there with A = {2, p, q}
        p, q = sorted(rng.sample(SMALL_ODD_PRIMES, 2))
        k, form = rng.randint(0, 40), rng.randrange(4)
        if form == 0:
            E = [2**k * p, 2 ** (k + 1) * p]
        elif form == 1:
            E = [-(2**k) * p, 2**k * p]
        elif form == 2:
            E = [-(2 ** (k + 1)) * p, -(2**k) * p]
        else:
            x = rng.randint(1, 10_000)
            while x % p == 0 or x % q == 0:
                x += 1
            E = [x, p * q, 2 * p * q]
        return Query("classify", ("classify", *fmt, *map(str, E)), tuple(E))
    if kind == "cmp":
        E, F = _small_set(rng, 60), _small_set(rng, 60)
        return Query(kind, ("cmp", *fmt, *map(str, E), ";", *map(str, F)), (tuple(E), tuple(F)))
    if kind == "cmp_reflexive":
        E = _small_set(rng, 10_000)
        return Query("cmp", ("cmp", *fmt, *map(str, E), ";", *map(str, E)), (tuple(E), tuple(E)))
    if kind == "closure":
        a, b = _nonzero(rng, 10**6), rng.randint(1, 10**6)
        return Query(kind, ("closure", *fmt, str(a), str(b)), (a, b))
    if kind == "semiprime":
        b = _random_prime(rng, *SEMIPRIME_FACTOR) * _random_prime(rng, *SEMIPRIME_FACTOR)
        a = _nonzero(rng, 10**6)
        return Query("closure", ("closure", *fmt, str(a), str(b)), (a, b))
    if kind == "prime62_closure":
        b, a = _random_prime(rng, 2**61, 2**62), _nonzero(rng, 10**6)
        return Query("closure", ("closure", *fmt, str(a), str(b)), (a, b))
    if kind in ("sieve", "sieve_large"):
        q = _random_prime(rng, *(SIEVE_PRIME if kind == "sieve" else LARGE_SIEVE_PRIME))
        x = _nonzero(rng, 1000)
        E = sorted({x, x + rng.choice((1, -1)) * q})
        return Query("ae", ("ae", *fmt, *map(str, E)), tuple(E))
    if kind == "realize":
        odd = sorted(rng.sample(SMALL_ODD_PRIMES[:14], rng.randint(0, 3)))
        alpha = {2: 1, **{p: rng.randrange(p) for p in odd}}
        argv = (
            "realize", *fmt, "--A", ",".join(map(str, [2, *odd])),
            "--alpha", ",".join(f"{p}={r}" for p, r in alpha.items()),
        )
        return Query(kind, argv, (tuple([2, *odd]), tuple(alpha.items())))
    if kind == "prime_class":
        p = _random_prime(rng, 3, 10**9)
        return Query(kind, ("prime-class", *fmt, str(p)), (p,))
    if kind == "prime62_class":
        p = _random_prime(rng, 2**61, 2**62)
        return Query("prime_class", ("prime-class", *fmt, str(p)), (p,))
    if kind == "out_of_range":
        big = str(OUT_OF_RANGE + round_no)
        cmd = OUT_OF_RANGE_COMMANDS[round_no % len(OUT_OF_RANGE_COMMANDS)]
        argv = {
            "ae": ("ae", "1", big),
            "classify": ("classify", "1", big),
            "cmp": ("cmp", "1", big, ";", "1", "2"),
            "closure": ("closure", "1", big),
            "prime-class": ("prime-class", big),
            "realize": ("realize", "--A", f"2,{big}", "--alpha", f"2=1,{big}=1"),
        }[cmd]
        return Query(kind, argv)
    raise ValueError(kind)


def rounds(seed: int, first: int, count: int) -> list[list[Query]]:
    """Rounds first .. first+count-1 of the stream for this seed. The
    earlier rounds are drawn too, so that no call repeats one of them."""
    seen: set[tuple[str, ...]] = set()
    out = []
    for round_no in range(first + count):
        rng = random.Random(f"{seed}:{round_no}")
        kinds = [kind for kind, share in SHARES.items() for _ in range(share)]
        if round_no % ROUNDS_PER_PASS == 0:
            kinds[kinds.index("sieve")] = "sieve_large"
        calls = []
        for kind in kinds:
            for _attempt in range(1000):
                q = _make(kind, rng, round_no)
                if q.argv not in seen:
                    break
            else:
                raise RuntimeError(f"no fresh {kind} input left in round {round_no}")
            seen.add(q.argv)
            calls.append(q)
        rng.shuffle(calls)
        if round_no >= first:
            out.append(calls)
    return out
