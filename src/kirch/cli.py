"""Command-line front end.

Every operation is scriptable: data goes to stdout, diagnostics to
stderr, and the exit status is 0 for success, 1 for a verification
failure, 2 for unusable input. --format json emits one parseable
object per invocation with the same content as the text rendering.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .filters import (
    FilterClass,
    FiniteSubset,
    classify,
    descriptor,
    filter_leq,
    order_oracle,
    upset_in_fprime,
    realize,
)
from .graphs import build_gamma, emit_dot, graph_json_dict
from .numtheory import classify_prime
from .topology import Progression, Window, closure
from .verify import _SUITES, SuiteConfig, run_suite

_SUITE_NAMES = (*_SUITES, "all")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors take one stderr line, as every other
    refusal does; --help still prints the usage."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kirch",
        description="progressions, filters and prime-power graphs over the nonzero integers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, formats=("text", "json")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=formats, default="text",
                       help="output rendering")
        return p

    p = add("closure", "closure of the progression a + bZ")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--window", type=int, default=50,
                   help="half-width of the sample of members printed")

    p = add("ae", "invariants A, Pi and alpha of a finite set")
    p.add_argument("elements", type=int, nargs="+")

    p = add("cmp", "compare the filters of two sets, given as E ; F")
    p.add_argument("items", nargs="+",
                   help="elements of E, a literal ';', elements of F")

    p = add("classify", "place a set's filter in the hierarchy")
    p.add_argument("elements", type=int, nargs="+")

    p = add("realize", "build a set with prescribed invariants")
    p.add_argument("--A", required=True, help="comma-separated primes, e.g. 2,5")
    p.add_argument("--alpha", required=True,
                   help="comma-separated residue choices, e.g. 2=1,5=2")

    p = add("gamma", "emit the prime-power graph (DOT by default; text is DOT too)",
            formats=("text", "json", "dot"))
    p.add_argument("p", type=int)
    p.add_argument("--bounds", default="9,5",
                   help="exponent bounds i,j (for p=2 only i is used)")

    p = add("prime-class", "Fermat/Mersenne class of a prime")
    p.add_argument("p", type=int)

    defaults = SuiteConfig()
    p = add("verify", "run a verification suite")
    p.add_argument("suite", choices=_SUITE_NAMES)
    p.add_argument("--bounds", default="%d,%d" % defaults.graph_bounds,
                   help="exponent bounds i,j of gamma (Gamma_3 gets one more row) "
                        "and gamma2 (which uses i + 1)")
    p.add_argument("--seed", type=int, default=defaults.seed,
                   help="seed of order's sampled pairs")
    p.add_argument("--max-element", type=int, default=None,
                   help="the bound that closure, pair_formula, order, top and ppix "
                        "range over; each keeps its own default when omitted")
    return parser


def _parse_bounds(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bounds must be two integers i,j, got {text!r}")
    return int(parts[0]), int(parts[1])


def _write(text: str, end: str = "\n") -> None:
    """Print and flush text. Once the reader of stdout has gone (as
    after `| head -1`), stdout points at the null device, and the
    command keeps its own exit status."""
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _emit(ns, payload: dict, text: str) -> None:
    _write(json.dumps(payload, sort_keys=True) if ns.format == "json" else text)


def _cmd_closure(ns) -> int:
    prog = Progression(ns.a, ns.b)
    cs = closure(prog)
    w = Window(ns.window)
    sample = cs.sample(w)
    residues = {p: sorted(cs.residues_mod(p)) for p in cs.modulus_primes}
    lines = [str(cs)]
    for p in sorted(residues):
        lines.append(f"  mod {p}: {{{', '.join(map(str, residues[p]))}}}")
    shown = ", ".join(map(str, sample[:20]))
    more = ", ..." if len(sample) > 20 else ""
    lines.append(f"  members in [-{w.W}, {w.W}]: {shown}{more}")
    payload = {
        "a": prog.a,
        "b": prog.b,
        "primes": list(cs.modulus_primes),
        "residues": {str(p): rs for p, rs in residues.items()},
        "window": w.W,
        "sample": sample,
    }
    _emit(ns, payload, "\n".join(lines))
    return 0


def _cmd_ae(ns) -> int:
    d = descriptor(FiniteSubset.of(*ns.elements))
    _emit(ns, d.to_json_dict(), str(d))
    return 0


def _one_direction(E: FiniteSubset, F: FiniteSubset) -> dict:
    holds = filter_leq(E, F)
    if min(len(E), len(F)) == 1:
        return {"holds": holds, "rule": "singleton containment", "witness": None}
    info = {"holds": holds, "rule": "descriptor comparison", "witness": None}
    if not holds:
        _, witness = order_oracle(E, F)
        if witness is not None:
            info["witness"] = {
                "prime": witness.prime,
                "element": witness.element,
                "reason": witness.reason,
            }
    return info


def _cmd_cmp(ns) -> int:
    items = list(ns.items)
    if ";" not in items:
        raise ValueError("separate the two sets with a literal ';'")
    cut = items.index(";")
    left, right = items[:cut], items[cut + 1:]
    if not left or not right or ";" in right:
        raise ValueError("usage: cmp e1 e2 ... ; f1 f2 ...")
    E = FiniteSubset.of(*[int(t) for t in left])
    F = FiniteSubset.of(*[int(t) for t in right])
    ef = _one_direction(E, F)
    fe = _one_direction(F, E)
    lines = [f"E={E} F={F}"]
    for tag, info in (("E <= F", ef), ("F <= E", fe)):
        note = f" (rule: {info['rule']})"
        if info["witness"]:
            wt = info["witness"]
            note = (
                f" (rule: {info['rule']}; {wt['reason']} at {wt['prime']};"
                f" escaping element {wt['element']})"
            )
        lines.append(f"{tag}: {str(info['holds']).lower()}{note}")
    payload = {
        "E": list(E.elements),
        "F": list(F.elements),
        "e_leq_f": ef,
        "f_leq_e": fe,
    }
    _emit(ns, payload, "\n".join(lines))
    return 0


def _cmd_classify(ns) -> int:
    E = FiniteSubset.of(*ns.elements)
    cls = classify(E)
    d = descriptor(E)
    payload = {"class": str(cls), "descriptor": d.to_json_dict(), "upset": None}
    lines = [str(cls), f"  {d}"]
    if cls is FilterClass.F_DOUBLE_PRIME:
        up = upset_in_fprime(E)
        payload["upset"] = [u.to_json_dict() for u in up]
        lines.append(f"  upset: {len(up)} descriptors")
        for u in up:
            lines.append(f"    {u}")
    _emit(ns, payload, "\n".join(lines))
    return 0


def _cmd_realize(ns) -> int:
    primes = [int(t) for t in ns.A.split(",") if t]
    entries = {}
    for part in ns.alpha.split(","):
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"alpha entries look like p=r, got {part!r}")
        p, r = (int(t) for t in part.split("=", 1))
        if p in entries:
            raise ValueError(f"alpha gives prime {p} twice")
        entries[p] = r
    E = realize(primes, entries)
    payload = {
        "A": sorted(set(primes)),
        "alpha": {str(p): r for p, r in entries.items()},
        "set": list(E.elements),
    }
    _emit(ns, payload, str(E))
    return 0


def _cmd_gamma(ns) -> int:
    max_i, max_j = _parse_bounds(ns.bounds)
    g = build_gamma(ns.p, (max_i, 0) if ns.p == 2 else (max_i, max_j))
    if ns.format == "json":
        _write(json.dumps(graph_json_dict(g), sort_keys=True))
    else:
        _write(emit_dot(g), end="")
    return 0


def _cmd_prime_class(ns) -> int:
    cls = classify_prime(ns.p)
    text = str(cls) if cls.m is None else f"{cls} (m={cls.m})"
    payload = {
        "p": ns.p,
        "fermat": cls.is_fermat,
        "mersenne": cls.is_mersenne,
        "m": cls.m,
    }
    _emit(ns, payload, text)
    return 0


def _cmd_verify(ns) -> int:
    cfg = SuiteConfig(
        max_element=ns.max_element,
        graph_bounds=_parse_bounds(ns.bounds),
        seed=ns.seed,
    )
    report = run_suite(ns.suite, cfg)
    _write(json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
           if ns.format == "json" else report.render_text())
    return 0 if report.passed else 1


_COMMANDS = {
    "closure": _cmd_closure,
    "ae": _cmd_ae,
    "cmp": _cmd_cmp,
    "classify": _cmd_classify,
    "realize": _cmd_realize,
    "gamma": _cmd_gamma,
    "prime-class": _cmd_prime_class,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except (ValueError, OverflowError) as e:
        print(f"kirch {ns.command}: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
