"""Command-line front end.

Every operation is scriptable: data goes to stdout, diagnostics to
stderr, and the exit status is 0 for success, 1 for a verification
failure, 2 for unusable input. --format json emits one parseable
object per invocation with the same content as the text rendering.
Each command builds only the rendering that --format asks for, and
compact JSON goes through the one encoder `_JSON`. `cmp` reads both
directions off one _DescriptorIndex over its two sets, so it builds
one descriptor per set where two filter_leq calls would build two.

One table, `_COMMANDS`, gives each command's handler and arguments. A
plain call is read straight off it; help, abbreviations, `--opt=value`
and every usage error go through the argparse parser built from it,
so their text is argparse's own.

Each call loads only the modules its command runs. Importing this
module loads numtheory, filters and topology, which the query commands
(closure, ae, cmp, classify, realize, prime-class) need; `gamma` loads
graphs, `verify` loads verify and, through its top, gamma and gamma2
suites, graphs, and only a call that is not plain loads argparse.
Without a bytecode cache each module is compiled on every call.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import types

from .filters import (
    FilterClass,
    FiniteSubset,
    _DescriptorIndex,
    _layer,
    descriptor,
    filter_leq,
    order_oracle,
    upset_in_fprime,
    realize,
)
from .numtheory import classify_prime
from .topology import Progression, closure

# verify._SUITES and "all", written out so that the table below needs
# no import of verify; tests/test_imports.py holds the two equal
_SUITE_NAMES = ("closure", "pair_formula", "order", "top", "classify", "realize",
                "ppix", "gamma", "gamma2", "zsigmondy", "mihailescu", "all")
# one encoder for every call: json.dumps would build a new one each time
_JSON = json.JSONEncoder(sort_keys=True)


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


def _cmd_closure(ns) -> int:
    prog = Progression(ns.a, ns.b)
    cs = closure(prog)
    sample = cs.sample(ns.window)
    residues = {p: sorted(cs.residues_mod(p)) for p in cs.modulus_primes}
    if ns.format == "json":
        _write(_JSON.encode({
            "a": prog.a,
            "b": prog.b,
            "primes": list(cs.modulus_primes),
            "residues": {str(p): rs for p, rs in residues.items()},
            "window": ns.window,
            "sample": sample,
        }))
        return 0
    lines = [str(cs)]
    for p in sorted(residues):
        lines.append(f"  mod {p}: {{{', '.join(map(str, residues[p]))}}}")
    shown = ", ".join(map(str, sample[:20]))
    more = ", ..." if len(sample) > 20 else ""
    lines.append(f"  members in [-{ns.window}, {ns.window}]: {shown}{more}")
    _write("\n".join(lines))
    return 0


def _cmd_ae(ns) -> int:
    d = descriptor(FiniteSubset.of(*ns.elements))
    _write(_JSON.encode(d.to_json_dict()) if ns.format == "json" else str(d))
    return 0


def _one_direction(E: FiniteSubset, F: FiniteSubset, holds: bool) -> dict:
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
    if min(len(E), len(F)) == 1:
        holds = filter_leq(E, F), filter_leq(F, E)
    else:
        # filter_leq's comparison, both ways from one descriptor per set
        dE, dF = descriptor(E), descriptor(F)
        index = _DescriptorIndex([dE, dF])
        holds = bool(index.column(dF) & 1), bool(index.column(dE) & 2)
    ef, fe = _one_direction(E, F, holds[0]), _one_direction(F, E, holds[1])
    if ns.format == "json":
        _write(_JSON.encode({
            "E": list(E.elements),
            "F": list(F.elements),
            "e_leq_f": ef,
            "f_leq_e": fe,
        }))
        return 0
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
    _write("\n".join(lines))
    return 0


def _cmd_classify(ns) -> int:
    E = FiniteSubset.of(*ns.elements)
    d = descriptor(E)
    cls = _layer(d)
    up = upset_in_fprime(E) if cls is FilterClass.F_DOUBLE_PRIME else None
    if ns.format == "json":
        _write(_JSON.encode({
            "class": str(cls),
            "descriptor": d.to_json_dict(),
            "upset": None if up is None else [u.to_json_dict() for u in up],
        }))
        return 0
    lines = [str(cls), f"  {d}"]
    if up is not None:
        lines.append(f"  upset: {len(up)} descriptors")
        for u in up:
            lines.append(f"    {u}")
    _write("\n".join(lines))
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
    if ns.format == "json":
        _write(_JSON.encode({
            "A": sorted(set(primes)),
            "alpha": {str(p): r for p, r in entries.items()},
            "set": list(E.elements),
        }))
    else:
        _write(str(E))
    return 0


def _cmd_gamma(ns) -> int:
    from .graphs import build_gamma, emit_dot, graph_json_dict

    max_i, max_j = _parse_bounds(ns.bounds)
    g = build_gamma(ns.p, (max_i, 0) if ns.p == 2 else (max_i, max_j))
    if ns.format == "json":
        _write(_JSON.encode(graph_json_dict(g)))
    else:
        _write(emit_dot(g), end="")
    return 0


def _cmd_prime_class(ns) -> int:
    cls = classify_prime(ns.p)
    if ns.format == "json":
        _write(_JSON.encode({
            "p": ns.p,
            "fermat": cls.is_fermat,
            "mersenne": cls.is_mersenne,
            "m": cls.m,
        }))
    else:
        _write(str(cls) if cls.m is None else f"{cls} (m={cls.m})")
    return 0


def _cmd_verify(ns) -> int:
    from .verify import SuiteConfig, run_suite

    cfg = SuiteConfig(
        max_element=ns.max_element,
        graph_bounds=_parse_bounds(ns.bounds),
        seed=ns.seed,
    )
    report = run_suite(ns.suite, cfg)
    _write(json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
           if ns.format == "json" else report.render_text())
    return 0 if report.passed else 1


def _command(run, help_text, *arguments):
    """A row of the command table: the handler, the help text, and each
    argument as its flag and the keyword arguments of argparse's
    add_argument, --format first."""
    rendering = ("--format", {"choices": ("text", "json"), "default": "text",
                              "help": "output rendering"})
    return run, help_text, (rendering, *arguments)


# Both the argparse parser and the plain parse read this table. Every
# option has one flag, and a positional with nargs="+" comes last.
_COMMANDS = {
    "closure": _command(
        _cmd_closure, "closure of the progression a + bZ",
        ("a", {"type": int}),
        ("b", {"type": int}),
        ("--window", {"type": int, "default": 50,
                      "help": "half-width of the sample of members printed"}),
    ),
    "ae": _command(
        _cmd_ae, "invariants A, Pi and alpha of a finite set",
        ("elements", {"type": int, "nargs": "+"}),
    ),
    "cmp": _command(
        _cmd_cmp, "compare the filters of two sets, given as E ; F",
        ("items", {"nargs": "+",
                   "help": "elements of E, a literal ';', elements of F"}),
    ),
    "classify": _command(
        _cmd_classify, "place a set's filter in the hierarchy",
        ("elements", {"type": int, "nargs": "+"}),
    ),
    "realize": _command(
        _cmd_realize, "build a set with prescribed invariants",
        ("--A", {"required": True, "help": "comma-separated primes, e.g. 2,5"}),
        ("--alpha", {"required": True,
                     "help": "comma-separated residue choices, e.g. 2=1,5=2"}),
    ),
    "gamma": _command(
        _cmd_gamma, "emit the prime-power graph: DOT as text, or JSON",
        ("p", {"type": int}),
        ("--bounds", {"default": "9,5",
                      "help": "exponent bounds i,j (for p=2 only i is used)"}),
    ),
    "prime-class": _command(
        _cmd_prime_class, "Fermat/Mersenne class of a prime",
        ("p", {"type": int}),
    ),
    "verify": _command(
        _cmd_verify, "run a verification suite",
        ("suite", {"choices": _SUITE_NAMES}),
        # SuiteConfig()'s graph_bounds and seed, as tests/test_imports.py checks
        ("--bounds", {"default": "9,5",
                      "help": "exponent bounds i,j of gamma (Gamma_3 gets one more row) "
                              "and gamma2 (which uses i + 1)"}),
        ("--seed", {"type": int, "default": 7,
                    "help": "seed of order's sampled pairs"}),
        ("--max-element", {"type": int, "default": None,
                           "help": "the bound that closure, pair_formula, order, top and "
                                   "ppix range over; each keeps its own default when omitted"}),
    ),
}


@functools.cache
def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        """A parser whose usage errors take one stderr line, as every
        other refusal does; --help still prints the usage. The top-level
        parser's `commands` maps each command's name to that command's
        parser."""

        def error(self, message):
            self.exit(2, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="kirch",
        description="progressions, filters and prime-power graphs over the nonzero integers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    parser.commands = sub.choices
    return parser


# argparse reads these as positionals too, since no option here looks
# like a negative number
_NEGATIVE_INT = re.compile(r"-\d+$")


def _is_positional(arg: str) -> bool:
    return arg[:1] != "-" or _NEGATIVE_INT.match(arg) is not None


def _value(kwargs: dict, text: str):
    value = kwargs["type"](text) if "type" in kwargs else text
    if "choices" in kwargs and value not in kwargs["choices"]:
        raise ValueError(f"{value!r} is not a choice")
    return value


def _plain_table(arguments) -> tuple:
    """Options by flag as (dest, kwargs), positionals, defaults by dest, required flags."""
    options = {flag: (flag.lstrip("-").replace("-", "_"), kw)
               for flag, kw in arguments if flag[0] == "-"}
    positionals = [(name, kw) for name, kw in arguments if name[0] != "-"]
    defaults = {dest: kw.get("default") for dest, kw in options.values()}
    required = {flag for flag, (_, kw) in options.items() if kw.get("required")}
    return options, positionals, defaults, required


_PLAIN_TABLES = {name: _plain_table(arguments) for name, (_, _, arguments) in _COMMANDS.items()}


def _plain(argv: list[str]) -> types.SimpleNamespace | None:
    """A namespace with the attributes argparse gives a plain call,
    read off the command table; None for any other call.

    A plain call is an exact command name, then `--option value` pairs
    with exact option strings before or after one contiguous block of
    positionals, every value and positional either free of a leading
    "-" or a negative integer, each converted by its `type` and within
    its `choices`, with each required option and each positional given.
    """
    if not argv or argv[0] not in _PLAIN_TABLES:
        return None
    options, positionals, defaults, required = _PLAIN_TABLES[argv[0]]
    ns = {"command": argv[0], **defaults}
    missing = set(required)
    block, closed = [], False
    rest = iter(argv[1:])
    try:
        for arg in rest:
            if _is_positional(arg):
                if closed:
                    return None
                block.append(arg)
                continue
            value = next(rest, "-")
            if arg not in options or not _is_positional(value):
                return None
            dest, kw = options[arg]
            ns[dest] = _value(kw, value)
            missing.discard(arg)
            closed = bool(block)
        for name, kw in positionals:
            if not block:
                return None
            if kw.get("nargs") == "+":
                ns[name] = [_value(kw, text) for text in block]
                block = []
            else:
                ns[name] = _value(kw, block.pop(0))
    except ValueError:
        return None
    return None if block or missing else types.SimpleNamespace(**ns)


def _parse(argv: list[str]):
    ns = _plain(argv)
    return ns if ns is not None else _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status.

    A plain call (see `_plain`) is read straight off the command table
    and builds no parser. Any other call, help and every usage error
    among them, goes through the argparse parser built from the same
    table, so its help and messages are argparse's own.
    """
    try:
        ns = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return _COMMANDS[ns.command][0](ns)
    except (ValueError, OverflowError) as e:
        print(f"kirch {ns.command}: {e}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
