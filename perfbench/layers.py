"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of each `kirch` module and
rebinds every name under which a `kirch` module holds them, so calls
between modules go through the wrappers too. Each call is a span
(name, start, end, parent). The first `KEEP_SPANS` spans at depth one
or two are kept in memory and written out with the totals; the rest,
which number in the tens of millions on verify_all, are folded into
per-name totals when they close. A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time

from checks import SUITES

KEEP_DEPTH = 2
KEEP_SPANS = 20_000

# (module, attribute, span name); an attribute the program no longer
# has is skipped and its metrics read 0
TARGETS = (
    ("numtheory", "factorize", "numtheory.factorize"),
    ("numtheory", "is_prime", "numtheory.is_prime"),
    ("numtheory", "primes_upto", "numtheory.primes_upto"),
    ("numtheory", "crt_solve", "numtheory.crt_solve"),
    ("numtheory", "small_primes", "numtheory.small_primes"),
    ("topology", "closure", "topology.closure"),
    ("topology", "closure_oracle_member", "topology.closure_oracle_member"),
    ("filters", "descriptor", "filters.descriptor"),
    ("filters", "a_of", "filters.a_of"),
    ("filters", "a_of_pair_formula", "filters.a_of_pair_formula"),
    ("filters", "filter_leq", "filters.filter_leq"),
    ("filters", "order_oracle", "filters.order_oracle"),
    ("graphs", "build_gamma", "graphs.build_gamma"),
    ("graphs", "closed_form_edges", "graphs.closed_form_edges"),
    ("graphs", "printed_p3_report", "graphs.printed_p3_report"),
    ("graphs", "emit_dot", "graphs.emit"),
    ("graphs", "graph_json_dict", "graphs.emit"),
    ("cli", "main", "cli.main"),
)
# lru-cached functions whose cache statistics are reported
CACHED = (
    ("numtheory", "factorize", "numtheory.factorize"),
    ("numtheory", "prime_divisors", "numtheory.prime_divisors"),
    ("filters", "descriptor", "filters.descriptor"),
)


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.index: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        # open spans: [name index, start, child time, kept-span index]
        self.stack: list[list] = [[-1, 0.0, 0.0, -1]]
        self.max_limit = 0
        self.witnesses = 0
        self.pairs_scored = 0
        self.cache_base: dict[str, tuple[int, int]] = {}
        self.modules: dict = {}

    def _slot(self, name: str) -> int:
        if name not in self.index:
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return self.index[name]

    def wrap(self, name: str, fn, on_call=None):
        k = self._slot(name)
        clock = time.perf_counter
        stack, spans = self.stack, self.spans
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def traced(*args, **kwargs):
            kept = -1
            if len(stack) <= KEEP_DEPTH and len(spans) < KEEP_SPANS:
                kept = len(spans)
                spans.append((k, 0.0, 0.0, stack[-1][3]))
            frame = [k, clock(), 0.0, kept]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - frame[1]
                calls[k] += 1
                total_s[k] += took
                self_s[k] += took - frame[2]
                stack[-1][2] += took
                if kept >= 0:
                    spans[kept] = (k, frame[1], end, spans[kept][3])
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target and rebind it in each kirch module."""
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("kirch.") and mod is not None
        }
        self.modules = mods
        hooks = {
            "numtheory.primes_upto": self._on_primes_upto,
            "filters.order_oracle": self._on_order_oracle,
            "filters.a_of_pair_formula": self._on_pair_formula,
        }
        for mod_name, attr, span in TARGETS:
            fn = getattr(mods.get(mod_name), attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(span, fn, hooks.get(span))
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
        closure_set = getattr(mods.get("topology"), "ClosureSet", None)
        if closure_set is not None:
            closure_set.__contains__ = self.wrap(
                "topology.closure_member", closure_set.__contains__
            )
        suites = getattr(mods.get("verify"), "_SUITES", {})
        for name in list(suites):
            suites[name] = self.wrap(f"verify.{name}", suites[name])
        for mod_name, attr, key in CACHED:
            info = self._cache_info(mod_name, attr)
            if info is not None:
                self.cache_base[key] = (info.hits, info.misses)

    def _cache_info(self, mod_name: str, attr: str):
        fn = getattr(self.modules.get(mod_name), attr, None)
        if not hasattr(fn, "cache_info"):
            fn = getattr(fn, "__wrapped__", None)  # under a tracing wrapper
        return fn.cache_info() if hasattr(fn, "cache_info") else None

    def _on_primes_upto(self, args, result) -> None:
        if args:
            self.max_limit = max(self.max_limit, args[0])

    def _on_order_oracle(self, args, result) -> None:
        if isinstance(result, tuple) and result[1] is not None:
            self.witnesses += 1

    def _on_pair_formula(self, args, result) -> None:
        if self.stack[-1][0] == self.index.get("graphs.build_gamma"):
            self.pairs_scored += 1

    def metrics(self, suite_cases: dict[str, int]) -> dict[str, float]:
        def get(name: str, table: list):
            k = self.index.get(name)
            return table[k] if k is not None else 0

        out: dict[str, float] = {}
        for mod_name, attr, key in CACHED:
            info = self._cache_info(mod_name, attr)
            hits0, misses0 = self.cache_base.get(key, (0, 0))
            hits = info.hits - hits0 if info else 0
            lookups = hits + (info.misses - misses0 if info else 0)
            out[f"{key}.cache_hit_ratio"] = hits / lookups if lookups else 0.0
            out[f"{key}.cache_entries"] = info.currsize if info else 0
            if key == "numtheory.prime_divisors":  # counted by its cache, not wrapped
                out[f"{key}.calls"] = lookups
        for name in (
            "numtheory.factorize", "numtheory.is_prime", "numtheory.primes_upto",
            "numtheory.crt_solve", "topology.closure", "topology.closure_member",
            "topology.closure_oracle_member", "filters.descriptor", "filters.a_of",
            "filters.a_of_pair_formula", "filters.filter_leq", "filters.order_oracle",
            "graphs.build_gamma", "cli.main",
        ):
            out[f"{name}.calls"] = get(name, self.calls)
            out[f"{name}.self_s"] = get(name, self.self_s)
        for name in ("graphs.closed_form_edges", "graphs.printed_p3_report", "graphs.emit"):
            out[f"{name}.self_s"] = get(name, self.self_s)
        out["numtheory.small_primes.s"] = get("numtheory.small_primes", self.total_s)
        out["numtheory.primes_upto.max_limit"] = self.max_limit
        out["filters.order_oracle.witnesses"] = self.witnesses
        oracle_calls = out["filters.order_oracle.calls"]
        out["filters.order_oracle.witness_ratio"] = (
            self.witnesses / oracle_calls if oracle_calls else 0.0
        )
        out["graphs.build_gamma.pairs_scored"] = self.pairs_scored
        for suite in SUITES:
            out[f"verify.{suite}.s"] = get(f"verify.{suite}", self.total_s)
            out[f"verify.{suite}.cases"] = suite_cases.get(suite, 0)
        return out

    def dump(self) -> dict:
        """Kept spans as [name, start, end, parent] plus per-name totals."""
        return {
            "spans": [[self.names[k], s, e, p] for k, s, e, p in self.spans],
            "totals": {
                n: {"calls": self.calls[k], "self_s": self.self_s[k], "total_s": self.total_s[k]}
                for n, k in self.index.items()
            },
        }
