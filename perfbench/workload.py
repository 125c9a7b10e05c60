"""One pass of one workload, in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --pass K [--trace] [--setup-only]

Imports `kirch` from `src/` beside this directory, builds its prime
table, runs the pass, checks every output, and prints one JSON line:
the latency of each timed operation (scaled by calibrate.py), the
operations attempted and failed, the problems the checkers found, the
process's peak resident memory, and with --trace the per-layer
metrics. Checking happens outside the timed regions.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import calibrate
import checks
import layers
import queries

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

# gamma_grid: p = 3 and two primes of each other class, on grids larger
# than the suite's (9, 5). Each stays below about 2^37 in magnitude, so
# the trial-division table factors every difference, and the grids are
# sized so that most graphs take about the same time, which keeps the
# median operation steady. These inputs are the same on every seed.
GAMMA_GRIDS = (
    (3, (14, 8)),
    (5, (12, 8)),
    (17, (16, 5)),
    (7, (14, 7)),
    (31, (16, 4)),
    (11, (16, 6)),
    (13, (16, 5)),
)


class Pass:
    """Timed operations and checker findings of one pass."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.suite_cases: dict[str, int] = {}
        self.verify_digest: str | None = None

    def timed(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        self.spans.append((t0, time.perf_counter()))
        self.attempted += 1
        return result


def _cli(argv) -> tuple[int, str, str]:
    import kirch.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kirch.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_verify_all(seed: int, pass_no: int, p: Pass) -> None:
    code, out, _ = p.timed(_cli, ("verify", "all", "--format", "json", "--seed", str(seed)))
    p.attempted += len(checks.SUITES) - 1  # one operation per suite
    if code != 0:
        p.problems.append(f"verify all exited {code}")
    p.problems += checks.check_verify_all(out)
    p.verify_digest = checks.digest(out)
    report = json.loads(out)
    p.suite_cases = {s["suite"]: s["cases"] for s in report["details"]["suites"]}


def run_gamma_grid(seed: int, pass_no: int, p: Pass) -> None:
    from kirch import graphs

    def one_graph(prime, bounds):
        g = graphs.build_gamma(prime, bounds)
        return graphs.emit_dot(g), graphs.graph_json_dict(g)

    truth = {}
    for prime, bounds in GAMMA_GRIDS:
        dot, data = p.timed(one_graph, prime, bounds)
        truth[prime] = checks.gamma_edges(prime, bounds)
        p.problems += checks.check_gamma(prime, bounds, dot, data, truth[prime])
    report = p.timed(graphs.printed_p3_report, dict(GAMMA_GRIDS)[3])
    p.problems += checks.check_p3_report(report, truth[3])


def _check_query(q: queries.Query, code: int, out: str, err: str) -> list[str]:
    if q.kind == "out_of_range":
        if code == 2 and not out and err.count("\n") == 1:
            return []
        return [f"{' '.join(q.argv)}: exit {code}, want 2 and a one-line message"]
    if code != 0:
        return [f"{' '.join(q.argv)}: exit {code}: {err.strip()}"]
    data = json.loads(out)
    if q.kind == "ae":
        return checks.check_ae(q.data, data)
    if q.kind == "classify":
        return checks.check_classify(q.data, data)
    if q.kind == "cmp":
        return checks.check_cmp(*q.data, data)
    if q.kind == "closure":
        return checks.check_closure(*q.data, data)
    if q.kind == "realize":
        return checks.check_realize(q.data[0], dict(q.data[1]), data)
    if q.kind == "prime_class":
        return checks.check_prime_class(q.data[0], data)
    raise ValueError(q.kind)


def run_queries(seed: int, pass_no: int, p: Pass) -> None:
    first = pass_no * queries.ROUNDS_PER_PASS
    for calls in queries.rounds(seed, first, queries.ROUNDS_PER_PASS):
        for q in calls:
            try:
                code, out, err = p.timed(_cli, q.argv)
            except OverflowError:
                # the known fault: main lets OverflowError escape
                if q.kind != "out_of_range":
                    raise
                p.attempted += 1
                p.failed += 1
                continue
            p.problems += _check_query(q, code, out, err)


WORKLOADS = {
    "verify_all": run_verify_all,
    "gamma_grid": run_gamma_grid,
    "queries": run_queries,
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_no", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after import and the prime table; print their time")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    setup_scale = calibrate.scale_of([calibrate.loop_time() for _ in range(5)])
    t0 = time.perf_counter()
    import kirch.cli  # noqa: F401  (loads every kirch module)
    from kirch import numtheory

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    numtheory.small_primes()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s * setup_scale, "raw_setup_s": setup_s}))
        return 0

    p = Pass()
    with calibrate.Sampler() as sampler:
        WORKLOADS[args.workload](args.seed, args.pass_no, p)
    latencies = [(end - start) * sampler.scale(start, end) for start, end in p.spans]
    raw_run_s = sum(end - start for start, end in p.spans)
    scale = sum(latencies) / raw_run_s
    result = {
        "scale": scale,
        "raw_run_s": raw_run_s,
        "latencies": latencies,
        "attempted": p.attempted,
        "failed": p.failed,
        "problems": p.problems[:20],
        "verify_digest": p.verify_digest,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        # layer times get the pass's calibration scale, like the latencies
        result["layers"] = {
            k: v * scale if layers.unit_of(k) == "s" else v
            for k, v in tracer.metrics(p.suite_cases).items()
        }
        RESULTS.mkdir(exist_ok=True)
        trace_file = RESULTS / f"trace-{args.workload}-seed{args.seed}-pass{args.pass_no}.json"
        trace_file.write_text(json.dumps(tracer.dump()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
