"""Benchmark command for kirch.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source tree: the program is imported from
`src/`. Each pass of a workload runs in a fresh process (workload.py),
so the program's caches start cold; passes repeat until --seconds have
gone by, and at least one runs. The last line of stdout is one JSON
object: correct, attempted, failed and the metrics. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones of
a single traced pass. Without --workload every workload runs in turn
and each gets a line of its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("verify_all", "gamma_grid", "queries")
SETUP_PROBES = 9
# a run must end within 180 s: no pass starts that would likely cross this
PASS_BUDGET_S = 150.0
CHILD_TIMEOUT_S = 170.0


def _child(workload: str, seed: int, args: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed), *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: pass exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _p99(sorted_values: list[float]) -> float:
    """Nearest-rank 99th percentile: the slowest value when there are
    fewer than 100."""
    return sorted_values[math.ceil(0.99 * len(sorted_values)) - 1]


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_verify_digest(seed: int, digests: list[str]) -> list[str]:
    """Compare the verify JSON of every pass with the others and with
    the first run of this source tree and seed, recorded under results/."""
    RESULTS.mkdir(exist_ok=True)
    record = RESULTS / f"verify-{_source_digest()[:16]}-seed{seed}.sha256"
    recorded = record.read_text().strip() if record.exists() else None
    if recorded is None:
        record.write_text(digests[0] + "\n")
    return checks.check_same_bytes(digests, recorded)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if trace:
        passes = [_child(workload, seed, ["--trace"])]
    else:
        setups = [_child(workload, seed, ["--setup-only"])["setup_s"] for _ in range(SETUP_PROBES)]
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(_child(workload, seed, ["--pass", str(len(passes))]))
            now = time.perf_counter()
            if now - start >= seconds or now - start + (now - t0) > PASS_BUDGET_S:
                break

    problems = [msg for p in passes for msg in p["problems"]]
    if workload == "verify_all":
        problems += _check_verify_digest(seed, [p["verify_digest"] for p in passes])
    for msg in problems:
        print(f"{workload}: {msg}", file=sys.stderr)
    for p in passes:
        print(f"{workload}: pass wall time {p['raw_run_s']:.4f} s, calibration scale"
              f" {p['scale']:.4f}", file=sys.stderr)

    run_times = [sum(p["latencies"]) for p in passes]
    if trace:
        metrics = {k: (v, layers.unit_of(k)) for k, v in passes[0]["layers"].items()}
        metrics["traced.run_s"] = (run_times[0], "s")
    else:
        latencies = sorted(x for p in passes for x in p["latencies"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(run_times), "s"),
            "peak_rss_mb": (max(p["peak_rss_kb"] for p in passes) / 1024, "MB"),
            "query_p50_ms": (statistics.median(latencies) * 1000, "ms"),
            "query_p99_ms": (_p99(latencies) * 1000, "ms"),
        }
    return {
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "kirch" / "__init__.py").is_file():
        print(f"no kirch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']},"
              f" correct {str(result['correct']).lower()}")
        for name, m in result["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        print(json.dumps({"workload": workload, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
