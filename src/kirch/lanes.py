"""The two lanes of `kirch verify all`.

all_reports(cfg) gives run_suite(s, cfg) for each suite s, in _SUITES
order. Where os.fork exists and at least two CPUs are usable, a forked
child runs `order`, about half of the default run, while this process
runs the other ten in order. The child writes its report to a pipe as
marshal data and leaves with os._exit(0), or leaves with status 1 and
no report. The two lanes handle only that clean case. If either lane
raises an Exception, the child exits nonzero or its report does not
decode, the child is reaped and the eleven suites run again one after
another in process, so the reports, or the exception raised, are
those of the one-lane loop by construction. Running again costs time
only on a refusal that comes after `order`, which then runs twice.
The child only computes and writes to its own pipe, so it takes no
lock that another thread of the parent could have held at the fork.

On one CPU the fork costs more than it saves: perfbench's verify_all
run_s reads 0.213 s with it and 0.196 s without under taskset -c 0,
one lane lower in 10 of 10 alternating pairs (2-core VM, Python
3.11.7; BENCH_31.json). The usable CPUs are those of the affinity
mask; a CPU quota set by a cgroup is not read.

Only run_suite("all", ...) imports this module, so no other kirch call
pays for compiling it. It uses os.fork, os.pipe and marshal directly:
importing multiprocessing or concurrent.futures takes about 12 or 35 ms
(2-core VM, Python 3.11.7), a tenth of the run or more.
"""

from __future__ import annotations

import marshal
import os

from .verify import _SUITES, SuiteConfig, SuiteReport, VerifyFailure, run_suite


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def all_reports(cfg: SuiteConfig) -> list[SuiteReport]:
    """run_suite(s, cfg) for each suite s in _SUITES order: the reports,
    or the exception, of running them one after another. The child is
    reaped before this returns or raises."""
    pid = None
    if hasattr(os, "fork") and _usable_cpus() >= 2:
        fd, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(fd)
            os.close(w)
    if pid == 0:  # the child: exit 0 with a report, or 1 without
        status = 1
        try:
            os.close(fd)
            r = run_suite("order", cfg)
            with open(w, "wb") as out:
                out.write(marshal.dumps((r.cases, [tuple(f) for f in r.failures], r.details)))
            status = 0
        finally:
            os._exit(status)  # never return into the caller's frames
    if pid is not None:
        os.close(w)
        try:
            with open(fd, "rb") as inp:
                reports = {s: run_suite(s, cfg) for s in _SUITES if s != "order"}
                data = inp.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pid = None
            if code == 0:
                cases, failures, details = marshal.loads(data)
                failures = tuple(VerifyFailure(*f) for f in failures)
                reports["order"] = SuiteReport("order", cases, failures, details)
                return [reports[s] for s in _SUITES]
        except Exception:
            pass  # the one-lane loop below gives the outcome
        finally:
            if pid is not None:
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return [run_suite(s, cfg) for s in _SUITES]
