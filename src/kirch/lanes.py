"""The two lanes of `kirch verify all`.

all_reports(cfg) gives run_suite(s, cfg) for each suite s, in _SUITES
order. Where os.fork exists and at least two CPUs are usable, a forked
child runs `order`, about half of the default run, while this process
runs the other ten in order. The child sends its report back over a
pipe as marshal data, or the exception it raised, and leaves with
os._exit; the report is merged in its place, so the reports, and the
exception raised, if any, are those of running the suites one after
another, which is what happens everywhere else. The child only
computes and writes to its own pipe, so it takes no lock that another
thread of the parent could have held at the fork.

On one CPU the fork costs more than it saves: perfbench's verify_all
run_s reads 0.213 s with it and 0.196 s without under taskset -c 0,
one lane lower in 10 of 10 alternating pairs (2-core VM, Python
3.11.7; BENCH_31.json). The usable CPUs are those of the affinity
mask; a CPU quota set by a cgroup is not read.

Only run_suite("all", ...) imports this module, so no other kirch call
pays for compiling it. It uses os.fork, os.pipe and marshal directly:
importing multiprocessing or concurrent.futures takes about 12 or 35 ms
(2-core VM, Python 3.11.7), a tenth of the run or more, and pickle is
imported only when a suite raises.
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
    """run_suite(s, cfg) for each suite s in _SUITES order, with the
    one-lane loop's outcome: the exception that propagates is the one
    the earliest suite raises, with its type and message. A child that
    ends without a complete report is a RuntimeError naming its exit
    status or signal. The child is reaped before this returns or
    raises; a suite that raises before `order` kills it first."""
    pid = None
    if hasattr(os, "fork") and _usable_cpus() >= 2:
        fd, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(fd)
            os.close(w)
    if pid is None:
        return [run_suite(s, cfg) for s in _SUITES]
    if pid == 0:  # the child: write (True, report) or (False, exception)
        status = 1
        try:
            os.close(fd)
            try:
                r = run_suite("order", cfg)
                sent = True, (r.cases, [tuple(f) for f in r.failures], r.details)
            except BaseException as exc:
                import pickle
                sent = False, pickle.dumps(exc)
            with open(w, "wb") as out:
                out.write(marshal.dumps(sent))
            status = 0
        finally:
            os._exit(status)  # never return into the caller's frames
    os.close(w)
    reports, raised, past_order = {}, None, False
    try:
        with open(fd, "rb") as inp:
            for s in _SUITES:
                if s == "order":
                    past_order = True
                    continue
                try:
                    reports[s] = run_suite(s, cfg)
                except Exception as exc:
                    if not past_order:
                        raise
                    raised = exc  # unless `order` raised first
                    break
            data = inp.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pid = None
    finally:
        if pid is not None:
            import signal
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    try:
        ok, body = marshal.loads(data) if code == 0 else (None, None)
    except (EOFError, ValueError):
        ok = None
    if ok is None:
        how = f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
        raise RuntimeError(f"the child running suite 'order' {how} without a complete report")
    if not ok:
        import pickle
        raise pickle.loads(body)
    if raised is not None:
        raise raised
    cases, failures, details = body
    reports["order"] = SuiteReport("order", cases, tuple(VerifyFailure(*f) for f in failures), details)
    return [reports[s] for s in _SUITES]
