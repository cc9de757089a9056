"""One workload run inside a fresh interpreter; started by ``run.py``.

    python3 bench/child.py WORKLOAD SEED SECONDS TRACE SRC RUN_DIR

Calls ``bellfield.cli.main`` in-process, one closed-loop call per point, and
checks every row each call writes.  No process calls the program twice with
the same argv, so nothing a call leaves behind can serve a later call on the
same inputs.  Writes ``RUN_DIR/result.json`` and, when TRACE is 1, the spans
to ``RUN_DIR/spans.npz``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

#: Points of an untraced run: enough for a 3rd quartile with ten samples
#: beyond it, few enough that each is timed many times.
POINTS = 40


def call(cli, point: workloads.Point, out: Path, tracer=None) -> tuple[float, list | None]:
    """Wall time of one ``cli.main`` call, and the rows it wrote (None if it failed)."""
    out.unlink(missing_ok=True)
    with tracer.installed() if tracer else contextlib.nullcontext():
        t0 = perf_counter()
        try:
            code = cli.main([*point.argv, "--format", "json", "--output", str(out)])
        except (Exception, SystemExit):  # argparse exits; anything else is a crash
            code = None
        elapsed = perf_counter() - t0
    if code != 0:
        return elapsed, None
    try:
        return elapsed, json.loads(out.read_text())
    except (OSError, ValueError):
        return elapsed, None


def forked(fn, path: Path):
    """``fn()`` run in a forked copy of this process; its JSON-able result.

    This process has imported bellfield but never called it, so each copy
    starts as a fresh interpreter would, without the interpreter's start-up.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            path.write_text(json.dumps(fn()))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"a forked pass exited with status {status}")
    try:
        return json.loads(path.read_text())
    finally:
        path.unlink()


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, src, run_dir = argv
    seed, seconds, trace, run_dir = int(seed), float(seconds), trace == "1", Path(run_dir)

    import bellfield
    import bellfield.cli as cli
    import numpy

    if Path(src).resolve() not in Path(bellfield.__file__).resolve().parents:
        print(f"bellfield imported from {bellfield.__file__}, not from {src}", file=sys.stderr)
        return 2

    out = run_dir / "rows.json"
    n_rows = len(workloads.WORKLOADS[workload].models)

    def checked(points, results) -> tuple[int, int]:
        # after the timed calls: the checks call bellfield too
        failed = sum(workloads.failed_rows(workload, p, rows) for p, (_, rows) in zip(points, results))
        return n_rows * len(points), failed

    gen = workloads.points(workload, seed)
    result = {"numpy": numpy.__version__}
    t_start = perf_counter()
    if trace:
        from tracer import Tracer  # only here: its imports would count in peak_rss_mb

        # Plain and traced calls alternate over distinct points of one
        # process; the overhead is the difference of their medians.
        tracer = Tracer()
        points, results = [], []
        for p, tr in zip(gen, itertools.cycle((None, tracer))):
            points.append(p)
            results.append(call(cli, p, out, tr))
            if len(points) >= 2 and perf_counter() - t_start >= seconds:
                break
        tracer.save(str(run_dir / "spans.npz"))
        attempted, failed = checked(points, results)
        times = [t for t, _ in results[0::2]]
        result["traced_ms_p50"] = statistics.median(t for t, _ in results[1::2]) * 1e3
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        # The host's speed changes in phases of a second or more (contention
        # for the shared core), often by half.  So the run makes passes over
        # its points until the time is up and keeps each point's best time: a
        # point reads slow only if every pass, a second or more apart, was
        # slow.  Each pass runs in a fresh forked process, in an order rotated
        # by one point, so no process calls an argv twice.
        points = list(itertools.islice(gen, POINTS))

        def one_pass(k: int) -> dict:
            order = [(k + i) % len(points) for i in range(len(points))]
            timed = {i: call(cli, points[i], out) for i in order}
            results = [timed[i] for i in range(len(points))]
            attempted, failed = checked(points, results)
            return {
                "times": [t for t, _ in results],
                "attempted": attempted,
                "failed": failed,
                "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            }

        times = [math.inf] * len(points)
        attempted = failed = peak_rss_kb = passes = 0
        while passes == 0 or perf_counter() - t_start < seconds:
            p = forked(lambda: one_pass(passes), run_dir / "pass.json")
            times = [min(a, b) for a, b in zip(times, p["times"])]
            attempted += p["attempted"]
            failed += p["failed"]
            peak_rss_kb = max(peak_rss_kb, p["peak_rss_kb"])
            passes += 1
        result["passes"] = passes
        result["points_per_s"] = len(times) / sum(times)
        result["point_ms_p75"] = statistics.quantiles(times, n=4, method="inclusive")[2] * 1e3

    result.update(
        points=len(times),
        point_ms_p50=statistics.median(times) * 1e3,
        peak_rss_mb=peak_rss_kb / 1024,
        attempted=attempted,
        failed=failed,
    )
    (run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
