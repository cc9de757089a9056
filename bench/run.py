"""The bellfield benchmark: one seeded workload run, reported as metrics.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for people, and the run's provenance.  Set-up time and
the workload run each happen in fresh interpreters started from here; all
scratch files live in ``.bench_tmp/`` under the checkout and are removed at
exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import layer_metrics
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: Fresh interpreters timed per run for ``setup_s``, after one untimed start
#: that writes the bytecode caches.
SETUP_SAMPLES = 21
#: A run must end within 180 s; set-up takes a few of them.
CHILD_TIMEOUT_S = 160
READY = "import bellfield.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"


def setup_time(env: dict) -> float:
    """Seconds from spawning an interpreter until ``bellfield.cli`` is imported."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", READY], stdout=subprocess.PIPE, cwd=ROOT, env=env) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=60)
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("a fresh interpreter could not import bellfield.cli")
    return elapsed


def git(*args: str) -> str | None:
    # the ceiling stops git from searching directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "--no-optional-locks", *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(args, child: dict) -> dict:
    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": child["numpy"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run(args, run_dir: Path) -> tuple[dict, dict]:
    """The child's result and the metrics to report, as name -> (value, unit)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    setup = []
    if not args.trace:
        setup_time(env)
        setup = [setup_time(env) for _ in range(SETUP_SAMPLES)]
    cmd = [sys.executable, str(BENCH / "child.py"), args.workload, str(args.seed), str(args.seconds),
           str(args.trace), str(SRC), str(run_dir)]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=CHILD_TIMEOUT_S)
    child = json.loads((run_dir / "result.json").read_text())
    if args.trace:
        metrics = layer_metrics(str(run_dir / "spans.npz"))
        metrics["trace.overhead_ms"] = (child["traced_ms_p50"] - child["point_ms_p50"], "ms")
    else:
        metrics = {
            "points_per_s": (child["points_per_s"], "points/s"),
            "point_ms_p50": (child["point_ms_p50"], "ms"),
            "point_ms_p75": (child["point_ms_p75"], "ms"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (child["peak_rss_mb"], "MB"),
        }
    return child, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bellfield" / "cli.py").is_file():
        print(f"error: no bellfield sources under {SRC}", file=sys.stderr)
        return 1
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        child, metrics = run(args, run_dir)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()

    attempted, failed = child["attempted"], child["failed"]
    print(f"workload {args.workload}, seed {args.seed}: {child['points']} points timed, "
          f"{'traced' if args.trace else 'untraced'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'rows_failed_frac':40s} {failed / attempted:14.6g} ratio ({failed} of {attempted} rows)")
    if not args.trace:
        print(f"  {child['points']} points, {child['passes']} passes, each in a fresh forked process: "
              f"each point's time is its best pass, p75 the 3rd quartile of the points; "
              f"setup_s the median of {SETUP_SAMPLES} interpreter starts")
    print("provenance " + json.dumps(provenance(args, child)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
