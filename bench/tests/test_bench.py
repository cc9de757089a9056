"""Tests of the benchmark itself; run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The program's work per point when the benchmark was defined.  A change that
# alters this work updates these numbers along with its claim.
PER_POINT_COUNTS = {
    "exact-sweep": {
        "dist.dist_mul.calls": 627,
        "graded.mul.calls": 3386,
        "mrf.scenarios.visited": 256,
        "mrf.scenarios.nonzero_frac": 9 / 256,
    },
    "grid-study": {"dist.wrapped_gaussian.calls": 152, "bell.brute_force_oracle.calls": 1},
    "triphoton-scan": {"dist.wrapped_gaussian.calls": 30, "bell.triple_coincidence.cells": 96 * 96},
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_argv(workload):
    def first(seed, n=50):
        gen = workloads.points(workload, seed)
        return [next(gen).argv for _ in range(n)]

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_exact_sweep_avoids_degenerate_settings():
    points = list(workloads.points("exact-sweep", 3))  # the sequence ends once the lattice is used up
    deltas = [p.params["delta_deg"] for p in points]
    assert len(set(deltas)) == len(deltas) > 1700
    assert not set(deltas) & {0.0, 90.0, 180.0}
    assert min(deltas) > 0 and max(deltas) < 180


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_points_never_repeat_an_argv(workload):
    gen = workloads.points(workload, 11)
    argvs = [next(gen).argv for _ in range(500)]
    assert len(set(argvs)) == len(argvs)


def test_no_process_repeats_an_argv(tmp_path, monkeypatch):
    log = tmp_path / "calls.log"
    plain_call = child.call

    def logged(cli, point, out, tracer=None):
        with log.open("a") as f:  # appends from every forked pass
            f.write(json.dumps([os.getpid(), point.argv]) + "\n")
        return plain_call(cli, point, out, tracer)

    monkeypatch.setattr(child, "call", logged)
    monkeypatch.setattr(child, "POINTS", 3)  # short passes, so that a short run makes several
    assert child.main(["exact-sweep", "2", "0.5", "0", str(ROOT / "src"), str(tmp_path)]) == 0
    result = json.loads((tmp_path / "result.json").read_text())
    calls = [(pid, tuple(argv)) for pid, argv in map(json.loads, log.read_text().splitlines())]
    assert result["passes"] >= 2 and result["failed"] == 0
    assert len(calls) == result["passes"] * child.POINTS
    assert len({pid for pid, *_ in calls}) == result["passes"] != 1
    assert len(set(calls)) == len(calls)


def test_row_checks_catch_wrong_values():
    point = workloads.Point(("bell-sweep",), {"delta_deg": 30.0})
    good = [
        {"model": "MRF3-exact", "delta_deg": 30.0, "value": 0.375},
        {"model": "QM", "delta_deg": 30.0, "value": 0.375},
    ]
    assert workloads.failed_rows("exact-sweep", point, good) == 0
    off = [dict(good[0], value=0.375 + 1e-8), good[1]]
    assert workloads.failed_rows("exact-sweep", point, off) == 1
    assert workloads.failed_rows("exact-sweep", point, good[:1]) == 2
    assert workloads.failed_rows("exact-sweep", point, None) == 2

    grid = workloads.Point(("bell-sweep",), {"delta_deg": 30.0, "sigma": 0.01, "beta": 1e-3})
    bound = workloads.oracle_bound(30.0, 0.01, 1e-3)
    assert bound == pytest.approx(2 * (0.01**2 + 1e-3))  # kernels resolved at 30 deg
    far = [dict(good[0], model="MRF3-oracle", value=0.375 + 1.5 * bound), good[1]]
    assert workloads.failed_rows("grid-study", grid, far) == 1
    route = workloads.regularized_route(30.0, 0.01, 1e-3)
    assert workloads.failed_rows("grid-study", grid, [dict(far[0], value=route), good[1]]) == 0
    # inside the bound, but off the regularized route
    assert workloads.failed_rows("grid-study", grid, [dict(far[0], value=route + 1e-6), good[1]]) == 1

    tri = workloads.Point(("triphoton-compare",), {"phis": (10.0, 25.0, 40.0)})
    phis = {"phi1_deg": 10.0, "phi2_deg": 25.0, "phi3_deg": 40.0}
    rows = [
        {"model": "QM", "value": workloads.ghz_triple_coincidence((10.0, 25.0, 40.0)), **phis},
        {"model": "Mstar", "value": 0.00106014297919, **phis},
        {"model": "MRF3-oracle", "value": 0.00106014297919, **phis},
    ]
    assert workloads.failed_rows("triphoton-scan", tri, rows) == 0
    rows[2] = dict(rows[2], value=0.00106014297919 + 1e-11)
    assert workloads.failed_rows("triphoton-scan", tri, rows) == 2


def _bindings():
    """Every name in every bellfield module and traced class, and every default argument."""
    import bellfield

    mods = [m for n, m in sys.modules.items() if n == "bellfield" or n.startswith("bellfield.")]
    out = {}
    for mod in mods:
        for key, val in vars(mod).items():
            out[(mod.__name__, key)] = id(val)
            if inspect.isfunction(val):
                out[(mod.__name__, key, "defaults")] = tuple(map(id, val.__defaults__ or ()))
            if inspect.isclass(val) and val.__module__.startswith("bellfield"):
                for attr, member in vars(val).items():
                    out[(mod.__name__, key, attr)] = id(member)
    assert bellfield.cli  # the whole package is loaded
    return out


def test_tracing_rebinds_every_importer_and_restores_all():
    import bellfield.bell
    import bellfield.cli
    import bellfield.dist
    import bellfield.mrf
    import bellfield.quantum

    before = _bindings()
    originals = {
        ("mrf", "dist_mul"): bellfield.mrf.dist_mul,
        ("quantum", "dist_mul"): bellfield.quantum.dist_mul,
        ("bell", "wrapped_gaussian"): bellfield.bell.wrapped_gaussian,
        ("quantum", "wrapped_gaussian"): bellfield.quantum.wrapped_gaussian,
        ("cli", "brute_force_oracle"): bellfield.cli.brute_force_oracle,
        ("cli", "coincidence_probability"): bellfield.cli.coincidence_probability,
        ("cli", "triphoton_compare"): bellfield.cli.triphoton_compare,
        ("quantum", "build_triphoton_graph"): bellfield.quantum.build_triphoton_graph,
        ("bell", "tally_events"): bellfield.bell.tally_events,
    }
    with pytest.raises(RuntimeError):
        with tracer.Tracer().installed():
            for (mod, name), fn in originals.items():
                assert getattr(sys.modules[f"bellfield.{mod}"], name) is not fn, (mod, name)
            assert bellfield.dist.regularize.__defaults__[0] is not originals[("bell", "wrapped_gaussian")]
            raise RuntimeError("bindings must be restored when the block raises")
    assert _bindings() == before


def _traced_run(workload, run_dir: Path):
    assert child.main([workload, "5", "0.05", "1", str(ROOT / "src"), str(run_dir)]) == 0
    result = json.loads((run_dir / "result.json").read_text())
    assert result["failed"] == 0 and result["attempted"] > 0
    return tracer.layer_metrics(str(run_dir / "spans.npz"))


@pytest.mark.parametrize("workload", sorted(PER_POINT_COUNTS))
def test_traced_counts_repeat_and_match(workload, tmp_path):
    runs = []
    for i in range(2):
        (tmp_path / str(i)).mkdir()
        runs.append(_traced_run(workload, tmp_path / str(i)))
    counts = [{k: v for k, (v, unit) in m.items() if unit != "ms"} for m in runs]
    assert counts[0] == counts[1]
    for metric, expected in PER_POINT_COUNTS[workload].items():
        assert counts[0][metric] == pytest.approx(expected, rel=1e-12), metric
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(runs[0]) == sorted(n for n in names if n != "trace.overhead_ms")


def _tree_digest(path: Path) -> dict:
    files = (p for p in path.rglob("*") if p.is_file())
    return {str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def test_run_reports_the_declared_metrics_and_leaves_the_tree_clean():
    def status():  # empty outside a git checkout
        return subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=ROOT, capture_output=True, text=True,
        ).stdout

    results = ROOT / "results"
    before = status(), _tree_digest(results) if results.is_dir() else None
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "triphoton-scan", "--seed", "1", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    assert (status(), _tree_digest(results) if results.is_dir() else None) == before
    assert not (ROOT / ".bench_tmp").exists()
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    units = {k: v["unit"] for k, v in last["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_spec_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
