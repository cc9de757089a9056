"""Seeded workloads of the bellfield benchmark and the checks on their rows.

Each workload turns a seed into an endless sequence of points.  A point is
one ``bellfield`` command line; the program sees nothing but that argv.
``failed_rows`` checks the rows one call wrote against values the benchmark
computes on its own, never against the ``target`` or ``runtime_ms`` columns
the program reports about itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Point:
    argv: tuple[str, ...]
    params: dict  # the numbers behind the argv, for the row checks


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple[str, ...]  # one row per model, in any order
    make: Callable[[random.Random], Point]
    check: Callable[[Point, dict, dict], bool]  # (point, one row, value by model)


def _half_cos2(delta_deg: float) -> float:
    return 0.5 * math.cos(math.radians(delta_deg)) ** 2


def _make_exact(rng: random.Random) -> Point:
    # 0.1 deg lattice on (0, 180); exact mode rejects 0 and 90 by design
    k = rng.randrange(1, 1799)
    k += k >= 900
    d = f"{k / 10:.1f}"
    return Point(("bell-sweep", "--mode", "exact", "--angles", d), {"delta_deg": float(d)})


def _check_exact(point: Point, row: dict, values: dict) -> bool:
    d = point.params["delta_deg"]
    tol = {"MRF3-exact": 1e-9, "QM": 1e-12}[row["model"]]
    return row["delta_deg"] == d and abs(row["value"] - _half_cos2(d)) < tol


def _make_grid(rng: random.Random) -> Point:
    # 0.1 deg lattice on [0, 90]; one point in ten is an equal or orthogonal setting
    d = rng.choice(["0.0", "90.0"]) if rng.random() < 0.1 else f"{rng.randrange(0, 901) / 10:.1f}"
    sigma = rng.choice(["0.04", "0.02", "0.01", "0.005"])
    beta = rng.choice(["1e-2", "1e-3"])
    argv = ("bell-sweep", "--mode", "regularized", "--angles", d, "--sigma", sigma, "--beta", beta)
    return Point(argv, {"delta_deg": float(d), "sigma": float(sigma), "beta": float(beta)})


def oracle_bound(delta_deg: float, sigma: float, beta: float) -> float:
    """Bound on |oracle - cos^2(delta)/2| for a correct regularized evaluation.

    Resolved kernels leave an O(sigma^2 + beta) error.  Near an equal or
    orthogonal setting the two pass kernels, each of width sigma, overlap
    with weight g = N(delta; 0, 2 sigma^2); once g rivals beta the overlap
    pulls the value towards its degenerate limit, a gap of sin^2(delta)/2.
    """
    d = math.radians(min(delta_deg % 90, 90 - delta_deg % 90))
    overlap = math.exp(-d * d / (4 * sigma * sigma)) / (2 * sigma * math.sqrt(math.pi))
    return 2 * (sigma**2 + beta) + 0.5 * math.sin(d) ** 2 * min(1.0, overlap / beta)


def regularized_route(delta_deg: float, sigma: float, beta: float) -> float:
    """The program's factorized regularized route, which the oracle must match to 1e-9.

    Near an equal or orthogonal setting ``oracle_bound`` spans most of the
    gap to the degenerate limit, so there only this comparison is tight.
    Call it only after the timed calls of a process: it runs bellfield code.
    """
    from bellfield.angles import PolAngle
    from bellfield.bell import Mrf3Params, coincidence_probability

    params = Mrf3Params(PolAngle.from_degrees(delta_deg), PolAngle.from_degrees(0.0), beta=beta, sigma=sigma)
    return coincidence_probability(params, "regularized").probability


def _check_grid(point: Point, row: dict, values: dict) -> bool:
    p = point.params
    d, sigma, beta = p["delta_deg"], p["sigma"], p["beta"]
    if row["delta_deg"] != d:
        return False
    err = abs(row["value"] - _half_cos2(d))
    if row["model"] == "QM":
        return err < 1e-12
    return err <= oracle_bound(d, sigma, beta) and abs(row["value"] - regularized_route(d, sigma, beta)) <= 1e-9


def _make_triphoton(rng: random.Random) -> Point:
    degs = [f"{rng.randrange(0, 1800) / 10:.1f}" for _ in range(3)]
    # sigma and grid pinned to today's defaults so a default change cannot move this workload
    argv = ("triphoton-compare", "--angles", ",".join(degs), "--sigma", "0.05", "--grid-n", "96")
    return Point(argv, {"phis": tuple(float(d) for d in degs)})


def ghz_triple_coincidence(phis_deg) -> float:
    """|<phi1 phi2 phi3|GHZ>|^2 = (prod cos + prod sin)^2 / 2."""
    r = [math.radians(p) for p in phis_deg]
    amp = math.prod(math.cos(x) for x in r) + math.prod(math.sin(x) for x in r)
    return 0.5 * amp * amp


def _check_triphoton(point: Point, row: dict, values: dict) -> bool:
    phis = point.params["phis"]
    if (row["phi1_deg"], row["phi2_deg"], row["phi3_deg"]) != phis or not 0.0 <= row["value"] <= 1.0:
        return False
    if row["model"] == "QM":
        return abs(row["value"] - ghz_triple_coincidence(phis)) < 1e-12
    # the branch ensemble and the graph evaluate the same sums on the same grid
    return abs(values["Mstar"] - values["MRF3-oracle"]) <= 1e-12


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("exact-sweep", ("MRF3-exact", "QM"), _make_exact, _check_exact),
        Workload("grid-study", ("MRF3-oracle", "QM"), _make_grid, _check_grid),
        Workload("triphoton-scan", ("QM", "Mstar", "MRF3-oracle"), _make_triphoton, _check_triphoton),
    )
}


def points(workload: str, seed: int) -> Iterator[Point]:
    """The workload's points, each argv once; the same seed gives the same points.

    The sequence ends when a thousand draws in a row bring no new argv.
    """
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    seen: set[tuple[str, ...]] = set()
    misses = 0
    while misses < 1000:
        point = w.make(rng)
        if point.argv in seen:
            misses += 1
            continue
        seen.add(point.argv)
        misses = 0
        yield point


def failed_rows(workload: str, point: Point, rows: list[dict] | None) -> int:
    """Rows of one call that fail their check; a failed call fails every expected row."""
    w = WORKLOADS[workload]
    try:
        if sorted(r["model"] for r in rows) != sorted(w.models):
            return len(w.models)
        values = {r["model"]: r["value"] for r in rows}
        return sum(not w.check(point, r, values) for r in rows)
    except (KeyError, TypeError):  # no rows, or rows missing a column
        return len(w.models)
