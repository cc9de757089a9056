"""Acceptance criteria, one test per criterion, each printing a verdict line.

Tolerances are pinned here, not configurable: they are the contract.
"""

import itertools
import math
import random
import time

import numpy as np

from bellfield.angles import PI, PolAngle
from bellfield.bell import (
    BETA,
    Mrf3Params,
    brute_force_oracle,
    build_bell_graph,
    coincidence_probability,
    split_backend,
    sum_out_channel,
)
from bellfield.cli import main as cli_main
from bellfield.dist import dist_integrate, dist_mul
from bellfield.graded import GradedCoeff
from bellfield.mrf import forward_fold, relative_probability
from bellfield.quantum import (
    DensityMatrix,
    apply_M,
    bell_coincidence_qm,
    malus_chain,
    mstar_bell_coincidence,
    triphoton_compare,
)

SWEEP_DEGREES = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0]

RNG = np.random.default_rng(7)


def report(criterion: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {criterion}: {verdict}{suffix}")
    assert ok, f"{criterion}{suffix}"


def params_for(delta_deg: float, **kw) -> Mrf3Params:
    return Mrf3Params(
        theta_a=PolAngle.from_degrees(delta_deg), theta_b=PolAngle.from_degrees(0.0), **kw
    )


def half_law(d: float) -> float:
    return 0.5 * math.cos(math.radians(d)) ** 2


def test_criterion_1_bell_law_exact_mode():
    t0 = time.perf_counter()
    worst = 0.0
    for d in SWEEP_DEGREES:
        got = coincidence_probability(params_for(d), "exact").probability
        worst = max(worst, abs(got - half_law(d)))
    elapsed = time.perf_counter() - t0
    report(
        "1 Bell law, exact mode, 8-point sweep",
        worst < 1e-9 and elapsed < 1.0,
        f"max |err|={worst:.2e}, runtime={elapsed:.2f}s",
    )


def test_criterion_2_special_cases_regularized():
    t0 = time.perf_counter()
    p0 = coincidence_probability(params_for(0.0, sigma=0.005, beta=1e-3), "regularized")
    p90 = coincidence_probability(params_for(90.0, sigma=0.005, beta=1e-3), "regularized")
    elapsed = time.perf_counter() - t0
    ok = abs(p0.probability - 0.5) < 1e-3 and p90.probability < 1e-6 and elapsed < 5.0
    report(
        "2 special cases, regularized mode",
        ok,
        f"P(0)={p0.probability:.6f}, P(90)={p90.probability:.2e}, runtime={elapsed:.2f}s",
    )


def test_criterion_3_oracle_equivalence_and_convergence():
    worst = 0.0
    for d in SWEEP_DEGREES:
        oracle = brute_force_oracle(params_for(d, sigma=0.01, beta=1e-3)).probability
        exact = coincidence_probability(params_for(d), "exact").probability
        worst = max(worst, abs(oracle - exact))
    exact30 = coincidence_probability(params_for(30.0), "exact").probability
    errors = [
        abs(brute_force_oracle(params_for(30.0, sigma=s, beta=1e-3)).probability - exact30)
        for s in (0.04, 0.02, 0.01, 0.005)
    ]
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    report(
        "3 oracle equivalence + sigma convergence",
        worst < 1e-3 and decreasing,
        f"max |err|={worst:.2e}, errors={['%.2e' % e for e in errors]}",
    )


def test_criterion_4_factorization_identity():
    params = params_for(25.0)
    graph = build_bell_graph(params)
    pred = graph.predicate("D")
    num_full = GradedCoeff.zero()
    z_full = GradedCoeff.zero()
    for scenario in graph.scenarios():
        w = dist_integrate(relative_probability(graph, scenario))
        z_full = z_full + w
        if pred.holds(scenario.assignment):
            num_full = num_full + w
    (pl, ml), (pr, mr) = (sum_out_channel(split_backend(params.setting(ch), BETA)) for ch in ("L", "R"))
    ok = num_full == dist_integrate(dist_mul(pl, pr)) and z_full == dist_integrate(
        dist_mul(pl + ml, pr + mr)
    )
    report("4 factorization identity, exact equality", ok)


def test_criterion_5_forward_fold_invariance():
    graph = build_bell_graph(params_for(35.0))
    rng = random.Random(99)
    base = None
    worst = 0.0
    for _ in range(20):
        order = list(graph.features)
        rng.shuffle(order)
        prob = forward_fold(graph, order).probabilities["D"]
        if base is None:
            base = prob
        worst = max(worst, abs(prob - base))
    report("5 forward-fold ordering invariance (20 orders)", worst < 1e-12, f"max dev={worst:.2e}")


def test_criterion_6_quantum_reference():
    worst = 0.0
    for d in SWEEP_DEGREES:
        got = bell_coincidence_qm(PolAngle.from_degrees(d), PolAngle.from_degrees(0.0))
        worst = max(worst, abs(got - half_law(d)))
    suites_ok = True
    for _ in range(100):
        g = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        t = PolAngle(RNG.uniform(0, PI))
        out = apply_M(rho, 0, t)
        again = apply_M(out, 0, t)
        suites_ok &= abs(np.trace(out.entries).real - 1.0) < 1e-12
        suites_ok &= np.abs(out.entries - out.entries.conj().T).max() < 1e-12
        suites_ok &= np.linalg.eigvalsh(out.entries).min() > -1e-10
        suites_ok &= np.abs(again.entries - out.entries).max() < 1e-12
    report(
        "6 quantum reference + channel property suites",
        worst < 1e-12 and bool(suites_ok),
        f"max |err|={worst:.2e}, 100 random states",
    )


def test_criterion_7_mstar_equals_mrf3():
    worst = 0.0
    for d in SWEEP_DEGREES:
        mstar = mstar_bell_coincidence(PolAngle.from_degrees(d), PolAngle.from_degrees(0.0))
        mrf = coincidence_probability(params_for(d), "exact").probability
        worst = max(worst, abs(mstar - mrf))
    report("7 modified-polarizer vs graph model, 8-point sweep", worst < 1e-9, f"max dev={worst:.2e}")


def test_criterion_8_noncommutativity_demo():
    a = malus_chain(PolAngle(0.0), [PolAngle.from_degrees(45.0), PolAngle.from_degrees(90.0)])
    b = malus_chain(PolAngle(0.0), [PolAngle.from_degrees(90.0), PolAngle.from_degrees(45.0)])
    same_beam_ok = abs(a - 0.25) < 1e-15 and abs(b) < 1e-15 and abs(a - b - 0.25) < 1e-15
    commute_ok = True
    for _ in range(10):
        g = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m).real)
        ta, tb = PolAngle(RNG.uniform(0, PI)), PolAngle(RNG.uniform(0, PI))
        ab = apply_M(apply_M(rho, 0, ta), 1, tb).entries
        ba = apply_M(apply_M(rho, 1, tb), 0, ta).entries
        commute_ok &= np.abs(ab - ba).max() < 1e-12
    report(
        "8 same-beam order sensitivity vs cross-photon commutation",
        same_beam_ok and bool(commute_ok),
        f"chain=({a:.3f}, {b:.1e})",
    )


def test_criterion_9_triphoton_properties(tmp_path):
    params = Mrf3Params(PolAngle(0.0), PolAngle(0.0), sigma=0.05, grid_n=96)
    settings = tuple(PolAngle.from_degrees(d) for d in (10.0, 25.0, 40.0))

    mrf_vals = [triphoton_compare(permuted, "MRF", params) for permuted in itertools.permutations(settings)]
    m_vals = [triphoton_compare(permuted, "M") for permuted in itertools.permutations(settings)]
    relabel_ok = max(mrf_vals) - min(mrf_vals) < 1e-12
    order_ok = max(m_vals) - min(m_vals) < 1e-12

    out = tmp_path / "scan.csv"
    t0 = time.perf_counter()
    code = cli_main(["triphoton-compare", "--output", str(out)])
    elapsed = time.perf_counter() - t0
    rows = out.read_text().splitlines()
    scan_ok = code == 0 and len(rows) == 1 + 125 * 3 and elapsed < 60.0
    report(
        "9 triphoton invariances + 5x5x5 divergence scan",
        relabel_ok and order_ok and scan_ok,
        f"relabel dev={max(mrf_vals) - min(mrf_vals):.1e}, "
        f"order dev={max(m_vals) - min(m_vals):.1e}, scan={elapsed:.1f}s",
    )
