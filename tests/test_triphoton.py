"""The closed-form contraction, against the grid contractions it replaces.

Two grid references live here, not in the package.  ``constrained_sum``
contracts channels sampled on the 1-D axis ``grid_points(n)`` along the
source constraint.  The broadcast n x n form puts the first two photons on
the grid angles ``u`` and ``v`` and the third at ``(-u - v) mod pi``,
samples every channel on the full 2-D grid and sums the triple products
cell by cell; it checks ``constrained_sum``, which in turn checks
:func:`~bellfield.dist.contract` wherever the grid resolves the kernels.
"""

import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellfield.angles import PI, PolAngle
from bellfield.bell import (
    ABSORBER_COST,
    BETA,
    Mrf3Params,
    channel_sums,
    contract_channels,
    grid_backend,
    partition_ratio,
    primitive_product,
    split_backend,
    sum_out_channel,
)
from bellfield.cli import main
from bellfield.dist import MAX_HARMONIC, MAX_SIGMA, DistFn, contract, grid_points, wrapped_gaussian
from bellfield.graded import coeff_ratio_limit
from bellfield.quantum import triphoton_compare


def constrained_sum(*samples: np.ndarray) -> float:
    """Sum of the photons' sample products along the source constraint.

    The samples lie on ``grid_points(n)``; the source's photon angles sum to
    0 (mod pi), so the sum runs over the index tuples with
    i_0 + ... + i_{N-1} = 0 (mod n) of prod_j f_j[i_j], for any number N of
    photons.  It folds the photons in one at a time by circular convolution:
    convolving with ``f`` written out twice and keeping the middle n entries
    wraps the indices mod n.  Memory is O(n), time O(N n^2); it is symmetric
    in its arguments.
    """
    n = len(samples[0])
    acc = samples[0]
    for f in samples[1:]:
        acc = np.convolve(acc, np.concatenate((f, f)))[n : 2 * n]
    return float(acc[0])


def grid_mrf(settings3, params: Mrf3Params) -> float:
    """The graph route on the 1-D axis: each channel's detected and total
    sums sampled once, contracted by :func:`constrained_sum`."""
    axis = grid_points(params.grid_n)
    sums = [
        sum_out_channel(grid_backend(axis, s.value, params.beta, params.sigma)) for s in settings3
    ]
    num = constrained_sum(*(detected for detected, _ in sums))
    den = constrained_sum(*(detected + undetected for detected, undetected in sums))
    return num / den


def grid_mstar(settings3, params: Mrf3Params, order) -> float:
    """The branch ensemble on the 1-D axis: the all-pass branch over the sum
    of all 2^3 branches, each a :func:`constrained_sum` in application order."""
    axis = grid_points(params.grid_n)
    splits = [grid_backend(axis, settings3[arm].value, params.beta, params.sigma) for arm in order]
    num = constrained_sum(*(split["pass"] for split in splits))
    den = constrained_sum(*(split["pass"] + split["block"] for split in splits))
    return num / den


def photon_angles_2d(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    axis = grid_points(n)
    u = axis[:, None]
    v = axis[None, :]
    return np.broadcast_to(u, (n, n)), np.broadcast_to(v, (n, n)), (-u - v) % PI


def reference_mrf(settings3, params: Mrf3Params) -> float:
    sums = [
        sum_out_channel(grid_backend(theta, s.value, params.beta, params.sigma))
        for theta, s in zip(photon_angles_2d(params.grid_n), settings3)
    ]
    num = sums[0][0] * sums[1][0] * sums[2][0]
    den = np.ones_like(num)
    for plus, minus in sums:
        den = den * (plus + minus)
    cell = (PI / params.grid_n) ** 2
    return float(num.sum()) * cell / (float(den.sum()) * cell)


def reference_mstar(settings3, params: Mrf3Params, order) -> float:
    thetas = photon_angles_2d(params.grid_n)
    branches = [(np.ones_like(thetas[2]), {})]
    for arm in order:
        split = grid_backend(thetas[arm], settings3[arm].value, params.beta, params.sigma)
        branches = [
            item
            for w, passed in branches
            for item in ((w * split["pass"], {**passed, arm: True}), (w * split["block"], {**passed, arm: False}))
        ]
    cost = primitive_product(ABSORBER_COST, {"alpha": 1.0, "beta": params.beta}) ** 3
    cell = (PI / params.grid_n) ** 2
    num = den = 0.0
    for w, passed in branches:
        weight = float(w.sum()) * cell * cost
        den += weight
        if all(passed.values()):
            num += weight
    return num / den


angles = st.floats(0.0, PI, exclude_max=True)


class TestConstrainedSum:
    PHOTONS = (2, 3, 4)

    def test_matches_the_definition(self):
        rng = np.random.default_rng(7)
        n = 7
        for photons in self.PHOTONS:
            fs = rng.random((photons, n))
            want = sum(
                math.prod(f[i] for f, i in zip(fs, idx))
                for idx in itertools.product(range(n), repeat=photons)
                if sum(idx) % n == 0
            )
            assert constrained_sum(*fs) == pytest.approx(want, rel=1e-14), photons

    def test_symmetric_in_its_arguments(self):
        rng = np.random.default_rng(8)
        for photons in self.PHOTONS:
            fs = rng.random((photons, 32))
            base = constrained_sum(*fs)
            for perm in itertools.permutations(range(photons)):
                assert constrained_sum(*(fs[i] for i in perm)) == pytest.approx(base, rel=1e-14), perm


class TestAgainstTwoDimensionalReference:
    @pytest.mark.parametrize("grid_n", [64, 96, 97, 256])
    @settings(max_examples=8, deadline=None)
    @given(
        st.tuples(angles, angles, angles),
        st.floats(1e-3, 0.1),
        st.floats(0.02, 0.1),
        st.permutations((0, 1, 2)),
    )
    def test_routes_match_within_1e_12(self, grid_n, thetas, beta, sigma, order):
        settings3 = tuple(PolAngle(t) for t in thetas)
        params = Mrf3Params(PolAngle(0.0), PolAngle(0.0), beta=beta, sigma=sigma, grid_n=grid_n)
        mrf = grid_mrf(tuple(settings3[i] for i in order), params)
        mstar = grid_mstar(settings3, params, order)
        relabeled = tuple(settings3[i] for i in order)
        assert mrf == pytest.approx(reference_mrf(relabeled, params), rel=1e-12, abs=0)
        assert mstar == pytest.approx(reference_mstar(settings3, params, order), rel=1e-12, abs=0)


def n_photon_mrf(settings_n, beta: float, sigma: float) -> float:
    """The graph route over any number of channels, in closed form."""
    sums = [sum_out_channel(split_backend(s, beta)) for s in settings_n]
    num = contract([detected for detected, _ in sums], sigma)
    den = contract([detected + undetected for detected, undetected in sums], sigma)
    return num / den


def degrees(values):
    return tuple(PolAngle.from_degrees(d) for d in values)


def model_value(setting_sum: float, beta: float, photons: int) -> float:
    """The model's zero-width value P_N(beta) = 2^(-N) [1 + V_N cos 2 sum theta],
    with x = pi beta and V_N = 2 [(1 + x/4)^N - 1] / [(1 + x/2)^N - 1].  Each
    power minus one is taken as expm1(N log1p(.)): written out, (1 + x/4)^N - 1
    loses about 1e-10 relative at beta 1e-6."""
    x = PI * beta
    v = 2 * math.expm1(photons * math.log1p(x / 4)) / math.expm1(photons * math.log1p(x / 2))
    return (1 + v * math.cos(2 * setting_sum)) / 2**photons


def settings_off_collisions(rng, photons: int, margin: float) -> list[float]:
    """Random settings whose sum lies at least ``margin`` from a multiple of
    pi/2, where the arms' atoms (at each setting and a quarter turn from it)
    meet and where the model's value comes nearest zero."""
    while True:
        thetas = [rng.uniform(0.0, PI) for _ in range(photons)]
        if abs(math.remainder(sum(thetas), PI / 2)) >= margin:
            return thetas


class TestDiscriminatingSignature:
    """MRF sees the settings only through their sum mod 180 degrees; QM does not."""

    PARAMS = Mrf3Params(PolAngle(0.0), PolAngle(0.0), sigma=0.05, grid_n=96)

    @settings(max_examples=50, deadline=None)
    @given(
        st.tuples(*[st.floats(0.0, 180.0, exclude_max=True)] * 3),
        st.tuples(*[st.floats(0.0, 180.0, exclude_max=True)] * 2),
    )
    def test_mrf_depends_on_the_setting_sum_only(self, first, free):
        second = (*free, (sum(first) - sum(free)) % 180.0)
        a, b = (
            triphoton_compare(degrees(s), "MRF", self.PARAMS)
            for s in (first, second)
        )
        assert a == pytest.approx(b, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(*[st.floats(0.0, 180.0, exclude_max=True)] * 4),
        st.tuples(*[st.floats(0.0, 180.0, exclude_max=True)] * 3),
    )
    def test_four_photons_depend_on_the_setting_sum_only(self, first, free):
        second = (*free, (sum(first) - sum(free)) % 180.0)
        p = self.PARAMS
        a, b = (n_photon_mrf(degrees(s), p.beta, p.sigma) for s in (first, second))
        assert a == pytest.approx(b, abs=1e-12)

    def test_qm_tells_equal_sums_apart(self):
        first, second = degrees((10.0, 25.0, 40.0)), degrees((20.0, 50.0, 5.0))
        assert math.isclose(sum(s.value for s in first) % PI, sum(s.value for s in second) % PI)
        mrf = [triphoton_compare(s, "MRF", self.PARAMS) for s in (first, second)]
        qm = [triphoton_compare(s, "M") for s in (first, second)]
        assert mrf[0] == pytest.approx(mrf[1], abs=1e-12)
        assert qm[0] == pytest.approx(0.2671, abs=1e-4)
        assert qm[1] == pytest.approx(0.1950, abs=1e-4)


class TestClosedFormContraction:
    PHOTONS = (2, 3, 4)

    @staticmethod
    def random_arm(rng) -> DistFn:
        atoms = [(PolAngle(rng.uniform(0.0, PI)), rng.uniform(0.1, 1.0)) for _ in range(rng.randint(1, 3))]
        c0 = rng.uniform(0.0, 1.0)
        # amplitudes r_1 + r_2 <= c0 keep the smooth part nonnegative
        amplitudes = [0.5 * c0 * rng.uniform(0.0, 1.0) for _ in range(MAX_HARMONIC)]
        phases = [rng.uniform(0.0, 2 * PI) for _ in range(MAX_HARMONIC)]
        return DistFn(
            atoms,
            c0,
            [r * math.cos(phi) for r, phi in zip(amplitudes, phases)],
            [r * math.sin(phi) for r, phi in zip(amplitudes, phases)],
        )

    @staticmethod
    def sampled(f: DistFn, sigma: float, n: int) -> np.ndarray:
        axis = grid_points(n)
        out = np.full(n, f.c0)
        for k, (ck, sk) in enumerate(zip(f.cos_coeffs, f.sin_coeffs), 1):
            out = out + ck * np.cos(2 * k * axis) + sk * np.sin(2 * k * axis)
        for loc, w in f.atoms:
            out = out + w * wrapped_gaussian(axis, loc.value, sigma)
        return out

    def test_equals_constrained_sum_where_the_grid_resolves_the_kernel(self):
        rng = random.Random(11)
        for photons in self.PHOTONS:
            for _ in range(40):
                n = rng.choice([64, 96, 97, 256, 512])
                # at least 1.5 grid cells per kernel width
                sigma = rng.uniform(1.5 * PI / n, MAX_SIGMA)
                fs = [self.random_arm(rng) for _ in range(photons)]
                want = constrained_sum(*(self.sampled(f, sigma, n) for f in fs)) * (PI / n) ** (photons - 1)
                assert contract(fs, sigma) == pytest.approx(want, rel=1e-10, abs=0), (photons, n, sigma)

    def test_channel_sums_equal_constrained_sum(self):
        rng = random.Random(12)
        for photons in self.PHOTONS:
            for _ in range(10):
                n, sigma, beta = 128, 0.05, rng.choice([1e-2, 1e-4])
                thetas = [rng.uniform(0.0, PI) for _ in range(photons)]
                axis = grid_points(n)
                closed = [sum_out_channel(split_backend(PolAngle(t), beta)) for t in thetas]
                grid = [sum_out_channel(grid_backend(axis, t, beta, sigma)) for t in thetas]
                for part in (0, 1):
                    want = constrained_sum(*(g[part] for g in grid)) * (PI / n) ** (photons - 1)
                    got = contract([c[part] for c in closed], sigma)
                    assert got == pytest.approx(want, rel=1e-10, abs=0), (photons, part)

    @pytest.mark.parametrize("photons", [3, 4])
    def test_reaches_the_model_limit(self, photons):
        # P_N = cos^2(theta_1 + ... + theta_N) / 2^(N-1) as sigma, beta -> 0;
        # a grid would need n ~ 1e9 points to resolve sigma = 1e-8
        rng = random.Random(14 + photons)
        for _ in range(30):
            thetas = [rng.uniform(0.0, PI) for _ in range(photons)]
            limit = math.cos(sum(thetas)) ** 2 / 2 ** (photons - 1)
            if limit < 0.01 / 2 ** (photons - 1):
                continue  # near a zero of the limit a relative bound says nothing
            got = n_photon_mrf([PolAngle(t) for t in thetas], 1e-12, 1e-8)
            assert got == pytest.approx(limit, rel=1e-9, abs=0), thetas

    @pytest.mark.parametrize(
        "setting",
        [(30.0, 75.0, 75.0), (60.0, 60.0, 60.0), (0.0, 0.0, 0.0, 0.0), (45.0, 45.0, 45.0, 45.0)],
        ids=["30-75-75", "60-60-60", "0-0-0-0", "45-45-45-45"],
    )
    def test_a_collision_keeps_its_limit_down_to_the_narrowest_width(self, setting):
        # at the three-photon settings the float location sums of atoms that
        # meet miss a multiple of pi by up to 7e-16, so without the collision
        # rule every width below about 1e-16 lost the partition's colliding
        # terms and read 1; the four-photon ones sum exactly.  The value is
        # the colliding weights' ratio 2^(1-N), up to the smooth parts' share,
        # which falls linearly with the width (1.3e-12 at 1e-6)
        sums = [channel_sums(s, 1e-3) for s in degrees(setting)]
        limit = 2.0 ** (1 - len(setting))
        for exponent in range(6, 301):
            sigma = 10.0**-exponent
            got = partition_ratio(*contract_channels(sums, sigma))
            assert got == pytest.approx(limit, rel=0, abs=1e-12 + 2e-6 * sigma), sigma

    def test_a_near_collision_keeps_its_off_collision_value(self):
        # 1.7e-9 rad from a collision is none: once the kernels are far
        # narrower than that, the value is the model's off the collision
        setting = degrees((30.0, 75.0, 75.0000001))
        sums = [channel_sums(s, 1e-3) for s in setting]
        want = model_value(sum(s.value for s in setting), 1e-3, 3)
        assert want == pytest.approx(0.249902, abs=1e-6)
        for exponent in range(12, 301):
            sigma = 10.0**-exponent
            assert partition_ratio(*contract_channels(sums, sigma)) == pytest.approx(want, rel=1e-12, abs=0), sigma

    def test_float_arms_without_c0_give_a_float(self):
        # DistFn's c0 defaults to a graded zero, which must not turn the sum graded
        arm = DistFn(atoms=[(PolAngle(0.3), 1.0)], cos_coeffs=[0.5, 0.0], sin_coeffs=[0.0, 0.0])
        with_c0 = DistFn(atoms=[(PolAngle(0.3), 1.0)], c0=0.0, cos_coeffs=[0.5, 0.0], sin_coeffs=[0.0, 0.0])
        got = contract([arm, arm, arm], 0.01)
        assert type(got) is float
        assert got == contract([with_c0] * 3, 0.01)

    def test_graded_arms_at_a_positive_width_are_refused(self):
        # a positive width means float kernel values, which would turn a graded sum into floats in disguise
        left, right = (sum_out_channel(split_backend(PolAngle(t), BETA))[0] for t in (0.3, 1.1))
        with pytest.raises(TypeError, match="contract"):
            contract([left, right.reflected()], 0.01)

    def test_exact_three_photon_limit(self):
        # at width 0 on the graded split the contraction is exact in beta, and
        # its beta -> 0 limit is the model's cos^2(theta_1 + theta_2 + theta_3) / 4
        rng = random.Random(16)
        for _ in range(30):
            thetas = [rng.uniform(0.0, PI) for _ in range(3)]
            limit = math.cos(sum(thetas)) ** 2 / 4
            if limit < 0.01 / 4:
                continue  # near a zero of the limit the leading coefficient cancels
            sums = [sum_out_channel(split_backend(PolAngle(t), BETA)) for t in thetas]
            num = contract([detected for detected, _ in sums], 0)
            den = contract([detected + undetected for detected, undetected in sums], 0)
            assert coeff_ratio_limit(num, den) == pytest.approx(limit, abs=1e-9), thetas

    def test_exact_four_photon_limit(self):
        # four photons' sums lead at beta^5; the limit is
        # cos^2(theta_1 + ... + theta_4) / 8
        rng = random.Random(17)
        for _ in range(30):
            thetas = [rng.uniform(0.0, PI) for _ in range(4)]
            limit = math.cos(sum(thetas)) ** 2 / 8
            if limit < 0.01 / 8:
                continue  # near a zero of the limit the leading coefficient cancels
            sums = [sum_out_channel(split_backend(PolAngle(t), BETA)) for t in thetas]
            num = contract([detected for detected, _ in sums], 0)
            den = contract([detected + undetected for detected, undetected in sums], 0)
            assert coeff_ratio_limit(num, den) == pytest.approx(limit, abs=1e-9), thetas

    @pytest.mark.parametrize("photons", PHOTONS)
    def test_graded_split_equals_the_model_value(self, photons):
        # exact in beta at width 0, so its ratio at any beta is the model's
        # closed form; four photons' sums reach degree 8
        rng = random.Random(18 + photons)
        for _ in range(20):
            thetas = settings_off_collisions(rng, photons, 0.05)
            sums = [sum_out_channel(split_backend(PolAngle(t), BETA)) for t in thetas]
            num, den = contract_channels(sums, 0)
            for beta in (1e-6, 1e-3, 1e-1):
                want = model_value(sum(thetas), beta, photons)
                got = num.eval(beta) / den.eval(beta)
                assert got == pytest.approx(want, rel=1e-12, abs=0), (thetas, beta)

    @pytest.mark.parametrize("photons", PHOTONS)
    def test_narrow_width_equals_the_model_value(self, photons):
        # the float route at finite beta
        rng = random.Random(21 + photons)
        for _ in range(30):
            thetas = settings_off_collisions(rng, photons, 0.02)
            beta = 10 ** rng.uniform(-6.0, -1.0)
            sums = [sum_out_channel(split_backend(PolAngle(t), beta)) for t in thetas]
            if photons == 2:  # a Bell pair: its second arm at minus its angle, reflected
                minus = sum_out_channel(split_backend(PolAngle(-thetas[1]), beta))
                sums[1] = tuple(f.reflected() for f in minus)
            got = partition_ratio(*contract_channels(sums, 1e-8))
            assert got == pytest.approx(model_value(sum(thetas), beta, photons), rel=1e-11, abs=0), (thetas, beta)


def test_default_scan_lies_on_the_model_value(tmp_path):
    # triphoton-compare's default sigma has converged: every scan setting off
    # a collision (sum not a multiple of 180 degrees) lies on P_3 at its beta
    out = tmp_path / "scan.json"
    assert main(["triphoton-compare", "--format", "json", "--output", str(out)]) == 0
    checked = 0
    for row in json.loads(out.read_text()):
        setting_sum = row["phi1_deg"] + row["phi2_deg"] + row["phi3_deg"]
        if row["model"] == "QM" or setting_sum % 180.0 == 0.0:
            continue
        want = model_value(math.radians(setting_sum), 1e-3, 3)
        assert row["value"] == pytest.approx(want, rel=1e-4, abs=0), row
        checked += 1
    assert checked == 200
