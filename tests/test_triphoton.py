"""The triphoton routes on the 1-D axis, against the 2-D evaluation they replace.

The reference below keeps the broadcast n x n form: the first two photons
on the grid angles ``u`` and ``v``, the third at ``(-u - v) mod pi``, every
channel sampled on the full 2-D grid and the triple products summed cell by
cell.  It lives here, not in the package, as the independent check of the
constrained-angle contraction.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellfield.angles import PI, PolAngle
from bellfield.bell import (
    ABSORBER_COST,
    Mrf3Params,
    constrained_sum,
    grid_backend,
    primitive_product,
    sum_out_channel,
    triphoton_angles,
)
from bellfield.dist import grid_points
from bellfield.quantum import triphoton_compare


def photon_angles_2d(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    axis = grid_points(n)
    u = axis[:, None]
    v = axis[None, :]
    return np.broadcast_to(u, (n, n)), np.broadcast_to(v, (n, n)), (-u - v) % PI


def reference_mrf(settings3, params: Mrf3Params) -> float:
    sums = [
        sum_out_channel(grid_backend(theta, s.value, params.alpha, params.beta, params.sigma))
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
        split = grid_backend(thetas[arm], settings3[arm].value, params.alpha, params.beta, params.sigma)
        branches = [
            item
            for w, passed in branches
            for item in ((w * split["pass"], {**passed, arm: True}), (w * split["block"], {**passed, arm: False}))
        ]
    cost = primitive_product(ABSORBER_COST, {"alpha": params.alpha, "beta": params.beta}) ** 3
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

    def test_axis_is_the_one_dimensional_grid(self):
        params = Mrf3Params(PolAngle(0.0), PolAngle(0.0), sigma=0.05, grid_n=96)
        assert np.array_equal(triphoton_angles(params), grid_points(96))


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
        mrf = triphoton_compare(settings3, order, "MRF", params).probability
        mstar = triphoton_compare(settings3, order, "Mstar", params).probability
        relabeled = tuple(settings3[i] for i in order)
        assert mrf == pytest.approx(reference_mrf(relabeled, params), rel=1e-12, abs=0)
        assert mstar == pytest.approx(reference_mstar(settings3, params, order), rel=1e-12, abs=0)


def degrees(values):
    return tuple(PolAngle.from_degrees(d) for d in values)


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
            triphoton_compare(degrees(s), (0, 1, 2), "MRF", self.PARAMS).probability
            for s in (first, second)
        )
        assert a == pytest.approx(b, abs=1e-12)

    def test_qm_tells_equal_sums_apart(self):
        first, second = degrees((10.0, 25.0, 40.0)), degrees((20.0, 50.0, 5.0))
        assert math.isclose(sum(s.value for s in first) % PI, sum(s.value for s in second) % PI)
        mrf = [triphoton_compare(s, (0, 1, 2), "MRF", self.PARAMS).probability for s in (first, second)]
        qm = [triphoton_compare(s, (0, 1, 2), "M").probability for s in (first, second)]
        assert mrf[0] == pytest.approx(mrf[1], abs=1e-12)
        assert qm[0] == pytest.approx(0.2671, abs=1e-4)
        assert qm[1] == pytest.approx(0.1950, abs=1e-4)
