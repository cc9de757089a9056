"""Density matrices, branch ensembles, and the two polarizer superoperators.

The traditional polarizer acts on a photon's state as a linear dephasing
map in the polarizer's basis: keep the diagonal, kill the coherences.  The
modified polarizer weighs the incoming linear components first -- aligned
light passes at full weight, everything else pays the conversion cost
``beta`` -- and only then normalizes, which makes it nonlinear.  The
weighted, unnormalized map is linear and is what gets applied here; the
normalization is a separate, explicit step.

The modified map is evaluated in a branch-ensemble picture: a state is a
positive mixture of tagged configurations (linear at some angle, circular,
absorbed, or linear at the shared source angle with a distribution-valued
correlation), and each polarizer splits every branch into its pass and
blocked descendants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from typing import Literal, Sequence

import numpy as np

from .angles import PI, PolAngle
from .bell import (
    ABSORBER_COST,
    Mrf3Params,
    build_triphoton_graph,
    constrained_sum,
    graded_backend,
    grid_backend,
    partition_ratio,
    primitive_product,
    triphoton_angles,
)
from .dist import (
    MAX_GRID,
    DistFn,
    RegularizedDistFn,
    dist_integrate,
    dist_mul,
    grid_points,
    # Unused here, but bench/tests checks that tracing rebinds it in this module.
    wrapped_gaussian,  # noqa: F401
)
from .graded import GradedCoeff, coeff_ratio_limit

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGEN_TOL = 1e-10

ALPHA = GradedCoeff.alpha()
BETA = GradedCoeff.beta()


class NotAState(ValueError):
    """Vector or matrix fails the state invariants."""


class ZeroEnsemble(ArithmeticError):
    """Every branch of the ensemble annihilated."""


# -- states ----------------------------------------------------------------------


def linear_state(theta: PolAngle | float) -> np.ndarray:
    t = theta.value if isinstance(theta, PolAngle) else float(theta)
    return np.array([math.cos(t), math.sin(t)], dtype=complex)


def circular_state(handedness: str) -> np.ndarray:
    if handedness not in ("C", "W"):
        raise ValueError("handedness must be 'C' or 'W'")
    sign = 1j if handedness == "C" else -1j
    return np.array([1.0, sign], dtype=complex) / math.sqrt(2.0)


def bell_pair() -> np.ndarray:
    """(|HH> + |VV>) / sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return v


def ghz_state(n: int = 3) -> np.ndarray:
    """(|H...H> + |V...V>) / sqrt(2)."""
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / math.sqrt(2.0)
    return v


@dataclass(frozen=True)
class PureState:
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amp)
        n = amp.size
        if n == 0 or n & (n - 1):
            raise NotAState(f"length {n} is not a power of two")
        if abs(np.linalg.norm(amp) - 1.0) > 1e-12:
            raise NotAState(f"norm {np.linalg.norm(amp)!r} is not 1")

    @property
    def n_photons(self) -> int:
        return self.amplitudes.size.bit_length() - 1

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise NotAState(f"not square: {m.shape}")
        n = m.shape[0]
        if n == 0 or n & (n - 1):
            raise NotAState(f"dimension {n} is not a power of two")
        if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
            raise NotAState("not Hermitian")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise NotAState(f"trace {np.trace(m)!r} is not 1")
        if np.linalg.eigvalsh(m).min() < -EIGEN_TOL:
            raise NotAState("negative eigenvalue")

    @property
    def n_photons(self) -> int:
        return self.entries.shape[0].bit_length() - 1

    @classmethod
    def from_pure(cls, amplitudes: np.ndarray) -> "DensityMatrix":
        return PureState(amplitudes).density()

    @classmethod
    def maximally_mixed(cls, n: int = 1) -> "DensityMatrix":
        d = 2**n
        return cls(np.eye(d, dtype=complex) / d)


def _mode_projector(theta: PolAngle | float) -> np.ndarray:
    v = linear_state(theta)
    return np.outer(v, v.conj())


def _embed(op: np.ndarray, n: int, subsystem: int) -> np.ndarray:
    if not (0 <= subsystem < n):
        raise IndexError(f"subsystem {subsystem} out of range for {n} photons")
    factors = [np.eye(2, dtype=complex)] * n
    factors[subsystem] = op
    return reduce(np.kron, factors)


def dephase(entries: np.ndarray, n: int, subsystem: int, theta0: PolAngle) -> np.ndarray:
    """Unvalidated core of the traditional polarizer map on one photon."""
    p0 = _embed(_mode_projector(theta0), n, subsystem)
    p1 = _embed(_mode_projector(theta0.perpendicular()), n, subsystem)
    return p0 @ entries @ p0 + p1 @ entries @ p1


def apply_M(rho: DensityMatrix, subsystem: int, theta0: PolAngle) -> DensityMatrix:
    """Traditional polarizer: dephase one photon in the {theta0, theta0+90}
    basis.  Linear, trace-preserving, positivity-preserving, idempotent."""
    return DensityMatrix(dephase(rho.entries, rho.n_photons, subsystem, theta0))


def bell_coincidence_qm(theta_a: PolAngle, theta_b: PolAngle) -> float:
    """Double-detection probability for the entangled pair, both arms
    dephased then projected on their pass modes."""
    rho = DensityMatrix.from_pure(bell_pair())
    rho = apply_M(rho, 0, theta_a)
    rho = apply_M(rho, 1, theta_b)
    proj = np.kron(_mode_projector(theta_a), _mode_projector(theta_b))
    return float(np.trace(proj @ rho.entries).real)


def malus_chain(initial: PolAngle | Literal["unpolarized"], settings: Sequence[PolAngle]) -> float:
    """Transmission of one beam through polarizers in sequence.

    Each stage dephases in its own basis and keeps only the pass mode; the
    result is the chained product of cos^2 overlaps and depends on the
    order of the stages.
    """
    if not settings:
        raise ValueError("at least one polarizer setting required")
    if initial == "unpolarized":
        rho = np.eye(2, dtype=complex) / 2
    else:
        v = linear_state(initial)
        rho = np.outer(v, v.conj())
    for theta in settings:
        rho = dephase(rho, 1, 0, theta)
        p = _mode_projector(theta)
        rho = p @ rho @ p
    return float(np.trace(rho).real)


def decompose_linear(rho: DensityMatrix) -> tuple[np.ndarray, list[tuple[PolAngle, float]]]:
    """Canonical split of a single-photon state into linear point masses
    plus a circular remainder.

    The real part of the matrix (in the H/V basis) is a mixture of linear
    polarizations; its eigenvectors give two orthogonal linear atoms with
    nonnegative weights.  What is left, the imaginary part, is the circular
    residue (zero for any real mixture).  Atoms plus residue reconstruct
    the input exactly.
    """
    if rho.n_photons != 1:
        raise NotAState("decomposition defined for single-photon states")
    m = rho.entries
    real = (m.real + m.real.T) / 2.0
    w, vecs = np.linalg.eigh(real)
    atoms: list[tuple[PolAngle, float]] = []
    recon = np.zeros_like(m)
    for weight, vec in zip(w, vecs.T):
        if abs(weight) < 1e-14:
            continue
        angle = PolAngle(math.atan2(vec[1], vec[0]))
        atoms.append((angle, float(weight)))
        recon = recon + weight * np.outer(vec, vec)
    rho0 = m - recon
    return rho0, atoms


# -- branch ensembles ----------------------------------------------------------------


@dataclass(frozen=True)
class LinearTag:
    angle: PolAngle


@dataclass(frozen=True)
class CircularTag:
    handedness: str = "C"


@dataclass(frozen=True)
class AbsorbedTag:
    pass


@dataclass(frozen=True)
class SourceTag:
    """Linear at the shared source angle; weight carried by the branch's
    angle-correlation factor."""


Tag = LinearTag | CircularTag | AbsorbedTag | SourceTag


@dataclass(frozen=True)
class Branch:
    weight: GradedCoeff
    tags: tuple[Tag, ...]
    angle_weight: DistFn | RegularizedDistFn | None = None

    def total_weight(self) -> GradedCoeff:
        """Scalar weight with the angle correlation integrated out."""
        w = self.weight
        if isinstance(self.angle_weight, DistFn):
            w = w * dist_integrate(self.angle_weight)
        elif isinstance(self.angle_weight, RegularizedDistFn):
            w = w * GradedCoeff.constant(self.angle_weight.integral())
        return w

    @property
    def is_dead(self) -> bool:
        if self.weight.is_zero:
            return True
        return isinstance(self.angle_weight, DistFn) and self.angle_weight.is_zero


@dataclass(frozen=True)
class BranchEnsemble:
    branches: tuple[Branch, ...]

    def __post_init__(self):
        branches = tuple(self.branches)
        if not any(not b.is_dead for b in branches):
            raise ZeroEnsemble("ensemble has no live branches")
        counts = {len(b.tags) for b in branches}
        if len(counts) != 1:
            raise ValueError("branches disagree on photon count")
        for b in branches:
            if any(c < 0 for c in b.weight.leading_terms().values()):
                raise ValueError("branch weights must have nonnegative leading coefficients")
        object.__setattr__(self, "branches", branches)

    @property
    def n_photons(self) -> int:
        return len(self.branches[0].tags)


def _check_grid_n(grid_n: int) -> None:
    if not 1 <= grid_n <= MAX_GRID:
        raise ValueError(f"grid_n must lie in [1, {MAX_GRID}], got {grid_n}")


def bell_source_ensemble(sigma: float | None = None, grid_n: int = 8192) -> BranchEnsemble:
    """Two photons sharing one uniformly distributed linear angle."""
    _check_grid_n(grid_n)
    if sigma is None:
        angle_weight: DistFn | RegularizedDistFn = DistFn.one()
    else:
        angle_weight = RegularizedDistFn(np.ones(grid_n))
    return BranchEnsemble(
        (Branch(GradedCoeff.one(), (SourceTag(), SourceTag()), angle_weight),)
    )


@dataclass(frozen=True)
class PolarizerSetting:
    """Polarizer axis plus the weighting-function flavor.

    ``beta=None`` keeps the conversion cost formal (graded); a float makes
    the split numeric.  A kernel width ``sigma`` makes the split regularized:
    the exact point masses become width-``sigma`` kernels on a ``grid_n``
    grid (required when the incoming atoms would collide with the
    polarizer's own axes), which needs a numeric ``beta``.  ``grid_n``
    outside [1, MAX_GRID] raises ``ValueError``.
    """

    theta0: PolAngle
    beta: float | None = None
    sigma: float | None = None
    grid_n: int = 8192

    def __post_init__(self):
        _check_grid_n(self.grid_n)
        if self.beta is not None and not self.beta > 0:
            raise ValueError("beta must be positive in numeric mode")
        if self.sigma is not None:
            if not self.sigma > 0:
                raise ValueError("regularized mode requires sigma > 0")
            if self.beta is None:
                raise ValueError("regularized mode requires numeric beta")

    @property
    def beta_coeff(self) -> GradedCoeff:
        return BETA if self.beta is None else GradedCoeff.constant(self.beta)


def _source_split_factors(setting: PolarizerSetting):
    """Pass/block weighting factors as functions of the source angle."""
    theta0 = setting.theta0
    if setting.sigma is None:
        split = graded_backend(theta0, setting.beta_coeff)
        return split["pass"], split["block"]
    # The polarizer map has no counter, so alpha never enters.
    split = grid_backend(
        grid_points(setting.grid_n), theta0.value, math.nan, setting.beta, setting.sigma  # type: ignore[arg-type]
    )
    return RegularizedDistFn(split["pass"]), RegularizedDistFn(split["block"])


def _times_angle_factor(branch: Branch, factor) -> "DistFn | RegularizedDistFn":
    if branch.angle_weight is None:
        raise ValueError("branch has no source-angle correlation to weigh")
    if isinstance(branch.angle_weight, DistFn) and isinstance(factor, DistFn):
        return dist_mul(branch.angle_weight, factor)
    if isinstance(branch.angle_weight, RegularizedDistFn) and isinstance(
        factor, RegularizedDistFn
    ):
        return branch.angle_weight * factor
    raise ValueError("branch and polarizer disagree on exact vs regularized mode")


def apply_Mstar(ens: BranchEnsemble, subsystem: int, setting: PolarizerSetting) -> BranchEnsemble:
    """Weighted polarizer map, branch by branch, *without* normalization.

    Aligned linear branches pass untouched (no conversion cost); orthogonal
    ones continue on the blocked axis untouched; anything else splits into
    both axes at cost beta with the usual cos^2/sin^2 division.  Circular
    branches split evenly at cost beta.  Source-angle branches multiply
    their angle correlation by the pass/block weighting and become fixed
    linear branches.  Normalization is a separate, explicitly nonlinear
    step (:func:`normalize_ensemble`).
    """
    theta0 = setting.theta0
    perp = theta0.perpendicular()
    beta = setting.beta_coeff
    out: list[Branch] = []
    for branch in ens.branches:
        tag = branch.tags[subsystem]

        def retag(new_tag, weight=None, angle_weight="keep"):
            tags = branch.tags[:subsystem] + (new_tag,) + branch.tags[subsystem + 1 :]
            return Branch(
                weight=branch.weight if weight is None else weight,
                tags=tags,
                angle_weight=branch.angle_weight if angle_weight == "keep" else angle_weight,
            )

        if isinstance(tag, AbsorbedTag):
            out.append(branch)
        elif isinstance(tag, LinearTag):
            if tag.angle == theta0:
                out.append(retag(LinearTag(theta0)))
            elif tag.angle == perp:
                out.append(retag(LinearTag(perp)))
            else:
                d = tag.angle.value - theta0.value
                c2 = math.cos(d) ** 2
                out.append(retag(LinearTag(theta0), branch.weight * beta * c2))
                out.append(retag(LinearTag(perp), branch.weight * beta * (1.0 - c2)))
        elif isinstance(tag, CircularTag):
            half = beta * GradedCoeff.constant(0.5)
            out.append(retag(LinearTag(theta0), branch.weight * half))
            out.append(retag(LinearTag(perp), branch.weight * half))
        elif isinstance(tag, SourceTag):
            pass_f, block_f = _source_split_factors(setting)
            out.append(
                retag(LinearTag(theta0), angle_weight=_times_angle_factor(branch, pass_f))
            )
            out.append(
                retag(LinearTag(perp), angle_weight=_times_angle_factor(branch, block_f))
            )
        else:
            raise TypeError(f"unknown tag: {tag!r}")
    return BranchEnsemble(tuple(out))


def normalize_ensemble(ens: BranchEnsemble) -> tuple[BranchEnsemble, GradedCoeff]:
    """Divide branch weights by the ensemble's total weight.

    With formal parameters the division keeps only the matched leading
    order (a branch of strictly higher order gets weight zero); with
    numeric weights it is plain division.  Returns the discarded total for
    probability bookkeeping.
    """
    totals = [b.total_weight() for b in ens.branches]
    grand = GradedCoeff.zero()
    for t in totals:
        grand = grand + t
    if grand.is_zero:
        raise ZeroEnsemble("total ensemble weight is zero")
    numeric = grand.is_constant and all(t.is_constant for t in totals)
    new_branches = []
    for branch, t in zip(ens.branches, totals):
        if numeric:
            share = float(t.constant_value() / grand.constant_value())
        else:
            share = coeff_ratio_limit(t, grand)
        new_branches.append(
            Branch(weight=GradedCoeff.constant(share), tags=branch.tags, angle_weight=None)
        )
    return BranchEnsemble(tuple(new_branches)), grand


def mstar_bell_coincidence(
    theta_a: PolAngle,
    theta_b: PolAngle,
    beta: float | None = None,
    *,
    sigma: float | None = None,
    grid_n: int = 8192,
    alpha: float = 1e-2,
) -> float:
    """Double-detection probability from the branch-ensemble pipeline.

    Starts from the shared-angle pair ensemble, applies the weighted
    polarizer on each arm, then the detector bookkeeping: a passing photon
    converts to one of two circular modes (cost beta each) and is absorbed
    by the counter (cost alpha); a blocked photon is absorbed internally
    (cost 2*alpha*beta).  The probability is the graded (or numeric) ratio
    of detected weight to total weight.
    """
    ens = bell_source_ensemble(sigma=sigma, grid_n=grid_n)
    for arm, theta in enumerate((theta_a, theta_b)):
        ens = apply_Mstar(ens, arm, PolarizerSetting(theta, beta=beta, sigma=sigma, grid_n=grid_n))

    # Passing and blocked photons both end in an absorber of the same cost.
    if beta is None:
        cost = primitive_product(ABSORBER_COST, {"alpha": ALPHA, "beta": BETA})
    else:
        cost = GradedCoeff.constant(primitive_product(ABSORBER_COST, {"alpha": alpha, "beta": beta}))

    num = GradedCoeff.zero()
    den = GradedCoeff.zero()
    axes = (theta_a, theta_b)
    for branch in ens.branches:
        w = branch.total_weight()
        detected = True
        for tag, axis in zip(branch.tags, axes):
            w = w * cost
            detected = detected and isinstance(tag, LinearTag) and tag.angle == axis
        den = den + w
        if detected:
            num = num + w
    if den.is_zero:
        raise ZeroEnsemble("no surviving weight after detection")
    if num.is_constant and den.is_constant:
        return float(num.constant_value() / den.constant_value())
    return coeff_ratio_limit(num, den)


# -- triphoton comparison ---------------------------------------------------------------


@dataclass(frozen=True)
class TriphotonResult:
    model: str
    order: tuple[int, int, int]
    probability: float


def _triphoton_m(settings: Sequence[PolAngle], order: Sequence[int]) -> float:
    rho = np.outer(ghz_state(3), ghz_state(3).conj())
    for k in order:
        rho = dephase(rho, 3, k, settings[k])
    proj = reduce(np.kron, [_mode_projector(t) for t in settings])
    return float(np.trace(proj @ rho).real)


def _triphoton_mstar(settings: Sequence[PolAngle], params: Mrf3Params, order: Sequence[int]) -> float:
    """Branch-ensemble pipeline over the angle-constrained source (numeric).

    The arms apply in ``order``; each splits every branch into its pass and
    blocked descendant, sampled on the 1-D axis.  A branch's weight is the
    :func:`constrained_sum` of its three samples over the two free source
    angles; the source treats its photons alike, so they take the sum's
    slots in application order.
    """
    axis = triphoton_angles(params)
    splits = [grid_backend(axis, settings[arm].value, params.alpha, params.beta, params.sigma) for arm in order]
    # Every arm ends in an absorber of the same cost, passed or blocked.
    cost = primitive_product(ABSORBER_COST, {"alpha": params.alpha, "beta": params.beta}) ** 3
    cell = (PI / params.grid_n) ** 2
    num = 0.0
    den = 0.0
    for branch in itertools.product(("pass", "block"), repeat=3):
        weight = constrained_sum(*(split[kind] for split, kind in zip(splits, branch))) * cell * cost
        den += weight
        if branch == ("pass", "pass", "pass"):
            num += weight
    return partition_ratio(num, den)


def triphoton_compare(
    settings: Sequence[PolAngle],
    order: Sequence[int] = (0, 1, 2),
    model: str = "M",
    params: Mrf3Params | None = None,
) -> TriphotonResult:
    """Triple-coincidence probability under one of the three models.

    ``order`` is the polarizer application sequence for the superoperator
    models and a channel relabeling for the graph model (which has no
    arrival order at all).
    """
    settings = tuple(settings)
    order = tuple(order)
    if sorted(order) != [0, 1, 2]:
        raise ValueError("order must be a permutation of (0, 1, 2)")
    if model == "M":
        p = _triphoton_m(settings, order)
    elif model == "Mstar":
        if params is None:
            raise ValueError("Mstar model needs numeric params")
        p = _triphoton_mstar(settings, params, order)
    elif model == "MRF":
        if params is None:
            raise ValueError("MRF model needs numeric params")
        relabeled = tuple(settings[i] for i in order)
        p = build_triphoton_graph(relabeled, params).triple_coincidence()
    else:
        raise ValueError(f"unknown model: {model!r}")
    return TriphotonResult(model=model, order=order, probability=p)

