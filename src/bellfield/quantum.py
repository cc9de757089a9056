"""Density matrices, branch ensembles, and the two polarizer superoperators.

The traditional polarizer acts on a photon's state as a linear dephasing
map in the polarizer's basis: keep the diagonal, kill the coherences.  The
modified polarizer weighs the incoming linear components first -- aligned
light passes at full weight, everything else pays the conversion cost
``beta`` -- and only then normalizes, which makes it nonlinear.  The
weighted, unnormalized map is linear and is what gets applied here; the
normalization is a separate, explicit step.

Each model is written once, for N arms, and the Bell pair is its N = 2 call:

* traditional (:func:`qm_coincidence`): the N-photon GHZ state, each arm
  dephased in application order, then projected on its pass mode;
* modified, exact (:func:`mstar_bell_coincidence` without ``sigma``): a
  branch ensemble -- a positive mixture of tagged configurations (linear at
  some angle, circular, absorbed, or linear at the shared source angle with
  a graded distribution-valued correlation) -- in which each polarizer
  splits every branch into its pass and blocked descendants;
* modified, regularized (``sigma`` given, and the triphoton ``Mstar``): the
  same pass and block splits of :func:`~bellfield.bell.split_backend`, with
  float coefficients, contracted along the source's angle constraint with
  no grid.  The contraction is linear in each arm, so the 2^N branches add
  up to one contraction of the per-arm totals pass + block, and the detected
  weight is the all-pass branch alone: the channel pair (detected,
  undetected) of :func:`~bellfield.bell.contract_channels` is (pass, block).

Every photon, passed or blocked, ends in an absorber of the same cost
2*alpha*beta, so neither modified route multiplies that cost in: no ratio
reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Literal, Sequence

import numpy as np

from .angles import PolAngle
from .bell import (
    Mrf3Params,
    build_triphoton_graph,
    contract_channels,
    partition_ratio,
    split_backend,
)
from .dist import (
    DistFn,
    dist_integrate,
    dist_mul,
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


def _mode_projector(theta: PolAngle | float) -> np.ndarray:
    v = linear_state(theta)
    return np.outer(v, v.conj())


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices: the products ``np.kron`` computes,
    without its general-rank bookkeeping."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(ra * rb, ca * cb)


def _embed(op: np.ndarray, n: int, subsystem: int) -> np.ndarray:
    if not (0 <= subsystem < n):
        raise IndexError(f"subsystem {subsystem} out of range for {n} photons")
    factors = [np.eye(2, dtype=complex)] * n
    factors[subsystem] = op
    return reduce(_kron, factors)


def dephase(entries: np.ndarray, n: int, subsystem: int, theta0: PolAngle) -> np.ndarray:
    """Unvalidated core of the traditional polarizer map on one photon."""
    p0 = _embed(_mode_projector(theta0), n, subsystem)
    p1 = _embed(_mode_projector(theta0.perpendicular()), n, subsystem)
    return p0 @ entries @ p0 + p1 @ entries @ p1


def apply_M(rho: DensityMatrix, subsystem: int, theta0: PolAngle) -> DensityMatrix:
    """Traditional polarizer: dephase one photon in the {theta0, theta0+90}
    basis.  Linear, trace-preserving, positivity-preserving, idempotent."""
    return DensityMatrix(dephase(rho.entries, rho.n_photons, subsystem, theta0))


def qm_coincidence(settings: Sequence[PolAngle], order: Sequence[int]) -> float:
    """Probability that every photon of the N-photon GHZ state passes.

    Arm ``k`` is dephased in the basis of ``settings[k]``, the arms in
    ``order``; then each is projected on its pass mode.  The source state is
    checked once, as a :class:`PureState`.
    """
    n = len(settings)
    amplitudes = PureState(ghz_state(n)).amplitudes
    rho = np.outer(amplitudes, amplitudes.conj())
    for k in order:
        rho = dephase(rho, n, k, settings[k])
    proj = reduce(_kron, [_mode_projector(t) for t in settings])
    return float(np.trace(proj @ rho).real)


def bell_coincidence_qm(theta_a: PolAngle, theta_b: PolAngle) -> float:
    """Double-detection probability for the entangled pair: the two-photon
    :func:`qm_coincidence`."""
    return qm_coincidence((theta_a, theta_b), (0, 1))


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
    angle_weight: DistFn | None = None

    def total_weight(self) -> GradedCoeff:
        """Scalar weight with the angle correlation integrated out."""
        if self.angle_weight is None:
            return self.weight
        return self.weight * dist_integrate(self.angle_weight)

    @property
    def is_dead(self) -> bool:
        return self.weight.is_zero or (self.angle_weight is not None and self.angle_weight.is_zero)


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


def bell_source_ensemble() -> BranchEnsemble:
    """Two photons sharing one uniformly distributed linear angle."""
    return BranchEnsemble((Branch(GradedCoeff.one(), (SourceTag(), SourceTag()), DistFn.one()),))


@dataclass(frozen=True)
class PolarizerSetting:
    """Polarizer axis plus the conversion cost.

    ``beta=None`` keeps the conversion cost formal (graded); a float makes
    the split numeric.  The point masses stay exact either way; settings
    whose atoms collide take the regularized route of
    :func:`mstar_bell_coincidence` instead.
    """

    theta0: PolAngle
    beta: float | None = None

    def __post_init__(self):
        if self.beta is not None and not self.beta > 0:
            raise ValueError("beta must be positive in numeric mode")

    @property
    def beta_coeff(self) -> GradedCoeff:
        return BETA if self.beta is None else GradedCoeff.constant(self.beta)


def _times_angle_factor(branch: Branch, factor: DistFn) -> DistFn:
    if branch.angle_weight is None:
        raise ValueError("branch has no source-angle correlation to weigh")
    return dist_mul(branch.angle_weight, factor)


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
            split = split_backend(theta0, ALPHA, beta)
            out.append(
                retag(LinearTag(theta0), angle_weight=_times_angle_factor(branch, split["pass"]))
            )
            out.append(
                retag(LinearTag(perp), angle_weight=_times_angle_factor(branch, split["block"]))
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
    alpha: float = 1e-2,
) -> float:
    """Double-detection probability from the branch-ensemble pipeline.

    Starts from the shared-angle pair ensemble and applies the weighted
    polarizer on each arm.  A branch is detected when both photons leave on
    their pass axes; the probability is the graded (or numeric) ratio of
    detected weight to total weight.  The detector's cost 2*alpha*beta is the
    same for a passed and a blocked photon, so it cancels from that ratio.

    A kernel width ``sigma`` regularizes the point masses, which equal or
    orthogonal settings need: the arms' (pass, block) splits are then
    contracted by :func:`~bellfield.bell.contract_channels`, the second
    arm's reflected so that the shared angle becomes a sum constraint.  It
    needs a numeric ``beta``.  On either path ``alpha`` only feeds the knob
    checks: ``alpha``, and ``beta`` and ``sigma`` when numeric, must pass
    :class:`~bellfield.bell.Mrf3Params`, else
    :class:`~bellfield.bell.ParameterError` naming the knob.
    """
    if sigma is not None and beta is None:
        raise ValueError("regularized mode requires numeric beta")
    knobs = {k: v for k, v in (("beta", beta), ("sigma", sigma)) if v is not None}
    Mrf3Params(theta_a, theta_b, alpha=alpha, **knobs)
    if sigma is not None:
        left, right = (split_backend(t, alpha, beta) for t in (theta_a, theta_b))
        pairs = ((left["pass"], left["block"]), (right["pass"].reflected(), right["block"].reflected()))
        return partition_ratio(*contract_channels(pairs, sigma))

    ens = bell_source_ensemble()
    for arm, theta in enumerate((theta_a, theta_b)):
        ens = apply_Mstar(ens, arm, PolarizerSetting(theta, beta=beta))

    num = GradedCoeff.zero()
    den = GradedCoeff.zero()
    axes = (theta_a, theta_b)
    for branch in ens.branches:
        w = branch.total_weight()
        den = den + w
        if all(isinstance(tag, LinearTag) and tag.angle == axis for tag, axis in zip(branch.tags, axes)):
            num = num + w
    if den.is_zero:
        raise ZeroEnsemble("no surviving weight after detection")
    if num.is_constant and den.is_constant:
        return float(num.constant_value() / den.constant_value())
    return coeff_ratio_limit(num, den)


# -- triphoton comparison ---------------------------------------------------------------


def triphoton_compare(
    settings: Sequence[PolAngle],
    order: Sequence[int] = (0, 1, 2),
    model: str = "M",
    params: Mrf3Params | None = None,
) -> float:
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
        return qm_coincidence(settings, order)
    if model not in ("Mstar", "MRF"):
        raise ValueError(f"unknown model: {model!r}")
    if params is None:
        raise ValueError(f"{model} model needs numeric params")
    if model == "Mstar":
        # The source treats its photons alike, so they take the slots in application order.
        splits = [split_backend(settings[arm], params.alpha, params.beta) for arm in order]
        return partition_ratio(*contract_channels([(s["pass"], s["block"]) for s in splits], params.sigma))
    relabeled = tuple(settings[i] for i in order)
    return build_triphoton_graph(relabeled, params).triple_coincidence()

