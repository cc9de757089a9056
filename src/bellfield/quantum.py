"""Density matrices, branch ensembles, and the two polarizer superoperators.

The traditional polarizer acts on a photon's state as a linear dephasing
map in the polarizer's basis: keep the diagonal, kill the coherences.  The
modified polarizer weighs the incoming linear components first -- aligned
light passes at full weight, everything else pays the conversion cost
``beta`` -- and only then normalizes, which makes it nonlinear.  The
weighted, unnormalized map is linear and is what gets applied here; the
normalization is a separate, explicit step.

Each model is written once, for N arms, and the Bell pair is its N = 2 call:

* traditional (:func:`qm_coincidence`): the Born rule on the linear
  N-photon GHZ state (|H...H> + |V...V>)/sqrt(2) (:func:`ghz_state`), read
  on the product of the arms' pass modes.  Every QM row the package reports
  (the Bell pair's ``QM``, the triphoton ``M``) is this value; it gives
  cos^2(theta_a - theta_b)/2 for the pair.  The circular GHZ state
  (|R...R> + |L...L>)/sqrt(2) (:func:`circular_ghz_state`) would give
  cos^2(sum theta)/2^(N-1), the random-field model's N-photon limit; for
  N = 2 the two differ by reflecting one arm, for N >= 3 they give
  different statistics, and no row reads it yet;
* modified, exact (:func:`mstar_bell_coincidence` without ``sigma``): a
  branch ensemble -- a positive mixture of tagged configurations (linear at
  some angle, circular, absorbed, or linear at the shared source angle with
  a graded distribution-valued correlation) -- in which each polarizer
  splits every branch into its pass and blocked descendants, each weighed
  by the arm's pass or block split of :func:`~bellfield.bell.split_backend`
  (a source correlation by :func:`~bellfield.dist.dist_mul`, not the
  contraction);
* modified, regularized (``sigma`` given, and the triphoton ``Mstar``): the
  same pass and block splits of :func:`~bellfield.bell.split_backend`, with
  float coefficients, contracted along the source's angle constraint with
  no grid by :func:`~bellfield.dist.contract`, the one contraction of
  every Bell and triphoton route but the oracle, the branch ensemble and QM.
  The contraction is linear in each arm, so the 2^N branches add up to one
  contraction of the per-arm totals pass + block, and the detected weight
  is the all-pass branch alone: the channel pair (detected, undetected) of
  :func:`~bellfield.bell.contract_channels` is (pass, block).

Every photon, passed or blocked, ends in an absorber of the same cost
2*alpha*beta, so neither modified route multiplies that cost in: no ratio
reads it, as alpha cancels from every ratio (see :mod:`bellfield.bell`).

Only the density matrices use numpy: :func:`linear_state`, :func:`ghz_state`,
:func:`circular_ghz_state`, :class:`DensityMatrix`, the traditional
polarizer map and :func:`malus_chain` import it when called.  The QM row and
both modified routes run on Python numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Literal, Sequence

from .angles import PolAngle
from .bell import (
    BETA,
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

if TYPE_CHECKING:
    import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGEN_TOL = 1e-10


class NotAState(ValueError):
    """Vector or matrix fails the state invariants."""


class ZeroEnsemble(ArithmeticError):
    """Every branch of the ensemble annihilated."""


# -- states ----------------------------------------------------------------------


def _linear_amplitudes(theta: PolAngle | float) -> tuple[complex, complex]:
    """The H and V amplitudes of linear polarization at ``theta``."""
    t = theta.value if isinstance(theta, PolAngle) else float(theta)
    return complex(math.cos(t)), complex(math.sin(t))


def linear_state(theta: PolAngle | float) -> np.ndarray:
    import numpy as np

    return np.array(_linear_amplitudes(theta), dtype=complex)


def _ghz_amplitudes(n: int) -> tuple[tuple[int, complex], ...]:
    """The nonzero amplitudes of (|H...H> + |V...V>) / sqrt(2), as (basis
    index, amplitude); the first photon is the index's highest bit, V is 1."""
    a = complex(1.0 / math.sqrt(2.0))
    return (0, a), (2**n - 1, a)


def ghz_state(n: int = 3) -> np.ndarray:
    """(|H...H> + |V...V>) / sqrt(2)."""
    import numpy as np

    v = np.zeros(2**n, dtype=complex)
    for index, a in _ghz_amplitudes(n):
        v[index] = a
    return v


def circular_ghz_state(n: int = 3) -> np.ndarray:
    """(|R...R> + |L...L>) / sqrt(2), with R = (|H> + i|V>) / sqrt(2) and L
    its conjugate: a linear polarizer at theta passes R with amplitude
    e^(i theta)/sqrt(2), so every arm passing has probability
    cos^2(theta_1 + ... + theta_N) / 2^(N-1)."""
    import numpy as np

    right = reduce(np.multiply.outer, [np.array([1.0, 1j]) / math.sqrt(2.0)] * n).ravel()
    return (right + right.conj()) / math.sqrt(2.0)


@dataclass(frozen=True)
class DensityMatrix:
    entries: np.ndarray

    def __post_init__(self):
        import numpy as np

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
        """The pure state's projector; amplitudes whose length is not a power
        of two, or whose norm is not 1, fail the matrix's own checks."""
        import numpy as np

        amp = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return cls(np.outer(amp, amp.conj()))


def _mode_projector(theta: PolAngle | float) -> np.ndarray:
    import numpy as np

    v = linear_state(theta)
    return np.outer(v, v.conj())


def _embed(op: np.ndarray, n: int, subsystem: int) -> np.ndarray:
    import numpy as np

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


def qm_coincidence(settings: Sequence[PolAngle]) -> float:
    """Probability that every photon of the N-photon GHZ state passes.

    The Born rule |<ghz|v>|^2, v the product of the pass modes.  Dephasing
    an arm in its own basis first cannot move it (its pass projector is a
    factor of the joint one), so the arms have no order.  The overlap runs on
    Python complex numbers over the state's nonzero amplitudes alone, each
    product amplitude multiplied out photon by photon, first to last.
    """
    modes = [_linear_amplitudes(t) for t in settings]
    last = len(modes) - 1
    overlap = 0j
    for index, a in _ghz_amplitudes(len(modes)):
        v = modes[0][index >> last & 1]
        for j in range(1, len(modes)):
            v = v * modes[j][index >> (last - j) & 1]
        overlap += a.conjugate() * v
    return abs(overlap) ** 2


def bell_coincidence_qm(theta_a: PolAngle, theta_b: PolAngle) -> float:
    """Double-detection probability for the entangled pair: the two-photon
    :func:`qm_coincidence`."""
    return qm_coincidence((theta_a, theta_b))


def malus_chain(initial: PolAngle | Literal["unpolarized"], settings: Sequence[PolAngle]) -> float:
    """Transmission of one beam through polarizers in sequence.

    Each stage dephases in its own basis and keeps only the pass mode; the
    result is the chained product of cos^2 overlaps and depends on the
    order of the stages.
    """
    if not settings:
        raise ValueError("at least one polarizer setting required")
    import numpy as np

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


def apply_Mstar(ens: BranchEnsemble, subsystem: int, setting: PolarizerSetting) -> BranchEnsemble:
    """Weighted polarizer map, branch by branch, *without* normalization.

    Every weight is read off the arm's pass and block split,
    :func:`~bellfield.bell.split_backend`: source-angle branches multiply
    their angle correlation by each split and become fixed linear branches;
    a linear photon on either axis takes that side's point mass alone (no
    conversion cost), any other linear photon each side's tail at its angle,
    beta cos^2 and beta sin^2 of its offset, and a circular photon each
    tail's mean, beta/2.  Absorbed photons stay.  Normalization is a
    separate, explicitly nonlinear step (:func:`normalize_ensemble`).
    """
    split = split_backend(setting.theta0, setting.beta_coeff)
    perp = setting.theta0.perpendicular()
    sides = ((LinearTag(setting.theta0), split["pass"]), (LinearTag(perp), split["block"]))
    out: list[Branch] = []
    for branch in ens.branches:
        tag = branch.tags[subsystem]
        if isinstance(tag, AbsorbedTag):
            out.append(branch)
            continue
        if isinstance(tag, SourceTag):
            if branch.angle_weight is None:
                raise ValueError("branch has no source-angle correlation to weigh")
            parts = [(axis, branch.weight, dist_mul(branch.angle_weight, f)) for axis, f in sides]
        elif isinstance(tag, LinearTag):
            weights = [(axis, w) for axis, f in sides if (w := f.atom_weight_at(tag.angle))]
            if not weights:
                # Within about 1e-8 rad of an axis the far tail, beta times the
                # offset squared, is below the split's rounding and can come
                # out negative (-2e-47 beta at 1e-9 rad): it is zero there.
                # The sign is the exact one the ensemble checks; a float of a
                # tail this small can round to -0.0.
                tails = [(axis, f.smooth_at(tag.angle)) for axis, f in sides]
                weights = [
                    (axis, t if all(c >= 0 for c in t.leading_terms().values()) else GradedCoeff.zero())
                    for axis, t in tails
                ]
            parts = [(axis, branch.weight * w, branch.angle_weight) for axis, w in weights]
        elif isinstance(tag, CircularTag):
            parts = [(axis, branch.weight * f.c0, branch.angle_weight) for axis, f in sides]
        else:
            raise TypeError(f"unknown tag: {tag!r}")
        before, after = branch.tags[:subsystem], branch.tags[subsystem + 1 :]
        out.extend(Branch(w, before + (axis,) + after, angle) for axis, w, angle in parts)
    return BranchEnsemble(tuple(out))


def normalize_ensemble(ens: BranchEnsemble) -> tuple[BranchEnsemble, GradedCoeff]:
    """Divide branch weights by the ensemble's total weight.

    With formal parameters the division keeps only the matched leading
    order (a branch of strictly higher order gets weight zero); with
    numeric weights it is plain division, rounded once: both are
    :func:`~bellfield.graded.coeff_ratio_limit`.  Returns the discarded
    total for probability bookkeeping.
    """
    totals = [b.total_weight() for b in ens.branches]
    grand = GradedCoeff.zero()
    for t in totals:
        grand = grand + t
    if grand.is_zero:
        raise ZeroEnsemble("total ensemble weight is zero")
    new_branches = [
        Branch(weight=GradedCoeff.constant(coeff_ratio_limit(t, grand)), tags=branch.tags)
        for branch, t in zip(ens.branches, totals)
    ]
    return BranchEnsemble(tuple(new_branches)), grand


def mstar_bell_coincidence(
    theta_a: PolAngle,
    theta_b: PolAngle,
    beta: float | None = None,
    *,
    sigma: float | None = None,
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
    needs a numeric ``beta``.  On either path ``beta`` and ``sigma``, when
    numeric, must pass :class:`~bellfield.bell.Mrf3Params`, else
    :class:`~bellfield.bell.ParameterError` naming the knob.
    """
    if sigma is not None and beta is None:
        raise ValueError("regularized mode requires numeric beta")
    knobs = {k: v for k, v in (("beta", beta), ("sigma", sigma)) if v is not None}
    Mrf3Params(theta_a, theta_b, **knobs)
    if sigma is not None:
        left, right = (split_backend(t, beta) for t in (theta_a, theta_b))
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
    return coeff_ratio_limit(num, den)


# -- triphoton comparison ---------------------------------------------------------------


def triphoton_compare(
    settings: Sequence[PolAngle],
    model: str = "M",
    params: Mrf3Params | None = None,
) -> float:
    """Triple-coincidence probability under one of the three models.

    No model has an arrival order: the source treats its photons alike, so
    permuting ``settings`` is the only relabeling there is.
    """
    settings = tuple(settings)
    if len(settings) != 3:
        raise ValueError("exactly three polarizer settings required")
    if model == "M":
        return qm_coincidence(settings)
    if model not in ("Mstar", "MRF"):
        raise ValueError(f"unknown model: {model!r}")
    if params is None:
        raise ValueError(f"{model} model needs numeric params")
    if model == "Mstar":
        splits = [split_backend(s, params.beta) for s in settings]
        return partition_ratio(*contract_channels([(s["pass"], s["block"]) for s in splits], params.sigma))
    return build_triphoton_graph(settings, params).triple_coincidence()

