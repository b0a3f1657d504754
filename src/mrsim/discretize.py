"""Sampling-theorem-correct spatial and temporal discretization.

Spatial sampling of the object periodizes its spatial-frequency
function with period 2*pi/dx per axis; the simulation stays exact as
long as no configuration ever reaches those replicas, which gives the
spin-spacing bound dx < pi / K_max with K_max the largest |k| any
configuration attains during the sequence.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bloch import GAMMA_PROTON, RelaxationParams
from .errors import InvalidParameter
from .ktspace import TracePoint, max_k_excursion, simulate_kt
from .phantom import lattice_sites
from .sequence import Sequence, _solve_readout

_log = logging.getLogger(__name__)

# recommended spacing as a fraction of the strict bound dx_max
SAFETY = 0.8
# populations (points times configurations) that PruneBound collects
# before it reduces them; each of its temporaries holds about this many
# numbers
_PRUNE_BATCH = 1 << 13
_EPS = float(np.finfo(float).eps)


@dataclass
class SpacingReport:
    """Per-axis spatial sampling requirements of one experiment."""

    k_max: Tuple[float, float, float]
    dx_max: Tuple[float, float, float]  # strict upper bounds, inf where k_max = 0
    spacing: Tuple[float, float, float]  # recommended: SAFETY * dx_max
    predicted_spins: Optional[int] = None
    notes: List[str] = field(default_factory=list)

    def text(self) -> str:
        lines = ["spacing report"]
        for ax, name in enumerate("xyz"):
            if math.isinf(self.dx_max[ax]):
                lines.append(f"  {name}: no k excursion; one spin along {name} suffices")
            else:
                lines.append(
                    f"  {name}: K_max = {self.k_max[ax]:.6g} rad/m, "
                    f"dx_max = {self.dx_max[ax]:.6g} m, "
                    f"recommended = {self.spacing[ax]:.6g} m"
                )
        if self.predicted_spins is not None:
            lines.append(f"  predicted spins: {self.predicted_spins}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)

    def machine_lines(self) -> str:
        out = []
        for ax, name in enumerate("xyz"):
            out.append(f"k_max_{name}_rad_per_m={self.k_max[ax]!r}")
            out.append(f"dx_max_{name}_m={self.dx_max[ax]!r}")
            out.append(f"spacing_{name}_m={self.spacing[ax]!r}")
        if self.predicted_spins is not None:
            out.append(f"predicted_spins={self.predicted_spins}")
        return "\n".join(out)


def _report(k_max, **fields) -> SpacingReport:
    """The spacing report of a per-axis K_max: dx_max = pi/K_max, inf
    where K_max is 0, and the recommended spacing SAFETY * dx_max."""
    dx_max = tuple(math.pi / k if k > 0.0 else math.inf for k in k_max)
    return SpacingReport(
        k_max=tuple(k_max), dx_max=dx_max, spacing=tuple(SAFETY * d for d in dx_max), **fields
    )


def max_spacing(sequence: Sequence, phantom=None) -> SpacingReport:
    """Spin-spacing bound dx < pi/K_max per axis, K_max the largest |k|
    any configuration of the relaxation-free walk reaches; with a
    phantom, also the spin count that spacing gives."""
    report = _report(max_k_excursion(sequence))
    if phantom is not None:
        report.predicted_spins = lattice_sites(phantom, report.spacing)
    return report


class PruneBound:
    """Running form of :func:`steady_state_prune`.

    Called as ``bound(k, populations)`` with the transversal
    configurations of one or more trace points (the ``observe`` hook of
    :func:`mrsim.ktspace.simulate_kt`); ``k_max`` is the reduced per-axis
    bound over every point seen so far, bit-identical to the
    point-by-point form on the magnitudes that ``np.abs`` gives.  Points
    are reduced in batches of about ``_PRUNE_BATCH`` populations.  A
    point is ranked by |k| only where its weak configurations could
    decide the bound (see :meth:`_reduce`); ``points`` and ``ranked``
    count the points reduced and the (point, axis) pairs ranked.  The
    arrays are only read.
    """

    def __init__(self, grayscale_levels: int = 256):
        if not 1 <= grayscale_levels < math.inf:
            raise InvalidParameter(
                f"grayscale_levels must be >= 1 and finite, got {grayscale_levels!r}"
            )
        self.bound_ratio = 0.5 / grayscale_levels
        self._reduced = [0.0, 0.0, 0.0]
        # configuration count -> the (k, populations) of each pending call
        self._pending: Dict[int, List[Tuple[np.ndarray, np.ndarray]]] = {}
        self._size = 0  # populations pending
        self.points = 0  # points reduced
        self.ranked = 0  # (point, axis) pairs that needed the ranking

    def __call__(self, k: np.ndarray, populations: np.ndarray) -> None:
        """k: (points, m, 3) rad/m; populations: (points, m)."""
        self._pending.setdefault(populations.shape[1], []).append((k, populations))
        self._size += populations.size
        if self._size >= _PRUNE_BATCH:
            self._flush()

    @property
    def k_max(self) -> Tuple[float, float, float]:
        self._flush()
        return tuple(self._reduced)

    def _flush(self) -> None:
        # points of different widths are reduced apart, so nothing is padded
        pending, self._pending, self._size = self._pending, {}, 0
        for width, calls in pending.items():
            if width:
                self._reduce(calls)

    def _reduce(self, calls) -> None:
        """Fold the points of calls of one width into the bound: ``calls``
        holds the k (points, m, 3) and populations (points, m) of each.

        The point-by-point form ranks a point's configurations by
        descending |k| on each axis, sums their magnitudes in that order
        and keeps the |k| at which the sum first exceeds the budget, half
        a gray level of the largest magnitude.  Call a configuration
        strong when its magnitude exceeds the budget, weak otherwise.
        When the weak magnitudes of a point add up to no more than the
        budget, the sum stays within it until the first strong
        configuration in the ranking and exceeds it there, so the kept
        |k| is the largest |k| of a strong configuration, or nothing
        without one; no ranking is needed.  Rounding cannot move that
        point: a rounded sum of j >= 0 terms, in any order, lies within
        a factor (1 + u)^(j-1) of the exact sum (u = eps/2, the unit
        roundoff), so when the weak sum, in whatever order it was
        taken, times 1 + 4*m*eps is at most the budget, so is every
        partial sum of the weak configurations that lead the ranking;
        and the first strong one takes the sum over, as a rounded sum
        of terms >= 0 is at least each of them.  The other points take
        the point-by-point arithmetic (:func:`_ranked_keep`).  An axis on
        which no |k| of the batch exceeds the bound so far cannot raise
        it and is skipped.
        """
        k_abs = np.abs(np.concatenate([k for k, _ in calls]))  # (points, m, 3)
        m = k_abs.shape[1]
        self.points += len(k_abs)
        flat = k_abs.reshape(-1)
        axes = [ax for ax in range(3) if flat[ax::3].max() > self._reduced[ax]]
        if not axes:
            return
        # magnitudes as (m, points); the budget of every point
        mags = np.ascontiguousarray(np.abs(np.concatenate([p for _, p in calls])).T)
        budget = self.bound_ratio * np.maximum.reduce(mags)
        strong = mags > budget
        weak = np.where(strong, 0.0, mags).sum(axis=0)
        ranked = np.flatnonzero(~(weak * (1.0 + 4.0 * m * _EPS) <= budget))
        for ax in axes:
            k_points = k_abs[:, :, ax].T  # (m, points)
            keep = np.where(strong, k_points, 0.0).max(axis=0)
            if len(ranked):
                keep[ranked] = _ranked_keep(k_points[:, ranked], mags[:, ranked], budget[ranked])
                self.ranked += len(ranked)
            self._reduced[ax] = max(self._reduced[ax], float(keep.max()))


def _ranked_keep(k_abs: np.ndarray, mags: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """The kept |k| of each point by the point-by-point form: the
    configurations ranked by descending |k| (ties in their order), their
    magnitudes summed in that order, and the |k| where the sum first
    exceeds the budget, 0 where it never does.  ``k_abs`` and ``mags``
    are (m, points), ``budget`` (points,)."""
    m, n = k_abs.shape
    rank = np.argsort(-k_abs.T, axis=-1, kind="stable")  # (points, m)
    sorted_mags = mags.T[np.arange(n)[:, None], rank].T
    # the sum never falls, so the configurations it keeps within the
    # budget lead the ranking
    acc = sorted_mags[0].copy()
    cut = (acc <= budget).astype(np.intp)
    for col in sorted_mags[1:]:
        acc += col
        cut += acc <= budget
    config = rank[np.arange(n), np.minimum(cut, m - 1)]
    return np.where(cut < m, k_abs[config, np.arange(n)], 0.0)


def steady_state_prune(trace: List[TracePoint], grayscale_levels: int = 256) -> Tuple[float, float, float]:
    """Reduced per-axis K_max once invisibly weak configurations are dropped.

    At every trace point the transversal populations beyond a candidate
    K may be discarded when their summed magnitude relative to the
    useful-signal population (the dominant one, which sets the brightest
    image value) stays below half a gray level; the returned K per axis
    is the largest |k| that must be kept at any time.
    """
    bound = PruneBound(grayscale_levels)
    for point in trace:
        trans = [e for e in point.entries if e.kind == "transversal"]
        if trans:
            bound(
                np.array([[e.k_position for e in trans]], dtype=float),
                np.array([[e.population for e in trans]], dtype=complex),
            )
    return bound.k_max


def pruned_max_spacing(
    sequence: Sequence,
    relax: RelaxationParams,
    grayscale_levels: int = 256,
) -> SpacingReport:
    """Spacing bound after discarding invisibly weak configurations.

    The relaxation-free bound of :func:`max_spacing` treats every
    configuration as immortal, which makes multi-repetition sequences
    look far more demanding than they are; here the quantitative
    tracker is run with the given (worst-case) tissue and configurations
    below the grayscale visibility threshold are ignored.  The bound is
    taken while the tracker runs, so no trace is stored.
    """
    bound = PruneBound(grayscale_levels)
    simulate_kt(sequence, relax, record_trace=False, observe=bound)
    k_max = bound.k_max
    _log.debug(
        "steady-state prune: %d points observed, %d (point, axis) pairs ranked",
        bound.points,
        bound.ranked,
    )
    return _report(
        k_max,
        notes=[
            f"steady-state pruned bound (1/{grayscale_levels} gray levels, "
            f"t1={relax.t1:.3g} s, t2={relax.t2:.3g} s)"
        ],
    )


@dataclass(frozen=True)
class AcquisitionParams:
    """Mutually consistent readout triple plus derived k quantities."""

    fov: float
    n: int
    dt: float
    grad: float
    k_max: float
    dk: float


def acquisition_params(
    fov: Optional[float] = None,
    n: Optional[int] = None,
    dt: Optional[float] = None,
    grad: Optional[float] = None,
) -> AcquisitionParams:
    """Solve the rectangular-readout relation for the missing quantity.

    The governing relation is gamma*G*dt = 2*k_max = 2*pi*(n-1)/fov;
    exactly one of fov, dt, grad may be omitted (n is always required).
    """
    if n is None or n < 2:
        raise InvalidParameter("n (>= 2) is required")
    missing = [name for name, v in (("fov", fov), ("dt", dt), ("grad", grad)) if v is None]
    if len(missing) != 1:
        raise InvalidParameter(f"exactly one of fov/dt/grad must be omitted, missing: {missing}")
    if fov is None:
        fov = _solve_readout(n, grad, dt)
    elif dt is None:
        dt = _solve_readout(n, fov, grad)
    else:
        grad = _solve_readout(n, fov, dt)
    if fov <= 0.0 or dt <= 0.0 or grad <= 0.0:
        raise InvalidParameter("fov, dt and grad must come out positive")
    k_max = math.pi * (n - 1) / fov
    return AcquisitionParams(fov=fov, n=n, dt=dt, grad=grad, k_max=k_max, dk=2.0 * math.pi / fov)


@dataclass(frozen=True)
class RfSamplingReport:
    ok: bool
    required_n_hf: int
    omega_max: float
    dt_bound: float


def rf_sampling_check(
    envelope,
    dt_per_sample: float,
    gz: float,
    fov: float,
    bandwidth: Optional[float] = None,
) -> RfSamplingReport:
    """Temporal sampling condition for a shaped pulse.

    With a slice gradient gz the largest precession rate inside the FOV
    is omega_max = gamma*|gz|*fov/2; the per-sample spacing must satisfy
    dt < pi/(omega_max + bandwidth/2).  When no explicit envelope
    bandwidth is given it is bounded by 2*omega_max (a pulse spanning
    the whole FOV).
    """
    envelope = np.asarray(envelope, dtype=complex)
    omega_max = GAMMA_PROTON * abs(gz) * fov / 2.0
    if bandwidth is None:
        bandwidth = 2.0 * omega_max
    denom = omega_max + bandwidth / 2.0
    dt_bound = math.inf if denom == 0.0 else math.pi / denom
    total = envelope.size * dt_per_sample
    required = 1 if denom == 0.0 else max(1, math.ceil(total * denom / math.pi))
    return RfSamplingReport(
        ok=dt_per_sample < dt_bound,
        required_n_hf=required,
        omega_max=omega_max,
        dt_bound=dt_bound,
    )
