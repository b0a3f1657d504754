"""Sampling-theorem-correct spatial and temporal discretization.

Spatial sampling of the object periodizes its spatial-frequency
function with period 2*pi/dx per axis; the simulation stays exact as
long as no configuration ever reaches those replicas, which gives the
spin-spacing bound dx < pi / K_max with K_max the largest |k| any
configuration attains during the sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .bloch import GAMMA_PROTON, RelaxationParams
from .errors import InvalidParameter
from .ktspace import TracePoint, max_k_excursion, simulate_kt
from .sequence import Sequence

DEFAULT_SAFETY = 0.8


@dataclass
class SpacingReport:
    """Per-axis spatial sampling requirements of one experiment."""

    k_max: Tuple[float, float, float]
    dx_max: Tuple[float, float, float]  # strict upper bounds, inf where k_max = 0
    spacing: Tuple[float, float, float]  # recommended (safety factor applied)
    safety: float
    margin_k: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    predicted_spins: Optional[int] = None
    pruned_orders: List[tuple] = field(default_factory=list)
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


def _transverse_lifetime(sequence: Sequence) -> float:
    """Longest continuous interval during which transversal configurations
    can exist: conservatively, from the first pulse to the sequence end."""
    t = 0.0
    first = None
    for es in sequence.elements:
        if es.pulse is not None and es.pulse.alpha != 0.0 and first is None:
            first = t
        t += es.duration
    return 0.0 if first is None else t - first


def max_spacing(
    sequence: Sequence,
    phantom=None,
    object_delta_omega_bound: float = 0.0,
    char_length: Optional[float] = None,
    safety: float = DEFAULT_SAFETY,
    gamma: float = GAMMA_PROTON,
) -> SpacingReport:
    """Spin-spacing bound dx < pi/K_max per axis, with an off-resonance margin.

    ``object_delta_omega_bound`` (rad/s) bounds the worst off-resonance
    over the object (field inhomogeneity, chemical shift).  Acting over
    the transverse lifetime it behaves like an extra pseudo-gradient of
    bound/char_length, which is added to K_max along the axes the
    acquisition gradients use; this margin model is deliberately
    conservative.
    """
    notes = []
    margin = [0.0, 0.0, 0.0]
    if object_delta_omega_bound > 0.0:
        if char_length is None:
            if phantom is None:
                raise InvalidParameter(
                    "off-resonance margin needs char_length or a phantom for the length scale"
                )
            lo, hi = phantom.bounding_box()
            char_length = float(max(hi - lo)) / 2.0
        lifetime = _transverse_lifetime(sequence)
        extra = object_delta_omega_bound * lifetime / char_length
        readout_axes = set()
        for _, es in sequence.acquisitions():
            amps = es.gradient.amplitudes()
            for ax in range(3):
                if amps[ax] != 0.0:
                    readout_axes.add(ax)
        for ax in readout_axes:
            margin[ax] = extra
        notes.append(
            f"off-resonance margin {extra:.6g} rad/m over lifetime {lifetime:.6g} s "
            f"applied to axes {sorted(readout_axes)}"
        )
    k_max = max_k_excursion(sequence, gamma, domega_margin=tuple(margin))
    dx_max = tuple(math.pi / k if k > 0.0 else math.inf for k in k_max)
    spacing = tuple(safety * d if math.isfinite(d) else math.inf for d in dx_max)
    predicted = None
    if phantom is not None:
        predicted = 0
        for box in phantom.boxes:
            n = 1
            for ax in range(3):
                if math.isinf(spacing[ax]):
                    continue
                n *= max(1, int(math.floor(box.size[ax] / spacing[ax] + 1e-9)))
            predicted += n
    return SpacingReport(
        k_max=tuple(k_max),
        dx_max=dx_max,
        spacing=spacing,
        safety=safety,
        margin_k=tuple(margin),
        predicted_spins=predicted,
        notes=notes,
    )


class PruneBound:
    """Running form of :func:`steady_state_prune`.

    Called as ``bound(k, populations)`` with the transversal
    configurations of one or more trace points (the ``observe`` hook of
    :func:`mrsim.ktspace.simulate_kt`); ``k_max`` is the reduced per-axis
    bound over every point seen so far.  Points are reduced in batches
    of about ``batch`` points.
    """

    def __init__(self, grayscale_levels: int = 256, batch: int = 2048):
        if grayscale_levels < 1:
            raise InvalidParameter("grayscale_levels must be >= 1")
        self.bound_ratio = 0.5 / grayscale_levels
        self.batch = batch
        self._reduced = np.zeros(3)
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        self._points = 0

    def __call__(self, k: np.ndarray, populations: np.ndarray) -> None:
        """k: (points, m, 3) rad/m; populations: (points, m)."""
        self._pending.append((k, populations))
        self._points += populations.shape[0]
        if self._points >= self.batch:
            self._flush()

    @property
    def k_max(self) -> Tuple[float, float, float]:
        self._flush()
        return tuple(float(k) for k in self._reduced)

    def _flush(self) -> None:
        if not self._pending:
            return
        # pad every point to the widest one: a zero population at k = 0
        # never moves the running sum, so it cannot set the bound
        m = max(pops.shape[1] for _, pops in self._pending)
        k_abs = np.zeros((self._points, m, 3))
        mags = np.zeros((self._points, m))
        row = 0
        for k, pops in self._pending:
            n, width = pops.shape
            k_abs[row : row + n, :width] = np.abs(k)
            mags[row : row + n, :width] = np.abs(pops)
            row += n
        self._pending.clear()
        self._points = 0
        ref = mags.max(axis=1)
        live = ref != 0.0
        k_abs, mags, ref = k_abs[live], mags[live], ref[live]
        if not ref.size:
            return
        # per point and axis: configurations by descending |k| (ties keep
        # their order), kept down to where the magnitudes summed so far
        # exceed the budget
        point = np.arange(ref.size)[:, None]
        axis = np.arange(3)
        rank = np.argsort(-k_abs, axis=1, kind="stable")
        acc = np.cumsum(mags[point[:, :, None], rank], axis=1)
        over = acc > (self.bound_ratio * ref)[:, None, None]
        first = over.argmax(axis=1)
        keep = k_abs[point, rank[point, first, axis], axis]
        keep = np.where(over.any(axis=1), keep, 0.0)
        self._reduced = np.maximum(self._reduced, keep.max(axis=0))


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
    safety: float = DEFAULT_SAFETY,
    gamma: float = GAMMA_PROTON,
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
    simulate_kt(sequence, relax, gamma=gamma, record_trace=False, observe=bound)
    k_max = bound.k_max
    dx_max = tuple(math.pi / k if k > 0.0 else math.inf for k in k_max)
    spacing = tuple(safety * d if math.isfinite(d) else math.inf for d in dx_max)
    return SpacingReport(
        k_max=k_max,
        dx_max=dx_max,
        spacing=spacing,
        safety=safety,
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
    gamma: float = GAMMA_PROTON,
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
        fov = 2.0 * math.pi * (n - 1) / (gamma * grad * dt)
    elif dt is None:
        dt = 2.0 * math.pi * (n - 1) / (gamma * fov * grad)
    else:
        grad = 2.0 * math.pi * (n - 1) / (gamma * fov * dt)
    if fov <= 0.0 or dt <= 0.0 or grad <= 0.0:
        raise InvalidParameter("fov, dt and grad must come out positive")
    k_max = math.pi * (n - 1) / fov
    return AcquisitionParams(fov=fov, n=n, dt=dt, grad=grad, k_max=k_max, dk=2.0 * math.pi / fov)


@dataclass(frozen=True)
class RfSamplingReport:
    ok: bool
    required_n_hf: int
    omega_max: float
    bandwidth: float
    dt_bound: float


def rf_sampling_check(
    envelope,
    dt_per_sample: float,
    gz: float,
    fov: float,
    gamma: float = GAMMA_PROTON,
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
    omega_max = gamma * abs(gz) * fov / 2.0
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
        bandwidth=bandwidth,
        dt_bound=dt_bound,
    )
