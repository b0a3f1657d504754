"""Imaging sequences as ordered lists of elementary sequences.

An elementary sequence is the universal building block: an (optional)
hard RF pulse acting at its start, a gradient waveform whose functional
form is fixed over the interval, a duration, and an optional acquisition
window.  Builders for the standard experiments (spin echo, turbo spin
echo, gradient EPI, CPMG) live here too, and so does the step from the
blocks of a sequence description file (read by :mod:`mrsim.grammar`)
to elementary sequences.

Readout dimensioning follows the rectangular-gradient relation

    G = 2*pi*(N-1) / (gamma * FOV * dt)

with gamma the proton's :data:`mrsim.bloch.GAMMA_PROTON`, like every
gradient moment here,

so the k-step between adjacent samples (and between phase-encode rows)
is 2*pi/FOV and the N samples span +-k_max = +-pi*(N-1)/FOV inclusive.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .bloch import GAMMA_PROTON, HardPulse, hard_pulse_decomposition
from .errors import InvalidParameter, ParseError, TimingInfeasible, UnitError
from .grammar import boolean, read_blocks

__all__ = [
    "GradientWaveform",
    "AcquisitionSpec",
    "ElementarySequence",
    "Sequence",
    "distinct_elements",
    "readout_gradient",
    "readout_duration",
    "build_spin_echo",
    "build_tse",
    "build_gradient_epi",
    "build_cpmg",
    "parse_sequence_file",
    "serialize_sequence",
    "split_elementary",
]


# the fields each gradient shape reads; every other field keeps its default
_SHAPE_FIELDS = {
    "constant": ("gx", "gy", "gz"),
    "trapezoid": ("gx", "gy", "gz", "ramp_s", "flat_s"),
    "sampled": ("samples", "sample_dt"),
}
_SCALAR_FIELDS = ("gx", "gy", "gz", "ramp_s", "flat_s", "sample_dt")


@dataclass(frozen=True)
class GradientWaveform:
    """Per-axis gradient over one elementary sequence.

    ``gx, gy, gz`` are amplitudes in T/m (flat-top amplitudes for the
    trapezoid shape).  Sampled waveforms carry (n, 3) samples in T/m,
    stored as a tuple of float 3-tuples so the waveform stays hashable,
    plus the sample spacing.  A field its shape does not read is rejected.
    """

    shape: str = "constant"  # constant | trapezoid | sampled
    gx: float = 0.0
    gy: float = 0.0
    gz: float = 0.0
    ramp_s: float = 0.0
    flat_s: float = 0.0
    samples: Optional[tuple] = None  # row-major ((gx,gy,gz), ...) in T/m
    sample_dt: float = 0.0

    def __post_init__(self):
        if self.shape not in _SHAPE_FIELDS:
            raise InvalidParameter(f"unknown gradient shape {self.shape!r}")
        unread = [
            name
            for name in _SCALAR_FIELDS
            if name not in _SHAPE_FIELDS[self.shape] and getattr(self, name) != 0.0
        ]
        if self.shape != "sampled" and self.samples is not None:
            unread.append("samples")
        if unread:
            raise InvalidParameter(f"a {self.shape} gradient does not read {', '.join(unread)}")
        non_finite = [name for name in _SCALAR_FIELDS if not math.isfinite(getattr(self, name))]
        if non_finite:
            raise InvalidParameter(f"gradient {', '.join(non_finite)} must be finite")
        if self.shape != "sampled":
            return
        try:
            arr = np.asarray(self.samples, dtype=float)
        except (TypeError, ValueError):
            arr = np.empty(0)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != 3:
            raise InvalidParameter(
                f"sampled gradient needs (n, 3) samples in T/m, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise InvalidParameter("sampled gradient samples must be finite")
        object.__setattr__(self, "samples", tuple(map(tuple, arr.tolist())))

    @staticmethod
    def constant(gx: float = 0.0, gy: float = 0.0, gz: float = 0.0) -> "GradientWaveform":
        return GradientWaveform("constant", gx, gy, gz)

    @staticmethod
    def trapezoid(gx=0.0, gy=0.0, gz=0.0, ramp_s=0.0, flat_s=0.0) -> "GradientWaveform":
        return GradientWaveform("trapezoid", gx, gy, gz, ramp_s=ramp_s, flat_s=flat_s)

    @staticmethod
    def from_samples(samples, sample_dt: float) -> "GradientWaveform":
        return GradientWaveform(
            "sampled", samples=np.atleast_2d(samples), sample_dt=float(sample_dt)
        )

    @property
    def is_zero(self) -> bool:
        if self.shape == "sampled":
            return not np.any(np.asarray(self.samples))
        return self.gx == 0.0 and self.gy == 0.0 and self.gz == 0.0

    def amplitudes(self) -> np.ndarray:
        return np.array([self.gx, self.gy, self.gz])

    def moments(self, duration: float) -> np.ndarray:
        """gamma * integral(G dt) per axis over the full interval, rad/m:
        :meth:`partial_moments` at ``duration``, bit for bit."""
        return self.partial_moments([duration])[0]

    def partial_moments(self, ts) -> np.ndarray:
        """Cumulative moments gamma * integral_0^t(G) at times ts, shape (len(ts), 3)."""
        ts = np.asarray(ts, dtype=float)
        if self.shape == "constant":
            return GAMMA_PROTON * np.outer(ts, self.amplitudes())
        if self.shape == "trapezoid":
            r, f = self.ramp_s, self.flat_s
            up = np.clip(ts, 0.0, r)
            flat = np.clip(ts - r, 0.0, f)
            down = np.clip(ts - r - f, 0.0, r)
            # unit-amplitude integral: ramp up, flat top, ramp down
            unit = up**2 / (2.0 * r) if r > 0.0 else np.zeros_like(ts)
            unit = unit + flat
            if r > 0.0:
                unit = unit + down - down**2 / (2.0 * r)
            return GAMMA_PROTON * np.outer(unit, self.amplitudes())
        arr = np.asarray(self.samples, dtype=float)
        grid = np.arange(arr.shape[0]) * self.sample_dt
        cum = np.concatenate(
            [np.zeros((1, 3)), np.cumsum((arr[1:] + arr[:-1]) / 2.0 * self.sample_dt, axis=0)]
        )
        out = np.empty((ts.size, 3))
        for ax in range(3):
            out[:, ax] = np.interp(ts, grid, cum[:, ax])
        return GAMMA_PROTON * out


def _count(name: str, value, least: int = 1) -> int:
    """``value`` as a Python int >= ``least``: an integer, numpy's
    included, but not a bool."""
    try:
        if isinstance(value, bool):
            raise TypeError
        n = operator.index(value)
    except TypeError:
        raise InvalidParameter(f"{name} must be an integer >= {least}, got {value!r}") from None
    if n < least:
        raise InvalidParameter(f"{name} must be >= {least}, got {value!r}")
    return n


@dataclass(frozen=True)
class AcquisitionSpec:
    """Data acquisition within one elementary sequence.

    n_samples points are taken at ``np.linspace(0, duration, n)``: both
    endpoints are sampled, the last at the element's end exactly, and one
    sample is at 0; zero samples is no acquisition.  The count is an
    integer >= 0, numpy's included but not a bool.
    """

    n_samples: int = 0

    def __post_init__(self):
        object.__setattr__(self, "n_samples", _count("n_samples", self.n_samples, least=0))

    @property
    def enabled(self) -> bool:
        return self.n_samples > 0

    def sample_times(self, duration: float) -> np.ndarray:
        """The sample instants from the element start; the last of two or more is ``duration``."""
        if not self.enabled:  # most elements do not acquire, and linspace is slow
            return np.empty(0)
        return np.linspace(0.0, duration, self.n_samples)


@dataclass(frozen=True)
class ElementarySequence:
    """One atomic interval: hard pulse at the start, fixed-form gradient,
    optional acquisition.  Zero fields and zero duration are allowed; a
    zero-flip pulse is stored as ``pulse=None``.  ``kspace_row`` (or
    None) and ``kspace_volume`` are integers >= 0, numpy's included but
    not bools, and ``kspace_reversed`` is a bool."""

    pulse: Optional[HardPulse] = None
    gradient: GradientWaveform = GradientWaveform()
    duration: float = 0.0
    acquisition: AcquisitionSpec = AcquisitionSpec()
    # k-space placement of this acquisition, recorded by the builders so
    # reconstruction needs no sequence-specific knowledge
    kspace_row: Optional[int] = None
    kspace_volume: int = 0
    kspace_reversed: bool = False

    def __post_init__(self):
        if self.pulse is not None and self.pulse.alpha == 0.0:
            object.__setattr__(self, "pulse", None)
        if not 0.0 <= self.duration < math.inf:
            raise InvalidParameter(f"duration must be finite and >= 0, got {self.duration}")
        if self.kspace_row is not None:
            object.__setattr__(self, "kspace_row", _count("kspace_row", self.kspace_row, least=0))
        volume = _count("kspace_volume", self.kspace_volume, least=0)
        object.__setattr__(self, "kspace_volume", volume)
        if not isinstance(self.kspace_reversed, bool):
            raise InvalidParameter(
                f"kspace_reversed must be True or False, got {self.kspace_reversed!r}"
            )
        if self.acquisition.enabled:
            if self.duration <= 0.0:
                raise InvalidParameter("acquisition requires duration > 0")
        elif (self.kspace_row, self.kspace_volume, self.kspace_reversed) != (None, 0, False):
            raise InvalidParameter("k-space placement needs an acquisition")
        if self.gradient.shape == "trapezoid":
            want = 2.0 * self.gradient.ramp_s + self.gradient.flat_s
            if abs(want - self.duration) > 1e-12 * max(1.0, self.duration):
                raise InvalidParameter(
                    f"trapezoid 2*ramp+flat = {want} does not match duration {self.duration}"
                )
        if self.gradient.shape == "sampled":
            span = (len(self.gradient.samples) - 1) * self.gradient.sample_dt
            if abs(span - self.duration) > 1e-12 * max(1.0, self.duration):
                raise InvalidParameter(
                    f"sampled gradient spans (n-1)*sample_dt = {span} s, "
                    f"not the duration {self.duration} s"
                )

    @cached_property
    def events(self) -> Tuple[np.ndarray, np.ndarray]:
        """Read-only ``(t, moments)``, made once per element: ``t`` is the
        start (0.0), the sample instants, then the end if the element runs
        on after its last sample; ``moments`` is ``partial_moments(t)``,
        so its last row is ``moments(duration)``, bit for bit."""
        t = self.acquisition.sample_times(self.duration)
        end = [self.duration] if self.duration > (t[-1] if t.size else 0.0) else []
        t = np.concatenate([[0.0], t, end])
        moments = self.gradient.partial_moments(t)
        t.flags.writeable = moments.flags.writeable = False
        return t, moments


@dataclass
class Sequence:
    """Ordered, immutable-after-construction list of elementary sequences.

    The grouping of :func:`distinct_elements` is computed on first use
    and held, so the elements must not change after that.
    """

    elements: list
    name: str = "sequence"
    meta: dict = field(default_factory=dict)
    _distinct: Optional[Tuple[tuple, tuple]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.elements:
            raise InvalidParameter("a sequence needs at least one elementary sequence")

    @property
    def duration(self) -> float:
        return sum(es.duration for es in self.elements)

    def acquisitions(self) -> Iterator[tuple]:
        """Yield (element_index, es) for every acquiring elementary sequence."""
        for i, es in enumerate(self.elements):
            if es.acquisition.enabled:
                yield i, es

    def trajectory_table(self) -> list:
        """(volume, row, reversed) per acquisition, in acquisition order."""
        return [
            (es.kspace_volume, es.kspace_row, es.kspace_reversed) for _, es in self.acquisitions()
        ]


def distinct_elements(sequence: Sequence) -> Tuple[list, List[int]]:
    """Group the elementary sequences by their physics fields.

    Two elements belong to one group when their pulse, gradient,
    duration and acquisition compare equal; the k-space placement
    (``kspace_row``, ``kspace_volume``, ``kspace_reversed``) is ignored.
    Returns the representatives (the first element of each group, in
    order of first occurrence) and the group index of every element.
    Per-element data that depends only on those fields can be computed
    once per representative.  Equal means ``==``, so a field of -0.0
    groups with 0.0.  The sequence groups its elements on the first
    call and holds the result; each call returns new lists.
    """
    if sequence._distinct is None:
        sequence._distinct = _group_elements(sequence.elements)
    reps, groups = sequence._distinct
    return list(reps), list(groups)


def _group_elements(elements) -> Tuple[tuple, tuple]:
    """The representatives and group indices of :func:`distinct_elements`."""
    index: dict = {}
    reps: list = []
    groups: List[int] = []
    for es in elements:
        key = (es.pulse, es.gradient, es.duration, es.acquisition)
        g = index.setdefault(key, len(reps))
        if g == len(reps):
            reps.append(es)
        groups.append(g)
    return tuple(reps), tuple(groups)


# ---------------------------------------------------------------------------
# readout dimensioning
# ---------------------------------------------------------------------------


def _solve_readout(n: int, a: float, b: float) -> float:
    """The third of fov, duration and gradient from the other two, a and
    b, by the rectangular-readout relation gamma * a * b = 2*pi*(n-1)."""
    return 2.0 * math.pi * (n - 1) / (GAMMA_PROTON * a * b)


def readout_gradient(fov: float, n: int, dt: float) -> float:
    """Rectangular readout gradient (T/m) for n samples over duration dt."""
    if fov <= 0.0 or dt <= 0.0:
        raise InvalidParameter("fov and dt must be positive")
    if n < 2:
        raise InvalidParameter(f"need at least 2 samples, got {n}")
    return _solve_readout(n, fov, dt)


def readout_duration(fov: float, n: int, grad: float) -> float:
    """Acquisition duration (s) matching a given readout gradient."""
    if fov <= 0.0 or grad <= 0.0:
        raise InvalidParameter("fov and grad must be positive")
    if n < 2:
        raise InvalidParameter(f"need at least 2 samples, got {n}")
    return _solve_readout(n, fov, grad)


def _k_step(fov: float) -> float:
    return 2.0 * math.pi / fov


def _phase_encode(row: int, n_rows: int, fov: float) -> float:
    """ky of one row (rad/m); row 0 is the most negative."""
    return (row - (n_rows - 1) / 2.0) * _k_step(fov)


def _grad_for_moments(mx: float, my: float, duration: float) -> GradientWaveform:
    """Constant gradient realizing the requested x/y moments over duration."""
    if mx == 0.0 and my == 0.0:
        return GradientWaveform()
    return GradientWaveform.constant(
        gx=mx / (GAMMA_PROTON * duration), gy=my / (GAMMA_PROTON * duration)
    )


def _positive(name: str, value: float) -> float:
    if not 0.0 < value < math.inf:
        raise InvalidParameter(f"{name} must be > 0 and finite, got {value!r}")
    return value


def _check_interval(value: float, what: str) -> float:
    if value < 0.0:
        raise TimingInfeasible(f"{what} comes out negative ({value:.6g} s)")
    return value


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def build_spin_echo(
    fov: float,
    n: int,
    te: float,
    tr: float,
    readout_grad: float,
) -> Sequence:
    """Two-pulse spin echo, one excitation per phase-encode row.

    Per row: 90deg pulse with a dephasing x lobe (half the readout
    moment) plus the row's y moment, a 180deg pulse at te/2, the readout
    with n samples whose k=0 crossing sits at te, and a relaxation
    filler up to tr.  Rows run from the most negative ky upward.
    """
    n = _count("n", n, least=2)
    tau = readout_duration(fov, n, readout_grad)
    k_max = GAMMA_PROTON * readout_grad * tau / 2.0
    half1 = _check_interval(te / 2.0, "time before the refocusing pulse")
    half2 = _check_interval(te / 2.0 - tau / 2.0, "interval between 180deg pulse and readout")
    filler = _check_interval(tr - te - tau / 2.0, "relaxation filler")
    elements = []
    for row in range(n):
        # encode before the refocusing pulse, which negates transverse k:
        # apply -ky so the readout samples the row at +ky
        ky = _phase_encode(row, n, fov)
        elements.append(
            ElementarySequence(
                pulse=HardPulse(math.pi / 2.0, 0.0),
                gradient=_grad_for_moments(k_max, -ky, half1),
                duration=half1,
            )
        )
        elements.append(ElementarySequence(pulse=HardPulse(math.pi, 0.0), duration=half2))
        elements.append(
            ElementarySequence(
                gradient=GradientWaveform.constant(gx=readout_grad),
                duration=tau,
                acquisition=AcquisitionSpec(n),
                kspace_row=row,
            )
        )
        elements.append(ElementarySequence(duration=filler))
    return Sequence(elements, name="spin_echo", meta={"fov": fov, "n": n})


def _echo_train(
    fov: float,
    n: int,
    n_echoes: int,
    dte: float,
    tr: float,
    readout_grad: float,
    row_of_echo,
    volume_of_echo,
    shot_rows: int,
    blip_s: float,
):
    """Common 90-(180-encode-read-rewind)* skeleton for TSE and CPMG."""
    n_echoes = _count("n_echoes", n_echoes)
    blip_s = _positive("blip_s", blip_s)
    tau = readout_duration(fov, n, readout_grad)
    k_max = GAMMA_PROTON * readout_grad * tau / 2.0
    half1 = _check_interval(dte / 2.0, "time before the first refocusing pulse")
    gap = _check_interval(
        dte / 2.0 - tau / 2.0 - blip_s, "interval between refocusing pulse and readout"
    )
    n_shots = n // shot_rows
    train = n_echoes * dte + tau / 2.0 + blip_s
    filler = _check_interval(tr - train, "relaxation filler")
    elements = []
    for shot in range(n_shots):
        elements.append(
            ElementarySequence(
                pulse=HardPulse(math.pi / 2.0, 0.0),
                gradient=_grad_for_moments(k_max, 0.0, half1),
                duration=half1,
            )
        )
        for echo in range(n_echoes):
            row = row_of_echo(shot, echo)
            ky = _phase_encode(row, n, fov)
            elements.append(ElementarySequence(pulse=HardPulse(math.pi, math.pi / 2.0), duration=gap))
            elements.append(
                ElementarySequence(gradient=_grad_for_moments(0.0, ky, blip_s), duration=blip_s)
            )
            elements.append(
                ElementarySequence(
                    gradient=GradientWaveform.constant(gx=readout_grad),
                    duration=tau,
                    acquisition=AcquisitionSpec(n),
                    kspace_row=row,
                    kspace_volume=volume_of_echo(shot, echo),
                )
            )
            elements.append(
                ElementarySequence(gradient=_grad_for_moments(0.0, -ky, blip_s), duration=blip_s)
            )
            if echo < n_echoes - 1:
                elements.append(
                    ElementarySequence(duration=_check_interval(gap, "inter-echo filler"))
                )
        elements.append(ElementarySequence(duration=filler))
    return elements


def build_tse(
    fov: float,
    n: int,
    turbo_factor: int,
    echo_spacing: float,
    tr: float,
    readout_grad: float,
    blip_s: float = 1e-3,
) -> Sequence:
    """Turbo spin echo: turbo_factor echoes per excitation.

    Echo e of shot s lands in k-space row s*turbo_factor + e (sequential
    sorting in order of creation), so later echoes of a shot are weaker
    by exp(-e*echo_spacing/T2) and the rows carry the corresponding
    periodic amplitude modulation.
    """
    n, turbo_factor = _count("n", n, least=2), _count("turbo_factor", turbo_factor)
    if n % turbo_factor != 0:
        raise InvalidParameter(f"matrix size {n} not divisible by turbo factor {turbo_factor}")
    elements = _echo_train(
        fov,
        n,
        turbo_factor,
        echo_spacing,
        tr,
        readout_grad,
        row_of_echo=lambda s, e: s * turbo_factor + e,
        volume_of_echo=lambda s, e: 0,
        shot_rows=turbo_factor,
        blip_s=blip_s,
    )
    return Sequence(elements, name="tse", meta={"fov": fov, "n": n})


def build_cpmg(
    fov: float,
    n: int,
    n_echoes: int,
    dte: float,
    tr: float,
    readout_grad: float,
    blip_s: float = 1e-3,
) -> Sequence:
    """CPMG multi-echo train: every echo re-acquires the same row.

    Echo e of every excitation goes to volume e, so the run yields one
    k-space matrix per echo time (e+1)*dte; fitting the per-pixel decay
    over those volumes recovers T2 and the relative spin density.
    """
    n = _count("n", n, least=2)
    elements = _echo_train(
        fov,
        n,
        n_echoes,
        dte,
        tr,
        readout_grad,
        row_of_echo=lambda s, e: s,
        volume_of_echo=lambda s, e: e,
        shot_rows=1,
        blip_s=blip_s,
    )
    return Sequence(
        elements,
        name="cpmg",
        meta={"fov": fov, "n": n, "echo_times": [(e + 1) * dte for e in range(n_echoes)]},
    )


def build_gradient_epi(
    fov: float,
    n: int,
    n_echoes: int,
    readout_grad: float,
    shots: int = 1,
    blip_s: float = 1e-4,
    prephase_s: Optional[float] = None,
) -> Sequence:
    """Gradient echo planar imaging with a meandering readout.

    A single excitation produces n_echoes lines; the readout gradient
    alternates sign so every other line is acquired in reversed sample
    order.  With shots > 1 the shots interleave: shot s, echo e covers
    row e*shots + s.  Rows beyond shots*n_echoes stay empty.
    """
    n, shots = _count("n", n, least=2), _count("shots", shots)
    n_echoes = _count("n_echoes", n_echoes)
    blip_s = _positive("blip_s", blip_s)
    tau = readout_duration(fov, n, readout_grad)
    k_max = GAMMA_PROTON * readout_grad * tau / 2.0
    prephase_s = tau / 2.0 if prephase_s is None else _positive("prephase_s", prephase_s)
    if shots * n_echoes > n:
        raise InvalidParameter(f"{shots} shots x {n_echoes} echoes exceed {n} rows")
    dky = _k_step(fov)
    elements = []
    for shot in range(shots):
        ky0 = _phase_encode(shot, n, fov)
        elements.append(
            ElementarySequence(
                pulse=HardPulse(math.pi / 2.0, 0.0),
                gradient=_grad_for_moments(-k_max, ky0, prephase_s),
                duration=prephase_s,
            )
        )
        for echo in range(n_echoes):
            row = echo * shots + shot
            sign = 1.0 if echo % 2 == 0 else -1.0
            elements.append(
                ElementarySequence(
                    gradient=GradientWaveform.constant(gx=sign * readout_grad),
                    duration=tau,
                    acquisition=AcquisitionSpec(n),
                    kspace_row=row,
                    kspace_reversed=echo % 2 == 1,
                )
            )
            if echo < n_echoes - 1:
                elements.append(
                    ElementarySequence(
                        gradient=_grad_for_moments(0.0, shots * dky, blip_s),
                        duration=blip_s,
                    )
                )
    # time at which the ky = 0 level is crossed at kx = 0 (center of the train)
    te_eff = prephase_s + ((n - 1) / (2.0 * shots)) * (tau + blip_s) + tau / 2.0
    return Sequence(
        elements,
        name="gradient_epi",
        meta={"fov": fov, "n": n, "te_eff": te_eff},
    )


def split_elementary(seq: Sequence, index: int, t_split: float) -> Sequence:
    """Cut one constant-gradient, non-acquiring elementary sequence in two.

    The fields are unchanged and the second half starts without a
    pulse, so spin trajectories must not change (decomposition
    soundness).
    """
    es = seq.elements[index]
    if es.acquisition.enabled or es.gradient.shape != "constant":
        raise InvalidParameter("can only split constant-gradient intervals without acquisition")
    if not (0.0 <= t_split <= es.duration):
        raise InvalidParameter(f"split time {t_split} outside [0, {es.duration}]")
    first = replace(es, duration=t_split)
    second = replace(es, pulse=None, duration=es.duration - t_split)
    elements = list(seq.elements[:index]) + [first, second] + list(seq.elements[index + 1 :])
    return Sequence(elements, name=seq.name, meta=dict(seq.meta))


# ---------------------------------------------------------------------------
# description files
# ---------------------------------------------------------------------------

_GRAD_KEYS = ("grad_x_mT_per_m", "grad_y_mT_per_m", "grad_z_mT_per_m")


def _repetitions(value: str) -> int:
    reps = int(value)
    if reps != 1:
        # nothing repeats a sequence, so a count other than 1 would be ignored
        raise InvalidParameter(f"must be 1, got {reps}")
    return reps


def _grad_shape(value: str) -> str:
    if value not in ("constant", "trapezoid"):
        raise InvalidParameter(f"unknown shape {value!r}")
    return value


# bare stems that are missing their unit suffix
_UNITLESS = {
    "duration": "duration_s",
    "rf_flip": "rf_flip_deg",
    "rf_phase": "rf_phase_deg",
    "grad_x": "grad_x_mT_per_m",
    "grad_y": "grad_y_mT_per_m",
    "grad_z": "grad_z_mT_per_m",
    "ramp": "ramp_s",
    "flat": "flat_s",
    "sample_dt": "sample_dt_s",
}


def _missing_unit(stem: str, full: str):
    def read(_value: str):
        raise UnitError(f"key {stem!r} is missing its unit suffix (use {full!r})")

    return read


_UNITLESS_KEYS = {stem: _missing_unit(stem, full) for stem, full in _UNITLESS.items()}
_GRAMMAR = {
    "sequence": {"name": str, "repetitions": _repetitions},
    "elementary": {
        **dict.fromkeys(("duration_s", "rf_flip_deg", "rf_phase_deg", *_GRAD_KEYS), float),
        "grad_shape": _grad_shape,
        **dict.fromkeys(("ramp_s", "flat_s"), float),
        **dict.fromkeys(("acquire", "kspace_row", "kspace_volume"), int),
        "kspace_reversed": boolean,
        **_UNITLESS_KEYS,
    },
    "rf_shaped": {
        "samples": str,
        **dict.fromkeys(("sample_dt_s", *_GRAD_KEYS), float),
        **_UNITLESS_KEYS,
    },
}


def _block_to_es(block: dict, blockline: int) -> ElementarySequence:
    get = {key: value for key, (value, _) in block.items()}.get
    shape = get("grad_shape", "constant")
    for key, (_, line) in block.items():
        # parameters that only one shape, an acquisition or a pulse would read
        if key in ("ramp_s", "flat_s") and shape != "trapezoid":
            raise ParseError(f"{key} needs grad_shape = trapezoid", line)
        if key.startswith("kspace_") and "acquire" not in block:
            raise ParseError(f"{key} needs acquire", line)
        if key == "acquire" and get(key) < 1:
            raise ParseError("acquire needs at least 1 sample; leave it out for none", line)
        if key == "rf_phase_deg" and get("rf_flip_deg", 0.0) == 0.0:
            raise ParseError("rf_phase_deg needs a nonzero rf_flip_deg", line)
    flip, phase = get("rf_flip_deg", 0.0), get("rf_phase_deg", 0.0)
    amps = [1e-3 * get(k, 0.0) for k in _GRAD_KEYS]
    try:
        if shape == "trapezoid":
            grad = GradientWaveform.trapezoid(*amps, get("ramp_s", 0.0), get("flat_s", 0.0))
        else:
            grad = GradientWaveform.constant(*amps)
        return ElementarySequence(
            pulse=HardPulse(math.radians(flip), math.radians(phase)),
            gradient=grad,
            duration=get("duration_s", 0.0),
            acquisition=AcquisitionSpec(get("acquire", 0)),
            kspace_row=get("kspace_row"),
            kspace_volume=get("kspace_volume", 0),
            kspace_reversed=get("kspace_reversed", False),
        )
    except InvalidParameter as exc:
        raise ParseError(str(exc), blockline) from None


def _expand_shaped(block: dict, blockline: int, base_dir: str) -> list:
    if "samples" not in block or "sample_dt_s" not in block:
        raise ParseError("[rf_shaped] needs samples=<file> and sample_dt_s", blockline)
    get = {key: value for key, (value, _) in block.items()}.get
    name, line = block["samples"]
    path = os.path.join(base_dir, name)  # an absolute file stays as it is
    try:
        data = np.loadtxt(path, ndmin=2)
    except OSError as exc:
        raise ParseError(f"cannot read envelope file {path}: {exc}", line) from None
    if data.shape[1] != 2:
        raise ParseError(f"envelope file {path} must have two columns", line)
    b1 = (data[:, 0] + 1j * data[:, 1]) * 1e-6  # uT -> T
    dt = get("sample_dt_s")
    try:
        grad = GradientWaveform.constant(*(1e-3 * get(k, 0.0) for k in _GRAD_KEYS))
        return [
            ElementarySequence(pulse=pulse, gradient=grad, duration=dt)
            for pulse in hard_pulse_decomposition(b1, dt)
        ]
    except InvalidParameter as exc:
        raise ParseError(str(exc), blockline) from None


def parse_sequence_file(text: str, base_dir: str = ".") -> Sequence:
    """Parse the sequence description grammar into a Sequence.

    Blocks: ``[sequence]`` (name, repetitions, which must be 1; each at
    most once per file), ``[elementary]`` and ``[rf_shaped]`` (expanded
    into one elementary sequence per envelope sample by
    :func:`mrsim.bloch.hard_pulse_decomposition`).  Keys carry their
    units in their names; the line format is :mod:`mrsim.grammar`'s.
    """
    elements: list = []
    name = "sequence"
    for kind, line, block in read_blocks(text, _GRAMMAR, file_wide=("sequence",)):
        if kind == "sequence":
            name = block.get("name", (name,))[0]
        elif kind == "elementary":
            elements.append(_block_to_es(block, line))
        else:
            elements.extend(_expand_shaped(block, line, base_dir))
    if not elements:
        raise ParseError("no elementary sequences in file", 1)
    return Sequence(elements, name=name)


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_converted(value: float, to_file, from_file) -> str:
    """Shortest file representation whose parse recovers ``value`` exactly.

    Unit conversion (T/m to mT/m, radians to degrees) is not an exact
    float round trip, so probe the neighboring representable values.
    """
    base = float(to_file(value))
    cand = base
    for _ in range(3):
        if from_file(float(repr(cand))) == value:
            return repr(cand)
        cand = math.nextafter(cand, math.inf)
    cand = base
    for _ in range(3):
        cand = math.nextafter(cand, -math.inf)
        if from_file(float(repr(cand))) == value:
            return repr(cand)
    return repr(base)


def _fmt_mt_per_m(amp: float) -> str:
    return _fmt_converted(amp, lambda v: v * 1e3, lambda v: v * 1e-3)


def _fmt_deg(angle: float) -> str:
    return _fmt_converted(angle, math.degrees, math.radians)


def serialize_sequence(seq: Sequence) -> str:
    """Render a Sequence in the description grammar (round-trip exact)."""
    out = ["[sequence]", f"name = {seq.name}", ""]
    for es in seq.elements:
        out.append("[elementary]")
        out.append(f"duration_s = {_fmt(es.duration)}")
        if es.pulse is not None:
            out.append(f"rf_flip_deg = {_fmt_deg(es.pulse.alpha)}")
            out.append(f"rf_phase_deg = {_fmt_deg(es.pulse.phi)}")
        g = es.gradient
        if g.shape == "sampled":
            raise InvalidParameter("sampled gradient waveforms have no file representation")
        if g.shape == "trapezoid":
            out.append("grad_shape = trapezoid")
            out.append(f"ramp_s = {_fmt(g.ramp_s)}")
            out.append(f"flat_s = {_fmt(g.flat_s)}")
        for axis, amp in zip("xyz", (g.gx, g.gy, g.gz)):
            if amp != 0.0:
                out.append(f"grad_{axis}_mT_per_m = {_fmt_mt_per_m(amp)}")
        if es.acquisition.enabled:
            out.append(f"acquire = {es.acquisition.n_samples}")
            # each placement key that differs from its default
            if es.kspace_row is not None:
                out.append(f"kspace_row = {es.kspace_row}")
            if es.kspace_volume:
                out.append(f"kspace_volume = {es.kspace_volume}")
            if es.kspace_reversed:
                out.append("kspace_reversed = true")
        out.append("")
    return "\n".join(out)
