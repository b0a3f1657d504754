"""Configuration-space ("k-t") engine.

Instead of position-local magnetization vectors, the transverse and
longitudinal magnetization of a homogeneous-field experiment is written
as a sum of configurations: complex populations attached to integer
multiples of a per-axis unit spatial frequency.  RF pulses exchange
population between the +i / -i / longitudinal members of each order
group, relaxation scales populations, and gradients shift the order of
every transversal configuration by the same integer.

The engine serves three purposes: echo prediction through the object's
spatial-frequency function, derivation of the spatial discretization a
spin simulation needs, and an independent oracle for the spin engine.

Conventions: spatial frequencies are angular (rad/m) everywhere; a
transversal configuration of order o contributes
``a_o * exp(-1j * (o*unit) . x)`` to mx + 1j*my, matching the clockwise
rotation convention of :mod:`mrsim.bloch`.  Longitudinal populations
obey b(-o) = conj(b(o)), which keeps Mz real.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .bloch import GAMMA_PROTON, HardPulse, RelaxationParams
from .errors import ComplexOrderZero, IncommensurateMoments
from .sequence import Sequence

Order = Tuple[int, int, int]
ZERO: Order = (0, 0, 0)

DEFAULT_PRUNE = 1e-12
_B0_IMAG_BOUND = 1e-10


@dataclass(frozen=True)
class Configuration:
    """One entry of a configuration set (export form)."""

    kind: str  # "transversal" | "longitudinal"
    order: Order
    population: complex
    k_position: Tuple[float, float, float]


def _neg(order: Order) -> Order:
    return (-order[0], -order[1], -order[2])


@dataclass
class ConfigurationSet:
    """Populations keyed by (kind, integer order) plus the per-axis unit.

    ``frac`` is the continuous k offset accumulated inside the current
    elementary sequence; it returns to zero whenever the integer shift
    of a completed interval is committed.
    """

    unit: Tuple[Optional[float], Optional[float], Optional[float]]
    trans: Dict[Order, complex] = field(default_factory=dict)
    longi: Dict[Order, complex] = field(default_factory=dict)
    frac: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    prune_threshold: float = DEFAULT_PRUNE
    m0_scale: float = 1.0

    @staticmethod
    def equilibrium(
        m0: float = 1.0,
        unit=(None, None, None),
        prune_threshold: float = DEFAULT_PRUNE,
    ) -> "ConfigurationSet":
        return ConfigurationSet(
            unit=tuple(unit),
            longi={ZERO: complex(m0)},
            prune_threshold=prune_threshold,
            m0_scale=m0 if m0 > 0 else 1.0,
        )

    def k_of(self, order: Order) -> Tuple[float, float, float]:
        return tuple(
            (order[ax] * self.unit[ax] if self.unit[ax] else 0.0) + self.frac[ax]
            for ax in range(3)
        )

    def entries(self) -> List[Configuration]:
        out = [
            Configuration("transversal", o, p, self.k_of(o)) for o, p in sorted(self.trans.items())
        ]
        out += [
            Configuration("longitudinal", o, p, self.k_of(o)) for o, p in sorted(self.longi.items())
        ]
        return out

    def transverse_total(self) -> complex:
        return sum(self.trans.values(), start=0j)

    def prune(self) -> None:
        if self.prune_threshold <= 0.0:
            return
        cut = self.prune_threshold * self.m0_scale
        self.trans = {o: p for o, p in self.trans.items() if abs(p) >= cut}
        self.longi = {
            o: p for o, p in self.longi.items() if abs(p) >= cut or o == ZERO
        }

    def _enforce_real_b0(self) -> None:
        b0 = self.longi.get(ZERO)
        if b0 is not None:
            self.longi[ZERO] = _real_b0(b0)


def _real_b0(b0: complex) -> complex:
    """The order-0 longitudinal population (the mean Mz) with its
    round-off imaginary part dropped; a sizable one is an error."""
    if abs(b0.imag) > _B0_IMAG_BOUND * max(abs(b0), 1e-300):
        raise ComplexOrderZero(f"order-0 longitudinal population went complex: {b0}")
    return complex(b0.real, 0.0)


def rf_mixing_matrix(alpha: float, phi: float) -> np.ndarray:
    """Complex 3x3 pulse matrix acting on (a_o, conj(a_-o), b_o)."""
    ca2 = math.cos(alpha / 2.0) ** 2
    sa2 = math.sin(alpha / 2.0) ** 2
    sa = math.sin(alpha)
    ephi = cmath.exp(1j * phi)
    return np.array(
        [
            [ca2, sa2 * ephi * ephi, 1j * sa * ephi],
            [sa2 / (ephi * ephi), ca2, -1j * sa / ephi],
            [0.5j * sa / ephi, -0.5j * sa * ephi, math.cos(alpha)],
        ],
        dtype=complex,
    )


def apply_rf_split(state: ConfigurationSet, pulse: HardPulse) -> ConfigurationSet:
    """Weighted population exchange within every |order| group."""
    if pulse is None or pulse.alpha == 0.0:
        return replace(state, trans=dict(state.trans), longi=dict(state.longi))
    t = rf_mixing_matrix(pulse.alpha, pulse.phi)
    orders = set(state.trans) | set(state.longi)
    orders |= {_neg(o) for o in orders}
    new_trans: Dict[Order, complex] = {}
    new_longi: Dict[Order, complex] = {}
    for o in orders:
        a = state.trans.get(o, 0j)
        a_conj_neg = state.trans.get(_neg(o), 0j).conjugate()
        b = state.longi.get(o, 0j)
        na = t[0, 0] * a + t[0, 1] * a_conj_neg + t[0, 2] * b
        nb = t[2, 0] * a + t[2, 1] * a_conj_neg + t[2, 2] * b
        if na != 0j:
            new_trans[o] = new_trans.get(o, 0j) + na
        if nb != 0j or o == ZERO:
            new_longi[o] = new_longi.get(o, 0j) + nb
    out = replace(state, trans=new_trans, longi=new_longi)
    out._enforce_real_b0()
    out.prune()
    return out


def apply_relax_interval(
    state: ConfigurationSet, relax: RelaxationParams, dt: float
) -> ConfigurationSet:
    """T2 decay of transversal, T1 decay of longitudinal populations;
    the order-0 longitudinal population additionally regrows toward m0."""
    if dt == 0.0:
        return replace(state, trans=dict(state.trans), longi=dict(state.longi))
    e2 = math.exp(-dt / relax.t2)
    e1 = math.exp(-dt / relax.t1)
    new_trans = {o: p * e2 for o, p in state.trans.items()}
    new_longi = {o: p * e1 for o, p in state.longi.items()}
    new_longi[ZERO] = new_longi.get(ZERO, 0j) + relax.m0 * (1.0 - e1)
    out = replace(state, trans=new_trans, longi=new_longi)
    out._enforce_real_b0()
    return out


def apply_gradient_shift(state: ConfigurationSet, q: Order) -> ConfigurationSet:
    """Shift every transversal order by the integer triple q; populations
    landing on the same order merge (configuration interference)."""
    if q == ZERO:
        return replace(state, trans=dict(state.trans), longi=dict(state.longi))
    new_trans: Dict[Order, complex] = {}
    for o, p in state.trans.items():
        key = (o[0] + q[0], o[1] + q[1], o[2] + q[2])
        new_trans[key] = new_trans.get(key, 0j) + p
    return replace(state, trans=new_trans, longi=dict(state.longi))


def synthesize_echo(
    state: ConfigurationSet,
    object_spectrum: Callable[[Tuple[float, float, float]], complex],
    frac: Optional[Tuple[float, float, float]] = None,
) -> complex:
    """Echo value: sum of transversal populations weighted by the object
    spectrum at their current k positions."""
    if frac is not None:
        state = replace(state, frac=tuple(frac))
    total = 0j
    for o, p in state.trans.items():
        total += p * object_spectrum(state.k_of(o))
    return total


# ---------------------------------------------------------------------------
# unit derivation
# ---------------------------------------------------------------------------


def _axis_unit(moments: List[float], tol: float, max_den: int) -> Optional[float]:
    scale = max(abs(m) for m in moments) if moments else 0.0
    nonzero = [m for m in moments if abs(m) > tol * max(scale, 1.0)]
    if not nonzero:
        return None
    ref = min(nonzero, key=abs)
    fracs = []
    for m in nonzero:
        f = Fraction(m / ref).limit_denominator(max_den)
        if f == 0 or abs(m / ref - float(f)) > tol * max(1.0, abs(m / ref)):
            raise IncommensurateMoments(
                f"moment {m} is not a rational multiple of {ref} within tolerance"
            )
        fracs.append(f)
    num_gcd = math.gcd(*(abs(f.numerator) for f in fracs))
    den_lcm = math.lcm(*(f.denominator for f in fracs))
    return abs(ref) * num_gcd / den_lcm


def derive_unit_k(
    sequence: Sequence,
    gamma: float = GAMMA_PROTON,
    tol: float = 1e-9,
    max_den: int = 10**6,
) -> Tuple[Optional[float], Optional[float], Optional[float]]:
    """Per-axis unit spatial frequency: the greatest common measure of
    all per-elementary-sequence gradient moments.  Axes whose moments
    are all zero have no unit (order stays 0)."""
    per_axis: List[List[float]] = [[], [], []]
    for es in sequence.elements:
        m = es.gradient.moments(es.duration, gamma)
        for ax in range(3):
            per_axis[ax].append(float(m[ax]))
    return tuple(_axis_unit(per_axis[ax], tol, max_den) for ax in range(3))


def _integer_shift(moments: np.ndarray, unit, tol: float = 1e-6) -> Order:
    q = []
    for ax in range(3):
        if unit[ax] is None or unit[ax] == 0.0:
            q.append(0)
            continue
        ratio = moments[ax] / unit[ax]
        qi = round(ratio)
        if math.isfinite(tol) and abs(ratio - qi) > tol * max(1.0, abs(ratio)):
            raise IncommensurateMoments(
                f"moment {moments[ax]} is not an integer multiple of unit {unit[ax]}"
            )
        q.append(int(qi))
    return tuple(q)


def fallback_unit(
    sequence: Sequence, gamma: float = GAMMA_PROTON, resolution: int = 1024
):
    """Continuous-k fallback unit for sequences without a common measure:
    the smallest nonzero per-axis moment divided by ``resolution``, so
    orders become rounded k positions at that quantization."""
    per_axis: List[Optional[float]] = [None, None, None]
    for es in sequence.elements:
        m = es.gradient.moments(es.duration, gamma)
        for ax in range(3):
            v = abs(float(m[ax]))
            if v > 0.0 and (per_axis[ax] is None or v < per_axis[ax]):
                per_axis[ax] = v
    return tuple(None if v is None else v / resolution for v in per_axis)


# ---------------------------------------------------------------------------
# sequence walkers
# ---------------------------------------------------------------------------


@dataclass
class TracePoint:
    time: float
    entries: List[Configuration]


@dataclass
class KtRun:
    """Result of a quantitative walk: per-acquisition echoes plus trace."""

    echoes: List[np.ndarray]
    sample_times: List[np.ndarray]
    trace: List[TracePoint]
    final: ConfigurationSet


def simulate_kt(
    sequence: Sequence,
    relax: RelaxationParams,
    object_spectrum: Optional[Callable] = None,
    gamma: float = GAMMA_PROTON,
    prune_threshold: float = DEFAULT_PRUNE,
    unit=None,
    record_trace: bool = True,
    observe: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
) -> KtRun:
    """Quantitative configuration tracking through a whole sequence.

    Echo samples are produced wherever the sequence acquires, using the
    supplied object spectrum (rad/m -> complex).  The tracker itself
    only needs the tissue relaxation constants; position dependence
    enters through the spectrum alone, so one run serves every region
    with the same T1/T2.

    ``observe(k, populations)`` sees the transversal configurations at
    every instant a trace would record, without building the trace: k
    is (points, m, 3) rad/m and populations (points, m), the m
    configurations in order.  When neither a spectrum nor a trace needs
    the state at each sample, a readout is relaxed on population arrays
    and observed in one call for all its samples.

    Sequences whose moments share no common measure are tracked on the
    continuous-k fallback grid (smallest moment / 1024), merging
    configurations whose k positions round together.
    """
    shift_tol = 1e-6
    if unit is None:
        try:
            unit = derive_unit_k(sequence, gamma)
        except IncommensurateMoments:
            unit = fallback_unit(sequence, gamma)
            shift_tol = math.inf
    state = ConfigurationSet.equilibrium(relax.m0, unit, prune_threshold)
    trace: List[TracePoint] = []
    echoes: List[np.ndarray] = []
    times: List[np.ndarray] = []
    now = 0.0

    def record(t):
        if record_trace:
            trace.append(TracePoint(t, state.entries()))
        if observe is not None and state.trans:
            orders = sorted(state.trans)
            observe(
                _k_positions(state.unit, orders, np.array([state.frac])),
                np.array([[state.trans[o] for o in orders]]),
            )

    record(now)
    for es in sequence.elements:
        if es.pulse is not None:
            state = apply_rf_split(state, es.pulse)
            record(now)
        moments = es.gradient.moments(es.duration, gamma)
        q = _integer_shift(moments, unit, tol=shift_tol)
        if es.acquisition.enabled:
            ts = es.acquisition.sample_times(es.duration)
            partial = es.gradient.partial_moments(ts, es.duration, gamma)
            samples = np.empty(ts.size, dtype=complex)
            prev = 0.0
            if object_spectrum is None and not record_trace:
                state = _relax_through_samples(state, relax, ts, partial, observe)
                prev = ts[-1] if ts.size else prev
            else:
                for i, t in enumerate(ts):
                    state = apply_relax_interval(state, relax, t - prev)
                    prev = t
                    state.frac = tuple(partial[i])
                    if object_spectrum is not None:
                        samples[i] = synthesize_echo(state, object_spectrum)
                    record(now + t)
            if object_spectrum is not None:
                echoes.append(samples)
                times.append(now + ts)
            state = apply_relax_interval(state, relax, es.duration - prev)
        else:
            state = apply_relax_interval(state, relax, es.duration)
        state.frac = (0.0, 0.0, 0.0)
        state = apply_gradient_shift(state, q)
        now += es.duration
        record(now)
    return KtRun(echoes=echoes, sample_times=times, trace=trace, final=state)


def _k_positions(unit, orders, fracs: np.ndarray) -> np.ndarray:
    """k of every configuration at every point: (points, m, 3) rad/m."""
    scale = np.array([u if u else 0.0 for u in unit])
    return np.array(orders, dtype=float).reshape(-1, 3) * scale + fracs[:, None, :]


def _relax_through_samples(
    state: ConfigurationSet, relax: RelaxationParams, ts, partial, observe
) -> ConfigurationSet:
    """The state at the last sample instant, relaxed sample by sample.

    Equivalent to one :func:`apply_relax_interval` per sample interval,
    with the same products in the same order; the transversal
    populations of all samples are computed at once and handed to
    ``observe`` in one call.
    """
    dts = np.diff(np.asarray(ts, dtype=float), prepend=0.0).tolist()
    e1s = [math.exp(-dt / relax.t1) for dt in dts if dt != 0.0]
    longi = dict(state.longi)
    if e1s:
        others = [o for o in longi if o != ZERO]
        if others:
            scan = np.empty((len(e1s) + 1, len(others)), dtype=complex)
            scan[0] = [longi[o] for o in others]
            scan[1:] = np.array(e1s)[:, None]
            np.multiply.accumulate(scan, axis=0, out=scan)
            longi.update(zip(others, scan[-1].tolist()))
        b0 = longi.get(ZERO, 0j)
        for e1 in e1s:
            b0 = _real_b0(b0 * e1 + relax.m0 * (1.0 - e1))
        longi[ZERO] = b0
    orders = list(state.trans)
    pops = np.empty((len(dts) + 1, len(orders)), dtype=complex)
    pops[0] = [state.trans[o] for o in orders]
    pops[1:] = np.array([math.exp(-dt / relax.t2) if dt != 0.0 else 1.0 for dt in dts])[:, None]
    np.multiply.accumulate(pops, axis=0, out=pops)
    if observe is not None and orders:
        rank = sorted(range(len(orders)), key=orders.__getitem__)
        observe(
            _k_positions(state.unit, [orders[j] for j in rank], np.asarray(partial, dtype=float)),
            pops[1:, rank],
        )
    return replace(
        state,
        trans=dict(zip(orders, pops[-1].tolist())),
        longi=longi,
        frac=tuple(partial[-1]) if len(dts) else state.frac,
    )


@dataclass
class QualitativePoint:
    time: float
    trans: set
    longi: set


def qualitative_walk(sequence: Sequence, gamma: float = GAMMA_PROTON, unit=None):
    """All reachable configuration orders, assuming every RF split occurs
    (flip and phase angles treated as arbitrary)."""
    if unit is None:
        unit = derive_unit_k(sequence, gamma)
    trans: set = set()
    longi: set = {ZERO}
    points: List[QualitativePoint] = []
    now = 0.0
    points.append(QualitativePoint(now, set(trans), set(longi)))
    for es in sequence.elements:
        if es.pulse is not None and es.pulse.alpha != 0.0:
            mixed = trans | {_neg(o) for o in trans} | longi | {_neg(o) for o in longi}
            trans = set(mixed)
            longi = set(mixed) | {ZERO}
            points.append(QualitativePoint(now, set(trans), set(longi)))
        q = _integer_shift(es.gradient.moments(es.duration, gamma), unit)
        trans = {(o[0] + q[0], o[1] + q[1], o[2] + q[2]) for o in trans}
        now += es.duration
        points.append(QualitativePoint(now, set(trans), set(longi)))
    return points, unit


def max_k_excursion(
    sequence: Sequence,
    gamma: float = GAMMA_PROTON,
    domega_margin: Tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> Tuple[float, float, float]:
    """Per-axis maximum |k| reached by any configuration at any time.

    Runs the qualitative tracker over the whole sequence, including the
    continuous k motion inside each interval.  Only the per-axis set
    extremes are tracked: the RF mixing rule maps the extreme orders of
    the transversal/longitudinal sets onto the extremes of the mixed
    set, and gradient shifts translate them, so the interval walk is
    exact for the maximum while staying O(#elementary sequences).
    ``domega_margin`` (rad/m per axis) is added on top as a
    user-supplied off-resonance allowance.  Works directly on the
    continuous moments, so no common k unit is required.
    """
    kmax = [0.0, 0.0, 0.0]
    # per-axis moment intervals, in rad/m (continuous; integer units not needed)
    t_lo = np.zeros(3)
    t_hi = np.zeros(3)
    has_trans = False
    z_lo = np.zeros(3)
    z_hi = np.zeros(3)

    def visit(lo, hi, frac=None):
        for ax in range(3):
            a, b = lo[ax], hi[ax]
            if frac is not None:
                a, b = a + frac[ax], b + frac[ax]
            kmax[ax] = max(kmax[ax], abs(a), abs(b))

    for es in sequence.elements:
        if es.pulse is not None and es.pulse.alpha != 0.0:
            m = np.maximum.reduce(
                [np.abs(t_lo), np.abs(t_hi), np.abs(z_lo), np.abs(z_hi)]
                if has_trans
                else [np.abs(z_lo), np.abs(z_hi)]
            )
            t_lo, t_hi = -m, m.copy()
            z_lo, z_hi = -m, m.copy()
            has_trans = True
        moments = np.asarray(es.gradient.moments(es.duration, gamma), dtype=float)
        if has_trans and es.duration > 0.0 and not es.gradient.is_zero:
            if es.gradient.shape == "sampled":
                n = len(es.gradient.samples)
                ts = np.linspace(0.0, es.duration, max(n, 2))
            else:
                ts = np.array([0.0, es.duration])
            for row in es.gradient.partial_moments(ts, es.duration, gamma):
                visit(t_lo, t_hi, row)
        elif has_trans:
            visit(t_lo, t_hi)
        visit(z_lo, z_hi)
        if has_trans:
            t_lo = t_lo + moments
            t_hi = t_hi + moments
            visit(t_lo, t_hi)
    return tuple(kmax[ax] + domega_margin[ax] for ax in range(3))


# ---------------------------------------------------------------------------
# diagrams and spectra
# ---------------------------------------------------------------------------


def export_kt_diagram(trace) -> str:
    """CSV rows (time_s, kind, order_i, kx_rad_per_m, pop_re, pop_im).

    Accepts either a quantitative trace (TracePoint list) or a
    qualitative one (QualitativePoint list); qualitative rows leave the
    population columns empty.
    """
    lines = ["time_s,kind,order_i,kx_rad_per_m,pop_re,pop_im"]
    for point in trace:
        if isinstance(point, TracePoint):
            for e in point.entries:
                lines.append(
                    f"{point.time!r},{e.kind},{e.order[0]},{e.k_position[0]!r},"
                    f"{e.population.real!r},{e.population.imag!r}"
                )
        else:
            for kind, orders in (("transversal", point.trans), ("longitudinal", point.longi)):
                for o in sorted(orders):
                    lines.append(f"{point.time!r},{kind},{o[0]},,,")
    return "\n".join(lines) + "\n"


def lattice_spectrum(positions, weights) -> Callable:
    """Discrete spatial-frequency function of a weighted spin lattice:
    S(k) = sum_s w_s * exp(-1j * k . x_s).

    This is the object-side companion of the spin engine's signal sum;
    pairing it with the tracker makes the two simulation routes agree to
    rounding for homogeneous fields.
    """
    pos = np.asarray(positions, dtype=float)
    w = np.asarray(weights, dtype=complex)

    def spectrum(k) -> complex:
        phase = pos @ np.asarray(k, dtype=float)
        return complex(np.sum(w * np.exp(-1j * phase)))

    return spectrum


def box_spectrum(center, size, m0: float = 1.0) -> Callable:
    """Analytic spectrum of a constant box: product of sinc factors."""
    center = np.asarray(center, dtype=float)
    size = np.asarray(size, dtype=float)

    def spectrum(k) -> complex:
        k = np.asarray(k, dtype=float)
        val = m0 * float(np.prod(size))
        for ax in range(3):
            u = k[ax] * size[ax] / 2.0
            val *= np.sinc(u / np.pi)
        return val * cmath.exp(-1j * float(k @ center))

    return spectrum
