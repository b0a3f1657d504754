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
# (k, spin) pairs per lattice-spectrum chunk, ~40 MiB of temporaries.  A
# whole readout at once is no faster and, for 768 k on 20,000 spins,
# peaks ~470 MiB higher.
_LATTICE_CHUNK = 2**20


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

    A configuration of order o sits at k = o * unit; the continuous k
    offset inside a readout is passed alongside, never stored.
    """

    unit: Tuple[Optional[float], Optional[float], Optional[float]]
    trans: Dict[Order, complex] = field(default_factory=dict)
    longi: Dict[Order, complex] = field(default_factory=dict)
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


def _row(pops: Dict[Order, complex]):
    """Sorted orders and their populations as one row (1, m)."""
    orders = sorted(pops)
    return orders, np.array([[pops[o] for o in orders]], dtype=complex)


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
    object_spectrum: Callable[[np.ndarray], np.ndarray],
    frac: Tuple[float, float, float] = (0.0, 0.0, 0.0),
) -> complex:
    """Echo value at one instant: sum of transversal populations weighted
    by the object spectrum at their k positions, offset by ``frac``
    (rad/m, the k moved inside a readout).

    ``object_spectrum`` maps k of shape (..., 3) rad/m to a complex
    array of shape (...); it is called once, on all configurations.
    """
    orders, pops = _row(state.trans)
    k = _k_positions(state.unit, orders, np.array([frac], dtype=float))
    return complex((pops * object_spectrum(k)).sum())


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
    object_spectrum: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    gamma: float = GAMMA_PROTON,
    prune_threshold: float = DEFAULT_PRUNE,
    unit=None,
    record_trace: bool = True,
    observe: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
) -> KtRun:
    """Quantitative configuration tracking through a whole sequence.

    Echo samples are produced wherever the sequence acquires, using the
    supplied object spectrum: k of shape (..., 3) rad/m in, a complex
    array of shape (...) out, called once per readout on every
    configuration at every sample.  The tracker itself only needs the
    tissue relaxation constants; position dependence enters through the
    spectrum alone, so one run serves every region with the same T1/T2.

    ``observe(k, populations)`` sees the transversal configurations at
    every instant a trace would record, without building the trace: k
    is (points, m, 3) rad/m and populations (points, m), the m
    configurations in order.  A readout is observed in one call for all
    its samples.

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

    def emit(at, fracs, orders, pops, longi, lpops):
        """Trace rows and observe call for the configurations at the
        instants ``at``; returns the transversal k (points, m, 3)."""
        k = _k_positions(unit, orders, fracs)
        if observe is not None and orders:
            observe(k, pops)
        if record_trace:
            rows = zip(
                at,
                _entries("transversal", orders, pops, k),
                _entries("longitudinal", longi, lpops, _k_positions(unit, longi, fracs)),
            )
            trace.extend(TracePoint(t, a + b) for t, a, b in rows)
        return k

    def record(t):
        if record_trace or (observe is not None and state.trans):
            emit([t], np.zeros((1, 3)), *_row(state.trans), *_row(state.longi))

    record(now)
    for es in sequence.elements:
        if es.pulse is not None:
            state = apply_rf_split(state, es.pulse)
            record(now)
        moments = es.gradient.moments(es.duration, gamma)
        q = _integer_shift(moments, unit, tol=shift_tol)
        rest = es.duration
        if es.acquisition.enabled:
            ts = es.acquisition.sample_times(es.duration)
            partial = es.gradient.partial_moments(ts, es.duration, gamma)
            orders, pops, longi, lpops = _relax_readout(state, relax, ts)
            k = emit((now + ts).tolist(), partial, orders, pops, longi, lpops)
            if object_spectrum is not None:
                echoes.append((pops * object_spectrum(k)).sum(-1))
                times.append(now + ts)
            state.trans = dict(zip(orders, pops[-1].tolist()))
            state.longi = dict(zip(longi, lpops[-1].tolist()))
            rest = es.duration - ts[-1]
        state = apply_relax_interval(state, relax, rest)
        state = apply_gradient_shift(state, q)
        now += es.duration
        record(now)
    return KtRun(echoes=echoes, sample_times=times, trace=trace, final=state)


def _k_positions(unit, orders, fracs: np.ndarray) -> np.ndarray:
    """k of every configuration at every point: (points, m, 3) rad/m."""
    scale = np.array([u if u else 0.0 for u in unit])
    return np.array(orders, dtype=float).reshape(-1, 3) * scale + fracs[:, None, :]


def _relax_readout(state: ConfigurationSet, relax: RelaxationParams, ts: np.ndarray):
    """Populations at every sample instant ``ts`` of one readout.

    The same products in the same order as one :func:`apply_relax_interval`
    per sample interval: one running product of T2 / T1 decay factors
    over both kinds, the order-0 Mz by its scalar regrowth recurrence;
    a zero-length interval leaves the populations as they are.  Returns
    the sorted transversal orders, their populations (samples, m), and
    the same pair for the longitudinal configurations.
    """
    dts = np.empty_like(ts)
    dts[0], dts[1:] = ts[0], ts[1:] - ts[:-1]
    moved = dts != 0.0
    live = dts[moved].tolist()
    e1s = [math.exp(-dt / relax.t1) for dt in live]
    (orders, pops), (longi, lpops) = _row(state.trans), _row(state.longi)
    m = len(orders)
    scan = np.empty((len(live) + 1, m + len(longi)), dtype=complex)
    scan[0, :m], scan[0, m:] = pops[0], lpops[0]
    scan[1:, :m] = np.array([math.exp(-dt / relax.t2) for dt in live])[:, None]
    scan[1:, m:] = np.array(e1s)[:, None]
    np.multiply.accumulate(scan, axis=0, out=scan)
    b0s, b0 = [], state.longi[ZERO]
    for e1 in e1s:
        b0 = _real_b0(b0 * e1 + relax.m0 * (1.0 - e1))
        b0s.append(b0)
    scan[1:, m + longi.index(ZERO)] = b0s
    row = moved.cumsum()
    return orders, scan[row, :m], longi, scan[row, m:]


def _entries(kind: str, orders, pops: np.ndarray, k: np.ndarray) -> List[List[Configuration]]:
    """Export entries of one kind at each point: pops (points, m), k (points, m, 3)."""
    return [
        [Configuration(kind, o, p, tuple(kk)) for o, p, kk in zip(orders, row, k_row)]
        for row, k_row in zip(pops.tolist(), k.tolist())
    ]


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

    Walks per-axis intervals: the extreme moments the transversal and
    longitudinal configurations span, visited at every boundary and
    along the continuous k motion inside each interval.  RF mixing maps
    the extremes of both sets onto those of the mixed set and gradient
    shifts translate them, so this is exact for the maximum over every
    reachable order while staying O(#elementary sequences).
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
                    f"{float(point.time)!r},{e.kind},{e.order[0]},{float(e.k_position[0])!r},"
                    f"{float(e.population.real)!r},{float(e.population.imag)!r}"
                )
        else:
            for kind, orders in (("transversal", point.trans), ("longitudinal", point.longi)):
                for o in sorted(orders):
                    lines.append(f"{float(point.time)!r},{kind},{o[0]},,,")
    return "\n".join(lines) + "\n"


def lattice_spectrum(positions, weights) -> Callable:
    """Discrete spatial-frequency function of a weighted spin lattice:
    S(k) = sum_s w_s * exp(-1j * k . x_s), for k of shape (..., 3).

    This is the object-side companion of the spin engine's signal sum;
    pairing it with the tracker makes the two simulation routes agree to
    rounding for homogeneous fields.
    """
    pos = np.asarray(positions, dtype=float)
    w = np.asarray(weights, dtype=complex)
    step = max(1, _LATTICE_CHUNK // max(len(pos), 1))

    def spectrum(k) -> np.ndarray:
        flat = np.asarray(k, dtype=float).reshape(-1, 3)
        out = np.empty(len(flat), dtype=complex)
        for i in range(0, len(flat), step):
            out[i : i + step] = np.exp(-1j * (flat[i : i + step] @ pos.T)) @ w
        return out.reshape(np.shape(k)[:-1])[()]

    return spectrum


def box_spectrum(center, size, m0: float = 1.0) -> Callable:
    """Analytic spectrum of a constant box, for k of shape (..., 3):
    product of sinc factors."""
    center = np.asarray(center, dtype=float)
    size = np.asarray(size, dtype=float)

    def spectrum(k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        sinc = np.prod(np.sinc(k * size / 2.0 / np.pi), axis=-1)
        return m0 * float(np.prod(size)) * sinc * np.exp(-1j * (k @ center))

    return spectrum
