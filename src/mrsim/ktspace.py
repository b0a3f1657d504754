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

The walk (:func:`simulate_kt`) keeps its state as two sorted tuples of
order tuples with a list of Python complex populations each, and builds
a :class:`ConfigurationSet` only for its result.  It steps from pulse to
pulse: between two pulses relaxation only scales the populations and a
gradient only shifts every transversal order by the same integer
triple, which is one-to-one and keeps the sorted order, so it relabels
the orders and merges nothing.  A span, a pulse element and the
elements up to the next one, takes one running product of decay
factors over all its intervals, one k array and one relabel by its
summed shift.  A pulse split reads the state through a plan of indices
that is cached per pair of order tuples for the walk, so a recurring
state (an echo train) builds it once.  Echoes are synthesized in
batches of readouts, with one object-spectrum call per configuration
count in a batch, not one per readout.

Conventions: spatial frequencies are angular (rad/m) everywhere; a
transversal configuration of order o contributes
``a_o * exp(-1j * (o*unit) . x)`` to mx + 1j*my, matching the clockwise
rotation convention of :mod:`mrsim.bloch`.  Longitudinal populations
obey b(-o) = conj(b(o)), which keeps Mz real.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .bloch import RelaxationParams, hard_pulse_coefficients
from .errors import ComplexOrderZero, IncommensurateMoments, InvalidParameter
from .sequence import Sequence, distinct_elements

_log = logging.getLogger(__name__)

Order = Tuple[int, int, int]
ZERO: Order = (0, 0, 0)

DEFAULT_PRUNE = 1e-12
_B0_IMAG_BOUND = 1e-10
# a moment is a rational multiple of the axis reference when it is one
# within this relative tolerance and with a denominator up to _MAX_DEN
_UNIT_TOL = 1e-9
_MAX_DEN = 10**6
# the walk shifts an element by the integer nearest its moment over the
# unit, within this relative tolerance
_SHIFT_TOL = 1e-6
# moments without a common measure: orders quantize k at the smallest
# moment over this many steps
_FALLBACK_RESOLUTION = 1024
# (k, spin) pairs per lattice-spectrum chunk, ~40 MiB of temporaries.  A
# whole readout at once is no faster and, for 768 k on 20,000 spins,
# peaks ~470 MiB higher.
_LATTICE_CHUNK = 2**20
# populations (samples times configurations) of the readouts whose
# echoes the walk synthesizes together, with one spectrum call per width
_SYNTH_BATCH = 1 << 13
# populations (points times configurations of both kinds) of the most a
# span walks at once; a longer one, such as an EPI train, goes in parts
_SPAN_BATCH = 1 << 13


@dataclass(frozen=True)
class Configuration:
    """One entry of a configuration set (export form)."""

    kind: str  # "transversal" | "longitudinal"
    order: Order
    population: complex
    k_position: Tuple[float, float, float]


@dataclass
class ConfigurationSet:
    """Populations keyed by (kind, integer order) plus the per-axis unit.

    A configuration of order o sits at k = o * unit; the continuous k
    offset inside a readout is passed alongside, never stored.
    """

    unit: Tuple[Optional[float], Optional[float], Optional[float]]
    trans: Dict[Order, complex] = field(default_factory=dict)
    longi: Dict[Order, complex] = field(default_factory=dict)

    @staticmethod
    def equilibrium(m0: float = 1.0, unit=(None, None, None)) -> "ConfigurationSet":
        return ConfigurationSet(unit=tuple(unit), longi={ZERO: complex(m0)})


def _real_b0(b0: complex) -> complex:
    """The order-0 longitudinal population (the mean Mz) with its
    round-off imaginary part dropped; a sizable one is an error."""
    if abs(b0.imag) > _B0_IMAG_BOUND * max(abs(b0), 1e-300):
        raise ComplexOrderZero(f"order-0 longitudinal population went complex: {b0}")
    return complex(b0.real, 0.0)


def _interval_decay(relax: RelaxationParams, dt: float) -> Tuple[float, float, float]:
    """(e2, e1, regrowth) of the order-0 Mz over dt."""
    e2 = math.exp(-dt / relax.t2)
    e1 = math.exp(-dt / relax.t1)
    return e2, e1, relax.m0 * (1.0 - e1)


# The walk's state is (trans_orders, trans_pops, longi_orders, longi_pops):
# each ``*_orders`` a tuple of distinct order tuples in sorted order,
# each ``*_pops`` a list of Python complex, one per order.


def _split_plan(trans_orders: Tuple[Order, ...], longi_orders: Tuple[Order, ...]):
    """How a pulse split reads a state with these orders: per order of
    the sorted union of both order sets and their negatives, the order,
    the indices of a_o, of a_-o and of b_o in the population lists (-1,
    past the end, where the state lacks one) and whether it is order 0."""
    trans_at = {o: i for i, o in enumerate(trans_orders)}
    longi_at = {o: i for i, o in enumerate(longi_orders)}
    orders = {*trans_orders, *longi_orders}
    orders.update([(-o[0], -o[1], -o[2]) for o in orders])
    return [
        (
            o,
            trans_at.get(o, -1),
            trans_at.get((-o[0], -o[1], -o[2]), -1),
            longi_at.get(o, -1),
            o == ZERO,
        )
        for o in sorted(orders)
    ]


def _split(plan, mix, cut: float, trans_pops: List[complex], longi_pops: List[complex]):
    """Weighted population exchange within every |order| group, then
    the prune: populations below ``cut`` go, except the order-0 Mz; a
    cut of 0 keeps only the nonzero ones.  ``plan`` is the
    :func:`_split_plan` of the state's orders; returns the new state."""
    t00, t01, t02, t20, t21, t22 = mix
    # index -1 of each list reads the 0j of a missing population
    trans_pops = trans_pops + [0j]
    longi_pops = longi_pops + [0j]
    pruned = cut > 0.0
    new_trans, new_tpops, new_longi, new_lpops = [], [], [], []
    for o, ia, ineg, ib, zero in plan:
        a = trans_pops[ia]
        a_conj_neg = trans_pops[ineg].conjugate()
        b = longi_pops[ib]
        na = t00 * a + t01 * a_conj_neg + t02 * b
        nb = t20 * a + t21 * a_conj_neg + t22 * b
        # 0j + p turns a -0.0 part into 0.0, as a sum into an empty slot does
        if na != 0j and (not pruned or abs(na) >= cut):
            new_trans.append(o)
            new_tpops.append(0j + na)
        if zero:
            new_longi.append(o)
            new_lpops.append(_real_b0(0j + nb))
        elif nb != 0j and (not pruned or abs(nb) >= cut):
            new_longi.append(o)
            new_lpops.append(0j + nb)
    return tuple(new_trans), new_tpops, tuple(new_longi), new_lpops


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
    orders = sorted(state.trans)
    pops = np.array([[state.trans[o] for o in orders]], dtype=complex)
    k = _k_positions(_k_scale(state.unit), orders, np.array([frac], dtype=float))
    return complex((pops * object_spectrum(k)).sum())


# ---------------------------------------------------------------------------
# unit derivation
# ---------------------------------------------------------------------------


def _axis_unit(moments: List[float]) -> Optional[float]:
    scale = max(abs(m) for m in moments) if moments else 0.0
    nonzero = [m for m in moments if abs(m) > _UNIT_TOL * max(scale, 1.0)]
    if not nonzero:
        return None
    ref = min(nonzero, key=abs)
    fracs = []
    for m in nonzero:
        f = Fraction(m / ref).limit_denominator(_MAX_DEN)
        if f == 0 or abs(m / ref - float(f)) > _UNIT_TOL * max(1.0, abs(m / ref)):
            raise IncommensurateMoments(
                f"moment {m} is not a rational multiple of {ref} within tolerance"
            )
        fracs.append(f)
    num_gcd = math.gcd(*(abs(f.numerator) for f in fracs))
    den_lcm = math.lcm(*(f.denominator for f in fracs))
    return abs(ref) * num_gcd / den_lcm


def _unit_of(moments: List[np.ndarray]):
    """Per-axis unit of a list of moments, each axis on its distinct
    values in order of first occurrence: the reference moment and the
    gcd / lcm are those of the full list."""
    return tuple(
        _axis_unit(list(dict.fromkeys(float(m[ax]) for m in moments)))
        for ax in range(3)
    )


def derive_unit_k(sequence: Sequence) -> Tuple[Optional[float], Optional[float], Optional[float]]:
    """Per-axis unit spatial frequency: the greatest common measure of
    all per-elementary-sequence gradient moments, the last rows of their
    events.  Axes whose moments are all zero have no unit (order stays 0)."""
    reps, _ = distinct_elements(sequence)
    return _unit_of([es.events[1][-1] for es in reps])


def _integer_shift(moments: np.ndarray, unit, tol: float) -> Order:
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


def _fallback_unit(moments: List[np.ndarray]):
    """Continuous-k fallback unit for moments without a common measure:
    the smallest nonzero per-axis moment divided by
    ``_FALLBACK_RESOLUTION``, so orders become rounded k positions at
    that quantization."""
    per_axis: List[Optional[float]] = [None, None, None]
    for m in moments:
        for ax in range(3):
            v = abs(float(m[ax]))
            if v > 0.0 and (per_axis[ax] is None or v < per_axis[ax]):
                per_axis[ax] = v
    return tuple(None if v is None else v / _FALLBACK_RESOLUTION for v in per_axis)


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
    trace: List[TracePoint]
    final: ConfigurationSet


def simulate_kt(
    sequence: Sequence,
    relax: RelaxationParams,
    object_spectrum: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    prune_threshold: float = DEFAULT_PRUNE,
    record_trace: bool = True,
    observe: Optional[Callable[[np.ndarray, np.ndarray], None]] = None,
) -> KtRun:
    """Quantitative configuration tracking through a whole sequence.

    Echo samples are produced wherever the sequence acquires, using the
    supplied object spectrum: k of shape (..., 3) rad/m in, a complex
    array of shape (...) out.  The walk collects each readout's k and
    populations; once ``_SYNTH_BATCH`` populations are pending, and at
    its end, it calls the spectrum once per configuration count m, on
    the k (points, m, 3) of the pending readouts with m configurations
    stacked along the points (:func:`_synthesize`).  Each
    echo is the sum a call per readout would give, bit for bit, unless
    the spectrum's own rounding depends on how many k it gets (the
    matrix product of :func:`lattice_spectrum` may).  A spectrum's
    exception reaches the caller as raised.  The tracker itself only
    needs the tissue relaxation constants; position dependence enters
    through the spectrum alone, so one run serves every region with the
    same T1/T2.  ``prune_threshold`` must be >= 0 and finite.

    ``observe(k, populations)`` sees the transversal configurations at
    every instant a trace would record, without building the trace: k
    is (points, m, 3) rad/m and populations (points, m), the m
    configurations in order.  It is called once per span (see below),
    on every point of the span in time order: the state after the
    span's pulse, each readout's samples and each element's end.  A span
    of more than ``_SPAN_BATCH`` populations is observed in parts of
    whole elements.  Every k array it receives is read-only, and the
    same array may come again when a span recurs with the same orders
    and shifts.

    Sequences whose moments share no common measure are tracked on the
    continuous-k fallback grid (smallest moment / 1024), merging
    configurations whose k positions round together.

    The walk steps from pulse to pulse.  A span is a pulse element and
    every element after it up to the next pulse element (the elements
    before the first pulse form one too).  Between two pulses every
    configuration only decays and shifts, so a span takes one running
    product of decay factors over all its intervals
    (:func:`_walk_span`), one k array and one ``observe`` call, and
    relabels the orders once by its summed shift.  An element's shift
    (by the last moment row of its ``events``) and what else it does (a
    :class:`_Piece`) are taken once per group of
    :func:`mrsim.sequence.distinct_elements`, and what a span does once
    per sequence of pieces (:class:`_SpanShape`), so phase-encode lobes
    that differ only in their shift share one.

    The walk keeps its state as sorted order tuples with a list of
    Python complex populations per kind, and builds ``final`` once at
    the end.  A pulse split reads the state through a plan of indices
    (:func:`_split_plan`), built once per pair of order tuples that a
    pulse meets; a span relabels the orders once per (orders, shift).
    Recurring states, as in an echo train, reuse both.
    """
    if not 0.0 <= prune_threshold < math.inf:
        raise InvalidParameter(f"prune_threshold must be >= 0 and finite, got {prune_threshold!r}")
    reps, groups = distinct_elements(sequence)
    _log.debug("k-t walk: %d elements, %d distinct", len(groups), len(reps))
    moments = [es.events[1][-1] for es in reps]
    shift_tol = _SHIFT_TOL
    try:
        unit = _unit_of(moments)
    except IncommensurateMoments:
        unit = _fallback_unit(moments)
        shift_tol = math.inf
    pieces: List[_Piece] = []
    piece_at: Dict[tuple, int] = {}
    steps = []  # per distinct element: mixing coefficients or None, piece, shift
    for es, moment in zip(reps, moments):
        piece = _Piece.of(es, relax)
        at = piece_at.setdefault(piece.key(), len(pieces))
        if at == len(pieces):
            pieces.append(piece)
        mix = None if es.pulse is None else hard_pulse_coefficients(es.pulse.alpha, es.pulse.phi)
        steps.append((mix, at, _integer_shift(moment, unit, tol=shift_tol)))
    spans = []  # (mixing coefficients or None, pieces, shifts)
    for g in groups:
        mix, at, q = steps[g]
        if mix is not None or not spans:
            span_pieces, shifts = [], []
            spans.append((mix, span_pieces, shifts))
        span_pieces.append(at)
        shifts.append(q)

    scale = _k_scale(unit)
    # no order leaves +-(elements * largest shift), so a span's shifted
    # orders are exact as int64 below 2**63; past it, as they may be on
    # the continuous-k fallback grid, they stay Python ints
    largest = max((abs(c) for _, _, q in steps for c in q), default=0)
    order_type = np.int64 if len(groups) * largest < 2**63 else object
    shapes: Dict[tuple, _SpanShape] = {}  # (pieces, opens) -> span or part shape
    span_shapes = set()  # the shapes of whole spans
    # (shape, orders, shifts) -> k of a span, kept once the key recurs
    k_seen: set = set()
    k_kept: Dict[tuple, np.ndarray] = {}
    plans: Dict[tuple, list] = {}  # (trans orders, longi orders) -> split plan
    relabels: Dict[tuple, Tuple[Order, ...]] = {}  # (orders, shift) -> shifted orders
    state = ((), [], (ZERO,), [complex(relax.m0)])
    # populations below the cut are pruned after every pulse split
    cut = prune_threshold * (relax.m0 if relax.m0 > 0 else 1.0)
    trace: List[TracePoint] = []
    echoes: List[np.ndarray] = []
    # (echo index, k, populations) of the readouts awaiting synthesis
    pending: List[Tuple[int, np.ndarray, np.ndarray]] = []
    pending_size = spectrum_calls = splits = 0
    now = 0.0
    needs_k = observe is not None or object_spectrum is not None or record_trace

    def shape_of(span_pieces, opens):
        key = (span_pieces, opens)
        shape = shapes.get(key)
        if shape is None:
            shape = shapes[key] = _SpanShape([pieces[i] for i in span_pieces], opens)
        return shape

    def span_k(shape, trans, shifts, sums):
        """Read-only k (points, m, 3) of a span that starts on ``trans``:
        each point's shifted orders, rounded to float once, as a
        relabelled order set is."""
        key = (shape, trans, shifts)
        k = k_kept.get(key)
        if k is not None:
            return k
        orders = np.array(trans, dtype=order_type).reshape(-1, 3)
        offsets = np.repeat(np.array(sums, dtype=order_type), shape.counts, axis=0)
        k = (orders + offsets[:, None, :]).astype(float) * scale + shape.frac[:, None, :]
        k.flags.writeable = False
        if key in k_seen:
            k_kept[key] = k
        else:
            k_seen.add(key)
        return k

    if record_trace:
        trans, pops, longi, lpops = state
        at_start = np.zeros((1, 3))
        points = zip(
            _entries("transversal", trans, np.array([pops]), _k_positions(scale, trans, at_start)),
            _entries("longitudinal", longi, np.array([lpops]), _k_positions(scale, longi, at_start)),
        )
        trace.extend(TracePoint(now, a + b) for a, b in points)
    for mix, span_pieces, shifts in spans:
        if mix is not None:
            trans, pops, longi, lpops = state
            key = (trans, longi)
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _split_plan(trans, longi)
            state = _split(plan, mix, cut, pops, lpops)
            splits += 1
        span_pieces, shifts = tuple(span_pieces), tuple(shifts)
        shape = shape_of(span_pieces, mix is not None)
        span_shapes.add(shape)
        if len(span_pieces) == 1 or shape.size * (len(state[1]) + len(state[3])) <= _SPAN_BATCH:
            parts = ((shape, shifts),)
        else:
            parts = [
                (shape_of(span_pieces[at:stop], mix is not None and at == 0), shifts[at:stop])
                for at, stop in _span_parts(pieces, span_pieces, shape.opens, len(state[1]) + len(state[3]))
            ]
        for i, (shape, shifts) in enumerate(parts):
            trans, longi = state[0], state[2]
            m = len(trans)
            # a span starts on a split or the first state; a later part
            # of it may start on a -0.0
            scan, sums, state = _walk_span(shape, shifts, state, relabels, i == 0, record_trace)
            points = scan.take(shape.point_rows, axis=0)
            rows = points[:, :m]
            k = span_k(shape, trans, shifts, sums) if needs_k else None
            if observe is not None and m:
                observe(k, rows)
            if object_spectrum is not None:
                for start, end in shape.readouts:
                    pending.append((len(echoes), k[start:end], rows[start:end]))
                    echoes.append(None)
                    pending_size += (end - start) * m
                if pending_size >= _SYNTH_BATCH:
                    spectrum_calls += _synthesize(object_spectrum, pending, echoes)
                    pending, pending_size = [], 0
            if record_trace:
                now = _trace_span(trace, now, shape, sums, trans, rows, k, longi,
                                  points[:, m:], _k_base(scale, longi), relabels)
    _log.debug("k-t walk: %d pulse splits from %d split plans", splits, len(plans))
    _log.debug("k-t walk: %d spans from %d span shapes", len(spans), len(span_shapes))
    if object_spectrum is not None:
        if pending:
            spectrum_calls += _synthesize(object_spectrum, pending, echoes)
        _log.debug(
            "k-t walk: echoes of %d readouts from %d spectrum calls", len(echoes), spectrum_calls
        )
    trans, pops, longi, lpops = state
    final = ConfigurationSet(unit, dict(zip(trans, pops)), dict(zip(longi, lpops)))
    return KtRun(echoes=echoes, trace=trace, final=final)


def _span_parts(pieces, span_pieces, opens: bool, width: int):
    """(start, stop) of the parts of a span of more than ``_SPAN_BATCH``
    populations, ``width`` per point: runs of whole elements that stay
    within it, or one element."""
    parts, at, size = [], 0, int(opens)
    for i, p in enumerate(span_pieces):
        if i > at and (size + pieces[p].points) * width > _SPAN_BATCH:
            parts.append((at, i))
            at, size = i, 0
        size += pieces[p].points
    parts.append((at, len(span_pieces)))
    return parts


def _relabel(orders: Tuple[Order, ...], q: Order, relabels: Dict[tuple, Tuple[Order, ...]]):
    """Every order shifted by the integer triple q, once per (orders, q)
    in ``relabels``.  A shift is one-to-one and keeps the sorted order."""
    if q == ZERO:
        return orders
    key = (orders, q)
    shifted = relabels.get(key)
    if shifted is None:
        q0, q1, q2 = q
        shifted = relabels[key] = tuple((o[0] + q0, o[1] + q1, o[2] + q2) for o in orders)
    return shifted


def _walk_span(shape: "_SpanShape", shifts, state, relabels, clean: bool = False, every_mz: bool = True):
    """Walk a state through one span: returns the running product
    (rows, m + l), the summed shift of each point segment (see
    :class:`_SpanShape`) and the state at the end.  Without ``every_mz``
    the order-0 Mz is set in the last row only.

    Row 0 holds the state, each later row the state after one interval:
    the transversal columns decayed by T2, the longitudinal ones by T1,
    the order-0 Mz by its regrowth recurrence on real floats (the
    order-0 population is real and the factors are, so the complex
    form's imaginary part stays exactly 0).  One running product over
    every interval gives the populations of the per-element walk, which
    multiplies a readout's samples as complex arrays, an element's rest
    as Python ``p * e`` (per part from Python 3.14) and gives each
    shifted population ``0j + p``: the forms differ only in the sign of
    a zero part, and only where a zero part is -0.0 or a part underflows
    to 0.  Neither happens while no part of the last row is zero that
    was not zero in row 0, and no zero part of row 0 is -0.0, which is
    so for a ``clean`` state: one from a split, which gives every
    population ``0j + p``, or the first one; otherwise the span is
    redone element by element in those forms (:func:`_exact_span`).
    """
    trans, pops, longi, lpops = state
    m = len(pops)
    scan = np.empty((shape.rows, m + len(lpops)), dtype=complex)
    scan[0] = pops + lpops
    scan[1:, :m] = shape.e2
    scan[1:, m:] = shape.e1
    np.multiply.accumulate(scan, axis=0, out=scan)
    first, last = scan[0].view(float), scan[-1].view(float)
    nonzero = np.count_nonzero(first)
    if np.count_nonzero(last) != nonzero or (
        not clean and nonzero < first.size and np.signbit(first[first == 0.0]).any()
    ):
        scan[1:, :m] = shape.e2
        scan[1:, m:] = shape.e1
        _exact_span(scan, m, shape, shifts)
    zero = longi.index(ZERO)
    b0s, b0 = [], lpops[zero].real
    for mz in shape.mz:
        if mz is not None:
            b0 = b0 * mz[0] + mz[1]
        if every_mz:
            b0s.append(b0)
    if every_mz:
        scan[1:, m + zero] = b0s
    else:
        scan[-1, m + zero] = b0
    s0 = s1 = s2 = 0
    sums = [ZERO]
    for q0, q1, q2 in shifts:
        s0, s1, s2 = s0 + q0, s1 + q1, s2 + q2
        sums.append((s0, s1, s2))
    end = scan[-1].tolist()
    return scan, sums, (_relabel(trans, sums[-1], relabels), end[:m], longi, end[m:])


def _exact_span(scan: np.ndarray, m: int, shape: "_SpanShape", shifts) -> None:
    """The running product of :func:`_walk_span` element by element, in
    the per-element walk's forms: a readout's rows as one complex
    running product, the rest as Python ``p * e``, no rest as a copy,
    and ``0j + p`` on the transversal populations of an element that
    shifts.  ``scan`` holds the start row and the factor rows."""
    for (start, last, end), piece, q in zip(shape.ends, shape.pieces, shifts):
        if last > start:
            np.multiply.accumulate(scan[start : last + 1], axis=0, out=scan[start : last + 1])
        if piece.rest is None:
            scan[end] = scan[last]
        else:
            scan[end] = [p * e for p, e in zip(scan[last].tolist(), scan[end].real.tolist())]
        if q != ZERO:
            scan[end, :m] += 0j


def _trace_span(trace, now, shape, sums, trans, rows, k, longi, lrows, lbase, relabels) -> float:
    """Append the trace points of one span; returns the time at its end.
    Each element's end is ``now + duration``, each sample ``now + ts``
    from the element's start, as the elements come."""
    times = [now] if shape.opens else []
    for piece in shape.pieces:
        if piece.ts is not None:
            times.extend((now + piece.ts).tolist())
        now += piece.duration
        times.append(now)
    lk = lbase + shape.frac[:, None, :]
    for at, q in zip(shape.segments, sums):
        points = zip(
            times[at],
            _entries("transversal", _relabel(trans, q, relabels), rows[at], k[at]),
            _entries("longitudinal", longi, lrows[at], lk[at]),
        )
        trace.extend(TracePoint(t, a + b) for t, a, b in points)
    return now


def _synthesize(
    object_spectrum: Callable[[np.ndarray], np.ndarray],
    pending: List[Tuple[int, np.ndarray, np.ndarray]],
    echoes: List[Optional[np.ndarray]],
) -> int:
    """Fill in the echoes of the pending readouts; returns the number of
    spectrum calls.

    ``pending`` holds the index in ``echoes``, the k (points, m, 3) and
    the populations (points, m) of each readout.  The readouts of one
    width m are concatenated along the points and take one spectrum
    call; each readout's echo is its rows of ``(rows *
    spectrum(k)).sum(-1)``, a view.  The sum reduces every point on its
    own, with the pairwise summation of a single readout's call.
    """
    by_width: Dict[int, list] = {}
    for entry in pending:
        by_width.setdefault(entry[2].shape[1], []).append(entry)
    for group in by_width.values():
        k = np.concatenate([k for _, k, _ in group])
        rows = np.concatenate([rows for _, _, rows in group])
        values = (rows * object_spectrum(k)).sum(-1)
        start = 0
        for i, _, part in group:
            echoes[i] = values[start : start + len(part)]
            start += len(part)
    return len(by_width)


@dataclass(frozen=True, eq=False)
class _Piece:
    """What one elementary sequence does between pulses, its pulse and
    shift aside.

    ``moves``: (e2, e1, regrowth) of each interval up to a new sample
    instant; ``rest``: the same over the time left after the last sample,
    None when none is left; ``ts`` / ``partial``: rows 1 ... n of the
    element's ``events``, its sample instants and moments; ``samples``:
    the row of each sample among the intervals, 0 for the element's
    start.  The last three are None without acquisition.
    """

    duration: float
    moves: tuple
    rest: Optional[Tuple[float, float, float]]
    ts: Optional[np.ndarray] = None
    partial: Optional[np.ndarray] = None
    samples: Optional[np.ndarray] = None

    @staticmethod
    def of(es, relax: RelaxationParams) -> "_Piece":
        if not es.acquisition.enabled:
            rest = None if es.duration == 0.0 else _interval_decay(relax, es.duration)
            return _Piece(es.duration, (), rest)
        t, moments = es.events
        n = es.acquisition.n_samples + 1
        return _Piece.sampling(relax, es.duration, t[1:n], moments[1:n])

    @staticmethod
    def sampling(relax: RelaxationParams, duration: float, ts: np.ndarray, partial: np.ndarray):
        """The piece of an element that samples at the instants ``ts``; a
        repeated instant adds no interval."""
        dts = np.empty_like(ts)
        dts[0], dts[1:] = ts[0], ts[1:] - ts[:-1]
        moved = dts != 0.0
        left = duration - ts[-1]
        return _Piece(
            duration,
            tuple(_interval_decay(relax, dt) for dt in dts[moved].tolist()),
            None if left == 0.0 else _interval_decay(relax, left),
            ts,
            partial,
            moved.cumsum(),
        )

    @property
    def points(self) -> int:
        """Points it adds to a span: its samples and its end."""
        return 1 if self.ts is None else len(self.ts) + 1

    def key(self) -> tuple:
        if self.ts is None:
            return (self.duration, self.moves, self.rest)
        return (self.duration, self.moves, self.rest, self.ts.tobytes(), self.partial.tobytes())


class _SpanShape:
    """A run of pieces walked as one: where each interval, sample and
    element end falls in the running product of :func:`_walk_span`.

    The running product has ``rows`` rows: row 0 the start, then per
    piece a row for each interval in ``moves`` and one for its end
    (its rest, or a copy without one).  ``e2`` / ``e1`` are the factors
    of rows 1: as (rows - 1, 1) columns, 1.0 for a copy, and ``mz`` the
    (e1, regrowth) of each, None for a copy.  ``ends`` holds per piece
    the row it starts on, the row of its last sample interval and its
    end row.

    The points are the start (when the span ``opens`` with the state
    after a pulse), then per piece its samples and its end: scan row
    ``point_rows[p]`` and k offset ``frac[p]`` (the partial moment, 0 at
    an end).  They fall into segments of one order set each, segment j
    of ``counts[j]`` points (the slice ``segments[j]``) holding the
    orders shifted by the pieces before piece j: the start and the
    samples of piece 0, then the end of piece j - 1 with the samples of
    piece j, and last the end of the last piece.  ``readouts`` are the
    point slices of the samples.
    """

    def __init__(self, pieces: List[_Piece], opens: bool):
        self.pieces = pieces
        self.opens = opens
        e2, e1, self.mz, self.ends, self.readouts = [], [], [], [], []
        point_rows = [0] if opens else []
        fracs = [np.zeros((len(point_rows), 3))]
        self.counts = []
        count, row = int(opens), 0
        for piece in pieces:
            start = row
            if piece.ts is not None:
                self.readouts.append((len(point_rows), len(point_rows) + len(piece.ts)))
                point_rows.extend((row + piece.samples).tolist())
                fracs.append(piece.partial)
                count += len(piece.ts)
            for decay in piece.moves + (piece.rest,):
                e2.append(1.0 if decay is None else decay[0])
                e1.append(1.0 if decay is None else decay[1])
                self.mz.append(None if decay is None else decay[1:])
            row += len(piece.moves) + 1
            self.ends.append((start, row - 1, row))
            self.counts.append(count)
            point_rows.append(row)
            fracs.append(np.zeros((1, 3)))
            count = 1
        self.counts.append(count)
        bounds = np.cumsum([0] + self.counts).tolist()
        self.segments = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        self.rows = row + 1
        self.e2 = np.array(e2)[:, None]
        self.e1 = np.array(e1)[:, None]
        self.size = len(point_rows)
        self.point_rows = np.array(point_rows)
        self.frac = np.concatenate(fracs)


def _k_scale(unit) -> np.ndarray:
    return np.array([u if u else 0.0 for u in unit])


def _k_base(scale: np.ndarray, orders) -> np.ndarray:
    """k of every configuration without offset: (m, 3) rad/m."""
    return np.array(orders, dtype=float).reshape(-1, 3) * scale


def _k_positions(scale: np.ndarray, orders, fracs: np.ndarray) -> np.ndarray:
    """k of every configuration at every point: (points, m, 3) rad/m."""
    return _k_base(scale, orders) + fracs[:, None, :]


def _entries(kind: str, orders, pops: np.ndarray, k: np.ndarray) -> List[List[Configuration]]:
    """Export entries of one kind at each point: pops (points, m), k (points, m, 3)."""
    return [
        [Configuration(kind, o, p, tuple(kk)) for o, p, kk in zip(orders, row, k_row)]
        for row, k_row in zip(pops.tolist(), k.tolist())
    ]


def max_k_excursion(sequence: Sequence) -> Tuple[float, float, float]:
    """Per-axis maximum |k| reached by any configuration at any time.

    Walks per-axis intervals: the extreme moments the transversal and
    longitudinal configurations span, visited wherever they change and
    along the continuous k motion inside each interval.  RF mixing maps
    the extremes of both sets onto those of the mixed set and gradient
    shifts translate them, so this is exact for the maximum over every
    reachable order while staying O(#elementary sequences).  Works
    directly on the continuous moments, so no common k unit is required.

    Whether an element flips, its moment (the last moment row of its
    ``events``) and the span of its k motion (a sampled shape's, on its
    own grid; no other shape passes its ends) are worked out once per
    group of :func:`mrsim.sequence.distinct_elements`, as Python floats.
    The axes are independent, so each is walked on its own with scalar
    arithmetic only; an axis without moment or motion stays at 0.
    """

    def motion(es):
        """Per-axis lowest and highest partial moment of a sampled
        interval, None for another shape, which runs monotonically from 0
        to its moment, the ends the walk visits anyway.  A rounded sum is
        monotone in each term, so |lo + row| peaks at one of the two."""
        if es.gradient.shape != "sampled" or es.duration <= 0.0 or es.gradient.is_zero:
            return None
        ts = np.linspace(0.0, es.duration, max(len(es.gradient.samples), 2))
        rows = es.gradient.partial_moments(ts)
        return rows.min(axis=0).tolist(), rows.max(axis=0).tolist()

    reps, groups = distinct_elements(sequence)
    plan = [(es.pulse is not None, es.events[1][-1].tolist(), motion(es)) for es in reps]
    kmax = []
    for ax in range(3):
        steps = [
            (flips, m[ax], None if span is None else (span[0][ax], span[1][ax]))
            for flips, m, span in plan
        ]
        idle = all(m == 0.0 and span in (None, (0.0, 0.0)) for _, m, span in steps)
        kmax.append(0.0 if idle else _axis_excursion(steps, groups))
    return tuple(kmax)


def _axis_excursion(steps, groups) -> float:
    """Largest |k| on one axis.  ``steps`` holds, per distinct element,
    whether it flips, its moment and the lowest and highest partial
    moment of its motion (None without); ``groups`` orders them.

    The transversal interval is [lo, hi].  The longitudinal one is
    [-z, z]: it changes only at a flip, where the transversal one
    equals it, and revisiting an unchanged interval cannot raise the
    maximum.
    """
    k = lo = hi = z = 0.0
    has_trans = False
    for g in groups:
        flips, moment, span = steps[g]
        if flips:
            if has_trans:
                z = max(abs(lo), abs(hi), z)
            lo, hi = -z, z
            has_trans = True
            k = max(k, z)
        if has_trans:
            if span is not None:
                for row in span:
                    k = max(k, abs(lo + row), abs(hi + row))
            lo += moment
            hi += moment
            k = max(k, abs(lo), abs(hi))
    return k


# ---------------------------------------------------------------------------
# diagrams and spectra
# ---------------------------------------------------------------------------


def export_kt_diagram(trace) -> str:
    """CSV rows (time_s, kind, order_i, kx_rad_per_m, pop_re, pop_im) of a
    :class:`TracePoint` list."""
    lines = ["time_s,kind,order_i,kx_rad_per_m,pop_re,pop_im"]
    for point in trace:
        for e in point.entries:
            lines.append(
                f"{float(point.time)!r},{e.kind},{e.order[0]},{float(e.k_position[0])!r},"
                f"{float(e.population.real)!r},{float(e.population.imag)!r}"
            )
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
    if pos.ndim != 2 or pos.shape[1] != 3 or not np.isfinite(pos).all():
        raise InvalidParameter("lattice positions must be a finite (n, 3) array")
    if w.shape != pos.shape[:1] or not np.isfinite(w).all():
        raise InvalidParameter(
            f"lattice weights must be {len(pos)} finite values, one per position"
        )
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
    product of sinc factors.  ``center`` is three finite numbers,
    ``size`` three positive finite ones, and ``m0`` >= 0 and finite."""
    center = np.asarray(center, dtype=float)
    size = np.asarray(size, dtype=float)
    if center.shape != (3,) or not np.isfinite(center).all():
        raise InvalidParameter("box center must be three finite numbers")
    if size.shape != (3,) or not (np.isfinite(size) & (size > 0.0)).all():
        raise InvalidParameter("box size must be three positive finite numbers")
    if not 0.0 <= m0 < math.inf:
        raise InvalidParameter(f"box m0 must be >= 0 and finite, got {m0!r}")

    def spectrum(k) -> np.ndarray:
        k = np.asarray(k, dtype=float)
        sinc = np.prod(np.sinc(k * size / 2.0 / np.pi), axis=-1)
        return m0 * float(np.prod(size)) * sinc * np.exp(-1j * (k @ center))

    return spectrum
