"""Parallel spin-level simulation engine.

Role separation follows a partitioner / worker / reducer contract; the
roles are not processes.  The partitioner (master) rasterizes the
object, precomputes everything that does not depend on the spin (pulse
trigonometry, gradient moments, sample timing) and cuts the spin set
into blocks before any worker starts.  Share ``w`` of ``workers`` is the
fixed set of blocks ``w, w + workers, ...``, whose spins a worker evolves
through every elementary sequence: worker processes take shares ``0 ...
workers - 2`` and send each block's partial echo sums back over a pipe
of their own, and the master computes the last share itself, so a
1-worker run starts no process.  The reducer accumulates partials into
the final records.  In deterministic mode the reduction folds blocks in
ascending index order regardless of completion order, so a result never
depends on which block finishes first.  It depends on the worker count
only through the block count, which is ``blocks``, or one per worker
without it, unless the spins need more blocks to fit the kernel's
memory budget: results at different worker counts are bit-identical
when ``blocks`` is given, or when the spins need at least one block per
worker at each count.  A spacing override only decides whether to warn,
so the master checks it (the relaxation-free bound, then the pruned k-t
walk if that bound is broken) once the worker processes have started,
before its own share.

Loop order inside a block: elementary sequences outer, with the
per-spin arithmetic vectorized across the block, and per-spin work only
where the physics differs per spin.  The kernel keeps the transverse
magnetization as one complex array ``mxy = mx + 1j*my``.  A pulse is
complex multiply-adds on the k-t walk's six pulse coefficients
(:func:`mrsim.bloch.apply_pulse`).  After it, an element's evolution is
one fixed product of per-event factors ``exp(-1j*(pos.dmom + domega*dt) -
dt/T2)``, so the kernel evolves every spin through an element with its
*propagator*, whose row i is the product of the factors up to event i.  A
row reads a spin only through its Δω, its T2 and its position on the
axes that the element's moment moves, and on a regular lattice in a
homogeneous field many spins share all of these.  So a block numbers the
distinct values of that key and builds an ``(events, keys)``
propagator, one column per key: a sample is the unconjugated dot
product of its row with the per-key sums of ``weight * mxy``, taken by
two real ``np.bincount``s, and ``mxy`` is multiplied by the last row
mapped back to the spins.  When more than half of a block's spins would
need their own column, as when a Legendre field gives each spin its own
Δω, or the block has too few spins for the keys to pay, the propagator
is ``(events, n)``, one column per spin, and a sample is the dot product
with ``weight * mxy`` itself.  One ``np.vecdot`` takes all of an
element's sample rows, which come first.  A snapshot only reads: it is
the element-start state times the one factor from the start to its
time, per spin, so asking for it changes no echo.

Elements that :func:`mrsim.sequence.distinct_elements` groups together
and that recur share one cached propagator.  A readout samples at a
fixed step, so most of its events take the same step of time and
moment.  The tables index each such element's distinct steps; a block
evaluates one factor per distinct step and column, gathers the factors
into the events' rows and multiplies the rows down: one complex
multiply per row and column instead of one complex ``exp``.  This
running product follows each spin event by event, as an isochromat
simulator does.  Its rounding grows with the rows it spans, as a few
distinct steps round the same way at every event, so every 64th row
steps from the element start and the product restarts there.

An element that occurs once builds its propagator as a product of
parts and drops it: a *time part* ``exp(-1j*domega*t - t/T2)``, which
reads only the element's event times and is evaluated on the block's
(Δω, T2) columns, or per spin when those are not keyed, and one *axis
part* ``exp(-1j*x*m)`` per moved axis, which reads only that axis's
moments and is evaluated on the block's distinct coordinates on the
axis.  Each part is gathered into the propagator's columns.  The tables
number the parts that several such elements share, and a block caches
those, so a train of phase-encode lobes of one duration and one readout
prephaser evaluates only each lobe's own phase-encode part.

A block is the unit of memory as well as of work: ``run`` cuts blocks
whose cached arrays (propagators, factor parts, T1 factors) plus twice
the largest propagator built for one element (the propagator and the
one uncached part alive with it) fit ``_PROPAGATOR_BYTES`` at one
complex value per spin and row (:func:`_block_spins`).  It cuts the
fewest such blocks, and at least ``blocks`` of them, or one per worker.
Above the block's inputs, one :func:`compute_block` then needs at most
that budget plus:

- the block's results: its echo array, acquisitions x samples x 16 B,
  and 24 B per spin for each snapshot;
- 26 complex values (416 B) per spin: the state (mxy, mz, 1/T1, 1/T2,
  the positions with the off-resonance: 4.5 values), the keys (each
  moved axis's codes and distinct coordinates, at most 1 value per
  axis; the columns of the (off-resonance, T2) key and of each set of
  moved axes, at most 1.75 values each for at most 8 sets) and the
  temporaries of one step (at most 4.5 values: a pulse's or a
  snapshot's arrays, a sample's weighted sums, a gathered row, or the
  sort that numbers a key);
- a group's distinct-step factors until they are gathered into its
  rows, distinct steps x columns x 16 B;
- 4 complex values per event of the element being built (its times
  and moments, stacked for ``einsum``);
- numpy's iteration buffers of one ufunc call, ``np.getbufsize()``
  elements per operand (3 x 8,192 x 16 B = 384 KiB at the default).

The tests measure this promise under ``tracemalloc``.

Every spin starts in thermal equilibrium, ``mxy = 0`` and ``mz = m0``.
Only pulses and snapshots read Mz, so T1 relaxation is deferred: Mz is
relaxed over the whole interval since the last pulse just before it is
read.  The tables hold each entry's interval since the last pulse and
number the intervals that recur at a pulse; a block keeps their two
factors ``exp(-dt/T1)`` and ``m0 * (1 - exp(-dt/T1))``.  The rotation,
the precession factor and the T1 factors are the array operators of
:mod:`mrsim.bloch`.

The alternative decomposition, a pipeline of per-interval operator
stages that spins stream through, was rejected: every spin must visit
every stage in order, so the slowest stage plus the stage-to-stage
traffic bound the throughput, whereas disjoint spin blocks need no
communication between workers at all.
"""

from __future__ import annotations

import collections
import logging
import math
import numbers
import os
import platform
import time
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, NamedTuple, Optional, Sequence as TySequence, Tuple

import multiprocessing as mp
import multiprocessing.connection as mp_connection

import numpy as np

from .bloch import (
    RelaxationParams,
    apply_pulse,
    hard_pulse_coefficients,
    precession_factor,
    regrow_mz,
    t1_factors,
)
from .discretize import SpacingReport, max_spacing, pruned_max_spacing
from .errors import InvalidParameter, WorkerPanic
from .phantom import Phantom, SpinList, _positive_spacing, rasterize
from .sequence import Sequence, _count, distinct_elements
from .system import SystemModel, complex_weight, default_system, spin_off_resonance

_log = logging.getLogger(__name__)
# budget of the propagators that the kernel holds at once; it sets the
# kernel's block size and so bounds its extra memory per worker
_PROPAGATOR_BYTES = 16 << 20
# the fewest spins whose propagators a block builds on distinct keys (see _columns)
_MIN_KEYED_SPINS = 256
# the fewest columns whose running product goes row by row (see _running_product)
_ROW_PRODUCT_COLUMNS = 256
# the most rows of a running product before it restarts from an exact row
# (see _number_steps): its rounding grows with the rows that it spans
_ANCHOR_ROWS = 64

# ---------------------------------------------------------------------------
# spin-independent precomputation (master side)
# ---------------------------------------------------------------------------


@dataclass
class EsTable:
    """Precomputed operator data of one elementary sequence.

    Events are the rows of the element's own
    :attr:`~mrsim.sequence.ElementarySequence.events` past its start:
    ``ev_t`` holds its ``n_samples`` sample times, then its end if it runs
    on after the last, and ``ev_mom`` the moments (rad/m per axis) there;
    ``ev_dt`` and ``ev_dmom`` are the increments up to each.  ``axes``
    lists the axes on which some ``ev_mom[i]`` is nonzero, the only
    coordinates of a spin that the element's propagator reads.  ``group``
    numbers the propagator of an element that recurs, or is -1 when the
    element occurs once.  A group's ``steps`` (:func:`_number_steps`) holds its
    bit-distinct steps ``(dt, dmom, of_event)``: row ``of_event[i]`` of
    ``dt`` and ``dmom`` is the step of event i, which for every
    ``_ANCHOR_ROWS``-th event runs from the element start; a block
    evaluates one factor per step and builds the propagator as their
    running product.  A one-off element builds its propagator from
    factor parts: ``parts`` numbers its time part and then one part per
    axis of ``axes``, each -1 when no other one-off element shares it.
    ``pulse_mat`` holds the :func:`mrsim.bloch.hard_pulse_coefficients`
    of the pulse, once a matrix, by the name the benchmark's tracer reads.
    """

    pulse_mat: Optional[tuple]
    duration: float
    ev_dt: np.ndarray
    ev_dmom: np.ndarray
    ev_t: np.ndarray
    ev_mom: np.ndarray
    axes: Tuple[int, ...]
    group: int = -1
    steps: tuple = ()
    parts: Tuple[int, ...] = ()
    n_samples: int = 0


@dataclass
class OperatorTables:
    entries: List[EsTable]  # per element, its distinct element's table itself
    acq_times: List[np.ndarray]  # per acquiring element, in element order
    snapshot_times: Tuple[float, ...]
    # by entry that holds snapshots: its (time from the element start,
    # partial moment at that time, snapshot index), which read its start state
    snaps: Dict[int, Tuple[Tuple[float, np.ndarray, int], ...]]
    pulse_memo_hits: int
    group_rows: List[int]  # events, i.e. propagator rows, of each group
    part_rows: List[int]  # events of each numbered factor part
    # per entry: the seconds since the last pulse (or the start) at its
    # start, over which its pulse first regrows Mz, and the number of that
    # interval when it recurs at another pulse, else -1
    mz_ages: List[Tuple[float, int]]
    t1_intervals: List[float]  # seconds of each numbered interval


def precompute_sequence_tables(
    sequence: Sequence,
    snapshot_times: TySequence[float] = (),
) -> OperatorTables:
    """Build per-elementary-sequence operator tables.

    Each distinct element (:func:`mrsim.sequence.distinct_elements`) gets
    one table: its pulse coefficients, shared between identical pulses
    (the memo hit count is reported per entry), and one set of read-only
    event arrays (times, moments, their increments and moving axes), so
    workers never touch the waveform objects.  Every entry of the element
    is that table.  ``acq_times`` holds, in element order, the kernel's
    order of acquisitions, the sample rows of ``ev_t`` from the sequence
    start; ``snaps`` holds, by entry, each snapshot's time from the
    element start and partial moment, placed by one search over the
    element ends.  A distinct element that occurs more than once is
    numbered as a group, in order of first occurrence, so that the kernel
    builds its propagator once per block, from the distinct steps that
    its table indexes; the factor parts that one-off elements share, and
    the intervals between pulses that recur, are numbered the same way.
    Raises InvalidParameter for snapshot times that are not a sequence of
    real numbers, or that lie outside the sequence.
    """
    snapshot_times = _snapshot_times(snapshot_times)
    reps, distinct = distinct_elements(sequence)
    group_of = _number_recurring(distinct)
    memo: Dict[Tuple[float, float], tuple] = {}
    tables: List[EsTable] = []  # one per distinct element
    for g, es in enumerate(reps):
        mix = None
        if es.pulse is not None:
            key = (es.pulse.alpha, es.pulse.phi)
            if key not in memo:
                memo[key] = hard_pulse_coefficients(*key)
            mix = memo[key]
        table = EsTable(mix, es.duration, group=group_of.get(g, -1), **_event_arrays(es))
        table.n_samples = es.acquisition.n_samples if es.acquisition.enabled else 0
        if table.group >= 0:
            table.steps = _number_steps(table)
        tables.append(table)
    group_tables = [tables[g] for g in group_of]
    _log.debug(
        "operator tables: %d elements, %d distinct, %d group rows from %d distinct steps",
        len(distinct),
        len(reps),
        sum(t.ev_dt.size for t in group_tables),
        sum(t.steps[0].size for t in group_tables),
    )
    part_rows = _number_parts([t for t in tables if t.group < 0 and t.ev_t.size])

    entries = [tables[g] for g in distinct]
    # element ends, summed in element order; the range check reads the
    # sum that places the snapshots, so every time it accepts is placed
    ends = np.add.accumulate([entry.duration for entry in entries])
    starts = np.append(0.0, ends[:-1])
    if not all(0.0 <= t <= float(ends[-1]) for t in snapshot_times):
        raise InvalidParameter(
            f"snapshot times {snapshot_times} s lie outside the sequence of {ends[-1]:.6g} s"
        )
    acq_times = [
        t0 + e.ev_t[: e.n_samples] for t0, e in zip(starts.tolist(), entries) if e.n_samples
    ]
    # a time on an element boundary ends that element; 0 is in the first
    times = np.asarray(snapshot_times, dtype=float)
    at = np.searchsorted(ends, times, side="left")
    snaps = {}
    for i in sorted(set(at.tolist())):
        held = np.flatnonzero(at == i)
        es, t = sequence.elements[i], times[held] - starts[i]
        moments = es.gradient.partial_moments(t)
        snaps[i] = tuple(zip(t.tolist(), moments, held.tolist()))
    ages, age = [], 0.0
    for entry in entries:
        ages.append(age)
        if entry.pulse_mat is not None:
            age = 0.0
        age += entry.duration
    pulsed = [entry.pulse_mat is not None and age != 0.0 for entry, age in zip(entries, ages)]
    interval_of = _number_recurring(age for age, p in zip(ages, pulsed) if p)
    return OperatorTables(
        entries=entries,
        acq_times=acq_times,
        snapshot_times=snapshot_times,
        snaps=snaps,
        pulse_memo_hits=sum(entry.pulse_mat is not None for entry in entries) - len(memo),
        group_rows=[t.ev_dt.size for t in group_tables],
        part_rows=part_rows,
        mz_ages=[(age, interval_of.get(age, -1) if p else -1) for age, p in zip(ages, pulsed)],
        t1_intervals=list(interval_of),
    )


def _number_recurring(keys) -> Dict[object, int]:
    """Number the keys that occur more than once, from 0 in order of first
    occurrence."""
    counts = collections.Counter(keys)
    recurring = [key for key, n in counts.items() if n > 1]
    return {key: i for i, key in enumerate(recurring)}


def _number_steps(table: EsTable) -> tuple:
    """The bit-distinct steps (duration, moment increment) of a group's
    events: (dt, dmom, of_event), read-only, where row ``of_event[i]`` of
    ``dt`` and ``dmom`` is the step of event i.  Every ``_ANCHOR_ROWS``-th
    event steps from the element start instead (its running time and
    moment), so that the running product restarts there.  When every step
    is distinct, ``of_event`` is None and ``dt`` and ``dmom`` hold one
    row per event, which for a group of ``_ANCHOR_ROWS`` events or fewer
    are ``ev_dt`` and ``ev_dmom`` themselves.  One 1-D ``np.unique``
    sorts the rows, each viewed as a single ``np.void`` value."""
    dt, dmom = table.ev_dt, table.ev_dmom
    if dt.size > _ANCHOR_ROWS:
        anchors = slice(_ANCHOR_ROWS, None, _ANCHOR_ROWS)
        dt, dmom = dt.copy(), dmom.copy()
        dt[anchors], dmom[anchors] = table.ev_t[anchors], table.ev_mom[anchors]
    of_event = None
    if dt.size > 1:
        rows = np.column_stack([dmom, dt])
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first, of_key = np.unique(keys, return_index=True, return_inverse=True)
        if first.size < dt.size:
            dt, dmom, of_event = dt[first], dmom[first], of_key
    steps = dt, dmom, of_event
    for arr in steps:
        if arr is not None:
            arr.flags.writeable = False
    return steps


def _number_parts(one_offs: List[EsTable]) -> List[int]:
    """Set the ``parts`` of the tables of one-off elements: a time part,
    which reads only ``ev_t``, then one part per moved axis, which reads
    only that column of ``ev_mom``.  Parts that two or more of them share
    are numbered, the others are -1.  Returns the events (rows) of each
    numbered part."""
    keys = [
        [t.ev_t.tobytes()] + [(ax, t.ev_mom[:, ax].tobytes()) for ax in t.axes] for t in one_offs
    ]
    number = _number_recurring(key for table_keys in keys for key in table_keys)
    rows = [0] * len(number)
    for table, table_keys in zip(one_offs, keys):
        table.parts = tuple(number.get(key, -1) for key in table_keys)
        for part in table.parts:
            if part >= 0:
                rows[part] = table.ev_t.size
    return rows


def _event_arrays(es) -> dict:
    """Read-only event arrays of one elementary sequence: ``ev_t`` and
    ``ev_mom`` are views of its :attr:`~mrsim.sequence.ElementarySequence.events`
    past the start, ``ev_dt`` and ``ev_dmom`` their increments, and
    ``axes`` the axes that the moment moves."""
    t, mom = es.events
    ev_dt, ev_dmom, ev_t, ev_mom = np.diff(t), np.diff(mom, axis=0), t[1:], mom[1:]
    ev_dt.flags.writeable = ev_dmom.flags.writeable = False
    axes = tuple(ax for ax, moved in enumerate(ev_mom.any(axis=0).tolist()) if moved)
    return dict(ev_dt=ev_dt, ev_dmom=ev_dmom, ev_t=ev_t, ev_mom=ev_mom, axes=axes)


# ---------------------------------------------------------------------------
# spin blocks
# ---------------------------------------------------------------------------


@dataclass
class SpinBlock:
    """Contiguous slice of the spin set with precomputed per-spin data."""

    index: int
    pos: np.ndarray  # (n, 3)
    t1: np.ndarray
    t2: np.ndarray
    m0: np.ndarray
    domega: np.ndarray  # rad/s, off-resonance in the rotating frame
    weight: np.ndarray  # complex receive weight

    @property
    def n(self) -> int:
        return self.m0.size


def build_spin_arrays(spins: SpinList, system: SystemModel) -> SpinBlock:
    """The rasterized spins as arrays, with off-resonance and coil
    weight evaluated on all positions at once."""
    return SpinBlock(
        index=0,
        pos=spins.pos,
        t1=spins.t1,
        t2=spins.t2,
        m0=spins.m0,
        domega=spin_off_resonance(system.field, spins.pos, spins.delta_omega),
        weight=complex_weight(system.receive, spins.pos),
    )


def partition_blocks(arrays: SpinBlock, n_blocks: int) -> List[SpinBlock]:
    """Cut the spin arrays into at most n_blocks contiguous, disjoint
    blocks; each block's arrays are views of the source arrays."""
    n = arrays.n
    n_blocks = max(1, min(n_blocks, n)) if n else 1
    bounds = np.linspace(0, n, n_blocks + 1).astype(int)
    names = [f.name for f in fields(SpinBlock) if f.name != "index"]
    return [
        SpinBlock(
            index=b,
            **{name: getattr(arrays, name)[bounds[b] : bounds[b + 1]] for name in names},
        )
        for b in range(n_blocks)
    ]


# ---------------------------------------------------------------------------
# the compute kernel (worker side)
# ---------------------------------------------------------------------------


def compute_block(tables: OperatorTables, block: SpinBlock):
    """Evolve one block from thermal equilibrium through the whole sequence.

    Returns (echo_partials, snapshots): echo_partials is a complex array
    (acquisitions, samples) of coil-weighted transverse sums over the
    block, one row per acquiring entry in element order, the order of
    ``tables.acq_times``; snapshots is a list of (n, 3) magnetization
    arrays, one per requested snapshot time, each taken in the entry of
    ``tables.snaps`` that holds it.  ``run`` cuts blocks of at most
    ``_block_spins(tables)`` spins, so that a block's propagators stay
    within ``_PROPAGATOR_BYTES`` and the call within the memory promise
    of the module docstring.
    """
    n_samples = max((e.n_samples for e in tables.entries), default=0)
    echoes = np.zeros((len(tables.acq_times), n_samples), dtype=complex)
    snapshots: List[Optional[np.ndarray]] = [None] * len(tables.snapshot_times)
    inv_t1, inv_t2, m0 = 1.0 / block.t1, 1.0 / block.t2, block.m0
    pos_domega = np.column_stack([block.pos, block.domega])
    mxy = np.zeros(block.n, dtype=complex)
    mz = m0  # never written in place: blocks are views of the run's arrays
    cache: Dict[int, tuple] = {}  # group -> its propagator, _Columns, last row per spin
    parts: Dict[int, np.ndarray] = {}  # part number -> a factor part of one-off elements
    regrowth: Dict[int, tuple] = {}  # T1 interval -> its t1_factors
    coords: Dict[int, tuple] = {}  # position axis -> distinct values, code of each spin
    keyed: Dict[Tuple[int, ...], Optional[_Columns]] = {}  # moving axes -> columns(axes)
    widest = 0

    def factors(t, moments, spins=None):
        # row i: the phase pos . moments[i] + domega * t[i], written into
        # the imaginary part, then the factor in place; ``spins`` picks
        # the columns.  einsum and ufuncs rather than matmul: BLAS would
        # start threads of its own in every worker process of the pool
        sites, decay = (pos_domega, inv_t2) if spins is None else (pos_domega[spins], inv_t2[spins])
        p = np.empty((t.size, len(sites)), dtype=complex)
        np.einsum("ek,nk->en", np.column_stack([moments, t]), sites, out=p.imag)
        return precession_factor(p.imag, t[:, None], decay, out=p)

    def coordinates(ax):
        if ax not in coords:
            coords[ax] = np.unique(block.pos[:, ax], return_inverse=True)
        return coords[ax]

    def columns(axes):
        # the columns of a propagator that reads the positions on
        # ``axes``, or None for one per spin; every key refines the
        # (domega, T2) one, so it has at least as many columns
        if () not in keyed:
            keyed[()] = (
                _columns([_codes(block.domega), _codes(inv_t2)])
                if block.n >= _MIN_KEYED_SPINS
                else None
            )
        if axes not in keyed:
            pair = keyed[()]
            keyed[axes] = (
                None
                if pair is None
                else _columns([pair.of_spin] + [coordinates(ax)[1] for ax in axes])
            )
        return keyed[axes]

    def part(number, make):
        # a part that another one-off element shares is made once per block
        if number not in parts:
            if number < 0:
                return make()
            parts[number] = make()
        return parts[number]

    def assembled(entry, cols):
        # a one-off element's propagator: the product of its time part, on
        # the (domega, T2) columns or per spin when those are not keyed,
        # and one part exp(-1j * x * m) per moved axis, on that axis's
        # distinct coordinates, each gathered into the element's columns.
        # One uncached part is alive at a time
        on = slice(None) if cols is None else cols.spin  # a spin of each column
        pair = keyed[()]
        spins, pair_at = (None, None) if pair is None else (pair.spin, pair.of_spin[on])
        p = np.ones((entry.ev_t.size, block.n if cols is None else cols.spin.size), dtype=complex)
        step = max(1, block.n // p.shape[1])  # a gather copies at most one row per spin

        def time():
            return factors(entry.ev_t, np.zeros_like(entry.ev_mom), spins)

        _gather_into(p, part(entry.parts[0], time), pair_at, step)
        for ax, number in zip(entry.axes, entry.parts[1:]):
            values, code = coordinates(ax)
            moment = entry.ev_mom[:, ax]

            def turn():
                # the phase goes into the factor's imaginary part: no real
                # array of half the part's size is made beside it
                p = np.empty((moment.size, values.size), dtype=complex)
                np.multiply.outer(moment, values, out=p.imag)
                return precession_factor(p.imag, 0.0, 0.0, out=p)

            _gather_into(p, part(number, turn), code[on], step)
        return p

    def running(entry, cols):
        # a group's propagator: one factor per distinct step, gathered
        # into the events' rows (which drops the factors), then the
        # running product down the rows
        dt, dmom, of_event = entry.steps
        p = factors(dt, dmom, None if cols is None else cols.spin)
        if of_event is not None:
            p = np.take(p, of_event, axis=0)
        _running_product(p)
        return p

    acq = 0  # acquisitions are numbered in element order
    for i, (entry, (age, interval)) in enumerate(zip(tables.entries, tables.mz_ages)):
        if entry.pulse_mat is not None:
            if age:
                e1, recovered = regrowth.get(interval) or t1_factors(m0, inv_t1, age)
                if interval >= 0:
                    regrowth[interval] = e1, recovered
                mz = mz * e1 + recovered
            age = 0.0
            mxy, mz = apply_pulse(entry.pulse_mat, mxy, mz)
        for t, moment, si in tables.snaps.get(i, ()):
            at = mxy * factors(np.array([t]), moment[None])[0]
            mz_at = regrow_mz(mz, m0, inv_t1, age + t)
            snapshots[si] = np.column_stack([at.real, at.imag, mz_at])
        if not entry.ev_t.size:
            continue
        if entry.group in cache:
            p, cols, last = cache[entry.group]
        else:
            cols = columns(entry.axes)
            if entry.group < 0:
                p = assembled(entry, cols)
            else:
                p = running(entry, cols)
            widest = max(widest, p.shape[1])
            last = p[-1] if cols is None else p[-1][cols.of_spin]
            if entry.group >= 0:
                # later entries read only the sample rows and the last row
                # per spin: a keyed group without samples keeps the latter
                if cols is not None and not entry.n_samples:
                    p = None
                cache[entry.group] = p, cols, last
        if entry.n_samples:
            # vecdot conjugates its first argument, so the two conj()
            # leave the plain sum of row * wm; it takes one dot product
            # per row, where a matrix product would start OpenBLAS
            # threads in every worker process of the pool
            wm = block.weight * mxy
            if cols is not None:
                # echo_i = sum over columns c of p[i, c] * (sum of wm over c's spins)
                wm = np.bincount(cols.parts, wm.view(float), 2 * p.shape[1]).view(complex)
            rows = p[: entry.n_samples]
            echoes[acq, : entry.n_samples] += np.vecdot(rows, wm.conj()).conj()
            acq += 1
        mxy *= last
    _log.debug(
        "block %d: %d spins, %d propagator groups, %d propagator-cache bytes, "
        "%d cached factor parts of %d bytes, %d cached T1 intervals, "
        "widest propagator %d columns",
        block.index,
        block.n,
        len(tables.group_rows),
        # a keyed last row is an array of its own, a per-spin one a row of p
        sum(
            (0 if p is None else p.nbytes) + (0 if cols is None else last.nbytes)
            for p, cols, last in cache.values()
        ),
        len(parts),
        sum(a.nbytes for a in parts.values()),
        len(regrowth),
        widest,
    )
    return echoes, snapshots


def _running_product(p: np.ndarray) -> None:
    """Multiply each row of ``p`` in place by every row above it, back to
    the last multiple of ``_ANCHOR_ROWS``, whose row steps from the
    element start (see :func:`_number_steps`).

    ``np.multiply.accumulate`` down the rows walks one column at a time,
    about 6 ns per value on a 2-core x86_64 box, where one multiply per
    row costs about 1 us plus 0.9 ns per value.  So a propagator of
    ``_ROW_PRODUCT_COLUMNS`` columns or more, such as ``head96_loop``'s
    4,788, multiplies row by row, and a narrower one, such as the keyed
    readouts of ``tse128_pool`` and ``cpmg12_auto``, accumulates; the two
    forms agree to rounding."""
    if len(p) < 2:
        return
    for lo in range(0, len(p), _ANCHOR_ROWS):
        run = p[lo : lo + _ANCHOR_ROWS]
        if p.shape[1] < _ROW_PRODUCT_COLUMNS:
            np.multiply.accumulate(run, axis=0, out=run)
            continue
        for i in range(1, len(run)):
            np.multiply(run[i - 1], run[i], out=run[i])


def _gather_into(p: np.ndarray, part: np.ndarray, index: Optional[np.ndarray], step: int) -> None:
    """Multiply ``p`` in place by the columns ``index`` of ``part`` (all of
    them for None), ``step`` rows at a time, so that a gathered copy holds
    at most ``step`` rows."""
    if index is None:
        p *= part
        return
    for lo in range(0, p.shape[0], step):
        p[lo : lo + step] *= np.take(part[lo : lo + step], index, axis=1)


def _codes(values: np.ndarray) -> np.ndarray:
    """One integer per spin, equal for equal values: the values' ranks
    among the distinct ones, so every code is below the spin count."""
    return np.unique(values, return_inverse=True)[1]


def _number_tuples(codes: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Number the distinct tuples of per-spin codes (of :func:`_codes`).

    Returns (of_spin, spin): the number of each spin's tuple, from 0,
    and a spin of each tuple.  Every code is below n, the spin count, and the
    key is renumbered after each column, so ``key * count + code`` stays
    below n**2 and cannot overflow int64 however many tuples the columns'
    counts could form.
    """
    key = codes[0]
    for code in codes[1:]:
        key = np.unique(key * (int(code.max(initial=0)) + 1) + code, return_inverse=True)[1]
    spin = np.empty(int(key.max(initial=-1)) + 1, dtype=np.intp)
    spin[key] = np.arange(key.size)
    return key, spin


class _Columns(NamedTuple):
    """The columns of a keyed propagator: the column of each spin, a spin
    of each column, and the column of each spin's real and imaginary
    part, interleaved, so that one ``np.bincount`` over ``mxy``'s floats
    sums a complex value per column."""

    of_spin: np.ndarray
    spin: np.ndarray
    parts: np.ndarray


def _columns(codes: List[np.ndarray]) -> Optional[_Columns]:
    """The columns of the distinct tuples of per-spin codes, or None for
    one column per spin.

    A block is keyed when it has ``_MIN_KEYED_SPINS`` spins or more (the
    kernel checks that before it codes them) and the columns are at most
    half the spins.  Measured on a 2-core x86_64 box, keyed against
    per-spin kernel time:
    - with the tables of ``tse128_pool``, ``cpmg12_auto`` and
      ``head96_loop`` on 2,000-5,000 spins: 0.3-0.8x at 5 % distinct
      columns, 0.6-1.0x at 50 %, and about 1x between 60 % and 75 %;
    - at 1/8 distinct columns on 32-512 spins: 1.0-1.1x up to 128 spins
      with the CPMG tables of ``cpmg12_auto`` and ``kt_cpmg12``, whose
      cost is per element, and 0.9-1.0x at 256; 0.6-0.8x at 256-512 with
      the TSE and head tables.  So ``kt_cpmg12``'s 64-spin check run
      keeps one column per spin.

    At half, a keyed propagator of two events or more, with its last row
    per spin, also fits the per-spin budget of :func:`_block_spins`.
    """
    spins = codes[0].size
    # the tuples are at least as many as the values of any one column
    if any(2 * (int(code.max(initial=-1)) + 1) > spins for code in codes):
        return None
    of_spin, spin = _number_tuples(codes)
    if 2 * spin.size > spins:
        return None
    return _Columns(of_spin, spin, (2 * of_spin[:, None] + (0, 1)).ravel())


def _block_spins(tables: OperatorTables) -> int:
    """The most spins of a block, whose cached and built arrays fit
    ``_PROPAGATOR_BYTES`` at one complex value per spin and row: every
    group's cached propagator, every numbered factor part and T1 interval
    (two floats per spin), and twice the largest propagator that an
    element occurring once builds (its factor and the one uncached part
    alive with it).  A keyed propagator has fewer columns (see
    :func:`_columns`), and a cached one without samples keeps only its
    last row, so both fit the rows counted here.  The module docstring's
    memory promise adds what this leaves out: the block's results, a
    fixed number of values per spin (a snapshot's row among them), a
    group's distinct-step factors before their gather, at most rows - 1
    rows more than its propagator, per-event columns and numpy's
    buffers."""
    own = max((e.ev_dt.size for e in tables.entries if e.group < 0), default=0)
    rows = sum(tables.group_rows) + sum(tables.part_rows) + len(tables.t1_intervals) + 2 * own
    return max(1, _PROPAGATOR_BYTES // (16 * max(rows, 1)))  # complex128 per spin and row


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------


@dataclass
class EchoRecord:
    """One acquisition: normalized complex samples plus their timestamps."""

    values: np.ndarray
    timestamps: np.ndarray


@dataclass
class RunMetrics:
    """How a run went.  ``stages`` holds the seconds of each stage of
    :func:`run` by name, in order: ``spacing`` (the automatic spacing
    only), ``rasterize``, ``system_eval`` (:func:`build_spin_arrays`),
    ``tables``, ``kernel`` (cutting the blocks and evolving them; the
    master checks a spacing override here, while the worker processes
    compute) and ``reduce`` (summing the echoes and gathering the
    snapshots).  They add up to at most ``wall_time_s``.
    ``spacing_check_s`` is the seconds of that override check, part of
    ``kernel``, and 0.0 with the automatic spacing.
    ``busy_fraction`` is each worker's wall time inside
    :func:`compute_block` over ``wall_time_s``, which also counts time the
    worker was descheduled, keyed by share: the master's is ``workers -
    1``; ``cpu_s`` is, by the same keys, the CPU seconds that its thread
    spent there (``time.thread_time``)."""

    wall_time_s: float
    throughput: float  # spins per second of wall time
    workers: int
    blocks: int
    busy_fraction: Dict[int, float]
    cpu_s: Dict[int, float]
    hardware: str
    stages: Dict[str, float]
    spacing_check_s: float


@dataclass
class RunResult:
    echoes: List[EchoRecord]
    metrics: RunMetrics
    snapshots: List[Tuple[float, np.ndarray]]
    spin_count: int
    spacing: Tuple[float, float, float]
    spacing_report: Optional[SpacingReport] = None

    def echo_matrix(self) -> np.ndarray:
        """(acquisitions, samples); (0, 0) when nothing acquires."""
        counts = sorted({rec.values.size for rec in self.echoes})
        if len(counts) > 1:
            raise InvalidParameter(f"acquisitions take {counts} samples; an echo matrix needs one")
        if not self.echoes:
            return np.zeros((0, 0), dtype=complex)
        return np.array([rec.values for rec in self.echoes])


@dataclass
class Experiment:
    sequence: Sequence
    phantom: Phantom
    system: SystemModel = field(default_factory=default_system)
    spacing: Optional[Tuple[float, float, float]] = None
    workers: int = 1
    deterministic: bool = True
    # the fewest blocks; run cuts more when the spins need them to fit the
    # kernel's memory budget (see _block_spins); default: one per worker
    blocks: Optional[int] = None
    snapshot_times: Tuple[float, ...] = ()


def _worst_tissue(phantom: Phantom) -> RelaxationParams:
    """Longest-lived tissue present in the phantom (box properties sampled
    at centers and corners); used for the pruned spacing bound."""
    def value(prop, p):
        return float(prop(p[0], p[1], p[2])) if callable(prop) else float(prop)

    t1 = t2 = 0.0
    for box in phantom.boxes:
        o, s = np.asarray(box.origin), np.asarray(box.size)
        points = [o + s / 2.0]
        for corner in range(8):
            points.append(o + s * np.array([(corner >> ax) & 1 for ax in range(3)]))
        for p in points:
            t1 = max(t1, value(box.t1, p))
            t2 = max(t2, value(box.t2, p))
    if t1 <= 0.0 or t2 <= 0.0:
        raise InvalidParameter(
            f"the automatic spacing samples T1 and T2 at the box centres and corners, where the "
            f"largest are T1 = {t1:.6g} s, T2 = {t2:.6g} s; an explicit spacing within the "
            "relaxation-free bound avoids this"
        )
    return RelaxationParams(t1=t1, t2=t2, m0=1.0)


def _triple(values) -> str:
    return "(" + ", ".join(f"{v:.6g}" for v in values) + ")"


def _auto_spacing(exp: Experiment) -> Tuple[Tuple[float, float, float], SpacingReport]:
    """The spin spacing when none is given: the steady-state pruned
    bound (worst-case tissue, 256 gray levels), or twice the phantom's
    extent on an axis the sequence leaves unbounded.  The returned
    report is the pruned one, with the relaxation-free bound and the
    worst-case tissue in its notes."""
    free = max_spacing(exp.sequence, phantom=exp.phantom)
    tissue = _worst_tissue(exp.phantom)
    chosen = pruned_max_spacing(exp.sequence, tissue)
    chosen.notes.append(
        f"relaxation-free bound: K_max = {_triple(free.k_max)} rad/m, "
        f"dx_max = {_triple(free.dx_max)} m"
    )
    chosen.notes.append(
        f"worst-case tissue T1 = {tissue.t1:.6g} s, T2 = {tissue.t2:.6g} s: the largest T1 "
        "and the largest T2, each taken on its own over the box centres and corners"
    )
    lo, hi = exp.phantom.bounding_box()
    extent = np.maximum(np.asarray(hi) - np.asarray(lo), 1e-12)
    bounded = [math.isfinite(chosen.spacing[ax]) for ax in range(3)]
    spacing = tuple(
        chosen.spacing[ax] if bounded[ax] else 2.0 * float(extent[ax]) for ax in range(3)
    )
    _log.debug(
        "automatic spacing %s m: %s; relaxation-free dx_max %s m",
        _triple(spacing),
        ", ".join(
            f"{name} from the {'pruned bound' if b else 'phantom extent'}"
            for name, b in zip("xyz", bounded)
        ),
        _triple(free.dx_max),
    )
    return spacing, chosen


def _check_spacing(exp: Experiment, spacing) -> Tuple[SpacingReport, List[str]]:
    """Validate a spacing override; returns the relaxation-free bound
    and one warning per axis where the spacing breaks it and the
    steady-state pruned bound as well.

    The spacing is fixed before this runs, so ``run`` can check it while
    the workers compute.
    """
    report = max_spacing(exp.sequence, phantom=exp.phantom)
    broken = [ax for ax in range(3) if _breaks(spacing[ax], report.dx_max[ax])]
    if not broken:
        _log.debug(
            "spacing override %s m within the relaxation-free bound; pruned walk skipped",
            _triple(spacing),
        )
        return report, []
    _log.debug(
        "spacing override %s m breaks the relaxation-free bound on %s; pruned walk runs",
        _triple(spacing),
        "".join("xyz"[ax] for ax in broken),
    )
    pruned = pruned_max_spacing(exp.sequence, _worst_tissue(exp.phantom))
    problems = [
        f"spacing override {spacing[ax]:.6g} m on axis {'xyz'[ax]} violates the "
        f"sampling bound {pruned.dx_max[ax]:.6g} m; expect replica artifacts"
        for ax in broken
        if _breaks(spacing[ax], pruned.dx_max[ax])
    ]
    return report, problems


def _breaks(spacing: float, dx_max: float) -> bool:
    """Whether a spacing breaks a bound; the infinite bound of an axis
    without k excursion holds for every spacing, infinite included."""
    return math.isfinite(dx_max) and not spacing < dx_max


def _warn_spacing(problems: List[str]) -> None:
    for message in problems:
        warnings.warn(message, stacklevel=3)  # at the caller of run()


def _timed(fn, *args):
    """``fn(*args)`` and its (wall, CPU) seconds; the CPU time is the
    calling thread's (``time.thread_time``)."""
    wall, cpu = time.perf_counter(), time.thread_time()
    result = fn(*args)
    return result, (time.perf_counter() - wall, time.thread_time() - cpu)


def _worker_main(tables, share, conn):
    """Compute a share of the blocks, sending each block's result and its
    seconds, or the kernel's error in their place, over ``conn``."""
    for block in share:
        try:
            result, spent = _timed(compute_block, tables, block)
        except Exception as exc:  # surfaced as WorkerPanic by the master
            conn.send((block.index, None, repr(exc)))
            return
        conn.send((block.index, result, spent))


def _snapshot_times(value) -> Tuple[float, ...]:
    """``value`` as a tuple of its times: a sequence or array of real
    numbers, numpy's and exact ones included, but not of bools."""
    try:
        if isinstance(value, (str, bytes)):
            raise TypeError
        times = tuple(value)
        if not all(isinstance(t, numbers.Real) and not isinstance(t, bool) for t in times):
            raise TypeError
    except TypeError:
        raise InvalidParameter(
            f"snapshot_times must be a sequence of real numbers other than bools, got {value!r}"
        ) from None
    return times


def run(exp: Experiment) -> RunResult:
    """Execute one experiment; see the module docstring for the roles.
    Its stages are timed into ``RunMetrics.stages``."""
    exp = replace(
        exp,
        workers=_count("workers", exp.workers),
        blocks=None if exp.blocks is None else _count("blocks", exp.blocks),
        snapshot_times=_snapshot_times(exp.snapshot_times),
    )
    if not isinstance(exp.deterministic, bool):
        raise InvalidParameter(f"deterministic must be True or False, got {exp.deterministic!r}")
    wall_start = stage_start = time.perf_counter()
    stages: Dict[str, float] = {}

    def stage(name: str) -> None:
        nonlocal stage_start
        now = time.perf_counter()
        stages[name] = now - stage_start
        stage_start = now

    if exp.spacing is None:
        spacing, report = _auto_spacing(exp)
    else:
        spacing = _positive_spacing(exp.spacing)
    stage("spacing")
    spins = rasterize(exp.phantom, spacing)
    if not spins:
        raise InvalidParameter("the phantom rasterized to zero spins")
    stage("rasterize")
    arrays = build_spin_arrays(spins, exp.system)
    stage("system_eval")
    tables = precompute_sequence_tables(exp.sequence, snapshot_times=exp.snapshot_times)
    stage("tables")
    # the fewest blocks within the propagator budget, and at least the
    # blocks asked for, or one per worker
    n_blocks = max(exp.blocks or exp.workers, -(-arrays.n // _block_spins(tables)))
    blocks = partition_blocks(arrays, n_blocks)
    # wall and CPU seconds inside compute_block, by worker
    busy: Dict[int, float] = collections.defaultdict(float)
    cpu: Dict[int, float] = collections.defaultdict(float)
    # the master checks a spacing override while the workers compute
    check = None if exp.spacing is None else (lambda: _timed(_check_spacing, exp, spacing))
    folds, ordered, checked = _run_pool(exp, tables, blocks, busy, cpu, meanwhile=check)
    check_s = 0.0
    if checked is not None:
        (report, problems), (check_s, _) = checked
        _warn_spacing(problems)
    stage("kernel")

    n_spins = arrays.n
    echo_sum: Optional[np.ndarray] = None
    for echoes, _snaps in folds:
        echo_sum = echoes if echo_sum is None else echo_sum + echoes
    records = []
    if echo_sum is not None and tables.acq_times:
        echo_sum = echo_sum / n_spins
        for values, times in zip(echo_sum, tables.acq_times):
            records.append(EchoRecord(values=values[: times.size], timestamps=times))
    # snapshots concatenate in block-index order regardless of the fold
    # order, preserving rasterization order
    snapshots = [
        (t, np.concatenate([snaps[i] for _echoes, snaps in ordered]))
        for i, t in enumerate(exp.snapshot_times)
    ]
    stage("reduce")
    wall = time.perf_counter() - wall_start
    shown = ", ".join(f"{name} {t:.4f} s" for name, t in stages.items())
    _log.debug("run stages: %s; spacing check %.4f s", shown, check_s)
    busy_fraction = {w: t / wall for w, t in sorted(busy.items())} if wall > 0 else {}
    metrics = RunMetrics(
        wall_time_s=wall,
        throughput=n_spins / wall if wall > 0 else math.inf,
        workers=exp.workers,
        blocks=len(blocks),
        busy_fraction=busy_fraction,
        cpu_s={w: cpu[w] for w in busy_fraction},
        hardware=f"{platform.machine()} {platform.processor() or 'cpu'} x{os.cpu_count()}",
        stages=stages,
        spacing_check_s=check_s,
    )
    return RunResult(
        echoes=records,
        metrics=metrics,
        snapshots=snapshots,
        spin_count=n_spins,
        spacing=spacing,
        spacing_report=report,
    )


def _run_pool(exp: Experiment, tables: OperatorTables, blocks, busy, cpu, meanwhile=None):
    """Compute the blocks, share ``w`` of ``workers`` taking blocks ``w, w
    + workers, ...``: shares ``0 ... workers - 2`` in worker processes,
    and the last in the master, which first calls ``meanwhile()``, the
    check of a spacing override that ``run`` passes (the automatic
    spacing is resolved before the blocks are cut).  A 1-worker run is
    this loop with no process.

    Each worker gets its share, and under fork the tables with it, as
    its process arguments, and sends each result over a one-way pipe of
    its own, with its wall and CPU seconds, which add up by share in
    ``busy`` and ``cpu``.  The master holds no write end, so a pipe reads
    EOF once its worker has exited, after every result that worker sent.
    After each of its own blocks the master takes the results that are
    ready, so that no worker waits long in ``send``, and at the end it
    reads every pipe to EOF.  Returns (fold_order, index_order, side):
    deterministic mode folds echoes in ascending block index,
    nondeterministic mode in arrival order; side is the value of
    ``meanwhile()`` (None without it).  A kernel error, in a worker or in
    the master, or a worker that exits before its share is done (killed,
    ``os._exit``), is raised as :class:`WorkerPanic` naming the block,
    and stops every worker.
    """
    ctx = mp.get_context()
    shares = [blocks[w :: exp.workers] for w in range(exp.workers)]
    master = exp.workers - 1
    workers = []
    readers: Dict[mp_connection.Connection, int] = {}
    arrival: List[tuple] = []
    by_index: Dict[int, tuple] = {}
    clean = False

    def keep(w, index, result, spent):
        busy[w] += spent[0]
        cpu[w] += spent[1]
        arrival.append(result)
        by_index[index] = result

    def take(ready):
        for reader in ready:
            w = readers[reader]
            try:
                index, result, spent = reader.recv()
            except (EOFError, OSError):  # exited, or died mid-message
                del readers[reader]
                reader.close()
                _check_share(workers[w], shares[w], by_index)
                continue
            if result is None:  # the kernel's error in place of the seconds
                raise WorkerPanic(index, spent)
            keep(w, index, result, spent)

    try:
        for w, share in enumerate(shares[:master]):
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker_main, args=(tables, share, writer), daemon=True)
            proc.start()
            writer.close()  # before the next fork, so EOF follows this worker alone
            workers.append(proc)
            readers[reader] = w
        side = None if meanwhile is None else meanwhile()
        for block in shares[master]:
            try:
                result, spent = _timed(compute_block, tables, block)
            except Exception as exc:
                raise WorkerPanic(block.index, repr(exc)) from exc
            keep(master, block.index, result, spent)
            take(mp_connection.wait(list(readers), timeout=0))
        while readers:
            take(mp_connection.wait(list(readers)))
        clean = True
    finally:
        for proc in workers:
            if not clean:
                proc.terminate()
            proc.join()
        for reader in readers:
            reader.close()
    _log.debug(
        "spin blocks: %d, worker processes started: %d, blocks the master computed: %d",
        len(blocks),
        len(workers),
        len(shares[master]),
    )
    ordered = [by_index[i] for i in sorted(by_index)]
    return (ordered if exp.deterministic else arrival), ordered, side


def _check_share(proc, share, by_index) -> None:
    """Raise WorkerPanic if a worker whose pipe closed left its share
    unfinished: it died on the first block that has no result."""
    missing = next((b.index for b in share if b.index not in by_index), None)
    if missing is not None:
        proc.join()
        raise WorkerPanic(
            missing,
            f"worker process {proc.pid} exited with code {proc.exitcode} without "
            "reporting while computing this block",
        )


# ---------------------------------------------------------------------------
# result comparison
# ---------------------------------------------------------------------------


def delta_e_stoer(ref, test) -> float:
    """Energy of the difference between two datasets relative to the
    reference energy, in dB; -inf when the datasets are identical."""
    ref = np.asarray(ref).ravel()
    test = np.asarray(test).ravel()
    if ref.shape != test.shape:
        raise InvalidParameter(f"shape mismatch: {ref.shape} vs {test.shape}")
    num = float(np.sum(np.abs(ref - test) ** 2))
    den = float(np.sum(np.abs(ref) ** 2))
    if den == 0.0:
        return -math.inf if num == 0.0 else math.inf
    if num == 0.0:
        return -math.inf
    return 10.0 * math.log10(num / den)


@dataclass(frozen=True)
class ComparisonResult:
    delta_e_db: float
    exceedances: int
    compared: int
    rel_threshold: float


def compare_results(ref, test, rel_threshold: float = 1e-6) -> ComparisonResult:
    """Floating-point tolerant dataset comparison.

    Returns the difference-energy ratio in dB plus the number of
    components whose relative error exceeds the threshold, which must be
    >= 0 and finite.  Components where both values sit at machine-epsilon
    scale are not rated.
    """
    if not 0.0 <= rel_threshold < math.inf:
        raise InvalidParameter(f"rel_threshold must be >= 0 and finite, got {rel_threshold!r}")
    ref = np.asarray(ref)
    test = np.asarray(test)
    if ref.shape != test.shape:
        raise InvalidParameter(f"shape mismatch: {ref.shape} vs {test.shape}")
    if np.iscomplexobj(ref) or np.iscomplexobj(test):
        ref = np.concatenate([np.real(ref).ravel(), np.imag(ref).ravel()])
        test = np.concatenate([np.real(test).ravel(), np.imag(test).ravel()])
    else:
        ref = ref.ravel().astype(float)
        test = test.ravel().astype(float)
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    eps_scale = np.finfo(float).eps * max(scale, 1e-300)
    rated = ~((np.abs(ref) < eps_scale) & (np.abs(test) < eps_scale))
    rel = np.zeros_like(ref)
    denom = np.abs(ref[rated])
    denom = np.where(denom > 0.0, denom, eps_scale)
    rel[rated] = np.abs(ref[rated] - test[rated]) / denom
    return ComparisonResult(
        delta_e_db=delta_e_stoer(ref, test),
        exceedances=int(np.sum(rel > rel_threshold)),
        compared=int(np.sum(rated)),
        rel_threshold=rel_threshold,
    )
