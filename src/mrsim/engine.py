"""Parallel spin-level simulation engine.

Role separation follows a partitioner / worker / reducer contract: the
partitioner (master) rasterizes the object, precomputes everything that
does not depend on the spin (pulse trigonometry, gradient moments,
sample timing), cuts the spin set into blocks and hands blocks to
workers as they become free over a bounded queue; workers evolve their
spins through every elementary sequence and return per-block partial
echo sums; the reducer accumulates partials into the final records.  In
deterministic mode the reduction folds blocks in ascending index order
regardless of completion order, so results do not depend on the worker
count.  A spacing override only decides whether to warn, so with
workers the master checks it (the relaxation-free bound, then the
pruned k-t walk if that bound is broken) while they compute.

Loop order inside a worker: elementary sequences outer, samples inner,
with the per-spin arithmetic vectorized across the block.  The kernel
keeps the transverse magnetization as one complex array
``mxy = mx + 1j*my``: free precession and T2 decay over an event are a
single multiply by ``exp(-1j*(pos.dmom + domega*dt) - dt/T2)`` and a
sample is one complex dot product with the coil weights, taken with
BLAS ``zdotu`` directly (half the cost of ``np.dot`` per call on blocks
of a few thousand spins).  Every ``(dt, dmom)`` key that recurs in the
sequence owns a factor slot, numbered by the tables, whose per-spin
factor the kernel computes on first use and reuses afterwards; one-off
keys (phase-encode lobes) are computed inline and dropped.  The cache
holds at most (repeated keys x block size) factors and never more than
``_FACTOR_CACHE_BYTES`` per block: slots past that budget, the least
used ones, are computed inline as well.  Only pulses and snapshots read
Mz, so T1 relaxation is deferred: the elapsed time accumulates and Mz is
relaxed over all of it just before it is read.  The rotation, the
precession factor and the Mz regrowth are the array operators of
:mod:`mrsim.bloch`.

The alternative decomposition, a pipeline of per-interval operator
stages that spins stream through, was rejected: every spin must visit
every stage in order, so the slowest stage plus the stage-to-stage
traffic bound the throughput, whereas disjoint spin blocks need no
communication between workers at all.
"""

from __future__ import annotations

import logging
import math
import os
import platform
import queue as queue_mod
import time
import warnings
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence as TySequence, Tuple

import multiprocessing as mp

import numpy as np
from scipy.linalg.blas import zdotu as _zdotu

from .bloch import (
    GAMMA_PROTON,
    RelaxationParams,
    apply_rotation,
    hard_pulse_matrix,
    precession_factor,
    regrow_mz,
)
from .discretize import SpacingReport, max_spacing, pruned_max_spacing
from .errors import IncommensurateMoments, InvalidParameter, WorkerPanic
from .phantom import Phantom, SpinList, SpinSample, rasterize
from .sequence import Sequence
from .system import SystemModel, complex_weight, default_system, spin_off_resonance

_log = logging.getLogger(__name__)
# seconds the master waits for a result before checking for dead workers
_POLL_S = 0.2
# per-block budget of the kernel's factor cache (about 160 slots of a
# 25k-spin block); a block of n spins caches this // (16 n) slots
_FACTOR_CACHE_BYTES = 64 << 20

# ---------------------------------------------------------------------------
# spin-independent precomputation (master side)
# ---------------------------------------------------------------------------


@dataclass
class EsTable:
    """Precomputed operator data of one elementary sequence.

    Events partition the interval at every sample and snapshot instant:
    ``ev_dt[i]`` seconds and gradient-moment increment ``ev_dmom[i]``
    (rad/m per axis) lead up to event i, which then either records a
    sample (``ev_sample[i]`` with running acquisition index ``acq``) or
    a snapshot (``ev_snap[i]`` >= 0).  ``ev_slot[i]`` is the factor slot
    of the event's ``(dt, dmom)`` key, or -1 when the key occurs only
    once in the sequence or the event does not evolve (dt = 0, dmom = 0).
    """

    pulse_mat: Optional[np.ndarray]
    duration: float
    moments: np.ndarray
    ev_dt: np.ndarray
    ev_dmom: np.ndarray
    ev_sample: np.ndarray
    ev_snap: np.ndarray
    ev_slot: np.ndarray
    acq: int = -1
    n_samples: int = 0


@dataclass
class OperatorTables:
    entries: List[EsTable]
    n_acq: int
    acq_times: List[np.ndarray]
    snapshot_times: Tuple[float, ...]
    pulse_memo_hits: int
    gamma: float
    factor_slots: int  # distinct (dt, dmom) keys that occur more than once


def precompute_sequence_tables(
    sequence: Sequence,
    gamma: float = GAMMA_PROTON,
    snapshot_times: TySequence[float] = (),
) -> OperatorTables:
    """Build per-elementary-sequence operator tables.

    Pulse matrices are shared between identical pulses (the memo hit
    count is reported); gradient moments and the event timing grid are
    evaluated once so workers never touch the waveform objects.  Every
    evolving ``(dt, dmom)`` key that occurs more than once across the
    sequence gets a factor slot, the most frequent keys first.
    """
    snapshot_times = tuple(sorted(snapshot_times))
    fields: List[dict] = []  # EsTable fields of every entry but ev_slot
    acq_times: List[np.ndarray] = []
    memo: Dict[Tuple[float, float], np.ndarray] = {}
    hits = 0
    t0 = 0.0
    acq = 0
    for es in sequence.elements:
        mat = None
        if es.pulse is not None and not es.pulse.is_identity:
            key = (es.pulse.alpha, es.pulse.phi)
            if key in memo:
                hits += 1
            else:
                memo[key] = hard_pulse_matrix(es.pulse.alpha, es.pulse.phi)
            mat = memo[key]
        t1 = t0 + es.duration
        sample_ts = es.acquisition.sample_times(es.duration)
        snaps = [
            (float(t_abs - t0), False, si)
            for si, t_abs in enumerate(snapshot_times)
            if t0 < t_abs <= t1 or (t_abs == 0.0 == t0)
        ]
        if snaps:
            # a snapshot comes before a sample at the same instant
            events = sorted([(float(t), True, -1) for t in sample_ts] + snaps)
            ts = np.array([e[0] for e in events], dtype=float)
            ev_sample = np.array([e[1] for e in events], dtype=bool)
            ev_snap = np.array([e[2] for e in events], dtype=int)
        else:
            ts = np.sort(np.asarray(sample_ts, dtype=float))
            ev_sample = np.ones(ts.size, dtype=bool)
            ev_snap = np.full(ts.size, -1)
        total = np.asarray(es.gradient.moments(es.duration, gamma), dtype=float)
        if ts.size:
            partial = es.gradient.partial_moments(ts, es.duration, gamma)
            ev_dt = np.diff(ts, prepend=0.0)
            ev_dmom = np.diff(partial, axis=0, prepend=np.zeros((1, 3)))
            last_t, last_m = ts[-1], partial[-1]
        else:
            ev_dt, ev_dmom, last_t, last_m = np.zeros(0), np.zeros((0, 3)), 0.0, np.zeros(3)
        # tail: remaining evolution after the last event
        if last_t < es.duration or np.any(last_m != total):
            ev_dt = np.concatenate([ev_dt, [es.duration - last_t]])
            ev_dmom = np.concatenate([ev_dmom, [total - last_m]])
            ev_sample = np.concatenate([ev_sample, [False]])
            ev_snap = np.concatenate([ev_snap, [-1]])
        fields.append(
            dict(
                pulse_mat=mat,
                duration=es.duration,
                moments=total,
                ev_dt=ev_dt,
                ev_dmom=ev_dmom,
                ev_sample=ev_sample,
                ev_snap=ev_snap,
            )
        )
        if es.acquisition.enabled:
            fields[-1].update(acq=acq, n_samples=es.acquisition.n_samples)
            acq_times.append(t0 + sample_ts)
            acq += 1
        t0 = t1
    slots, n_slots = _factor_slots(
        [f["ev_dt"] for f in fields], [f["ev_dmom"] for f in fields]
    )
    return OperatorTables(
        entries=[EsTable(ev_slot=slot, **f) for f, slot in zip(fields, slots)],
        n_acq=acq,
        acq_times=acq_times,
        snapshot_times=snapshot_times,
        pulse_memo_hits=hits,
        gamma=gamma,
        factor_slots=n_slots,
    )


def _factor_slots(
    dts: List[np.ndarray], dmoms: List[np.ndarray]
) -> Tuple[List[np.ndarray], int]:
    """Factor slot of every event, per entry, and the number of slots.

    Keys are the rows ``(dt, *dmom)`` of all events; a key that evolves
    (not all zero) and occurs more than once gets a slot, numbered by
    falling count, then by first occurrence; every other event gets -1.
    """
    # + 0.0 turns -0.0 into 0.0, so equal keys have equal bytes; rows are
    # compared as 32-byte blobs, much faster than np.unique(axis=0)
    keys = np.column_stack([np.concatenate(dts), np.concatenate(dmoms)]) + 0.0
    bounds = np.cumsum([dt.size for dt in dts])[:-1]
    if not keys.size:
        return np.split(np.zeros(0, dtype=int), bounds), 0
    _, first, inverse, counts = np.unique(
        keys.view(np.dtype((np.void, keys.itemsize * 4))).ravel(),
        return_index=True,
        return_inverse=True,
        return_counts=True,
    )
    repeated = np.flatnonzero((counts > 1) & keys[first].any(axis=1))
    # most frequent keys first, so a block whose cache cannot hold every
    # slot keeps the ones it uses most
    repeated = repeated[np.lexsort((first[repeated], -counts[repeated]))]
    slot_of_key = np.full(first.size, -1)
    slot_of_key[repeated] = np.arange(repeated.size)
    return np.split(slot_of_key[inverse.ravel()], bounds), int(repeated.size)


# ---------------------------------------------------------------------------
# spin blocks
# ---------------------------------------------------------------------------


@dataclass
class SpinBlock:
    """Contiguous slice of the spin set with precomputed per-spin data."""

    index: int
    pos: np.ndarray  # (n, 3)
    mx: np.ndarray
    my: np.ndarray
    mz: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    m0: np.ndarray
    domega: np.ndarray  # rad/s, off-resonance in the rotating frame
    weight: np.ndarray  # complex receive weight

    @property
    def n(self) -> int:
        return self.mx.size


def build_spin_arrays(spins: SpinList, system: SystemModel) -> SpinBlock:
    """The rasterized spins as arrays, starting in thermal equilibrium,
    with off-resonance and coil weight evaluated on all positions at once."""
    n = len(spins)
    return SpinBlock(
        index=0,
        pos=spins.pos,
        mx=np.zeros(n),
        my=np.zeros(n),
        mz=spins.m0.copy(),
        t1=spins.t1,
        t2=spins.t2,
        m0=spins.m0,
        domega=spin_off_resonance(system.field, spins.pos, spins.delta_omega, system.frame()),
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
    """Evolve one block through the whole sequence.

    Returns (echo_partials, snapshots): echo_partials is a complex array
    (n_acq, n_samples) of coil-weighted transverse sums over the block;
    snapshots is a list of (n, 3) magnetization arrays, one per
    requested snapshot time.
    """
    pos, domega, m0 = block.pos, block.domega, block.m0
    w = np.ascontiguousarray(block.weight, dtype=complex)
    inv_t1, inv_t2 = 1.0 / block.t1, 1.0 / block.t2
    mxy = block.mx + 1j * block.my
    # free precession writes into the spare array and the two swap: an
    # in-place multiply costs about a microsecond more per call
    spare = np.empty_like(mxy)
    mz = block.mz  # never written in place: blocks are views of the run's arrays
    elapsed = 0.0  # time since Mz was last brought up to date
    # slots past the byte budget are computed inline like one-off keys
    n_cached = min(tables.factor_slots, _FACTOR_CACHE_BYTES // (16 * max(block.n, 1)))
    factors: List[Optional[np.ndarray]] = [None] * n_cached

    def factor(dt, dmom):
        return precession_factor(pos @ dmom + domega * dt, dt, inv_t2)

    def relaxed_mz():
        return regrow_mz(mz, m0, inv_t1, elapsed)

    n_samples = max((e.n_samples for e in tables.entries), default=0)
    echoes = np.zeros((tables.n_acq, n_samples), dtype=complex)
    snapshots: Dict[int, np.ndarray] = {}
    for entry in tables.entries:
        if entry.pulse_mat is not None:
            if elapsed:
                mz, elapsed = relaxed_mz(), 0.0
            mxy, mz = apply_rotation(entry.pulse_mat, mxy, mz)
        dmoms = entry.ev_dmom
        samples = []
        for i, (slot, dt, is_sample, snap) in enumerate(
            zip(
                entry.ev_slot.tolist(),
                entry.ev_dt.tolist(),
                entry.ev_sample.tolist(),
                entry.ev_snap.tolist(),
            )
        ):
            if 0 <= slot < n_cached:
                f = factors[slot]
                if f is None:
                    f = factors[slot] = factor(dt, dmoms[i])
            elif dt != 0.0 or dmoms[i].any():
                f = factor(dt, dmoms[i])
            else:
                f = None
            if f is not None:
                np.multiply(mxy, f, out=spare)
                mxy, spare = spare, mxy
            elapsed += dt
            if is_sample:
                samples.append(_zdotu(w, mxy))
            if snap >= 0:
                if elapsed:
                    mz, elapsed = relaxed_mz(), 0.0
                snapshots[snap] = np.column_stack([mxy.real, mxy.imag, mz])
        if samples:
            echoes[entry.acq, : len(samples)] = samples
    _log.debug(
        "block %d: %d factor slots, %d cached, %d factor-cache bytes",
        block.index,
        tables.factor_slots,
        n_cached,
        sum(f.nbytes for f in factors if f is not None),
    )
    snap_list = [snapshots.get(i) for i in range(len(tables.snapshot_times))]
    return echoes, snap_list


def simulate_spin(
    spin: SpinSample,
    tables: OperatorTables,
    domega: float = 0.0,
    weight: complex = 1.0 + 0.0j,
):
    """Evolve a single spin; returns (echo contributions, snapshots).

    Convenience wrapper over the block kernel for tests and oracles.
    """
    block = SpinBlock(
        index=0,
        pos=np.array([spin.position], dtype=float),
        mx=np.array([spin.m.mx]),
        my=np.array([spin.m.my]),
        mz=np.array([spin.m.mz]),
        t1=np.array([spin.relax.t1]),
        t2=np.array([spin.relax.t2]),
        m0=np.array([spin.relax.m0]),
        domega=np.array([float(domega)]),
        weight=np.array([complex(weight)]),
    )
    return compute_block(tables, block)


# ---------------------------------------------------------------------------
# run orchestration
# ---------------------------------------------------------------------------


@dataclass
class EchoRecord:
    """One acquisition: normalized complex samples plus their timestamps."""

    acq_index: int
    values: np.ndarray
    timestamps: np.ndarray


@dataclass
class RunMetrics:
    wall_time_s: float
    spin_count: int
    throughput: float  # spins per second of wall time
    workers: int
    blocks: int
    busy_fraction: Dict[int, float]
    hardware: str


@dataclass
class RunResult:
    echoes: List[EchoRecord]
    metrics: RunMetrics
    snapshots: List[Tuple[float, np.ndarray]]
    spin_count: int
    spacing: Tuple[float, float, float]
    spacing_report: Optional[SpacingReport] = None

    def echo_matrix(self) -> np.ndarray:
        return np.array([rec.values for rec in self.echoes])


@dataclass
class Experiment:
    sequence: Sequence
    phantom: Phantom
    system: SystemModel = field(default_factory=default_system)
    spacing: Optional[Tuple[float, float, float]] = None
    workers: int = 1
    deterministic: bool = True
    blocks: Optional[int] = None  # default 4 * workers
    snapshot_times: Tuple[float, ...] = ()
    spin_cap: int = 2_000_000


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
        t1, t2 = 1.0, 1.0
    return RelaxationParams(t1=t1, t2=t2, m0=1.0)


def _auto_spacing(exp: Experiment) -> Tuple[Tuple[float, float, float], SpacingReport]:
    """The spin spacing when none is given: the steady-state pruned
    bound (worst-case tissue, 256 gray levels), or twice the phantom's
    extent on an axis the sequence leaves unbounded."""
    report = max_spacing(exp.sequence, phantom=exp.phantom)
    try:
        chosen = pruned_max_spacing(exp.sequence, _worst_tissue(exp.phantom))
    except IncommensurateMoments:
        chosen = report
    lo, hi = exp.phantom.bounding_box()
    extent = np.maximum(np.asarray(hi) - np.asarray(lo), 1e-12)
    spacing = tuple(
        chosen.spacing[ax] if math.isfinite(chosen.spacing[ax]) else 2.0 * float(extent[ax])
        for ax in range(3)
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
    pruned: Optional[SpacingReport] = None
    problems = []
    for ax in range(3):
        if spacing[ax] < report.dx_max[ax]:
            continue
        if pruned is None:
            try:
                pruned = pruned_max_spacing(exp.sequence, _worst_tissue(exp.phantom))
            except IncommensurateMoments:
                pruned = report
        if spacing[ax] >= pruned.dx_max[ax]:
            problems.append(
                f"spacing override {spacing[ax]:.6g} m on axis {'xyz'[ax]} violates the "
                f"sampling bound {pruned.dx_max[ax]:.6g} m; expect replica artifacts"
            )
    return report, problems


def _warn_spacing(problems: List[str]) -> None:
    for message in problems:
        warnings.warn(message, stacklevel=3)  # at the caller of run()


def _worker_main(task_q, result_q, tables, worker_id, holding):
    """Compute blocks until the None sentinel; ``holding[worker_id]`` is
    the index of the block in hand (-1 between blocks), so the master
    can name it should this process die."""
    while True:
        task = task_q.get()
        if task is None:
            break
        block = task
        holding[worker_id] = block.index
        started = time.perf_counter()
        try:
            echoes, snaps = compute_block(tables, block)
        except Exception as exc:  # surfaced as WorkerPanic by the master
            result_q.put((block.index, None, None, worker_id, 0.0, repr(exc)))
        else:
            result_q.put(
                (block.index, echoes, snaps, worker_id, time.perf_counter() - started, None)
            )
        holding[worker_id] = -1


def run(exp: Experiment) -> RunResult:
    """Execute one experiment; see the module docstring for the roles."""
    if exp.workers < 1:
        raise InvalidParameter(f"workers must be >= 1, got {exp.workers}")
    wall_start = time.perf_counter()
    if exp.spacing is None:
        spacing, report = _auto_spacing(exp)
    else:
        spacing = tuple(float(s) for s in exp.spacing)
        if exp.workers == 1:
            report, problems = _check_spacing(exp, spacing)
            _warn_spacing(problems)
    spins = rasterize(exp.phantom, spacing, cap=exp.spin_cap)
    if not spins:
        raise InvalidParameter("the phantom rasterized to zero spins")
    arrays = build_spin_arrays(spins, exp.system)
    tables = precompute_sequence_tables(
        exp.sequence, gamma=exp.system.gamma, snapshot_times=exp.snapshot_times
    )
    n_blocks = exp.blocks if exp.blocks is not None else 4 * exp.workers
    blocks = partition_blocks(arrays, n_blocks)
    busy: Dict[int, float] = {}

    partials: Dict[int, tuple] = {}
    if exp.workers == 1:
        for block in blocks:
            started = time.perf_counter()
            partials[block.index] = compute_block(tables, block)
            busy[0] = busy.get(0, 0.0) + (time.perf_counter() - started)
        ordered = [partials[i] for i in sorted(partials)]
        folds = ordered
    else:
        # the master has nothing to do while the workers compute, so it
        # checks a spacing override then
        check = None if exp.spacing is None else (lambda: _check_spacing(exp, spacing))
        folds, ordered, checked = _run_pool(exp, tables, blocks, busy, meanwhile=check)
        if checked is not None:
            report, problems = checked
            _warn_spacing(problems)

    n_spins = arrays.n
    echo_sum: Optional[np.ndarray] = None
    for echoes, _snaps in folds:
        echo_sum = echoes if echo_sum is None else echo_sum + echoes
    # snapshots concatenate in block-index order regardless of the fold
    # order, preserving rasterization order
    snap_sums: List[Optional[np.ndarray]] = [None] * len(exp.snapshot_times)
    for _echoes, snaps in ordered:
        for i, snap in enumerate(snaps):
            if snap is None:
                continue
            snap_sums[i] = snap if snap_sums[i] is None else np.vstack([snap_sums[i], snap])
    records = []
    if echo_sum is not None and tables.n_acq:
        echo_sum = echo_sum / n_spins
        for i in range(tables.n_acq):
            records.append(
                EchoRecord(
                    acq_index=i,
                    values=echo_sum[i, : tables.acq_times[i].size],
                    timestamps=tables.acq_times[i],
                )
            )
    wall = time.perf_counter() - wall_start
    metrics = RunMetrics(
        wall_time_s=wall,
        spin_count=n_spins,
        throughput=n_spins / wall if wall > 0 else math.inf,
        workers=exp.workers,
        blocks=len(blocks),
        busy_fraction={w: t / wall for w, t in sorted(busy.items())} if wall > 0 else {},
        hardware=f"{platform.machine()} {platform.processor() or 'cpu'} x{os.cpu_count()}",
    )
    snapshots = [
        (t, snap_sums[i] if snap_sums[i] is not None else np.zeros((0, 3)))
        for i, t in enumerate(exp.snapshot_times)
    ]
    return RunResult(
        echoes=records,
        metrics=metrics,
        snapshots=snapshots,
        spin_count=n_spins,
        spacing=spacing,
        spacing_report=report,
    )


def _run_pool(exp: Experiment, tables: OperatorTables, blocks, busy, meanwhile=None):
    """Dispatch blocks to worker processes over bounded queues.

    The task queue is bounded so the partitioner only stays ahead of the
    workers by a fixed number of blocks; a block is retired only after
    the reducer has folded its partial result (backpressure toward the
    master).  Returns (fold_order, index_order, side): deterministic
    mode folds echoes in ascending block index, nondeterministic mode in
    completion order; side is the value of ``meanwhile()``, which the
    master calls once the first blocks are queued (None without it).  A
    worker that exits without reporting (killed, ``os._exit``) is
    noticed while waiting for results and raised as
    :class:`WorkerPanic` naming a block that never came back.
    """
    ctx = mp.get_context()
    task_q = ctx.Queue(maxsize=max(2, 2 * exp.workers))
    result_q = ctx.Queue()
    holding = ctx.RawArray("q", [-1] * exp.workers)
    workers = [
        ctx.Process(
            target=_worker_main, args=(task_q, result_q, tables, wid, holding), daemon=True
        )
        for wid in range(exp.workers)
    ]
    for proc in workers:
        proc.start()
    sent = 0
    done = 0
    arrival: List[tuple] = []
    by_index: Dict[int, tuple] = {}
    failure = None
    side = None
    clean = False

    def feed() -> None:
        nonlocal sent
        while sent < len(blocks):
            try:
                task_q.put_nowait(blocks[sent])
            except queue_mod.Full:
                break
            sent += 1

    try:
        feed()
        if meanwhile is not None:
            side = meanwhile()
        while done < len(blocks):
            feed()
            try:
                index, echoes, snaps, wid, t_comp, err = result_q.get(timeout=_POLL_S)
            except queue_mod.Empty:
                dead = next((w for w, p in enumerate(workers) if p.exitcode is not None), None)
                if dead is not None:
                    failure = _dead_worker_panic(
                        workers[dead], holding[dead], blocks[:sent], by_index
                    )
                    break
                continue
            done += 1
            if err is not None:
                failure = WorkerPanic(index, err)
                break
            busy[wid] = busy.get(wid, 0.0) + t_comp
            arrival.append((echoes, snaps))
            by_index[index] = (echoes, snaps)
        clean = failure is None
    finally:
        if not clean:
            # blocks nobody will read must not hold up interpreter exit
            task_q.cancel_join_thread()
            for proc in workers:
                proc.terminate()
        else:
            for _ in workers:
                task_q.put(None)
        for proc in workers:
            proc.join()
        task_q.close()
        result_q.close()
    if failure is not None:
        raise failure
    ordered = [by_index[i] for i in sorted(by_index)]
    return (ordered if exp.deterministic else arrival), ordered, side


def _dead_worker_panic(proc, held: int, sent_blocks, by_index) -> WorkerPanic:
    """Name the block a worker died on: the one it held, or else the
    first block that was sent but has not come back."""
    died = f"worker process {proc.pid} exited with code {proc.exitcode} without reporting"
    if held >= 0 and held not in by_index:
        return WorkerPanic(held, f"{died} while computing this block")
    outstanding = [b.index for b in sent_blocks if b.index not in by_index]
    return WorkerPanic(outstanding[0], f"{died}; this block was sent but never returned")


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
    components whose relative error exceeds the threshold.  Components
    where both values sit at machine-epsilon scale are not rated.
    """
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
