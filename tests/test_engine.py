import dataclasses
import fractions
import itertools
import logging
import math
import multiprocessing as mp
import os
import re
import signal
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrsim import engine
from mrsim.bloch import (
    GAMMA_PROTON,
    HardPulse,
    RelaxationParams,
    hard_pulse_coefficients,
    precession_factor,
)
from mrsim.discretize import max_spacing, pruned_max_spacing
from mrsim.engine import (
    Experiment,
    SpinBlock,
    compare_results,
    compute_block,
    delta_e_stoer,
    partition_blocks,
    build_spin_arrays,
    precompute_sequence_tables,
    run,
)
from mrsim.errors import IncommensurateMoments, InvalidParameter, WorkerPanic
from mrsim.io import (
    read_echo_file,
    read_raw_grid,
    read_snapshot_file,
    write_echo_file,
    write_raw_grid,
    write_snapshot_file,
)
from mrsim.ktspace import derive_unit_k
from mrsim.phantom import Phantom, PhantomBox, SpinSample, rasterize
from mrsim.sequence import (
    AcquisitionSpec,
    ElementarySequence,
    GradientWaveform,
    Sequence,
    build_spin_echo,
    build_tse,
    distinct_elements,
    parse_sequence_file,
    readout_gradient,
)
from mrsim.system import default_system

from oracles import reference_kernel, reference_snapshots, shaped_pulse


def box_phantom(m0=1.0, t2=0.2):
    return Phantom(
        [
            PhantomBox(
                origin=(-0.05, -0.04, -5e-4),
                size=(0.1, 0.08, 1e-3),
                m0=m0,
                t1=1.0,
                t2=t2,
            )
        ]
    )


def spin_block(spin, domega=0.0, weight=1.0 + 0.0j):
    """A one-spin block of the spin sample."""
    return SpinBlock(
        index=0,
        pos=np.array([spin.position], dtype=float),
        t1=np.array([spin.relax.t1]),
        t2=np.array([spin.relax.t2]),
        m0=np.array([spin.relax.m0]),
        domega=np.array([float(domega)]),
        weight=np.array([complex(weight)]),
    )


def small_experiment(**kw):
    g = readout_gradient(0.25, 16, 0.008)
    seq = build_spin_echo(fov=0.25, n=16, te=0.03, tr=1.0, readout_grad=g)
    defaults = dict(
        sequence=seq,
        phantom=box_phantom(),
        spacing=(0.008, 0.008, 0.002),
        workers=1,
    )
    defaults.update(kw)
    return Experiment(**defaults)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _logging_calls(method, name, calls):
    def logged(*args, **kwargs):
        calls.append(name)
        return method(*args, **kwargs)

    return logged


def test_a_second_run_derives_only_its_snapshot_moments(monkeypatch):
    # the snapshots fall in two elements, three of them in the first
    exp = small_experiment(snapshot_times=(0.0, 0.004, 0.0041, 0.5))
    calls = []
    for cls, name in ((GradientWaveform, "partial_moments"), (AcquisitionSpec, "sample_times")):
        monkeypatch.setattr(cls, name, _logging_calls(getattr(cls, name), name, calls))
    run(exp)
    calls.clear()
    run(exp)
    # one partial_moments call per element that holds snapshots, for their instants
    assert calls == ["partial_moments", "partial_moments"]


def test_tables_one_entry_per_elementary_sequence():
    seq = build_tse(0.5, 32, 2, 0.03, 0.8, readout_gradient(0.5, 32, 0.01))
    tables = precompute_sequence_tables(seq)
    assert len(tables.entries) == len(seq.elements)
    assert len(tables.acq_times) == 32


def test_pulse_memo_shares_repeated_pulses():
    seq = build_tse(0.5, 16, 2, 0.03, 0.8, readout_gradient(0.5, 16, 0.01))
    tables = precompute_sequence_tables(seq)
    assert tables.pulse_memo_hits > 0


def test_memoized_tables_bit_identical_to_recomputation():
    seq = build_spin_echo(0.25, 8, 0.03, 0.5, readout_gradient(0.25, 8, 0.008))
    # per row: encoding lobe, 180, readout, filler; a snapshot 1 ms into
    # the third row's readout, whose event arrays every readout shares
    snapped = 10
    t_snap = sum(es.duration for es in seq.elements[:snapped]) + 1e-3
    tables = precompute_sequence_tables(seq, snapshot_times=(t_snap,))
    assert tables.pulse_memo_hits > 0
    events = ("ev_dt", "ev_dmom")

    def bits(a):
        return a.dtype, a.shape, a.tobytes()

    for i, (es, entry) in enumerate(zip(seq.elements, tables.entries)):
        if es.pulse is None:
            assert entry.pulse_mat is None
        else:
            assert entry.pulse_mat == hard_pulse_coefficients(es.pulse.alpha, es.pulse.phi)
        alone = precompute_sequence_tables(Sequence([es])).entries[0]
        for name in events:
            assert bits(getattr(entry, name)) == bits(getattr(alone, name)), (i, name)
    assert list(tables.snaps) == [snapped]
    shared, snap = tables.entries[2], tables.entries[snapped]
    assert tables.entries[6].ev_dt is shared.ev_dt
    assert snap.ev_dt is shared.ev_dt and snap.ev_dmom is shared.ev_dmom
    [(t, moment, index)] = tables.snaps[snapped]
    assert t == pytest.approx(1e-3, abs=1e-15) and index == 0
    g = seq.elements[snapped].gradient
    assert np.array_equal(moment, g.partial_moments([t])[0])
    for name in events:
        with pytest.raises(ValueError):
            getattr(shared, name)[0] = 1


def test_tables_log_element_and_distinct_counts(caplog):
    seq = build_spin_echo(0.25, 8, 0.03, 0.5, readout_gradient(0.25, 8, 0.008))
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        precompute_sequence_tables(seq)
    assert any("32 elements, 11 distinct" in rec.getMessage() for rec in caplog.records)


# ---------------------------------------------------------------------------
# single-spin physics through the kernel
# ---------------------------------------------------------------------------


def delay_and_sample(te, t2, n=5):
    els = [
        ElementarySequence(pulse=HardPulse(math.pi / 2, 0.0), duration=te),
        ElementarySequence(
            duration=1e-3, acquisition=AcquisitionSpec(n), kspace_row=0
        ),
    ]
    return Sequence(els, name="fid")


def test_simulate_spin_fid_amplitude():
    t2, te = 0.2, 0.05
    tables = precompute_sequence_tables(delay_and_sample(te, t2))
    spin = SpinSample(position=(0, 0, 0), relax=RelaxationParams(1.0, t2, 1.0))
    echoes, _ = compute_block(tables, spin_block(spin, weight=0.5 + 0.0j))
    assert abs(echoes[0, 0]) == pytest.approx(0.5 * math.exp(-te / t2), rel=1e-12)


def test_simulate_spin_zero_m0_contributes_nothing():
    tables = precompute_sequence_tables(delay_and_sample(0.05, 0.2))
    spin = SpinSample(position=(0.01, 0, 0), relax=RelaxationParams(1.0, 0.2, 0.0))
    echoes, _ = compute_block(tables, spin_block(spin))
    assert np.all(echoes == 0)


def test_rf_shaped_file_runs_like_apply_shaped_pulse(tmp_path):
    # the kernel runs the hard pulses of bloch.hard_pulse_decomposition;
    # the oracle turns the spin sample by sample with axis-angle rotations
    t = np.linspace(-3.0, 3.0, 40)
    envelope_ut = np.column_stack([20.0 * np.sinc(t), 6.0 * np.sinc(t - 1.0)])
    envelope_ut[5] = 0.0  # a zero sample is free evolution without a pulse
    np.savetxt(tmp_path / "env.txt", envelope_ut)
    dt, domega = 1e-5, 300.0
    seq = parse_sequence_file(
        f"[rf_shaped]\nsamples = env.txt\nsample_dt_s = {dt!r}\n", base_dir=str(tmp_path)
    )
    relax = RelaxationParams(0.8, 0.05, 1.0)
    spin = SpinSample(position=(0, 0, 0), relax=relax)
    tables = precompute_sequence_tables(seq, snapshot_times=(seq.duration,))
    _, snaps = compute_block(tables, spin_block(spin, domega=domega))
    want = shaped_pulse(
        (0, 0, 1),
        relax,
        (envelope_ut[:, 0] + 1j * envelope_ut[:, 1]) * 1e-6,
        dt,
        domega * dt,
    )
    assert math.hypot(want[0], want[1]) > 0.3
    np.testing.assert_allclose(snaps[0][0], want, rtol=0, atol=1e-12)


def test_opposite_positions_sum_to_real_signal():
    # 90 deg pulse with phase -90 puts magnetization along +x; a gradient
    # then winds opposite phases at +-x, so the pair sums to a real signal
    k = 500.0
    els = [
        ElementarySequence(pulse=HardPulse(math.pi / 2, -math.pi / 2), duration=0.0),
        ElementarySequence(
            gradient=GradientWaveform.constant(gx=k / (GAMMA_PROTON * 0.01)),
            duration=0.01,
            acquisition=AcquisitionSpec(9),
            kspace_row=0,
        ),
    ]
    tables = precompute_sequence_tables(Sequence(els, name="pair"))
    relax = RelaxationParams(math.inf, math.inf, 1.0)
    total = np.zeros((1, 9), dtype=complex)
    for x in (+0.004, -0.004):
        spin = SpinSample(position=(x, 0, 0), relax=relax)
        echoes, _ = compute_block(tables, spin_block(spin))
        total += echoes
    np.testing.assert_allclose(total.imag, 0.0, atol=1e-14)
    assert np.max(np.abs(total.real)) > 0.1


# ---------------------------------------------------------------------------
# fused kernel against the two-real-array reference kernel
# ---------------------------------------------------------------------------

ORACLE_SNAPSHOTS = (0.0105, 0.03, 0.06)


def oracle_sequence():
    """Several pulses, T1 regrowth between them, a one-off phase-encode
    lobe and a readout / prephaser pair that each occur twice."""
    prephase = GradientWaveform.constant(gx=-5e-3)
    readout = GradientWaveform.constant(gx=1e-2)
    els = [
        ElementarySequence(pulse=HardPulse(math.pi / 2, 0.3), gradient=prephase, duration=2e-3),
        ElementarySequence(gradient=GradientWaveform.constant(gy=3e-3), duration=1e-3),
        ElementarySequence(pulse=HardPulse(math.pi, math.pi / 2), duration=4e-3),
        ElementarySequence(
            gradient=readout, duration=6e-3, acquisition=AcquisitionSpec(7), kspace_row=0
        ),
        ElementarySequence(pulse=HardPulse(math.pi / 3, -0.4), duration=0.08),
        ElementarySequence(pulse=HardPulse(math.pi / 2, 1.1), gradient=prephase, duration=2e-3),
        ElementarySequence(
            gradient=readout, duration=6e-3, acquisition=AcquisitionSpec(7), kspace_row=1
        ),
    ]
    return Sequence(els, name="oracle")


def oracle_block(n=40, seed=3):
    rng = np.random.default_rng(seed)
    m0 = rng.uniform(0.5, 1.5, n)
    return SpinBlock(
        index=0,
        pos=rng.uniform(-0.02, 0.02, (n, 3)),
        t1=rng.uniform(0.2, 1.5, n),
        t2=rng.uniform(0.03, 0.3, n),
        m0=m0,
        domega=rng.uniform(-80.0, 80.0, n),
        weight=rng.normal(size=n) + 1j * rng.normal(size=n),
    )


def test_fused_kernel_matches_reference_kernel():
    tables = precompute_sequence_tables(oracle_sequence(), snapshot_times=ORACLE_SNAPSHOTS)
    block = oracle_block()
    echoes, snaps = compute_block(tables, block)
    ref_echoes, ref_snaps = reference_kernel(tables, block)
    assert np.abs(ref_echoes).max() > 1e-2
    assert delta_e_stoer(ref_echoes, echoes) <= -250.0
    for snap, ref_snap in zip(snaps, ref_snaps):
        assert delta_e_stoer(ref_snap, snap) <= -250.0
    # both later snapshots sit inside the 80 ms delay after the third
    # pulse: Mz regrows analytically from one to the other
    e1 = np.exp(-(ORACLE_SNAPSHOTS[2] - ORACLE_SNAPSHOTS[1]) / block.t1)
    np.testing.assert_allclose(
        snaps[2][:, 2], snaps[1][:, 2] * e1 + block.m0 * (1.0 - e1), rtol=1e-12
    )


@pytest.mark.parametrize("snapshots", [(), ORACLE_SNAPSHOTS])
def test_kernel_echoes_equal_per_row_dot_products(monkeypatch, snapshots):
    """The kernel's one vecdot per readout gives exactly the per-row
    np.dot of each of its sample rows with w * mxy.  With the snapshots,
    the first falls among the samples of the first readout and adds no
    row.  That these are the right rows, the reference kernel test
    checks."""
    tables = precompute_sequence_tables(oracle_sequence(), snapshot_times=snapshots)
    block = oracle_block()
    calls = []

    def per_row(rows, conj_wm):
        # vecdot(rows, conj(wm)) is conj(sum(row * wm)) per row
        calls.append(rows.shape)
        return np.array([np.dot(row, conj_wm.conj()) for row in rows]).conj()

    with monkeypatch.context() as patched:
        patched.setattr(np, "vecdot", per_row)
        by_row, _ = compute_block(tables, block)
    echoes, _ = compute_block(tables, block)
    assert calls == [(7, block.n)] * 2
    assert np.abs(echoes).max() > 1e-2
    assert np.array_equal(echoes, by_row)


def test_propagator_groups_only_for_recurring_elements():
    els = oracle_sequence().elements
    seq = Sequence(els + [dataclasses.replace(els[6], kspace_row=2)])
    # entries 3, 6 and 7 are the readout; the first holds a snapshot,
    # which changes neither the groups nor the shared event arrays
    plain = precompute_sequence_tables(seq)
    tables = precompute_sequence_tables(seq, snapshot_times=ORACLE_SNAPSHOTS)
    groups = [-1, -1, -1, 0, -1, -1, 0, 0]
    assert [e.group for e in plain.entries] == [e.group for e in tables.entries] == groups
    assert tables.entries[3].ev_dt is tables.entries[6].ev_dt is tables.entries[7].ev_dt
    assert 3 in tables.snaps and 6 not in tables.snaps
    assert tables.group_rows == plain.group_rows == [tables.entries[6].ev_dt.size]


def test_tables_log_group_rows_and_distinct_steps(caplog):
    """The oracle's one group, its 7-sample readout, steps from its start
    to the first sample (no time, no moment), then by 1 ms at a constant
    gradient; sample times and moments that are not multiples of one
    bit-exact step give the rest."""
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        tables = precompute_sequence_tables(oracle_sequence())
    readout = tables.entries[3]
    rows = np.column_stack([readout.ev_dmom, readout.ev_dt])
    assert len({row.tobytes() for row in rows}) == 4
    assert any(
        "7 elements, 6 distinct, 7 group rows from 4 distinct steps" in rec.getMessage()
        for rec in caplog.records
    )
    dt, dmom, of_event = readout.steps
    assert np.array_equal(dt[of_event], readout.ev_dt)
    assert np.array_equal(dmom[of_event], readout.ev_dmom)


def recurring_readout(n_samples, prephase=True):
    """A 90 and an 8 ms readout of n_samples at a constant gradient, twice:
    the readout is a group, and with the prephaser its echo peaks
    mid-readout."""
    duration = 8e-3
    readout = GradientWaveform.constant(gx=1e-3)
    lead = dict(gradient=GradientWaveform.constant(gx=-1e-3), duration=duration / 2)
    els = []
    for row in range(2):
        els.append(
            ElementarySequence(pulse=HardPulse(math.pi / 2, 0.3), **(lead if prephase else {}))
        )
        els.append(
            ElementarySequence(
                gradient=readout,
                duration=duration,
                acquisition=AcquisitionSpec(n_samples),
                kspace_row=row,
            )
        )
    return Sequence(els)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is double here"
)
@pytest.mark.parametrize("row_columns", [256, 1], ids=["accumulate", "row-by-row"])
def test_long_recurring_readout_follows_the_long_double_evolution(monkeypatch, row_columns):
    """A running product of 2,048 rows, in either form, stays within
    -270 dB of the event-by-event evolution in long double.  Without its
    restarts every 64 rows it drifts to about -260 dB: each of the
    readout's few distinct steps rounds its T2 decay and its turn the
    same way at every event.  The float reference kernel drifts as far
    for the same reason, so it is compared at the usual -250 dB."""
    import mrsim.engine as engine_mod

    monkeypatch.setattr(engine_mod, "_ROW_PRODUCT_COLUMNS", row_columns)
    tables = precompute_sequence_tables(recurring_readout(2048))
    readout = tables.entries[1]
    assert readout.group >= 0 and readout.n_samples == 2048
    assert readout.steps[0].size < readout.ev_dt.size // 8
    block = oracle_block(n=200)
    echoes, _ = compute_block(tables, block)
    exact, _ = reference_kernel(tables, block, dtype=np.longdouble)
    assert np.abs(exact).max() > 1e-2
    assert delta_e_stoer(exact, echoes) <= -270.0
    ref_echoes, _ = reference_kernel(tables, block)
    assert delta_e_stoer(ref_echoes, echoes) <= -250.0


def test_group_build_evaluates_one_factor_row_per_distinct_step(monkeypatch):
    import mrsim.engine as engine_mod

    tables = precompute_sequence_tables(recurring_readout(48, prephase=False))
    readout = tables.entries[1]
    assert [e.ev_dt.size for e in tables.entries[::2]] == [0, 0]
    rows = np.column_stack([readout.ev_dmom, readout.ev_dt])
    steps = len({row.tobytes() for row in rows})
    assert readout.group >= 0 and readout.steps[0].size == steps < readout.ev_dt.size // 2
    block = oracle_block()
    evaluated = []

    def counted(phase, dt, inv_t2, out=None):
        evaluated.append(np.shape(phase))
        return precession_factor(phase, dt, inv_t2, out=out)

    monkeypatch.setattr(engine_mod, "precession_factor", counted)
    echoes, _ = compute_block(tables, block)
    # the readout is built once and read from the cache the second time
    assert evaluated == [(steps, block.n)]
    ref_echoes, _ = reference_kernel(tables, block)
    assert delta_e_stoer(ref_echoes, echoes) <= -250.0


def test_kernel_logs_factor_cache_size(caplog):
    tables = precompute_sequence_tables(oracle_sequence())
    block = oracle_block()
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        compute_block(tables, block)
    groups, rows = len(tables.group_rows), sum(tables.group_rows)
    expected = f"{groups} propagator groups, {rows * block.n * 16} propagator-cache bytes"
    assert rows > 0
    assert any(
        f"block 0: {block.n} spins, " in rec.getMessage() and expected in rec.getMessage()
        for rec in caplog.records
    )


def propagator_rows(tables):
    """Rows per spin that a kernel block holds at most: every group's
    propagator, every numbered factor part and T1 interval, plus twice the
    largest propagator of an element that occurs once (its factor and the
    one uncached part alive with it)."""
    own = max((e.ev_dt.size for e in tables.entries if e.group < 0), default=0)
    return sum(tables.group_rows) + sum(tables.part_rows) + len(tables.t1_intervals) + 2 * own


def run_on_spins(monkeypatch, spins, **kw):
    """run() of ``small_experiment(**kw)`` on the given spin arrays in
    place of its rasterized phantom.  Returns the result, its echo sums
    and snapshots, and the spins of each block that run handed the
    kernel, recorded in the kernel's process."""
    import mrsim.engine as engine_mod

    kernel = engine_mod.compute_block
    handed = mp.get_context().SimpleQueue()

    def recorded(tables, block):
        handed.put(block.n)
        return kernel(tables, block)

    monkeypatch.setattr(engine_mod, "build_spin_arrays", lambda rasterized, system: spins)
    monkeypatch.setattr(engine_mod, "compute_block", recorded)
    with warnings.catch_warnings():
        # the phantom's spacing need not suit the sequence: its spins are not run
        warnings.simplefilter("ignore")
        result = run(small_experiment(**kw))
    echoes = result.echo_matrix() * spins.n
    snaps = [snap for _t, snap in result.snapshots]
    sizes = [handed.get() for _ in range(result.metrics.blocks)]
    handed.close()
    return result, echoes, snaps, sizes


def block_lines(caplog):
    return [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("block ")]


def test_factor_cache_stays_within_byte_budget(monkeypatch, caplog):
    import mrsim.engine as engine_mod

    # the second pass repeats every element, so each is a group
    seq = Sequence(oracle_sequence().elements * 2)
    tables = precompute_sequence_tables(seq, snapshot_times=ORACLE_SNAPSHOTS)
    spins = oracle_block()
    assert len(tables.group_rows) > 2
    # room for the propagators of 13 spins: run cuts 4 blocks, and every
    # block caches every group
    budget = 16 * propagator_rows(tables) * 13
    monkeypatch.setattr(engine_mod, "_PROPAGATOR_BYTES", budget + 15)
    assert engine_mod._block_spins(tables) == 13
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        result, echoes, snaps, handed = run_on_spins(
            monkeypatch, spins, sequence=seq, snapshot_times=ORACLE_SNAPSHOTS
        )
    assert result.metrics.blocks == 4 and handed == [10] * 4
    lines = block_lines(caplog)
    assert len(lines) == 4
    for i, line in enumerate(lines):
        assert line.startswith(
            f"block {i}: 10 spins, {len(tables.group_rows)} propagator groups, "
            f"{16 * sum(tables.group_rows) * 10} propagator-cache bytes"
        )
    ref_echoes, ref_snaps = reference_kernel(tables, spins)
    assert delta_e_stoer(ref_echoes, echoes) <= -250.0
    for snap, ref_snap in zip(snaps, ref_snaps):
        assert snap.shape == (spins.n, 3)
        assert delta_e_stoer(ref_snap, snap) <= -250.0


def test_one_off_readout_is_chunked_to_the_budget(monkeypatch, caplog):
    import mrsim.engine as engine_mod

    # the sequence's only readout occurs once: no propagator is cached
    tables_sequence = Sequence(oracle_sequence().elements[:4])
    tables = precompute_sequence_tables(tables_sequence)
    assert tables.group_rows == []
    readout_rows = tables.entries[3].ev_dt.size
    assert 2 * readout_rows == propagator_rows(tables) >= 14
    spins = oracle_block()
    monkeypatch.setattr(engine_mod, "_PROPAGATOR_BYTES", 16 * propagator_rows(tables) * 10)
    assert engine_mod._block_spins(tables) == 10
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        result, echoes, _, handed = run_on_spins(monkeypatch, spins, sequence=tables_sequence)
    assert result.metrics.blocks == 4 and handed == [10] * 4
    lines = block_lines(caplog)
    assert len(lines) == 4
    for i, line in enumerate(lines):
        assert line.startswith(
            f"block {i}: 10 spins, 0 propagator groups, 0 propagator-cache bytes"
        )
    ref_echoes, _ = reference_kernel(tables, spins)
    assert delta_e_stoer(ref_echoes, echoes) <= -250.0


# ---------------------------------------------------------------------------
# propagators on the distinct keys of a block
# ---------------------------------------------------------------------------


def keyed_block(pos, domega, t2, seed=5):
    """A block at the given positions, off-resonances and T2s.  T1, m0
    and the coil weights are random: none of them enters a propagator
    column, so they split none."""
    n = len(pos)
    rng = np.random.default_rng(seed)
    return SpinBlock(
        index=0,
        pos=np.asarray(pos, dtype=float),
        t1=rng.uniform(0.2, 1.5, n),
        t2=np.broadcast_to(np.asarray(t2, dtype=float), (n,)).copy(),
        m0=rng.uniform(0.5, 1.5, n),
        domega=np.broadcast_to(np.asarray(domega, dtype=float), (n,)).copy(),
        weight=rng.normal(size=n) + 1j * rng.normal(size=n),
    )


def lattice_block(nx=16):
    """nx x 8 x 2 sites 2 mm apart in one tissue: nx distinct x and 8
    distinct y, x slowest."""
    axes = [np.arange(nx) * 2e-3 - nx * 1e-3, np.arange(8) * 2e-3 - 8e-3, np.array([-1e-3, 1e-3])]
    pos = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return keyed_block(pos, domega=25.0, t2=0.1)


def one_site(n):
    return np.tile([4e-3, -3e-3, 1e-3], (n, 1))


def cycle(values, n):
    return np.asarray(values)[np.arange(n) % len(values)]


def logged_kernel(caplog, tables, block):
    """compute_block's result and its DEBUG line."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        result = compute_block(tables, block)
    [line] = block_lines(caplog)
    return result, line


def columns_per_block(line):
    """'columns/spins': the columns of the widest propagator and the spins
    of the block that a kernel DEBUG line reports."""
    match = re.fullmatch(r"block \d+: (\d+) spins, .*, widest propagator (\d+) columns", line)
    return f"{match[2]}/{match[1]}"


def assert_matches_reference_kernel(tables, block, echoes, snaps):
    ref_echoes, ref_snaps = reference_kernel(tables, block)
    assert np.abs(ref_echoes).max() > 1e-2
    assert delta_e_stoer(ref_echoes, echoes) <= -250.0
    for snap, ref_snap in zip(snaps, ref_snaps):
        assert snap.shape == (block.n, 3)
        assert delta_e_stoer(ref_snap, snap) <= -250.0


def test_lattice_block_builds_one_propagator_column_per_lattice_column(caplog):
    tables = precompute_sequence_tables(oracle_sequence(), snapshot_times=ORACLE_SNAPSHOTS)
    block = lattice_block()
    (echoes, snaps), line = logged_kernel(caplog, tables, block)
    # the readout and the prephaser move x, the phase-encode lobe y
    assert sorted({e.axes for e in tables.entries}) == [(), (0,), (1,)]
    assert columns_per_block(line) == "16/256"
    assert_matches_reference_kernel(tables, block, echoes, snaps)


@pytest.mark.parametrize(
    "column",
    [
        dict(domega=25.0, t2=cycle([0.03, 0.08, 0.3], 256)),
        dict(domega=cycle([-60.0, 0.0, 45.0], 256), t2=0.1),
    ],
    ids=["t2", "domega"],
)
def test_spins_at_one_site_keep_a_column_per_distinct_t2_or_domega(caplog, column):
    tables = precompute_sequence_tables(oracle_sequence(), snapshot_times=ORACLE_SNAPSHOTS)
    block = keyed_block(one_site(256), **column)
    (echoes, snaps), line = logged_kernel(caplog, tables, block)
    assert columns_per_block(line) == "3/256"
    assert_matches_reference_kernel(tables, block, echoes, snaps)


@pytest.mark.parametrize(
    "spins, distinct, columns", [(256, 128, 128), (256, 129, 256), (255, 3, 255)]
)
def test_columns_are_keyed_up_to_half_of_at_least_256_spins(caplog, spins, distinct, columns):
    """At 128 distinct off-resonances among 256 spins the propagators have
    128 columns; at 129, or on 255 spins, they keep one per spin."""
    tables = precompute_sequence_tables(oracle_sequence(), snapshot_times=ORACLE_SNAPSHOTS)
    values = np.random.default_rng(7).uniform(-80.0, 80.0, distinct)
    block = keyed_block(one_site(spins), domega=cycle(values, spins), t2=0.1)
    (echoes, snaps), line = logged_kernel(caplog, tables, block)
    assert columns_per_block(line) == f"{columns}/{spins}"
    assert_matches_reference_kernel(tables, block, echoes, snaps)


def test_kernel_logs_keyed_columns_and_reduced_cache_bytes(monkeypatch, caplog):
    import mrsim.engine as engine_mod

    tables = precompute_sequence_tables(oracle_sequence())
    spins = lattice_block(nx=32)
    # two blocks of 256 spins, each on 16 of the lattice's 32 x values:
    # the readout's and the prephaser's 16 columns are the most
    monkeypatch.setattr(engine_mod, "_PROPAGATOR_BYTES", 16 * propagator_rows(tables) * 256)
    readout = tables.entries[3]
    assert readout.group >= 0 and readout.n_samples == readout.ev_t.size == 7
    assert tables.group_rows == [7]
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        _, echoes, _, handed = run_on_spins(monkeypatch, spins, sequence=oracle_sequence())
    assert handed == [256, 256]
    # the readout, the one group, keeps its 7 rows on 16 columns and its
    # last row per spin, which carries mxy through the element
    cache = 16 * (7 * 16 + 256)
    # the two one-off prephasers share their time part, on the one
    # (domega, T2) column, and their x part, on 16 x values
    parts = 16 * (1 + 16)
    assert block_lines(caplog) == [
        f"block {i}: 256 spins, 1 propagator groups, {cache} propagator-cache "
        f"bytes, 2 cached factor parts of {parts} bytes, 0 cached T1 intervals, "
        "widest propagator 16 columns"
        for i in range(2)
    ]
    ref_echoes, _ = reference_kernel(tables, spins)
    assert delta_e_stoer(ref_echoes, echoes) <= -250.0


def test_number_tuples_separates_tuples_whose_count_product_passes_int64():
    from mrsim.engine import _codes, _number_tuples

    rng = np.random.default_rng(11)
    # 3,000 spins on 1,000 tuples of 7 columns, each column about 630 values
    tuples = rng.integers(0, 1000, (1000, 7)) * 0.1
    spins = tuples[rng.integers(0, len(tuples), 3000)]
    codes = [_codes(col) for col in spins.T]
    assert math.prod(int(code.max()) + 1 for code in codes) > 2**63
    of_spin, spin = _number_tuples(codes)
    assert spin.size == len(np.unique(spins, axis=0))
    # the spin that stands for each spin's tuple has the same one
    assert np.array_equal(spins[spin[of_spin]], spins)


# ---------------------------------------------------------------------------
# one-off elements from shared factor parts; T1 regrowth per interval
# ---------------------------------------------------------------------------


def phase_encoded_spin_echo():
    """8 rows of a spin echo.  Each row's encoding lobe (the 90, the x
    prephaser and the row's y phase encode) occurs once; the lobes share
    their duration and their x moment."""
    return build_spin_echo(0.25, 8, 0.03, 0.5, readout_gradient(0.25, 8, 0.008))


def grid_block(domega):
    """16 x 16 x 2 sites 2 mm apart in one tissue: 256 distinct (x, y)
    sites, two spins on each."""
    axes = np.arange(16) * 2e-3 - 16e-3
    pos = np.stack(np.meshgrid(axes, axes, [-1e-3, 1e-3], indexing="ij"), axis=-1)
    return keyed_block(pos.reshape(-1, 3), domega=domega, t2=0.1)


@pytest.mark.parametrize(
    "domega, time_columns, lobe_columns",
    [(np.random.default_rng(9).uniform(-80.0, 80.0, 512), 512, 512), (25.0, 1, 256)],
    ids=["per-spin", "keyed"],
)
def test_one_off_lobes_multiply_shared_time_and_x_parts(caplog, domega, time_columns, lobe_columns):
    """A Legendre-like field gives every spin its own off-resonance, so
    the block keeps a column per spin and the time part is evaluated per
    spin; in a homogeneous field it is one (domega, T2) column and the
    lobes are keyed on the (x, y) sites.  Either way the x part is
    evaluated on the 16 x values and each lobe's y part on the 16 y
    values."""
    tables = precompute_sequence_tables(phase_encoded_spin_echo())
    lobes = [e for e in tables.entries if e.group < 0]
    assert len(lobes) == 8 and all(e.ev_t.size == 1 and e.axes == (0, 1) for e in lobes)
    # one time part, one x part, and each row's own y part
    assert [e.parts for e in lobes] == [(0, 1, -1)] * 8
    assert tables.part_rows == [1, 1]
    block = grid_block(domega)
    (echoes, snaps), line = logged_kernel(caplog, tables, block)
    assert f", 2 cached factor parts of {16 * (time_columns + 16)} bytes, " in line
    assert columns_per_block(line) == f"{lobe_columns}/512"
    assert_matches_reference_kernel(tables, block, echoes, snaps)


def test_recurring_pulse_intervals_keep_their_t1_factors(caplog):
    """Pulses after 5 ms (once), 10 ms (twice) and 20 ms (twice): the two
    intervals that recur are numbered, and a block keeps their T1
    factors."""
    readout = GradientWaveform.constant(gx=1e-2)

    def pulse(alpha, phi, duration, row=None):
        acquire = {} if row is None else dict(gradient=readout, acquisition=AcquisitionSpec(5))
        return ElementarySequence(
            pulse=HardPulse(alpha, phi), duration=duration, kspace_row=row, **acquire
        )

    seq = Sequence(
        [
            pulse(math.pi / 2, 0.0, 5e-3),
            pulse(math.pi, math.pi / 2, 10e-3, row=0),
            pulse(math.pi, math.pi / 2, 10e-3, row=1),
            pulse(math.pi, math.pi / 2, 20e-3),
            pulse(math.pi / 3, 0.2, 20e-3),
            pulse(math.pi / 2, 0.0, 5e-3, row=2),
        ]
    )
    tables = precompute_sequence_tables(seq)
    assert tables.t1_intervals == [10e-3, 20e-3]
    assert [interval for _, interval in tables.mz_ages] == [-1, -1, 0, 0, 1, 1]
    block = oracle_block()
    (echoes, snaps), line = logged_kernel(caplog, tables, block)
    assert ", 2 cached T1 intervals, " in line
    assert_matches_reference_kernel(tables, block, echoes, snaps)


def test_every_entry_of_a_distinct_element_is_its_table():
    """Whether it acquires, holds a snapshot or neither, an element's
    entry is its distinct element's table; the acquisitions are numbered
    in element order and the snapshot is the tables' by entry."""
    seq = phase_encoded_spin_echo()
    t_snap = sum(es.duration for es in seq.elements[:5]) + 1e-3  # in the second 180 element
    tables = precompute_sequence_tables(seq, snapshot_times=(t_snap,))
    first = {}
    for i, g in enumerate(distinct_elements(seq)[1]):
        assert tables.entries[i] is tables.entries[first.setdefault(g, i)], i
    refocus = tables.entries[1::4]
    assert all(entry is refocus[0] for entry in refocus)
    assert list(tables.snaps) == [5]
    readouts = tables.entries[2::4]
    assert all(entry.ev_t is readouts[0].ev_t for entry in readouts)
    t0, acq = 0.0, 0
    for es, entry in zip(seq.elements, tables.entries):
        if entry.n_samples:
            want = t0 + es.acquisition.sample_times(es.duration)
            assert tables.acq_times[acq].tobytes() == want.tobytes()
            acq += 1
        t0 += es.duration
    assert acq == len(tables.acq_times) == 8
    assert tables.pulse_memo_hits == 14


# ---------------------------------------------------------------------------
# runs: determinism, partitioning, linearity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def reference_run():
    return run(small_experiment(blocks=8))


def test_run_produces_expected_shape(reference_run):
    assert len(reference_run.echoes) == 16
    assert all(rec.values.size == 16 for rec in reference_run.echoes)
    assert reference_run.metrics.throughput > 0
    assert reference_run.metrics.throughput == pytest.approx(
        reference_run.spin_count / reference_run.metrics.wall_time_s
    )


def test_default_blocks_fit_the_propagator_budget(monkeypatch, caplog):
    import mrsim.engine as engine_mod

    one = run(small_experiment(blocks=1))
    assert run(small_experiment()).metrics.blocks == 1
    pooled = run(small_experiment(workers=2))
    assert pooled.metrics.blocks == 2
    # a budget of a third of the spins' propagators
    tables = precompute_sequence_tables(small_experiment().sequence)
    per_block = one.spin_count // 3
    monkeypatch.setattr(engine_mod, "_PROPAGATOR_BYTES", 16 * propagator_rows(tables) * per_block)
    shrunk = run(small_experiment())
    needed = -(-one.spin_count // per_block)
    assert shrunk.metrics.blocks == needed >= 3
    # an explicit block count is the fewest blocks: run cuts as many as
    # the budget needs
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        explicit = run(small_experiment(blocks=1))
    assert explicit.metrics.blocks == needed
    groups = len(tables.group_rows)
    lines = block_lines(caplog)
    assert len(lines) == needed
    for i, line in enumerate(lines):
        spins = int(line.split(": ")[1].split()[0])
        assert line.startswith(f"block {i}: {spins} spins, {groups} propagator groups")
        assert spins <= per_block
    for res in (pooled, shrunk, explicit):
        assert delta_e_stoer(one.echo_matrix(), res.echo_matrix()) <= -250.0


@pytest.mark.parametrize(
    "kw",
    [
        {},
        dict(blocks=1),
        pytest.param(
            dict(workers=2),
            marks=pytest.mark.skipif(
                mp.get_start_method() != "fork", reason="the patched kernel reaches workers by fork"
            ),
        ),
        dict(blocks=8),
    ],
    ids=["default", "blocks=1", "workers=2", "blocks=8"],
)
def test_run_hands_the_kernel_at_most_the_block_budget(monkeypatch, kw):
    """With room for a third of the spins' propagators, run cuts the
    fewest blocks that fit, and at least the blocks asked for, or one
    per worker, and no block that it hands the kernel exceeds the
    budget."""
    import mrsim.engine as engine_mod

    exp = small_experiment(**kw)
    spins = build_spin_arrays(rasterize(exp.phantom, exp.spacing), exp.system)
    unpatched = run(exp)
    tables = precompute_sequence_tables(exp.sequence)
    monkeypatch.setattr(
        engine_mod, "_PROPAGATOR_BYTES", 16 * propagator_rows(tables) * (spins.n // 3)
    )
    per_block = engine_mod._block_spins(tables)
    assert per_block == spins.n // 3
    result, _, _, handed = run_on_spins(monkeypatch, spins, **kw)
    lower = kw.get("blocks") or kw.get("workers", 1)
    assert result.metrics.blocks == max(lower, -(-spins.n // per_block)) == len(handed)
    assert sum(handed) == spins.n and max(handed) <= per_block
    assert delta_e_stoer(unpatched.echo_matrix(), result.echo_matrix()) <= -250.0


def test_block_partition_invariance(reference_run):
    res64 = run(small_experiment(blocks=64))
    db = delta_e_stoer(reference_run.echo_matrix(), res64.echo_matrix())
    assert db <= -200.0


def test_workers_deterministic_bit_identical(reference_run):
    res = run(small_experiment(workers=2, blocks=8, deterministic=True))
    assert np.array_equal(reference_run.echo_matrix(), res.echo_matrix())


def test_workers_nondeterministic_close(reference_run):
    res = run(small_experiment(workers=2, blocks=8, deterministic=False))
    assert delta_e_stoer(reference_run.echo_matrix(), res.echo_matrix()) <= -120.0


def test_linearity_of_disjoint_phantoms():
    a = PhantomBox(origin=(-0.05, -0.04, -5e-4), size=(0.04, 0.08, 1e-3), m0=1.0, t1=1.0, t2=0.2)
    b = PhantomBox(origin=(0.01, -0.04, -5e-4), size=(0.04, 0.08, 1e-3), m0=0.5, t1=1.0, t2=0.1)
    spacing = (0.008, 0.008, 0.002)
    res_a = run(small_experiment(phantom=Phantom([a]), spacing=spacing, blocks=1))
    res_b = run(small_experiment(phantom=Phantom([b]), spacing=spacing, blocks=1))
    res_ab = run(small_experiment(phantom=Phantom([a, b]), spacing=spacing, blocks=1))
    joint = res_ab.echo_matrix() * res_ab.spin_count
    split = res_a.echo_matrix() * res_a.spin_count + res_b.echo_matrix() * res_b.spin_count
    np.testing.assert_allclose(joint, split, rtol=1e-13, atol=1e-16)


def test_scaling_m0_by_power_of_two_is_exact():
    res1 = run(small_experiment(phantom=box_phantom(m0=1.0), blocks=2))
    res2 = run(small_experiment(phantom=box_phantom(m0=2.0), blocks=2))
    assert np.array_equal(res1.echo_matrix() * 2.0, res2.echo_matrix())


def test_spacing_override_warns_when_violating_bound():
    with pytest.warns(UserWarning, match="sampling bound"):
        run(small_experiment(spacing=(0.1, 0.1, 0.002)))


@pytest.mark.parametrize("workers", [1, 2])
def test_nan_spacing_override_is_rejected_before_the_check(workers):
    # not a bound violation: no pruned walk runs and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match="must be positive"):
            run(small_experiment(spacing=(math.nan, 0.008, 0.002), workers=workers))


@pytest.mark.parametrize(
    "spacing", [(0.008, 0.008, 0.002, 0.5), (0.008, 0.008), 0.008, "abc"],
    ids=["four", "two", "scalar", "string"],
)
def test_run_takes_a_spacing_of_exactly_three_real_numbers(spacing):
    # a fourth value ran, was ignored and came back in RunResult.spacing
    with pytest.raises(InvalidParameter, match="three real numbers"):
        run(small_experiment(spacing=spacing))


@pytest.mark.parametrize("blocks", [0, -5])
def test_run_rejects_fewer_than_one_block(blocks):
    with pytest.raises(InvalidParameter, match="blocks must be >= 1"):
        run(small_experiment(blocks=blocks))


@pytest.mark.parametrize(
    "setting, value",
    [
        ("workers", 0),
        ("workers", 2.0),
        ("workers", 1.0),
        ("workers", 2.5),
        ("workers", math.nan),
        ("workers", True),
        ("workers", "2"),
        ("workers", None),
        ("blocks", 2.5),
        ("blocks", 2.0),
        ("blocks", math.nan),
        ("blocks", math.inf),
        ("blocks", True),
        ("blocks", "2"),
        ("deterministic", "no"),
        ("deterministic", 0),
        ("deterministic", None),
    ],
)
def test_run_rejects_worker_and_block_counts_that_are_not_integers(monkeypatch, setting, value):
    # 2.5 and 2.0 raised a bare TypeError, NaN blocks ran one block, True
    # ran as 1, "no" ran deterministic and 1.0 was reported as 1.0; the
    # check comes before anything runs, so no worker process starts
    def started(*args, **kwargs):
        raise AssertionError("run went past its input checks")

    monkeypatch.setattr(engine, "_run_pool", started)
    monkeypatch.setattr(engine, "rasterize", started)
    with pytest.raises(InvalidParameter, match=setting):
        run(small_experiment(**{setting: value}))


def test_run_takes_numpy_integer_counts_and_reports_python_ints():
    res = run(small_experiment(workers=np.int64(1), blocks=np.int32(2)))
    assert type(res.metrics.workers) is int and res.metrics.workers == 1
    assert type(res.metrics.blocks) is int and res.metrics.blocks == 2


STAGES = ["spacing", "rasterize", "system_eval", "tables", "kernel", "reduce"]


@pytest.mark.parametrize("workers, spacing", [(1, None), (1, (0.008, 0.008, 0.002)), (2, (0.008, 0.008, 0.002))])
def test_run_times_its_six_stages_within_its_wall_time(caplog, workers, spacing):
    # no speed is asserted: only names, signs and that the stages fit
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        res = run(small_experiment(workers=workers, spacing=spacing))
    stages = res.metrics.stages
    assert list(stages) == STAGES
    assert all(t >= 0.0 for t in stages.values())
    assert sum(stages.values()) <= res.metrics.wall_time_s
    logged = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("run stages: ")]
    assert len(logged) == 1 and all(f"{name} " in logged[0] for name in STAGES)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_reports_the_override_checks_seconds_beside_its_stages(caplog, workers):
    # no speed is asserted: the check's seconds are part of the kernel
    # stage with an override, 0.0 with the automatic spacing, and logged
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        automatic = run(small_experiment(workers=workers, spacing=None))
        override = run(small_experiment(workers=workers))
    assert automatic.metrics.spacing_check_s == 0.0
    assert 0.0 < override.metrics.spacing_check_s <= override.metrics.stages["kernel"]
    assert list(automatic.metrics.stages) == list(override.metrics.stages) == STAGES
    logged = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("run stages: ")]
    assert [line.rsplit("; ", 1)[1] for line in logged] == [
        "spacing check 0.0000 s",
        f"spacing check {override.metrics.spacing_check_s:.4f} s",
    ]


@pytest.mark.parametrize("workers", [1, 2])
def test_run_reports_cpu_seconds_by_worker_beside_busy_time(workers):
    # no speed is asserted: only the names, the keys and the signs
    res = run(small_experiment(workers=workers, blocks=4))
    cpu = res.metrics.cpu_s
    assert list(cpu) == list(res.metrics.busy_fraction) == list(range(workers))
    assert all(type(s) is float and s >= 0.0 for s in cpu.values())


def test_infinite_spacing_on_an_axis_without_k_excursion():
    # max_spacing recommends inf along z for this 2-D spin echo: one spin
    # along z, as any spacing wider than the box gives, and no warning
    exp = small_experiment()
    report = max_spacing(exp.sequence, phantom=exp.phantom)
    assert report.spacing[2] == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inf = run(dataclasses.replace(exp, spacing=(0.008, 0.008, report.spacing[2])))
    wide = run(dataclasses.replace(exp, spacing=(0.008, 0.008, 1.0)))
    assert inf.spin_count == wide.spin_count == 12 * 10
    assert np.array_equal(inf.echo_matrix(), wide.echo_matrix())
    assert np.isfinite(inf.echo_matrix()).all()


def test_pool_checks_spacing_override_like_one_process():
    # the pool checks the override while its workers compute
    reports = {}
    for workers in (1, 2):
        with pytest.warns(UserWarning, match="violates the sampling bound") as caught:
            res = run(small_experiment(spacing=(0.1, 0.1, 0.002), workers=workers, blocks=4))
        assert sorted(str(w.message).split(" on axis ")[1][0] for w in caught) == ["x", "y"]
        assert {w.filename for w in caught} == {__file__}
        reports[workers] = res.spacing_report
    assert reports[1] == reports[2]
    assert reports[1].dx_max[0] < 0.1


def incommensurate_sequence():
    """Two pulses with x moments whose ratio is no fraction of bounded
    denominator, so no common k unit exists."""
    dt = 0.01
    return Sequence(
        [
            ElementarySequence(
                pulse=HardPulse(math.radians(alpha), math.radians(phi)),
                gradient=GradientWaveform.constant(gx=moment / (GAMMA_PROTON * dt)),
                duration=dt,
            )
            for alpha, phi, moment in ((90, 0, 100.0), (120, 45, 100.0 * (1.0 + 1.23e-7)))
        ],
        name="incommensurate",
    )


def test_auto_spacing_on_incommensurate_moments_takes_the_pruned_bound():
    # the pruned walk tracks such a sequence on the continuous-k grid
    # rather than raising, so the automatic spacing is still its bound
    seq = incommensurate_sequence()
    with pytest.raises(IncommensurateMoments):
        derive_unit_k(seq)
    res = run(Experiment(sequence=seq, phantom=box_phantom()))
    # the box phantom's tissue is the worst case
    pruned = pruned_max_spacing(seq, RelaxationParams(t1=1.0, t2=0.2, m0=1.0))
    assert res.spacing_report.k_max == pruned.k_max
    assert res.spacing_report.dx_max == pruned.dx_max
    assert res.spacing[0] == pruned.spacing[0] and pruned.k_max[0] > 0.0


def test_auto_spacing_report_says_how_the_worst_tissue_was_chosen():
    # T1 and T2 peak in different boxes; the worst case takes both maxima
    boxes = [
        PhantomBox(origin=(-0.05, -0.04, -5e-4), size=(0.05, 0.08, 1e-3), m0=1.0, t1=1.2, t2=0.05),
        PhantomBox(origin=(0.0, -0.04, -5e-4), size=(0.05, 0.08, 1e-3), m0=1.0, t1=0.3, t2=0.25),
    ]
    res = run(small_experiment(phantom=Phantom(boxes), spacing=None))
    assert (
        "note: worst-case tissue T1 = 1.2 s, T2 = 0.25 s: the largest T1 and the largest T2, "
        "each taken on its own over the box centres and corners"
    ) in res.spacing_report.text()


def test_auto_spacing_rejects_a_phantom_without_a_positive_tissue(monkeypatch):
    # T2 is 0 at every box centre and corner, so the pruned bound has no
    # tissue to walk with; the run stops before the walk
    import mrsim.engine as engine_mod

    def walk(*args, **kwargs):
        raise AssertionError("the pruned spacing walk ran")

    monkeypatch.setattr(engine_mod, "pruned_max_spacing", walk)
    box = PhantomBox(
        origin=(-0.05, -0.04, -5e-4), size=(0.1, 0.08, 1e-3), t1=1.0, t2=lambda x, y, z: 0.0 * x
    )
    with pytest.raises(InvalidParameter, match="centres and corners.*explicit spacing"):
        run(small_experiment(phantom=Phantom([box]), spacing=None))


def test_run_logs_which_spacing_bound_applied(caplog):
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        auto = run(small_experiment(spacing=None))
        fine = (0.005, 1.0, 1.0)
        run(Experiment(sequence=incommensurate_sequence(), phantom=box_phantom(), spacing=fine))
        run(small_experiment())
    messages = [rec.getMessage() for rec in caplog.records]
    assert any(
        m.startswith("automatic spacing")
        and "x from the pruned bound, y from the pruned bound, z from the phantom extent" in m
        for m in messages
    )
    assert any("within the relaxation-free bound; pruned walk skipped" in m for m in messages)
    assert any("breaks the relaxation-free bound on xy; pruned walk runs" in m for m in messages)
    # the report of an automatic spacing names the relaxation-free bound too
    notes = auto.spacing_report.notes
    assert any(note.startswith("relaxation-free bound: K_max = (") for note in notes)


def test_run_takes_the_relaxation_free_bound_on_every_run(monkeypatch):
    # a traced benchmark run needs a max_spacing span in every run, so
    # neither spacing path may skip the call
    import mrsim.engine as engine_mod

    calls = []
    original = engine_mod.max_spacing

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(engine_mod, "max_spacing", counted)
    run(small_experiment(spacing=None))
    assert len(calls) == 1
    run(small_experiment())
    assert len(calls) == 2


def test_run_with_automatic_spacing_groups_its_sequence_once(monkeypatch):
    # the spacing walks and the tables share one grouping, held by the
    # sequence
    import mrsim.sequence as sequence_mod

    calls = []
    original = sequence_mod._group_elements

    def counted(elements):
        calls.append(len(elements))
        return original(elements)

    monkeypatch.setattr(sequence_mod, "_group_elements", counted)
    exp = small_experiment(spacing=None)
    run(exp)
    assert calls == [len(exp.sequence.elements)]
    run(exp)
    assert len(calls) == 1


FORK_ONLY = pytest.mark.skipif(
    mp.get_start_method() != "fork", reason="the patched kernel reaches workers only by fork"
)


@pytest.mark.parametrize(
    "workers, failing",
    [
        pytest.param(2, 3, id="master_share"),
        pytest.param(2, 2, marks=FORK_ONLY, id="worker_share"),
        pytest.param(1, 3, id="one_worker"),
    ],
)
def test_worker_panic_surfaces_block_index(monkeypatch, workers, failing):
    # of 4 blocks on 2 workers, the master computes blocks 1 and 3
    import mrsim.engine as engine_mod

    kernel = engine_mod.compute_block

    def boom(tables, block):
        if block.index == failing:
            raise RuntimeError("kernel exploded")
        return kernel(tables, block)

    monkeypatch.setattr(engine_mod, "compute_block", boom)
    with pytest.raises(WorkerPanic) as info:
        run(small_experiment(workers=workers, blocks=4))
    assert info.value.block_index == failing
    assert "RuntimeError('kernel exploded')" in str(info.value)
    assert mp.active_children() == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_block_loop_starts_one_process_fewer_than_workers(monkeypatch, workers):
    # the master computes the last share itself: one worker is no process
    started = []
    start = mp.process.BaseProcess.start

    def counted(proc):
        started.append(proc)
        return start(proc)

    monkeypatch.setattr(mp.process.BaseProcess, "start", counted)
    res = run(small_experiment(workers=workers, blocks=6))
    assert len(started) == workers - 1 and res.metrics.blocks == 6
    assert mp.active_children() == []


@FORK_ONLY
@pytest.mark.parametrize("workers", [2, 3])
def test_master_computes_the_last_share_and_reports_its_seconds(monkeypatch, workers):
    kernel = engine.compute_block
    computed = mp.get_context().SimpleQueue()

    def recorded(tables, block):
        computed.put((block.index, os.getpid()))
        return kernel(tables, block)

    monkeypatch.setattr(engine, "compute_block", recorded)
    res = run(small_experiment(workers=workers, blocks=2 * workers))
    by_pid = [computed.get() for _ in range(res.metrics.blocks)]
    computed.close()
    master = workers - 1
    assert sorted(i for i, pid in by_pid if pid == os.getpid()) == [master, master + workers]
    assert res.metrics.busy_fraction[master] > 0.0 and res.metrics.cpu_s[master] > 0.0


@pytest.mark.parametrize("workers, by_master", [(1, 4), (2, 2), (3, 1)])
def test_block_loop_logs_its_blocks_processes_and_the_masters_share(caplog, workers, by_master):
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        run(small_experiment(workers=workers, blocks=4))
    logged = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("spin blocks: ")]
    assert logged == [
        f"spin blocks: 4, worker processes started: {workers - 1}, "
        f"blocks the master computed: {by_master}"
    ]


def test_worker_with_an_empty_share_matches_one_process():
    # 2 spins on 3 workers: 2 blocks, so the third worker gets none
    box = PhantomBox(origin=(0.0, 0.0, -5e-4), size=(0.016, 0.008, 1e-3), m0=1.0, t1=1.0, t2=0.1)
    kw = dict(phantom=Phantom([box]), blocks=3)
    one = run(small_experiment(workers=1, **kw))
    pool = run(small_experiment(workers=3, **kw))
    assert one.spin_count == 2 and pool.metrics.blocks == 2
    assert np.array_equal(one.echo_matrix(), pool.echo_matrix())
    assert mp.active_children() == []


@pytest.mark.skipif(
    mp.get_start_method() != "fork", reason="the patched kernel reaches workers only by fork"
)
def test_dead_worker_raises_instead_of_hanging(monkeypatch):
    import mrsim.engine as engine_mod

    master = os.getpid()
    kernel = engine_mod.compute_block

    def die_on_block_2(tables, block):
        if os.getpid() != master and block.index == 2:
            os._exit(1)  # no report, no exception: as after an OOM kill
        return kernel(tables, block)

    def hung(signum, frame):
        raise TimeoutError("run() still waiting on a dead worker")

    monkeypatch.setattr(engine_mod, "compute_block", die_on_block_2)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(WorkerPanic) as info:
            run(small_experiment(workers=2, blocks=4))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert info.value.block_index == 2
    assert "exited with code 1" in str(info.value)
    assert "while computing this block" in str(info.value)


@pytest.mark.skipif(
    mp.get_start_method() != "fork", reason="the patched kernel reaches workers by fork"
)
def test_master_failure_in_pool_stops_workers(monkeypatch):
    import time

    import mrsim.engine as engine_mod

    def broken_check(exp, spacing):
        raise RuntimeError("check failed")

    def hung(signum, frame):
        raise TimeoutError("run() waited for the workers to finish their blocks")

    # workers that would take 10 s over each queued block
    monkeypatch.setattr(engine_mod, "compute_block", lambda tables, block: time.sleep(10))
    monkeypatch.setattr(engine_mod, "_check_spacing", broken_check)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(RuntimeError, match="check failed"):
            run(small_experiment(workers=2, blocks=8))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert mp.active_children() == []


def test_snapshots_in_rasterization_order():
    exp = small_experiment(snapshot_times=(0.0, 0.0301), blocks=4)
    res = run(exp)
    spins = rasterize(exp.phantom, exp.spacing)
    assert len(res.snapshots) == 2
    t0, m0_snap = res.snapshots[0]
    assert t0 == 0.0
    assert m0_snap.shape == (len(spins), 3)
    # snapshot at t = 0 is taken right after the excitation pulse: Mz ~ 0
    np.testing.assert_allclose(m0_snap[:, 2], 0.0, atol=1e-12)
    np.testing.assert_allclose(np.hypot(m0_snap[:, 0], m0_snap[:, 1]), 1.0, atol=1e-12)


def test_snapshots_keep_the_order_of_their_times():
    # each snapshot is the state at its own time, in whatever order the
    # times are given; the sequence's end is a valid time too
    end = small_experiment().sequence.duration
    times = (0.0301, end, 0.0, 0.02)
    res = run(small_experiment(snapshot_times=times))
    assert [t for t, _ in res.snapshots] == list(times)
    for t, snap in res.snapshots:
        alone = run(small_experiment(snapshot_times=(t,))).snapshots[0]
        assert np.array_equal(alone[1], snap)


def test_snapshot_at_zero_belongs_to_the_first_element():
    # every element of zero length starts at t = 0; the snapshot there is
    # taken once, after the first pulse
    els = [
        ElementarySequence(pulse=HardPulse(math.pi / 2, 0.0)),
        ElementarySequence(pulse=HardPulse(math.pi / 2, 0.0)),
        ElementarySequence(duration=1e-3),
    ]
    exp = small_experiment(sequence=Sequence(els), snapshot_times=(0.0,))
    res = run(exp)
    snap = res.snapshots[0][1]
    assert snap.shape == (res.spin_count, 3)
    np.testing.assert_allclose(snap[:, 2], 0.0, atol=1e-12)


@pytest.mark.parametrize("times", [(-1.0, 5.0), (-1e-9,), (1.001,), (float("nan"),)])
def test_run_rejects_snapshot_times_outside_the_sequence(times):
    # one row of small_experiment's spin echo, a TR of 1 s
    one_row = Sequence(small_experiment().sequence.elements[:4])
    assert one_row.duration == pytest.approx(1.0)
    with pytest.raises(InvalidParameter, match="outside the sequence"):
        run(small_experiment(sequence=one_row, snapshot_times=times))


@pytest.mark.parametrize("times", [(-1.0, 5.0), (-1e-9,), (1.001,), (float("nan"),)])
def test_tables_reject_snapshot_times_outside_the_sequence(times):
    one_row = Sequence(small_experiment().sequence.elements[:4])
    with pytest.raises(InvalidParameter, match="outside the sequence"):
        precompute_sequence_tables(one_row, snapshot_times=times)
    tables = precompute_sequence_tables(one_row, snapshot_times=(0.0, one_row.duration))
    _echoes, snaps = compute_block(tables, oracle_block())
    assert [s.shape for s in snaps] == [(oracle_block().n, 3)] * 2


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    leading_zeros=st.integers(0, 2),
    durations=st.lists(st.sampled_from([0.0, 1e-3, 2.5e-3, 1e-2 / 3, 0.1]), min_size=1, max_size=7),
)
def test_snapshot_placement_matches_the_per_element_rule(data, leading_zeros, durations):
    """Times on element boundaries, 0 before leading zero-length elements,
    the sequence end, several times in one element, in any order: each
    lands in the element, at the time from its start and with the partial
    moment, that the per-element rule gives, bit for bit."""
    durations = [0.0] * leading_zeros + durations
    gradient = GradientWaveform.constant
    seq = Sequence(
        [
            ElementarySequence(gradient=gradient(gx=1e-3 * i, gy=-2e-3), duration=d)
            for i, d in enumerate(durations, 1)
        ]
    )
    ends = list(itertools.accumulate(durations))
    starts = [0.0] + ends[:-1]
    within = st.tuples(st.integers(0, len(durations) - 1), st.floats(0.0, 1.0)).map(
        lambda iu: starts[iu[0]] + iu[1] * durations[iu[0]]
    )
    time = st.one_of(st.sampled_from([0.0, ends[-1]] + ends), within)
    times = data.draw(st.lists(time, max_size=12))
    got = precompute_sequence_tables(seq, snapshot_times=times).snaps
    want = reference_snapshots(seq, times)
    assert list(got) == list(want)
    for i, snaps in want.items():
        assert [(t.hex(), m.tobytes(), si) for t, m, si in got[i]] == [
            (t.hex(), m.tobytes(), si) for t, m, si in snaps
        ], i


# a scalar, "0.01", 1+0j and None raised a bare TypeError, some of them
# only after the spacing stage had run; True snapshotted at t = 1 s
NOT_TIMES = [
    0.01,
    "0.01",
    b"0.01",
    (1 + 0j,),
    (None,),
    (True,),
    (np.True_,),
    (0.01, "0.02"),
    ((0.01,),),
    np.array(0.01),
    np.array([[0.01]]),
]


@pytest.mark.parametrize("times", NOT_TIMES, ids=repr)
def test_run_rejects_snapshot_times_that_are_not_real_numbers(monkeypatch, times):
    def started(*args, **kwargs):
        raise AssertionError("run went past its input checks")

    for name in ("_check_spacing", "_auto_spacing", "rasterize", "_run_pool"):
        monkeypatch.setattr(engine, name, started)
    with pytest.raises(InvalidParameter, match="snapshot_times must be"):
        run(small_experiment(snapshot_times=times))


@pytest.mark.parametrize("times", NOT_TIMES, ids=repr)
def test_tables_reject_snapshot_times_that_are_not_real_numbers(times):
    with pytest.raises(InvalidParameter, match="snapshot_times must be"):
        precompute_sequence_tables(small_experiment().sequence, snapshot_times=times)


def test_snapshot_times_are_any_sequence_of_real_numbers():
    # a list, an array and numpy or exact numbers place the snapshots as
    # the same floats do, and are reported as given
    want = run(small_experiment(snapshot_times=(0.0, 0.02, 0.5)))
    for times in (
        [0, 0.02, 0.5],
        np.array([0.0, 0.02, 0.5]),
        (np.int64(0), np.float64(0.02), fractions.Fraction(1, 2)),
    ):
        res = run(small_experiment(snapshot_times=times))
        assert [t for t, _ in res.snapshots] == list(times)
        for (_t, snap), (_w, ref) in zip(res.snapshots, want.snapshots):
            assert np.array_equal(snap, ref)


def test_echo_matrix_rejects_acquisitions_of_different_lengths():
    readout = GradientWaveform.constant(gx=1e-4)
    els = [
        ElementarySequence(pulse=HardPulse(math.pi / 2, 0.0), duration=1e-3),
        ElementarySequence(gradient=readout, duration=4e-3, acquisition=AcquisitionSpec(4)),
        ElementarySequence(gradient=readout, duration=1e-3, acquisition=AcquisitionSpec(1)),
    ]
    res = run(small_experiment(sequence=Sequence(els)))
    assert [rec.values.size for rec in res.echoes] == [4, 1]
    with pytest.raises(InvalidParameter, match=r"\[1, 4\] samples"):
        res.echo_matrix()


def test_snapshot_mid_interval_is_exact():
    # a snapshot inside the relaxation interval changes nothing
    # downstream, and the snapshot itself is analytic
    t2, te = 0.2, 0.05
    seq = delay_and_sample(te, t2)
    tables = precompute_sequence_tables(seq, snapshot_times=(0.02,))
    spin = SpinSample(position=(0, 0, 0), relax=RelaxationParams(1.0, t2, 1.0))
    echoes, snaps = compute_block(tables, spin_block(spin))
    assert snaps[0] is not None
    np.testing.assert_allclose(
        np.hypot(snaps[0][0, 0], snaps[0][0, 1]), math.exp(-0.02 / t2), rtol=1e-12
    )
    plain = precompute_sequence_tables(seq)
    echoes_plain, _ = compute_block(plain, spin_block(spin))
    assert np.array_equal(echoes, echoes_plain)


def test_snapshot_inside_a_tse_readout_leaves_its_echoes_unchanged():
    seq = build_tse(
        fov=0.25,
        n=16,
        turbo_factor=4,
        echo_spacing=0.03,
        tr=0.3,
        readout_grad=readout_gradient(0.25, 16, 0.008),
    )
    exp = small_experiment(sequence=seq, phantom=box_phantom(t2=0.1), spacing=(0.004, 0.004, 0.002))
    t_snap = 0.08618088424437502
    starts = np.cumsum([0.0] + [es.duration for es in seq.elements])
    inside = [
        es for es, t0, t1 in zip(seq.elements, starts, starts[1:]) if t0 < t_snap <= t1
    ]
    assert [es.acquisition.enabled for es in inside] == [True]
    plain = run(exp)
    snapped = run(dataclasses.replace(exp, snapshot_times=(t_snap,)))
    assert np.array_equal(plain.echo_matrix(), snapped.echo_matrix())


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_snapshots_only_read(fractions):
    seq = oracle_sequence()
    times = tuple(f * seq.duration for f in fractions)
    block = oracle_block()
    plain, _ = compute_block(precompute_sequence_tables(seq), block)
    tables = precompute_sequence_tables(seq, snapshot_times=times)
    echoes, snaps = compute_block(tables, block)
    assert np.array_equal(echoes, plain)
    _, ref_snaps = reference_kernel(tables, block)
    for snap, ref_snap in zip(snaps, ref_snaps):
        assert delta_e_stoer(ref_snap, snap) <= -250.0


def test_split_interval_trajectories_identical():
    from mrsim.sequence import split_elementary

    seq = build_spin_echo(0.25, 8, 0.03, 0.5, readout_gradient(0.25, 8, 0.008))
    split = split_elementary(seq, 0, seq.elements[0].duration * 0.37)
    spin = SpinSample(position=(0.013, -0.007, 0.0), relax=RelaxationParams(1.0, 0.2, 1.0))
    a, _ = compute_block(precompute_sequence_tables(seq), spin_block(spin, domega=12.0))
    b, _ = compute_block(precompute_sequence_tables(split), spin_block(spin, domega=12.0))
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# comparison metric
# ---------------------------------------------------------------------------


def test_delta_e_identical_is_sentinel():
    data = np.array([1.0 + 2.0j, 3.0 - 1.0j])
    assert delta_e_stoer(data, data) == -math.inf


def test_delta_e_scaled_by_1e_minus_6():
    rng = np.random.default_rng(0)
    ref = rng.normal(size=256) + 1j * rng.normal(size=256)
    db = delta_e_stoer(ref, ref * (1.0 + 1e-6))
    assert db == pytest.approx(-120.0, abs=0.5)


def test_delta_e_zero_test_is_full_energy():
    ref = np.array([1.0, 2.0, 3.0])
    assert delta_e_stoer(ref, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)


def test_compare_results_counts_exceedances():
    ref = np.array([1.0, 1.0, 1.0, 1e-300])
    test = ref.copy()
    test[1] *= 1.0 + 1e-3
    cmp = compare_results(ref, test, rel_threshold=1e-6)
    assert cmp.exceedances == 1
    # both components at machine-eps scale are not rated
    assert cmp.compared == 3


@pytest.mark.parametrize("threshold", [math.nan, -1.0, math.inf, -math.inf])
def test_compare_results_rejects_a_threshold_out_of_range(threshold):
    # unchecked, NaN counts no exceedance and -1 every component, even on
    # identical data
    ref = np.array([1.0 + 1j, 2.0 - 3j])
    with pytest.raises(InvalidParameter, match="rel_threshold must be >= 0 and finite"):
        compare_results(ref, ref.copy(), rel_threshold=threshold)


def test_compare_results_identity():
    ref = np.array([1.0 + 1j, 2.0 - 3j])
    cmp = compare_results(ref, ref.copy())
    assert cmp.exceedances == 0
    assert cmp.delta_e_db <= -300.0


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_echo_file_round_trip(tmp_path, reference_run):
    path = str(tmp_path / "echoes.mrsim")
    matrix = reference_run.echo_matrix()
    write_echo_file(path, matrix, {"note": "test"})
    back = read_echo_file(path)
    assert np.array_equal(back, matrix)
    assert os.path.exists(path + ".manifest.json")
    with open(path, "rb") as fh:
        assert fh.readline().decode().split() == ["MRSIM1", "16", "16"]


def test_snapshot_file_round_trip(tmp_path):
    arr = np.arange(12, dtype=float).reshape(4, 3)
    path = str(tmp_path / "snap.mrsim")
    write_snapshot_file(path, 0.125, arr)
    t, back = read_snapshot_file(path)
    assert t == 0.125
    assert np.array_equal(back, arr)


def test_raw_grid_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    grid = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    path = str(tmp_path / "grid.raw")
    write_raw_grid(path, grid)
    assert np.array_equal(read_raw_grid(path), grid)


def test_partition_blocks_cover_disjointly():
    ph = box_phantom()
    spins = rasterize(ph, (0.01, 0.01, 0.002))
    arrays = build_spin_arrays(spins, default_system())
    blocks = partition_blocks(arrays, 7)
    assert sum(b.n for b in blocks) == arrays.n
    rebuilt = np.vstack([b.pos for b in blocks])
    assert np.array_equal(rebuilt, arrays.pos)


def test_partition_blocks_are_views_the_kernel_leaves_unchanged():
    arrays = oracle_block(n=60)
    names = [f.name for f in dataclasses.fields(SpinBlock) if f.name != "index"]
    before = {name: getattr(arrays, name).copy() for name in names}
    # a delay before the first pulse makes the kernel relax Mz from the block's m0
    seq = Sequence([ElementarySequence(duration=0.01)] + oracle_sequence().elements)
    tables = precompute_sequence_tables(seq, snapshot_times=(0.005,))
    for block in partition_blocks(arrays, 3):
        for name in names:
            assert np.shares_memory(getattr(block, name), getattr(arrays, name)), name
        compute_block(tables, block)
    for name in names:
        assert np.array_equal(getattr(arrays, name), before[name]), name
