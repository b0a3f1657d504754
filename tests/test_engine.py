import collections
import dataclasses
import logging
import math
import multiprocessing as mp
import os
import signal

import numpy as np
import pytest

from mrsim.bloch import (
    GAMMA_PROTON,
    FrameContext,
    HardPulse,
    Magnetization,
    RelaxationParams,
    apply_shaped_pulse,
    hard_pulse_matrix,
)
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
    simulate_spin,
)
from mrsim.errors import WorkerPanic
from mrsim.io import (
    read_echo_file,
    read_raw_grid,
    read_snapshot_file,
    write_echo_file,
    write_raw_grid,
    write_snapshot_file,
)
from mrsim.phantom import Phantom, PhantomBox, SpinSample, rasterize
from mrsim.sequence import (
    AcquisitionSpec,
    ElementarySequence,
    GradientWaveform,
    Sequence,
    build_spin_echo,
    build_tse,
    parse_sequence_file,
    readout_gradient,
)
from mrsim.system import default_system

from oracles import reference_kernel


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


def test_tables_one_entry_per_elementary_sequence():
    seq = build_tse(0.5, 32, 2, 0.03, 0.8, readout_gradient(0.5, 32, 0.01))
    tables = precompute_sequence_tables(seq)
    assert len(tables.entries) == len(seq.elements)
    assert tables.n_acq == 32


def test_pulse_memo_shares_repeated_pulses():
    seq = build_tse(0.5, 16, 2, 0.03, 0.8, readout_gradient(0.5, 16, 0.01))
    tables = precompute_sequence_tables(seq)
    assert tables.pulse_memo_hits > 0


def test_memoized_tables_bit_identical_to_recomputation():
    seq = build_spin_echo(0.25, 8, 0.03, 0.5, readout_gradient(0.25, 8, 0.008))
    tables = precompute_sequence_tables(seq)
    assert tables.pulse_memo_hits > 0
    for es, entry in zip(seq.elements, tables.entries):
        if es.pulse is None or es.pulse.is_identity:
            assert entry.pulse_mat is None
        else:
            assert np.array_equal(entry.pulse_mat, hard_pulse_matrix(es.pulse.alpha, es.pulse.phi))


# ---------------------------------------------------------------------------
# single-spin physics through the kernel
# ---------------------------------------------------------------------------


def delay_and_sample(te, t2, n=5):
    els = [
        ElementarySequence(pulse=HardPulse(math.pi / 2, 0.0), duration=te),
        ElementarySequence(
            duration=1e-3, acquisition=AcquisitionSpec(True, n), kspace_row=0
        ),
    ]
    return Sequence(els, name="fid")


def test_simulate_spin_fid_amplitude():
    t2, te = 0.2, 0.05
    tables = precompute_sequence_tables(delay_and_sample(te, t2))
    spin = SpinSample(
        position=(0, 0, 0), m=Magnetization(0, 0, 1), relax=RelaxationParams(1.0, t2, 1.0)
    )
    echoes, _ = simulate_spin(spin, tables, weight=0.5 + 0.0j)
    assert abs(echoes[0, 0]) == pytest.approx(0.5 * math.exp(-te / t2), rel=1e-12)


def test_simulate_spin_zero_m0_contributes_nothing():
    tables = precompute_sequence_tables(delay_and_sample(0.05, 0.2))
    spin = SpinSample(
        position=(0.01, 0, 0), m=Magnetization(0, 0, 0), relax=RelaxationParams(1.0, 0.2, 0.0)
    )
    echoes, _ = simulate_spin(spin, tables)
    assert np.all(echoes == 0)


def test_rf_shaped_file_runs_like_apply_shaped_pulse(tmp_path):
    # both paths cut the envelope with bloch.hard_pulse_decomposition
    t = np.linspace(-3.0, 3.0, 40)
    envelope_ut = np.column_stack([20.0 * np.sinc(t), 6.0 * np.sinc(t - 1.0)])
    envelope_ut[5] = 0.0  # a zero sample is free evolution without a pulse
    np.savetxt(tmp_path / "env.txt", envelope_ut)
    dt, domega = 1e-5, 300.0
    seq = parse_sequence_file(
        f"[rf_shaped]\nsamples = env.txt\nsample_dt_s = {dt!r}\n", base_dir=str(tmp_path)
    )
    relax = RelaxationParams(0.8, 0.05, 1.0)
    spin = SpinSample(position=(0, 0, 0), m=Magnetization(0, 0, 1), relax=relax)
    tables = precompute_sequence_tables(seq, snapshot_times=(seq.duration,))
    _, snaps = simulate_spin(spin, tables, domega=domega)
    want = apply_shaped_pulse(
        Magnetization(0, 0, 1),
        relax,
        (envelope_ut[:, 0] + 1j * envelope_ut[:, 1]) * 1e-6,
        dt,
        domega * dt,
        FrameContext.on_resonance(1.5),
    )
    assert math.hypot(want.mx, want.my) > 0.3
    np.testing.assert_allclose(snaps[0][0], want.as_array(), rtol=0, atol=1e-12)


def test_opposite_positions_sum_to_real_signal():
    # 90 deg pulse with phase -90 puts magnetization along +x; a gradient
    # then winds opposite phases at +-x, so the pair sums to a real signal
    k = 500.0
    els = [
        ElementarySequence(pulse=HardPulse(math.pi / 2, -math.pi / 2), duration=0.0),
        ElementarySequence(
            gradient=GradientWaveform.constant(gx=k / (GAMMA_PROTON * 0.01)),
            duration=0.01,
            acquisition=AcquisitionSpec(True, 9),
            kspace_row=0,
        ),
    ]
    tables = precompute_sequence_tables(Sequence(els, name="pair"))
    relax = RelaxationParams(math.inf, math.inf, 1.0)
    total = np.zeros((1, 9), dtype=complex)
    for x in (+0.004, -0.004):
        spin = SpinSample(position=(x, 0, 0), m=Magnetization(0, 0, 1), relax=relax)
        echoes, _ = simulate_spin(spin, tables)
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
            gradient=readout, duration=6e-3, acquisition=AcquisitionSpec(True, 7), kspace_row=0
        ),
        ElementarySequence(pulse=HardPulse(math.pi / 3, -0.4), duration=0.08),
        ElementarySequence(pulse=HardPulse(math.pi / 2, 1.1), gradient=prephase, duration=2e-3),
        ElementarySequence(
            gradient=readout, duration=6e-3, acquisition=AcquisitionSpec(True, 7), kspace_row=1
        ),
    ]
    return Sequence(els, name="oracle")


def oracle_block(n=40, seed=3):
    rng = np.random.default_rng(seed)
    m0 = rng.uniform(0.5, 1.5, n)
    return SpinBlock(
        index=0,
        pos=rng.uniform(-0.02, 0.02, (n, 3)),
        mx=rng.uniform(-0.3, 0.3, n),
        my=rng.uniform(-0.3, 0.3, n),
        mz=m0 * rng.uniform(0.5, 1.0, n),
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


def test_factor_slots_only_for_repeated_keys():
    tables = precompute_sequence_tables(oracle_sequence(), snapshot_times=ORACLE_SNAPSHOTS)
    events = [
        ((dt, *dmom), slot)
        for entry in tables.entries
        for dt, dmom, slot in zip(
            entry.ev_dt.tolist(), entry.ev_dmom.tolist(), entry.ev_slot.tolist()
        )
    ]
    counts = collections.Counter(key for key, _ in events if any(key))
    slot_of = {}
    for key, slot in events:
        if counts[key] > 1:
            assert slot == slot_of.setdefault(key, slot) >= 0
        else:
            assert slot == -1
    assert sorted(slot_of.values()) == list(range(tables.factor_slots))
    # numbered by falling count, so a capped cache keeps the busiest keys
    by_slot = sorted(slot_of, key=slot_of.get)
    assert [counts[key] for key in by_slot] == sorted(counts[key] for key in by_slot)[::-1]
    # the phase-encode lobe is a one-off key; the two readouts share slots
    assert tables.entries[1].ev_slot.tolist() == [-1]
    assert set(tables.entries[3].ev_slot) & set(tables.entries[6].ev_slot) - {-1}


def test_kernel_logs_factor_cache_size(caplog):
    tables = precompute_sequence_tables(oracle_sequence())
    block = oracle_block()
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        compute_block(tables, block)
    slots = tables.factor_slots
    expected = f"{slots} factor slots, {slots} cached, {slots * block.n * 16} factor-cache bytes"
    assert slots > 0
    assert any(expected in rec.getMessage() for rec in caplog.records)


def test_factor_cache_stays_within_byte_budget(monkeypatch, caplog):
    import mrsim.engine as engine_mod

    tables = precompute_sequence_tables(oracle_sequence(), snapshot_times=ORACLE_SNAPSHOTS)
    block = oracle_block()
    assert tables.factor_slots > 2
    # room for two slots of this block; the rest are computed inline
    monkeypatch.setattr(engine_mod, "_FACTOR_CACHE_BYTES", 2 * 16 * block.n + 15)
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        echoes, snaps = compute_block(tables, block)
    expected = f"2 cached, {2 * 16 * block.n} factor-cache bytes"
    assert any(expected in rec.getMessage() for rec in caplog.records)
    ref_echoes, ref_snaps = reference_kernel(tables, block)
    assert delta_e_stoer(ref_echoes, echoes) <= -250.0
    for snap, ref_snap in zip(snaps, ref_snaps):
        assert delta_e_stoer(ref_snap, snap) <= -250.0


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
    assert reference_run.metrics.spin_count == reference_run.spin_count


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


def test_worker_panic_surfaces_block_index(monkeypatch):
    import mrsim.engine as engine_mod

    def boom(tables, block):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(engine_mod, "compute_block", boom)
    with pytest.raises(WorkerPanic):
        run(small_experiment(workers=2, blocks=4))


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


def test_dead_worker_blamed_on_a_block_it_held_or_an_outstanding_one():
    from types import SimpleNamespace

    from mrsim.engine import _dead_worker_panic

    proc = SimpleNamespace(pid=4321, exitcode=-9)
    sent = [SimpleNamespace(index=i) for i in range(3)]
    returned = {0: None}
    held = _dead_worker_panic(proc, 2, sent, returned)
    assert held.block_index == 2 and "while computing this block" in str(held)
    # died between blocks: the first block sent but not returned
    idle = _dead_worker_panic(proc, -1, sent, returned)
    assert idle.block_index == 1 and "sent but never returned" in str(idle)
    assert "exited with code -9" in str(idle)


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


def test_snapshot_mid_interval_is_exact():
    # splitting the relaxation interval at the snapshot time must not
    # change anything downstream, and the snapshot itself is analytic
    t2, te = 0.2, 0.05
    seq = delay_and_sample(te, t2)
    tables = precompute_sequence_tables(seq, snapshot_times=(0.02,))
    spin = SpinSample(
        position=(0, 0, 0), m=Magnetization(0, 0, 1), relax=RelaxationParams(1.0, t2, 1.0)
    )
    echoes, snaps = simulate_spin(spin, tables)
    assert snaps[0] is not None
    np.testing.assert_allclose(
        np.hypot(snaps[0][0, 0], snaps[0][0, 1]), math.exp(-0.02 / t2), rtol=1e-12
    )
    plain = precompute_sequence_tables(seq)
    echoes_plain, _ = simulate_spin(spin, plain)
    np.testing.assert_allclose(echoes, echoes_plain, rtol=1e-14)


def test_split_interval_trajectories_identical():
    from mrsim.sequence import split_elementary

    seq = build_spin_echo(0.25, 8, 0.03, 0.5, readout_gradient(0.25, 8, 0.008))
    split = split_elementary(seq, 0, seq.elements[0].duration * 0.37)
    spin = SpinSample(
        position=(0.013, -0.007, 0.0),
        m=Magnetization(0, 0, 1),
        relax=RelaxationParams(1.0, 0.2, 1.0),
    )
    a, _ = simulate_spin(spin, precompute_sequence_tables(seq), domega=12.0)
    b, _ = simulate_spin(spin, precompute_sequence_tables(split), domega=12.0)
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
    # a delay before the first pulse makes the kernel relax the block's own Mz
    seq = Sequence([ElementarySequence(duration=0.01)] + oracle_sequence().elements)
    tables = precompute_sequence_tables(seq, snapshot_times=(0.005,))
    for block in partition_blocks(arrays, 3):
        for name in names:
            assert np.shares_memory(getattr(block, name), getattr(arrays, name)), name
        compute_block(tables, block)
    for name in names:
        assert np.array_equal(getattr(arrays, name), before[name]), name
