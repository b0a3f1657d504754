"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (pytest -s shows them) and
asserts the stated tolerance.  Expensive runs are shared via fixtures.
"""

import math
import multiprocessing as mp
import os
import time
import warnings

import numpy as np
import pytest
from scipy.signal import find_peaks

import mrsim
from mrsim.bloch import (
    GAMMA_PROTON,
    HardPulse,
    RelaxationParams,
    apply_pulse,
    hard_pulse_coefficients,
    precession_factor,
    regrow_mz,
)
from mrsim.discretize import max_spacing
from mrsim.engine import Experiment, compare_results, delta_e_stoer, run
from mrsim.ktspace import lattice_spectrum, max_k_excursion, simulate_kt
from mrsim.phantom import Phantom, PhantomBox, rasterize, shepp_logan, shepp_logan_m0
from mrsim.recon import assemble_kspace, cpmg_fit, reconstruct
from mrsim.sequence import (
    AcquisitionSpec,
    ElementarySequence,
    GradientWaveform,
    Sequence,
    build_cpmg,
    build_gradient_epi,
    build_spin_echo,
    build_tse,
    readout_gradient,
)
from mrsim.system import (
    Legendre12Inhomogeneity,
    StaticField,
    SystemModel,
    UniformSensitivity,
    spin_off_resonance,
)

from oracles import rk4_bloch_batch


def report(num, name, ok, detail=""):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def quiet_run(**kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run(Experiment(**kw))


def thin_box(x0, y0, sx, sy, **props):
    return PhantomBox(origin=(x0, y0, -5e-4), size=(sx, sy, 1e-3), **props)


# ---------------------------------------------------------------------------
# 1. operator correctness against the raw ODE system
# ---------------------------------------------------------------------------


def test_criterion_01_operators_match_ode():
    rng = np.random.default_rng(20240901)
    n = 100
    start = rng.uniform(-1.0, 1.0, size=(n, 3))
    start /= np.maximum(np.linalg.norm(start, axis=1, keepdims=True), 1.0)
    kinds = rng.integers(0, 3, size=n)
    t1 = rng.uniform(0.05, 2.0, size=n)
    t2 = rng.uniform(0.02, 1.0, size=n)
    t2 = np.minimum(t2, t1)
    m0 = rng.uniform(0.0, 1.0, size=n)
    dt = rng.uniform(1e-4, 10e-3, size=n)
    b = np.zeros((n, 3))
    phase = np.zeros(n)  # turn of a precession or gradient interval, rad
    alpha = np.zeros(n)  # flip and phase of a hard pulse
    phi = np.zeros(n)
    for i in range(n):
        if kinds[i] == 0:  # free precession with relaxation
            domega = rng.uniform(-2 * math.pi * 400, 2 * math.pi * 400)
            phase[i] = domega * dt[i]
            b[i] = (0.0, 0.0, domega / GAMMA_PROTON)
        elif kinds[i] == 1:  # hard pulse (relaxation-free rotation)
            alpha[i] = rng.uniform(0.05, math.pi)
            phi[i] = rng.uniform(0.0, 2 * math.pi)
            dt[i] = 1e-4
            t1[i] = t2[i] = 1e9
            m0[i] = 0.0
            b1 = alpha[i] / (GAMMA_PROTON * dt[i])
            b[i] = (b1 * math.cos(phi[i]), b1 * math.sin(phi[i]), 0.0)
        else:  # gradient interval with relaxation
            moment = rng.uniform(-25.0, 25.0)
            phase[i] = moment
            b[i] = (0.0, 0.0, moment / (GAMMA_PROTON * dt[i]))
    # the kernel's operators, each once over all 100 cases: a pulse per
    # case (one array per pulse coefficient, one element per case), or a
    # turn with relaxation
    mxy = start[:, 0] + 1j * start[:, 1]
    mix = np.array([hard_pulse_coefficients(a, p) for a, p in zip(alpha, phi)]).T
    pulsed_mxy, pulsed_mz = apply_pulse(mix, mxy, start[:, 2])
    free_mxy = mxy * precession_factor(phase, dt, 1.0 / t2)
    free_mz = regrow_mz(start[:, 2], m0, 1.0 / t1, dt)
    pulsed = kinds == 1
    out_mxy = np.where(pulsed, pulsed_mxy, free_mxy)
    analytic = np.column_stack(
        [out_mxy.real, out_mxy.imag, np.where(pulsed, pulsed_mz, free_mz)]
    )
    started = time.perf_counter()
    reference = rk4_bloch_batch(start, b, t1, t2, m0, dt, steps=4000)
    runtime = time.perf_counter() - started
    rel = np.linalg.norm(analytic - reference, axis=1) / np.maximum(
        np.linalg.norm(reference, axis=1), 1e-9
    )
    report(
        1,
        "operators vs 4th-order ODE integration",
        bool(np.all(rel <= 1e-6)),
        f"worst rel err {rel.max():.2e} over {n} cases, oracle runtime {runtime:.1f} s",
    )


# ---------------------------------------------------------------------------
# 2. configuration engine vs spin engine
# ---------------------------------------------------------------------------


def test_criterion_02_kt_vs_spin_engine():
    rng = np.random.default_rng(7041)
    unit = 80.0
    t1, t2 = 0.5, 0.3
    box = PhantomBox(
        origin=(-0.05, -5e-4, -5e-4),
        size=(0.1, 1e-3, 1e-3),
        m0=mrsim.phantom.Affine(1.0, gx=5.0),
        t1=t1,
        t2=t2,
    )
    phantom = Phantom([box])
    spacing = (0.002, 0.01, 0.01)
    spins = rasterize(phantom, spacing)
    spectrum = lattice_spectrum(
        [s.position for s in spins], [s.relax.m0 / len(spins) for s in spins]
    )
    started = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        elements = []
        for _ in range(int(rng.integers(3, 7)) - 1):
            dt = rng.uniform(0.002, 0.02)
            q = int(rng.integers(-3, 4))
            elements.append(
                ElementarySequence(
                    pulse=HardPulse(rng.uniform(0.1, math.pi), rng.uniform(0, 2 * math.pi)),
                    gradient=GradientWaveform.constant(gx=q * unit / (GAMMA_PROTON * dt)),
                    duration=dt,
                )
            )
        ro = 0.01
        elements.append(
            ElementarySequence(
                gradient=GradientWaveform.constant(gx=4 * unit / (GAMMA_PROTON * ro)),
                duration=ro,
                acquisition=AcquisitionSpec(33),
                kspace_row=0,
            )
        )
        seq = Sequence(elements, name="random")
        res = quiet_run(sequence=seq, phantom=phantom, spacing=spacing, workers=1)
        spin_echo = res.echo_matrix().ravel()
        kt = simulate_kt(seq, RelaxationParams(t1, t2, 1.0), object_spectrum=spectrum)
        kt_echo = np.concatenate(kt.echoes)
        worst = max(worst, np.linalg.norm(spin_echo - kt_echo) / np.linalg.norm(spin_echo))
    runtime = time.perf_counter() - started
    report(
        2,
        "k-t engine vs spin engine on random sequences",
        worst <= 1e-6 and runtime < 60.0,
        f"worst rel L2 {worst:.2e}, runtime {runtime:.1f} s",
    )


# ---------------------------------------------------------------------------
# 3. two-pulse closed-form populations
# ---------------------------------------------------------------------------


def test_criterion_03_two_pulse_fixture():
    worst = 0.0
    for a1_deg in (30, 90, 120):
        for a2_deg in (30, 90, 120):
            a1, a2 = math.radians(a1_deg), math.radians(a2_deg)
            dt = 0.01
            els = [
                ElementarySequence(
                    pulse=HardPulse(a, 0.0),
                    gradient=GradientWaveform.constant(gx=50.0 / (GAMMA_PROTON * dt)),
                    duration=dt,
                )
                for a in (a1, a2)
            ]
            out = simulate_kt(
                Sequence(els, name="fixture"),
                RelaxationParams(math.inf, math.inf, 1.0),
                prune_threshold=0.0,
            )
            s1, c1, s2, c2 = math.sin(a1), math.cos(a1), math.sin(a2), math.cos(a2)
            want_trans = {
                (0, 0, 0): -1j * s1 * math.sin(a2 / 2) ** 2,
                (1, 0, 0): 1j * c1 * s2,
                (2, 0, 0): 1j * s1 * math.cos(a2 / 2) ** 2,
            }
            want_longi = {
                (0, 0, 0): c1 * c2 + 0j,
                (1, 0, 0): -0.5 * s1 * s2 + 0j,
                (-1, 0, 0): -0.5 * s1 * s2 + 0j,
            }
            for order, want in want_trans.items():
                worst = max(worst, abs(out.final.trans.get(order, 0j) - want))
            for order, want in want_longi.items():
                worst = max(worst, abs(out.final.longi.get(order, 0j) - want))
    report(
        3,
        "two-pulse populations vs symbolic substitution",
        worst <= 1e-12,
        f"worst abs deviation {worst:.2e} over 9 angle pairs",
    )


# ---------------------------------------------------------------------------
# 4. Hahn echo amplitude
# ---------------------------------------------------------------------------


def test_criterion_04_hahn_echo_amplitude():
    t2 = 0.2
    worst = 0.0
    for te in (0.02, 0.05, 0.1):
        n = 65  # odd: one sample falls exactly on the echo
        grad = readout_gradient(0.5, n, te / 2)
        seq = build_spin_echo(fov=0.5, n=n, te=te, tr=te + 1.0, readout_grad=grad)
        one = Sequence(seq.elements[:4], name="one_rep")
        phantom = Phantom(
            [PhantomBox(origin=(-1e-4,) * 3, size=(2e-4,) * 3, m0=1.0, t1=1.0, t2=t2)]
        )
        res = quiet_run(sequence=one, phantom=phantom, spacing=(1e-3,) * 3, workers=1)
        rec = res.echoes[0]
        mid = (n - 1) // 2
        assert rec.timestamps[mid] == pytest.approx(te, rel=1e-12)
        worst = max(worst, abs(abs(rec.values[mid]) / math.exp(-te / t2) - 1.0))
    report(
        4,
        "Hahn echo peak = M0*exp(-TE/T2)",
        worst <= 1e-4,
        f"worst rel deviation {worst:.2e} for TE in {{20, 50, 100}} ms",
    )


# ---------------------------------------------------------------------------
# 5. spatial sampling bound
# ---------------------------------------------------------------------------


def test_criterion_05_sampling_bound():
    started = time.perf_counter()
    fov, n = 0.5, 256
    k_max = math.pi * (n - 1) / fov
    pre, tau = 0.005, 0.01
    length = fov / 2
    elements = [
        ElementarySequence(
            pulse=HardPulse(math.pi / 2, 0.0),
            gradient=GradientWaveform.constant(gx=-k_max / (GAMMA_PROTON * pre)),
            duration=pre,
        ),
        ElementarySequence(
            gradient=GradientWaveform.constant(gx=2 * k_max / (GAMMA_PROTON * tau)),
            duration=tau,
            acquisition=AcquisitionSpec(n),
            kspace_row=0,
        ),
    ]
    seq = Sequence(elements, name="readout_1d")
    dx_max = max_spacing(seq).dx_max[0]
    assert dx_max == pytest.approx(math.pi / k_max, rel=1e-12)

    def tent(x, y, z):
        return max(0.0, 1.0 - abs(x) / (length / 2))

    phantom = Phantom(
        [
            PhantomBox(
                origin=(-length / 2, -5e-4, -5e-4),
                size=(length, 1e-3, 1e-3),
                m0=tent,
                t1=1e6,
                t2=1e6,
            )
        ]
    )

    def echo_at(dx):
        res = quiet_run(sequence=seq, phantom=phantom, spacing=(dx, 1.0, 1.0), workers=1)
        return res.echo_matrix()

    # commensurate lattices (integer spins across the object) so the two
    # runs cover the same total length; both below the sampling bound
    dx_a = length / math.ceil(length / (0.9 * dx_max))
    echo_a = echo_at(dx_a)
    echo_b = echo_at(dx_a / 2.0)
    rel = np.linalg.norm(echo_a - echo_b) / np.linalg.norm(echo_b)

    def replica_count(echo):
        from mrsim.recon import KSpaceMatrix, standard_axes

        kx0, dkx = standard_axes(fov, n)
        k = KSpaceMatrix(
            data=echo, row_filled=np.ones(1, bool), k0=(0.0, kx0), dk=(1.0, dkx)
        )
        profile = reconstruct(k).magnitude.ravel()
        ac = np.correlate(profile, profile, "full")[profile.size - 1 :]
        peaks, _ = find_peaks(ac, prominence=0.05 * ac[0])
        return 1 + sum(1 for p in peaks if ac[p] > 0.2 * ac[0])

    copies_ok = replica_count(echo_a)
    copies_aliased = replica_count(echo_at(3.0 * dx_max))
    runtime = time.perf_counter() - started
    report(
        5,
        "sampling bound: convergence below, replicas above",
        rel < 1e-3 and copies_ok == 1 and copies_aliased >= 2 and runtime < 60.0,
        f"rel L2 {rel:.2e} (0.9 vs 0.45 dx_max), copies {copies_ok} vs {copies_aliased}, "
        f"runtime {runtime:.1f} s",
    )


# ---------------------------------------------------------------------------
# 6. head-phantom spin echo at 64^2
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def head_phantom_run():
    fov, n, scale = 0.5, 64, 0.255
    seq = build_spin_echo(fov=fov, n=n, te=0.05, tr=3.0, readout_grad=0.239e-3)
    # one spin per image voxel, slightly off the pixel raster so the edges
    # show their band-limitation ringing
    spacing = (fov / n * 0.999, fov / n * 0.999, 1.0)
    started = time.perf_counter()
    res = quiet_run(
        sequence=seq, phantom=shepp_logan(scale), spacing=spacing, workers=1
    )
    runtime = time.perf_counter() - started
    k = assemble_kspace(res.echo_matrix(), seq.trajectory_table(), n_rows=n, fov=fov)[0]
    return res, reconstruct(k), runtime, fov, n, scale


def test_criterion_06_head_phantom_image(head_phantom_run):
    res, img, runtime, fov, n, scale = head_phantom_run
    mag = img.magnitude
    xs = img.axis_coords(1)
    ys = img.axis_coords(0)
    reference = shepp_logan_m0(xs[None, :], ys[:, None], scale)
    pearson = np.corrcoef(mag.ravel(), reference.ravel())[0, 1]
    row = mag[n // 2]
    plateau = np.median(row[13:19])
    overshoot = row[10:14].max() / plateau - 1.0
    spins_ok = abs(res.spin_count - 2120) <= 0.10 * 2120
    report(
        6,
        "head phantom 64^2 spin echo",
        pearson >= 0.95 and overshoot >= 0.05 and spins_ok and runtime < 300.0,
        f"r = {pearson:.4f}, edge overshoot {overshoot:.2f}, "
        f"{res.spin_count} spins, runtime {runtime:.1f} s",
    )


# ---------------------------------------------------------------------------
# 7. turbo-spin-echo ghost
# ---------------------------------------------------------------------------


def test_criterion_07_tse_ghost():
    fov, n, t2, esp = 0.5, 64, 0.2, 0.06
    seq = build_tse(
        fov=fov, n=n, turbo_factor=2, echo_spacing=esp, tr=2.5, readout_grad=0.239e-3
    )
    phantom = Phantom([thin_box(-0.08, -0.06, 0.16, 0.12, m0=1.0, t1=1.0, t2=t2)])
    res = quiet_run(sequence=seq, phantom=phantom, spacing=None, workers=1)
    k = assemble_kspace(res.echo_matrix(), seq.trajectory_table(), n_rows=n, fov=fov)[0]
    mag = reconstruct(k).magnitude
    rolled = np.roll(mag, n // 2, axis=0)  # ghost moves to the center rows
    rows = np.arange(n)
    band = slice(n // 2 - 10, n // 2 + 10)
    main_profile = mag.sum(axis=1)
    ghost_profile = rolled.sum(axis=1)
    main_c = (rows[band] * main_profile[band]).sum() / main_profile[band].sum()
    ghost_c = (rows[band] * ghost_profile[band]).sum() / ghost_profile[band].sum()
    offset = (ghost_c + n // 2 - main_c) % n
    q = math.exp(-esp / t2)
    predicted = (1.0 - q) / (1.0 + q)
    center = slice(n // 2 - 8, n // 2 + 8)
    measured = rolled[center, center].max() / mag[center, center].max()
    ratio_err = abs(measured / predicted - 1.0)
    report(
        7,
        "TSE TF=2 half-matrix ghost",
        abs(offset - n / 2) <= 1.0 and ratio_err <= 0.20,
        f"centroid offset {offset:.2f} rows (want {n // 2}), "
        f"ghost/main {measured:.3f} vs exp(-dTE/T2) model {predicted:.3f} "
        f"({100 * ratio_err:.1f}% off)",
    )


# ---------------------------------------------------------------------------
# 8. EPI phase map under static-field inhomogeneity
# ---------------------------------------------------------------------------


def test_criterion_08_epi_phase_map():
    fov, n = 0.5, 64
    px = fov / n
    seq = build_gradient_epi(fov=fov, n=n, n_echoes=n, readout_grad=5.962e-3, blip_s=1e-4)
    te_eff = seq.meta["te_eff"]
    system = SystemModel(
        field=StaticField(b0=1.5, inhomogeneity=Legendre12Inhomogeneity(c=20e-6, r=0.25)),
        receive=UniformSensitivity(),
    )
    phantom = Phantom([thin_box(-0.14, -0.14, 0.28, 0.28, m0=1.0, t1=1.0, t2=0.2)])
    res = quiet_run(
        sequence=seq, phantom=phantom, system=system, spacing=(px, px, 1.0), workers=1
    )
    k = assemble_kspace(res.echo_matrix(), seq.trajectory_table(), n_rows=n, fov=fov)[0]
    img = reconstruct(k)
    xs, ys = img.axis_coords(1), img.axis_coords(0)
    model = np.array(
        [[spin_off_resonance(system.field, (x, y, 0.0), 0.0) for x in xs] for y in ys]
    )
    residual = np.angle(img.complex_image * np.exp(1j * model * te_eff))
    residual = np.angle(np.exp(1j * (residual - residual[n // 2, n // 2])))
    core = (np.abs(xs)[None, :] <= fov / 4) & (np.abs(ys)[:, None] <= fov / 4)
    worst = float(np.abs(residual[core]).max())
    span = float((model * te_eff)[core].min())
    report(
        8,
        "EPI phase = -domega(x)*TE under inhomogeneity",
        worst <= 0.05,
        f"worst residual {worst:.3f} rad (model phases down to {span:.2f} rad), "
        f"te_eff {te_eff * 1e3:.1f} ms",
    )


# ---------------------------------------------------------------------------
# 9. CPMG relaxometry end to end
# ---------------------------------------------------------------------------


def test_criterion_09_cpmg_t2_mapping():
    fov, n = 0.375, 64
    grad = readout_gradient(fov, n, 0.012)
    seq = build_cpmg(fov=fov, n=n, n_echoes=12, dte=0.02, tr=2.0, readout_grad=grad)
    probes = [
        ((-0.09, -0.09), 0.9, 0.05),
        ((+0.09, -0.09), 0.7, 0.10),
        ((-0.09, +0.09), 0.5, 0.15),
        ((+0.09, +0.09), 0.3, 0.20),
    ]
    size = 0.09
    phantom = Phantom(
        [
            thin_box(cx - size / 2, cy - size / 2, size, size, m0=m0, t1=0.3, t2=t2)
            for (cx, cy), m0, t2 in probes
        ]
    )
    started = time.perf_counter()
    res = quiet_run(sequence=seq, phantom=phantom, spacing=None, workers=1)
    runtime = time.perf_counter() - started
    volumes = assemble_kspace(res.echo_matrix(), seq.trajectory_table(), n_rows=n, fov=fov)
    images = [reconstruct(k) for k in volumes]
    # absolute intensity scale of the reconstruction chain
    scale = (fov * fov) / (n * n * res.spin_count * res.spacing[0] * res.spacing[1])
    te = np.array(seq.meta["echo_times"])
    xs, ys = images[0].axis_coords(1), images[0].axis_coords(0)
    details = []
    ok = True
    for (cx, cy), m0, t2 in probes:
        mask = (np.abs(xs[None, :] - cx) <= 0.03) & (np.abs(ys[:, None] - cy) <= 0.03)
        series = np.array([img.magnitude[mask].mean() for img in images])
        fit = cpmg_fit(te, series)
        rho_err = abs(fit.rho / scale / m0 - 1.0)
        t2_err = abs(fit.t2 / t2 - 1.0)
        ok = ok and rho_err <= 0.02 and t2_err <= 0.02
        details.append(f"(rho {100 * rho_err:.2f}%, T2 {100 * t2_err:.2f}%)")
    report(
        9,
        "CPMG 12 echoes 20-240 ms: fitted rho and T2",
        ok,
        " ".join(details) + f", runtime {runtime:.1f} s",
    )


# ---------------------------------------------------------------------------
# 10. parallel determinism and the comparison tool
# ---------------------------------------------------------------------------


def test_criterion_10_parallel_determinism():
    grad = readout_gradient(0.25, 16, 0.008)
    seq = build_spin_echo(fov=0.25, n=16, te=0.03, tr=1.0, readout_grad=grad)
    phantom = Phantom([thin_box(-0.05, -0.04, 0.1, 0.08, m0=1.0, t1=1.0, t2=0.2)])
    common = dict(sequence=seq, phantom=phantom, spacing=(0.006, 0.006, 0.002), blocks=32)
    ref = quiet_run(workers=1, deterministic=True, **common)
    det8 = quiet_run(workers=8, deterministic=True, **common)
    nondet = quiet_run(workers=8, deterministic=False, **common)
    db_det = delta_e_stoer(ref.echo_matrix(), det8.echo_matrix())
    db_nondet = delta_e_stoer(ref.echo_matrix(), nondet.echo_matrix())
    rng = np.random.default_rng(3)
    probe = rng.normal(size=512) + 1j * rng.normal(size=512)
    ident = compare_results(probe, probe.copy())
    scaled_db = delta_e_stoer(probe, probe * (1.0 + 1e-6))
    ok = (
        db_det <= -200.0
        and db_nondet <= -120.0
        and ident.exceedances == 0
        and abs(scaled_db + 120.0) <= 0.5
    )
    report(
        10,
        "deterministic/nondeterministic reduction and compare tool",
        ok,
        f"det {db_det} dB, nondet {db_nondet:.1f} dB, identity exceedances "
        f"{ident.exceedances}, scaled {scaled_db:.2f} dB",
    )


# ---------------------------------------------------------------------------
# 11. throughput scaling (soft gate, hardware dependent)
# ---------------------------------------------------------------------------


_CAPACITY_STEPS = 1_000_000


def _capacity_task() -> int:
    # a fixed pure-Python loop that runs no mrsim code
    total, table = 0, {}
    for i in range(_CAPACITY_STEPS):
        table[i & 1023] = total
        total += i * 3 % 7
    return total


def two_process_capacity() -> float:
    """The box's rate on the fixed task with two processes at once over
    its rate with one: 2 where two cores are free, 1 where the two run
    one after the other.  One process runs before and after the two, so
    a drift of the box's speed mostly cancels; the median of three such
    rounds."""

    def wall(processes):
        procs = [mp.Process(target=_capacity_task) for _ in range(processes)]
        started = time.perf_counter()
        for p in procs:
            p.start()
        for p in procs:
            p.join()
        return time.perf_counter() - started

    rounds = [(wall(1), wall(2), wall(1)) for _ in range(3)]
    return sorted((before + after) / two for before, two, after in rounds)[1]


def test_criterion_11_throughput_scaling():
    grad = readout_gradient(0.5, 128, 0.01)
    seq = build_tse(
        fov=0.5, n=128, turbo_factor=2, echo_spacing=0.04, tr=3.0, readout_grad=grad
    )
    phantom = Phantom([thin_box(-0.1, -0.1, 0.2, 0.2, m0=1.0, t1=0.8, t2=0.1)])
    spacing = (1.4e-3, 1.4e-3, 2e-3)
    cores = os.cpu_count() or 1
    target_w = min(4, cores)
    etas, cpu = {}, {}
    for w in (1, target_w):
        res = quiet_run(
            sequence=seq, phantom=phantom, spacing=spacing, workers=w, blocks=4 * w
        )
        etas[w] = res.metrics.throughput
        cpu[w] = sum(res.metrics.cpu_s.values())
        hardware = res.metrics.hardware
        spin_count = res.spin_count
    # printed beside the ratio, never asserted: what the box gives two
    # processes in this round, and how much CPU the pool's blocks add
    capacity = two_process_capacity()
    speedup = etas[target_w] / etas[1]
    detail = (
        f"eta(1) = {etas[1]:.0f} spins/s, eta({target_w}) = {etas[target_w]:.0f} spins/s, "
        f"speedup {speedup:.2f} on {hardware} ({spin_count} spins); "
        f"two-process capacity {capacity:.2f}x, "
        f"pool CPU inflation {cpu[target_w] / cpu[1]:.2f}x"
    )
    if cores >= 4:
        report(11, "throughput scaling eta(4)/eta(1) >= 2.4", speedup >= 2.4, detail)
    else:
        # soft gate: the 4-core premise is not met on this machine; record
        # the measured figures with the hardware fingerprint instead
        report(11, "throughput recorded (4-core gate skipped)", speedup > 0.0, detail)


# ---------------------------------------------------------------------------
# 12. multi-pulse k excursion
# ---------------------------------------------------------------------------


def test_criterion_12_multipulse_k_excursion():
    k_line = 140.0  # per-interval moment = 2 * k_max of the readout
    dt = 1e-3
    elements = [
        ElementarySequence(
            pulse=HardPulse(math.radians(11.25), 0.0),
            gradient=GradientWaveform.constant(gx=k_line / (GAMMA_PROTON * dt)),
            duration=dt,
        )
        for _ in range(64)
    ]
    k = max_k_excursion(Sequence(elements, name="pulse_train"))
    want = 64.0 * k_line
    err_ulp = abs(k[0] - want) / np.spacing(want)
    report(
        12,
        "64-pulse train reaches 64 * 2 * k_max",
        err_ulp <= 4.0,
        f"K = {k[0]!r}, expected {want!r} ({err_ulp:.1f} ulp off)",
    )
