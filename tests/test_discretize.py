import math

import numpy as np
import pytest

from mrsim.bloch import GAMMA_PROTON, NO_RELAX, FrameContext, HardPulse, RelaxationParams
from mrsim.bloch import apply_shaped_pulse, equilibrium
from mrsim.discretize import (
    acquisition_params,
    max_spacing,
    pruned_max_spacing,
    rf_sampling_check,
    steady_state_prune,
)
from mrsim.errors import InvalidParameter
from mrsim.ktspace import simulate_kt
from mrsim.phantom import Phantom, PhantomBox
from mrsim.sequence import (
    AcquisitionSpec,
    ElementarySequence,
    GradientWaveform,
    Sequence,
    build_gradient_epi,
    readout_duration,
    readout_gradient,
)

from oracles import reference_prune


def readout_only(k_max, n=33, duration=0.01):
    els = [
        ElementarySequence(
            pulse=HardPulse(math.pi / 2, 0.0),
            gradient=GradientWaveform.constant(gx=-k_max / (GAMMA_PROTON * 0.005)),
            duration=0.005,
        ),
        ElementarySequence(
            gradient=GradientWaveform.constant(gx=2 * k_max / (GAMMA_PROTON * duration)),
            duration=duration,
            acquisition=AcquisitionSpec(True, n),
            kspace_row=0,
        ),
    ]
    return Sequence(els, name="readout")


def test_max_spacing_readout_bound():
    k_max = 200.0
    report = max_spacing(readout_only(k_max))
    assert report.k_max[0] == pytest.approx(k_max, rel=1e-12)
    assert report.dx_max[0] == pytest.approx(math.pi / k_max, rel=1e-12)
    assert report.spacing[0] == pytest.approx(0.8 * math.pi / k_max, rel=1e-12)


def test_max_spacing_zero_gradient_axis_unbounded():
    report = max_spacing(readout_only(100.0))
    assert math.isinf(report.dx_max[1]) and math.isinf(report.dx_max[2])
    assert "suffices" in report.text()


def test_max_spacing_monotone_under_extension():
    base = readout_only(150.0)
    report_a = max_spacing(base)
    extended = Sequence(
        base.elements
        + [
            ElementarySequence(
                gradient=GradientWaveform.constant(gx=1e-4), duration=0.01
            )
        ],
        name="ext",
    )
    report_b = max_spacing(extended)
    assert report_b.dx_max[0] <= report_a.dx_max[0]


def test_max_spacing_margin_applied_to_readout_axis():
    seq = readout_only(100.0)
    plain = max_spacing(seq)
    with_margin = max_spacing(seq, object_delta_omega_bound=500.0, char_length=0.1)
    assert with_margin.k_max[0] > plain.k_max[0]
    assert with_margin.k_max[1] == plain.k_max[1]
    with pytest.raises(InvalidParameter):
        max_spacing(seq, object_delta_omega_bound=500.0)


def test_max_spacing_predicts_spin_count():
    ph = Phantom([PhantomBox(origin=(0, 0, 0), size=(0.1, 0.1, 0.001), m0=1.0)])
    report = max_spacing(readout_only(200.0), phantom=ph)
    per_axis = math.floor(0.1 / report.spacing[0])
    assert report.predicted_spins == per_axis  # y and z collapse to one spin


# ---------------------------------------------------------------------------
# steady-state pruning
# ---------------------------------------------------------------------------


def ssfp_cycles(n_cycles, flip_deg=30.0, tr=0.01, unit=100.0):
    els = []
    for _ in range(n_cycles):
        els.append(
            ElementarySequence(
                pulse=HardPulse(math.radians(flip_deg), 0.0),
                gradient=GradientWaveform.constant(gx=unit / (GAMMA_PROTON * tr)),
                duration=tr,
            )
        )
    return Sequence(els, name="ssfp")


def test_prune_single_configuration_keeps_its_k():
    seq = readout_only(120.0)
    out = simulate_kt(seq, RelaxationParams(t1=1.0, t2=0.5, m0=1.0))
    reduced = steady_state_prune(out.trace, grayscale_levels=256)
    # only the echo-forming configuration exists; K reduces to the k it visits
    assert reduced[0] == pytest.approx(120.0, rel=1e-9)


def test_prune_steady_state_cuts_far_configurations():
    from mrsim.ktspace import max_k_excursion

    seq = ssfp_cycles(30)
    out = simulate_kt(seq, RelaxationParams(t1=0.1, t2=0.005, m0=1.0))
    unpruned = max_k_excursion(seq)[0]  # relaxation-free linear growth
    assert unpruned == pytest.approx(30 * 100.0, rel=1e-12)
    reduced = steady_state_prune(out.trace, grayscale_levels=256)
    assert reduced[0] < 0.25 * unpruned


def test_prune_one_gray_level_is_maximal():
    seq = ssfp_cycles(10)
    out = simulate_kt(seq, RelaxationParams(t1=0.5, t2=0.05, m0=1.0))
    loose = steady_state_prune(out.trace, grayscale_levels=1)
    tight = steady_state_prune(out.trace, grayscale_levels=4096)
    assert loose[0] <= tight[0]


@pytest.mark.parametrize("levels", [1, 256, 4096])
def test_prune_matches_point_by_point_reference(levels):
    for seq, relax in (
        (ssfp_cycles(30), RelaxationParams(t1=0.1, t2=0.005, m0=1.0)),
        (ssfp_cycles(12), RelaxationParams(t1=0.5, t2=0.3, m0=1.0)),
        (readout_only(120.0), RelaxationParams(t1=1.0, t2=0.5, m0=1.0)),
    ):
        trace = simulate_kt(seq, relax).trace
        assert steady_state_prune(trace, grayscale_levels=levels) == reference_prune(
            trace, grayscale_levels=levels
        )


@pytest.mark.parametrize("t1, t2", [(0.8, 0.1), (2.0, 1.5)])
def test_streaming_prune_matches_trace_prune(t1, t2):
    from mrsim.sequence import build_tse

    seq = build_tse(
        fov=0.2, n=16, turbo_factor=4, echo_spacing=0.02, tr=0.3,
        readout_grad=readout_gradient(0.2, 16, 0.004),
    )
    relax = RelaxationParams(t1=t1, t2=t2, m0=1.0)
    traced = simulate_kt(seq, relax)
    untraced = simulate_kt(seq, relax, record_trace=False)
    # the untraced walk relaxes whole readouts at once, to the same state
    assert untraced.trace == []
    assert untraced.final.trans == traced.final.trans
    assert untraced.final.longi == traced.final.longi
    for levels in (1, 256, 4096):
        report = pruned_max_spacing(seq, relax, grayscale_levels=levels)
        assert report.k_max == steady_state_prune(traced.trace, grayscale_levels=levels)
    assert report.k_max[0] > 0.0


def test_streaming_prune_sees_configurations_outside_readouts():
    # no acquisition: every configuration the bound sees sits at a pulse
    # or an interval boundary
    seq = ssfp_cycles(30)
    relax = RelaxationParams(t1=0.1, t2=0.005, m0=1.0)
    report = pruned_max_spacing(seq, relax)
    assert report.k_max == steady_state_prune(simulate_kt(seq, relax).trace)
    assert report.k_max[0] > 0.0


def test_pruned_max_spacing_relaxes_multi_repetition_bound():
    from mrsim.sequence import build_spin_echo

    g = readout_gradient(0.25, 16, 0.01)
    seq = build_spin_echo(fov=0.25, n=16, te=0.03, tr=2.0, readout_grad=g)
    hard = max_spacing(seq)
    soft = pruned_max_spacing(seq, RelaxationParams(t1=1.0, t2=0.2, m0=1.0))
    assert soft.dx_max[0] > 2.0 * hard.dx_max[0]


# ---------------------------------------------------------------------------
# acquisition parameter solving
# ---------------------------------------------------------------------------


def test_acquisition_params_whole_body_protocol():
    # FOV 0.5 m, 256 samples, 0.239 mT/m: dt solves the rectangular relation
    p = acquisition_params(fov=0.5, n=256, grad=0.239e-3)
    assert readout_gradient(0.5, 256, p.dt) == pytest.approx(0.239e-3, rel=1e-12)
    assert p.dk == pytest.approx(2 * math.pi / 0.5)
    assert p.k_max == pytest.approx(math.pi * 255 / 0.5)


def test_acquisition_params_solves_each_variable():
    ref = acquisition_params(fov=0.5, n=64, grad=1e-3)
    assert acquisition_params(fov=0.5, n=64, dt=ref.dt).grad == pytest.approx(1e-3)
    assert acquisition_params(n=64, dt=ref.dt, grad=1e-3).fov == pytest.approx(0.5)
    with pytest.raises(InvalidParameter):
        acquisition_params(fov=0.5, n=64)
    with pytest.raises(InvalidParameter):
        acquisition_params(fov=0.5, n=64, dt=ref.dt, grad=1e-3)


def test_acquisition_params_degenerate_two_samples():
    p = acquisition_params(fov=0.5, n=2, grad=1e-3)
    assert 2 * p.k_max == pytest.approx(2 * math.pi / 0.5)


def test_epi_line_timing_reproduces_effective_echo_time():
    # published whole-body EPI protocol: FOV 0.5 m, 128 lines at 5.962 mT/m
    # gives about 1 ms per line and an effective echo time of 67.7 ms
    p = acquisition_params(fov=0.5, n=128, grad=5.962e-3)
    assert p.dt == pytest.approx(1.0e-3, rel=2e-3)
    seq = build_gradient_epi(fov=0.5, n=128, n_echoes=128, readout_grad=5.962e-3, blip_s=50e-6)
    assert seq.meta["te_eff"] == pytest.approx(67.7e-3, rel=0.02)


# ---------------------------------------------------------------------------
# RF envelope sampling
# ---------------------------------------------------------------------------


def test_rf_sampling_without_gradient_always_passes():
    report = rf_sampling_check(np.ones(16), dt_per_sample=1.0, gz=0.0, fov=0.5)
    assert report.ok
    assert report.required_n_hf == 1


def test_rf_sampling_fov_doubling_halves_dt_bound():
    a = rf_sampling_check(np.ones(16), 1e-5, gz=5e-3, fov=0.2)
    b = rf_sampling_check(np.ones(16), 1e-5, gz=5e-3, fov=0.4)
    assert b.dt_bound == pytest.approx(a.dt_bound / 2.0)


def sinc_envelope(n, lobes, flip, dt):
    t = np.linspace(-lobes, lobes, n)
    env = np.sinc(t).astype(complex)
    env *= flip / (GAMMA_PROTON * np.real(np.trapezoid(env, dx=dt)))
    return env


def spurious_excitation(n_hf, gz, fov, total_t, flip, bandwidth):
    """Max |Mxy| excited outside twice the nominal slice for n_hf samples."""
    dt = total_t / n_hf
    env = sinc_envelope(n_hf, 4, flip, dt)
    slice_half = bandwidth / (GAMMA_PROTON * gz) / 2.0
    worst = 0.0
    for z in np.linspace(-fov / 2, fov / 2, 81):
        if abs(z) < 2.0 * slice_half:
            continue
        m = apply_shaped_pulse(
            equilibrium(1.0),
            NO_RELAX,
            env,
            dt,
            GAMMA_PROTON * gz * z * dt,
            FrameContext.on_resonance(1.5),
        )
        worst = max(worst, abs(complex(m.mx, m.my)))
    return worst


def test_rf_sampling_bound_matches_aliasing_scan():
    # slice-select fixture: the bound's minimal sample count must tame the
    # spurious excitation that a clearly undersampled envelope produces
    gz, fov, total_t, flip = 5e-3, 0.5, 2e-3, math.radians(30)
    lobes = 4
    bandwidth = 2 * math.pi * (2 * lobes) / total_t  # main-lobe bandwidth of the sinc
    report = rf_sampling_check(
        np.ones(64), total_t / 64, gz=gz, fov=fov, bandwidth=bandwidth
    )
    n_required = math.ceil(
        total_t * (report.omega_max + bandwidth / 2.0) / math.pi
    )
    assert report.required_n_hf == n_required
    ok_level = spurious_excitation(2 * n_required, gz, fov, total_t, flip, bandwidth)
    bad_level = spurious_excitation(max(8, n_required // 6), gz, fov, total_t, flip, bandwidth)
    assert bad_level > 5.0 * ok_level
    assert ok_level < 0.05 * math.sin(flip)
