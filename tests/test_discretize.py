import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrsim import ktspace
from mrsim.bloch import GAMMA_PROTON, NO_RELAX, HardPulse, RelaxationParams
from mrsim.discretize import (
    PruneBound,
    acquisition_params,
    max_spacing,
    pruned_max_spacing,
    rf_sampling_check,
    steady_state_prune,
)
from mrsim.errors import InvalidParameter
from mrsim.ktspace import Configuration, TracePoint, derive_unit_k, max_k_excursion, simulate_kt
from mrsim.phantom import Phantom, PhantomBox
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

from oracles import (
    reference_k_excursion,
    reference_prune,
    shaped_pulse,
)


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
            acquisition=AcquisitionSpec(n),
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


def test_grouped_k_excursion_matches_the_per_element_form():
    # two readout shapes, each repeated: a constant one along x and a
    # sampled one along y, and an acquisition that moves no k
    along_y = np.zeros((5, 3))
    along_y[:, 1] = [0.0, 1e-3, 2e-3, 1e-3, 0.0]
    readouts = [
        ElementarySequence(
            gradient=GradientWaveform.constant(gx=1e-3), duration=0.004,
            acquisition=AcquisitionSpec(5), kspace_row=0,
        ),
        ElementarySequence(
            gradient=GradientWaveform.from_samples(along_y, 1e-3), duration=0.004,
            acquisition=AcquisitionSpec(5), kspace_row=1,
        ),
        ElementarySequence(duration=0.002, acquisition=AcquisitionSpec(3), kspace_row=2),
    ]
    refocus = ElementarySequence(pulse=HardPulse(math.pi, 0.0), duration=0.001)
    excite = ElementarySequence(pulse=HardPulse(math.pi / 2, 0.0))
    seq = Sequence([excite] + 2 * ([refocus] + readouts), name="two shapes")
    assert max_spacing(seq).k_max == reference_k_excursion(seq)


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


@pytest.mark.parametrize("levels", [math.nan, math.inf, -math.inf, 0, 0.5])
def test_prune_rejects_grayscale_levels_below_one_or_not_finite(levels):
    # NaN and inf passed the ``< 1`` check and gave the unpruned K_max
    seq = build_spin_echo(0.25, 8, 0.03, 0.5, readout_gradient(0.25, 8, 0.008))
    relax = RelaxationParams(t1=1.0, t2=0.1, m0=1.0)
    with pytest.raises(InvalidParameter, match="grayscale_levels"):
        PruneBound(levels)
    with pytest.raises(InvalidParameter, match="grayscale_levels"):
        pruned_max_spacing(seq, relax, grayscale_levels=levels)
    with pytest.raises(InvalidParameter, match="grayscale_levels"):
        steady_state_prune([], grayscale_levels=levels)


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


@pytest.mark.parametrize(
    "family",
    [
        # head96_loop's spin-echo design at n = 16, with its tissue
        lambda: (
            build_spin_echo(fov=0.5, n=16, te=0.05, tr=3.0, readout_grad=0.239e-3),
            RelaxationParams(t1=1.0, t2=0.2, m0=1.0),
        ),
        # cpmg12_auto's twelve-echo train at n = 8, with its longest T2
        lambda: (
            build_cpmg(
                fov=0.375, n=8, n_echoes=12, dte=0.02, tr=2.0,
                readout_grad=readout_gradient(0.375, 8, 0.012),
            ),
            RelaxationParams(t1=0.3, t2=0.2, m0=1.0),
        ),
        # tse128_pool's turbo-factor-2 design at n = 16, with its tissue
        lambda: (
            build_tse(
                fov=0.5, n=16, turbo_factor=2, echo_spacing=0.04, tr=3.0,
                readout_grad=readout_gradient(0.5, 16, 0.01),
            ),
            RelaxationParams(t1=0.8, t2=0.1, m0=1.0),
        ),
    ],
    ids=["spin_echo", "cpmg12", "tse128"],
)
def test_streaming_prune_matches_reference_on_served_families(family):
    seq, relax = family()
    trace = simulate_kt(seq, relax).trace
    for levels in (1, 256, 4096):
        streamed = pruned_max_spacing(seq, relax, grayscale_levels=levels).k_max
        assert streamed == steady_state_prune(trace, grayscale_levels=levels)
        assert streamed == reference_prune(trace, grayscale_levels=levels)
        assert streamed[0] > 0.0


UNIT = 100.0  # rad/m per order of the hand-built sequences below


def _pulse(deg, phase_deg=0.0):
    return ElementarySequence(pulse=HardPulse(math.radians(deg), math.radians(phase_deg)))


def _lobe(orders, duration=1e-3):
    g = orders * UNIT / (GAMMA_PROTON * duration)
    return ElementarySequence(gradient=GradientWaveform.constant(gx=g), duration=duration)


# three pulses spread the configurations over orders -6..6, with
# magnitudes close enough that the weak ones can add up past one gray level
SPREAD = [_pulse(90), _lobe(2), _pulse(60, 90), _lobe(3), _pulse(60), _lobe(-6)]


def _streamed_matches_reference(seq, relax):
    """Assert the streamed bound equals the point-by-point reference at
    1, 256 and 4096 gray levels; return the points the streamed form
    ranked at each, as the walk's own bound counts them."""
    trace = simulate_kt(seq, relax).trace
    ranked = []
    for levels in (1, 256, 4096):
        streamed = pruned_max_spacing(seq, relax, grayscale_levels=levels).k_max
        assert streamed == reference_prune(trace, grayscale_levels=levels)
        bound = PruneBound(levels)
        simulate_kt(seq, relax, record_trace=False, observe=bound)
        assert bound.k_max == streamed
        ranked.append(bound.ranked)
    return trace, ranked


def _x_order(point):
    """The transversal orders of a trace point ranked by descending |kx|."""
    trans = [e for e in point.entries if e.kind == "transversal"]
    return [e.order for e in sorted(trans, key=lambda e: abs(e.k_position[0]), reverse=True)]


def test_streaming_prune_matches_reference_when_the_k_order_changes_inside_a_readout():
    # the readout sweeps k through every configuration
    els = list(SPREAD)
    els.append(
        ElementarySequence(
            gradient=GradientWaveform.constant(gx=12 * UNIT / (GAMMA_PROTON * 0.012)),
            duration=0.012,
            acquisition=AcquisitionSpec(49),
            kspace_row=0,
        )
    )
    seq = Sequence(els, name="sweep")
    trace, ranked = _streamed_matches_reference(seq, RelaxationParams(t1=1.0, t2=0.3, m0=1.0))
    # the readout runs from 3 to 15 ms; its inner samples change order
    inner = [_x_order(p) for p in trace if 0.003 < p.time < 0.015]
    assert sum(a != b for a, b in zip(inner, inner[1:])) >= 5
    assert ranked[0] > 0


def test_streaming_prune_matches_reference_when_a_sampled_readout_turns():
    # the readout's moment rises for half the window, then falls back
    g = 6 * UNIT / (GAMMA_PROTON * 0.006)
    shape = np.zeros((13, 3))
    shape[1:6, 0], shape[7:12, 0] = g, -g
    readout = ElementarySequence(
        gradient=GradientWaveform.from_samples(shape, 0.001),
        duration=0.012,
        acquisition=AcquisitionSpec(25),
        kspace_row=0,
    )
    seq = Sequence(SPREAD + [readout], name="turn")
    moved = readout.gradient.partial_moments(readout.acquisition.sample_times(0.012))[:, 0]
    assert moved.argmax() not in (0, len(moved) - 1)
    _, ranked = _streamed_matches_reference(seq, RelaxationParams(t1=1.0, t2=0.3, m0=1.0))
    assert ranked[0] > 0


def test_streaming_prune_matches_reference_at_an_exact_tie_with_the_budget():
    # without relaxation the 90-degree splits give magnitudes of 1/2 and
    # 1/4; after the last lobe the farthest configuration, at order -5,
    # holds exactly the one-gray-level budget, half the largest
    # magnitude, so the strict comparison decides whether the kept |k|
    # is its 500 rad/m or the 300 rad/m of the next ones
    relax = RelaxationParams(t1=math.inf, t2=math.inf, m0=1.0)
    seq = Sequence([_pulse(90), _lobe(1), _pulse(90), _lobe(3), _pulse(90), _lobe(-1)], name="tie")
    trace, ranked = _streamed_matches_reference(seq, relax)
    ties = 0
    for point in trace:
        trans = [e for e in point.entries if e.kind == "transversal"]
        if not trans:
            continue
        budget = 0.5 * max(abs(e.population) for e in trans)
        acc = 0.0
        for e in sorted(trans, key=lambda e: abs(e.k_position[0]), reverse=True):
            acc += abs(e.population)
            ties += acc == budget
    assert ties > 0
    assert ranked[0] > 0


def test_streaming_prune_ranks_a_point_whose_weak_sum_meets_the_budget_by_rounding():
    # five weak magnitudes that add up to exactly the budget, 1.0, in the
    # order given and to one ulp past it in the order of descending |k|,
    # so the point-by-point sum is over at the fifth, not at the strong one
    weak = [0.11042957507252793, 0.27218647384834266, 0.11346415917667864,
            0.2921939923042366, 0.21172579959821422]
    kx = [500.0, 400.0, 100.0, 300.0, 200.0, 50.0]
    pops = np.array([weak + [2.0]], dtype=complex)
    k = np.zeros((1, 6, 3))
    k[0, :, 0] = kx
    trace = [
        TracePoint(0.0, [
            Configuration("transversal", (i, 0, 0), complex(p), (kx[i], 0.0, 0.0))
            for i, p in enumerate(pops[0])
        ])
    ]
    bound = PruneBound(grayscale_levels=1)
    bound(k, pops)
    assert bound.k_max == reference_prune(trace, grayscale_levels=1) == (100.0, 0.0, 0.0)
    assert bound.ranked == 1


def _point(raw_weak, strong, share, ulps, ks):
    """Magnitudes of one point at one gray level: the strong ones as
    given, the weak ones scaled to add up to ``share`` of the budget
    (half the largest) and the first moved ``ulps`` ulps; ``ks`` the
    signed kx."""
    budget = 0.5 * max(strong)
    weak = [share * budget * r / sum(raw_weak) for r in raw_weak]
    for _ in range(abs(ulps)):
        weak[0] = math.nextafter(weak[0], math.inf if ulps > 0 else 0.0)
    mags = weak + list(strong)
    return mags, [float(k) for k in ks[: len(mags)]]


@given(
    points=st.lists(
        st.tuples(
            st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5),
            st.lists(st.floats(0.1, 4.0), min_size=1, max_size=3),
            st.sampled_from([0.5, 1.0 - 1e-13, 1.0, 1.0 + 1e-13]),
            st.integers(-3, 3),
            st.lists(st.integers(-6, 6), min_size=8, max_size=8),
        ),
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_streaming_prune_matches_reference_near_the_budget(points):
    # weak sums well within, just within, at and just past the budget,
    # |k| ties and configurations of either sign: the shortcut and the ranking must agree with the
    # point-by-point form wherever they apply.  The phases are exact
    # quarter turns, so np.abs and abs() give the same magnitudes.
    bound = PruneBound(grayscale_levels=1)
    trace = []
    for raw_weak, strong, share, ulps, ks in points:
        mags, kx = _point(raw_weak, strong, share, ulps, ks)
        m = len(mags)
        k = np.zeros((1, m, 3))
        k[0, :, 0] = [25.0 * v for v in kx]
        k[0, :, 1] = [-25.0 * v for v in reversed(kx)]
        pops = np.array([mags], dtype=complex) * np.array([[1, 1j, -1, -1j] * 2])[:, :m]
        bound(k, pops)
        trace.append(
            TracePoint(0.0, [
                Configuration("transversal", (i, 0, 0), complex(p), tuple(k[0, i]))
                for i, p in enumerate(pops[0])
            ])
        )
    assert bound.k_max == reference_prune(trace, grayscale_levels=1)


def test_streaming_prune_sees_configurations_outside_readouts():
    # no acquisition: every configuration the bound sees sits at a pulse
    # or an interval boundary
    seq = ssfp_cycles(30)
    relax = RelaxationParams(t1=0.1, t2=0.005, m0=1.0)
    report = pruned_max_spacing(seq, relax)
    assert report.k_max == steady_state_prune(simulate_kt(seq, relax).trace)
    assert report.k_max[0] > 0.0


def test_pruned_max_spacing_logs_points_observed_and_ranked(caplog):
    seq = build_spin_echo(0.25, 8, 0.03, 0.5, readout_gradient(0.25, 8, 0.008))
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        pruned_max_spacing(seq, RelaxationParams(t1=1.0, t2=0.2, m0=1.0))
    logged = "steady-state prune: 112 points observed, 140 (point, axis) pairs ranked"
    assert any(rec.getMessage() == logged for rec in caplog.records)


def test_pruned_max_spacing_relaxes_multi_repetition_bound():
    g = readout_gradient(0.25, 16, 0.01)
    seq = build_spin_echo(fov=0.25, n=16, te=0.03, tr=2.0, readout_grad=g)
    hard = max_spacing(seq)
    soft = pruned_max_spacing(seq, RelaxationParams(t1=1.0, t2=0.2, m0=1.0))
    assert soft.dx_max[0] > 2.0 * hard.dx_max[0]


@st.composite
def _commensurate_sequences(draw):
    """Pulses, lobes and readouts on all three axes whose moments are
    integer multiples of one unit per axis, zero-length elements among
    them; constant and trapezoid lobes."""
    units = [draw(st.floats(50.0, 2000.0)) for _ in range(3)]
    elements = []
    for _ in range(draw(st.integers(1, 10))):
        pulse = None
        if draw(st.booleans()):
            pulse = HardPulse(draw(st.floats(0.1, math.pi)), draw(st.floats(0.0, 2 * math.pi)))
        duration = draw(st.sampled_from([0.0, 1e-3, 2.5e-3, 4e-3]))
        if duration == 0.0:
            elements.append(ElementarySequence(pulse=pulse))
            continue
        q = [draw(st.integers(-3, 3)) for _ in range(3)]
        if draw(st.booleans()):
            ramp = duration * draw(st.sampled_from([0.1, 0.25, 0.5]))
            # a trapezoid's moment is gamma * G * (ramp + flat)
            amps = [qi * u / (GAMMA_PROTON * (duration - ramp)) for qi, u in zip(q, units)]
            gradient = GradientWaveform.trapezoid(*amps, ramp_s=ramp, flat_s=duration - 2 * ramp)
        else:
            amps = [qi * u / (GAMMA_PROTON * duration) for qi, u in zip(q, units)]
            gradient = GradientWaveform.constant(*amps)
        samples = draw(st.sampled_from([0, 0, 1, 2, 5]))
        elements.append(ElementarySequence(pulse, gradient, duration, AcquisitionSpec(samples)))
    return Sequence(elements)


def _rounding_allowance(seq):
    """How far a walked |k| may pass the relaxation-free K_max per axis.
    The walk shifts element i by q_i units, which its unit derivation
    and its shift check hold within ``_SHIFT_TOL * max(unit, |m_i|)`` of
    the moment m_i; an axis without a unit takes no shift, its moments
    all within ``_UNIT_TOL * max(largest moment, 1)`` of zero.  A path
    through the sequence adds each element's error once at most, on top
    of the float sums of both bounds, a few ulps per element."""
    unit = derive_unit_k(seq)
    moments = np.array([es.gradient.moments(es.duration) for es in seq.elements])
    largest = np.abs(moments).max(axis=0)
    allow = []
    for ax in range(3):
        m = np.abs(moments[:, ax])
        if unit[ax] is None:
            per_element = np.full(m.shape, ktspace._UNIT_TOL * max(largest[ax], 1.0))
        else:
            per_element = ktspace._SHIFT_TOL * np.maximum(unit[ax], m)
        allow.append(per_element.sum())
    k_free = np.array(max_k_excursion(seq))
    return k_free, np.array(allow) + 4 * len(seq.elements) * np.finfo(float).eps * k_free


@given(seq=_commensurate_sequences(), t2=st.floats(0.005, 0.5))
@settings(max_examples=60, deadline=None)
def test_the_walk_and_its_prune_stay_within_the_relaxation_free_bound(seq, t2):
    k_free, allow = _rounding_allowance(seq)
    relax = RelaxationParams(t1=1.0, t2=t2, m0=1.0)
    walked = np.zeros(3)

    def observe(k, populations):
        np.maximum(walked, np.abs(k).max(axis=(0, 1)), out=walked)

    simulate_kt(seq, relax, record_trace=False, observe=observe)
    assert (walked <= k_free + allow).all(), (walked - k_free, allow)
    pruned = np.array(pruned_max_spacing(seq, relax).k_max)
    assert (pruned <= k_free + allow).all(), (pruned - k_free, allow)


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
    assert acquisition_params(fov=0.5, n=64, dt=ref.dt).grad == readout_gradient(0.5, 64, ref.dt)
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
        m = shaped_pulse((0, 0, 1), NO_RELAX, env, dt, GAMMA_PROTON * gz * z * dt)
        worst = max(worst, abs(complex(m[0], m[1])))
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
