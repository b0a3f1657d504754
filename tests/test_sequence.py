import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrsim import ktspace
from mrsim.bloch import GAMMA_PROTON, HardPulse, RelaxationParams
from mrsim.engine import precompute_sequence_tables
from mrsim.errors import InvalidParameter, ParseError, TimingInfeasible, UnitError
from mrsim.sequence import (
    AcquisitionSpec,
    ElementarySequence,
    GradientWaveform,
    Sequence,
    build_cpmg,
    build_gradient_epi,
    build_spin_echo,
    build_tse,
    distinct_elements,
    parse_sequence_file,
    readout_duration,
    readout_gradient,
    serialize_sequence,
    split_elementary,
)


def test_readout_gradient_table_values():
    # whole-body protocol: FOV 0.5 m, 256 samples, 0.239 mT/m readout
    dt = readout_duration(0.5, 256, 0.239e-3)
    assert readout_gradient(0.5, 256, dt) == pytest.approx(0.239e-3, rel=1e-12)
    # small-bore protocol: FOV 0.128 m, 64 samples, 2.349 mT/m
    dt = readout_duration(0.128, 64, 2.349e-3)
    assert readout_gradient(0.128, 64, dt) == pytest.approx(2.349e-3, rel=1e-12)


def test_readout_gradient_two_sample_collapse():
    g = readout_gradient(0.5, 2, 1e-3)
    assert g == pytest.approx(2 * math.pi / (GAMMA_PROTON * 0.5 * 1e-3))


def test_readout_gradient_rejects_bad_input():
    with pytest.raises(InvalidParameter):
        readout_gradient(-1.0, 64, 1e-3)
    with pytest.raises(InvalidParameter):
        readout_gradient(0.5, 1, 1e-3)


# ---------------------------------------------------------------------------
# gradient waveforms
# ---------------------------------------------------------------------------


def test_trapezoid_moment_closed_form():
    g = GradientWaveform.trapezoid(gx=2e-3, ramp_s=1e-3, flat_s=4e-3)
    dur = 6e-3
    m = g.moments(dur)
    assert m[0] == pytest.approx(GAMMA_PROTON * 2e-3 * 5e-3, rel=1e-12)
    # quadrature oracle on the partial moments
    ts = np.linspace(0, dur, 1201)
    amp = np.where(ts < 1e-3, ts / 1e-3, np.where(ts < 5e-3, 1.0, (6e-3 - ts) / 1e-3)) * 2e-3
    numeric = GAMMA_PROTON * np.concatenate([[0.0], np.cumsum((amp[1:] + amp[:-1]) / 2 * np.diff(ts))])
    analytic = g.partial_moments(ts)[:, 0]
    np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


def test_sampled_waveform_moment_matches_trapz():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(25, 3)) * 1e-3
    g = GradientWaveform.from_samples(samples, sample_dt=1e-4)
    m = g.moments(24e-4)
    np.testing.assert_allclose(
        m, GAMMA_PROTON * np.trapezoid(samples, dx=1e-4, axis=0), rtol=1e-12
    )


def test_sampled_waveform_from_array_is_hashable_and_comparable():
    samples = np.array([[0.0, 0.0, 0.0], [1e-3, 0.0, 2e-3], [0.0, 0.0, 0.0]])
    g = GradientWaveform("sampled", samples=samples, sample_dt=1e-3)
    assert g.samples == ((0.0, 0.0, 0.0), (1e-3, 0.0, 2e-3), (0.0, 0.0, 0.0))
    assert hash(g) == hash(GradientWaveform.from_samples(samples.tolist(), 1e-3))
    a = ElementarySequence(gradient=g, duration=2e-3)
    b = ElementarySequence(
        gradient=GradientWaveform("sampled", samples=samples.copy(), sample_dt=1e-3),
        duration=2e-3,
    )
    assert a == b


@pytest.mark.parametrize(
    "samples",
    [np.zeros((4, 2)), np.zeros((4, 4)), np.zeros(2), np.zeros((2, 2, 3)), np.zeros((0, 3)), None],
)
def test_sampled_waveform_rejects_other_shapes_than_n_by_3(samples):
    with pytest.raises(InvalidParameter):
        GradientWaveform("sampled", samples=samples, sample_dt=1e-3)
    if samples is not None:
        with pytest.raises(InvalidParameter):
            GradientWaveform.from_samples(samples, 1e-3)


def test_sampled_span_must_match_duration():
    # 11 samples at 1 ms span 10 ms: on a 4 ms interval the moments and
    # the partial moments at the interval end would disagree
    g = GradientWaveform.from_samples(np.full((11, 3), 1e-3), 1e-3)
    with pytest.raises(InvalidParameter):
        ElementarySequence(gradient=g, duration=4e-3)
    ElementarySequence(gradient=g, duration=10e-3)
    ElementarySequence(gradient=GradientWaveform.from_samples(np.ones((5, 3)) * 1e-3, 1e-3), duration=4e-3)


def test_distinct_elements_ignores_kspace_placement():
    seq = build_spin_echo(0.25, 8, 0.03, 0.5, readout_gradient(0.25, 8, 0.008))
    reps, groups = distinct_elements(seq)
    # per row: its own encoding lobe, then the shared 180, readout and filler
    assert len(groups) == 32 and len(reps) == 11
    assert all(reps[g] is seq.elements[i] for i, g in enumerate(groups) if i < 4)
    for es, g in zip(seq.elements, groups):
        rep = reps[g]
        assert (rep.pulse, rep.gradient, rep.duration, rep.acquisition) == (
            es.pulse,
            es.gradient,
            es.duration,
            es.acquisition,
        )
    readouts = {groups[i] for i, _ in seq.acquisitions()}
    assert len(readouts) == 1
    assert len({es.kspace_row for _, es in seq.acquisitions()}) == 8


def test_trapezoid_duration_mismatch_rejected():
    with pytest.raises(InvalidParameter):
        ElementarySequence(
            gradient=GradientWaveform.trapezoid(gx=1e-3, ramp_s=1e-3, flat_s=1e-3),
            duration=5e-3,
        )


@pytest.mark.parametrize("duration", [0.0, 1e-3, 5e-3])
def test_trapezoid_must_fill_its_duration_at_every_duration(duration):
    # at duration 0 the moment of the 2 ms lobe, 535 rad/m, would be
    # dropped: the partial moment at 0 is 0
    with pytest.raises(InvalidParameter, match="does not match duration"):
        ElementarySequence(
            gradient=GradientWaveform.trapezoid(gx=1e-3, ramp_s=1e-3, flat_s=1e-3),
            duration=duration,
        )
    assert ElementarySequence(gradient=GradientWaveform.trapezoid(gx=1e-3), duration=0.0)


def test_parse_rejects_a_trapezoid_without_its_duration_at_its_block():
    text = (
        "[elementary]\nduration_s = 0.01\n\n[elementary]\ngrad_shape = trapezoid\n"
        "grad_x_mT_per_m = 1\nramp_s = 0.001\nflat_s = 0.001\n"
    )
    with pytest.raises(ParseError, match="does not match duration") as err:
        parse_sequence_file(text)
    assert err.value.line == 4


def test_acquisition_sample_times_span_interval():
    acq = AcquisitionSpec(5)
    np.testing.assert_allclose(acq.sample_times(1.0), [0.0, 0.25, 0.5, 0.75, 1.0])


def _waveforms(draw, duration):
    """A constant, trapezoid or sampled waveform that fills ``duration``."""
    amp = st.floats(-5e-2, 5e-2, allow_subnormal=False)
    shape = draw(st.sampled_from(["constant", "trapezoid", "sampled"]))
    if shape == "constant":
        return GradientWaveform.constant(draw(amp), draw(amp), draw(amp))
    if shape == "trapezoid":
        ramp = duration * draw(st.floats(0.0, 0.5))
        return GradientWaveform.trapezoid(
            draw(amp), draw(amp), draw(amp), ramp_s=ramp, flat_s=duration - 2.0 * ramp
        )
    rows = draw(st.integers(2, 40))
    samples = draw(st.lists(st.tuples(amp, amp, amp), min_size=rows, max_size=rows))
    return GradientWaveform.from_samples(samples, duration / (rows - 1))


@st.composite
def _readouts(draw):
    duration = draw(st.floats(1e-5, 1.0, allow_subnormal=False))
    gradient = _waveforms(draw, duration)
    n = draw(st.integers(1, 600))
    return ElementarySequence(
        gradient=gradient, duration=duration, acquisition=AcquisitionSpec(n)
    )


@given(es=_readouts())
@settings(max_examples=200, deadline=None)
def test_a_waveform_has_one_moment_and_a_readout_ends_on_its_last_sample(es):
    # the moment over the element is the partial moment at its end, bit
    # for bit, and the last of two or more samples is that end, so the
    # tables hold one event per sample and no tail event that only
    # rounding would make
    d, n = es.duration, es.acquisition.n_samples
    assert es.gradient.moments(d).tobytes() == es.gradient.partial_moments([d])[0].tobytes()
    ts = es.acquisition.sample_times(d)
    assert ts.size == n and ts[0] == 0.0 and (n == 1 or ts[-1] == d)
    table = precompute_sequence_tables(Sequence([es])).entries[0]
    assert table.ev_t.size == (n if n > 1 else 2)
    assert table.ev_t[: n].tobytes() == ts.tobytes()
    assert table.ev_mom.tobytes() == es.gradient.partial_moments(table.ev_t).tobytes()
    assert table.ev_mom[-1].tobytes() == es.gradient.moments(d).tobytes()


def _derived_events(es):
    """An element's events as the spin tables derived them on their own:
    the start, the sample instants, the end after the last sample, and
    the partial moments there."""
    t = es.acquisition.sample_times(es.duration)
    end = [es.duration] if es.duration > (t[-1] if t.size else 0.0) else []
    t = np.concatenate([[0.0], t, end])
    return t, es.gradient.partial_moments(t)


@st.composite
def _elements(draw):
    """Constant, trapezoid and sampled elements, zero-length ones
    included, with or without an acquisition."""
    duration = draw(st.one_of(st.just(0.0), st.floats(1e-5, 1.0, allow_subnormal=False)))
    n = draw(st.integers(0, 60)) if duration > 0.0 else 0
    return ElementarySequence(
        gradient=_waveforms(draw, duration), duration=duration, acquisition=AcquisitionSpec(n)
    )


@given(es=_elements())
@settings(max_examples=200, deadline=None)
def test_an_element_makes_its_events_once_and_each_engine_reads_them(es):
    t, moments = es.events
    derived_t, derived_moments = _derived_events(es)
    assert t.tobytes() == derived_t.tobytes()
    assert moments.tobytes() == derived_moments.tobytes()
    assert es.events is es.events and not (t.flags.writeable or moments.flags.writeable)
    # the element's moment is the last row
    assert moments[-1].tobytes() == es.gradient.moments(es.duration).tobytes()
    # the spin tables hold every row past the start, as views
    table = precompute_sequence_tables(Sequence([es])).entries[0]
    assert table.ev_t.tobytes() == t[1:].tobytes() and table.ev_t.base is t
    assert table.ev_mom.tobytes() == moments[1:].tobytes() and table.ev_mom.base is moments
    # the walk's piece holds the sample rows 1 ... n
    n = es.acquisition.n_samples
    piece = ktspace._Piece.of(es, RelaxationParams(1.0, 0.1, 1.0))
    if n:
        assert piece.ts.tobytes() == t[1 : n + 1].tobytes()
        assert piece.partial.tobytes() == moments[1 : n + 1].tobytes()
    else:
        assert piece.ts is None and piece.partial is None


def test_a_replaced_element_makes_its_own_events():
    es = ElementarySequence(
        gradient=GradientWaveform.constant(gx=1e-3), duration=0.004, acquisition=AcquisitionSpec(3)
    )
    # the start, then the samples, the last at the end
    assert es.events[0].tolist() == [0.0, 0.0, 0.002, 0.004]
    longer = dataclasses.replace(es, duration=0.008, acquisition=AcquisitionSpec(1))
    assert longer.events[0].tolist() == [0.0, 0.0, 0.008]
    assert longer.events[1][-1].tobytes() == longer.gradient.moments(0.008).tobytes()
    assert es.events[0].tolist() == [0.0, 0.0, 0.002, 0.004]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def test_spin_echo_counts_and_moments():
    n = 64
    g = readout_gradient(0.5, n, 0.02)
    seq = build_spin_echo(fov=0.5, n=n, te=0.05, tr=0.5, readout_grad=g)
    acqs = list(seq.acquisitions())
    assert len(acqs) == n
    assert all(es.acquisition.n_samples == n for _, es in acqs)
    # dephasing moment is half the readout moment
    dephase = seq.elements[0].gradient.moments(seq.elements[0].duration)[0]
    readout = acqs[0][1].gradient.moments(acqs[0][1].duration)[0]
    assert dephase == pytest.approx(readout / 2.0, rel=1e-12)
    # effective phase encodes (sign flipped by the 180 pulse) run from the
    # most negative ky upward in steps of 2*pi/FOV
    ky = [
        -seq.elements[4 * r].gradient.moments(seq.elements[4 * r].duration)[1]
        for r in range(n)
    ]
    steps = np.diff(ky)
    np.testing.assert_allclose(steps, 2 * math.pi / 0.5, rtol=1e-9)
    assert ky[0] < 0


def test_spin_echo_echo_crosses_k_zero_at_te():
    te = 0.05
    g = readout_gradient(0.5, 33, 0.02)
    seq = build_spin_echo(fov=0.5, n=33, te=te, tr=0.5, readout_grad=g)
    # walk cumulative kx for one excitation, flipping sign at the 180 pulse
    k = 0.0
    t = 0.0
    for es in seq.elements[:4]:
        if es.pulse is not None and abs(es.pulse.alpha - math.pi) < 1e-12:
            k = -k
        if es.acquisition.enabled:
            ts = es.acquisition.sample_times(es.duration)
            partial = es.gradient.partial_moments(ts)[:, 0]
            crossing = ts[np.argmin(np.abs(k + partial))]
            assert t + crossing == pytest.approx(te, rel=1e-9)
        k += es.gradient.moments(es.duration)[0]
        t += es.duration


def test_spin_echo_timing_infeasible():
    g = readout_gradient(0.5, 64, 0.2)  # 200 ms readout cannot fit into TE = 50 ms
    with pytest.raises(TimingInfeasible):
        build_spin_echo(fov=0.5, n=64, te=0.05, tr=0.5, readout_grad=g)


def test_tse_row_ordering_sequential():
    g = readout_gradient(0.5, 16, 0.004)
    seq = build_tse(fov=0.5, n=16, turbo_factor=2, echo_spacing=0.02, tr=0.5, readout_grad=g)
    rows = [es.kspace_row for _, es in seq.acquisitions()]
    assert rows == [s * 2 + e for s in range(8) for e in range(2)]


def test_epi_interleaved_shots_cover_rows():
    g = readout_gradient(0.5, 256, 0.5e-3)
    seq = build_gradient_epi(fov=0.5, n=256, n_echoes=63, readout_grad=g, shots=4)
    rows = sorted(es.kspace_row for _, es in seq.acquisitions())
    assert len(rows) == 63 * 4 == 252
    assert len(set(rows)) == 252
    # interleaved: row e*shots + s is reversed iff echo e is odd
    for _, es in seq.acquisitions():
        assert es.kspace_reversed == ((es.kspace_row // 4) % 2 == 1)


def test_epi_alternates_readout_sign():
    g = readout_gradient(0.5, 32, 0.5e-3)
    seq = build_gradient_epi(fov=0.5, n=32, n_echoes=32, readout_grad=g)
    signs = [np.sign(es.gradient.gx) for _, es in seq.acquisitions()]
    assert signs == [1, -1] * 16


def test_cpmg_echo_times():
    g = readout_gradient(0.375, 32, 0.012)
    seq = build_cpmg(fov=0.375, n=32, n_echoes=12, dte=0.02, tr=1.0, readout_grad=g)
    np.testing.assert_allclose(seq.meta["echo_times"], np.arange(1, 13) * 0.02)
    volumes = {es.kspace_volume for _, es in seq.acquisitions()}
    assert volumes == set(range(12))
    # every excitation re-encodes the same row for all 12 echoes
    rows = [es.kspace_row for _, es in seq.acquisitions()]
    assert rows[:12] == [0] * 12


# ---------------------------------------------------------------------------
# description files
# ---------------------------------------------------------------------------

TWO_PULSE_FILE = """
# two-interval sequence
[elementary]
duration_s = 0.01
rf_flip_deg = 90
grad_x_mT_per_m = 1.0

[elementary]
duration_s = 0.01
rf_flip_deg = 90
grad_x_mT_per_m = 1.0
"""


def test_parse_two_pulse_file():
    seq = parse_sequence_file(TWO_PULSE_FILE)
    assert len(seq.elements) == 2
    assert seq.elements[0].pulse.alpha == pytest.approx(math.pi / 2)


def test_parse_acquisition_block():
    seq = parse_sequence_file(
        "[elementary]\nduration_s = 0.01\ngrad_x_mT_per_m = 0.5\nacquire = 64\n"
    )
    assert seq.elements[0].acquisition == AcquisitionSpec(64)


def test_parse_malformed_flip_names_line():
    text = "[elementary]\nduration_s = 0.01\nrf_flip_deg = ninety\n"
    with pytest.raises(ParseError) as err:
        parse_sequence_file(text)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text, line",
    [
        ("[sequence]\nrepetitions = x\n[elementary]\nduration_s = 0.01\n", 2),
        (
            "[elementary]\nduration_s = 0.01\ngrad_x_mT_per_m = 1\nacquire = 4\nkspace_row = a\n",
            5,
        ),
        (
            "[elementary]\nduration_s = 0.01\ngrad_x_mT_per_m = 1\nacquire = 4\n"
            "kspace_volume = b\n",
            5,
        ),
    ],
    ids=["repetitions", "kspace_row", "kspace_volume"],
)
def test_parse_malformed_integer_names_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_sequence_file(text)
    assert err.value.line == line


def test_parse_rejects_repetitions_other_than_one():
    # nothing repeats a sequence, so a count other than 1 would be ignored
    text = "[sequence]\nname = rep\nrepetitions = 10\n\n[elementary]\nduration_s = 0.01\n"
    with pytest.raises(ParseError, match="repetitions") as err:
        parse_sequence_file(text)
    assert err.value.line == 3
    assert parse_sequence_file(text.replace("= 10", "= 1")).name == "rep"
    with pytest.raises(TypeError):
        Sequence([ElementarySequence(duration=0.01)], repetitions=10)


@pytest.mark.parametrize(
    "text, line",
    [
        # the first count is checked before a repeat could override it
        ("[sequence]\nrepetitions = 2\nrepetitions = 1\n[elementary]\nduration_s = 0.01\n", 2),
        ("[sequence]\nname = a\n[elementary]\nduration_s = 0.01\n[sequence]\nname = b\n", 6),
        (
            "[sequence]\nrepetitions = 1\n[elementary]\nduration_s = 0.01\n"
            "[sequence]\nrepetitions = 1\n",
            6,
        ),
    ],
    ids=["repeated_repetitions", "name_in_two_blocks", "repetitions_in_two_blocks"],
)
def test_parse_rejects_sequence_parameter_set_twice(text, line):
    with pytest.raises(ParseError) as err:
        parse_sequence_file(text)
    assert err.value.line == line


@pytest.mark.parametrize("key", ["ramp_s = 0.001", "flat_s = 0.004"])
def test_parse_rejects_trapezoid_timing_without_trapezoid(key):
    text = f"[elementary]\nduration_s = 0.006\n{key}\ngrad_x_mT_per_m = 1\n"
    with pytest.raises(ParseError, match="trapezoid") as err:
        parse_sequence_file(text)
    assert err.value.line == 3


@pytest.mark.parametrize("key", ["kspace_row = 3", "kspace_volume = 1", "kspace_reversed = true"])
def test_parse_rejects_kspace_placement_without_acquire(key):
    text = f"[elementary]\nduration_s = 0.01\ngrad_x_mT_per_m = 1\n{key}\n"
    with pytest.raises(ParseError, match="acquire") as err:
        parse_sequence_file(text)
    assert err.value.line == 4


@pytest.mark.parametrize("flip", ["", "rf_flip_deg = 0\n"], ids=["absent_flip", "zero_flip"])
def test_parse_rejects_phase_without_flip(flip):
    # without a flip there is no pulse for the phase to set
    text = f"[elementary]\nduration_s = 0.01\n{flip}rf_phase_deg = 90\n"
    with pytest.raises(ParseError, match="rf_phase_deg") as err:
        parse_sequence_file(text)
    assert err.value.line == text.count("\n")


def test_parse_rejects_kspace_reversed_other_than_true_or_false():
    text = "[elementary]\nduration_s = 0.01\nacquire = 4\nkspace_row = 0\nkspace_reversed = {}\n"
    with pytest.raises(ParseError, match="kspace_reversed") as err:
        parse_sequence_file(text.format("yes"))
    assert err.value.line == 5
    assert parse_sequence_file(text.format("True")).elements[0].kspace_reversed


def test_parse_malformed_ramp_names_line():
    text = "[elementary]\nduration_s = 0.006\ngrad_shape = trapezoid\nramp_s = x\nflat_s = 0.004\n"
    with pytest.raises(ParseError) as err:
        parse_sequence_file(text)
    assert err.value.line == 4


def test_parse_missing_unit_suffix():
    with pytest.raises(UnitError):
        parse_sequence_file("[elementary]\nduration = 0.01\n")


def test_parse_unknown_key():
    with pytest.raises(ParseError):
        parse_sequence_file("[elementary]\nduration_s = 0.01\nbananas = 3\n")


def test_parse_rf_shaped_expands(tmp_path):
    env = np.stack([np.ones(8), np.zeros(8)], axis=1)
    np.savetxt(tmp_path / "env.txt", env)
    text = "[rf_shaped]\nsamples = env.txt\nsample_dt_s = 1e-5\ngrad_z_mT_per_m = 2.0\n"
    seq = parse_sequence_file(text, base_dir=str(tmp_path))
    assert len(seq.elements) == 8
    assert all(es.duration == 1e-5 for es in seq.elements)
    assert all(es.gradient.gz == pytest.approx(2e-3) for es in seq.elements)
    alpha = seq.elements[0].pulse.alpha
    assert alpha == pytest.approx(GAMMA_PROTON * 1e-6 * 1e-5)


@pytest.mark.parametrize(
    "builder",
    [
        lambda: build_spin_echo(0.5, 8, 0.05, 0.5, readout_gradient(0.5, 8, 0.02)),
        lambda: build_tse(0.5, 8, 2, 0.04, 0.5, readout_gradient(0.5, 8, 0.01)),
        lambda: build_gradient_epi(0.5, 8, 8, readout_gradient(0.5, 8, 1e-3)),
        lambda: build_cpmg(0.5, 4, 3, 0.04, 0.5, readout_gradient(0.5, 4, 0.01)),
        # k-space placement without a row
        lambda: Sequence(
            [
                ElementarySequence(
                    duration=0.01,
                    acquisition=AcquisitionSpec(4),
                    kspace_volume=2,
                    kspace_reversed=True,
                )
            ]
        ),
    ],
)
def test_builders_round_trip_through_files(builder):
    seq = builder()
    text = serialize_sequence(seq)
    reparsed = parse_sequence_file(text)
    assert serialize_sequence(reparsed) == text
    assert len(reparsed.elements) == len(seq.elements)
    for a, b in zip(seq.elements, reparsed.elements):
        assert b.duration == a.duration
        assert b.gradient == a.gradient
        assert b.pulse == a.pulse
        assert b.acquisition == a.acquisition
        assert (a.kspace_row, a.kspace_volume, a.kspace_reversed) == (
            b.kspace_row,
            b.kspace_volume,
            b.kspace_reversed,
        )


def test_split_preserves_fields():
    seq = build_spin_echo(0.5, 4, 0.05, 0.5, readout_gradient(0.5, 4, 0.02))
    split = split_elementary(seq, 0, seq.elements[0].duration / 3.0)
    assert len(split.elements) == len(seq.elements) + 1
    assert split.elements[1].pulse is None
    total = split.elements[0].duration + split.elements[1].duration
    assert total == pytest.approx(seq.elements[0].duration, rel=1e-15)
    m_orig = seq.elements[0].gradient.moments(seq.elements[0].duration)
    m_split = split.elements[0].gradient.moments(
        split.elements[0].duration
    ) + split.elements[1].gradient.moments(split.elements[1].duration)
    np.testing.assert_allclose(m_split, m_orig, rtol=1e-12)


def test_sequence_requires_elements():
    with pytest.raises(InvalidParameter):
        Sequence([], name="empty")


def test_null_pulse_allowed():
    # a zero flip is no pulse: the element holds it as pulse=None
    es = ElementarySequence(pulse=HardPulse(0.0, 0.0), duration=0.0)
    assert es.pulse is None
    assert es == ElementarySequence(duration=0.0)


def test_zero_flip_element_round_trips_through_files():
    seq = Sequence(
        [
            ElementarySequence(pulse=HardPulse(math.pi / 2, 0.0), duration=0.001),
            ElementarySequence(
                pulse=HardPulse(0.0, 0.3), gradient=GradientWaveform.constant(gx=1e-3), duration=0.002
            ),
        ]
    )
    assert parse_sequence_file(serialize_sequence(seq)).elements == seq.elements


def test_acquisition_is_its_sample_count():
    assert not AcquisitionSpec().enabled and AcquisitionSpec(1).enabled
    with pytest.raises(InvalidParameter):
        AcquisitionSpec(-1)


@pytest.mark.parametrize("count", [2.5, 2.0, True, np.True_, math.nan, math.inf, "3", None], ids=repr)
def test_acquisition_takes_only_an_integer_sample_count(count):
    # 2.5 samples would step past the element's end; a bool or NaN is
    # no count
    with pytest.raises(InvalidParameter, match="n_samples must be an integer >= 0"):
        AcquisitionSpec(count)


def test_acquisition_takes_a_numpy_integer_count_as_a_python_int():
    acq = AcquisitionSpec(np.int32(3))
    assert type(acq.n_samples) is int and acq == AcquisitionSpec(3)
    np.testing.assert_allclose(acq.sample_times(1.0), [0.0, 0.5, 1.0])


@pytest.mark.parametrize("count", ["0", "-3"])
def test_parse_rejects_acquire_without_samples(count):
    # leaving acquire out is no acquisition; a count below 1 is an error
    text = f"[elementary]\nduration_s = 0.01\nacquire = {count}\ngrad_x_mT_per_m = 1\n"
    with pytest.raises(ParseError, match="acquire") as err:
        parse_sequence_file(text)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "placement", [dict(kspace_row=0), dict(kspace_volume=1), dict(kspace_reversed=True)]
)
def test_kspace_placement_needs_an_acquisition(placement):
    with pytest.raises(InvalidParameter, match="acquisition"):
        ElementarySequence(duration=0.01, **placement)
    ElementarySequence(duration=0.01, acquisition=AcquisitionSpec(4), **placement)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GradientWaveform("sine", gx=1e-3),
        lambda: GradientWaveform("constant", gx=1e-3, ramp_s=1e-3),
        lambda: GradientWaveform("constant", flat_s=1e-3),
        lambda: GradientWaveform("constant", samples=((0.0, 0.0, 0.0),), sample_dt=1e-3),
        lambda: GradientWaveform("trapezoid", gx=1e-3, sample_dt=1e-3),
        lambda: GradientWaveform("sampled", gy=1e-3, samples=((0.0, 0.0, 0.0),), sample_dt=1e-3),
    ],
    ids=["unknown_shape", "constant_ramp", "constant_flat", "constant_samples", "trapezoid_dt", "sampled_gy"],
)
def test_gradient_rejects_fields_its_shape_does_not_read(make):
    with pytest.raises(InvalidParameter):
        make()


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["alpha", "phi"])
def test_hard_pulse_rejects_a_non_finite_flip_or_phase(field, value):
    # a NaN flip gave NaN echoes and an infinite one a bare math domain
    # error in the pulse coefficients
    with pytest.raises(InvalidParameter, match="finite"):
        HardPulse(**{"alpha": 1.0, "phi": 0.0, field: value})
    assert ElementarySequence(pulse=HardPulse(0.0, 1.2), duration=0.01).pulse is None


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "make",
    [
        lambda v: ElementarySequence(duration=v),
        lambda v: ElementarySequence(pulse=HardPulse(1.0), duration=v, acquisition=AcquisitionSpec(4)),
        lambda v: GradientWaveform.constant(gx=v),
        lambda v: GradientWaveform.constant(gz=v),
        lambda v: GradientWaveform.trapezoid(gy=v, ramp_s=1e-3, flat_s=1e-3),
        lambda v: GradientWaveform.trapezoid(gx=1e-3, ramp_s=v, flat_s=1e-3),
        lambda v: GradientWaveform.trapezoid(gx=1e-3, ramp_s=1e-3, flat_s=v),
        lambda v: GradientWaveform.from_samples([(0.0, v, 0.0), (0.0, 0.0, 0.0)], 1e-3),
        lambda v: GradientWaveform.from_samples([(0.0, 1e-3, 0.0), (0.0, 0.0, 0.0)], v),
    ],
    ids=["duration", "acquired_duration", "gx", "gz", "trapezoid_gy", "ramp", "flat", "sample", "sample_dt"],
)
def test_non_finite_timing_or_gradient_is_rejected(make, value):
    # each was accepted and ran to NaN echoes
    with pytest.raises(InvalidParameter, match="finite"):
        make(value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "key", ["rf_flip_deg", "rf_phase_deg", "duration_s", "grad_x_mT_per_m", "grad_y_mT_per_m"]
)
def test_parse_rejects_a_non_finite_value_at_its_block(key, value):
    lines = {"duration_s": "0.01", "rf_flip_deg": "90", "grad_x_mT_per_m": "1"}
    lines[key] = value
    body = "".join(f"{k} = {v}\n" for k, v in lines.items())
    text = f"[elementary]\nduration_s = 0.01\n\n[elementary]\n{body}"
    with pytest.raises(ParseError, match="finite") as err:
        parse_sequence_file(text)
    assert err.value.line == 4


@pytest.mark.parametrize("envelope, dt", [("nan 0\n1 0\n", "1e-5"), ("1 0\n1 0\n", "nan")])
def test_parse_rejects_a_non_finite_shaped_pulse_at_its_block(tmp_path, envelope, dt):
    (tmp_path / "env.txt").write_text(envelope)
    text = f"[elementary]\nduration_s = 0.01\n[rf_shaped]\nsamples = env.txt\nsample_dt_s = {dt}\n"
    with pytest.raises(ParseError, match="finite") as err:
        parse_sequence_file(text, base_dir=str(tmp_path))
    assert err.value.line == 3


# ---------------------------------------------------------------------------
# rejected counts, lobes and placements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "placement",
    [
        # 2.5 read as row 2 fills row 2 twice beside a readout there
        dict(kspace_row=2.5),
        dict(kspace_row=-1),
        dict(kspace_row=True),
        dict(kspace_row="3"),
        dict(kspace_volume=1.5),
        dict(kspace_volume=-2),
        dict(kspace_volume=True),
        dict(kspace_volume="3"),
        dict(kspace_volume=None),
        # "no" is truthy, so the row would be reversed
        dict(kspace_reversed="no"),
        dict(kspace_reversed=1),
        dict(kspace_reversed=None),
    ],
    ids=lambda p: "-".join(f"{k}={v!r}" for k, v in p.items()),
)
def test_kspace_placement_takes_integer_rows_and_volumes_and_a_bool(placement):
    name = next(iter(placement))
    with pytest.raises(InvalidParameter, match=name):
        ElementarySequence(duration=0.01, acquisition=AcquisitionSpec(4), **placement)


def test_kspace_placement_keeps_numpy_integers_as_python_ints():
    es = ElementarySequence(
        duration=0.01,
        acquisition=AcquisitionSpec(4),
        kspace_row=np.int64(3),
        kspace_volume=np.uint8(2),
        kspace_reversed=True,
    )
    assert (es.kspace_row, es.kspace_volume) == (3, 2)
    assert type(es.kspace_row) is int and type(es.kspace_volume) is int


@pytest.mark.parametrize("key", ["kspace_row = -1", "kspace_volume = -2"])
def test_parse_rejects_a_negative_kspace_row_or_volume_at_its_block(key):
    text = f"[sequence]\nname = s\n\n[elementary]\nduration_s = 0.01\nacquire = 4\n{key}\n"
    with pytest.raises(ParseError, match=key.split()[0]) as err:
        parse_sequence_file(text)
    assert err.value.line == 4


_G8 = readout_gradient(0.5, 8, 0.01)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: build_tse(0.5, 8, 0, 0.04, 0.5, _G8), "turbo_factor"),
        (lambda: build_tse(0.5, 8, 2.0, 0.04, 0.5, _G8), "turbo_factor"),
        (lambda: build_tse(0.5, 8, True, 0.04, 0.5, _G8), "turbo_factor"),
        (lambda: build_tse(0.5, 8, 2, 0.04, 0.5, _G8, blip_s=0.0), "blip_s"),
        (lambda: build_tse(0.5, 8.0, 2, 0.04, 0.5, _G8), "n"),
        (lambda: build_cpmg(0.5, 8, 0, 0.04, 0.5, _G8), "n_echoes"),
        (lambda: build_cpmg(0.5, 8, -3, 0.04, 0.5, _G8), "n_echoes"),
        (lambda: build_cpmg(0.5, 8, 3, 0.04, 0.5, _G8, blip_s=math.nan), "blip_s"),
        (lambda: build_gradient_epi(0.5, 8, 0, _G8), "n_echoes"),
        (lambda: build_gradient_epi(0.5, 8, 4, _G8, shots=0), "shots"),
        (lambda: build_gradient_epi(0.5, 8, 4, _G8, blip_s=0.0), "blip_s"),
        (lambda: build_gradient_epi(0.5, 8, 4, _G8, prephase_s=0.0), "prephase_s"),
        (lambda: build_gradient_epi(0.5, 8, 4, _G8, prephase_s=math.inf), "prephase_s"),
        (lambda: build_spin_echo(0.5, 16.0, 0.05, 0.5, readout_gradient(0.5, 16, 0.02)), "n"),
    ],
    ids=[
        "tse_turbo_0", "tse_turbo_2.0", "tse_turbo_true", "tse_blip_0", "tse_n_8.0",
        "cpmg_echoes_0", "cpmg_echoes_-3", "cpmg_blip_nan", "epi_echoes_0", "epi_shots_0",
        "epi_blip_0", "epi_prephase_0", "epi_prephase_inf", "se_n_16.0",
    ],
)
def test_builders_reject_counts_and_lobes_out_of_range(build, name):
    # unchecked: ZeroDivisionError, TypeError, or a sequence that never
    # acquires or takes True as one echo per shot
    with pytest.raises(InvalidParameter, match=rf"^{name} must be"):
        build()
