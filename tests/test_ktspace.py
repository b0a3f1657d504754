import cmath
import math

import numpy as np
import pytest

from mrsim import ktspace
from mrsim.bloch import GAMMA_PROTON, HardPulse, RelaxationParams
from mrsim.errors import ComplexOrderZero, IncommensurateMoments, MrSimError
from mrsim.ktspace import (
    ZERO,
    Configuration,
    ConfigurationSet,
    TracePoint,
    apply_gradient_shift,
    apply_relax_interval,
    apply_rf_split,
    box_spectrum,
    derive_unit_k,
    export_kt_diagram,
    lattice_spectrum,
    max_k_excursion,
    qualitative_walk,
    simulate_kt,
    synthesize_echo,
)
from mrsim.sequence import (
    AcquisitionSpec,
    ElementarySequence,
    GradientWaveform,
    Sequence,
    build_spin_echo,
    readout_gradient,
)

NO_RELAX = RelaxationParams(t1=math.inf, t2=math.inf, m0=1.0)


def gradient_es(moment_x, duration=0.01, pulse=None, acquire=0):
    g = GradientWaveform.constant(gx=moment_x / (GAMMA_PROTON * duration)) if moment_x else GradientWaveform.none()
    acq = AcquisitionSpec(True, acquire) if acquire else AcquisitionSpec()
    return ElementarySequence(pulse=pulse, gradient=g, duration=duration, acquisition=acq)


def pulse_seq(*entries):
    """entries: (alpha_deg, phi_deg, moment_x) per elementary sequence."""
    els = [
        gradient_es(m, pulse=HardPulse(math.radians(a), math.radians(p)))
        for a, p, m in entries
    ]
    return Sequence(els, name="fixture")


# ---------------------------------------------------------------------------
# unit derivation
# ---------------------------------------------------------------------------


def test_unit_from_single_and_double_moments():
    seq = pulse_seq((90, 0, 100.0), (90, 0, 200.0))
    unit = derive_unit_k(seq)
    assert unit[0] == pytest.approx(100.0, rel=1e-12)
    assert unit[1] is None and unit[2] is None


def test_unit_gcd_of_3_and_5():
    seq = pulse_seq((90, 0, 3 * 7.5), (90, 0, 5 * 7.5))
    assert derive_unit_k(seq)[0] == pytest.approx(7.5, rel=1e-9)


def test_unit_incommensurate_raises():
    # ratio 1 + 1.23e-7: every rational with denominator <= 1e6 misses
    # the 1e-9 relative tolerance, so no usable common measure exists
    seq = pulse_seq((90, 0, 1.0), (90, 0, 1.0 + 1.23e-7))
    with pytest.raises(IncommensurateMoments):
        derive_unit_k(seq)


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def test_rf_split_from_equilibrium():
    state = ConfigurationSet.equilibrium(1.0)
    out = apply_rf_split(state, HardPulse(math.pi / 2, 0.0))
    assert out.trans[ZERO] == pytest.approx(1j)
    assert out.longi[ZERO] == pytest.approx(0.0, abs=1e-15)


def test_rf_split_zero_flip_is_exact_identity():
    state = ConfigurationSet.equilibrium(1.0)
    state.trans[(1, 0, 0)] = 0.25 - 0.1j
    out = apply_rf_split(state, HardPulse(0.0, 1.23))
    assert out.trans == state.trans
    assert out.longi == state.longi


def test_relax_interval_long_time_leaves_equilibrium():
    state = ConfigurationSet.equilibrium(1.0)
    state = apply_rf_split(state, HardPulse(math.pi / 3, 0.5))
    relax = RelaxationParams(t1=0.1, t2=0.05, m0=1.0)
    out = apply_relax_interval(state, relax, dt=50 * relax.t1)
    out.prune()
    assert set(out.trans) == set()
    assert out.longi[ZERO] == pytest.approx(1.0)


def test_relax_interval_halves_transversal_at_t2_ln2():
    state = ConfigurationSet.equilibrium(1.0)
    state = apply_rf_split(state, HardPulse(math.pi / 2, 0.0))
    relax = RelaxationParams(t1=1.0, t2=0.3, m0=1.0)
    out = apply_relax_interval(state, relax, dt=0.3 * math.log(2))
    assert abs(out.trans[ZERO]) == pytest.approx(0.5)


def test_complex_order_zero_population_raises_library_error():
    state = ConfigurationSet.equilibrium(1.0)
    state.longi = {ZERO: 1.0 + 0.1j}
    relax = RelaxationParams(t1=1.0, t2=0.3, m0=1.0)
    with pytest.raises(ComplexOrderZero) as info:
        apply_relax_interval(state, relax, dt=0.01)
    assert isinstance(info.value, MrSimError)
    with pytest.raises(ComplexOrderZero):
        apply_rf_split(state, HardPulse(math.pi / 2, 0.0))


def test_gradient_shift_merges_on_interference():
    state = ConfigurationSet.equilibrium(0.0, unit=(1.0, None, None))
    state.trans = {(-1, 0, 0): 0.5 + 0j, (1, 0, 0): 0.25 + 0j, (0, 0, 0): 1j}
    out = apply_gradient_shift(state, (1, 0, 0))
    assert out.trans[(0, 0, 0)] == pytest.approx(0.5)
    assert out.trans[(2, 0, 0)] == pytest.approx(0.25)
    assert out.trans[(1, 0, 0)] == pytest.approx(1j)


def test_gradient_shift_zero_is_identity():
    state = ConfigurationSet.equilibrium(1.0)
    state.trans = {(2, 0, 0): 1j}
    out = apply_gradient_shift(state, ZERO)
    assert out.trans == state.trans


def test_hahn_pathway_produces_zero_order_echo():
    seq = pulse_seq((90, 0, 100.0), (180, 0, 100.0))
    out = simulate_kt(seq, NO_RELAX)
    assert ZERO in out.final.trans
    # the refocused population carries the full excitation amplitude
    assert abs(out.final.trans[ZERO]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# two-pulse closed form (relaxation neglected)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("a1_deg", [30, 90, 120])
@pytest.mark.parametrize("a2_deg", [30, 90, 120])
def test_two_pulse_populations_match_closed_form(a1_deg, a2_deg):
    a1, a2 = math.radians(a1_deg), math.radians(a2_deg)
    seq = pulse_seq((a1_deg, 0, 50.0), (a2_deg, 0, 50.0))
    out = simulate_kt(seq, NO_RELAX, prune_threshold=0.0)
    s1, c1 = math.sin(a1), math.cos(a1)
    s2, c2 = math.sin(a2), math.cos(a2)
    expected_trans = {
        (0, 0, 0): -1j * s1 * math.sin(a2 / 2) ** 2,
        (1, 0, 0): 1j * c1 * s2,
        (2, 0, 0): 1j * s1 * math.cos(a2 / 2) ** 2,
    }
    expected_longi = {
        (0, 0, 0): c1 * c2,
        (1, 0, 0): -0.5 * s1 * s2,
        (-1, 0, 0): -0.5 * s1 * s2,
    }
    for order, want in expected_trans.items():
        assert abs(out.final.trans.get(order, 0j) - want) < 1e-12
    for order, want in expected_longi.items():
        assert abs(out.final.longi.get(order, 0j) - want) < 1e-12


def test_longitudinal_pairs_are_conjugate():
    # b(-i) = conj(b(i)) keeps Mz real; checked after every operation
    rng = np.random.default_rng(7)
    state = ConfigurationSet.equilibrium(1.0, prune_threshold=0.0)
    relax = RelaxationParams(t1=0.5, t2=0.3, m0=1.0)
    for step in range(6):
        state = apply_rf_split(
            state, HardPulse(rng.uniform(0.2, 3.0), rng.uniform(0, 2 * math.pi))
        )
        state = apply_relax_interval(state, relax, rng.uniform(0.001, 0.05))
        state = apply_gradient_shift(state, (int(rng.integers(-2, 3)), 0, 0))
        for order, b in state.longi.items():
            mirror = state.longi.get((-order[0], -order[1], -order[2]), 0j)
            assert abs(b.conjugate() - mirror) < 1e-12
        assert abs(state.longi[ZERO].imag) < 1e-12


def test_readout_step_matches_per_sample_relaxation():
    # the array readout step against one apply_relax_interval per sample;
    # a repeated instant (zero-length interval) must leave the state as it is
    state = ConfigurationSet.equilibrium(1.0, unit=(40.0, None, None))
    for alpha, q in ((1.1, 1), (2.5, -2), (0.7, 1)):
        state = apply_rf_split(state, HardPulse(alpha, 0.3 * alpha))
        state = apply_gradient_shift(state, (q, 0, 0))
    assert len(state.trans) > 2 and len(state.longi) > 2
    relax = RelaxationParams(t1=0.4, t2=0.1, m0=0.9)
    ts = np.array([0.0, 0.001, 0.001, 0.0025, 0.004, 0.004])
    orders, pops, longi, lpops = ktspace._relax_readout(state, relax, ts)
    assert orders == sorted(state.trans) and longi == sorted(state.longi)
    ref, prev = state, 0.0
    for i, t in enumerate(ts):
        ref, prev = apply_relax_interval(ref, relax, t - prev), t
        assert np.array_equal(pops[i], [ref.trans[o] for o in orders])
        assert np.array_equal(lpops[i], [ref.longi[o] for o in longi])


def test_quantitative_trace_decays_monotonically():
    # two 90 deg pulses, 400 ms span, T1 = 500 ms / T2 = 300 ms
    relax = RelaxationParams(t1=0.5, t2=0.3, m0=1.0)
    els = [
        gradient_es(80.0, duration=0.2, pulse=HardPulse(math.pi / 2, 0.0), acquire=41),
        gradient_es(80.0, duration=0.2, pulse=HardPulse(math.pi / 2, 0.0), acquire=41),
    ]
    out = simulate_kt(Sequence(els, name="bild"), relax)
    # follow the first-excitation transversal population through interval 1
    mags = []
    z0 = []
    for point in out.trace:
        for e in point.entries:
            if e.kind == "transversal" and point.time <= 0.2:
                mags.append((point.time, abs(e.population)))
            if e.kind == "longitudinal" and e.order == ZERO:
                z0.append((point.time, e.population.real))
    mags = [m for t, m in sorted(mags) if t < 0.2]  # before the second pulse splits
    assert all(b <= a + 1e-12 for a, b in zip(mags, mags[1:]))
    # order-0 longitudinal regrows toward equilibrium between the pulses
    z_between = [v for t, v in sorted(z0) if 0.0 < t < 0.2]
    assert all(b >= a - 1e-12 for a, b in zip(z_between, z_between[1:]))


# ---------------------------------------------------------------------------
# echo synthesis
# ---------------------------------------------------------------------------


def test_synthesize_single_zero_order():
    state = ConfigurationSet.equilibrium(0.0, unit=(10.0, None, None))
    state.trans = {ZERO: 1.0 + 0j}
    volume = 123.0
    assert synthesize_echo(state, lambda k: volume) == pytest.approx(volume)


def test_synthesize_far_configurations_vanish():
    state = ConfigurationSet.equilibrium(0.0, unit=(1000.0, None, None))
    state.trans = {(5, 0, 0): 1.0 + 0j}

    def spec(k):  # compact spatial-frequency function
        return np.exp(-0.5 * (np.asarray(k)[..., 0] * 0.01) ** 2)

    assert abs(synthesize_echo(state, spec)) < 1e-4 * spec((0, 0, 0))


def test_synthesize_sums_overlapping_configurations():
    spec = box_spectrum(center=(0, 0, 0), size=(0.05, 0.01, 0.01))
    state = ConfigurationSet.equilibrium(0.0, unit=(30.0, None, None))
    state.trans = {(0, 0, 0): 0.5 + 0j, (1, 0, 0): 0.25j}
    want = 0.5 * spec((0, 0, 0)) + 0.25j * spec((30.0, 0, 0))
    assert synthesize_echo(state, spec) == pytest.approx(want)
    # inside a readout the k offset moves every configuration
    want = 0.5 * spec((-12.0, 0, 0)) + 0.25j * spec((18.0, 0, 0))
    assert synthesize_echo(state, spec, frac=(-12.0, 0.0, 0.0)) == pytest.approx(want)


def test_box_spectrum_matches_fine_lattice():
    # midpoint lattice over the box: its spectrum tends to the box's
    center, size, m0 = np.array([0.01, -0.002, 0.0]), np.array([0.05, 0.01, 0.004]), 0.7
    axes = [c - s / 2 + s * (np.arange(n) + 0.5) / n for c, s, n in zip(center, size, (200, 40, 32))]
    pos = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    lattice = lattice_spectrum(pos, np.full(len(pos), m0 * np.prod(size) / len(pos)))
    box = box_spectrum(center, size, m0)
    k = np.array([[[0.0, 0.0, 0.0], [150.0, 0.0, 0.0]], [[-90.0, 400.0, 0.0], [30.0, -200.0, 500.0]]])
    assert box(k).shape == (2, 2)
    assert np.abs(box(k) - lattice(k)).max() < 1e-3 * abs(box(k[0, 0]))
    assert np.ndim(box(k[1, 1])) == 0 and box(k[1, 1]) == pytest.approx(box(k)[1, 1], rel=1e-12)


def test_incommensurate_sequence_uses_continuous_fallback():
    # no common unit exists, so the tracker quantizes at min-moment/1024;
    # the synthesized echo must still match the spin picture closely
    import cmath as _cm

    dt = 0.01
    moments = [(90, 0, 100.0), (120, 45, 100.0 * (1.0 + 1.23e-7))]
    seq = pulse_seq(*moments)
    with pytest.raises(IncommensurateMoments):
        derive_unit_k(seq)
    positions = np.linspace(-0.02, 0.02, 41)
    spec = lattice_spectrum([(x, 0, 0) for x in positions], np.full(41, 1.0 / 41))
    out = simulate_kt(seq, NO_RELAX, object_spectrum=spec)
    # direct spin-sum reference at the final time
    from mrsim.bloch import Magnetization, apply_gradient_interval, apply_hard_pulse

    total = 0j
    for x in positions:
        m = Magnetization(0.0, 0.0, 1.0)
        for (a, p, mom) in moments:
            m = apply_hard_pulse(m, HardPulse(math.radians(a), math.radians(p)))
            m = apply_gradient_interval(m, NO_RELAX, mom * x, dt)
        total += complex(m.mx, m.my) / 41
    got = synthesize_echo(out.final, spec)
    assert abs(got - total) <= 1e-3 * max(abs(total), 1.0)


def test_lattice_spectrum_matches_direct_sum(monkeypatch):
    rng = np.random.default_rng(5)
    pos = rng.uniform(-0.05, 0.05, size=(20, 3))
    w = rng.uniform(0.1, 1.0, size=20)
    monkeypatch.setattr(ktspace, "_LATTICE_CHUNK", 50)  # chunks of 2 k
    spec = lattice_spectrum(pos, w)

    def direct(k):
        return sum(wi * cmath.exp(-1j * float(k @ p)) for wi, p in zip(w, pos))

    k = np.array([12.0, -4.0, 3.0])
    assert np.ndim(spec(k)) == 0 and spec(k) == pytest.approx(direct(k))
    ks = rng.uniform(-40.0, 40.0, size=(3, 5, 3))
    got = spec(ks)
    assert got.shape == (3, 5)
    assert got == pytest.approx(np.array([[direct(kk) for kk in row] for row in ks]))
    assert spec(np.zeros((4, 0, 3))).shape == (4, 0)


# ---------------------------------------------------------------------------
# qualitative tracking
# ---------------------------------------------------------------------------


def test_qualitative_equilibrium_single_trajectory():
    seq = pulse_seq((90, 0, 10.0))
    points, _ = qualitative_walk(seq)
    assert points[0].trans == set()
    assert points[0].longi == {ZERO}


def test_qualitative_two_pulse_branching():
    seq = pulse_seq((90, 0, 10.0), (90, 0, 10.0))
    points, _ = qualitative_walk(seq)
    # points: start, pulse 1, end ES 1, pulse 2, end ES 2
    after_second = points[3]
    assert {(1, 0, 0), (-1, 0, 0)} <= after_second.trans
    assert {(1, 0, 0), (-1, 0, 0)} <= after_second.longi


def test_qualitative_branch_bound():
    seq = pulse_seq(*[(90, 0, 10.0)] * 5)
    points, _ = qualitative_walk(seq)
    for i, point in enumerate(points):
        total = len(point.trans) + len(point.longi)
        assert total <= 4 ** (i + 1)


def test_max_k_single_readout():
    k_max = 150.0
    els = [
        gradient_es(-k_max, duration=0.005, pulse=HardPulse(math.pi / 2, 0.0)),
        gradient_es(2 * k_max, duration=0.01, acquire=32),
    ]
    k = max_k_excursion(Sequence(els, name="ro"))
    assert k[0] == pytest.approx(k_max, rel=1e-12)


def test_max_k_multipulse_train():
    k_unit = 80.0
    els = [
        gradient_es(2 * k_unit, duration=0.001, pulse=HardPulse(math.radians(11.25), 0.0))
        for _ in range(64)
    ]
    k = max_k_excursion(Sequence(els, name="train"))
    assert k[0] == 64 * 2 * k_unit


def _max_k_set_oracle(seq):
    """Brute-force qualitative walk over full order sets (1-D, x axis)."""
    unit = derive_unit_k(seq)[0] or 0.0
    trans, longi = set(), {0}
    best = 0.0

    def probe(orders, frac):
        return max((abs(o * unit + frac) for o in orders), default=0.0)

    for es in seq.elements:
        if es.pulse is not None and es.pulse.alpha != 0.0:
            mixed = trans | {-o for o in trans} | longi | {-o for o in longi}
            trans, longi = set(mixed), set(mixed) | {0}
        m = float(es.gradient.moments(es.duration, GAMMA_PROTON)[0])
        best = max(best, probe(trans, 0.0), probe(trans, m), probe(longi, 0.0))
        q = round(m / unit) if unit else 0
        trans = {o + q for o in trans}
        best = max(best, probe(trans, 0.0))
    return best


def test_max_k_spin_echo_matches_set_oracle():
    g = readout_gradient(0.5, 17, 0.01)
    seq = build_spin_echo(fov=0.5, n=17, te=0.05, tr=0.4, readout_grad=g)
    one = Sequence(seq.elements[:4], name="one")
    k = max_k_excursion(one)
    # the unrefocused pathway keeps dephasing through the readout: the
    # dephasing lobe's +k_max grows to 3 k_max for arbitrary flip angles
    k_max = math.pi * 16 / 0.5
    assert k[0] == pytest.approx(3 * k_max, rel=1e-9)
    assert k[0] == pytest.approx(_max_k_set_oracle(one), rel=1e-12)


def test_max_k_interval_walk_matches_set_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(5):
        entries = [
            (rng.uniform(10, 170), rng.uniform(0, 360), float(rng.integers(-3, 4)) * 25.0)
            for _ in range(5)
        ]
        seq = pulse_seq(*entries)
        assert max_k_excursion(seq)[0] == pytest.approx(_max_k_set_oracle(seq), rel=1e-12)


def test_export_diagram_csv():
    seq = pulse_seq((90, 0, 40.0), (90, 0, 40.0))
    out = simulate_kt(seq, RelaxationParams(t1=0.5, t2=0.3, m0=1.0))
    text = export_kt_diagram(out.trace)
    lines = text.strip().splitlines()
    assert lines[0] == "time_s,kind,order_i,kx_rad_per_m,pop_re,pop_im"
    assert len(lines) > 4
    for line in lines[1:]:
        time_s, _kind, order, kx, pop_re, pop_im = line.split(",")
        int(order)
        for value in (time_s, kx, pop_re, pop_im):
            float(value)
    points, _ = qualitative_walk(seq)
    qual = export_kt_diagram(points)
    assert qual.count("transversal") > 0
    assert ",,," in qual  # qualitative rows carry no populations


def test_export_diagram_writes_plain_floats():
    # numpy scalars must not leak their repr (np.float64(...)) into the CSV
    entry = Configuration(
        "transversal", (1, 0, 0), np.complex128(0.25 - 0.5j), (np.float64(3.0), 0.0, 0.0)
    )
    point = TracePoint(np.float64(0.5), [entry])
    assert export_kt_diagram([point]).splitlines()[1] == "0.5,transversal,1,3.0,0.25,-0.5"
