import cmath
import logging
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from mrsim import ktspace
from mrsim.bloch import (
    GAMMA_PROTON,
    HardPulse,
    RelaxationParams,
    apply_pulse,
    hard_pulse_coefficients,
    precession_factor,
    regrow_mz,
)
from mrsim.discretize import PruneBound
from mrsim.errors import ComplexOrderZero, IncommensurateMoments, InvalidParameter, MrSimError
from mrsim.ktspace import (
    DEFAULT_PRUNE,
    ZERO,
    Configuration,
    ConfigurationSet,
    TracePoint,
    box_spectrum,
    derive_unit_k,
    export_kt_diagram,
    lattice_spectrum,
    max_k_excursion,
    simulate_kt,
    synthesize_echo,
)
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
    readout_gradient,
)

from oracles import (
    _relax,
    _rf_split,
    _shifted,
    gradient_shift,
    reference_k_excursion,
    reference_unit,
    reference_walk,
    relax_interval,
    rf_split,
)

NO_RELAX = RelaxationParams(t1=math.inf, t2=math.inf, m0=1.0)


def walk_state(state):
    """The walk's form of a ConfigurationSet: sorted order tuples and
    population lists."""
    trans, longi = tuple(sorted(state.trans)), tuple(sorted(state.longi))
    return trans, [state.trans[o] for o in trans], longi, [state.longi[o] for o in longi]


def walk_split(state, mix, cut):
    """The walk's pulse split of a ConfigurationSet, through its plan."""
    trans, pops, longi, lpops = walk_state(state)
    plan = ktspace._split_plan(trans, longi)
    trans, pops, longi, lpops = ktspace._split(plan, mix, cut, pops, lpops)
    return ConfigurationSet(state.unit, dict(zip(trans, pops)), dict(zip(longi, lpops)))


def gradient_es(moment_x, duration=0.01, pulse=None, acquire=0):
    g = GradientWaveform.constant(gx=moment_x / (GAMMA_PROTON * duration)) if moment_x else GradientWaveform()
    acq = AcquisitionSpec(acquire)
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
    out = rf_split(state, HardPulse(math.pi / 2, 0.0))
    assert out.trans[ZERO] == pytest.approx(1j)
    assert out.longi[ZERO] == pytest.approx(0.0, abs=1e-15)


def test_rf_split_zero_flip_is_exact_identity():
    state = ConfigurationSet.equilibrium(1.0)
    state.trans[(1, 0, 0)] = 0.25 - 0.1j
    # a zero flip is no pulse: the element drops it, and the walk skips
    # the split of an element without a pulse
    pulse = ElementarySequence(pulse=HardPulse(0.0, 1.23), duration=0.001).pulse
    assert pulse is None
    out = rf_split(state, pulse)
    assert out.trans == state.trans
    assert out.longi == state.longi


def test_zero_flip_element_is_a_no_pulse_element():
    # one group in distinct_elements, and the same walk point by point
    excite = gradient_es(40.0, pulse=HardPulse(math.pi / 2, 0.0))
    zero = gradient_es(40.0, pulse=HardPulse(0.0, 0.3), acquire=5)
    bare = gradient_es(40.0, acquire=5)
    assert distinct_elements(Sequence([excite, zero, bare]))[1] == [0, 1, 1]
    relax = RelaxationParams(t1=0.5, t2=0.1, m0=1.0)
    walks = [
        simulate_kt(Sequence([excite, es]), relax, object_spectrum=SPECTRUM) for es in (zero, bare)
    ]
    assert repr(walks[0].trace) == repr(walks[1].trace)
    assert [e.tobytes() for e in walks[0].echoes] == [e.tobytes() for e in walks[1].echoes]


def test_relax_interval_long_time_leaves_equilibrium():
    state = ConfigurationSet.equilibrium(1.0)
    state = rf_split(state, HardPulse(math.pi / 3, 0.5))
    relax = RelaxationParams(t1=0.1, t2=0.05, m0=1.0)
    out = relax_interval(state, relax, dt=50 * relax.t1)
    # prune through the walk's split, with the identity for its mixing
    out = walk_split(out, (1, 0, 0, 0, 0, 1), DEFAULT_PRUNE)
    assert set(out.trans) == set()
    assert out.longi[ZERO] == pytest.approx(1.0)


def test_relax_interval_halves_transversal_at_t2_ln2():
    state = ConfigurationSet.equilibrium(1.0)
    state = rf_split(state, HardPulse(math.pi / 2, 0.0))
    relax = RelaxationParams(t1=1.0, t2=0.3, m0=1.0)
    out = relax_interval(state, relax, dt=0.3 * math.log(2))
    assert abs(out.trans[ZERO]) == pytest.approx(0.5)


def test_complex_order_zero_population_raises_library_error():
    state = ConfigurationSet.equilibrium(1.0)
    state.longi = {ZERO: 1.0 + 0.1j}
    relax = RelaxationParams(t1=1.0, t2=0.3, m0=1.0)
    with pytest.raises(ComplexOrderZero) as info:
        relax_interval(state, relax, dt=0.01)
    assert isinstance(info.value, MrSimError)
    with pytest.raises(ComplexOrderZero):
        rf_split(state, HardPulse(math.pi / 2, 0.0))


def test_gradient_shift_moves_every_order_without_merging():
    # a shift moves every order by the same q, so (-1,) lands on the
    # empty (0,) and (0,) on (1,): nothing merges
    state = ConfigurationSet.equilibrium(0.0, unit=(1.0, None, None))
    state.trans = {(-1, 0, 0): 0.5 + 0j, (1, 0, 0): 0.25 + 0j, (0, 0, 0): 1j}
    out = gradient_shift(state, (1, 0, 0))
    assert out.trans[(0, 0, 0)] == pytest.approx(0.5)
    assert out.trans[(2, 0, 0)] == pytest.approx(0.25)
    assert out.trans[(1, 0, 0)] == pytest.approx(1j)


_ORDER = st.tuples(*[st.integers(-4, 4)] * 3)
_PART = st.sampled_from([0.0, -0.0]) | st.floats(-1.0, 1.0)
_POP = st.builds(complex, _PART, _PART)


_DECAY = st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
_SHIFT = st.tuples(*[st.integers(-3, 3)] * 3)


@given(
    trans=st.dictionaries(_ORDER, _POP, max_size=8),
    longi=st.dictionaries(_ORDER, _POP, max_size=4),
    b0=st.floats(-1.0, 1.0),
    decay=_DECAY,
    q=_SHIFT.filter(lambda q: q != ZERO),
    more=st.lists(st.tuples(_DECAY, _SHIFT), max_size=3),
)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_walk_shift_keeps_orders_sorted_and_matches_the_oracle(trans, longi, b0, decay, q, more):
    # a span of one shifting element, or of several: a uniform shift is
    # one-to-one and keeps the order of the orders, so the walk only
    # relabels them; its populations at every element's end, signed
    # zeros included, are those of the per-element relaxation and shift
    state = ConfigurationSet((1.0, 1.0, 1.0), trans, {**longi, ZERO: complex(b0, 0.0)})
    elements = [(decay, q), *more]
    shape = ktspace._SpanShape([ktspace._Piece(0.001, (), d) for d, _ in elements], opens=False)
    orders, _, lorders, _ = walk_state(state)
    scan, sums, got = ktspace._walk_span(shape, [s for _, s in elements], walk_state(state), {})
    shifted = got[0]
    assert len(shifted) == len(orders)
    assert all(a < b for a, b in zip(shifted, shifted[1:]))
    want = state
    for (d, s), row, total in zip(elements, scan[shape.point_rows].tolist(), sums[1:]):
        want = want if d is None else _relax(want, d)
        if s != ZERO:
            want = ConfigurationSet(want.unit, _shifted(want.trans, s), want.longi)
        at = ktspace._relabel(orders, total, {})
        assert repr(list(zip(at, row[: len(at)]))) == repr(sorted(want.trans.items()))
        assert repr(list(zip(lorders, row[len(at) :]))) == repr(sorted(want.longi.items()))
    assert repr(list(zip(shifted, got[1]))) == repr(sorted(want.trans.items()))
    assert repr(list(zip(got[2], got[3]))) == repr(sorted(want.longi.items()))


# few orders and parts, so that a_o, a_-o and b_o often meet with signed zeros
_FEW_ORDERS = st.tuples(st.integers(-1, 1), st.just(0), st.just(0))
_FEW_PARTS = st.sampled_from([0.0, -0.0, 0.25, -0.5])
_FEW_POPS = st.builds(complex, _FEW_PARTS, _FEW_PARTS)


@given(
    trans=st.dictionaries(_FEW_ORDERS, _FEW_POPS),
    longi=st.dictionaries(_FEW_ORDERS, _FEW_POPS),
    b0=_FEW_PARTS,
    alpha=st.sampled_from([math.pi / 2, math.pi, 0.7]),
    phi=st.sampled_from([0.0, math.pi / 2, -math.pi, 1.3]),
    cut=st.sampled_from([0.0, DEFAULT_PRUNE, 0.3]),
)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
def test_walk_split_matches_the_oracle(trans, longi, b0, alpha, phi, cut):
    # the split through its plan against the per-element split, every
    # population bit for bit, signed zeros included
    state = ConfigurationSet((1.0, 1.0, 1.0), trans, {**longi, ZERO: complex(b0, 0.0)})
    mix = hard_pulse_coefficients(alpha, phi)
    got = walk_split(state, mix, cut)
    want = _rf_split(state, mix, cut)
    assert repr(list(got.trans.items())) == repr(sorted(want.trans.items()))
    assert repr(list(got.longi.items())) == repr(sorted(want.longi.items()))


@pytest.mark.parametrize("n", [1, 7, 4788])
def test_spin_pulse_is_the_walks_order_0_split(n):
    # the spin kernel and the walk apply one pulse operator: a spin is the
    # order-0 configuration state, and its split equals apply_pulse on
    # the spin to within 4 roundings of its largest component.  Not bit
    # for bit, as the sums are reordered: apply_pulse folds t20 +
    # conj(t21) into one coefficient before it multiplies mxy, where the
    # split sums two products, and numpy's complex multiply of arrays may
    # fuse a product into its difference, which Python's rounds apart
    rng = np.random.default_rng(n)
    mxy = rng.normal(size=n) + 1j * rng.normal(size=n)
    mz = rng.normal(size=n)
    largest = np.abs(np.column_stack([mxy.real, mxy.imag, mz])).max(axis=1)
    bound = 4 * np.finfo(float).eps * largest
    for alpha in [math.pi / 2, math.pi, 0.7]:
        for phi in [0.0, math.pi / 2, -math.pi, 1.3]:
            mix = hard_pulse_coefficients(alpha, phi)
            got_mxy, got_mz = apply_pulse(mix, mxy, mz)
            want_mxy, want_mz = np.zeros(n, dtype=complex), np.zeros(n)
            for i in range(n):
                state = ConfigurationSet(
                    (1.0, 1.0, 1.0), {ZERO: complex(mxy[i])}, {ZERO: complex(mz[i], 0.0)}
                )
                split = walk_split(state, mix, 0.0)
                assert set(split.trans) <= {ZERO} and set(split.longi) == {ZERO}
                want_mxy[i] = split.trans.get(ZERO, 0j)
                want_mz[i] = split.longi[ZERO].real
            assert np.all(np.abs(got_mxy.real - want_mxy.real) <= bound)
            assert np.all(np.abs(got_mxy.imag - want_mxy.imag) <= bound)
            assert np.all(np.abs(got_mz - want_mz) <= bound)


def test_gradient_shift_zero_is_identity():
    state = ConfigurationSet.equilibrium(1.0)
    state.trans = {(2, 0, 0): 1j}
    out = gradient_shift(state, ZERO)
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
    state = ConfigurationSet.equilibrium(1.0)
    relax = RelaxationParams(t1=0.5, t2=0.3, m0=1.0)
    for step in range(6):
        state = rf_split(
            state, HardPulse(rng.uniform(0.2, 3.0), rng.uniform(0, 2 * math.pi)), cut=0.0
        )
        state = relax_interval(state, relax, rng.uniform(0.001, 0.05))
        state = gradient_shift(state, (int(rng.integers(-2, 3)), 0, 0))
        for order, b in state.longi.items():
            mirror = state.longi.get((-order[0], -order[1], -order[2]), 0j)
            assert abs(b.conjugate() - mirror) < 1e-12
        assert abs(state.longi[ZERO].imag) < 1e-12


def test_readout_step_matches_per_sample_relaxation():
    # the array readout step against one relaxation step per sample;
    # a repeated instant (zero-length interval) must leave the state as it is
    state = ConfigurationSet.equilibrium(1.0, unit=(40.0, None, None))
    for alpha, q in ((1.1, 1), (2.5, -2), (0.7, 1)):
        state = rf_split(state, HardPulse(alpha, 0.3 * alpha))
        state = gradient_shift(state, (q, 0, 0))
    assert len(state.trans) > 2 and len(state.longi) > 2
    relax = RelaxationParams(t1=0.4, t2=0.1, m0=0.9)
    ts = np.array([0.0, 0.001, 0.001, 0.0025, 0.004, 0.004])
    piece = ktspace._Piece.sampling(relax, 0.004, ts, np.zeros((len(ts), 3)))
    shape = ktspace._SpanShape([piece], opens=False)
    orders, _, longi, _ = walk_state(state)
    scan, _, _ = ktspace._walk_span(shape, [ZERO], walk_state(state), {})
    at = shape.point_rows[slice(*shape.readouts[0])]
    pops, lpops = scan[at, : len(orders)], scan[at, len(orders) :]
    assert list(orders) == sorted(state.trans) and list(longi) == sorted(state.longi)
    ref, prev = state, 0.0
    for i, t in enumerate(ts):
        ref, prev = relax_interval(ref, relax, t - prev), t
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
    dt = 0.01
    moments = [(90, 0, 100.0), (120, 45, 100.0 * (1.0 + 1.23e-7))]
    seq = pulse_seq(*moments)
    with pytest.raises(IncommensurateMoments):
        derive_unit_k(seq)
    positions = np.linspace(-0.02, 0.02, 41)
    spec = lattice_spectrum([(x, 0, 0) for x in positions], np.full(41, 1.0 / 41))
    out = simulate_kt(seq, NO_RELAX, object_spectrum=spec)
    # direct spin-sum reference at the final time, all 41 spins at once
    mxy, mz = np.zeros(41, dtype=complex), np.ones(41)
    for (a, p, mom) in moments:
        mxy, mz = apply_pulse(hard_pulse_coefficients(math.radians(a), math.radians(p)), mxy, mz)
        mxy = mxy * precession_factor(mom * positions, dt, 1.0 / NO_RELAX.t2)
        mz = regrow_mz(mz, NO_RELAX.m0, 1.0 / NO_RELAX.t1, dt)
    total = mxy.sum() / 41
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


@pytest.mark.parametrize(
    "positions, weights",
    [
        ([(0.0, 0.0, math.nan), (0.01, 0.0, 0.0)], [1.0, 1.0]),
        ([(0.0, math.inf, 0.0), (0.01, 0.0, 0.0)], [1.0, 1.0]),
        ([(0.0, 0.0), (0.01, 0.0)], [1.0, 1.0]),
        ([0.0, 0.0, 0.0], [1.0]),
        ([[(0.0, 0.0, 0.0)], [(0.01, 0.0, 0.0)]], [1.0, 1.0]),
        ([(0.0, 0.0, 0.0), (0.01, 0.0, 0.0)], [1.0]),
        ([(0.0, 0.0, 0.0), (0.01, 0.0, 0.0)], [1.0, 1.0, 1.0]),
        ([(0.0, 0.0, 0.0), (0.01, 0.0, 0.0)], [[1.0, 1.0]]),
        ([(0.0, 0.0, 0.0), (0.01, 0.0, 0.0)], [1.0, complex(math.nan, 0.0)]),
    ],
)
def test_lattice_spectrum_rejects_bad_positions_or_weights(positions, weights):
    # these raised a bare numpy error at the first call, inside the walk
    with pytest.raises(InvalidParameter):
        lattice_spectrum(positions, weights)


@pytest.mark.parametrize(
    "center, size, m0",
    [
        ((math.nan, 0.0, 0.0), (0.1, 0.1, 0.1), 1.0),
        ((0.0, -math.inf, 0.0), (0.1, 0.1, 0.1), 1.0),
        ((0.0, 0.0), (0.1, 0.1, 0.1), 1.0),
        ((0.0, 0.0, 0.0), (0.1, 0.1), 1.0),
        ((0.0, 0.0, 0.0), 0.1, 1.0),
        ((0.0, 0.0, 0.0), (0.1, math.nan, 0.1), 1.0),
        ((0.0, 0.0, 0.0), (0.1, 0.1, math.inf), 1.0),
        ((0.0, 0.0, 0.0), (0.0, 0.1, 0.1), 1.0),
        ((0.0, 0.0, 0.0), (0.1, -0.1, 0.1), 1.0),
        ((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), -1.0),
        ((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), math.nan),
        ((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), math.inf),
    ],
)
def test_box_spectrum_rejects_bad_geometry(center, size, m0):
    # a NaN size gave NaN echoes
    with pytest.raises(InvalidParameter):
        box_spectrum(center, size, m0)


def test_box_spectrum_of_zero_density_is_zero():
    assert box_spectrum((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), 0.0)(np.array([1.0, 2.0, 3.0])) == 0.0


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
    """Brute-force walk over every reachable order, all RF splits taken
    (1-D, x axis)."""
    unit = derive_unit_k(seq)[0] or 0.0
    trans, longi = set(), {0}
    best = 0.0

    def probe(orders, frac):
        return max((abs(o * unit + frac) for o in orders), default=0.0)

    for es in seq.elements:
        if es.pulse is not None and es.pulse.alpha != 0.0:
            mixed = trans | {-o for o in trans} | longi | {-o for o in longi}
            trans, longi = set(mixed), set(mixed) | {0}
        m = float(es.gradient.moments(es.duration)[0])
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


def test_export_diagram_writes_plain_floats():
    # numpy scalars must not leak their repr (np.float64(...)) into the CSV
    entry = Configuration(
        "transversal", (1, 0, 0), np.complex128(0.25 - 0.5j), (np.float64(3.0), 0.0, 0.0)
    )
    point = TracePoint(np.float64(0.5), [entry])
    assert export_kt_diagram([point]).splitlines()[1] == "0.5,transversal,1,3.0,0.25,-0.5"


# ---------------------------------------------------------------------------
# walks on distinct elements against the per-element oracles
# ---------------------------------------------------------------------------

_M = 60.0  # rad/m; every moment of the alphabet but one is a multiple


def _const(mx=0.0, my=0.0, duration=0.004):
    return GradientWaveform.constant(
        gx=mx / (GAMMA_PROTON * duration), gy=my / (GAMMA_PROTON * duration)
    )


_RAMP = 1e-3
_SAMPLED_AMP = _M / (GAMMA_PROTON * 1e-3)
ALPHABET = [
    ElementarySequence(pulse=HardPulse(math.pi / 2, 0.0), gradient=_const(2 * _M), duration=0.004),
    ElementarySequence(pulse=HardPulse(math.pi, math.pi / 2), duration=0.002),
    ElementarySequence(pulse=HardPulse(0.7, 1.3), gradient=_const(my=_M, duration=0.003), duration=0.003),
    ElementarySequence(pulse=HardPulse(0.0, 0.0), duration=0.001),
    ElementarySequence(duration=0.0),
    ElementarySequence(duration=0.003),
    ElementarySequence(pulse=HardPulse(2.0, 0.4), gradient=_const(-_M, duration=0.002), duration=0.0),
    ElementarySequence(
        gradient=GradientWaveform.trapezoid(
            gx=3 * _M / (GAMMA_PROTON * 3 * _RAMP), ramp_s=_RAMP, flat_s=2 * _RAMP
        ),
        duration=4 * _RAMP,
    ),
    # k dips to -6 _M along x inside the interval and ends at -2 _M
    ElementarySequence(
        gradient=GradientWaveform.from_samples(
            np.array([[0, 0, 0], [-3, 0, 0], [-3, 1, 0], [0, 0, 0], [2, 0, 0], [2, 0, 0], [0, 0, 0]])
            * _SAMPLED_AMP,
            1e-3,
        ),
        duration=6e-3,
    ),
    *(
        ElementarySequence(
            gradient=_const(4 * _M, duration=0.008),
            duration=0.008,
            acquisition=AcquisitionSpec(9),
            kspace_row=row,
        )
        for row in range(3)
    ),
    ElementarySequence(
        gradient=_const(my=-_M, duration=0.002),
        duration=0.002,
        acquisition=AcquisitionSpec(1),
        kspace_row=4,
    ),
]
INCOMMENSURATE = ElementarySequence(gradient=_const(math.sqrt(2.0) * _M), duration=0.004)
TISSUES = [RelaxationParams(0.3, 0.08, 1.0), RelaxationParams(1.0, 0.05, 0.7), NO_RELAX]
SPECTRUM = box_spectrum((0.004, -0.002, 0.0), (0.03, 0.02, 1e-3), 0.9)


def _observed(walk, seq, relax):
    """Every observed point in order, its k and population rows as bytes,
    and the prune bound over them."""
    seen = []

    def points(k, populations):
        seen.extend((kk.tobytes(), pp.tobytes()) for kk, pp in zip(k, populations))

    walk(seq, relax, record_trace=False, observe=points)
    bound = PruneBound()
    walk(seq, relax, record_trace=False, observe=bound)
    return seen, bound.k_max


def _unit_or_error(derive, seq):
    try:
        return derive(seq)
    except IncommensurateMoments as exc:
        return repr(exc)


@given(
    # more picks than letters, so some element always repeats
    picks=st.lists(st.integers(0, len(ALPHABET) - 1), min_size=len(ALPHABET) + 1, max_size=24),
    tissue=st.sampled_from(TISSUES),
    odd=st.booleans(),
)
# no shrink phase: each example runs eight walks, and a failing one is
# short enough to read unshrunk
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
def test_walks_on_distinct_elements_match_per_element_oracles(picks, tissue, odd):
    elements = [ALPHABET[i] for i in picks]
    if odd:
        elements.insert(len(elements) // 2, INCOMMENSURATE)
    seq = Sequence(elements, name="alphabet")
    assert _unit_or_error(derive_unit_k, seq) == _unit_or_error(reference_unit, seq)
    assert max_k_excursion(seq) == reference_k_excursion(seq)
    got = simulate_kt(seq, tissue, object_spectrum=SPECTRUM)
    want = reference_walk(seq, tissue, object_spectrum=SPECTRUM)
    # repr spells every float and complex part exactly, signed zeros
    # included; only the names of differing parts are compared, because
    # a diff of the long texts would take minutes
    differ = [
        name
        for name, a, b in (
            ("trace", repr(got.trace), repr(want.trace)),
            ("echoes", [e.tobytes() for e in got.echoes], [e.tobytes() for e in want.echoes]),
            ("final", repr(got.final), repr(want.final)),
            ("observed", _observed(simulate_kt, seq, tissue), _observed(reference_walk, seq, tissue)),
        )
        if a != b
    ]
    assert differ == []


def test_observer_cannot_write_into_k():
    # a span's k array may come again when the span recurs, so a write
    # would corrupt what later calls see
    seq = build_spin_echo(0.25, 8, 0.03, 0.5, readout_gradient(0.25, 8, 0.008))

    def scribble(k, populations):
        k[...] = 0.0

    with pytest.raises(ValueError, match="read-only"):
        simulate_kt(seq, NO_RELAX, record_trace=False, observe=scribble)


def test_walk_logs_element_and_distinct_counts(caplog):
    seq = build_spin_echo(0.25, 8, 0.03, 0.5, readout_gradient(0.25, 8, 0.008))
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        simulate_kt(seq, NO_RELAX, record_trace=False)
    assert any("32 elements, 11 distinct" in rec.getMessage() for rec in caplog.records)
    # every phase-encode row meets its pulses with orders of its own
    assert any(
        rec.getMessage() == "k-t walk: 16 pulse splits from 16 split plans" for rec in caplog.records
    )


def _differ(got, want):
    """Names of the parts of two runs that differ: trace, echoes, final;
    repr spells every float and complex part exactly, signed zeros
    included."""
    return [
        name
        for name, a, b in (
            ("trace", repr(got.trace), repr(want.trace)),
            ("echoes", [e.tobytes() for e in got.echoes], [e.tobytes() for e in want.echoes]),
            ("final", repr(got.final), repr(want.final)),
        )
        if a != b
    ]


def test_walk_through_a_decay_that_underflows_matches_the_oracle():
    # over 0.1 s at T2 = 1e-4 s the decay is exactly 0, so every
    # transversal part becomes a zero signed by the complex product,
    # -0.0 for a negative real part; the shifting elements after it in
    # the same span then give each shifted population 0j + p
    relax = RelaxationParams(t1=0.5, t2=1e-4, m0=1.0)
    read = ElementarySequence(
        gradient=_const(4 * _M, duration=0.008), duration=0.008, acquisition=AcquisitionSpec(9), kspace_row=0
    )
    span = [
        ElementarySequence(duration=0.1),
        ElementarySequence(gradient=_const(my=_M, duration=0.002), duration=0.002),
        read,
        ElementarySequence(gradient=_const(2 * _M, duration=0.002), duration=0.002),
    ]
    elements = []
    for alpha, phi in ((1.1, 2.0), (2.4, -2.3), (0.7, 4.0)):
        pulse = ElementarySequence(pulse=HardPulse(alpha, phi), gradient=_const(_M), duration=0.004)
        elements += [pulse, read, *span]
    seq = Sequence(elements, name="underflow")
    got = simulate_kt(seq, relax, object_spectrum=SPECTRUM, prune_threshold=0.0)
    want = reference_walk(seq, relax, object_spectrum=SPECTRUM, prune_threshold=0.0)
    assert _differ(got, want) == []
    assert _observed(simulate_kt, seq, relax) == _observed(reference_walk, seq, relax)
    # the walk met zeros of both signs
    parts = {
        math.copysign(1.0, part)
        for point in got.trace
        for e in point.entries
        for part in (e.population.real, e.population.imag)
        if part == 0.0
    }
    assert parts == {-1.0, 1.0}


def _cpmg8():
    """CPMG-4 at 8^2: 8 shots of 5 spans each, of 3 span shapes (the
    excitation, an echo with its inter-echo filler, the last echo with
    the relaxation filler)."""
    seq = build_cpmg(fov=0.25, n=8, n_echoes=4, dte=0.02, tr=0.5, readout_grad=readout_gradient(0.25, 8, 0.008))
    return seq, RelaxationParams(1.0, 0.1, 1.0)


def test_walk_observes_each_span_in_one_call():
    seq, relax = _cpmg8()
    calls = []
    simulate_kt(seq, relax, record_trace=False, observe=lambda k, p: calls.append(len(p)))
    # the excitation: its start and its end; an echo: its start, the
    # ends of the pulse gap and the blip, 8 samples, the ends of the
    # readout, the blip and the filler
    assert calls == [2, 14, 14, 14, 14] * 8


def test_walk_logs_spans_and_span_shapes(caplog):
    seq, relax = _cpmg8()
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        simulate_kt(seq, relax, record_trace=False)
    messages = [rec.getMessage() for rec in caplog.records]
    assert "k-t walk: 40 spans from 3 span shapes" in messages
    # after the splits line
    assert messages.index("k-t walk: 40 spans from 3 span shapes") > next(
        i for i, text in enumerate(messages) if "pulse splits" in text
    )


@pytest.mark.parametrize("batch", [1, 64])
def test_a_long_span_is_walked_in_parts_that_match_the_oracle(monkeypatch, batch):
    # an EPI train is one span; in parts of whole elements it keeps the
    # oracle's points, echoes and trace
    monkeypatch.setattr(ktspace, "_SPAN_BATCH", batch)
    seq = build_gradient_epi(fov=0.25, n=8, n_echoes=8, readout_grad=readout_gradient(0.25, 8, 0.004))
    relax = RelaxationParams(0.5, 0.05, 1.0)
    sizes = []
    got = simulate_kt(seq, relax, object_spectrum=SPECTRUM, observe=lambda k, p: sizes.append(p.size))
    want = reference_walk(seq, relax, object_spectrum=SPECTRUM)
    assert _differ(got, want) == []
    assert _observed(simulate_kt, seq, relax) == _observed(reference_walk, seq, relax)
    # one element at a time, or at most the batch's populations at once
    assert len(sizes) > 1 and all(size <= max(batch, 9) for size in sizes)


def test_walk_logs_whole_spans_when_it_walks_them_in_parts(monkeypatch, caplog):
    seq = build_gradient_epi(fov=0.25, n=8, n_echoes=8, readout_grad=readout_gradient(0.25, 8, 0.004))
    relax = RelaxationParams(0.5, 0.05, 1.0)

    def span_line():
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="mrsim"):
            simulate_kt(seq, relax, record_trace=False)
        return [rec.getMessage() for rec in caplog.records if "span shapes" in rec.getMessage()]

    whole = span_line()
    monkeypatch.setattr(ktspace, "_SPAN_BATCH", 1)
    assert span_line() == whole


def test_walk_past_int64_orders_matches_the_oracle():
    # no common measure of 1e16 and 1e16 (1 + 1.23e-7): on the fallback
    # grid of 1/1024 rad/m, set by the 1 rad/m lobe, the 1e16 lobes
    # shift by about 1e19 orders, past 2**63
    els = [
        gradient_es(1e16, pulse=HardPulse(math.pi / 2, 0.0)),
        gradient_es(1e16 * (1.0 + 1.23e-7), pulse=HardPulse(2.0, 0.7)),
        gradient_es(1.0),
        gradient_es(-5e15, acquire=4),
        gradient_es(1e16, pulse=HardPulse(1.1, 0.3)),
        gradient_es(1e16, acquire=3),
    ]
    seq = Sequence(els, name="wide")
    with pytest.raises(IncommensurateMoments):
        derive_unit_k(seq)
    got = simulate_kt(seq, NO_RELAX, object_spectrum=SPECTRUM)
    assert max(abs(o[0]) for o in got.final.trans) > 2**63
    assert _differ(got, reference_walk(seq, NO_RELAX, object_spectrum=SPECTRUM)) == []
    assert _observed(simulate_kt, seq, NO_RELAX) == _observed(reference_walk, seq, NO_RELAX)


@pytest.mark.parametrize("threshold", [math.nan, -1.0, -1e-300, math.inf, -math.inf])
def test_walk_rejects_a_prune_threshold_that_is_negative_or_not_finite(threshold):
    # NaN and -1 acted as 0 and inf pruned every transversal population
    seq = build_spin_echo(0.25, 8, 0.03, 0.5, readout_gradient(0.25, 8, 0.008))
    with pytest.raises(InvalidParameter, match="prune_threshold"):
        simulate_kt(seq, RelaxationParams(1.0, 0.1, 1.0), prune_threshold=threshold)


# ---------------------------------------------------------------------------
# echoes synthesized in batches of readouts
# ---------------------------------------------------------------------------


def _counted(spectrum):
    """``spectrum`` and the list of the k shapes it is called with."""
    shapes = []

    def counted(k):
        shapes.append(k.shape)
        return spectrum(k)

    return counted, shapes


def _kt_cpmg12_walk(spectrum):
    """The CPMG-12 walk of the ``kt_cpmg12`` benchmark workload at 16^2,
    its first tissue: 192 readouts of 16 samples, one configuration each."""
    seq = build_cpmg(
        fov=0.375, n=16, n_echoes=12, dte=0.02, tr=2.0,
        readout_grad=readout_gradient(0.375, 16, 0.012),
    )
    return simulate_kt(seq, RelaxationParams(0.3, 0.05, 1.0), object_spectrum=spectrum, record_trace=False)


def _unpruned_tse():
    """An unpruned TSE-32 walk: 32 readouts of 3 to 47 configurations."""
    seq = build_tse(
        fov=0.25, n=32, turbo_factor=8, echo_spacing=0.02, tr=0.5,
        readout_grad=readout_gradient(0.25, 32, 0.008),
    )
    return seq, RelaxationParams(1.0, 0.1, 1.0)


def test_walk_synthesizes_a_batch_of_readouts_in_one_spectrum_call():
    spectrum, shapes = _counted(box_spectrum((-0.09, -0.09, 0.0), (0.09, 0.09, 1e-3), 0.9))
    run = _kt_cpmg12_walk(spectrum)
    assert len(run.echoes) == 192 and all(e.shape == (16,) for e in run.echoes)
    assert shapes == [(192 * 16, 1, 3)]


@pytest.mark.parametrize("batch", [None, 1])
def test_batched_echoes_match_the_per_readout_oracle(monkeypatch, batch):
    # readouts of 8 or more configurations take numpy's pairwise sum,
    # which a sequential sum over the flattened batch would not reproduce
    if batch is not None:
        monkeypatch.setattr(ktspace, "_SYNTH_BATCH", batch)
    seq, relax = _unpruned_tse()
    box = box_spectrum((0.01, 0.0, 0.0), (0.1, 0.08, 1e-3), 0.8)
    spectrum, shapes = _counted(box)
    got = simulate_kt(seq, relax, object_spectrum=spectrum, prune_threshold=0.0, record_trace=False)
    want = reference_walk(seq, relax, object_spectrum=box, prune_threshold=0.0)
    assert [e.tobytes() for e in got.echoes] == [e.tobytes() for e in want.echoes]
    widths = [shape[1] for shape in shapes]
    assert max(widths) >= 8
    # one call per width of a batch, or per readout when each fills one
    if batch == 1:
        assert len(shapes) == 32
    else:
        assert len(set(widths)) <= len(shapes) < 32


def test_batched_lattice_echoes_match_per_readout_synthesis(monkeypatch):
    # a lattice spectrum's matmul blocks by the number of k rows it gets,
    # so a batch may round differently from one readout
    rng = np.random.default_rng(11)
    lattice = lattice_spectrum(rng.uniform(-0.05, 0.05, size=(40, 3)), rng.uniform(0.1, 1.0, size=40))
    seq, relax = _unpruned_tse()
    batched = simulate_kt(seq, relax, object_spectrum=lattice, prune_threshold=0.0, record_trace=False)
    monkeypatch.setattr(ktspace, "_SYNTH_BATCH", 1)
    single = simulate_kt(seq, relax, object_spectrum=lattice, prune_threshold=0.0, record_trace=False)
    want = np.array(single.echoes)
    diff = np.linalg.norm(np.array(batched.echoes) - want)
    assert diff <= 1e-15 * np.linalg.norm(want)  # -300 dB


def test_spectrum_error_reaches_the_caller_unchanged():
    error = RuntimeError("spectrum failed")

    def failing(k):
        raise error

    with pytest.raises(RuntimeError) as info:
        _kt_cpmg12_walk(failing)
    assert info.value is error


def test_walk_logs_readouts_and_spectrum_calls(caplog):
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        _kt_cpmg12_walk(box_spectrum((0.0, 0.0, 0.0), (0.09, 0.09, 1e-3)))
    assert any(
        rec.getMessage() == "k-t walk: echoes of 192 readouts from 1 spectrum calls"
        for rec in caplog.records
    )
