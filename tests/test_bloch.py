import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrsim.bloch import (
    GAMMA_PROTON,
    NO_RELAX,
    RelaxationParams,
    apply_pulse,
    hard_pulse_coefficients,
    precession_factor,
    regrow_mz,
)
from mrsim.errors import InvalidParameter

from oracles import (
    hard_pulse_matrix,
    reference_rotation,
    rk4_bloch,
    rotate_axis_angle,
    shaped_pulse,
    small_tip_response,
)


def pulse_coefficients(alpha, phi):
    """The six hard-pulse coefficients of each case, one array each, for
    one ``apply_pulse`` over all cases."""
    return np.vectorize(hard_pulse_coefficients, otypes=[complex] * 6)(alpha, phi)


def hard_pulse(m, alpha, phi):
    """(mx, my, mz) after a hard pulse, by the array operators on one spin
    or, with arrays, on many, each with its own pulse."""
    mxy, mz = apply_pulse(pulse_coefficients(alpha, phi), m[0] + 1j * m[1], m[2])
    return np.array([np.real(mxy), np.imag(mxy), mz])


def interval(m, r, moment, dt):
    """(mx, my, mz) after turning by ``moment`` (rad) and relaxing for dt."""
    mxy = (m[0] + 1j * m[1]) * precession_factor(moment, dt, 1.0 / r.t2)
    return np.array([np.real(mxy), np.imag(mxy), regrow_mz(m[2], r.m0, 1.0 / r.t1, dt)])


@pytest.mark.parametrize(
    "alpha_deg,phi_deg,m_in,m_out",
    [
        (90, 0, (0, 0, 1), (0, 1, 0)),
        (180, 0, (0.3, 1, 0.5), (0.3, -1, -0.5)),
        (0, 37, (0.2, -0.4, 0.7), (0.2, -0.4, 0.7)),
        (90, 90, (0, 0, 1), (-1, 0, 0)),
    ],
)
def test_hard_pulse_reference_points(alpha_deg, phi_deg, m_in, m_out):
    got = hard_pulse(m_in, math.radians(alpha_deg), math.radians(phi_deg))
    np.testing.assert_allclose(got, m_out, atol=1e-12)


@pytest.mark.parametrize("n", [1, 7, 4788])
def test_rotation_matches_the_component_formula(n):
    """The complex multiply-adds on the pulse coefficients against the
    fifteen scalar-times-array operations of the real rotation matrix.
    Each form is within 4.5 roundings of the spin's largest component,
    so they differ by at most 9."""
    rng = np.random.default_rng(n)
    mxy = rng.normal(size=n) + 1j * rng.normal(size=n)
    mz = rng.normal(size=n)
    for alpha, phi in [(math.pi / 2, 0.0), (math.pi, 1.3), (0.4, -2.2)]:
        got_mxy, got_mz = apply_pulse(hard_pulse_coefficients(alpha, phi), mxy, mz)
        want_mxy, want_mz = reference_rotation(hard_pulse_matrix(alpha, phi), mxy, mz)
        assert got_mxy.shape == got_mz.shape == (n,)
        largest = np.abs(np.column_stack([mxy.real, mxy.imag, mz])).max(axis=1)
        scale = 9 * np.finfo(float).eps * largest
        assert np.all(np.abs(got_mxy.real - want_mxy.real) <= scale)
        assert np.all(np.abs(got_mxy.imag - want_mxy.imag) <= scale)
        assert np.all(np.abs(got_mz - want_mz) <= scale)


def test_rotation_of_scalars_returns_scalars():
    mxy, mz = apply_pulse(hard_pulse_coefficients(1.1, 0.3), 0.3 - 0.4j, 0.8)
    assert isinstance(mxy, complex) and isinstance(mz, float)
    assert not isinstance(mxy, np.ndarray) and not isinstance(mz, np.ndarray)
    want_mxy, want_mz = reference_rotation(hard_pulse_matrix(1.1, 0.3), 0.3 - 0.4j, 0.8)
    assert mxy == pytest.approx(complex(want_mxy), abs=1e-15)
    assert mz == pytest.approx(want_mz, abs=1e-15)


def test_precess_relax_thermal_equilibrium():
    r = RelaxationParams(t1=0.5, t2=0.2, m0=1.0)
    dt = 50 * r.t1
    m = interval((0.7, -0.3, -0.9), r, 123.0 * dt, dt)
    np.testing.assert_allclose(m, (0.0, 0.0, 1.0), atol=1e-12)


def test_precess_relax_half_recovery():
    r = RelaxationParams(t1=0.8, t2=0.2, m0=1.0)
    m = interval((0, 0, 0), r, 0.0, r.t1 * math.log(2))
    assert m[2] == pytest.approx(0.5, abs=1e-12)


def test_precess_rotation_by_pi():
    r = RelaxationParams(t1=1e12, t2=1e12, m0=0.0)
    dt = 0.01
    m = interval((1, 0, 0), r, math.pi / dt * dt, dt)
    np.testing.assert_allclose(m, (-1.0, 0.0, 0.0), atol=1e-9)


def test_precess_rotation_sense():
    # positive off-resonance turns +x toward -y (clockwise from +z)
    m = interval((1, 0, 0), NO_RELAX, math.pi / 2 * 1.0, 1.0)
    np.testing.assert_allclose(m, (0.0, -1.0, 0.0), atol=1e-12)


@pytest.mark.parametrize(
    "moment,m_in,m_out",
    [
        (0.0, (0.4, 0.2, 0.7), (0.4, 0.2, 0.7)),
        (math.pi, (1, 0, 0), (-1, 0, 0)),
        (2 * math.pi, (1, 0, 0), (1, 0, 0)),
    ],
)
def test_gradient_interval_rotations(moment, m_in, m_out):
    got = interval(m_in, NO_RELAX, moment, 0.001)
    np.testing.assert_allclose(got, m_out, atol=1e-12)


@pytest.mark.parametrize(
    "call",
    [
        lambda: RelaxationParams(t1=1.0, t2=0.0, m0=1.0),
        lambda: RelaxationParams(t1=-1.0, t2=0.1, m0=1.0),
        lambda: RelaxationParams(t1=1.0, t2=0.1, m0=-0.5),
        lambda: RelaxationParams(t1=1.0, t2=0.1, m0=math.nan),
        lambda: RelaxationParams(t1=1.0, t2=0.1, m0=math.inf),
    ],
    ids=["t2", "t1", "m0", "m0 nan", "m0 inf"],
)
def test_invalid_arguments_raise_library_error(call):
    with pytest.raises(InvalidParameter):
        call()


def test_t2_larger_than_t1_warns_but_works():
    with pytest.warns(UserWarning, match="exceeds t1"):
        r = RelaxationParams(t1=0.1, t2=0.5, m0=1.0)
    assert r.t2 == 0.5


# ---------------------------------------------------------------------------
# shaped pulses (the oracle that the [rf_shaped] kernel path is checked against)
# ---------------------------------------------------------------------------


def test_shaped_pulse_constant_envelope_matches_hard_pulse():
    n, dt = 200, 5e-6
    alpha = math.pi / 2
    b1 = alpha / (GAMMA_PROTON * n * dt)
    env = np.full(n, b1, dtype=complex) * np.exp(1j * 0.3)
    got = shaped_pulse((0, 0, 1), NO_RELAX, env, dt, 0.0)
    want = hard_pulse((0, 0, 1), alpha, 0.3)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_shaped_pulse_empty_envelope_is_identity():
    m = (0.1, 0.2, 0.3)
    assert np.array_equal(shaped_pulse(m, NO_RELAX, [], 1e-6, 0.0), m)


def test_shaped_pulse_effective_field_axis():
    # constant B1 plus off-resonance: precession about (B1*cos, B1*sin, domega/gamma).
    # The sub-pulse decomposition splits the simultaneous rotation, which is
    # first order in the step; Richardson extrapolation over dt, dt/2, dt/4
    # removes the split error and must land on the closed form to 1e-8.
    b1, phi, domega = 4e-6, 0.7, 2 * math.pi * 150.0
    total = 4e-3

    def evolve(n):
        dt = total / n
        env = np.full(n, b1) * np.exp(1j * phi)
        return shaped_pulse((0, 0, 1), NO_RELAX, env, dt, domega * dt)

    f1, f2, f4 = evolve(2000), evolve(4000), evolve(8000)
    extrapolated = (8.0 * f4 - 6.0 * f2 + f1) / 3.0
    axis = np.array([b1 * math.cos(phi), b1 * math.sin(phi), domega / GAMMA_PROTON])
    angle = -GAMMA_PROTON * np.linalg.norm(axis) * total
    want = rotate_axis_angle([0, 0, 1], axis, angle)
    np.testing.assert_allclose(extrapolated, want, atol=1e-8)


def _sinc_envelope(n, lobes, peak):
    t = np.linspace(-lobes, lobes, n)
    return peak * np.sinc(t).astype(complex)


def test_small_tip_zero_envelope():
    assert small_tip_response([], 1e-6, 0.0, 1.0) == 0


def test_small_tip_constant_envelope_on_resonance():
    n, dt, b1 = 100, 1e-5, 1e-7
    got = small_tip_response(np.full(n, b1), dt, 0.0, 1.0)
    alpha = GAMMA_PROTON * b1 * (n - 1) * dt  # trapezoid over the sample grid
    assert got == pytest.approx(1j * alpha, rel=1e-9)


def test_small_tip_vs_shaped_pulse_sinc():
    # 10 degree sinc pulse on resonance: linearized response deviates from
    # the full evolution by less than 0.5 % of the equilibrium magnetization
    n, dt = 512, 2e-6
    env = _sinc_envelope(n, 3, 1.0)
    env *= math.radians(10.0) / (GAMMA_PROTON * np.real(np.trapezoid(env, dx=dt)))
    full = shaped_pulse((0, 0, 1), NO_RELAX, env, dt, 0.0)
    approx = small_tip_response(env, dt, 0.0, 1.0)
    got = complex(full[0], full[1])
    assert abs(got - approx) < 5e-3


@pytest.mark.parametrize("alpha_deg", [5, 10, 15, 30])
def test_small_tip_error_follows_linearization_law(alpha_deg):
    # on resonance the relative deviation is exactly (a - sin a)/sin a ~ a^2/6
    n, dt = 512, 2e-6
    env = _sinc_envelope(n, 3, 1.0)
    alpha = math.radians(alpha_deg)
    env *= alpha / (GAMMA_PROTON * np.real(np.trapezoid(env, dx=dt)))
    full = shaped_pulse((0, 0, 1), NO_RELAX, env, dt, 0.0)
    approx = small_tip_response(env, dt, 0.0, 1.0)
    got = complex(full[0], full[1])
    law = (alpha - math.sin(alpha)) / math.sin(alpha)
    assert abs(got - approx) / abs(got) == pytest.approx(law, rel=0.05)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
components = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


# a batch of spins, each with its own pulse: pulse_coefficients of arrays
# holds one array per coefficient, one element per spin
batches = st.lists(
    st.tuples(angles, angles, components, components, components), min_size=1, max_size=8
).map(lambda rows: np.array(rows).T)


@given(batch=batches)
@settings(max_examples=200, deadline=None)
def test_hard_pulse_preserves_norm(batch):
    alpha, phi, m = batch[0], batch[1], batch[2:]
    got = hard_pulse(m, alpha, phi)
    norm = np.linalg.norm(m, axis=0)
    assert np.linalg.norm(got, axis=0) == pytest.approx(norm, rel=1e-12, abs=1e-13)


@given(batch=batches)
@settings(max_examples=200, deadline=None)
def test_hard_pulse_inverse_composes_to_identity(batch):
    alpha, phi, m = batch[0], batch[1], batch[2:]
    back = hard_pulse(hard_pulse(m, alpha, phi), -alpha, phi)
    np.testing.assert_allclose(back, m, atol=1e-12)


@given(
    dt1=st.floats(min_value=0.0, max_value=0.05),
    dt2=st.floats(min_value=0.0, max_value=0.05),
    domega=st.floats(min_value=-500.0, max_value=500.0),
)
@settings(max_examples=100, deadline=None)
def test_precess_relax_semigroup(dt1, dt2, domega):
    r = RelaxationParams(t1=0.9, t2=0.4, m0=0.8)
    m = (0.6, -0.2, 0.1)
    split = interval(interval(m, r, domega * dt1, dt1), r, domega * dt2, dt2)
    joint = interval(m, r, domega * (dt1 + dt2), dt1 + dt2)
    np.testing.assert_allclose(split, joint, rtol=1e-10, atol=1e-14)


# ---------------------------------------------------------------------------
# brute-force ODE oracle (spot checks; the full sweep is in the acceptance suite)
# ---------------------------------------------------------------------------


def test_precess_relax_matches_ode_integration():
    r = RelaxationParams(t1=0.3, t2=0.08, m0=0.7)
    domega, dt = 2 * math.pi * 321.0, 0.01
    start = (0.5, -0.4, 0.3)
    got = interval(start, r, domega * dt, dt)
    want = rk4_bloch(start, (0, 0, domega / GAMMA_PROTON), r.t1, r.t2, r.m0, dt)
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-10)


def test_hard_pulse_matches_ode_integration():
    alpha, phi = math.radians(73.0), math.radians(25.0)
    dt, b1 = 1e-4, None
    b1 = alpha / (GAMMA_PROTON * dt)
    start = (0.1, 0.2, 0.9)
    got = hard_pulse(start, alpha, phi)
    want = rk4_bloch(
        start,
        (b1 * math.cos(phi), b1 * math.sin(phi), 0.0),
        1e9,
        1e9,
        0.0,
        dt,
    )
    np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)
