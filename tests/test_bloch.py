import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrsim.bloch import (
    GAMMA_PROTON,
    NO_RELAX,
    FrameContext,
    HardPulse,
    Magnetization,
    RelaxationParams,
    apply_gradient_interval,
    apply_hard_pulse,
    apply_precess_relax,
    apply_shaped_pulse,
    equilibrium,
    small_tip_response,
)
from mrsim.errors import EnvelopeUndersampled, InvalidParameter

from oracles import rk4_bloch, rotate_axis_angle

CTX = FrameContext.on_resonance(1.5)


def as_tuple(m):
    return (m.mx, m.my, m.mz)


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
    p = HardPulse(math.radians(alpha_deg), math.radians(phi_deg))
    got = apply_hard_pulse(Magnetization(*m_in), p)
    np.testing.assert_allclose(as_tuple(got), m_out, atol=1e-12)


def test_precess_relax_thermal_equilibrium():
    r = RelaxationParams(t1=0.5, t2=0.2, m0=1.0)
    m = apply_precess_relax(Magnetization(0.7, -0.3, -0.9), r, domega=123.0, dt=50 * r.t1)
    np.testing.assert_allclose(as_tuple(m), (0.0, 0.0, 1.0), atol=1e-12)


def test_precess_relax_half_recovery():
    r = RelaxationParams(t1=0.8, t2=0.2, m0=1.0)
    m = apply_precess_relax(Magnetization(0, 0, 0), r, domega=0.0, dt=r.t1 * math.log(2))
    assert m.mz == pytest.approx(0.5, abs=1e-12)


def test_precess_rotation_by_pi():
    r = RelaxationParams(t1=1e12, t2=1e12, m0=0.0)
    dt = 0.01
    m = apply_precess_relax(Magnetization(1, 0, 0), r, domega=math.pi / dt, dt=dt)
    np.testing.assert_allclose(as_tuple(m), (-1.0, 0.0, 0.0), atol=1e-9)


def test_precess_rotation_sense():
    # positive off-resonance turns +x toward -y (clockwise from +z)
    m = apply_precess_relax(Magnetization(1, 0, 0), NO_RELAX, domega=math.pi / 2, dt=1.0)
    np.testing.assert_allclose(as_tuple(m), (0.0, -1.0, 0.0), atol=1e-12)


@pytest.mark.parametrize(
    "moment,m_in,m_out",
    [
        (0.0, (0.4, 0.2, 0.7), (0.4, 0.2, 0.7)),
        (math.pi, (1, 0, 0), (-1, 0, 0)),
        (2 * math.pi, (1, 0, 0), (1, 0, 0)),
    ],
)
def test_gradient_interval_rotations(moment, m_in, m_out):
    got = apply_gradient_interval(Magnetization(*m_in), NO_RELAX, moment, dt=0.001)
    np.testing.assert_allclose(as_tuple(got), m_out, atol=1e-12)


def test_gradient_interval_rejects_negative_dt():
    with pytest.raises(InvalidParameter):
        apply_gradient_interval(equilibrium(1.0), NO_RELAX, 0.0, dt=-1e-3)


@pytest.mark.parametrize(
    "call",
    [
        lambda: RelaxationParams(t1=1.0, t2=0.0, m0=1.0),
        lambda: RelaxationParams(t1=-1.0, t2=0.1, m0=1.0),
        lambda: RelaxationParams(t1=1.0, t2=0.1, m0=-0.5),
        lambda: apply_shaped_pulse(equilibrium(1.0), NO_RELAX, [1e-6], 0.0, 0.0, CTX),
    ],
    ids=["t2", "t1", "m0", "per_sample_dt"],
)
def test_invalid_arguments_raise_library_error(call):
    with pytest.raises(InvalidParameter):
        call()


def test_t2_larger_than_t1_warns_but_works():
    with pytest.warns(UserWarning, match="exceeds t1"):
        r = RelaxationParams(t1=0.1, t2=0.5, m0=1.0)
    assert r.t2 == 0.5


# ---------------------------------------------------------------------------
# shaped pulses
# ---------------------------------------------------------------------------


def test_shaped_pulse_constant_envelope_matches_hard_pulse():
    n, dt = 200, 5e-6
    alpha = math.pi / 2
    b1 = alpha / (GAMMA_PROTON * n * dt)
    env = np.full(n, b1, dtype=complex) * np.exp(1j * 0.3)
    got = apply_shaped_pulse(equilibrium(1.0), NO_RELAX, env, dt, 0.0, CTX)
    want = apply_hard_pulse(equilibrium(1.0), HardPulse(alpha, 0.3))
    np.testing.assert_allclose(as_tuple(got), as_tuple(want), atol=1e-9)


def test_shaped_pulse_empty_envelope_is_identity():
    m = Magnetization(0.1, 0.2, 0.3)
    assert apply_shaped_pulse(m, NO_RELAX, [], 1e-6, 0.0, CTX) == m


def test_shaped_pulse_undersampled_flag_raises():
    with pytest.raises(EnvelopeUndersampled):
        apply_shaped_pulse(equilibrium(1.0), NO_RELAX, [1e-6], 1e-6, 0.0, CTX, sampling_ok=False)


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
        m = apply_shaped_pulse(equilibrium(1.0), NO_RELAX, env, dt, domega * dt, CTX)
        return np.array(as_tuple(m))

    f1, f2, f4 = evolve(2000), evolve(4000), evolve(8000)
    extrapolated = (8.0 * f4 - 6.0 * f2 + f1) / 3.0
    axis = np.array([b1 * math.cos(phi), b1 * math.sin(phi), domega / CTX.gamma])
    angle = -CTX.gamma * np.linalg.norm(axis) * total
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
    full = apply_shaped_pulse(equilibrium(1.0), NO_RELAX, env, dt, 0.0, CTX)
    approx = small_tip_response(env, dt, 0.0, 1.0)
    got = complex(full.mx, full.my)
    assert abs(got - approx) < 5e-3


@pytest.mark.parametrize("alpha_deg", [5, 10, 15, 30])
def test_small_tip_error_follows_linearization_law(alpha_deg):
    # on resonance the relative deviation is exactly (a - sin a)/sin a ~ a^2/6
    n, dt = 512, 2e-6
    env = _sinc_envelope(n, 3, 1.0)
    alpha = math.radians(alpha_deg)
    env *= alpha / (GAMMA_PROTON * np.real(np.trapezoid(env, dx=dt)))
    full = apply_shaped_pulse(equilibrium(1.0), NO_RELAX, env, dt, 0.0, CTX)
    approx = small_tip_response(env, dt, 0.0, 1.0)
    got = complex(full.mx, full.my)
    law = (alpha - math.sin(alpha)) / math.sin(alpha)
    assert abs(got - approx) / abs(got) == pytest.approx(law, rel=0.05)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
components = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@given(alpha=angles, phi=angles, mx=components, my=components, mz=components)
@settings(max_examples=200, deadline=None)
def test_hard_pulse_preserves_norm(alpha, phi, mx, my, mz):
    m = Magnetization(mx, my, mz)
    got = apply_hard_pulse(m, HardPulse(alpha, phi))
    assert got.norm() == pytest.approx(m.norm(), rel=1e-12, abs=1e-13)


@given(alpha=angles, phi=angles, mx=components, my=components, mz=components)
@settings(max_examples=200, deadline=None)
def test_hard_pulse_inverse_composes_to_identity(alpha, phi, mx, my, mz):
    m = Magnetization(mx, my, mz)
    back = apply_hard_pulse(apply_hard_pulse(m, HardPulse(alpha, phi)), HardPulse(-alpha, phi))
    np.testing.assert_allclose(as_tuple(back), as_tuple(m), atol=1e-12)


@given(
    dt1=st.floats(min_value=0.0, max_value=0.05),
    dt2=st.floats(min_value=0.0, max_value=0.05),
    domega=st.floats(min_value=-500.0, max_value=500.0),
)
@settings(max_examples=100, deadline=None)
def test_precess_relax_semigroup(dt1, dt2, domega):
    r = RelaxationParams(t1=0.9, t2=0.4, m0=0.8)
    m = Magnetization(0.6, -0.2, 0.1)
    split = apply_precess_relax(apply_precess_relax(m, r, domega, dt1), r, domega, dt2)
    joint = apply_precess_relax(m, r, domega, dt1 + dt2)
    np.testing.assert_allclose(as_tuple(split), as_tuple(joint), rtol=1e-10, atol=1e-14)


# ---------------------------------------------------------------------------
# brute-force ODE oracle (spot checks; the full sweep is in the acceptance suite)
# ---------------------------------------------------------------------------


def test_precess_relax_matches_ode_integration():
    r = RelaxationParams(t1=0.3, t2=0.08, m0=0.7)
    domega, dt = 2 * math.pi * 321.0, 0.01
    start = (0.5, -0.4, 0.3)
    got = apply_precess_relax(Magnetization(*start), r, domega, dt)
    want = rk4_bloch(start, (0, 0, domega / GAMMA_PROTON), GAMMA_PROTON, r.t1, r.t2, r.m0, dt)
    np.testing.assert_allclose(as_tuple(got), want, rtol=1e-7, atol=1e-10)


def test_hard_pulse_matches_ode_integration():
    alpha, phi = math.radians(73.0), math.radians(25.0)
    dt, b1 = 1e-4, None
    b1 = alpha / (GAMMA_PROTON * dt)
    start = (0.1, 0.2, 0.9)
    got = apply_hard_pulse(Magnetization(*start), HardPulse(alpha, phi))
    want = rk4_bloch(
        start,
        (b1 * math.cos(phi), b1 * math.sin(phi), 0.0),
        GAMMA_PROTON,
        1e9,
        1e9,
        0.0,
        dt,
    )
    np.testing.assert_allclose(as_tuple(got), want, rtol=1e-7, atol=1e-9)
