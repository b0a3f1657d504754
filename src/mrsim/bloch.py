"""Analytic magnetization operators in the rotating frame.

The operators are exact for piecewise-constant fields, so arbitrarily
long intervals cost one evaluation.  Each piece of rotation and
relaxation math exists once, as an array operator on the complex
transverse state ``mxy = mx + 1j*my`` and Mz of many spins
(:func:`apply_rotation`, :func:`precession_factor`, :func:`regrow_mz`);
the spin-block kernel of :mod:`mrsim.engine` runs on them, and the
single-spin operators on :class:`Magnetization` are the same operators
applied to one spin.  Everything lives in the frame rotating at the RF
carrier about +z; the carrier itself is never synthesized.

Sign conventions (fixed here, inherited by every other module):

* A positive rotation angle ``theta`` turns the transverse components
  clockwise when viewed from +z::

      mx' =  cos(theta) * mx + sin(theta) * my
      my' = -sin(theta) * mx + cos(theta) * my

  so the complex transverse magnetization ``mx + 1j*my`` picks up a
  factor ``exp(-1j*theta)``.
* Positive off-resonance ``domega`` therefore means faster clockwise
  precession.
* A hard pulse with flip ``alpha`` and phase ``phi`` tips equilibrium
  magnetization (0, 0, M0) to ``M0 * (-sin(phi)*sin(alpha),
  cos(phi)*sin(alpha), cos(alpha))``.

Static and gradient fields are assumed longitudinal.  Fields with
transverse components would need a local basis rotation before these
operators apply; that mechanism is out of scope here.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EnvelopeUndersampled, InvalidParameter

# Gyromagnetic ratio of the proton, rad/(s*T).
GAMMA_PROTON = 2.0 * math.pi * 42.6e6


@dataclass(frozen=True)
class Magnetization:
    """Magnetization 3-vector (A/m or relative units; M0 sets the scale)."""

    mx: float
    my: float
    mz: float

    def as_array(self) -> np.ndarray:
        return np.array([self.mx, self.my, self.mz], dtype=float)

    def transverse(self) -> complex:
        """Complex transverse part mx + 1j*my."""
        return complex(self.mx, self.my)

    def norm(self) -> float:
        return math.sqrt(self.mx**2 + self.my**2 + self.mz**2)


def equilibrium(m0: float) -> Magnetization:
    """Thermal-equilibrium state (0, 0, m0)."""
    return Magnetization(0.0, 0.0, float(m0))


@dataclass(frozen=True)
class RelaxationParams:
    """Relaxation constants of one tissue.

    t1, t2 in seconds (may be ``math.inf`` to disable relaxation),
    m0 is the equilibrium magnetization the longitudinal part recovers to.
    t2 > t1 is unphysical but permitted; it only triggers a warning.
    """

    t1: float
    t2: float
    m0: float

    def __post_init__(self):
        if not (self.t1 > 0.0 and self.t2 > 0.0):
            raise InvalidParameter(f"relaxation times must be positive, got t1={self.t1}, t2={self.t2}")
        if self.m0 < 0.0:
            raise InvalidParameter(f"m0 must be non-negative, got {self.m0}")
        if self.t2 > self.t1:
            warnings.warn(f"t2={self.t2} s exceeds t1={self.t1} s (unphysical)", stacklevel=3)


# Disables relaxation entirely; handy for rotation-only tests.
NO_RELAX = RelaxationParams(t1=math.inf, t2=math.inf, m0=0.0)


@dataclass(frozen=True)
class HardPulse:
    """Instantaneous RF pulse: flip angle alpha about an axis in the
    transverse plane at azimuth phi (both radians)."""

    alpha: float
    phi: float = 0.0

    @property
    def is_identity(self) -> bool:
        return self.alpha == 0.0


@dataclass(frozen=True)
class FrameContext:
    """Rotating-frame carrier and gyromagnetic ratio."""

    omega_hf: float
    gamma: float = GAMMA_PROTON

    @staticmethod
    def on_resonance(b0: float, gamma: float = GAMMA_PROTON) -> "FrameContext":
        """Frame locked to the nominal Larmor frequency of field b0."""
        return FrameContext(omega_hf=gamma * b0, gamma=gamma)


def hard_pulse_matrix(alpha: float, phi: float) -> np.ndarray:
    """3x3 rotation matrix of a hard pulse (norm preserving).

    Rotates by alpha about the transverse axis (cos(phi), sin(phi), 0)
    in the sense that maps (0,0,1) to (0, sin(alpha), cos(alpha)) for
    phi = 0.
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    cp, sp = np.cos(phi), np.sin(phi)
    return np.array(
        [
            [cp * cp + sp * sp * ca, sp * cp * (1.0 - ca), -sp * sa],
            [sp * cp * (1.0 - ca), sp * sp + cp * cp * ca, cp * sa],
            [sp * sa, -cp * sa, ca],
        ]
    )


# ---------------------------------------------------------------------------
# array operators (one element per spin; mxy = mx + 1j*my) and the
# single-spin operators, which apply them to one spin
# ---------------------------------------------------------------------------


def apply_rotation(r: np.ndarray, mxy, mz):
    """Rotate (Re mxy, Im mxy, mz) by the 3x3 matrix r; returns (mxy, mz)."""
    mx, my = np.real(mxy), np.imag(mxy)
    out = np.empty_like(mxy, dtype=complex)
    out.real = r[0, 0] * mx + r[0, 1] * my + r[0, 2] * mz
    out.imag = r[1, 0] * mx + r[1, 1] * my + r[1, 2] * mz
    return out, r[2, 0] * mx + r[2, 1] * my + r[2, 2] * mz


def precession_factor(phase, dt, inv_t2):
    """Factor ``exp(-dt/T2 - 1j*phase)`` that turns mxy clockwise by
    ``phase`` and decays it with T2 over ``dt``."""
    return np.exp(-dt * inv_t2 - 1j * phase)


def regrow_mz(mz, m0, inv_t1, dt):
    """Longitudinal magnetization after relaxing toward m0 with T1 for dt."""
    e1 = np.exp(-dt * inv_t1)
    return mz * e1 + m0 * (1.0 - e1)


def _magnetization(mxy, mz) -> Magnetization:
    return Magnetization(float(np.real(mxy)), float(np.imag(mxy)), float(mz))


def apply_hard_pulse(m: Magnetization, p: HardPulse) -> Magnetization:
    """Rotate m by the hard pulse p (instantaneous, no relaxation)."""
    if p.is_identity:
        return m
    return _magnetization(*apply_rotation(hard_pulse_matrix(p.alpha, p.phi), m.transverse(), m.mz))


def apply_gradient_interval(
    m: Magnetization, r: RelaxationParams, gradient_moment: float, dt: float
) -> Magnetization:
    """Gradient interval: rotation by the precomputed moment plus relaxation.

    ``gradient_moment`` is gamma * integral(G(tau) . x dtau) in radians,
    evaluated by the caller at the spin's position; the transverse phase
    change is -gradient_moment.  Keeping the moment on the caller side
    keeps this module position-free.  Exact for a constant longitudinal
    field: the transverse part decays with T2, Mz relaxes toward m0 with T1.
    """
    if dt < 0.0:
        raise InvalidParameter(f"dt must be non-negative, got {dt}")
    return _magnetization(
        m.transverse() * precession_factor(gradient_moment, dt, 1.0 / r.t2),
        regrow_mz(m.mz, r.m0, 1.0 / r.t1, dt),
    )


def apply_precess_relax(
    m: Magnetization, r: RelaxationParams, domega: float, dt: float
) -> Magnetization:
    """Free precession at off-resonance ``domega`` (rad/s) with relaxation:
    a gradient interval whose moment is domega*dt."""
    return apply_gradient_interval(m, r, domega * dt, dt)


def hard_pulse_decomposition(envelope, per_sample_dt: float, gamma: float) -> list:
    """One hard pulse per sample of a complex envelope (tesla).

    Sample i becomes ``HardPulse(gamma*|B1_i|*dt, arg(B1_i))``, or None
    where B1_i is zero.
    """
    return [
        HardPulse(float(gamma * abs(b1) * per_sample_dt), cmath.phase(b1)) if b1 else None
        for b1 in np.asarray(envelope, dtype=complex)
    ]


def apply_shaped_pulse(
    m: Magnetization,
    r: RelaxationParams,
    envelope,
    per_sample_dt: float,
    local_bz_moment_per_sample: float,
    ctx: FrameContext,
    sampling_ok: bool = True,
) -> Magnetization:
    """Amplitude/phase-modulated pulse via the hard-pulse decomposition.

    The complex envelope (tesla) is split into len(envelope) sub-pulses
    (:func:`hard_pulse_decomposition`).  Each applies its hard pulse,
    then the local longitudinal rotation ``local_bz_moment_per_sample``
    (rad, covering gradient and off-resonance effects at the spin
    position) plus relaxation for dt.

    ``sampling_ok`` is the verdict of the temporal sampling check
    (see :mod:`mrsim.discretize`); passing False raises
    EnvelopeUndersampled because the selective profile would alias.
    """
    envelope = np.asarray(envelope, dtype=complex)
    if envelope.size and not sampling_ok:
        raise EnvelopeUndersampled(
            "envelope violates the per-sample timing bound; refine the sampling"
        )
    if envelope.size and per_sample_dt <= 0.0:
        raise InvalidParameter(f"per_sample_dt must be positive, got {per_sample_dt}")
    for pulse in hard_pulse_decomposition(envelope, per_sample_dt, ctx.gamma):
        if pulse is not None:
            m = apply_hard_pulse(m, pulse)
        m = apply_gradient_interval(m, r, local_bz_moment_per_sample, per_sample_dt)
    return m


def small_tip_response(
    envelope,
    per_sample_dt: float,
    bz: float,
    m0z: float,
    gamma: float = GAMMA_PROTON,
) -> complex:
    """Linearized transverse response to a shaped pulse (test oracle).

    Valid for small total flip angles, assuming the longitudinal
    magnetization stays at m0z throughout.  Starting with no transverse
    magnetization, the response after the full envelope of duration
    T = len(envelope)*dt in a constant longitudinal field bz is::

        1j * gamma * m0z * exp(-1j*gamma*bz*T)
            * integral_0^T B1(tau) * exp(1j*gamma*bz*tau) dtau

    evaluated by trapezoidal quadrature over the envelope samples.
    This is an independent check on apply_shaped_pulse, not a
    simulation path.
    """
    envelope = np.asarray(envelope, dtype=complex)
    if envelope.size == 0:
        return 0.0 + 0.0j
    t = np.arange(envelope.size) * per_sample_dt
    total = envelope.size * per_sample_dt
    integrand = envelope * np.exp(1j * gamma * bz * t)
    integral = np.trapezoid(integrand, dx=per_sample_dt)
    return 1j * gamma * m0z * np.exp(-1j * gamma * bz * total) * integral
