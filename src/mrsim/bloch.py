"""Analytic magnetization operators in the rotating frame.

The operators are exact for piecewise-constant fields, so arbitrarily
long intervals cost one evaluation.  Each piece of rotation and
relaxation math exists once, as an array operator on the complex
transverse state ``mxy = mx + 1j*my`` and Mz of many spins
(:func:`apply_pulse` with :func:`hard_pulse_coefficients`,
:func:`precession_factor`, :func:`regrow_mz` with :func:`t1_factors`);
the spin-block kernel of :mod:`mrsim.engine` runs on them.  They take
Python scalars as well, so one spin needs no API of its own.  The k-t
walk of :mod:`mrsim.ktspace` applies the same pulse coefficients to each
configuration order.  A shaped pulse is a train of hard pulses
(:func:`hard_pulse_decomposition`).

mrsim simulates protons: every gradient moment, pulse flip and
field deviation uses the one gyromagnetic ratio :data:`GAMMA_PROTON`.
Everything lives in the frame rotating about +z at gamma * B0, the
nominal Larmor frequency, so the carrier itself is never synthesized
and a spin precesses only at the off-resonance of
:func:`mrsim.system.spin_off_resonance`: gamma times the static-field
deviation plus the object's own ``delta_omega``.

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

from .errors import InvalidParameter

# Gyromagnetic ratio of the proton, rad/(s*T).
GAMMA_PROTON = 2.0 * math.pi * 42.6e6


@dataclass(frozen=True)
class RelaxationParams:
    """Relaxation constants of one tissue.

    t1, t2 in seconds (may be ``math.inf`` to disable relaxation),
    m0 (finite, non-negative) is the equilibrium magnetization the
    longitudinal part recovers to.
    t2 > t1 is unphysical but permitted; it only triggers a warning.
    """

    t1: float
    t2: float
    m0: float

    def __post_init__(self):
        if not (self.t1 > 0.0 and self.t2 > 0.0):
            raise InvalidParameter(f"relaxation times must be positive, got t1={self.t1}, t2={self.t2}")
        if not (self.m0 >= 0.0 and math.isfinite(self.m0)):
            raise InvalidParameter(f"m0 must be non-negative and finite, got {self.m0}")
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

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.phi)):
            raise InvalidParameter(
                f"pulse flip and phase must be finite, got alpha={self.alpha}, phi={self.phi}"
            )


def hard_pulse_coefficients(alpha: float, phi: float):
    """The rows for a_o and b_o of the complex matrix of a hard pulse
    acting on (a_o, conj(a_-o), b_o), EPG's T matrix (Weigel, JMRI
    41:266, 2015), as six scalars: the one form of a pulse in mrsim."""
    ca2 = math.cos(alpha / 2.0) ** 2
    sa2 = math.sin(alpha / 2.0) ** 2
    sa = math.sin(alpha)
    ephi = cmath.exp(1j * phi)
    row_a = [ca2, sa2 * ephi * ephi, 1j * sa * ephi]
    row_b = [0.5j * sa / ephi, -0.5j * sa * ephi, math.cos(alpha)]
    # Python complex, whose type the split's populations inherit: the
    # walk's per-population arithmetic is faster on them than on numpy
    # scalars, and gives the same bits
    return tuple(complex(c) for c in row_a + row_b)


# ---------------------------------------------------------------------------
# array operators (one element per spin; mxy = mx + 1j*my)
# ---------------------------------------------------------------------------


def apply_pulse(mix, mxy, mz):
    """(mxy, mz) after the pulse of :func:`hard_pulse_coefficients`
    ``mix = (A, B, C, t20, t21, E)``.  A spin is the order-0 case, so
    mxy' = A*mxy + B*conj(mxy) + C*mz and, as Mz is real, mz' =
    Re(D*mxy) + E*mz with D = t20 + conj(t21).  Coefficient arrays
    broadcast with the spins, so mix may hold one pulse per spin.
    Scalars come back as scalars.
    """
    a, b, c, t20, t21, e = mix
    out = np.conjugate(mxy)
    out *= b
    out += np.multiply(a, mxy)
    out += np.multiply(c, mz)
    new_mz = np.multiply(e.real, mz)
    new_mz += np.multiply(t20 + t21.conjugate(), mxy).real
    return out[()], new_mz[()]


def precession_factor(phase, dt, inv_t2, out=None):
    """Factor ``exp(-dt/T2 - 1j*phase)`` that turns mxy clockwise by
    ``phase`` and decays it with T2 over ``dt``; the arguments broadcast.

    ``out``, a complex array of the broadcast shape, receives the factor;
    ``phase`` may be ``out.imag``, so a large factor needs no temporary.
    """
    if out is None:
        out = np.empty(np.broadcast(phase, dt, inv_t2).shape, dtype=complex)
    np.negative(phase, out=out.imag)
    np.multiply(np.negative(dt), inv_t2, out=out.real)
    return np.exp(out, out=out)[()]


def t1_factors(m0, inv_t1, dt):
    """The two factors of T1 regrowth over dt: ``e1 = exp(-dt/T1)`` and
    the recovered ``m0 * (1 - e1)``, so that Mz becomes ``mz * e1 +
    recovered``.  A caller that regrows over the same interval again can
    keep them."""
    e1 = np.exp(-dt * inv_t1)
    return e1, m0 * (1.0 - e1)


def regrow_mz(mz, m0, inv_t1, dt):
    """Longitudinal magnetization after relaxing toward m0 with T1 for dt."""
    e1, recovered = t1_factors(m0, inv_t1, dt)
    return mz * e1 + recovered


def hard_pulse_decomposition(envelope, per_sample_dt: float) -> list:
    """One hard pulse per sample of a complex envelope (tesla).

    Sample i becomes ``HardPulse(gamma*|B1_i|*dt, arg(B1_i))``, or None
    where B1_i is zero.
    """
    return [
        HardPulse(float(GAMMA_PROTON * abs(b1) * per_sample_dt), cmath.phase(b1)) if b1 else None
        for b1 in np.asarray(envelope, dtype=complex)
    ]
