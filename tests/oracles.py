"""Independent reference implementations used only by tests.

These deliberately avoid the package's analytic operators: the ODE
integrator works on the raw coupled system, the rotation uses the
generic axis-angle form, and so does the sample-by-sample shaped pulse,
which the small-tip response checks in turn; the Legendre value comes
from the three-term recurrence and the loop-coil field from the
midpoint rule over the wire, or from the closed form with K, E and
2F1 taken from ``scipy.special``; the reference exponential fit is
``scipy.optimize.least_squares`` from the seed and with the tolerances
of ``mrsim.recon.cpmg_fit``; the reference kernel is the spin-block event loop on two real
transverse arrays that the fused complex kernel of ``mrsim.engine``
replaced, and the reference prune is the point-by-point
form of ``mrsim.discretize.steady_state_prune``.  The reference walk,
unit and k excursion are the per-element forms of
``mrsim.ktspace.simulate_kt``, ``derive_unit_k`` and
``max_k_excursion``:
every elementary sequence computes its own moments, shift, mixing
coefficients, decay factors and sample relaxation, and the walk applies
them on a ``ConfigurationSet`` of dicts keyed by order, through
``_rf_split``, ``_relax`` and ``_shifted``, one population at a time,
wrapped with their no-op guards in ``rf_split``, ``relax_interval`` and
``gradient_shift``.  The
reference head phantom tests every ellipse of
``mrsim.phantom.shepp_logan_m0`` in table order.  The reference rotation
is the real 3x3 matrix of a hard pulse (``hard_pulse_matrix``, the
axis-angle form written out) applied component by component, the form
that ``mrsim.bloch.apply_pulse`` and its six complex coefficients
replaced; ``coefficient_rotation`` turns those coefficients back into
that matrix for ``reference_kernel``.  The reference snapshot placement
is the per-element comprehension that one ``np.searchsorted`` over the
element ends replaced.
"""

import cmath
import math

import numpy as np
from scipy.optimize import least_squares
from scipy.special import ellipe, ellipk, hyp2f1

from mrsim.bloch import GAMMA_PROTON, hard_pulse_coefficients
from mrsim.errors import IncommensurateMoments
from mrsim.ktspace import (
    DEFAULT_PRUNE,
    ZERO,
    ConfigurationSet,
    KtRun,
    TracePoint,
    _axis_unit,
    _entries,
    _integer_shift,
    _interval_decay,
    _real_b0,
)
from mrsim.phantom import _HEAD_ELLIPSES
from mrsim.recon import _FIT_MAX_NFEV, _FIT_TOL


def bloch_rhs(m, b, t1, t2, m0):
    """Raw coupled system: dM/dt = gamma * (M x B) + relaxation, for protons."""
    gamma = GAMMA_PROTON
    mx, my, mz = m
    bx, by, bz = b
    return np.array(
        [
            gamma * (my * bz - mz * by) - mx / t2,
            gamma * (mz * bx - mx * bz) - my / t2,
            gamma * (mx * by - my * bx) - (mz - m0) / t1,
        ]
    )


def rk4_bloch(m_start, b, t1, t2, m0, dt, steps=None):
    """Classic 4th-order integration with a constant field over dt."""
    m = np.asarray(m_start, dtype=float).copy()
    b = np.asarray(b, dtype=float)
    if steps is None:
        angle = abs(GAMMA_PROTON) * float(np.linalg.norm(b)) * dt
        steps = max(2000, int(80 * angle))
    h = dt / steps
    for _ in range(steps):
        k1 = bloch_rhs(m, b, t1, t2, m0)
        k2 = bloch_rhs(m + 0.5 * h * k1, b, t1, t2, m0)
        k3 = bloch_rhs(m + 0.5 * h * k2, b, t1, t2, m0)
        k4 = bloch_rhs(m + h * k3, b, t1, t2, m0)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


def rk4_bloch_batch(m_start, b, t1, t2, m0, dt, steps):
    """Vectorized variant: every row of the inputs is one case."""
    m = np.asarray(m_start, dtype=float).copy()
    b = np.asarray(b, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    m0 = np.asarray(m0, dtype=float)
    dt = np.asarray(dt, dtype=float)
    h = dt / steps

    def rhs(state):
        cross = np.cross(state, b)
        out = GAMMA_PROTON * cross
        out[:, 0] -= state[:, 0] / t2
        out[:, 1] -= state[:, 1] / t2
        out[:, 2] -= (state[:, 2] - m0) / t1
        return out

    hcol = h[:, None]
    for _ in range(steps):
        k1 = rhs(m)
        k2 = rhs(m + 0.5 * hcol * k1)
        k3 = rhs(m + 0.5 * hcol * k2)
        k4 = rhs(m + hcol * k3)
        m = m + (hcol / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


def rotate_axis_angle(v, axis, angle):
    """Rodrigues rotation of v about the unit axis by angle (right-handed)."""
    v = np.asarray(v, dtype=float)
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    return (
        v * np.cos(angle)
        + np.cross(k, v) * np.sin(angle)
        + k * np.dot(k, v) * (1.0 - np.cos(angle))
    )


def shaped_pulse(m_start, relax, envelope, per_sample_dt, local_bz_moment_per_sample):
    """One spin (mx, my, mz) through a shaped pulse, sample by sample.

    Each nonzero complex envelope sample B1 (tesla) is a hard pulse: a
    turn by gamma*|B1|*dt about the transverse axis (Re B1, Im B1, 0),
    the cut of ``mrsim.bloch.hard_pulse_decomposition``, as an axis-angle
    rotation.  Then mx + 1j*my turns clockwise by
    ``local_bz_moment_per_sample`` (rad) and decays with T2 over dt, and
    Mz relaxes toward m0 with T1.
    """
    m = np.asarray(m_start, dtype=float)
    turn = cmath.exp(-1j * local_bz_moment_per_sample - per_sample_dt / relax.t2)
    e1 = math.exp(-per_sample_dt / relax.t1)
    for b1 in np.asarray(envelope, dtype=complex):
        if b1:
            angle = -GAMMA_PROTON * abs(b1) * per_sample_dt
            m = rotate_axis_angle(m, (b1.real, b1.imag, 0.0), angle)
        mxy = complex(m[0], m[1]) * turn
        m = np.array([mxy.real, mxy.imag, relax.m0 + (m[2] - relax.m0) * e1])
    return m


def small_tip_response(envelope, per_sample_dt, bz, m0z):
    """Linearized transverse response to a shaped pulse.

    Valid for small total flip angles, assuming the longitudinal
    magnetization stays at m0z throughout.  Starting with no transverse
    magnetization, the response after the full envelope of duration
    T = len(envelope)*dt in a constant longitudinal field bz is::

        1j * gamma * m0z * exp(-1j*gamma*bz*T)
            * integral_0^T B1(tau) * exp(1j*gamma*bz*tau) dtau

    evaluated by trapezoidal quadrature over the envelope samples: an
    independent check on :func:`shaped_pulse`.
    """
    envelope = np.asarray(envelope, dtype=complex)
    if envelope.size == 0:
        return 0.0 + 0.0j
    t = np.arange(envelope.size) * per_sample_dt
    total = envelope.size * per_sample_dt
    integrand = envelope * np.exp(1j * GAMMA_PROTON * bz * t)
    integral = np.trapezoid(integrand, dx=per_sample_dt)
    return 1j * GAMMA_PROTON * m0z * np.exp(-1j * GAMMA_PROTON * bz * total) * integral


def loop_field_quadrature(loop, x, segments=256):
    """Field per unit current of a ``mrsim.system.CircularLoop`` at
    positions x of shape (..., 3): the Biot-Savart line integral by the
    midpoint rule over ``segments`` straight pieces of the wire."""
    p = np.asarray(x, dtype=float)
    a = loop.diameter / 2.0
    n = np.asarray(loop.normal, dtype=float)
    n = n / np.linalg.norm(n)
    helper = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(n, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    theta = (np.arange(segments) + 0.5) * (2.0 * math.pi / segments)
    cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
    wire = np.asarray(loop.center) + a * (cos * e1 + sin * e2)
    dl = a * (2.0 * math.pi / segments) * (cos * e2 - sin * e1)
    total = np.zeros(p.shape)
    for q, d in zip(wire, dl):
        r = p - q
        total += np.cross(d, r) / np.linalg.norm(r, axis=-1)[..., None] ** 3
    return 1e-7 * total  # mu_0 / (4 pi)


def loop_field_scipy(loop, x):
    """Field per unit current of a ``mrsim.system.CircularLoop`` at
    positions x of shape (..., 3), and the elliptic parameter m of each:
    the closed form of the class, in the same arithmetic but with K, E
    and 2F1(1/2, 3/2; 3; m) from ``scipy.special``."""
    p = np.asarray(x, dtype=float)
    a = loop.diameter / 2.0
    n = np.asarray(loop.normal, dtype=float)
    n = n / np.linalg.norm(n)
    d = p - np.asarray(loop.center, dtype=float)
    z = np.einsum("...k,k->...", d, n)
    radial = d - z[..., None] * n
    rho = np.sqrt(np.einsum("...k,...k->...", radial, radial))
    alpha2 = (a - rho) ** 2 + z**2
    beta2 = (a + rho) ** 2 + z**2
    m = 4.0 * a * rho / beta2
    beta = np.sqrt(beta2)
    mu_0 = 4.0e-7 * math.pi
    b_axial = (
        mu_0
        / (2.0 * math.pi * alpha2 * beta)
        * ((a * a - rho * rho - z * z) * ellipe(m) + alpha2 * ellipk(m))
    )
    b_rho_per_rho = 0.75 * mu_0 * a * a * z * hyp2f1(0.5, 1.5, 3.0, m) / (alpha2 * beta2 * beta)
    return b_axial[..., None] * n + b_rho_per_rho[..., None] * radial, m


def reference_cpmg_fit(t, y):
    """(rho, T2) of the least-squares fit of rho * exp(-t/T2) to y by
    MINPACK's Levenberg-Marquardt, from the log-linear seed of
    ``mrsim.recon.cpmg_fit`` and with its tolerances and budget."""
    slope, intercept = np.polyfit(t[y > 0], np.log(y[y > 0]), 1)
    result = least_squares(
        lambda x: x[0] * np.exp(-t / x[1]) - y,
        np.array([math.exp(intercept), -1.0 / slope]),
        method="lm",
        xtol=_FIT_TOL,
        ftol=_FIT_TOL,
        gtol=_FIT_TOL,
        max_nfev=_FIT_MAX_NFEV,
    )
    assert result.success
    return tuple(result.x)


def legendre_recurrence(order, x):
    """P_n(x) via the three-term recurrence."""
    p_prev, p = 1.0, x
    if order == 0:
        return 1.0
    for n in range(1, order):
        p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
    return p


def hard_pulse_matrix(alpha, phi):
    """3x3 rotation matrix of a hard pulse acting on (mx, my, mz).

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


def coefficient_rotation(mix):
    """The real 3x3 matrix on (mx, my, mz) of the pulse coefficients
    ``mix = (A, B, C, t20, t21, t22)`` of ``hard_pulse_coefficients``.

    With mxy = x + iy, the coefficients give mxy' = A*mxy + B*conj(mxy)
    + C*mz and mz' = Re(t20*mxy + t21*conj(mxy) + t22*mz).  Splitting
    each product into real and imaginary parts::

        x' = (Ar + Br) x + (Bi - Ai) y + Cr z
        y' = (Ai + Bi) x + (Ar - Br) y + Ci z
        z' = (t20r + t21r) x + (t21i - t20i) y + t22r z

    The imaginary part of t22 is zero and is dropped, as Mz is real.
    """
    a, b, c, t20, t21, t22 = (complex(m) for m in mix)
    return np.array(
        [
            [a.real + b.real, b.imag - a.imag, c.real],
            [a.imag + b.imag, a.real - b.real, c.imag],
            [t20.real + t21.real, t21.imag - t20.imag, t22.real],
        ]
    )


def reference_rotation(r, mxy, mz):
    """(mxy, mz) turned by the 3x3 matrix r, written out as the fifteen
    scalar-times-array operations of each component."""
    mx, my = np.real(mxy), np.imag(mxy)
    out = np.empty_like(mxy, dtype=complex)
    out.real = r[0, 0] * mx + r[0, 1] * my + r[0, 2] * mz
    out.imag = r[1, 0] * mx + r[1, 1] * my + r[1, 2] * mz
    return out, r[2, 0] * mx + r[2, 1] * my + r[2, 2] * mz


def reference_kernel(tables, block, dtype=float):
    """Evolve a spin block from thermal equilibrium event by event on
    real (mx, my, mz) arrays of ``dtype``; ``np.longdouble`` rounds the
    evolution of the tables' float steps less than the kernel does.

    Every event rotates the transverse plane by ``pos . dmom + domega*dt``
    and relaxes all three components over ``dt``; pulses apply the 3x3
    matrix of their coefficients (``coefficient_rotation``).  Events ``i < n_samples`` record the samples.  A snapshot
    turns and relaxes the element-start state over its time from the
    element start, with its own cos/sin and exp.  Same inputs and outputs
    as ``mrsim.engine.compute_block``.
    """
    pos, domega, m0, t1, t2 = (
        np.asarray(a, dtype=dtype) for a in (block.pos, block.domega, block.m0, block.t1, block.t2)
    )
    w = block.weight.astype(np.result_type(dtype, np.complex64))
    mx, my, mz = np.zeros_like(m0), np.zeros_like(m0), m0.copy()
    inv_t1, inv_t2 = 1.0 / t1, 1.0 / t2
    n_samples = max((e.n_samples for e in tables.entries), default=0)
    echoes = np.zeros((len(tables.acq_times), n_samples), dtype=w.dtype)
    snapshots = {}
    acq = 0
    for k, entry in enumerate(tables.entries):
        if entry.pulse_mat is not None:
            r = coefficient_rotation(entry.pulse_mat)
            mx, my, mz = (
                r[0, 0] * mx + r[0, 1] * my + r[0, 2] * mz,
                r[1, 0] * mx + r[1, 1] * my + r[1, 2] * mz,
                r[2, 0] * mx + r[2, 1] * my + r[2, 2] * mz,
            )
        for t, moment, snap in tables.snaps.get(k, ()):
            theta = pos @ moment + domega * t
            c, s = np.cos(theta), np.sin(theta)
            e1, e2 = np.exp(-t * inv_t1), np.exp(-t * inv_t2)
            snapshots[snap] = np.column_stack(
                [(c * mx + s * my) * e2, (-s * mx + c * my) * e2, mz * e1 + m0 * (1.0 - e1)]
            )
        for i in range(entry.ev_dt.size):
            dt = entry.ev_dt[i]
            dmom = entry.ev_dmom[i]
            if dt != 0.0 or dmom.any():
                theta = pos @ dmom + domega * dt
                c, s = np.cos(theta), np.sin(theta)
                mx, my = c * mx + s * my, -s * mx + c * my
                if dt != 0.0:
                    e1 = np.exp(-dt * inv_t1)
                    e2 = np.exp(-dt * inv_t2)
                    mx = mx * e2
                    my = my * e2
                    mz = mz * e1 + m0 * (1.0 - e1)
            if i < entry.n_samples:
                echoes[acq, i] = np.dot(w, mx) + 1j * np.dot(w, my)
        acq += entry.n_samples > 0
    snapshots = [snapshots[i].astype(float) for i in range(len(tables.snapshot_times))]
    return echoes.astype(complex), snapshots


def reference_snapshots(sequence, snapshot_times):
    """The snapshots of each element by the per-element rule that one
    search over the element ends in ``mrsim.engine`` replaced: with t0
    and t1 the running sums of the durations at an element's start and
    end, a time t is in it when t0 < t <= t1, or when t is 0 and it is
    the first element.  Returns, by index of an element holding one, its
    (time from the element start, partial moment, snapshot index) in
    snapshot order, as ``OperatorTables.snaps``."""
    snaps = {}
    t0 = 0.0
    for i, es in enumerate(sequence.elements):
        t1 = t0 + es.duration
        held = [
            (float(t - t0), si)
            for si, t in enumerate(snapshot_times)
            if t0 < t <= t1 or (t == 0.0 and i == 0)
        ]
        if held:
            moments = es.gradient.partial_moments([t for t, _ in held])
            snaps[i] = tuple((t, m, si) for (t, si), m in zip(held, moments))
        t0 = t1
    return snaps


def reference_prune(trace, grayscale_levels=256):
    """Steady-state pruned K per axis, one trace point and axis at a time.

    At every point the transversal configurations are sorted by |k|
    (largest first); K is the |k| at which their summed magnitudes first
    exceed half a gray level of the strongest one.
    """
    bound_ratio = 0.5 / grayscale_levels
    reduced = [0.0, 0.0, 0.0]
    for point in trace:
        trans = [e for e in point.entries if e.kind == "transversal"]
        if not trans:
            continue
        ref = max(abs(e.population) for e in trans)
        if ref == 0.0:
            continue
        for ax in range(3):
            acc = 0.0
            for e in sorted(trans, key=lambda e: abs(e.k_position[ax]), reverse=True):
                acc += abs(e.population)
                if acc > bound_ratio * ref:
                    reduced[ax] = max(reduced[ax], abs(e.k_position[ax]))
                    break
    return tuple(reduced)


def reference_unit(sequence):
    """Per-axis unit from the moments of every element, repeats included."""
    per_axis = [[], [], []]
    for es in sequence.elements:
        m = es.gradient.moments(es.duration)
        for ax in range(3):
            per_axis[ax].append(float(m[ax]))
    return tuple(_axis_unit(per_axis[ax]) for ax in range(3))


def reference_fallback_unit(sequence):
    per_axis = [None, None, None]
    for es in sequence.elements:
        m = es.gradient.moments(es.duration)
        for ax in range(3):
            v = abs(float(m[ax]))
            if v > 0.0 and (per_axis[ax] is None or v < per_axis[ax]):
                per_axis[ax] = v
    return tuple(None if v is None else v / 1024 for v in per_axis)


def _reference_k_positions(unit, orders, fracs):
    scale = np.array([u if u else 0.0 for u in unit])
    return np.array(orders, dtype=float).reshape(-1, 3) * scale + fracs[:, None, :]


def _reference_readout(state, relax, ts):
    """Populations at every sample instant, one running product of the
    decay factors and the complex order-0 regrowth recurrence."""
    dts = np.empty_like(ts)
    dts[0], dts[1:] = ts[0], ts[1:] - ts[:-1]
    moved = dts != 0.0
    live = dts[moved].tolist()
    e1s = [math.exp(-dt / relax.t1) for dt in live]
    (orders, pops), (longi, lpops) = _row(state.trans), _row(state.longi)
    m = len(orders)
    scan = np.empty((len(live) + 1, m + len(longi)), dtype=complex)
    scan[0, :m], scan[0, m:] = pops[0], lpops[0]
    scan[1:, :m] = np.array([math.exp(-dt / relax.t2) for dt in live])[:, None]
    scan[1:, m:] = np.array(e1s)[:, None]
    np.multiply.accumulate(scan, axis=0, out=scan)
    b0s, b0 = [], state.longi[(0, 0, 0)]
    for e1 in e1s:
        b0 = _real_b0(b0 * e1 + relax.m0 * (1.0 - e1))
        b0s.append(b0)
    scan[1:, m + longi.index((0, 0, 0))] = b0s
    row = moved.cumsum()
    return orders, scan[row, :m], longi, scan[row, m:]


def _row(pops):
    """Sorted orders and their populations as one row (1, m)."""
    orders = sorted(pops)
    return orders, np.fromiter([pops[o] for o in orders], complex, len(orders)).reshape(1, -1)


def _neg(order):
    return (-order[0], -order[1], -order[2])


def _rf_split(state, mix, cut):
    """Weighted population exchange within every |order| group, then
    the prune: populations below ``cut`` go, except the order-0 Mz; a
    cut of 0 keeps everything nonzero."""
    t00, t01, t02, t20, t21, t22 = mix
    orders = set(state.trans) | set(state.longi)
    orders |= {_neg(o) for o in orders}
    new_trans, new_longi = {}, {}
    for o in orders:
        a = state.trans.get(o, 0j)
        a_conj_neg = state.trans.get(_neg(o), 0j).conjugate()
        b = state.longi.get(o, 0j)
        na = t00 * a + t01 * a_conj_neg + t02 * b
        nb = t20 * a + t21 * a_conj_neg + t22 * b
        if na != 0j:
            new_trans[o] = new_trans.get(o, 0j) + na
        if nb != 0j or o == ZERO:
            new_longi[o] = new_longi.get(o, 0j) + nb
    if ZERO in new_longi:
        new_longi[ZERO] = _real_b0(new_longi[ZERO])
    if cut > 0.0:
        new_trans = {o: p for o, p in new_trans.items() if abs(p) >= cut}
        new_longi = {o: p for o, p in new_longi.items() if abs(p) >= cut or o == ZERO}
    return ConfigurationSet(state.unit, new_trans, new_longi)


def _relax(state, decay):
    """T2 decay of transversal, T1 decay of longitudinal populations;
    the order-0 longitudinal population additionally regrows toward m0."""
    e2, e1, regrowth = decay
    new_trans = {o: p * e2 for o, p in state.trans.items()}
    new_longi = {o: p * e1 for o, p in state.longi.items()}
    new_longi[ZERO] = _real_b0(new_longi.get(ZERO, 0j) + regrowth)
    return ConfigurationSet(state.unit, new_trans, new_longi)


def _shifted(trans, q):
    """Every transversal order shifted by the integer triple q.  The
    shift is one-to-one, so no two populations land on one order; each
    lands on an empty slot as ``0j + p``."""
    new_trans = {}
    for o, p in trans.items():
        key = (o[0] + q[0], o[1] + q[1], o[2] + q[2])
        new_trans[key] = new_trans.get(key, 0j) + p
    return new_trans


def rf_split(state, pulse, cut=DEFAULT_PRUNE):
    """The walk's pulse split and prune at ``cut``; no pulse leaves the
    state as it is."""
    if pulse is None:
        return state
    return _rf_split(state, hard_pulse_coefficients(pulse.alpha, pulse.phi), cut)


def relax_interval(state, relax, dt):
    """The walk's relaxation over dt; dt == 0 leaves the state as it is."""
    return state if dt == 0.0 else _relax(state, _interval_decay(relax, dt))


def gradient_shift(state, q):
    """The walk's shift of every transversal order by q; q == ZERO leaves
    the state as it is."""
    return state if q == ZERO else ConfigurationSet(state.unit, _shifted(state.trans, q), state.longi)


def reference_walk(
    sequence,
    relax,
    object_spectrum=None,
    prune_threshold=DEFAULT_PRUNE,
    record_trace=True,
    observe=None,
):
    """Configuration tracking element by element: same inputs and outputs
    as ``mrsim.ktspace.simulate_kt``."""
    shift_tol = 1e-6
    try:
        unit = reference_unit(sequence)
    except IncommensurateMoments:
        unit = reference_fallback_unit(sequence)
        shift_tol = math.inf
    state = ConfigurationSet.equilibrium(relax.m0, unit)
    cut = prune_threshold * (relax.m0 if relax.m0 > 0 else 1.0)
    trace, echoes = [], []
    now = 0.0

    def emit(at, fracs, orders, pops, longi, lpops):
        k = _reference_k_positions(unit, orders, fracs)
        if observe is not None and orders:
            observe(k, pops)
        if record_trace:
            rows = zip(
                at,
                _entries("transversal", orders, pops, k),
                _entries("longitudinal", longi, lpops, _reference_k_positions(unit, longi, fracs)),
            )
            trace.extend(TracePoint(t, a + b) for t, a, b in rows)
        return k

    def record(t):
        if record_trace or (observe is not None and state.trans):
            emit([t], np.zeros((1, 3)), *_row(state.trans), *_row(state.longi))

    record(now)
    for es in sequence.elements:
        if es.pulse is not None:
            state = rf_split(state, es.pulse, cut)
            record(now)
        moments = es.gradient.moments(es.duration)
        q = _integer_shift(moments, unit, tol=shift_tol)
        rest = es.duration
        if es.acquisition.enabled:
            ts = es.acquisition.sample_times(es.duration)
            partial = es.gradient.partial_moments(ts)
            orders, pops, longi, lpops = _reference_readout(state, relax, ts)
            k = emit((now + ts).tolist(), partial, orders, pops, longi, lpops)
            if object_spectrum is not None:
                echoes.append((pops * object_spectrum(k)).sum(-1))
            state.trans = dict(zip(orders, pops[-1].tolist()))
            state.longi = dict(zip(longi, lpops[-1].tolist()))
            rest = es.duration - ts[-1]
        state = relax_interval(state, relax, rest)
        state = gradient_shift(state, q)
        now += es.duration
        record(now)
    final = ConfigurationSet(unit, dict(sorted(state.trans.items())), dict(sorted(state.longi.items())))
    return KtRun(echoes=echoes, trace=trace, final=final)


def reference_k_excursion(sequence):
    """Per-axis maximum |k|, visiting every partial-moment row of every
    element: same inputs and outputs as ``mrsim.ktspace.max_k_excursion``."""
    kmax = [0.0, 0.0, 0.0]
    t_lo, t_hi, z_lo, z_hi = np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3)
    has_trans = False

    def visit(lo, hi, frac=None):
        for ax in range(3):
            a, b = lo[ax], hi[ax]
            if frac is not None:
                a, b = a + frac[ax], b + frac[ax]
            kmax[ax] = max(kmax[ax], abs(a), abs(b))

    for es in sequence.elements:
        if es.pulse is not None and es.pulse.alpha != 0.0:
            m = np.maximum.reduce(
                [np.abs(t_lo), np.abs(t_hi), np.abs(z_lo), np.abs(z_hi)]
                if has_trans
                else [np.abs(z_lo), np.abs(z_hi)]
            )
            t_lo, t_hi = -m, m.copy()
            z_lo, z_hi = -m, m.copy()
            has_trans = True
        moments = np.asarray(es.gradient.moments(es.duration), dtype=float)
        if has_trans and es.duration > 0.0 and not es.gradient.is_zero:
            if es.gradient.shape == "sampled":
                ts = np.linspace(0.0, es.duration, max(len(es.gradient.samples), 2))
            else:
                ts = np.array([0.0, es.duration])
            for row in es.gradient.partial_moments(ts):
                visit(t_lo, t_hi, row)
        elif has_trans:
            visit(t_lo, t_hi)
        visit(z_lo, z_hi)
        if has_trans:
            t_lo = t_lo + moments
            t_hi = t_hi + moments
            visit(t_lo, t_hi)
    return tuple(kmax)


def reference_shepp_logan_m0(x, y, scale=1.0):
    """Head-phantom m0 with every ellipse tested in table order, the last
    one that contains the point winning: same inputs and outputs as
    ``mrsim.phantom.shepp_logan_m0``."""
    value = 0.0
    for e in _HEAD_ELLIPSES:
        phi = math.radians(e.phi_deg)
        dx, dy = x / scale - e.x0, y / scale - e.y0
        u = (dx * math.cos(phi) + dy * math.sin(phi)) / e.a
        v = (-dx * math.sin(phi) + dy * math.cos(phi)) / e.b
        if u * u + v * v <= 1.0:
            value = e.m0
    return value
