"""Independent reference implementations used only by tests.

These deliberately avoid the package's analytic operators: the ODE
integrator works on the raw coupled system, the rotation uses the
generic axis-angle form, and the Legendre value comes from the
three-term recurrence; the reference kernel is the spin-block event
loop on two real transverse arrays that the fused complex kernel of
``mrsim.engine`` replaced, and the reference prune is the point-by-point
form of ``mrsim.discretize.steady_state_prune``.
"""

import numpy as np


def bloch_rhs(m, b, gamma, t1, t2, m0):
    """Raw coupled system: dM/dt = gamma * (M x B) + relaxation."""
    mx, my, mz = m
    bx, by, bz = b
    return np.array(
        [
            gamma * (my * bz - mz * by) - mx / t2,
            gamma * (mz * bx - mx * bz) - my / t2,
            gamma * (mx * by - my * bx) - (mz - m0) / t1,
        ]
    )


def rk4_bloch(m_start, b, gamma, t1, t2, m0, dt, steps=None):
    """Classic 4th-order integration with a constant field over dt."""
    m = np.asarray(m_start, dtype=float).copy()
    b = np.asarray(b, dtype=float)
    if steps is None:
        angle = abs(gamma) * float(np.linalg.norm(b)) * dt
        steps = max(2000, int(80 * angle))
    h = dt / steps
    for _ in range(steps):
        k1 = bloch_rhs(m, b, gamma, t1, t2, m0)
        k2 = bloch_rhs(m + 0.5 * h * k1, b, gamma, t1, t2, m0)
        k3 = bloch_rhs(m + 0.5 * h * k2, b, gamma, t1, t2, m0)
        k4 = bloch_rhs(m + h * k3, b, gamma, t1, t2, m0)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


def rk4_bloch_batch(m_start, b, gamma, t1, t2, m0, dt, steps):
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
        out = gamma * cross
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


def legendre_recurrence(order, x):
    """P_n(x) via the three-term recurrence."""
    p_prev, p = 1.0, x
    if order == 0:
        return 1.0
    for n in range(1, order):
        p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
    return p


def reference_kernel(tables, block):
    """Evolve a spin block event by event on real (mx, my, mz) arrays.

    Every event rotates the transverse plane by ``pos . dmom + domega*dt``
    and relaxes all three components over ``dt``; pulses apply their
    3x3 matrix.  Same inputs and outputs as ``mrsim.engine.compute_block``.
    """
    mx, my, mz = block.mx.copy(), block.my.copy(), block.mz.copy()
    pos, domega, w, m0 = block.pos, block.domega, block.weight, block.m0
    inv_t1, inv_t2 = 1.0 / block.t1, 1.0 / block.t2
    n_samples = max((e.n_samples for e in tables.entries), default=0)
    echoes = np.zeros((tables.n_acq, n_samples), dtype=complex)
    snapshots = {}
    for entry in tables.entries:
        if entry.pulse_mat is not None:
            r = entry.pulse_mat
            mx, my, mz = (
                r[0, 0] * mx + r[0, 1] * my + r[0, 2] * mz,
                r[1, 0] * mx + r[1, 1] * my + r[1, 2] * mz,
                r[2, 0] * mx + r[2, 1] * my + r[2, 2] * mz,
            )
        sample_idx = 0
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
            if entry.ev_sample[i]:
                echoes[entry.acq, sample_idx] = np.dot(w, mx) + 1j * np.dot(w, my)
                sample_idx += 1
            snap = entry.ev_snap[i]
            if snap >= 0:
                snapshots[snap] = np.column_stack([mx, my, mz])
    return echoes, [snapshots.get(i) for i in range(len(tables.snapshot_times))]


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
