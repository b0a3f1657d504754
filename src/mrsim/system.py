"""Imaging-system model: static field, inhomogeneity maps, receive coil.

Off-resonance sign convention (shared with :mod:`mrsim.bloch`): positive
delta-omega means faster clockwise precession in the rotating frame.
Susceptibility field maps are input data (sampled grids produced by
other tools), never computed here.  The ``[static_field]`` and
``[receive]`` blocks of a system description file, read by
:mod:`mrsim.grammar`, become these models here.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial import legendre as npleg

from .bloch import GAMMA_PROTON
from .errors import InvalidParameter, OutOfGrid, ParseError
from .grammar import model_reader, numbers, read_blocks

MU_0 = 4.0e-7 * math.pi
_EPS = float(np.finfo(float).eps)
# the elliptic parameter below which _loop_hyp2f1 sums its power series
_SERIES_BELOW = 0.5

_P12_COEFFS = np.zeros(13)
_P12_COEFFS[12] = 1.0


def legendre_p12(x) -> np.ndarray:
    """Legendre polynomial of order 12."""
    return npleg.legval(np.asarray(x, dtype=float), _P12_COEFFS)


def _positions(x) -> np.ndarray:
    """Positions as a float array of shape (..., 3)."""
    p = np.asarray(x, dtype=float)
    if p.shape[-1:] != (3,):
        raise InvalidParameter(f"positions need a last axis of length 3, got shape {p.shape}")
    return p


@dataclass(frozen=True)
class ScalarGrid:
    """Regular scalar grid with trilinear interpolation, values x-fastest."""

    shape: tuple  # (nx, ny, nz)
    origin: tuple  # (x0, y0, z0)
    step: tuple  # (dx, dy, dz)
    values: np.ndarray  # shape (nz, ny, nx)

    def __call__(self, x):
        """Interpolated value at positions of shape (..., 3); a single
        position gives a float.  Raises OutOfGrid if any position lies
        outside the grid."""
        p = _positions(x)
        lower, frac = [], []
        for axis, n in enumerate(self.shape):
            if n == 1:
                f = np.zeros(p.shape[:-1])
            else:
                f = (p[..., axis] - self.origin[axis]) / self.step[axis]
            outside = (f < -1e-9) | (f > n - 1 + 1e-9)
            if np.any(outside):
                bad = p[tuple(np.argwhere(outside)[0])]
                raise OutOfGrid(
                    f"position {tuple(bad.tolist())} outside grid coverage on axis {'xyz'[axis]}"
                )
            f = np.clip(f, 0.0, n - 1)
            lower.append(f.astype(int))
            frac.append(f - lower[-1])
        out = 0.0
        for dz, dy, dx in itertools.product((0, 1), repeat=3):
            corner = (dx, dy, dz)
            ix, iy, iz = (np.minimum(i + d, n - 1) for i, d, n in zip(lower, corner, self.shape))
            wx, wy, wz = (f if d else 1.0 - f for f, d in zip(frac, corner))
            out = out + wx * wy * wz * self.values[iz, iy, ix]
        return out[()]


@dataclass(frozen=True)
class VectorGrid:
    """Regular 3-vector grid; components interpolated independently."""

    components: tuple  # three ScalarGrid

    def __call__(self, x) -> np.ndarray:
        """Vectors of shape (..., 3) at positions of shape (..., 3)."""
        return np.stack([g(x) for g in self.components], axis=-1)


@dataclass(frozen=True)
class Legendre12Inhomogeneity:
    """Spherical-harmonic style deviation of the static field magnitude.

    delta_B0(x) = -C * (r/R)^12 * P12(cos(theta)) with r = |x| and theta
    the declination from the z axis; C >= 0 in tesla, R > 0 in meters.
    """

    c: float
    r: float

    def __post_init__(self):
        if not (0.0 <= self.c < math.inf and 0.0 < self.r < math.inf):
            raise InvalidParameter(f"need finite C >= 0 and R > 0, got C={self.c}, R={self.r}")

    def __call__(self, x):
        """delta_B0 (tesla) at positions of shape (..., 3); a single
        position gives a float."""
        p = _positions(x)
        rad = np.sqrt(p[..., 0] ** 2 + p[..., 1] ** 2 + p[..., 2] ** 2)
        origin = rad == 0.0
        cos_theta = p[..., 2] / np.where(origin, 1.0, rad)
        value = -self.c * (rad / self.r) ** 12 * legendre_p12(cos_theta)
        return np.where(origin, 0.0, value)[()]


def _b0(value) -> float:
    """A nominal flux density, which must be positive and finite."""
    b0 = float(value)
    if not 0.0 < b0 < math.inf:
        raise InvalidParameter(f"b0 must be positive and finite, got {b0}")
    return b0


@dataclass(frozen=True)
class StaticField:
    """Nominal flux density plus an optional inhomogeneity model.

    ``b0`` is informational: both engines work in the rotating frame,
    where only the deviation ``delta_b0`` moves a spin."""

    b0: float
    inhomogeneity: Optional[object] = None  # None | Legendre12Inhomogeneity | ScalarGrid

    def __post_init__(self):
        _b0(self.b0)

    def delta_b0(self, x):
        """Static-field deviation (tesla) at positions of shape (..., 3)."""
        if self.inhomogeneity is None:
            return np.zeros(np.shape(x)[:-1])[()]
        return self.inhomogeneity(x)


def spin_off_resonance(field: StaticField, x, object_delta_omega):
    """Rotating-frame precession rate (rad/s) of spins at positions x of
    shape (..., 3).

    The frame rotates at gamma*B0 (:mod:`mrsim.bloch`), so the rate is
    the static-field deviation gamma*delta_B0(x) plus the object's own
    chemical-shift / susceptibility offset; nothing else detunes a spin.
    """
    return GAMMA_PROTON * field.delta_b0(x) + object_delta_omega


# ---------------------------------------------------------------------------
# receive sensitivity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformSensitivity:
    """Homogeneous, purely transverse sensitivity (S, 0, 0)."""

    s: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise InvalidParameter(f"sensitivity must be finite, got S={self.s}")

    def __call__(self, x) -> np.ndarray:
        """Sensitivity vectors of shape (..., 3) at positions of shape (..., 3)."""
        out = np.zeros(_positions(x).shape)
        out[..., 0] = self.s
        return out


@dataclass(frozen=True)
class CircularLoop:
    """Sensitivity of a circular receive loop via the field it would
    produce per unit current (reciprocity).

    The field is the closed form in the complete elliptic integrals K
    and E (Smythe, *Static and Dynamic Electricity*; Simpson et al.,
    NASA/TM-2001-210946), exact everywhere off the wire.  K and E come
    from the arithmetic-geometric mean (Abramowitz & Stegun 17.6;
    Carlson, *Numer. Algorithms* 10:13, 1995).
    """

    center: tuple
    normal: tuple
    diameter: float

    def __post_init__(self):
        if not 0.0 < self.diameter < math.inf:
            raise InvalidParameter(f"diameter must be positive and finite, got {self.diameter}")
        if np.shape(self.center) != (3,) or np.shape(self.normal) != (3,):
            raise InvalidParameter(
                f"center and normal must be 3-vectors, got {self.center} and {self.normal}"
            )
        if not np.isfinite(np.concatenate([self.center, self.normal])).all():
            raise InvalidParameter(
                f"center and normal must be finite, got {self.center} and {self.normal}"
            )
        n = np.asarray(self.normal, dtype=float)
        if not np.linalg.norm(n) > 0.0:
            raise InvalidParameter("normal must be a nonzero vector")

    def __call__(self, x) -> np.ndarray:
        """Sensitivity vectors of shape (..., 3) at positions of shape (..., 3)."""
        p = _positions(x)
        a = self.diameter / 2.0
        n = np.asarray(self.normal, dtype=float)
        n = n / np.linalg.norm(n)
        d = p - np.asarray(self.center, dtype=float)
        z = np.einsum("...k,k->...", d, n)  # along the axis
        radial = d - z[..., None] * n
        rho = np.sqrt(np.einsum("...k,...k->...", radial, radial))
        alpha2 = (a - rho) ** 2 + z**2  # squared distance to the nearest wire point
        beta2 = (a + rho) ** 2 + z**2
        if np.any(alpha2 < 1e-24):
            raise InvalidParameter("sensitivity evaluated on the loop wire")
        m = 4.0 * a * rho / beta2  # elliptic parameter k**2
        beta = np.sqrt(beta2)
        k, e = _ellipke(m)
        b_axial = (
            MU_0 / (2.0 * math.pi * alpha2 * beta) * ((a * a - rho * rho - z * z) * e + alpha2 * k)
        )
        # the radial part in K and E, (1 - m/2) E - (1 - m) K, cancels to
        # 3 pi m^2 / 32 near the axis; its hypergeometric form
        # (3 pi m^2 / 32) 2F1(1/2, 3/2; 3; m) keeps every digit there and
        # gives B_rho / rho, so points on the axis need no special case
        b_rho_per_rho = 0.75 * MU_0 * a * a * z * _loop_hyp2f1(m, k, e) / (alpha2 * beta2 * beta)
        return b_axial[..., None] * n + b_rho_per_rho[..., None] * radial


def _ellipke(m):
    """Complete elliptic integrals K(m) and E(m) of parameter 0 <= m < 1.

    By the arithmetic-geometric mean (Abramowitz & Stegun 17.6.3-4):
    a_0 = 1, b_0 = sqrt(1 - m), c_0 = sqrt(m), then K = pi / (2 a_N) and
    E = K (1 - sum_n 2^(n-1) c_n^2).  c_(n+1) is taken as
    c_n^2 / (4 a_(n+1)), which equals (a_n - b_n) / 2 without its
    cancellation.  c falls quadratically, so once every c is below an
    ulp of its a, the next term of the sum is below eps^2 and a has
    converged: the loop stops there (5 steps at m = 0.75, 9 at 1 - 1e-15).
    """
    a, b, c = np.ones_like(m), np.sqrt(1.0 - m), np.sqrt(m)
    total, weight = 0.5 * m, 0.5  # sum of 2^(n-1) c_n^2, and 2^(n-1)
    while np.any(c > _EPS * a):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        c = c * c / (4.0 * a)
        weight *= 2.0
        total = total + weight * c * c
    k = 0.5 * math.pi / a
    return k, k * (1.0 - total)


def _loop_hyp2f1(m, k, e):
    """2F1(1/2, 3/2; 3; m) for 0 <= m < 1, given k = K(m) and e = E(m).

    Below ``_SERIES_BELOW`` it is the power series, whose term ratio
    (n + 1/2)(n + 3/2) m / ((n + 1)(n + 3)) stays below m: at m < 1/2
    the terms fall faster than 2^-n, and the loop stops at the first
    term below an ulp of the sum (at most 42 terms after the first).  Above, it is
    32 ((1 - m/2) E - (1 - m) K) / (3 pi m^2).  The difference cancels
    by a factor ((1 - m/2) E + (1 - m) K) / ((1 - m/2) E - (1 - m) K),
    which grows as 32 / (3 m^2) towards the axis but is 23 at m = 1/2
    and falls from there, so that form loses at most 5 bits; the
    series would need ever more terms as m approaches 1, near the wire.
    """
    out = np.empty_like(m)
    series = m < _SERIES_BELOW
    x = m[series]
    term = total = np.ones_like(x)
    n = 0
    while np.any(term > _EPS * total):
        term = term * ((n + 0.5) * (n + 1.5) / ((n + 1.0) * (n + 3.0)) * x)
        total = total + term
        n += 1
    out[series] = total
    x, k, e = m[~series], k[~series], e[~series]
    out[~series] = 32.0 * ((1.0 - 0.5 * x) * e - (1.0 - x) * k) / (3.0 * math.pi * x * x)
    return out


def complex_weight(sensitivity, x):
    """Complex receive weight of spins at positions x of shape (..., 3);
    a single position gives a complex.

    A sample contribution is weight * (mx + 1j*my); with the scalar
    product convention Re(weight * mxy) = Sx*mx + Sy*my, so regions
    where the coil field is purely longitudinal receive nothing.
    """
    s = np.asarray(sensitivity(x), dtype=float)
    return (s[..., 0] - 1j * s[..., 1])[()]


@dataclass(frozen=True)
class SystemModel:
    """Static field plus receive coil."""

    field: StaticField
    receive: object


def default_system(b0: float = 1.5) -> SystemModel:
    return SystemModel(field=StaticField(b0=b0), receive=UniformSensitivity())


# ---------------------------------------------------------------------------
# grid files and the system description grammar
# ---------------------------------------------------------------------------


def _read_grid_numbers(path: str, per_node: int):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tokens = fh.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read grid file {path}: {exc}") from None
    if len(tokens) < 9:
        raise ParseError(f"grid file {path} lacks the 9-number header")
    try:
        header = [float(t) for t in tokens[:9]]
        data = np.array([float(t) for t in tokens[9:]])
    except ValueError as exc:
        raise ParseError(f"grid file {path}: {exc}") from None
    if not (all(map(math.isfinite, header)) and np.isfinite(data).all()):
        raise ParseError(f"grid file {path}: every number must be finite")
    nx, ny, nz = (int(h) for h in header[:3])
    origin, step = tuple(header[3:6]), tuple(header[6:9])
    want = nx * ny * nz * per_node
    if data.size != want:
        raise ParseError(f"grid file {path}: expected {want} values, found {data.size}")
    return (nx, ny, nz), origin, step, data


def load_scalar_grid(path: str) -> ScalarGrid:
    """Grid file: header ``nx ny nz x0 y0 z0 dx dy dz``, then nx*ny*nz
    values in tesla, x-fastest."""
    shape, origin, step, data = _read_grid_numbers(path, 1)
    values = data.reshape(shape[2], shape[1], shape[0])
    return ScalarGrid(shape=shape, origin=origin, step=step, values=values)


def load_vector_grid(path: str) -> VectorGrid:
    """Same header as the scalar grid, three values per node (x-fastest)."""
    shape, origin, step, data = _read_grid_numbers(path, 3)
    comps = []
    data = data.reshape(-1, 3)
    for c in range(3):
        values = data[:, c].reshape(shape[2], shape[1], shape[0])
        comps.append(ScalarGrid(shape=shape, origin=origin, step=step, values=values))
    return VectorGrid(components=tuple(comps))


def parse_system_file(text: str, base_dir: str = ".") -> SystemModel:
    """Parse the system description grammar into a SystemModel."""

    def grid_path(params):
        return os.path.join(base_dir, params["file"])  # an absolute file stays as it is

    inhomogeneity = {
        "none": ({}, lambda p: None),
        "legendre12": (
            {"C_uT": float, "R_m": float},
            lambda p: Legendre12Inhomogeneity(c=p["C_uT"] * 1e-6, r=p["R_m"]),
        ),
        "grid": ({"file": str}, lambda p: load_scalar_grid(grid_path(p))),
    }
    receive = {
        "uniform": ({"S": float}, lambda p: UniformSensitivity(s=p.get("S", 1.0))),
        "loop": (
            {"center_m": numbers(), "normal": numbers(), "diameter_m": float},
            lambda p: CircularLoop(p["center_m"], p["normal"], p["diameter_m"]),
        ),
        "grid": ({"file": str}, lambda p: load_vector_grid(grid_path(p))),
    }
    grammar = {
        "static_field": {"b0_T": _b0, "inhomogeneity": model_reader(inhomogeneity)},
        "receive": {"model": model_reader(receive)},
    }
    params: dict = {}
    for _kind, _line, block in read_blocks(text, grammar, file_wide=("static_field", "receive")):
        params.update((key, value) for key, (value, _) in block.items())
    if "b0_T" not in params:
        raise ParseError("system file is missing b0_T", 1)
    return SystemModel(
        field=StaticField(b0=params["b0_T"], inhomogeneity=params.get("inhomogeneity")),
        receive=params.get("model", UniformSensitivity()),
    )
