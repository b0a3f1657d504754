"""Phantoms built from overlapping boxes and their spin-lattice rasterization.

A phantom is a list of boxes.  Each box carries evaluators for the
equilibrium magnetization, relaxation times and local off-resonance;
they may be constants, affine functions of position, or arbitrary
callables (x, y, z) -> float.  Rasterization calls a callable once, on
the arrays of a box's lattice sites, and keeps the result when it has
one value per site and matches per-site calls at the first, middle and
last site; otherwise it calls it site by site.  The head phantom's m0,
:func:`shepp_logan_m0`, takes arrays.  Overlapping boxes emit independent spin
populations, which is how multi-exponential relaxation is modeled: two
boxes covering the same region contribute two spins per site with their
own T2 each.  The ``[box]`` and ``[shepp_logan]`` blocks of an object
description file, read by :mod:`mrsim.grammar`, become boxes here.
"""

from __future__ import annotations

import functools
import logging
import math
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .bloch import RelaxationParams
from .errors import InvalidParameter, ParseError, SpinBudgetExceeded
from .grammar import numbers, read_blocks

_log = logging.getLogger(__name__)

PropertyFn = Union[float, Callable[[float, float, float], float]]

# most lattice sites one rasterization may produce
SPIN_CAP = 2_000_000


@dataclass(frozen=True)
class Affine:
    """Affine property c + gx*x + gy*y + gz*z."""

    c: float
    gx: float = 0.0
    gy: float = 0.0
    gz: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.c, self.gx, self.gy, self.gz))):
            raise InvalidParameter(f"affine coefficients must be finite, got {self}")

    def __call__(self, x: float, y: float, z: float) -> float:
        return self.c + self.gx * x + self.gy * y + self.gz * z


@dataclass(frozen=True)
class PhantomBox:
    """Axis-aligned box with position-dependent MR properties."""

    origin: tuple
    size: tuple
    m0: PropertyFn = 1.0
    t1: PropertyFn = 1.0
    t2: PropertyFn = 0.1
    delta_omega: PropertyFn = 0.0

    def __post_init__(self):
        if len(self.origin) != 3 or len(self.size) != 3:
            raise InvalidParameter("origin and size must be 3-vectors")
        _check_box_field("origin", self.origin)
        _check_box_field("size", self.size)


def _check_box_field(name: str, value) -> None:
    """Reject a box origin or size with a component that is not finite,
    a size with a non-positive component, a constant t1 or t2 <= 0, a
    constant m0 that is negative or not finite and a constant
    delta_omega that is not finite; properties that vary with position
    are checked at every site by :func:`rasterize`, and an
    :class:`Affine` checks its coefficients itself."""
    if name in ("origin", "size") and not all(math.isfinite(v) for v in value):
        raise InvalidParameter(f"box {name} components must be finite, got {value}")
    if name == "size" and any(s <= 0.0 for s in value):
        raise InvalidParameter(f"box size components must be positive, got {value}")
    if callable(value):
        return
    if name in ("t1", "t2") and not value > 0.0:
        raise InvalidParameter(f"{name} must be positive, got {value}")
    if name == "m0" and not (value >= 0.0 and math.isfinite(value)):
        raise InvalidParameter(f"m0 must be non-negative and finite, got {value}")
    if name == "delta_omega" and not math.isfinite(value):
        raise InvalidParameter(f"delta_omega must be finite, got {value}")


@dataclass
class Phantom:
    boxes: List[PhantomBox] = field(default_factory=list)

    def __post_init__(self):
        if not self.boxes:
            raise InvalidParameter("a phantom needs at least one box")

    def bounding_box(self) -> tuple:
        """(lo, hi) corners covering all boxes."""
        lo = np.min([b.origin for b in self.boxes], axis=0)
        hi = np.max([np.add(b.origin, b.size) for b in self.boxes], axis=0)
        return lo, hi


@dataclass
class SpinSample:
    """One discretized object atom: position and tissue constants; it
    starts in thermal equilibrium (0, 0, relax.m0)."""

    position: tuple
    relax: RelaxationParams
    delta_omega: float = 0.0


def _axis_sites(size: float, spacing: float) -> int:
    """Sites of the centered lattice along one axis of a box: one where
    the spacing is at least the box size, infinite spacing included."""
    return max(1, int(math.floor(size / spacing + 1e-9)))


def lattice_sites(phantom: Phantom, spacing) -> int:
    """Lattice sites of all boxes at spacing (dx, dy, dz), counted
    without building them."""
    return sum(
        math.prod(_axis_sites(box.size[ax], spacing[ax]) for ax in range(3))
        for box in phantom.boxes
    )


def _lattice(origin: float, size: float, spacing: float) -> np.ndarray:
    """Regular 1-D lattice with the given spacing, centered in [origin, origin+size]."""
    n = _axis_sites(size, spacing)
    if n == 1:  # (n - 1) * spacing would be NaN for an infinite spacing
        return np.array([origin + size / 2.0])
    offset = (size - (n - 1) * spacing) / 2.0
    return origin + offset + spacing * np.arange(n)


def _site_by_site(prop: Callable, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A callable property called once per site, on numpy scalars."""
    return np.array([float(prop(a, b, c)) for a, b, c in zip(x, y, z)], dtype=float)


def _on_arrays(
    prop: Callable, x: np.ndarray, y: np.ndarray, z: np.ndarray, where: str
) -> Optional[np.ndarray]:
    """A callable property called once on the site arrays; None, with a
    DEBUG line naming ``where`` and the reason, when the call raises or
    its result is not one float per site equal, bit for bit, to per-site
    calls at the first, middle and last site."""
    # read-only, so that a callable cannot move the sites by working in place
    x, y, z = (a.view() for a in (x, y, z))
    for a in (x, y, z):
        a.flags.writeable = False
    try:
        values = np.asarray(prop(x, y, z), dtype=float)
        if values.shape != x.shape:
            reason = f"returned shape {values.shape} for {x.size} sites"
        else:
            probe = [0, x.size // 2, x.size - 1]
            per_site = _site_by_site(prop, x[probe], y[probe], z[probe])
            if values[probe].tobytes() == per_site.tobytes():
                return values
            reason = "differs from per-site calls"
    except Exception as exc:  # the site-by-site loop decides what a site raises
        reason = f"raised {type(exc).__name__}: {exc}"
    _log.debug("%s: site-by-site evaluation, since the call on arrays %s", where, reason)
    return None


def _eval_sites(
    prop: PropertyFn, x: np.ndarray, y: np.ndarray, z: np.ndarray, where: str
) -> np.ndarray:
    """A property at every site; constants and :class:`Affine` on whole
    arrays, other callables by :func:`_on_arrays`, or site by site when
    that gives None."""
    if isinstance(prop, Affine):
        return prop.c + prop.gx * x + prop.gy * y + prop.gz * z
    if not callable(prop):
        return np.full(x.shape, float(prop))
    values = _on_arrays(prop, x, y, z, where) if x.size else None
    return _site_by_site(prop, x, y, z) if values is None else values


class SpinList(Sequence):
    """Rasterized spins, held as arrays.

    Indexing and iteration build :class:`SpinSample` objects (thermal
    equilibrium start); :func:`mrsim.engine.build_spin_arrays` reads the
    arrays directly.
    """

    def __init__(self, pos, m0, t1, t2, delta_omega):
        self.pos = pos  # (n, 3)
        self.m0 = m0
        self.t1 = t1
        self.t2 = t2
        self.delta_omega = delta_omega

    def __len__(self) -> int:
        return self.m0.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._spin(
            tuple(self.pos[index].tolist()),
            *(float(a[index]) for a in (self.m0, self.t1, self.t2, self.delta_omega)),
        )

    def __iter__(self):
        columns = (self.m0, self.t1, self.t2, self.delta_omega)
        for position, *values in zip(self.pos.tolist(), *(a.tolist() for a in columns)):
            yield self._spin(tuple(position), *values)

    @staticmethod
    def _spin(position, m0, t1, t2, delta_omega) -> SpinSample:
        return SpinSample(
            position=position,
            relax=RelaxationParams(t1=t1, t2=t2, m0=m0),
            delta_omega=delta_omega,
        )


def _check_tissue(m0: np.ndarray, t1: np.ndarray, t2: np.ndarray, delta_omega: np.ndarray) -> None:
    """The checks of :class:`RelaxationParams`, once per array, and a
    finite off-resonance."""
    bad = np.flatnonzero(~((t1 > 0.0) & (t2 > 0.0) & (m0 >= 0.0) & np.isfinite(m0)))
    if bad.size:
        # the first offending spin raises as its RelaxationParams would
        i = bad[0]
        RelaxationParams(t1=float(t1[i]), t2=float(t2[i]), m0=float(m0[i]))
    bad = np.flatnonzero(~np.isfinite(delta_omega))
    if bad.size:
        raise InvalidParameter(f"delta_omega must be finite, got {float(delta_omega[bad[0]])}")
    odd = np.flatnonzero(t2 > t1)
    if odd.size:
        i = odd[0]
        warnings.warn(
            f"t2={float(t2[i])} s exceeds t1={float(t1[i])} s (unphysical)", stacklevel=3
        )


def _positive_spacing(spacing) -> Tuple[float, float, float]:
    """(dx, dy, dz) as floats; InvalidParameter unless it is exactly three
    real numbers, numpy's included but not bools, each positive (NaN is
    not)."""
    try:
        if isinstance(spacing, (str, bytes)):
            raise TypeError
        spacing = tuple(spacing)
        if len(spacing) != 3 or not all(
            isinstance(s, Real) and not isinstance(s, bool) for s in spacing
        ):
            raise TypeError
    except TypeError:
        raise InvalidParameter(f"spacing must be three real numbers, got {spacing!r}") from None
    spacing = tuple(float(s) for s in spacing)
    if any(not s > 0.0 for s in spacing):
        raise InvalidParameter(f"spacing components must be positive, got {spacing}")
    return spacing


def rasterize(phantom: Phantom, spacing) -> SpinList:
    """Sample every box on a centered lattice with the given (dx, dy, dz).

    Each spin starts in thermal equilibrium (0, 0, m0) with the box
    properties evaluated at its position, a callable once on all of a
    box's sites when it takes arrays (see the module docstring); sites
    where m0 evaluates to zero emit no spin, and an m0 that is negative
    or not finite, a T1 or T2 that is not positive and a Δω that is not
    finite raise InvalidParameter.  Ordering is deterministic: box index, then z, y,
    x lattice order (x fastest).  More than ``SPIN_CAP`` lattice sites
    raise SpinBudgetExceeded before any is allocated.
    """
    spacing = _positive_spacing(spacing)
    sites = lattice_sites(phantom, spacing)
    if sites > SPIN_CAP:
        raise SpinBudgetExceeded(
            f"{sites} lattice sites exceed the cap of {SPIN_CAP}; "
            "coarsen the spacing or shrink the phantom"
        )
    columns: List[List[np.ndarray]] = [[] for _ in range(5)]
    for index, box in enumerate(phantom.boxes):
        zs, ys, xs = np.meshgrid(
            _lattice(box.origin[2], box.size[2], spacing[2]),
            _lattice(box.origin[1], box.size[1], spacing[1]),
            _lattice(box.origin[0], box.size[0], spacing[0]),
            indexing="ij",
        )
        x, y, z = xs.ravel(), ys.ravel(), zs.ravel()
        m0 = _eval_sites(box.m0, x, y, z, f"box {index} m0")
        keep = m0 != 0.0
        x, y, z, m0 = x[keep], y[keep], z[keep], m0[keep]
        t1, t2, delta_omega = (
            _eval_sites(getattr(box, name), x, y, z, f"box {index} {name}")
            for name in ("t1", "t2", "delta_omega")
        )
        _check_tissue(m0, t1, t2, delta_omega)
        for column, values in zip(columns, (np.column_stack([x, y, z]), m0, t1, t2, delta_omega)):
            column.append(values)
    return SpinList(
        np.concatenate(columns[0]).reshape(-1, 3),
        *(np.concatenate(c) for c in columns[1:]),
    )


# ---------------------------------------------------------------------------
# head phantom
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Ellipse:
    x0: float
    y0: float
    a: float
    b: float
    phi_deg: float
    m0: float


# Ten-ellipse head phantom: classic geometry in units of the half-width,
# with per-region equilibrium magnetization; later entries override
# earlier ones inside their footprint (innermost region wins).
_HEAD_ELLIPSES = (
    _Ellipse(0.0, 0.0, 0.69, 0.92, 0.0, 1.00),
    _Ellipse(0.0, -0.0184, 0.6624, 0.874, 0.0, 0.51),
    _Ellipse(0.22, 0.0, 0.11, 0.31, -18.0, 0.40),
    _Ellipse(-0.22, 0.0, 0.16, 0.41, 18.0, 0.40),
    _Ellipse(0.0, 0.35, 0.21, 0.25, 0.0, 0.60),
    _Ellipse(0.0, 0.1, 0.046, 0.046, 0.0, 0.80),
    _Ellipse(0.0, -0.1, 0.046, 0.046, 0.0, 0.80),
    _Ellipse(-0.08, -0.605, 0.046, 0.023, 0.0, 0.70),
    _Ellipse(0.0, -0.605, 0.023, 0.023, 0.0, 0.70),
    _Ellipse(0.06, -0.605, 0.023, 0.046, 0.0, 0.70),
)

# The ellipses in table order as six (ellipses, 1) columns x0, y0, a,
# b, cos, sin, with the tilt's cosine and sine from math.cos and
# math.sin.  An ellipse's rank is its table index plus one and
# _HEAD_M0[rank] its m0; rank 0 (no ellipse) maps to 0.
_HEAD_TABLE = np.array(
    [
        (e.x0, e.y0, e.a, e.b, math.cos(phi), math.sin(phi))
        for e in _HEAD_ELLIPSES
        for phi in (math.radians(e.phi_deg),)
    ]
).T[:, :, None]
_HEAD_RANK = np.arange(1, len(_HEAD_ELLIPSES) + 1)[:, None]
_HEAD_M0 = np.array([0.0] + [e.m0 for e in _HEAD_ELLIPSES])
# points per membership test: (ellipses, chunk) temporaries of 1.3 MB
_HEAD_CHUNK = 2**14

SHEPP_LOGAN_T1 = 1.0
SHEPP_LOGAN_T2 = 0.2


def shepp_logan_m0(x, y, scale: float = 1.0):
    """Equilibrium magnetization of the head phantom at (x, y); 0 outside.

    ``x`` and ``y`` are scalars or arrays that broadcast together; an
    array comes back in their broadcast shape, a scalar as a Python
    float.  Every point is tested against all ten ellipses at once, and
    the innermost (last in table order) that contains it sets the value.
    """
    x, y = np.broadcast_arrays(
        np.asarray(x, dtype=float) / scale, np.asarray(y, dtype=float) / scale
    )
    value = np.empty(x.shape)
    flat, xs, ys = value.reshape(-1), x.reshape(-1), y.reshape(-1)
    x0, y0, a, b, cos, sin = _HEAD_TABLE
    for lo in range(0, flat.size, _HEAD_CHUNK):
        dx = xs[lo : lo + _HEAD_CHUNK] - x0
        dy = ys[lo : lo + _HEAD_CHUNK] - y0
        u = (dx * cos + dy * sin) / a
        v = (-dx * sin + dy * cos) / b
        inside = u * u + v * v <= 1.0
        flat[lo : lo + _HEAD_CHUNK] = _HEAD_M0[(inside * _HEAD_RANK).max(axis=0)]
    return value if value.ndim else float(value)


def shepp_logan(scale: float, thickness: float = 1e-3) -> Phantom:
    """Ten-ellipse head phantom scaled so the unit half-width maps to
    ``scale`` meters; one thin box with an ellipse-membership evaluator."""
    _check_scale(scale)
    box = PhantomBox(
        origin=(-scale, -scale, -thickness / 2.0),
        size=(2.0 * scale, 2.0 * scale, thickness),
        m0=lambda x, y, z: shepp_logan_m0(x, y, scale),
        t1=SHEPP_LOGAN_T1,
        t2=SHEPP_LOGAN_T2,
        delta_omega=0.0,
    )
    return Phantom([box])


def _check_scale(scale: float) -> None:
    if not 0.0 < scale < math.inf:
        raise InvalidParameter(f"scale must be positive and finite, got {scale}")


# ---------------------------------------------------------------------------
# description files
# ---------------------------------------------------------------------------

_AFFINE_RE = re.compile(
    r"^\s*(?P<c>[-+]?[\d.eE+-]+)"
    r"(?:\s*(?P<sx>[-+])\s*(?P<gx>[\d.eE+-]*)\s*\*\s*x)?"
    r"(?:\s*(?P<sy>[-+])\s*(?P<gy>[\d.eE+-]*)\s*\*\s*y)?"
    r"(?:\s*(?P<sz>[-+])\s*(?P<gz>[\d.eE+-]*)\s*\*\s*z)?\s*$"
)


def _property(value: str) -> PropertyFn:
    """A constant, or ``affine: c + gx*x + gy*y + gz*z``."""
    if not value.startswith("affine:"):
        return float(value)
    m = _AFFINE_RE.match(value[len("affine:") :])
    if not m:
        raise ValueError(value)

    def coeff(sign, digits):
        if sign is None:
            return 0.0
        return float(sign + (digits or "1"))

    return Affine(
        c=float(m.group("c")),
        gx=coeff(m.group("sx"), m.group("gx")),
        gy=coeff(m.group("sy"), m.group("gy")),
        gz=coeff(m.group("sz"), m.group("gz")),
    )


def _checked(read, check):
    """Reader of one key: ``read``, then ``check`` of its value."""

    def reader(value: str):
        out = read(value)
        check(out)
        return out

    return reader


# [box] keys, the PhantomBox fields they set and their readers
_BOX_KEYS = {
    "origin_m": ("origin", numbers(3)),
    "size_m": ("size", numbers(3)),
    "m0": ("m0", _property),
    "t1_s": ("t1", _property),
    "t2_s": ("t2", _property),
    "delta_omega_rad_s": ("delta_omega", _property),
}
_GRAMMAR = {
    "box": {
        key: _checked(read, functools.partial(_check_box_field, name))
        for key, (name, read) in _BOX_KEYS.items()
    },
    "shepp_logan": {"scale_m": _checked(float, _check_scale)},
}


def parse_object_file(text: str) -> Phantom:
    """Parse the object description grammar into a Phantom."""
    boxes: list = []
    for kind, line, block in read_blocks(text, _GRAMMAR):
        required = ("origin_m", "size_m") if kind == "box" else ("scale_m",)
        for key in required:
            if key not in block:
                raise ParseError(f"[{kind}] is missing {key}", line)
        if kind == "box":
            boxes.append(PhantomBox(**{_BOX_KEYS[k][0]: value for k, (value, _) in block.items()}))
        else:
            boxes.extend(shepp_logan(block["scale_m"][0]).boxes)
    if not boxes:
        raise ParseError("no boxes in object file", 1)
    return Phantom(boxes)
