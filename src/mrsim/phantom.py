"""Phantoms built from overlapping boxes and their spin-lattice rasterization.

A phantom is a list of boxes.  Each box carries evaluators for the
equilibrium magnetization, relaxation times and local off-resonance;
they may be constants, affine functions of position, or arbitrary
callables (x, y, z) -> float.  Overlapping boxes emit independent spin
populations, which is how multi-exponential relaxation is modeled: two
boxes covering the same region contribute two spins per site with their
own T2 each.  The ``[box]`` and ``[shepp_logan]`` blocks of an object
description file, read by :mod:`mrsim.grammar`, become boxes here.
"""

from __future__ import annotations

import math
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, List, Tuple, Union

import numpy as np

from .bloch import RelaxationParams
from .errors import InvalidParameter, ParseError, SpinBudgetExceeded
from .grammar import numbers, read_blocks

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
        _check_box_field("size", self.size)


def _check_box_field(name: str, value) -> None:
    """Reject a box size with a non-positive component, a constant t1 or
    t2 <= 0 and a constant m0 < 0; properties that vary with position
    are checked site by site by :func:`rasterize`."""
    if name == "size" and any(s <= 0.0 for s in value):
        raise InvalidParameter(f"box size components must be positive, got {value}")
    if name in ("t1", "t2") and not callable(value) and not value > 0.0:
        raise InvalidParameter(f"{name} must be positive, got {value}")
    if name == "m0" and not callable(value) and value < 0.0:
        raise InvalidParameter(f"m0 must be non-negative, got {value}")


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


def _eval_sites(prop: PropertyFn, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """A property at every site; constants and :class:`Affine` on whole
    arrays, other callables site by site."""
    if isinstance(prop, Affine):
        return prop.c + prop.gx * x + prop.gy * y + prop.gz * z
    if callable(prop):
        return np.array([float(prop(a, b, c)) for a, b, c in zip(x, y, z)], dtype=float)
    return np.full(x.shape, float(prop))


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


def _check_tissue(m0: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> None:
    """The checks of :class:`RelaxationParams`, once per array."""
    bad = np.flatnonzero(~((t1 > 0.0) & (t2 > 0.0)) | (m0 < 0.0))
    if bad.size:
        # the first offending spin raises as its RelaxationParams would
        i = bad[0]
        RelaxationParams(t1=float(t1[i]), t2=float(t2[i]), m0=float(m0[i]))
    odd = np.flatnonzero(t2 > t1)
    if odd.size:
        i = odd[0]
        warnings.warn(
            f"t2={float(t2[i])} s exceeds t1={float(t1[i])} s (unphysical)", stacklevel=3
        )


def _positive_spacing(spacing) -> Tuple[float, float, float]:
    """(dx, dy, dz) as floats; InvalidParameter unless every component
    is positive (NaN is not)."""
    spacing = tuple(float(s) for s in spacing)
    if any(not s > 0.0 for s in spacing):
        raise InvalidParameter(f"spacing components must be positive, got {spacing}")
    return spacing


def rasterize(phantom: Phantom, spacing) -> SpinList:
    """Sample every box on a centered lattice with the given (dx, dy, dz).

    Each spin starts in thermal equilibrium (0, 0, m0) with the box
    properties evaluated at its position; sites where m0 evaluates to
    zero emit no spin.  Ordering is deterministic: box index, then z, y,
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
    for box in phantom.boxes:
        zs, ys, xs = np.meshgrid(
            _lattice(box.origin[2], box.size[2], spacing[2]),
            _lattice(box.origin[1], box.size[1], spacing[1]),
            _lattice(box.origin[0], box.size[0], spacing[0]),
            indexing="ij",
        )
        x, y, z = xs.ravel(), ys.ravel(), zs.ravel()
        m0 = _eval_sites(box.m0, x, y, z)
        keep = m0 != 0.0
        x, y, z, m0 = x[keep], y[keep], z[keep], m0[keep]
        t1 = _eval_sites(box.t1, x, y, z)
        t2 = _eval_sites(box.t2, x, y, z)
        _check_tissue(m0, t1, t2)
        for column, values in zip(
            columns,
            (np.column_stack([x, y, z]), m0, t1, t2, _eval_sites(box.delta_omega, x, y, z)),
        ):
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

# The ellipses innermost first, as (x0, y0, a, b, cos, sin, half, m0):
# the tilt's cosine and sine, and the half-width of the square around
# the center that holds the ellipse.  The relative slack of 1e-9 dwarfs
# the rounding of the membership test, so the square never rejects a
# point the test would accept.
_HEAD_TABLE = tuple(
    (e.x0, e.y0, e.a, e.b, math.cos(phi), math.sin(phi), max(e.a, e.b) * (1.0 + 1e-9), e.m0)
    for e in reversed(_HEAD_ELLIPSES)
    for phi in (math.radians(e.phi_deg),)
)

SHEPP_LOGAN_T1 = 1.0
SHEPP_LOGAN_T2 = 0.2


def shepp_logan_m0(x: float, y: float, scale: float = 1.0) -> float:
    """Equilibrium magnetization of the head phantom at (x, y); 0 outside.

    The innermost ellipse that contains the point sets the value.  The
    arithmetic runs on Python floats whatever scalar type comes in.
    """
    x, y = float(x) / scale, float(y) / scale
    for x0, y0, a, b, cos, sin, half, m0 in _HEAD_TABLE:
        dx = x - x0
        if abs(dx) > half:
            continue
        dy = y - y0
        if abs(dy) > half:
            continue
        u = (dx * cos + dy * sin) / a
        v = (-dx * sin + dy * cos) / b
        if u * u + v * v <= 1.0:
            return m0
    return 0.0


def shepp_logan(scale: float, thickness: float = 1e-3) -> Phantom:
    """Ten-ellipse head phantom scaled so the unit half-width maps to
    ``scale`` meters; one thin box with an ellipse-membership evaluator."""
    if scale <= 0.0:
        raise InvalidParameter(f"scale must be positive, got {scale}")
    box = PhantomBox(
        origin=(-scale, -scale, -thickness / 2.0),
        size=(2.0 * scale, 2.0 * scale, thickness),
        m0=lambda x, y, z: shepp_logan_m0(x, y, scale),
        t1=SHEPP_LOGAN_T1,
        t2=SHEPP_LOGAN_T2,
        delta_omega=0.0,
    )
    return Phantom([box])


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


def _box_field(name: str, read):
    """Reader of one [box] key: ``read``, then the PhantomBox check of
    field ``name``."""

    def reader(value: str):
        out = read(value)
        _check_box_field(name, out)
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
    "box": {key: _box_field(name, read) for key, (name, read) in _BOX_KEYS.items()},
    "shepp_logan": {"scale_m": float},
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
