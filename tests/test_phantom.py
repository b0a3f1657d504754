import logging
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import mrsim.phantom as phantom_module
from mrsim.bloch import RelaxationParams
from mrsim.engine import build_spin_arrays
from mrsim.errors import InvalidParameter, ParseError, SpinBudgetExceeded
from mrsim.system import default_system
from mrsim.phantom import (
    _HEAD_ELLIPSES,
    Affine,
    Phantom,
    PhantomBox,
    SpinList,
    SpinSample,
    parse_object_file,
    rasterize,
    shepp_logan,
    shepp_logan_m0,
)

from oracles import reference_shepp_logan_m0


def thin(origin2, size2, **props):
    """2-D helper: a box 1 mm thick in z."""
    return PhantomBox(
        origin=(origin2[0], origin2[1], -5e-4), size=(size2[0], size2[1], 1e-3), **props
    )


def test_1d_box_spin_count():
    box = PhantomBox(origin=(0, 0, 0), size=(0.1, 1e-3, 1e-3), m0=1.0)
    spins = rasterize(Phantom([box]), (0.01, 1.0, 1.0))
    assert len(spins) == 10


def test_lattice_centered_in_box():
    box = PhantomBox(origin=(0, 0, 0), size=(0.1, 1e-3, 1e-3), m0=1.0)
    spins = rasterize(Phantom([box]), (0.01, 1.0, 1.0))
    xs = [s.position[0] for s in spins]
    assert xs[0] == pytest.approx(0.005)
    assert xs[-1] == pytest.approx(0.095)


def test_overlapping_boxes_emit_independent_populations():
    a = PhantomBox(origin=(0, 0, 0), size=(0.1, 0.1, 0.1), m0=1.0, t2=0.1)
    b = PhantomBox(origin=(0, 0, 0), size=(0.1, 0.1, 0.1), m0=0.5, t2=0.02)
    single = rasterize(Phantom([a]), (0.02, 0.02, 0.02))
    both = rasterize(Phantom([a, b]), (0.02, 0.02, 0.02))
    assert len(both) == 2 * len(single)
    t2s = {s.relax.t2 for s in both}
    assert t2s == {0.1, 0.02}


def test_rasterize_deterministic_and_ordered():
    box = PhantomBox(origin=(0, 0, 0), size=(0.03, 0.03, 0.03), m0=1.0)
    first = rasterize(Phantom([box]), (0.01, 0.01, 0.01))
    second = rasterize(Phantom([box]), (0.01, 0.01, 0.01))
    assert [s.position for s in first] == [s.position for s in second]
    # x fastest, then y, then z
    assert first[0].position[0] < first[1].position[0]
    assert first[0].position[1] == first[1].position[1]
    assert first[3].position[1] > first[0].position[1]
    assert first[3].position[2] == first[0].position[2]
    assert first[9].position[2] > first[0].position[2]


def test_infinite_spacing_puts_one_site_at_the_box_centre():
    # max_spacing recommends inf on an axis without k excursion
    box = PhantomBox(origin=(0, 0, -5e-4), size=(0.1, 0.04, 1e-3), m0=1.0)
    inf = rasterize(Phantom([box]), (0.01, 0.01, math.inf))
    wide = rasterize(Phantom([box]), (0.01, 0.01, 1.0))
    assert len(inf) == 40 and not inf.pos[:, 2].any()
    assert np.array_equal(inf.pos, wide.pos)


def test_rasterize_rejects_a_nan_spacing():
    box = PhantomBox(origin=(0, 0, 0), size=(0.03, 0.03, 0.03), m0=1.0)
    with pytest.raises(InvalidParameter, match="must be positive"):
        rasterize(Phantom([box]), (math.nan, 0.01, 0.01))


@pytest.mark.parametrize(
    "spacing",
    [(0.01, 0.01, 0.01, 0.5), (0.01, 0.01), 0.01, "abc", (0.01, True, 0.01), ("0.01", 0.01, 0.01)],
    ids=["four", "two", "scalar", "string", "bool", "string_component"],
)
def test_rasterize_takes_exactly_three_real_numbers(spacing):
    # a fourth value was ignored; two raised IndexError, a scalar
    # TypeError and "abc" ValueError
    box = PhantomBox(origin=(0, 0, 0), size=(0.03, 0.03, 0.03), m0=1.0)
    with pytest.raises(InvalidParameter, match="three real numbers"):
        rasterize(Phantom([box]), spacing)


def test_rasterize_takes_a_spacing_as_numpy_values():
    box = PhantomBox(origin=(0, 0, 0), size=(0.03, 0.03, 0.03), m0=1.0)
    want = rasterize(Phantom([box]), (0.01, 0.01, 0.01))
    for spacing in (np.full(3, 0.01), (np.float32(0.01), 0.01, 0.01), [0.01, 0.01, 0.01]):
        assert len(rasterize(Phantom([box]), spacing)) == len(want)


def test_spin_budget_enforced():
    # 2000 x 2000 x 1 sites, twice the cap; they are counted, never allocated
    box = PhantomBox(origin=(0, 0, 0), size=(2, 2, 1e-3), m0=1.0)
    with pytest.raises(SpinBudgetExceeded):
        rasterize(Phantom([box]), (1e-3, 1e-3, 1e-3))


def test_affine_properties_evaluated_at_positions():
    box = PhantomBox(
        origin=(0, 0, 0), size=(0.1, 1e-3, 1e-3), m0=Affine(1.0, gx=10.0), t1=1.0, t2=0.1
    )
    spins = rasterize(Phantom([box]), (0.01, 1.0, 1.0))
    for s in spins:
        assert s.relax.m0 == pytest.approx(1.0 + 10.0 * s.position[0])


def test_spin_list_matches_site_by_site_evaluation():
    box = PhantomBox(
        origin=(0, 0, 0),
        size=(0.05, 0.03, 1e-3),
        m0=Affine(1.0, gx=10.0, gy=-4.0),
        t1=0.9,
        t2=lambda x, y, z: 0.05 + x,
        delta_omega=Affine(2.0, gy=30.0),
    )
    spacing = (0.01, 0.01, 1.0)
    spins = rasterize(Phantom([box]), spacing)
    expected = []
    for y in (0.005, 0.015, 0.025):
        for x in (0.005, 0.015, 0.025, 0.035, 0.045):
            m0 = box.m0(x, y, 5e-4)
            expected.append(
                SpinSample(
                    position=(x, y, 5e-4),
                    relax=RelaxationParams(t1=0.9, t2=0.05 + x, m0=m0),
                    delta_omega=box.delta_omega(x, y, 5e-4),
                )
            )
    assert len(spins) == len(expected)
    for got, want in zip(list(spins), expected):
        assert got.position == pytest.approx(want.position, abs=1e-15)
        assert got.relax.m0 == want.relax.m0
        assert got.delta_omega == pytest.approx(want.delta_omega)
        assert got.relax.t2 == pytest.approx(want.relax.t2)
    assert spins[-1] == list(spins)[-1]
    assert spins[2:4] == list(spins)[2:4]
    # the engine reads the arrays; the kernel starts every spin from m0
    packed = build_spin_arrays(spins, default_system())
    for name in ("pos", "t1", "t2", "m0"):
        assert getattr(packed, name) is getattr(spins, name), name
    assert np.array_equal(packed.domega, spins.delta_omega)


def _site_by_site(box, spacing):
    """The spins of one box with every callable property called per
    site, as ``rasterize`` calls one that does not take arrays."""

    def per_site(prop):
        if not callable(prop):
            return prop

        def call(x, y, z):
            if np.ndim(x):
                raise TypeError("per site only")
            return prop(x, y, z)

        return call

    fields = ("m0", "t1", "t2", "delta_omega")
    box = replace(box, **{f: per_site(getattr(box, f)) for f in fields})
    return rasterize(Phantom([box]), spacing)


_COLUMNS = ("pos", "m0", "t1", "t2", "delta_omega")


def _assert_same_spins(got, want):
    for name in _COLUMNS:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize(
    "name, prop, reason",
    [
        ("t2", lambda x, y, z: 0.05 * math.exp(x), "raised TypeError"),
        ("m0", lambda x, y, z: 0.5, "returned shape () for 15 sites"),
        ("delta_omega", lambda x, y, z: 3.0 * (x - x.mean()), "differs from per-site calls"),
    ],
    ids=["raises", "scalar", "differs"],
)
def test_callable_falls_back_to_site_by_site_evaluation(caplog, name, prop, reason):
    spacing = (0.01, 0.01, 1.0)
    boxes = [thin((0.1, 0.1), (0.02, 0.02)), thin((0.0, 0.0), (0.05, 0.03), **{name: prop})]
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        spins = rasterize(Phantom(boxes), spacing)
    lines = [rec.getMessage() for rec in caplog.records if "site-by-site" in rec.getMessage()]
    assert len(lines) == 1 and lines[0].startswith(f"box 1 {name}:") and reason in lines[0]
    single = rasterize(Phantom(boxes[:1]), spacing)
    assert len(spins) == len(single) + 15
    _assert_same_spins(
        SpinList(*(getattr(spins, name)[len(single) :] for name in _COLUMNS)),
        _site_by_site(boxes[1], spacing),
    )


def test_callable_that_works_in_place_cannot_move_the_sites():
    def shift(x, y, z):
        x += 1.0
        return x

    box = thin((0.0, 0.0), (0.05, 0.03), delta_omega=shift)
    spins = rasterize(Phantom([box]), (0.01, 0.01, 1.0))
    still = rasterize(Phantom([replace(box, delta_omega=0.0)]), (0.01, 0.01, 1.0))
    assert np.array_equal(spins.pos, still.pos)
    assert np.array_equal(spins.delta_omega, spins.pos[:, 0] + 1.0)


def test_head_phantom_m0_is_called_on_the_whole_lattice(monkeypatch, caplog):
    calls = []

    def counted(x, y, scale):
        calls.append(np.size(x))
        return shepp_logan_m0(x, y, scale)

    monkeypatch.setattr(phantom_module, "shepp_logan_m0", counted)
    with caplog.at_level(logging.DEBUG, logger="mrsim"):
        spins = rasterize(shepp_logan(0.1), (0.004, 0.004, 1.0))
    # one call on the 2,500 sites, and three per-site checks
    assert calls == [2500, 1, 1, 1] and len(spins) > 1000
    assert not [rec for rec in caplog.records if "site-by-site" in rec.getMessage()]


def test_head_spin_list_matches_site_by_site_evaluation():
    scale = 0.255
    spacing = 0.5 / 64 / 1.5 * 0.999
    sx, sy = 0.37 * spacing, -0.21 * spacing
    lattices = {
        # crit. 6's lattice: one spin per pixel of a 64^2 image
        "crit. 6": (shepp_logan(scale).boxes[0], 0.5 / 64 * 0.999),
        # head96_loop's lattice: the head shifted by a sub-voxel
        "head96_loop": (
            PhantomBox(
                origin=(-scale + sx, -scale + sy, -5e-4),
                size=(2 * scale, 2 * scale, 1e-3),
                m0=lambda x, y, z: shepp_logan_m0(x - sx, y - sy, scale),
                t1=1.0,
                t2=0.2,
            ),
            spacing,
        ),
    }
    for name, (box, d) in lattices.items():
        spins = rasterize(Phantom([box]), (d, d, 1.0))
        assert len(spins) > 2000, name
        _assert_same_spins(spins, _site_by_site(box, (d, d, 1.0)))


def _cube(**props):
    return Phantom([PhantomBox(origin=(0, 0, 0), size=(0.1, 0.1, 0.1), **props)])


def test_rasterize_checks_tissue_like_relaxation_params():
    with pytest.raises(InvalidParameter, match="relaxation times must be positive"):
        rasterize(_cube(t2=0.0), (0.05, 0.05, 0.05))
    with pytest.raises(InvalidParameter, match="m0 must be non-negative"):
        rasterize(_cube(m0=-1.0), (0.05, 0.05, 0.05))
    with pytest.warns(UserWarning, match="exceeds t1"):
        rasterize(_cube(t1=0.1, t2=0.2), (0.05, 0.05, 0.05))


@pytest.mark.parametrize(
    "props, message",
    [
        ({"m0": math.nan}, "m0 must be non-negative"),
        ({"m0": lambda x, y, z: math.nan}, "m0 must be non-negative"),
        ({"m0": lambda x, y, z: np.where(x > 0.05, np.inf, 1.0)}, "m0 must be non-negative"),
        # 0/0 on arrays is NaN, where Python floats raise
        ({"m0": lambda x, y, z: (x - 0.025) / (x - 0.025)}, "m0 must be non-negative"),
        ({"delta_omega": math.nan}, "delta_omega must be finite"),
        ({"delta_omega": lambda x, y, z: np.where(y > 0.05, np.nan, 0.0)}, "must be finite"),
    ],
    ids=["m0 nan", "callable m0 nan", "callable m0 inf", "m0 0/0", "dw nan", "callable dw nan"],
)
def test_rasterize_rejects_non_finite_tissue(props, message):
    with pytest.raises(InvalidParameter, match=message), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rasterize(_cube(**props), (0.05, 0.05, 0.05))


def test_rasterize_accepts_infinite_relaxation_times():
    spins = rasterize(_cube(t1=math.inf, t2=math.inf), (0.05, 0.05, 0.05))
    assert len(spins) == 8 and np.all(spins.t1 == math.inf) and np.all(spins.t2 == math.inf)


def test_equilibrium_magnetization_scale_invariance():
    box = PhantomBox(origin=(0, 0, 0), size=(0.1, 0.1, 1e-3), m0=0.7)
    for d in (0.01, 0.005):
        spins = rasterize(Phantom([box]), (d, d, 1.0))
        assert sum(s.relax.m0 for s in spins) / len(spins) == pytest.approx(0.7)


def test_box_size_must_be_positive():
    with pytest.raises(InvalidParameter):
        PhantomBox(origin=(0, 0, 0), size=(1.0, 0.0, 1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["origin", "size"])
def test_box_geometry_must_be_finite(field, value):
    # a NaN origin rasterized spins at x = NaN; a NaN size failed with a
    # bare ValueError and an infinite one with an OverflowError
    geometry = dict(origin=(0.0, 0.0, 0.0), size=(1.0, 1.0, 1.0))
    geometry[field] = (1.0, value, 1.0)
    with pytest.raises(InvalidParameter, match="finite"):
        PhantomBox(**geometry)


@pytest.mark.parametrize("scale", [math.nan, math.inf, 0.0, -1.0])
def test_head_phantom_scale_must_be_positive_and_finite(scale):
    with pytest.raises(InvalidParameter, match="scale must be positive and finite"):
        shepp_logan(scale)


# ---------------------------------------------------------------------------
# head phantom
# ---------------------------------------------------------------------------


def test_head_phantom_region_values():
    # inside the outer rim only
    assert shepp_logan_m0(0.0, 0.9) == pytest.approx(1.00)
    # outside everything
    assert shepp_logan_m0(0.9, 0.9) == 0.0
    # inner overrides: small bright lesion at (0, 0.1), ventricle-like at (0.22, 0)
    assert shepp_logan_m0(0.0, 0.1) == pytest.approx(0.80)
    assert shepp_logan_m0(0.22, 0.0) == pytest.approx(0.40)
    assert shepp_logan_m0(0.0, 0.35) == pytest.approx(0.60)
    # main interior
    assert shepp_logan_m0(0.4, 0.0) == pytest.approx(0.51)
    # scaling maps the same regions
    assert shepp_logan_m0(0.04, 0.0, scale=0.1) == pytest.approx(0.51)


def _lattice_sites(scale, spacing, shift=(0.0, 0.0)):
    """(x, y) of every lattice site of the head phantom's box at this
    spacing, the box moved by ``shift`` and the sites moved back, as a
    workload that shifts the head evaluates them."""
    box = PhantomBox(
        origin=(-scale + shift[0], -scale + shift[1], -5e-4), size=(2 * scale, 2 * scale, 1e-3)
    )
    return rasterize(Phantom([box]), (spacing, spacing, 1.0)).pos[:, :2] - np.asarray(shift)


def _near_boundaries(steps=4):
    """Points up to ``steps`` ulps inside and outside every ellipse at
    both ends of both of its axes, in units of the half-width."""
    points = []
    for e in _HEAD_ELLIPSES:
        phi = math.radians(e.phi_deg)
        c, s = math.cos(phi), math.sin(phi)
        for r, (ux, uy) in ((e.a, (c, s)), (e.b, (-s, c))):
            for sign in (1.0, -1.0):
                x = e.x0 + sign * r * ux
                y = e.y0 + sign * r * uy
                for _ in range(steps):
                    x, y = np.nextafter(x, -np.inf), np.nextafter(y, -np.inf)
                for _ in range(2 * steps + 1):
                    points.append((x, y))
                    points.append((x, e.y0 + sign * r * uy))
                    points.append((e.x0 + sign * r * ux, y))
                    x, y = np.nextafter(x, np.inf), np.nextafter(y, np.inf)
    return points


def test_head_phantom_bit_identical_to_reference():
    scale = 0.255
    spacing = 0.5 / 64 / 1.5 * 0.999
    cases = {
        # crit. 6's lattice: one spin per pixel of a 64^2 image
        "crit. 6": (_lattice_sites(scale, 0.5 / 64 * 0.999), scale),
        # head96_loop's lattice: 1.5 spins per pixel, shifted by a sub-voxel
        "head96_loop": (_lattice_sites(scale, spacing, (0.37 * spacing, -0.21 * spacing)), scale),
        "random": (np.random.default_rng(7).uniform(-1.05, 1.05, (100_000, 2)), 1.0),
        "boundaries": (np.array(_near_boundaries()), 1.0),
        "boundaries, scaled": (np.array(_near_boundaries()) * scale, scale),
    }
    for name, (points, s) in cases.items():
        want = [reference_shepp_logan_m0(x, y, s) for x, y in points]
        assert shepp_logan_m0(points[:, 0], points[:, 1], s).tolist() == want, name
        # scalars take the same code as arrays; the random points are
        # checked as one array only
        if name != "random":
            got = [shepp_logan_m0(x, y, s) for x, y in points]
            assert got == want, name
    # the boundary points reach the outside and every region
    values = {shepp_logan_m0(x, y) for x, y in _near_boundaries()}
    assert {0.0} | {e.m0 for e in _HEAD_ELLIPSES} <= values


def test_head_phantom_takes_scalars_and_arrays():
    for x, y in ((0.0, 0.1), (np.float64(0.0), np.float64(0.1)), (np.array(0.0), 0.1)):
        value = shepp_logan_m0(x, y)
        assert type(value) is float and value == 0.80
    assert type(shepp_logan_m0(0.9, 0.9)) is float
    # arrays broadcast together and keep their shape
    xs = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
    got = shepp_logan_m0(xs, 0.35, scale=2.0)
    assert got.shape == (2, 3)
    assert got.tolist() == [[reference_shepp_logan_m0(x, 0.35, 2.0) for x in row] for row in xs]
    assert shepp_logan_m0(np.zeros(0), np.zeros(0)).shape == (0,)


def test_head_phantom_outside_emits_no_spins():
    ph = shepp_logan(0.1)
    spins = rasterize(ph, (0.004, 0.004, 1.0))
    for s in spins:
        r = np.hypot(s.position[0] / 0.1 / 0.69, s.position[1] / 0.1 / 0.92)
        assert r <= 1.0 + 1e-9


def test_head_phantom_uniform_relaxation():
    spins = rasterize(shepp_logan(0.1), (0.01, 0.01, 1.0))
    assert {s.relax.t1 for s in spins} == {1.0}
    assert {s.relax.t2 for s in spins} == {0.2}


def test_head_phantom_count_scales_with_spacing():
    coarse = rasterize(shepp_logan(0.1), (0.008, 0.008, 1.0))
    fine = rasterize(shepp_logan(0.1), (0.004, 0.004, 1.0))
    assert len(fine) == pytest.approx(4 * len(coarse), rel=0.1)


# ---------------------------------------------------------------------------
# description files
# ---------------------------------------------------------------------------

OBJECT_FILE = """
# two boxes, one with an affine off-resonance ramp
[box]
origin_m = -0.05 -0.05 -0.001
size_m = 0.1 0.1 0.002
m0 = 1.0
t1_s = 0.8
t2_s = 0.1
delta_omega_rad_s = affine: 10.0 + 200.0*x - 50.0*z

[box]
origin_m = 0, 0, 0
size_m = 0.02, 0.02, 0.002
m0 = affine: 0.5 + 1.0*y
t2_s = 0.05
"""


def test_parse_object_file():
    ph = parse_object_file(OBJECT_FILE)
    assert len(ph.boxes) == 2
    box = ph.boxes[0]
    assert box.delta_omega(0.01, 0.0, 0.0) == pytest.approx(12.0)
    assert ph.boxes[1].m0(0.0, 0.1, 0.0) == pytest.approx(0.6)
    assert ph.boxes[1].t2 == 0.05


def test_parse_object_shepp_logan_block():
    ph = parse_object_file("[shepp_logan]\nscale_m = 0.25\n")
    lo, hi = ph.bounding_box()
    assert hi[0] - lo[0] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "line",
    [
        "t1_s = 0",
        "t2_s = -1",
        "m0 = -0.5",
        "m0 = nan",
        "m0 = inf",
        "delta_omega_rad_s = nan",
        "delta_omega_rad_s = -inf",
        "size_m = 0,1,1",
        "size_m = 1 1 -1e-3",
        "origin_m = nan 0 0",
        "origin_m = 0 0 -inf",
        "size_m = nan 1 1",
        "size_m = 1 inf 1",
        # affine coefficients that overflow to inf; they parsed and failed
        # in rasterize without a line
        "m0 = affine: 1e999",
        "t1_s = affine: -1e999 + 1*x",
        "t2_s = affine: 0.1 + 1e999*x",
        "delta_omega_rad_s = affine: 1 - 1e999*y",
        "m0 = affine: 1 + 2*x + 1e999 * z",
    ],
)
def test_parse_object_rejects_bad_box_value_at_its_line(line):
    # the key under test is set once, at line 5; t2_s takes its place
    key = line.split("=")[0].strip()
    base = "".join(
        f"{k} = {v}\n" if k != key else "t2_s = 0.1\n"
        for k, v in {"origin_m": "0 0 0", "size_m": "1 1 1"}.items()
    )
    text = f"# phantom\n[box]\n{base}{line}\nt1_s = 2\n"
    with pytest.raises(ParseError) as info:
        parse_object_file(text)
    assert info.value.line == 5
    assert "already set" not in str(info.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1"])
def test_parse_object_rejects_a_head_scale_at_its_line(value):
    # a NaN scale parsed and failed in rasterize with a bare ValueError, and
    # -1 escaped as an InvalidParameter without a line
    text = f"[box]\norigin_m = 0 0 0\nsize_m = 1 1 1\n[shepp_logan]\nscale_m = {value}\n"
    with pytest.raises(ParseError, match="scale must be positive and finite") as info:
        parse_object_file(text)
    assert info.value.line == 5


def test_parse_object_leaves_affine_tissue_to_rasterize():
    ph = parse_object_file("[box]\norigin_m = 0 0 0\nsize_m = 1 1 1\nt2_s = affine: 0.1 + 1*x\n")
    assert ph.boxes[0].t2(-0.2, 0.0, 0.0) == pytest.approx(-0.1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("coefficient", ["c", "gx", "gy", "gz"])
def test_affine_coefficients_must_be_finite(coefficient, value):
    with pytest.raises(InvalidParameter, match="affine coefficients must be finite"):
        Affine(**{"c": 1.0, coefficient: value})


def test_parse_object_accepts_an_infinite_constant_t1():
    ph = parse_object_file("[box]\norigin_m = 0 0 0\nsize_m = 1 1 1\nt1_s = inf\n")
    assert ph.boxes[0].t1 == math.inf


def test_parse_object_errors():
    with pytest.raises(ParseError):
        parse_object_file("[box]\norigin_m = 1 2\nsize_m = 1 1 1\n")
    with pytest.raises(ParseError):
        parse_object_file("[box]\nsize_m = 1 1 1\n")
    with pytest.raises(ParseError):
        parse_object_file("[box]\norigin_m = 0 0 0\nsize_m = 1 1 1\nm0 = affine: nope*x\n")
