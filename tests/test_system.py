import math

import numpy as np
import pytest
from scipy.special import ellipe, ellipk, hyp2f1

from mrsim.bloch import GAMMA_PROTON
from mrsim.engine import build_spin_arrays
from mrsim.errors import InvalidParameter, OutOfGrid, ParseError
from mrsim.phantom import Affine, Phantom, PhantomBox, rasterize
from mrsim.system import (
    _SERIES_BELOW,
    MU_0,
    CircularLoop,
    Legendre12Inhomogeneity,
    ScalarGrid,
    StaticField,
    SystemModel,
    UniformSensitivity,
    complex_weight,
    default_system,
    load_scalar_grid,
    load_vector_grid,
    parse_system_file,
    spin_off_resonance,
    _ellipke,
    _loop_hyp2f1,
)

from oracles import legendre_recurrence, loop_field_quadrature, loop_field_scipy


def test_legendre12_at_origin_is_zero():
    field = StaticField(b0=1.5, inhomogeneity=Legendre12Inhomogeneity(c=20e-6, r=0.25))
    assert field.delta_b0((0, 0, 0)) == 0.0


def test_legendre12_on_axis_at_radius():
    inhom = Legendre12Inhomogeneity(c=20e-6, r=0.25)
    assert inhom((0, 0, 0.25)) == pytest.approx(-20e-6, rel=1e-12)


def test_legendre12_equator_half_radius():
    c, r = 20e-6, 0.25
    inhom = Legendre12Inhomogeneity(c=c, r=r)
    p12_0 = legendre_recurrence(12, 0.0)
    assert p12_0 == pytest.approx(0.2255859375)
    assert inhom((r / 2, 0, 0)) == pytest.approx(-c * 0.5**12 * p12_0, rel=1e-12)


def test_legendre12_axially_symmetric():
    inhom = Legendre12Inhomogeneity(c=20e-6, r=0.25)
    rad, z = 0.11, 0.07
    values = [
        inhom((rad * math.cos(a), rad * math.sin(a), z))
        for a in np.linspace(0, 2 * math.pi, 17)
    ]
    np.testing.assert_allclose(values, values[0], rtol=1e-12)


def test_scalar_grid_reproduces_nodes_and_interpolates():
    values = np.arange(27, dtype=float).reshape(3, 3, 3)
    grid = ScalarGrid(shape=(3, 3, 3), origin=(0, 0, 0), step=(1, 1, 1), values=values)
    for iz in range(3):
        for iy in range(3):
            for ix in range(3):
                assert grid((ix, iy, iz)) == values[iz, iy, ix]
    assert grid((0.5, 0, 0)) == pytest.approx((values[0, 0, 0] + values[0, 0, 1]) / 2)
    with pytest.raises(OutOfGrid):
        grid((5.0, 0, 0))


def test_spin_off_resonance_on_resonance_is_zero():
    sys = default_system(b0=1.5)
    assert spin_off_resonance(sys.field, (0, 0, 0), 0.0) == 0.0


def test_spin_off_resonance_per_microtesla():
    field = StaticField(b0=1.5, inhomogeneity=lambda x: 1e-6)
    dw = spin_off_resonance(field, (0, 0, 0), 0.0)
    assert dw == pytest.approx(2 * math.pi * 42.6, rel=1e-12)


def test_spin_off_resonance_additive():
    sys = default_system(b0=1.5)
    assert spin_off_resonance(sys.field, (0, 0, 0), 100.0) == pytest.approx(100.0)


# ---------------------------------------------------------------------------
# models on arrays of positions, against independent oracles
# ---------------------------------------------------------------------------


def test_scalar_grid_is_exact_for_an_affine_field_on_arrays():
    shape, origin, step = (4, 5, 3), (-0.1, 0.2, -0.05), (0.05, 0.04, 0.1)

    def affine(x, y, z):
        return 0.3 + 2.0 * x - 1.5 * y + 0.7 * z

    nodes = [origin[a] + step[a] * np.arange(shape[a]) for a in range(3)]
    z, y, x = np.meshgrid(nodes[2], nodes[1], nodes[0], indexing="ij")
    grid = ScalarGrid(shape=shape, origin=origin, step=step, values=affine(x, y, z))
    lo = np.array(origin)
    hi = lo + np.array(step) * (np.array(shape) - 1)
    points = np.random.default_rng(5).uniform(lo, hi, (200, 3))
    got = grid(points)
    assert got.shape == (200,)
    # trilinear interpolation reproduces an affine field up to rounding
    np.testing.assert_allclose(got, affine(*points.T), rtol=0, atol=1e-14)
    assert grid(points.reshape(10, 20, 3)).shape == (10, 20)
    assert grid(tuple(points[7])) == got[7]
    points[123] = hi + np.array([0.0, 0.01, 0.0])
    with pytest.raises(OutOfGrid, match="axis y"):
        grid(points)


def test_legendre12_on_arrays_matches_recurrence_row_by_row():
    c, r = 20e-6, 0.25
    points = np.random.default_rng(8).uniform(-0.3, 0.3, (300, 3))
    points[0] = 0.0
    got = Legendre12Inhomogeneity(c=c, r=r)(points)
    assert got.shape == (300,) and got[0] == 0.0
    for p, value in zip(points[1:], got[1:]):
        rad = math.sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
        want = -c * (rad / r) ** 12 * legendre_recurrence(12, p[2] / rad)
        assert value == pytest.approx(want, rel=1e-12, abs=1e-24)


def test_loop_on_axis_array_matches_closed_form():
    a, z0 = 0.075, 0.02
    loop = CircularLoop(center=(0, 0, z0), normal=(0, 0, 1), diameter=2 * a)
    z = np.linspace(-0.3, 0.3, 301)
    points = np.column_stack([np.zeros_like(z), np.zeros_like(z), z])
    b = loop(points)
    want = MU_0 * a**2 / (2 * (a**2 + (z - z0) ** 2) ** 1.5)
    np.testing.assert_allclose(b[:, 2], want, rtol=1e-10)
    np.testing.assert_allclose(b[:, :2], 0.0, atol=1e-10 * want.max())
    quadrature = loop_field_quadrature(loop, points)
    np.testing.assert_allclose(b, quadrature, rtol=0, atol=1e-10 * want.max())
    assert np.array_equal(loop(points[5]), b[5])


def test_build_spin_arrays_matches_per_spin_scalar_calls():
    system = SystemModel(
        field=StaticField(b0=1.5, inhomogeneity=Legendre12Inhomogeneity(c=20e-6, r=0.25)),
        receive=CircularLoop(center=(0.01, 0, 0.1), normal=(0, 0.2, 1), diameter=0.15),
    )
    box = PhantomBox(
        origin=(-0.2, -0.16, -5e-4), size=(0.4, 0.32, 1e-3), delta_omega=Affine(3.0, gx=40.0)
    )
    spins = rasterize(Phantom([box]), (0.016, 0.016, 1.0))
    arrays = build_spin_arrays(spins, system)
    for i, spin in enumerate(spins):
        want = spin_off_resonance(system.field, spin.position, spin.delta_omega)
        assert arrays.domega[i] == pytest.approx(want, rel=1e-12, abs=1e-9)
        assert arrays.weight[i] == complex_weight(system.receive, spin.position)
    assert np.ptp(arrays.domega) > 1.0 and np.ptp(np.abs(arrays.weight)) > 0.0


# ---------------------------------------------------------------------------
# receive sensitivity
# ---------------------------------------------------------------------------


def test_uniform_sensitivity():
    s = UniformSensitivity(s=1.0)
    np.testing.assert_allclose(s((0.1, 0.2, 0.3)), [1.0, 0.0, 0.0])
    assert complex_weight(s, (0, 0, 0)) == 1.0 + 0.0j


def test_loop_center_field_matches_closed_form():
    loop = CircularLoop(center=(0, 0, 0), normal=(0, 0, 1), diameter=0.15)
    b = loop((0, 0, 0))
    np.testing.assert_allclose(b[:2], 0.0, atol=1e-18)
    assert b[2] == pytest.approx(MU_0 / 0.15, rel=1e-10)


def test_loop_on_axis_closed_form():
    a = 0.075
    loop = CircularLoop(center=(0, 0, 0), normal=(0, 0, 1), diameter=2 * a)
    z = 0.1
    want = MU_0 * a**2 / (2 * (a**2 + z**2) ** 1.5)
    assert loop((0, 0, z))[2] == pytest.approx(want, rel=1e-10)


def test_loop_quadrature_converges():
    loop = CircularLoop(center=(0, 0, 0), normal=(0, 1, 0), diameter=0.15)
    point = (0.05, 0.03, 0.02)  # > D/10 from the wire
    b = loop(point)
    for segments in (256, 512):
        quadrature = loop_field_quadrature(loop, point, segments)
        np.testing.assert_allclose(quadrature, b, atol=1e-8 * np.linalg.norm(b))


def test_loop_closed_form_matches_fine_quadrature_off_axis():
    loop = CircularLoop(center=(0.01, 0, 0.1), normal=(0.3, -0.5, 0.8), diameter=0.15)
    points = np.random.default_rng(4).uniform(-0.25, 0.25, (500, 3))
    b = loop(points)
    quadrature = loop_field_quadrature(loop, points, 4096)
    rel = np.linalg.norm(b - quadrature, axis=-1) / np.linalg.norm(quadrature, axis=-1)
    assert rel.max() < 1e-12
    # a point a hair off the axis: the radial part keeps its digits
    axis = np.array([0.3, -0.5, 0.8]) / np.linalg.norm([0.3, -0.5, 0.8])
    near = np.array([0.01, 0, 0.1]) + 0.05 * axis + 1e-15 * np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(loop(near), loop_field_quadrature(loop, near), rtol=1e-12)


def test_loop_elliptic_functions_match_scipy():
    threshold = np.array([np.nextafter(_SERIES_BELOW, 0.0), _SERIES_BELOW])
    m = np.concatenate(
        [
            [0.0, 1e-300, 1e-20, 1e-8, 1e-4],  # on and near the axis
            threshold,
            _SERIES_BELOW + np.linspace(-0.05, 0.05, 11),
            np.linspace(0.01, 0.99, 99),
            # towards the wire; closer, scipy's hyp2f1 itself drifts
            # (rel 2e-13 at 1 - m = 1e-14 against 30-digit arithmetic)
            1.0 - np.logspace(-12, -1, 23),
        ]
    )
    k, e = _ellipke(m)
    np.testing.assert_allclose(k, ellipk(m), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(e, ellipe(m), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(
        _loop_hyp2f1(m, k, e), hyp2f1(0.5, 1.5, 3.0, m), rtol=1e-13, atol=0.0
    )
    assert _loop_hyp2f1(np.array(0.0), *_ellipke(np.array(0.0))) == 1.0


def test_loop_field_matches_scipy_closed_form_from_axis_to_wire():
    a = 0.075
    loop = CircularLoop(center=(0.01, 0.0, 0.1), normal=(0.3, -0.5, 0.8), diameter=2 * a)
    n = np.array(loop.normal) / np.linalg.norm(loop.normal)
    u = np.cross(n, [1.0, 0.0, 0.0])
    u /= np.linalg.norm(u)
    # rho / a: the axis, near it, both sides of the series threshold
    # (m = 1/2 in the plane at rho / a = 3 - 2 sqrt 2) and up to the wire
    frac = np.concatenate(
        [
            [0.0, 1e-12, 1e-6],
            (3.0 - 2.0 * math.sqrt(2.0)) * (1.0 + np.linspace(-1e-3, 1e-3, 5)),
            np.linspace(0.01, 0.99, 99),
            1.0 - np.logspace(-5, -2, 7),
        ]
    )
    heights = np.array([0.0, 1e-7, 1e-3, 0.5]) * a
    points = (
        np.asarray(loop.center)
        + (frac[:, None, None] * a * u)
        + heights[None, :, None] * n
    ).reshape(-1, 3)
    want, m = loop_field_scipy(loop, points)
    assert m.min() == 0.0 and m.max() > 1.0 - 1e-9
    assert np.any((m < _SERIES_BELOW) & (m > _SERIES_BELOW - 1e-3))
    assert np.any((m >= _SERIES_BELOW) & (m < _SERIES_BELOW + 1e-3))
    b = loop(points)
    rel = np.linalg.norm(b - want, axis=-1) / np.linalg.norm(want, axis=-1)
    assert rel.max() <= 1e-13
    # where the midpoint rule converges, at least D/10 from the wire
    wire_distance = np.hypot(a * (1.0 - frac[:, None]), heights[None, :]).ravel()
    far = wire_distance >= 0.2 * a
    quadrature = loop_field_quadrature(loop, points[far], 4096)
    rel = np.linalg.norm(b[far] - quadrature, axis=-1) / np.linalg.norm(quadrature, axis=-1)
    assert rel.max() < 1e-12


def test_loop_rejects_points_on_the_wire():
    loop = CircularLoop(center=(0, 0, 0.1), normal=(0, 0, 1), diameter=0.15)
    with pytest.raises(InvalidParameter, match="loop wire"):
        loop(np.array([[0.0, 0.0, 0.0], [0.075, 0.0, 0.1]]))


@pytest.mark.parametrize(
    "center, normal",
    [((0, 0), (0, 0, 1)), ((0, 0, 0), (0, 1)), ((0, 0, 0), (0, 0, 1, 0))],
    ids=["short_center", "short_normal", "long_normal"],
)
def test_loop_rejects_center_or_normal_that_is_not_a_3_vector(center, normal):
    with pytest.raises(InvalidParameter, match="3-vectors"):
        CircularLoop(center=center, normal=normal, diameter=0.15)


def test_loop_axis_points_receive_nothing():
    # on the loop axis the coil field is purely longitudinal: dark zone
    loop = CircularLoop(center=(0, 0, 0.2), normal=(0, 0, 1), diameter=0.15)
    w = complex_weight(loop, (0, 0, 0.0))
    assert abs(w) < 1e-18
    off_axis = complex_weight(loop, (0.05, 0.0, 0.0))
    assert abs(off_axis) > 1e-12 * MU_0


# ---------------------------------------------------------------------------
# description files
# ---------------------------------------------------------------------------


def test_parse_system_file_legendre_and_loop():
    text = (
        "[static_field]\n"
        "b0_T = 1.5\n"
        "inhomogeneity = legendre12 C_uT=20 R_m=0.25\n"
        "[receive]\n"
        "model = loop center_m=0,0,0.1 normal=0,0,1 diameter_m=0.15\n"
    )
    sys = parse_system_file(text)
    assert sys.field.b0 == 1.5
    assert isinstance(sys.field.inhomogeneity, Legendre12Inhomogeneity)
    assert sys.field.inhomogeneity.c == pytest.approx(20e-6)
    assert isinstance(sys.receive, CircularLoop)


def test_parse_system_grid_file(tmp_path):
    path = tmp_path / "field.grid"
    header = "2 2 2 0 0 0 0.1 0.1 0.1\n"
    values = " ".join(str(v * 1e-6) for v in range(8))
    path.write_text(header + values + "\n")
    sys = parse_system_file(
        "[static_field]\nb0_T = 1.0\ninhomogeneity = grid file=field.grid\n",
        base_dir=str(tmp_path),
    )
    assert sys.field.delta_b0((0.1, 0.0, 0.0)) == pytest.approx(1e-6)
    assert sys.field.delta_b0((0.0, 0.1, 0.1)) == pytest.approx(6e-6)


def test_parse_system_requires_b0():
    with pytest.raises(ParseError):
        parse_system_file("[receive]\nmodel = uniform\n")


def test_load_scalar_grid_rejects_malformed_number(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("2 2 x 0 0 0 1 1 1\n" + " ".join(["0"] * 8) + "\n")
    with pytest.raises(ParseError, match="bad.grid"):
        load_scalar_grid(str(path))


@pytest.mark.parametrize(
    "text", ["[static_field]\nb0_T = 1.5\ninhomogeneity =\n", "[receive]\nmodel =\n"]
)
def test_parse_system_empty_model_names_line(text):
    with pytest.raises(ParseError, match="needs a model") as err:
        parse_system_file(text)
    assert err.value.line == text.count("\n")


def test_load_scalar_grid_rejects_wrong_count(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("2 2 2 0 0 0 1 1 1\n1 2 3\n")
    with pytest.raises(ParseError):
        load_scalar_grid(str(path))


@pytest.mark.parametrize(
    "text, line",
    [
        ("[static_field]\nb0_T = abc\n", 2),
        ("[static_field]\nb0_T = 1.5\ninhomogeneity = legendre12 C_uT=x R_m=0.25\n", 3),
        ("[static_field]\nb0_T = 1.5\ninhomogeneity = legendre12 C_uT=20 R_m=y\n", 3),
        ("[static_field]\nb0_T = 1.5\n[receive]\nmodel = uniform S=z\n", 4),
        (
            "[static_field]\nb0_T = 1.5\n[receive]\n"
            "model = loop center_m=0,0,0.1 normal=0,0,1 diameter_m=w\n",
            4,
        ),
    ],
    ids=["b0_T", "C_uT", "R_m", "S", "diameter_m"],
)
def test_parse_system_malformed_number_names_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_system_file(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "loop",
    ["center_m=0,0 normal=0,0,1", "center_m=0,0,0.1 normal=0,1", "center_m=0,0,0,1 normal=0,0,1"],
    ids=["short_center", "short_normal", "long_center"],
)
def test_parse_system_loop_needs_3_vectors(loop):
    text = f"[static_field]\nb0_T = 1.5\n[receive]\nmodel = loop {loop} diameter_m=0.15\n"
    with pytest.raises(ParseError, match="3-vectors") as err:
        parse_system_file(text)
    assert err.value.line == 4


@pytest.mark.parametrize(
    "text, line",
    [
        ("[static_field]\nb0_T = 1.5\n[receive]\nmodel = uniform\n[static_field]\nb0_T = 3\n", 6),
        (
            "[static_field]\nb0_T = 1.5\n[receive]\nmodel = uniform S=2\n"
            "[receive]\nmodel = uniform\n",
            6,
        ),
        ("[static_field]\nb0_T = 1.5\ninhomogeneity = legendre12 C_uT=1 R_m=0.2 C_uT=2\n", 3),
        ("[static_field]\nb0_T = 1.5\ninhomogeneity = legendre12 C_uT=1 R_m=0.2 r=1\n", 3),
        ("[static_field]\nb0_T = 1.5\ninhomogeneity = none C_uT=1\n", 3),
    ],
    ids=[
        "b0_in_two_blocks",
        "model_in_two_blocks",
        "repeated_model_parameter",
        "unknown_model_parameter",
        "parameter_of_none",
    ],
)
def test_parse_system_rejects_parameters_it_would_ignore(text, line):
    with pytest.raises(ParseError) as err:
        parse_system_file(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "block, missing",
    [
        ("[static_field]\nb0_T = 1\ninhomogeneity = grid file={}\n", "nope.grid"),
        ("[static_field]\nb0_T = 1\n[receive]\nmodel = grid file={}\n", "nope.grid"),
        # a directory is there but cannot be read as a grid
        ("[static_field]\nb0_T = 1\ninhomogeneity = grid file={}\n", "."),
        ("[static_field]\nb0_T = 1\ninhomogeneity = grid file={}\n", "binary.grid"),
    ],
    ids=["missing_inhomogeneity", "missing_receive", "unreadable", "not_text"],
)
def test_parse_system_grid_file_that_cannot_be_read_names_line(tmp_path, block, missing):
    (tmp_path / "binary.grid").write_bytes(b"\xff\xfe\x00")
    text = block.format(missing)
    with pytest.raises(ParseError, match="cannot read grid file") as err:
        parse_system_file(text, base_dir=str(tmp_path))
    assert err.value.line == text.count("\n")


def test_system_model_takes_no_gyromagnetic_ratio():
    # mrsim simulates protons: the spacing bound and the kernel share GAMMA_PROTON
    with pytest.raises(TypeError):
        SystemModel(field=StaticField(b0=1.5), receive=UniformSensitivity(), gamma=2 * GAMMA_PROTON)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize(
    "make",
    [
        lambda v: Legendre12Inhomogeneity(c=v, r=0.25),
        lambda v: Legendre12Inhomogeneity(c=20e-6, r=v),
        lambda v: UniformSensitivity(s=v),
        lambda v: CircularLoop(center=(0.0, 0.0, v), normal=(0.0, 0.0, 1.0), diameter=0.15),
        lambda v: CircularLoop(center=(0.0, 0.0, 0.1), normal=(0.0, v, 1.0), diameter=0.15),
        lambda v: CircularLoop(center=(0.0, 0.0, 0.1), normal=(0.0, 0.0, 1.0), diameter=v),
    ],
    ids=["legendre_c", "legendre_r", "uniform_s", "loop_center", "loop_normal", "loop_diameter"],
)
def test_system_models_reject_non_finite_parameters(make, value):
    # each NaN was accepted and reached the off-resonance or the coil weights
    with pytest.raises(InvalidParameter, match="finite"):
        make(value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "text",
    [
        "[static_field]\nb0_T = 1.5\ninhomogeneity = legendre12 C_uT={} R_m=0.25\n",
        "[static_field]\nb0_T = 1.5\ninhomogeneity = legendre12 C_uT=20 R_m={}\n",
        "[static_field]\nb0_T = 1.5\n[receive]\nmodel = uniform S={}\n",
        "[static_field]\nb0_T = 1.5\n[receive]\n"
        "model = loop center_m=0,0,{} normal=0,0,1 diameter_m=0.15\n",
        "[static_field]\nb0_T = 1.5\n[receive]\n"
        "model = loop center_m=0,0,0.1 normal=0,0,1 diameter_m={}\n",
    ],
    ids=["C_uT", "R_m", "S", "center_m", "diameter_m"],
)
def test_parse_system_rejects_a_non_finite_parameter_at_its_line(text, value):
    with pytest.raises(ParseError, match="finite") as err:
        parse_system_file(text.format(value))
    assert err.value.line == text.count("\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("at", [0, 4, 7, 9], ids=["shape", "origin", "step", "value"])
def test_grid_files_reject_non_finite_numbers(tmp_path, at, value):
    # float() read each of them; an infinite shape raised a bare OverflowError
    for load, per_node in [(load_scalar_grid, 1), (load_vector_grid, 3)]:
        numbers = "2 2 2 0 0 0 0.1 0.1 0.1".split() + ["0"] * (8 * per_node)
        numbers[at] = value
        path = tmp_path / "bad.grid"
        path.write_text(" ".join(numbers) + "\n")
        with pytest.raises(ParseError, match="bad.grid: .*finite"):
            load(str(path))


def test_parse_system_names_the_line_of_a_grid_file_with_a_non_finite_value(tmp_path):
    (tmp_path / "field.grid").write_text("2 2 2 0 0 0 0.1 0.1 0.1\n0 0 0 nan 0 0 0 0\n")
    text = "[static_field]\nb0_T = 1\ninhomogeneity = grid file=field.grid\n"
    with pytest.raises(ParseError, match="finite") as err:
        parse_system_file(text, base_dir=str(tmp_path))
    assert err.value.line == 3


@pytest.mark.parametrize("b0", [0.0, -1.5, math.nan, math.inf, -math.inf])
def test_static_field_rejects_a_b0_that_is_not_positive_and_finite(b0):
    # b0 is informational, as both engines work in the rotating frame, and
    # NaN and negative values were accepted
    with pytest.raises(InvalidParameter, match="b0 must be positive and finite"):
        StaticField(b0=b0)


@pytest.mark.parametrize("value", ["0", "-1.5", "nan", "inf", "-inf"])
def test_parse_system_rejects_a_bad_b0_at_its_line(value):
    text = f"# system\n[static_field]\nb0_T = {value}\n[receive]\nmodel = uniform\n"
    with pytest.raises(ParseError, match="b0_T: b0 must be positive and finite") as err:
        parse_system_file(text)
    assert err.value.line == 3
