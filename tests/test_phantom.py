import numpy as np
import pytest

from mrsim.bloch import Magnetization, RelaxationParams
from mrsim.engine import build_spin_arrays
from mrsim.errors import InvalidParameter, ParseError, SpinBudgetExceeded
from mrsim.system import default_system
from mrsim.phantom import (
    Affine,
    Phantom,
    PhantomBox,
    SpinSample,
    parse_object_file,
    rasterize,
    shepp_logan,
    shepp_logan_m0,
)


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


def test_spin_budget_enforced():
    box = PhantomBox(origin=(0, 0, 0), size=(1, 1, 1), m0=1.0)
    with pytest.raises(SpinBudgetExceeded):
        rasterize(Phantom([box]), (1e-3, 1e-3, 1e-3), cap=1000)


def test_affine_properties_evaluated_at_positions():
    box = PhantomBox(
        origin=(0, 0, 0), size=(0.1, 1e-3, 1e-3), m0=Affine(1.0, gx=10.0), t1=1.0, t2=0.1
    )
    spins = rasterize(Phantom([box]), (0.01, 1.0, 1.0))
    for s in spins:
        assert s.relax.m0 == pytest.approx(1.0 + 10.0 * s.position[0])
        assert s.m.mz == s.relax.m0  # thermal equilibrium start
        assert (s.m.mx, s.m.my) == (0.0, 0.0)


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
                    m=Magnetization(0.0, 0.0, m0),
                    relax=RelaxationParams(t1=0.9, t2=0.05 + x, m0=m0),
                    delta_omega=box.delta_omega(x, y, 5e-4),
                )
            )
    assert len(spins) == len(expected)
    for got, want in zip(list(spins), expected):
        assert got.position == pytest.approx(want.position, abs=1e-15)
        assert got.m == want.m and got.delta_omega == pytest.approx(want.delta_omega)
        assert got.relax.t2 == pytest.approx(want.relax.t2)
    assert spins[-1] == list(spins)[-1]
    assert spins[2:4] == list(spins)[2:4]
    # the engine reads the arrays; spins start in thermal equilibrium
    packed = build_spin_arrays(spins, default_system())
    for name in ("pos", "t1", "t2", "m0"):
        assert getattr(packed, name) is getattr(spins, name), name
    assert np.array_equal(packed.mz, spins.m0) and not packed.mx.any() and not packed.my.any()
    assert np.array_equal(packed.domega, spins.delta_omega)


def test_rasterize_checks_tissue_like_relaxation_params():
    def cube(**props):
        return Phantom([PhantomBox(origin=(0, 0, 0), size=(0.1, 0.1, 0.1), **props)])

    with pytest.raises(InvalidParameter, match="relaxation times must be positive"):
        rasterize(cube(t2=0.0), (0.05, 0.05, 0.05))
    with pytest.raises(InvalidParameter, match="m0 must be non-negative"):
        rasterize(cube(m0=-1.0), (0.05, 0.05, 0.05))
    with pytest.warns(UserWarning, match="exceeds t1"):
        rasterize(cube(t1=0.1, t2=0.2), (0.05, 0.05, 0.05))


def test_equilibrium_magnetization_scale_invariance():
    box = PhantomBox(origin=(0, 0, 0), size=(0.1, 0.1, 1e-3), m0=0.7)
    for d in (0.01, 0.005):
        spins = rasterize(Phantom([box]), (d, d, 1.0))
        assert sum(s.relax.m0 for s in spins) / len(spins) == pytest.approx(0.7)


def test_box_size_must_be_positive():
    with pytest.raises(InvalidParameter):
        PhantomBox(origin=(0, 0, 0), size=(1.0, 0.0, 1.0))


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
    ["t1_s = 0", "t2_s = -1", "m0 = -0.5", "size_m = 0,1,1", "size_m = 1 1 -1e-3"],
)
def test_parse_object_rejects_bad_box_value_at_its_line(line):
    text = f"# phantom\n[box]\norigin_m = 0 0 0\nsize_m = 1 1 1\n{line}\nt1_s = 2\n"
    with pytest.raises(ParseError) as info:
        parse_object_file(text)
    assert info.value.line == 5


def test_parse_object_leaves_affine_tissue_to_rasterize():
    ph = parse_object_file("[box]\norigin_m = 0 0 0\nsize_m = 1 1 1\nt2_s = affine: 0.1 + 1*x\n")
    assert ph.boxes[0].t2(-0.2, 0.0, 0.0) == pytest.approx(-0.1)


def test_parse_object_errors():
    with pytest.raises(ParseError):
        parse_object_file("[box]\norigin_m = 1 2\nsize_m = 1 1 1\n")
    with pytest.raises(ParseError):
        parse_object_file("[box]\nsize_m = 1 1 1\n")
    with pytest.raises(ParseError):
        parse_object_file("[box]\norigin_m = 0 0 0\nsize_m = 1 1 1\nm0 = affine: nope*x\n")
