import math

import numpy as np
import pytest

import mrsim.recon as recon_mod
from mrsim.errors import FitDiverged, InvalidParameter, TrajectoryMismatch
from mrsim.io import read_raw_grid
from mrsim.recon import (
    ExponentialFit,
    ImageVolume,
    KSpaceMatrix,
    assemble_kspace,
    cpmg_fit,
    export_image,
    forward_dft,
    reconstruct,
    standard_axes,
    trajectory_table,
)

from oracles import reference_cpmg_fit


def make_kspace(data, fov=0.5):
    ny, nx = data.shape
    ky0, dky = standard_axes(fov, ny)
    kx0, dkx = standard_axes(fov, nx)
    return KSpaceMatrix(
        data=np.asarray(data, dtype=complex),
        row_filled=np.ones(ny, dtype=bool),
        k0=(ky0, kx0),
        dk=(dky, dkx),
    )


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_assemble_se_rows_ascending():
    echoes = np.arange(8 * 4).reshape(8, 4).astype(complex)
    k = assemble_kspace(echoes, trajectory_table("se", 8), n_rows=8, fov=0.5)[0]
    assert np.array_equal(k.data, echoes)
    assert k.row_filled.all()


def test_assemble_epi_reverses_odd_rows():
    echoes = np.arange(4 * 5).reshape(4, 5).astype(complex)
    k = assemble_kspace(echoes, trajectory_table("epi", 4), n_rows=4, fov=0.5)[0]
    assert np.array_equal(k.data[0], echoes[0])
    assert np.array_equal(k.data[1], echoes[1][::-1])
    # reversing twice is the identity
    again = assemble_kspace(k.data, trajectory_table("epi", 4), n_rows=4, fov=0.5)[0]
    assert np.array_equal(again.data[1], echoes[1])


def test_assemble_tse_sequential_rows():
    table = trajectory_table("tse-seq", 8)
    assert [row for _, row, _ in table] == list(range(8))


def test_assemble_volumes_split():
    echoes = np.ones((6, 4), dtype=complex)
    table = [(e % 3, e // 3, False) for e in range(6)]
    mats = assemble_kspace(echoes, table, n_rows=2, fov=0.5)
    assert [m.volume for m in mats] == [0, 1, 2]
    assert all(m.row_filled.all() for m in mats)


def test_assemble_rejects_duplicate_rows():
    echoes = np.ones((2, 4), dtype=complex)
    with pytest.raises(TrajectoryMismatch):
        assemble_kspace(echoes, [(0, 1, False), (0, 1, False)], n_rows=4)


def test_assemble_rejects_count_mismatch():
    with pytest.raises(TrajectoryMismatch):
        assemble_kspace(np.ones((3, 4), dtype=complex), [(0, 0, False)], n_rows=4)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"fov": 0.0}, "fov must be > 0 and finite"),
        ({"fov": -0.2}, "fov must be > 0 and finite"),
        ({"fov": math.nan}, "fov must be > 0 and finite"),
        ({"fov": math.inf}, "fov must be > 0 and finite"),
        ({"n_rows": 0}, "n_rows must be an integer >= 1"),
        ({"n_rows": -2}, "n_rows must be an integer >= 1"),
        ({"n_rows": 2.5}, "n_rows must be an integer >= 1"),
    ],
    ids=["fov_zero", "fov_negative", "fov_nan", "fov_inf", "rows_zero", "rows_negative", "rows_half"],
)
def test_assemble_rejects_a_fov_or_row_count_out_of_range(kwargs, message):
    # unchecked, a zero fov divides by zero, a negative one flips the k
    # step, NaN makes NaN axes, inf a zero step, and -2 rows numpy's error
    echoes = np.ones((2, 4), dtype=complex)
    with pytest.raises(InvalidParameter, match=message):
        assemble_kspace(echoes, [(0, 0, False), (0, 1, False)], **kwargs)


@pytest.mark.parametrize(
    "echoes, trajectory",
    [(np.ones((1, 4)), [(0, -3, False)]), (np.ones((0, 4)), [])],
    ids=["rows_all_negative", "empty"],
)
def test_assemble_without_a_row_count_rejects_a_trajectory_without_a_row(echoes, trajectory):
    # the largest row sizes the matrix, and here there is none >= 0
    with pytest.raises(TrajectoryMismatch, match="no row >= 0"):
        assemble_kspace(echoes, trajectory)


@pytest.mark.parametrize("n_rows", [None, 4])
def test_assemble_names_an_acquisition_without_a_row(n_rows):
    # int(None) was a bare TypeError
    echoes = np.ones((2, 4), dtype=complex)
    with pytest.raises(TrajectoryMismatch, match="acquisition 1 has no k-space row"):
        assemble_kspace(echoes, [(0, 0, False), (0, None, False)], n_rows=n_rows)


def test_assemble_marks_missing_rows():
    echoes = np.ones((2, 4), dtype=complex)
    k = assemble_kspace(echoes, [(0, 0, False), (0, 2, False)], n_rows=4)[0]
    assert list(k.row_filled) == [True, False, True, False]


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_delta_at_k_center_gives_flat_magnitude():
    n = 16
    data = np.zeros((n, n), dtype=complex)
    data[n // 2, n // 2] = 1.0
    img = reconstruct(make_kspace(data))
    np.testing.assert_allclose(img.magnitude, img.magnitude[0, 0], rtol=1e-12)


def test_real_symmetric_object_reconstructs_with_flat_phase():
    # build k-space by forward transform of a real non-negative image
    n = 32
    image = np.zeros((n, n))
    image[10:22, 8:24] = 1.0
    vol = ImageVolume(complex_image=image.astype(complex), pixel_size=(0.5 / n, 0.5 / n))
    k0 = standard_axes(0.5, n)
    k = forward_dft(vol, k0=(k0[0], k0[0]), dk=(k0[1], k0[1]))
    img = reconstruct(k)
    mask = image > 0.5
    np.testing.assert_allclose(img.phase[mask], 0.0, atol=1e-10)


def test_round_trip_forward_then_reconstruct():
    rng = np.random.default_rng(2)
    n = 24
    data = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    vol = ImageVolume(complex_image=data, pixel_size=(1.0, 1.0))
    ky0, dky = standard_axes(0.4, n)
    k = forward_dft(vol, k0=(ky0, ky0), dk=(dky, dky))
    back = reconstruct(k)
    np.testing.assert_allclose(back.complex_image, data, rtol=1e-10, atol=1e-12)


def test_parseval_with_inverse_normalization():
    rng = np.random.default_rng(3)
    n = 16
    data = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    img = reconstruct(make_kspace(data))
    k_energy = np.sum(np.abs(data) ** 2)
    img_energy = np.sum(np.abs(img.complex_image) ** 2)
    assert img_energy == pytest.approx(k_energy / (n * n), rel=1e-10)


def test_gibbs_overshoot_of_truncated_box_spectrum():
    # classic partial-sum oracle: sample the analytic spectrum of a 1-D
    # box on a finite symmetric grid, evaluate the partial Fourier sum on
    # a fine grid, and measure the first overshoot above the plateau
    fov, n = 0.5, 256
    k0, dk = standard_axes(fov, n)
    k = k0 + dk * np.arange(n)
    length = 0.21 * fov  # edges off the pixel grid
    spectrum = length * np.sinc(k * length / 2 / math.pi)
    x = np.linspace(-0.2 * fov, 0.2 * fov, 8001)
    partial = (spectrum[None, :] * np.exp(1j * np.outer(x, k))).sum(axis=1) * dk / (2 * math.pi)
    plateau = np.median(partial.real[np.abs(x) < 0.05 * length])
    overshoot = partial.real.max() / plateau - 1.0
    assert overshoot == pytest.approx(0.0895, abs=0.01)


def test_reconstruct_half_sample_offset_has_no_phase_ramp():
    # without the half-sample correction a symmetric readout would add a
    # pi-per-half-canvas linear phase ramp across the image
    n = 16
    data = np.zeros((n, n), dtype=complex)
    data[n // 2, n // 2] = 1.0
    img = reconstruct(make_kspace(data))
    # delta at the (half-offset) center: phase varies linearly by half a
    # sample step; adjacent-pixel phase difference must equal dk/2 * dx
    dphi = np.angle(img.complex_image[8, 9] / img.complex_image[8, 8])
    expected = (2 * math.pi / 0.5) / 2.0 * img.pixel_size[1]
    assert dphi == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# exponential fit
# ---------------------------------------------------------------------------


FIT_T = np.arange(1, 13) * 0.02


def decay_series(t2, noise, seed=4):
    """0.8 exp(-t/T2) at FIT_T, times 1 + noise * N(0, 1)."""
    rng = np.random.default_rng(seed)
    return 0.8 * np.exp(-FIT_T / t2) * (1.0 + noise * rng.normal(size=FIT_T.size))


def test_cpmg_fit_exact_series():
    fit = cpmg_fit(FIT_T, decay_series(0.2, 0.0))
    assert fit.rho == pytest.approx(0.8, abs=1e-9)
    assert fit.t2 == pytest.approx(0.2, abs=1e-9)
    assert isinstance(fit, ExponentialFit)


def test_cpmg_fit_survives_noise():
    fit = cpmg_fit(FIT_T, decay_series(0.15, 0.01))
    assert fit.t2 == pytest.approx(0.15, rel=0.05)


@pytest.mark.parametrize(
    "t2, noise, seed", [(0.2, 0.0, 4), (0.15, 0.01, 4), (0.05, 1e-3, 5), (0.4, 1e-3, 6)]
)
def test_cpmg_fit_matches_least_squares(t2, noise, seed):
    y = decay_series(t2, noise, seed)
    rho, t2_fit = reference_cpmg_fit(FIT_T, y)
    fit = cpmg_fit(FIT_T, y)
    assert fit.rho == pytest.approx(rho, rel=1e-9)
    assert fit.t2 == pytest.approx(t2_fit, rel=1e-9)


def test_cpmg_fit_diverges_when_its_budget_runs_out(monkeypatch):
    monkeypatch.setattr(recon_mod, "_FIT_MAX_NFEV", 2)
    with pytest.raises(FitDiverged, match="did not converge"):
        cpmg_fit(FIT_T, decay_series(0.15, 0.01))


def test_cpmg_fit_constant_series_diverges():
    t = np.arange(1, 13) * 0.02
    with pytest.raises(FitDiverged):
        cpmg_fit(t, np.full(12, 0.7))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("which", ["times", "intensities"])
def test_cpmg_fit_rejects_values_that_are_not_finite(which, value):
    # a NaN time breaks the seed's regression, a NaN intensity the
    # residual norm
    series = {"times": FIT_T.copy(), "intensities": decay_series(0.2, 0.0)}
    series[which][3] = value
    with pytest.raises(InvalidParameter, match=f"{which} must be finite"):
        cpmg_fit(series["times"], series["intensities"])


def test_cpmg_fit_rejects_nonpositive_series():
    t = np.arange(1, 13) * 0.02
    with pytest.raises(FitDiverged):
        cpmg_fit(t, np.zeros(12))


# ---------------------------------------------------------------------------
# image export
# ---------------------------------------------------------------------------


def test_export_image_writes_pgm_and_raw(tmp_path):
    img = ImageVolume(
        complex_image=np.outer(np.arange(4), np.ones(6)).astype(complex),
        pixel_size=(1e-3, 1e-3),
    )
    path = str(tmp_path / "img.pgm")
    export_image(img, path, window=(0.0, 3.0))
    with open(path, "rb") as fh:
        assert fh.readline() == b"P5\n"
        assert fh.readline() == b"6 4\n"
        assert fh.readline() == b"255\n"
        payload = np.frombuffer(fh.read(), dtype=np.uint8).reshape(4, 6)
    assert payload[0, 0] == 0
    assert payload[3, 0] == 255  # window upper bound maps to white
    raw = read_raw_grid(path + ".raw")
    np.testing.assert_allclose(raw, img.complex_image)


def test_export_constant_image(tmp_path):
    img = ImageVolume(complex_image=np.full((3, 3), 2.0 + 0j), pixel_size=(1, 1))
    path = str(tmp_path / "const.pgm")
    export_image(img, path)
    with open(path, "rb") as fh:
        fh.readline(), fh.readline(), fh.readline()
        payload = np.frombuffer(fh.read(), dtype=np.uint8)
    assert len(set(payload.tolist())) == 1
