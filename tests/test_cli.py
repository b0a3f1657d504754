import json
import math
import os

import numpy as np
import pytest

from mrsim.cli import main
from mrsim.io import read_echo_file
from mrsim.sequence import build_spin_echo, readout_gradient, serialize_sequence

SYSTEM_FILE = """
[static_field]
b0_T = 1.5
inhomogeneity = none
[receive]
model = uniform
"""

OBJECT_FILE = """
[box]
origin_m = -0.04 -0.03 -0.0005
size_m = 0.08 0.06 0.001
m0 = 1.0
t1_s = 1.0
t2_s = 0.2
delta_omega_rad_s = 0
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    seq = build_spin_echo(
        fov=0.2, n=8, te=0.03, tr=0.6, readout_grad=readout_gradient(0.2, 8, 0.01)
    )
    (root / "seq.txt").write_text(serialize_sequence(seq))
    (root / "object.txt").write_text(OBJECT_FILE)
    (root / "system.txt").write_text(SYSTEM_FILE)
    return root


@pytest.fixture(scope="module")
def simulated(workdir):
    out = workdir / "run"
    code = main(
        [
            "simulate",
            "--sequence",
            str(workdir / "seq.txt"),
            "--object",
            str(workdir / "object.txt"),
            "--system",
            str(workdir / "system.txt"),
            "--workers",
            "1",
            "--deterministic",
            "--snapshot",
            "0.0,0.02",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    return out


def test_simulate_writes_snapshots(simulated):
    from mrsim.io import read_snapshot_file

    t, arr = read_snapshot_file(str(simulated / "snapshot_001.mrsim"))
    assert t == 0.02
    assert arr.shape[1] == 3 and arr.shape[0] > 0


def test_simulate_writes_outputs(simulated):
    echoes = read_echo_file(str(simulated / "echoes.mrsim"))
    assert echoes.shape == (8, 8)
    with open(simulated / "echoes.mrsim.manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["n_acq"] == 8
    assert manifest["spin_count"] > 0
    assert len(manifest["trajectory"]) == 8
    assert os.path.exists(simulated / "spacing.txt")


def test_compare_identical_runs(simulated, capsys):
    path = str(simulated / "echoes.mrsim")
    assert main(["compare", "--ref", path, "--test", path]) == 0
    out = capsys.readouterr().out
    assert "exceedances=0" in out
    assert "delta_e_stoer_db=-inf" in out


def test_recon_from_cli(simulated, workdir, capsys):
    out = workdir / "img.pgm"
    code = main(
        [
            "recon",
            "--echoes",
            str(simulated / "echoes.mrsim"),
            "--trajectory",
            "se",
            "--size",
            "8",
            "8",
            "--fov",
            "0.2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    assert (workdir / "img.pgm.raw").exists()


def test_spacing_report(workdir, capsys):
    code = main(
        [
            "spacing",
            "--sequence",
            str(workdir / "seq.txt"),
            "--object",
            str(workdir / "object.txt"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "k_max_x_rad_per_m=" in out
    assert "spacing report" in out


def test_kt_diagram(workdir, capsys):
    out = workdir / "diagram.csv"
    code = main(
        [
            "kt-diagram",
            "--sequence",
            str(workdir / "seq.txt"),
            "--tissue",
            "1.0,0.2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header, *rows = out.read_text().splitlines()
    assert header == "time_s,kind,order_i,kx_rad_per_m,pop_re,pop_im"
    assert rows
    for row in rows:
        time_s, kind, order, kx, pop_re, pop_im = row.split(",")
        assert kind in ("transversal", "longitudinal")
        int(order)
        for value in (time_s, kx, pop_re, pop_im):
            float(value)


def test_fit_t2_cli(workdir, capsys):
    series = workdir / "series.txt"
    t = np.arange(1, 13) * 0.02
    np.savetxt(series, np.column_stack([t, 0.5 * np.exp(-t / 0.12)]))
    assert main(["fit-t2", "--series", str(series)]) == 0
    out = capsys.readouterr().out
    assert "t2_s=" in out
    t2 = float([line for line in out.splitlines() if line.startswith("t2_s=")][0].split("=")[1])
    assert t2 == pytest.approx(0.12, rel=1e-6)


def test_cli_reports_errors_cleanly(workdir, capsys):
    code = main(
        ["fit-t2", "--series", str(workdir / "object.txt")]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
