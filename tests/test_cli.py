import json
import os
import re

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
    assert "deterministic" not in manifest
    stages = manifest["stages_s"]
    assert list(stages) == ["spacing", "rasterize", "system_eval", "tables", "kernel", "reduce"]
    assert sum(stages.values()) <= manifest["wall_time_s"]
    assert list(manifest["cpu_s"]) == list(manifest["busy_fraction"])
    assert all(s >= 0.0 for s in manifest["cpu_s"].values())
    assert manifest["spacing_check_s"] == 0.0  # the automatic spacing is checked by no one
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
    # the machine lines hold plain numbers, never a numpy scalar's repr
    machine = [line.split("=") for line in out.splitlines() if re.fullmatch(r"\w+=\S+", line)]
    assert len(machine) >= 9
    for _key, value in machine:
        float(value)


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


def test_log_level_prints_mrsim_debug_lines(workdir, capsys):
    args = [
        "kt-diagram",
        "--sequence",
        str(workdir / "seq.txt"),
        "--tissue",
        "1.0,0.2",
        "--out",
        str(workdir / "logged.csv"),
    ]
    assert main(args) == 0
    assert capsys.readouterr().err == ""
    assert main(["--log-level", "DEBUG", *args]) == 0
    err = capsys.readouterr().err
    # 8 rows of 4 elements: 8 encoding lobes, one shared 180, readout and filler
    assert "DEBUG mrsim.ktspace: k-t walk: 32 elements, 11 distinct" in err
    assert main(args) == 0
    assert capsys.readouterr().err == ""


def test_spacing_override_takes_inf_as_one_spin_along_the_axis(workdir, recwarn):
    # the spin echo has no k excursion along z, where `mrsim spacing` recommends inf
    for z in ("inf", "1.0"):
        argv = [*SIMULATE, "--spacing-override", f"0.005,0.005,{z}", "--out", f"{{w}}/z_{z}"]
        assert main([arg.format(w=workdir) for arg in argv]) == 0
    assert [str(w.message) for w in recwarn] == []
    inf, wide = (read_echo_file(str(workdir / f"z_{z}" / "echoes.mrsim")) for z in ("inf", "1.0"))
    assert np.isfinite(inf).all() and np.array_equal(inf, wide)


def test_manifest_is_strict_json_with_inf_as_a_string(workdir):
    argv = [*SIMULATE, "--spacing-override", "0.005,0.005,inf", "--out", "{w}/strict"]
    assert main([arg.format(w=workdir) for arg in argv]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    text = (workdir / "strict" / "echoes.mrsim.manifest.json").read_text()
    manifest = json.loads(text, parse_constant=reject)
    assert [float(v) for v in manifest["spacing_m"]] == [0.005, 0.005, float("inf")]
    assert 0.0 < manifest["spacing_check_s"] <= manifest["stages_s"]["kernel"]


def test_fit_t2_cli(workdir, capsys):
    series = workdir / "series.txt"
    t = np.arange(1, 13) * 0.02
    np.savetxt(series, np.column_stack([t, 0.5 * np.exp(-t / 0.12)]))
    assert main(["fit-t2", "--series", str(series)]) == 0
    out = capsys.readouterr().out
    assert "t2_s=" in out
    t2 = float([line for line in out.splitlines() if line.startswith("t2_s=")][0].split("=")[1])
    assert t2 == pytest.approx(0.12, rel=1e-6)


ROWS = [f"0 {row} false" for row in range(8)]
TABLES = {
    "table_two_columns.txt": "\n".join(ROWS[:3] + ["0 3"] + ROWS[4:]),
    "table_rev_yes.txt": "\n".join(ROWS[:3] + ["0 3 yes"] + ROWS[4:]),
}
SERIES = {
    "series_nan_time.txt": "0.02 0.5\nnan 0.4\n0.06 0.3",
    "series_inf_time.txt": "0.02 0.5\ninf 0.4\n0.06 0.3",
}
SIMULATE = ["simulate", "--sequence", "{w}/seq.txt", "--object", "{w}/object.txt"]
KT_DIAGRAM = ["kt-diagram", "--sequence", "{w}/seq.txt", "--out", "{w}/bad.csv"]
RECON = ["recon", "--echoes", "{run}/echoes.mrsim", "--size", "8", "8", "--fov", "0.2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["fit-t2", "--series", "{w}/object.txt"],
        ["fit-t2", "--series", "{w}/series_nan_time.txt"],
        ["fit-t2", "--series", "{w}/series_inf_time.txt"],
        [*KT_DIAGRAM, "--tissue", "1.0"],
        [*KT_DIAGRAM, "--tissue", "1,0.1,1,7"],
        [*SIMULATE, "--spacing-override", "a,b,c", "--out", "{w}/bad"],
        [*SIMULATE, "--spacing-override", "nan,0.001,0.001", "--out", "{w}/bad"],
        [*SIMULATE, "--snapshot", "x", "--out", "{w}/bad"],
        [*SIMULATE, "--snapshot", "5.0", "--out", "{w}/bad"],
        [*RECON, "--trajectory", "table:{w}/table_two_columns.txt", "--out", "{w}/bad.pgm"],
        [*RECON, "--trajectory", "table:{w}/table_rev_yes.txt", "--out", "{w}/bad.pgm"],
        [*RECON[:3], "--size", "4", "8", "--trajectory", "se", "--out", "{w}/bad.pgm"],
        *(
            [*RECON[:6], "--fov", fov, "--trajectory", "se", "--out", "{w}/bad.pgm"]
            for fov in ("0", "-0.2", "nan", "inf")
        ),
        [*RECON[:4], "8", "-2", "--trajectory", "se", "--out", "{w}/bad.pgm"],
        ["compare", "--ref", RECON[2], "--test", RECON[2], "--rel-threshold", "nan"],
    ],
    ids=[
        "series_not_two_columns",
        "series_time_nan",
        "series_time_inf",
        "tissue_one_value",
        "tissue_four_values",
        "spacing_override_not_numbers",
        "spacing_override_nan",
        "snapshot_not_a_number",
        "snapshot_after_the_sequence",
        "table_two_columns",
        "table_rev_yes",
        "size_nx_not_the_sample_count",
        "recon_fov_zero",
        "recon_fov_negative",
        "recon_fov_nan",
        "recon_fov_inf",
        "recon_rows_negative",
        "compare_threshold_nan",
    ],
)
def test_cli_reports_errors_cleanly(argv, workdir, simulated, capsys):
    for name, text in {**TABLES, **SERIES}.items():
        (workdir / name).write_text(text + "\n")
    code = main([arg.format(w=workdir, run=simulated) for arg in argv])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_always_folds_in_block_order_and_takes_no_flag_for_it(workdir, capsys):
    argv = [*SIMULATE, "--deterministic", "--out", "{w}/flag"]
    with pytest.raises(SystemExit) as exc:
        main([arg.format(w=workdir) for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments: --deterministic" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--delta-omega-bound", "100"), ("--char-length", "0.1")])
def test_spacing_takes_no_off_resonance_margin_flags(workdir, capsys, flag, value):
    argv = ["spacing", "--sequence", "{w}/seq.txt", flag, value]
    with pytest.raises(SystemExit) as exc:
        main([arg.format(w=workdir) for arg in argv])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_simulate_reports_acquisitions_of_different_lengths(workdir, capsys):
    # a 4-sample and a 1-sample readout make no echo matrix
    text = (
        "[elementary]\nduration_s = 0.001\nrf_flip_deg = 90\n"
        "[elementary]\nduration_s = 0.004\ngrad_x_mT_per_m = 0.1\nacquire = 4\n"
        "[elementary]\nduration_s = 0.001\ngrad_x_mT_per_m = 0.1\nacquire = 1\n"
    )
    (workdir / "uneven.txt").write_text(text)
    argv = ["simulate", "--sequence", "{w}/uneven.txt", "--object", "{w}/object.txt"]
    assert main([arg.format(w=workdir) for arg in [*argv, "--out", "{w}/uneven"]]) == 2
    assert "error: acquisitions take [1, 4] samples" in capsys.readouterr().err


def test_simulate_without_acquisitions_writes_snapshot_and_empty_echoes(workdir):
    text = "[elementary]\nduration_s = 0.01\nrf_flip_deg = 90\ngrad_x_mT_per_m = 1\n"
    (workdir / "no_acq.txt").write_text(text)
    out = workdir / "no_acq"
    argv = ["simulate", "--sequence", "{w}/no_acq.txt", "--object", "{w}/object.txt"]
    argv += ["--snapshot", "0.005", "--out", str(out)]
    assert main([arg.format(w=workdir) for arg in argv]) == 0
    from mrsim.io import read_snapshot_file

    t, arr = read_snapshot_file(str(out / "snapshot_000.mrsim"))
    assert t == 0.005 and arr.shape[1] == 3 and arr.shape[0] > 0
    assert read_echo_file(str(out / "echoes.mrsim")).shape == (0, 0)
    with open(out / "echoes.mrsim", "rb") as fh:
        assert fh.readline().decode().split() == ["MRSIM1", "0", "0"]
