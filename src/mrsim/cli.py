"""Command-line front end.

Subcommands: simulate, compare, recon, kt-diagram, fit-t2, spacing.
Experiment inputs are text description files (see the package README
for the grammars); results are written as simple binary files with
text headers plus a JSON manifest.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

import numpy as np

from . import io as mrio
from .bloch import RelaxationParams
from .discretize import max_spacing
from .engine import Experiment, compare_results, run
from .errors import MrSimError, ParseError
from .grammar import boolean, numbers, parse_number
from .ktspace import export_kt_diagram, simulate_kt
from .phantom import parse_object_file
from .recon import assemble_kspace, cpmg_fit, export_image, reconstruct, trajectory_table
from .sequence import parse_sequence_file
from .system import default_system, parse_system_file


def _load_sequence(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sequence_file(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def _load_object(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_object_file(fh.read())


def _load_system(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system_file(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))


def _cmd_simulate(args) -> int:
    sequence = _load_sequence(args.sequence)
    phantom = _load_object(args.object)
    system = _load_system(args.system) if args.system else default_system()
    spacing = None
    if args.spacing_override:
        spacing = parse_number(args.spacing_override, "--spacing-override", None, numbers(3))
    snapshots = parse_number(args.snapshot, "--snapshot", None, numbers()) if args.snapshot else ()
    result = run(
        Experiment(
            sequence=sequence,
            phantom=phantom,
            system=system,
            spacing=spacing,
            workers=args.workers,
            snapshot_times=snapshots,
        )
    )
    os.makedirs(args.out, exist_ok=True)
    echo_path = os.path.join(args.out, "echoes.mrsim")
    manifest = {
        "sequence": sequence.name,
        "spin_count": result.spin_count,
        "spacing_m": list(result.spacing),
        "workers": result.metrics.workers,
        "blocks": result.metrics.blocks,
        "wall_time_s": result.metrics.wall_time_s,
        "stages_s": result.metrics.stages,
        "spacing_check_s": result.metrics.spacing_check_s,
        "throughput_spins_per_s": result.metrics.throughput,
        "busy_fraction": result.metrics.busy_fraction,
        "cpu_s": result.metrics.cpu_s,
        "hardware": result.metrics.hardware,
        "acquisition_t0_s": [rec.timestamps[0] for rec in result.echoes],
        "sample_dt_s": [
            (rec.timestamps[1] - rec.timestamps[0]) if rec.timestamps.size > 1 else 0.0
            for rec in result.echoes
        ],
        "trajectory": sequence.trajectory_table(),
    }
    mrio.write_echo_file(echo_path, result.echo_matrix(), manifest)
    for i, (t, arr) in enumerate(result.snapshots):
        mrio.write_snapshot_file(os.path.join(args.out, f"snapshot_{i:03d}.mrsim"), t, arr)
    if result.spacing_report is not None:
        with open(os.path.join(args.out, "spacing.txt"), "w", encoding="utf-8") as fh:
            fh.write(result.spacing_report.text() + "\n")
    print(
        f"simulated {result.spin_count} spins, {len(result.echoes)} acquisitions -> {echo_path}"
    )
    print(
        f"wall {result.metrics.wall_time_s:.3f} s, "
        f"throughput {result.metrics.throughput:.1f} spins/s on {result.metrics.hardware}"
    )
    return 0


def _cmd_compare(args) -> int:
    ref = mrio.read_echo_file(args.ref)
    test = mrio.read_echo_file(args.test)
    cmp = compare_results(ref, test, rel_threshold=args.rel_threshold)
    print(f"delta_e_stoer_db={cmp.delta_e_db!r}")
    print(f"exceedances={cmp.exceedances}")
    print(f"compared={cmp.compared}")
    print(f"rel_threshold={cmp.rel_threshold!r}")
    return 0


def _read_table(path: str) -> list:
    """Trajectory table: one ``volume row reversed`` line per acquisition."""
    table = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 3:
                raise ParseError(f"{path}: expected volume row reversed, got {line!r}", lineno)
            columns = zip(parts, ("volume", "row", "reversed"), (int, int, boolean))
            table.append(tuple(parse_number(v, key, lineno, kind) for v, key, kind in columns))
    return table


def _cmd_recon(args) -> int:
    echoes = mrio.read_echo_file(args.echoes)
    if args.size[0] != echoes.shape[1]:
        raise MrSimError(f"--size NX is {args.size[0]}, the echoes have {echoes.shape[1]} samples")
    if args.trajectory.startswith("table:"):
        table = _read_table(args.trajectory[len("table:") :])
    else:
        table = trajectory_table(args.trajectory, echoes.shape[0])
    matrices = assemble_kspace(echoes, table, n_rows=args.size[1], fov=args.fov)
    base, ext = os.path.splitext(args.out)
    outputs = []
    for k in matrices:
        img = reconstruct(k)
        path = args.out if len(matrices) == 1 else f"{base}_vol{k.volume:03d}{ext}"
        export_image(img, path)
        outputs.append(path)
    print("\n".join(outputs))
    return 0


def _cmd_kt_diagram(args) -> int:
    sequence = _load_sequence(args.sequence)
    t1, t2, *m0 = parse_number(args.tissue, "--tissue", None, numbers(2, 3))
    runout = simulate_kt(sequence, RelaxationParams(t1=t1, t2=t2, m0=m0[0] if m0 else 1.0))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(export_kt_diagram(runout.trace))
    print(args.out)
    return 0


def _cmd_fit_t2(args) -> int:
    try:
        data = np.loadtxt(args.series, ndmin=2)
    except ValueError as exc:
        raise MrSimError(f"cannot read series file {args.series}: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 2:
        raise MrSimError("series file needs two columns: time_s intensity")
    fit = cpmg_fit(data[:, 0], data[:, 1])
    print(f"rho={fit.rho!r}")
    print(f"t2_s={fit.t2!r}")
    print(f"residual_norm={fit.residual_norm!r}")
    return 0


def _cmd_spacing(args) -> int:
    sequence = _load_sequence(args.sequence)
    phantom = _load_object(args.object) if args.object else None
    report = max_spacing(sequence, phantom=phantom)
    print(report.text())
    print(report.machine_lines())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mrsim", description=__doc__)
    parser.add_argument(
        "--log-level",
        default=None,
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="print the mrsim logger's messages at this level and above to stderr "
        "(default: not configured)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a spin-level simulation")
    sim.add_argument("--sequence", required=True)
    sim.add_argument("--object", required=True)
    sim.add_argument("--system", default=None)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--spacing-override", default=None, metavar="DX,DY,DZ")
    sim.add_argument("--snapshot", default=None, metavar="T1,T2,...")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    cmp = sub.add_parser("compare", help="compare two echo files")
    cmp.add_argument("--ref", required=True)
    cmp.add_argument("--test", required=True)
    cmp.add_argument("--rel-threshold", type=float, default=1e-6)
    cmp.set_defaults(func=_cmd_compare)

    rec = sub.add_parser("recon", help="assemble k-space and reconstruct")
    rec.add_argument("--echoes", required=True)
    rec.add_argument("--trajectory", required=True, help="se | epi | tse-seq (= se) | table:PATH")
    rec.add_argument("--size", type=int, nargs=2, required=True, metavar=("NX", "NY"))
    rec.add_argument("--fov", type=float, default=None)
    rec.add_argument("--out", default="image.pgm")
    rec.set_defaults(func=_cmd_recon)

    ktd = sub.add_parser("kt-diagram", help="export a quantitative k-t diagram")
    ktd.add_argument("--sequence", required=True)
    ktd.add_argument("--tissue", required=True, metavar="T1,T2[,M0]")
    ktd.add_argument("--out", required=True)
    ktd.set_defaults(func=_cmd_kt_diagram)

    fit = sub.add_parser("fit-t2", help="exponential fit of an intensity series")
    fit.add_argument("--series", required=True)
    fit.set_defaults(func=_cmd_fit_t2)

    spc = sub.add_parser("spacing", help="spatial discretization report")
    spc.add_argument("--sequence", required=True)
    spc.add_argument("--object", default=None)
    spc.set_defaults(func=_cmd_spacing)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logger = logging.getLogger("mrsim")
    handler, level = None, logger.level
    if args.log_level is not None:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)
        logger.setLevel(args.log_level)
    try:
        return args.func(args)
    except (MrSimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if handler is not None:
            logger.removeHandler(handler)
            logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
