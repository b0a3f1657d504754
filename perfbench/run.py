"""mrsim benchmark: run one workload and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the simulator is imported from its
``src/`` directory.  Workloads and metrics (names, units, bounds) are
defined in ``BENCHMARK.json`` at the root.  ``--trace 0`` measures the
end-to-end metrics with no instrumentation; ``--trace 1`` wraps mrsim's
stage functions in spans and reports the per-layer metrics.  Both
check the outputs.  The end-to-end times and rates are scaled to a
reference host speed measured by a calibration task around every timed
interval (see ``perfbench/calibration.py``); the raw wall-clock medians
are printed beside them.

The output starts with the hardware fingerprint (machine, nproc,
numpy/scipy versions, multiprocessing start method), then one line per
metric (median, sample count, range) and, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  failed / attempted is the failed fraction; an operation
is one simulation plus its checks.

Self-test on shrunken inputs: ``python3 -m pytest perfbench -q``.
Reference echoes of the default seed: ``perfbench/make_reference.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def use_checkout_sources() -> None:
    """Import mrsim from this checkout's src/, never from elsewhere."""
    if not (ROOT / "src" / "mrsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no mrsim sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def result_line(spec: dict, metrics: dict, trace: bool, ledger) -> dict:
    """The final JSON object; metrics must match BENCHMARK.json exactly."""
    listed = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in listed]
    if set(names) != set(metrics):
        raise KeyError(
            f"measured metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}"
        )
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        use_checkout_sources()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from perfbench import bench

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} {bench.fingerprint()}")
    metrics, samples, ledger = bench.measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    if metrics is None:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    line = result_line(spec, metrics, bool(args.trace), ledger)
    for name, entry in line["metrics"].items():
        values = samples[name]
        wall = samples.get(bench.WALL + name)
        print(
            f"{name:28s} {entry['value']:14.6g} {entry['unit']:10s} "
            f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"
            + (f" raw wall-clock median={statistics.median(wall):.6g}" if wall else "")
        )
    print(f"failed_frac {ledger.failed / ledger.attempted:.6g} ({ledger.failed} of {ledger.attempted})")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
