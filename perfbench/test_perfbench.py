"""Fast self-test of the benchmark: python3 -m pytest perfbench -q

Checks BENCHMARK.json against the benchmark's contract and runs every
workload on a shrunken input, untraced and with the tracer installed,
checking the outputs, the metric names and the result line's schema.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, calibration, run  # noqa: E402
from perfbench.tracer import Span, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS) and 2 <= len(names) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0.0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(set(all_names)) == len(all_names)
    assert all(NAME.match(n) for n in all_names)
    assert all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload(name, trace, monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    metrics, samples, ledger = bench.measure(name, 1, 0.0, trace, size="tiny")
    assert ledger.failed == 0, ledger.problems
    line = json.loads(json.dumps(run.result_line(SPEC, metrics, trace, ledger)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = line["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    if not trace:
        assert all(line["metrics"][m["name"]]["value"] > 0 for m in listed)


def test_host_speed_scales_by_the_calibrations_around_each_interval():
    assert 0.0 < calibration.calibration_seconds() < 5.0
    assert 0.0 < calibration.startup_seconds() < 30.0
    times = iter([0.2, 0.3, 0.5])
    speed = calibration.HostSpeed(lambda: next(times), 0.25)
    assert speed.factor() == pytest.approx(1.0)
    assert speed.factor() == pytest.approx(0.625)


def test_tracer_restores_mrsim():
    import mrsim
    import mrsim.engine

    before = (mrsim.run, mrsim.engine.compute_block, mrsim.simulate_kt)
    with Tracer():
        assert mrsim.engine.compute_block is not before[1]
    assert (mrsim.run, mrsim.engine.compute_block, mrsim.simulate_kt) == before


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "tse128_pool", "--seed", "0", "--seconds", "1", "--trace", "0"]) == 2


def test_run_accounting_rejects_overlapping_spans():
    tracer = Tracer()
    run_span = Span(0, "run", 0.0, 10.0, None)
    tracer.spans = [run_span] + [
        Span(i + 1, stage, float(i), float(i) + 0.5, 0)
        for i, stage in enumerate(bench.RUN_STAGES)
    ]
    assert bench.account_run(tracer) == []
    assert bench.uncovered(tracer, run_span) == 10.0 - 0.5 * len(bench.RUN_STAGES)
    tracer.spans.append(Span(len(tracer.spans), "compute_block", 0.2, 0.7, 0))
    assert bench.account_run(tracer)
