"""Measurement of one workload: end-to-end (untraced) or per layer (traced).

An *operation* is one simulation plus its reconstruction, fit and
checks; operations repeat until the run's seconds are used up and each
metric reports the median over them.  Every operation's echoes must be
bit-identical to the first one's (deterministic reduction), and the
first one is compared with the checked-in reference on the default
seed.

The end-to-end times and rates are scaled to the reference host speed
(:mod:`perfbench.calibration`); the first operation warms up and is
left out of them when more than one ran.  Per-layer times are raw wall
time.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np
import scipy

import mrsim

from perfbench.calibration import (
    REFERENCE_S,
    STARTUP_REFERENCE_S,
    HostSpeed,
    calibration_seconds,
    startup_seconds,
)
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, Outcome, Workload

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
# prefix of the raw wall-time samples kept beside a scaled metric
WALL = "wall:"
# stages mrsim.run must pass through on every spin workload
RUN_STAGES = (
    "max_spacing",
    "rasterize",
    "build_spin_arrays",
    "precompute_sequence_tables",
    "partition_blocks",
    "compute_block",
)


def fingerprint() -> str:
    return (
        f"hardware={platform.machine()} {platform.processor() or 'cpu'} "
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__} "
        f"start_method={mp.get_start_method()}"
    )


class Ledger:
    """Counts operations and keeps the reason of every failed one."""

    def __init__(self):
        self.attempted = 0
        self.problems: List[str] = []
        self.failed = 0

    def record(self, what: str, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems


def _operate(workload: Workload, ledger: Ledger, what: str, exp=None):
    """One checked operation; None when mrsim raised."""
    try:
        return workload.operate(exp)
    except mrsim.MrSimError as exc:
        ledger.record(what, [f"raised {exc!r}"])
        return None


def _same(a: Outcome, b: Outcome, what: str) -> List[str]:
    if a.echoes.shape == b.echoes.shape and np.array_equal(a.echoes, b.echoes):
        return []
    return [f"echoes are not bit-identical to {what}"]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _setup_seconds(name: str, seed: int, size: str):
    """Wall times, raw and scaled to the reference host speed, of fresh
    processes that import mrsim and build the inputs."""
    probe = HERE / "setup_probe.py"
    speed = HostSpeed(startup_seconds, STARTUP_REFERENCE_S)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(probe), name, str(seed), size],
            check=True,
            cwd=HERE.parent,
            timeout=120,
        )
        raw.append(time.perf_counter() - started)
        scaled.append(raw[-1] * speed.factor())
    return raw, scaled


def _checked(workload: Workload, ledger: Ledger, first, outcome: Outcome, what: str) -> Outcome:
    problems = workload.check(outcome)
    if first is None:
        problems += workload.check_reference(outcome)
    else:
        problems += _same(outcome, first, "the first operation")
    ledger.record(what, problems)
    return outcome


def end_to_end(name: str, seed: int, seconds: float, size: str = "full"):
    """Untraced operations; returns (metrics, samples, ledger).

    The k-t workload has no spins of its own: each of its operations is
    followed by the spin-engine run that checks its echoes, and that run
    gives its spins_per_s.
    """
    workload = WORKLOADS[name](seed, size)
    oracle = getattr(workload, "spin_oracle", None)
    ledger = Ledger()
    outcomes: List[Outcome] = []
    # per operation: (raw time to image, its speed factor, raw spin rate, its factor)
    timings: List[tuple] = []
    speed = HostSpeed(calibration_seconds, REFERENCE_S)
    started = time.perf_counter()
    while ledger.attempted == 0 or time.perf_counter() - started < seconds:
        outcome = _operate(workload, ledger, "operation")
        if outcome is None:
            continue
        factor = speed.factor()
        first = outcomes[0] if outcomes else None
        outcomes.append(_checked(workload, ledger, first, outcome, "operation"))
        if oracle is None:
            rate, rate_factor = outcome.spins / outcome.run_wall, factor
        else:
            result, wall = oracle()
            rate, rate_factor = result.spin_count / wall, speed.factor()
            ledger.record("k-t vs spin engine", workload.check_against_spins(outcome, result))
        timings.append((outcome.time_to_image, factor, rate, rate_factor))
    if not outcomes:
        return None, {}, ledger
    timed = timings[1:] or timings
    # before the set-up probes, which are children too but not workers
    peak_rss_mb = _peak_rss_mb()
    setup_raw, setup_scaled = _setup_seconds(name, seed, size)
    samples: Dict[str, List[float]] = {
        "time_to_image_s": [t * f for t, f, _r, _g in timed],
        "spins_per_s": [r / g for _t, _f, r, g in timed],
        "peak_rss_mb": [peak_rss_mb],
        "setup_s": setup_scaled,
        WALL + "time_to_image_s": [t for t, _f, _r, _g in timed],
        WALL + "spins_per_s": [r for _t, _f, r, _g in timed],
        WALL + "setup_s": setup_raw,
    }
    metrics = {
        key: statistics.median(values) for key, values in samples.items() if not key.startswith(WALL)
    }
    return metrics, samples, ledger


def uncovered(tracer: Tracer, span) -> float:
    """Time inside span that none of its child spans covers."""
    gaps, edge = 0.0, span.start
    for child in sorted(tracer.children(span), key=lambda s: s.start):
        gaps += max(0.0, child.start - edge)
        edge = max(edge, child.end)
    return gaps + max(0.0, span.end - edge)


def account_run(tracer: Tracer) -> List[str]:
    """Check that every run span's children plus engine.other_s add up
    to its wall time, and that every stage of RUN_STAGES has a span.

    other_s is the time no child covers; the sum fails when children
    overlap each other or leave their run span.
    """
    problems = []
    for run in (s for s in tracer.spans if s.name == "run"):
        children = tracer.children(run)
        missing = set(RUN_STAGES) - {c.name for c in children}
        if missing:
            problems.append(f"run has no span for {sorted(missing)}")
        covered = sum(c.duration for c in children)
        other = uncovered(tracer, run)
        if abs(covered + other - run.duration) > 1e-9 * max(run.duration, 1.0):
            problems.append(
                f"child spans {covered:.9f} s + other {other:.9f} s != run {run.duration:.9f} s"
            )
    return problems


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer figures of one traced operation."""
    c = tracer.counts
    kernel = tracer.total("compute_block")
    system = tracer.total("build_spin_arrays")
    return {
        "discretize.spacing_s": tracer.self_time("max_spacing", "pruned_max_spacing"),
        "discretize.prune_s": tracer.total("steady_state_prune"),
        "ktspace.walk_s": tracer.self_time("simulate_kt"),
        "ktspace.synth_s": tracer.total("synthesize_echo"),
        "ktspace.trace_points": c["trace_points"],
        "ktspace.configs": c["configs"],
        "phantom.rasterize_s": tracer.total("rasterize"),
        "phantom.spins": c["spins"],
        "system.eval_s": system,
        "system.us_per_spin": 1e6 * system / c["spins"] if c["spins"] else 0.0,
        "engine.tables_s": tracer.total("precompute_sequence_tables"),
        "engine.events": c["events_per_spin"],
        "engine.pulse_memo_hits": c["pulse_memo_hits"],
        "engine.partition_s": tracer.total("partition_blocks"),
        "engine.kernel_s": kernel,
        "engine.spin_events": c["spin_events"],
        "engine.spin_events_per_s": c["spin_events"] / kernel if kernel else 0.0,
        "engine.other_s": sum(uncovered(tracer, s) for s in tracer.spans if s.name == "run"),
        "recon.s": tracer.total("assemble_kspace", "reconstruct", "cpmg_fit"),
    }


def per_layer(name: str, seed: int, seconds: float, size: str = "full"):
    """Alternating untraced and traced operations; returns (metrics, samples, ledger).

    The traced operation runs in one process.  On a pooled workload an
    untraced one-process operation runs as well, for the pool speed-up
    and so that tracing overhead compares equal worker counts.
    """
    workload = WORKLOADS[name](seed, size)
    ledger = Ledger()
    single_exp = workload.traced_experiment()
    pooled = workload.exp.workers > 1
    plain: List[Outcome] = []
    single: List[Outcome] = []
    traced: List[Outcome] = []
    layers: List[Dict[str, float]] = []
    started = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - started < seconds:
        cycles += 1
        outcome = _operate(workload, ledger, "operation")
        if outcome is None:
            continue
        first = plain[0] if plain else None
        plain.append(_checked(workload, ledger, first, outcome, "operation"))
        if pooled:
            outcome = _operate(workload, ledger, "one-process operation", single_exp)
            if outcome is None:
                continue
            single.append(_checked(workload, ledger, plain[0], outcome, "one-process operation"))
        tracer = Tracer()
        with tracer:
            outcome = _operate(workload, ledger, "traced operation", single_exp)
        if outcome is None:
            continue
        problems = workload.check(outcome) + _same(outcome, plain[0], "the untraced operation")
        problems += account_run(tracer)
        if ledger.record("traced operation", problems):
            traced.append(outcome)
            layers.append(layer_metrics(tracer))
    if hasattr(workload, "spin_oracle") and plain:
        result, _wall = workload.spin_oracle()
        ledger.record("k-t vs spin engine", workload.check_against_spins(plain[-1], result))
    if not traced:
        return None, {}, ledger
    samples = {key: [layer[key] for layer in layers] for key in layers[0]}
    baseline = single if pooled else plain
    has_engine = plain[0].run_wall is not None
    samples["engine.worker_busy_frac"] = [
        o.busy_fraction for o in plain if o.busy_fraction is not None
    ] or [0.0]
    if pooled:
        samples["engine.pool_speedup"] = [
            statistics.median(o.run_wall for o in single)
            / statistics.median(o.run_wall for o in plain)
        ]
    else:
        samples["engine.pool_speedup"] = [1.0 if has_engine else 0.0]
    samples["tracing_overhead_s"] = [
        statistics.median(o.time_to_image for o in traced)
        - statistics.median(o.time_to_image for o in baseline)
    ]
    metrics = {key: statistics.median(values) for key, values in samples.items()}
    return metrics, samples, ledger


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    if trace:
        return per_layer(name, seed, seconds, size)
    return end_to_end(name, seed, seconds, size)
