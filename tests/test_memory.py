"""The kernel's memory promise, measured.

The ``mrsim.engine`` docstring promises that one ``compute_block`` needs
at most ``_PROPAGATOR_BYTES`` above the block's inputs, plus the block's
results (its echo array and 24 B per spin and snapshot), plus
``SPIN_VALUES`` complex values per spin of per-spin state, keys and
temporaries, plus the distinct-step factors of one group before their
gather, plus ``EVENT_VALUES`` complex values per event of the element
being built and numpy's iteration buffers of one ufunc call.
``tracemalloc`` sees numpy's data allocations, so each test measures the
peak of one ``compute_block`` call against that sum, at the default
budget and at budgets small enough to cut several blocks.
"""

import math
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mrsim import engine
from mrsim.bloch import HardPulse
from mrsim.engine import SpinBlock, compute_block, precompute_sequence_tables
from mrsim.sequence import AcquisitionSpec, ElementarySequence, GradientWaveform, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# the complex values per spin and per event, and the ufunc operands
# whose buffers, that the engine docstring promises beyond the budget
SPIN_VALUES = 26
EVENT_VALUES = 4
BUFFERED_OPERANDS = 3
BUDGETS = [engine._PROPAGATOR_BYTES, 4 << 20, 1 << 20]


def promised_bytes(tables, block) -> int:
    n_samples = max((e.n_samples for e in tables.entries), default=0)
    results = 16 * len(tables.acq_times) * n_samples + 24 * block.n * len(tables.snapshot_times)
    steps = max(
        (e.steps[0].size for e in tables.entries if e.group >= 0 and e.steps[2] is not None),
        default=0,
    )
    events = max(e.ev_t.size for e in tables.entries)
    buffers = BUFFERED_OPERANDS * np.getbufsize() * 16
    per_spin = 16 * block.n * (SPIN_VALUES + steps)
    return engine._PROPAGATOR_BYTES + results + per_spin + 16 * EVENT_VALUES * events + buffers


def peak_bytes(tables, block):
    """compute_block's result and its peak traced bytes above what was
    allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = compute_block(tables, block)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: f"{b >> 20}MiB")
@pytest.mark.parametrize("name", ["tse128_pool", "cpmg12_auto", "head96_loop"])
def test_workload_blocks_keep_the_memory_promise(monkeypatch, name, budget):
    monkeypatch.setattr(engine, "_PROPAGATOR_BYTES", budget)
    seen = []

    def measured(tables, block):
        result, peak = peak_bytes(tables, block)
        seen.append((block.n, peak, promised_bytes(tables, block)))
        return result

    monkeypatch.setattr(engine, "compute_block", measured)
    exp = WORKLOADS[name](DEFAULT_SEED).exp
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # overridden spacings may warn
        engine.run(replace(exp, workers=1))
    assert seen
    for n, peak, promised in seen:
        assert peak <= promised, (n, peak, promised)


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: f"{b >> 20}MiB")
def test_a_long_one_off_readout_keeps_the_memory_promise(monkeypatch, budget):
    """A 2,048-sample readout that occurs once: its block evolves under
    a propagator with one column per spin, built from a time part and an
    x part, which are as wide as the block's spins are on a line along
    x, each with its own off-resonance."""
    monkeypatch.setattr(engine, "_PROPAGATOR_BYTES", budget)
    seq = Sequence(
        [
            ElementarySequence(pulse=HardPulse(math.pi / 2, 0.0), duration=1e-3),
            ElementarySequence(
                gradient=GradientWaveform.constant(gx=5e-3),
                duration=20e-3,
                acquisition=AcquisitionSpec(2048),
            ),
        ]
    )
    tables = precompute_sequence_tables(seq)
    n = engine._block_spins(tables)
    rng = np.random.default_rng(11)
    pos = np.zeros((n, 3))
    pos[:, 0] = np.linspace(-0.05, 0.05, n)
    block = SpinBlock(
        index=0,
        pos=pos,
        t1=np.full(n, 1.0),
        t2=np.full(n, 0.1),
        m0=np.ones(n),
        domega=rng.uniform(-50.0, 50.0, n),
        weight=np.ones(n, dtype=complex),
    )
    (echoes, _), peak = peak_bytes(tables, block)
    assert echoes.shape == (1, 2048) and np.abs(echoes).max() > 0.0
    assert peak <= promised_bytes(tables, block), (n, peak, promised_bytes(tables, block))
