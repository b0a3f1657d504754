"""The benchmark workloads' echoes, pinned.

Each workload of ``perfbench/workloads.py`` runs at the default seed and
full size and must reproduce its checked-in reference echoes
(``perfbench/reference/*.npy``) to the kernel's -250 dB gate, tighter
than the benchmark's own -200 dB.  A change meant to alter the echoes
regenerates the references with ``perfbench/make_reference.py``.  The
pooled runs must not depend on the worker count.
"""

import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mrsim
from mrsim import engine, sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

MAX_DB = -250.0
# the events of every workload's tables and the spins of a block that
# fit the kernel's budget, with one event per sample of each readout
EVENTS = {"tse128_pool": 16960, "cpmg12_auto": 13856, "head96_loop": 4288, "kt_cpmg12": 3856}
BLOCK_SPINS = {"tse128_pool": 3986, "cpmg12_auto": 14768, "head96_loop": 14563, "kt_cpmg12": 26886}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_echoes_match_their_reference(name):
    workload = WORKLOADS[name](DEFAULT_SEED)
    ref = np.load(workload.reference_path())
    echoes = workload.reference_echoes(workload.operate().echoes)
    assert echoes.shape == ref.shape
    assert mrsim.compare_results(ref, echoes).delta_e_db <= MAX_DB


@pytest.mark.parametrize("name", ["tse128_pool", "head96_loop"])
def test_echoes_in_four_blocks_do_not_depend_on_the_worker_count(name):
    exp = WORKLOADS[name](DEFAULT_SEED).exp
    echoes = []
    for workers in (1, 2, 3):
        # overridden spacings warn when they exceed the relaxation-free bound
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = mrsim.run(replace(exp, workers=workers, blocks=4))
        echoes.append(result.echo_matrix().tobytes())
    assert echoes[1] == echoes[0] and echoes[2] == echoes[0]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_readouts_end_on_their_last_sample(name):
    # a readout whose last sample ends the element takes no tail event;
    # every workload's readouts end on their last sample
    tables = engine.precompute_sequence_tables(WORKLOADS[name](DEFAULT_SEED).exp.sequence)
    acquiring = [e for e in tables.entries if e.n_samples]
    assert acquiring and all(e.ev_dt.size == e.n_samples for e in acquiring)
    assert sum(e.ev_dt.size for e in tables.entries) == EVENTS[name]
    assert engine._block_spins(tables) == BLOCK_SPINS[name]


def count_calls(monkeypatch, counts, cls, name):
    """Count the calls of ``cls.name`` into ``counts[name]``."""
    method = getattr(cls, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return method(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_a_second_run_derives_no_events(name, monkeypatch):
    # every element's events are made once, by the element: a second
    # run of one experiment re-derives none (530 partial_moments and 134
    # sample_times calls per tse128_pool run when each engine derived
    # its own)
    exp = WORKLOADS[name](DEFAULT_SEED).exp
    counts = {}
    count_calls(monkeypatch, counts, sequence.GradientWaveform, "partial_moments")
    count_calls(monkeypatch, counts, sequence.AcquisitionSpec, "sample_times")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first = mrsim.run(exp)
        made = dict(counts)
        counts.clear()
        second = mrsim.run(exp)
    distinct = len(sequence.distinct_elements(exp.sequence)[0])
    assert made == {"partial_moments": distinct, "sample_times": distinct}
    assert counts == {}
    assert second.echo_matrix().tobytes() == first.echo_matrix().tobytes()
