"""In-memory span recorder around mrsim's stage functions.

The tracer replaces module attributes that mrsim looks up at call time
(``mrsim.engine.rasterize``, ``mrsim.discretize.simulate_kt``, ...) with
thin wrappers that record a span per call: name, start, end and the
span that was open when the call began.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts the original functions back.

Counters are recorded at the same boundaries (spins rasterized, kernel
events, configurations tracked), so per-layer ratios are taken where
the work happens.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import mrsim
import mrsim.discretize
import mrsim.engine
import mrsim.ktspace


@dataclass
class Span:
    ident: int
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def kernel_events(tables) -> int:
    """Kernel events per spin: every pulse rotation plus every
    free-evolution/sample event of the precomputed tables."""
    return sum(
        entry.ev_dt.size + (entry.pulse_mat is not None) for entry in tables.entries
    )


class Tracer:
    """Span and counter recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = collections.Counter()
        self._open: List[int] = []
        self._patched: List[tuple] = []
        self._count_synth = False

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        ident = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(ident, name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._open.append(ident)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def total(self, *names: str) -> float:
        return sum(s.duration for s in self.spans if s.name in names)

    def self_time(self, *names: str) -> float:
        """Summed durations of the named spans minus their direct children."""
        chosen = {s.ident for s in self.spans if s.name in names}
        child = sum(s.duration for s in self.spans if s.parent in chosen)
        return self.total(*names) - child

    def children(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent == span.ident]

    # -- patching ------------------------------------------------------------

    def _patch(self, module, attr: str, name: str, after: Optional[Callable] = None):
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def _patch_walk(self, module):
        """simulate_kt: span and counters, plus a flag telling the echo
        synthesis hook whether this walk records a trace."""
        original = module.simulate_kt
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            outer = self._count_synth
            self._count_synth = not bound.arguments.get("record_trace", True)
            try:
                run = self.call("simulate_kt", original, *args, **kwargs)
            finally:
                self._count_synth = outer
            self.counts["trace_points"] += len(run.trace)
            self.counts["configs"] += sum(len(point.entries) for point in run.trace)
            return run

        module.simulate_kt = wrapper
        self._patched.append((module, "simulate_kt", original))

    def install(self) -> "Tracer":
        eng, disc, kt = mrsim.engine, mrsim.discretize, mrsim.ktspace
        self._patch(mrsim, "run", "run")
        self._patch(eng, "max_spacing", "max_spacing")
        self._patch(eng, "pruned_max_spacing", "pruned_max_spacing")
        self._patch(eng, "rasterize", "rasterize", self._after_rasterize)
        self._patch(eng, "build_spin_arrays", "build_spin_arrays")
        self._patch(eng, "precompute_sequence_tables", "precompute_sequence_tables",
                    self._after_tables)
        self._patch(eng, "partition_blocks", "partition_blocks")
        self._patch(eng, "compute_block", "compute_block", self._after_block)
        self._patch(disc, "steady_state_prune", "steady_state_prune")
        # simulate_kt is reached from pruned_max_spacing (discretize) and
        # called directly by the k-t workload (package attribute)
        self._patch_walk(disc)
        self._patch_walk(mrsim)
        self._patch(kt, "synthesize_echo", "synthesize_echo", self._after_synth)
        for attr in ("assemble_kspace", "reconstruct", "cpmg_fit"):
            self._patch(mrsim, attr, attr)
        return self

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- counters ------------------------------------------------------------

    def _after_rasterize(self, spins, *args, **kwargs):
        self.counts["spins"] += len(spins)

    def _after_tables(self, tables, *args, **kwargs):
        self.counts["events_per_spin"] += kernel_events(tables)
        self.counts["pulse_memo_hits"] += tables.pulse_memo_hits

    def _after_block(self, result, tables, block):
        self.counts["spin_events"] += block.n * kernel_events(tables)

    def _after_synth(self, value, state, *args, **kwargs):
        # an untraced walk has no trace to count configurations on, so
        # count the live configurations at each synthesized sample instead
        if self._count_synth:
            self.counts["configs"] += len(state.trans) + len(state.longi)
