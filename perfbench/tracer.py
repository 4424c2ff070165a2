"""Span recorder that wraps the package's public functions from outside.

``Tracer.install`` rebinds each traced function, in every ``mqcnmr``
module that holds it, to a wrapper that records a span (name, thread,
start, end) and optional counters; ``uninstall`` restores the originals.
Nothing under ``src/`` is edited.  Spans stay in memory until the
benchmark reads them.

Self time is wall-clock time credited to the innermost open span.  At
each instant the innermost span of every thread with an open span is
credited, except that a main-thread span waiting on spans in worker
threads is not; where k spans are credited at once, each gets 1/k of the
interval.  Every instant of a root span is credited exactly once, so
the self times of all layers plus the roots' own (unaccounted) time add
up to the roots' durations.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Span:
    name: str           # the layer metric its self time is credited to
    fn: str             # the wrapped function, "module.attr"
    tid: int
    seq: int
    start: float
    end: float


def _file_size(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.exists() else 0


def _compile_counts(args, kwargs, result, count):
    events, cache = args[0], args[1]
    n = len(events)
    count("sequence.compile_program.events", n)
    count("sequence.compile_program.gflop_computed", n * 8.0 * cache.reg.dim ** 3 / 1e9)


def _grid_counts(args, kwargs, result, count):
    stats = getattr(result, "cache_stats", None) or {}
    count("sequence.propagator_cache.hits", stats.get("hits", 0))
    count("sequence.propagator_cache.misses", stats.get("misses", 0))


def _simulate_counts(args, kwargs, result, count):
    cfg = args[0]
    out = kwargs.get("out_dir", args[1] if len(args) > 1 else None) or cfg.output_dir
    count("runner.signals.bytes_written", _file_size(Path(out) / "signals.npy"))


def _spectra_counts(args, kwargs, result, count):
    count("runner.spectra.bytes_written", _file_size(Path(args[0]) / "spectra.csv"))


# (module, attribute, span name, counts calls, post-call counter hook)
TARGETS = (
    ("operators", "t20_pair", "operators.t20_pair", True, None),
    ("operators", "rotation", "operators.rotation", True, None),
    ("operators", "collective_angular_momentum", "operators.collective_angular_momentum",
     True, None),
    ("hamiltonian", "secular_hamiltonian", "hamiltonian.secular_hamiltonian", True, None),
    ("hamiltonian", "eigendecompose", "hamiltonian.eigendecompose", True, None),
    ("sequence", "default_acquisition", "sequence.default_acquisition", True, None),
    ("sequence", "compile_program", "sequence.compile_program", True, _compile_counts),
    ("sequence", "run_grid", "sequence.run_grid", True, _grid_counts),
    # the per-tau slab runs on worker threads; its time is run_grid's own work
    ("sequence", "_tau_slab", "sequence.run_grid", False, None),
    ("spectra", "detection_matrix", "spectra.detection_matrix", True, None),
    ("spectra", "fft2_coherence", "spectra.fft2_coherence", True, None),
    ("opensystem", "prepare_reduced_state", "opensystem.prepare_reduced_state", True, None),
    ("opensystem", "run_grid_open", "opensystem.run_grid_open", True, None),
    ("analysis", "frequency_cuts", "analysis.frequency_cuts", True, None),
    ("analysis", "eigen_selectivity_report", "analysis.eigen_selectivity_report", True, None),
    ("config", "config_from_dict", "config.config_from_dict", True, None),
    ("runner", "build_eigensystem", "runner.build_eigensystem", True, None),
    ("runner", "simulate", "runner.simulate", True, _simulate_counts),
    ("runner", "sweep", "runner.sweep", True, None),
    ("runner", "spectra_stage", "runner.spectra_stage", True, _spectra_counts),
    ("runner", "read_spectrum_csv", "runner.read_spectrum_csv", True, None),
    ("runner", "fit_stage", "runner.fit_stage", True, None),
)

PACKAGE = "mqcnmr"
LAYER_NAMES = tuple(dict.fromkeys(t[2] for t in TARGETS))
COUNTERS = tuple(t[2] + ".calls" for t in TARGETS if t[3]) + (
    "sequence.compile_program.events", "sequence.compile_program.gflop_computed",
    "sequence.propagator_cache.hits", "sequence.propagator_cache.misses",
    "runner.signals.bytes_written", "runner.spectra.bytes_written")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._restore: list = []
        self.main_tid = threading.get_ident()

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + value

    def _wrap(self, fn, name, fn_name, counts_calls, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            seq = next(self._seq)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans.append(Span(name, fn_name, threading.get_ident(), seq,
                                       start, time.perf_counter()))
            if counts_calls:
                self.count(name + ".calls")
            if hook is not None:
                hook(args, kwargs, result, self.count)
            return result
        return traced

    def install(self) -> "Tracer":
        mods = {name: mod for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for mod_name, attr, name, counts_calls, hook in TARGETS:
            fn = getattr(mods[f"{PACKAGE}.{mod_name}"], attr)
            traced = self._wrap(fn, name, f"{mod_name}.{attr}", counts_calls, hook)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
                        self._restore.append((mod, key, fn))
        return self

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._restore):
            setattr(mod, key, fn)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @contextmanager
    def root(self, name: str):
        """Root span on the calling thread."""
        seq = next(self._seq)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span("root." + name, "root." + name, threading.get_ident(),
                                   seq, start, time.perf_counter()))

    def overhead_s(self, samples: int = 20000) -> float:
        """Estimated cost of the recorded spans: their count times the measured
        per-call cost of a wrapper around a no-op (best of three batches)."""
        probe = Tracer()
        noop = probe._wrap(lambda: None, "noop", "noop", True, None)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(samples):
                noop()
            t1 = time.perf_counter()
            for _ in range(samples):
                pass
            best = min(best, (t1 - t0) - (time.perf_counter() - t1))
        return len(self.spans) * max(best, 0.0) / samples

    def inclusive(self, fn_name: str, tid: int | None = None) -> list[float]:
        """Durations of the spans of one wrapped function, in call order."""
        spans = sorted((s for s in self.spans
                        if s.fn == fn_name and (tid is None or s.tid == tid)),
                       key=lambda s: s.seq)
        return [s.end - s.start for s in spans]

    def self_times(self) -> dict[str, float]:
        """Wall-clock self time per span name (root names included)."""
        events = []
        for s in self.spans:
            events.append((s.start, 1, s.seq, s))
            events.append((s.end, 0, -s.seq, s))
        events.sort(key=lambda e: e[:3])
        stacks: dict[int, list[Span]] = defaultdict(list)
        credit: dict[str, float] = defaultdict(float)
        prev = None
        for t, kind, _, span in events:
            if prev is not None and t > prev:
                workers = [st[-1] for tid, st in stacks.items()
                           if st and tid != self.main_tid]
                leaves = workers or [st[-1] for st in stacks.values() if st]
                for leaf in leaves:
                    credit[leaf.name] += (t - prev) / len(leaves)
            prev = t
            if kind == 1:
                stacks[span.tid].append(span)
            else:
                stacks[span.tid].remove(span)
        return dict(credit)
