"""Per-layer tracing from outside the program.

The tracer replaces public functions of the ``sandgait`` modules with
wrappers, under the name each caller looks them up by (``pipeline``
imports ``fill_gaps`` by name, ``synth`` imports ``recursive_leg``, and so
on).  A span wrapper records (name, start, end, parent, request) in
memory; a counter wrapper only counts calls, for functions called once per
frame.  Spans are written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _nan_frames(markers) -> int:
    return sum(int(np.isnan(p).any(axis=1).sum()) for p in markers.pos.values())


def _gap_frames_filled(args, result) -> int:
    return _nan_frames(args[0]) - _nan_frames(result)


#: (module, attribute, layer metric, extra count or None): spans.
SPANS = [
    ("ingest", "read_marker_file", "ingest.read_markers", None),
    ("ingest", "read_grf_file", "ingest.read_grf", None),
    ("pipeline", "fill_gaps", "ingest.fill_gaps",
     ("ingest.gap_frames_filled", _gap_frames_filled)),
    ("pipeline", "align_streams", "ingest.align", None),
    ("ingest", "write_marker_file", "ingest.write", None),
    ("ingest", "write_grf_file", "ingest.write", None),
    ("ingest", "write_meta_file", "ingest.write", None),
    ("kinematics", "segment_states", "kinematics.segment_states", None),
    ("kinematics", "moving_average", "kinematics.moving_average", None),
    ("gaitseg", "detect_side_events", "gaitseg.events", None),
    ("synth", "detect_side_events", "gaitseg.events", None),
    ("gaitseg", "phase_normalize", "gaitseg.phase_normalize", None),
    ("forces", "calibrate_grf", "forces.calibrate", None),
    ("forces", "normalize_grf", "forces.features", None),
    ("forces", "extract_grf_features", "forces.features", None),
    ("dynamics", "leg_moment_series", "dynamics.moment_series", None),
    ("metrics", "stride_metrics", "metrics.stride", None),
    ("metrics", "knee_stiffness", "metrics.stiffness", None),
    ("pipeline", "analyze_trial", "pipeline.analyze", None),
    ("pipeline", "write_bundle", "pipeline.write_bundle", None),
    ("synth", "synthesize_gait", "synth.synthesize", None),
    ("cli", "cmd_calibrate", "cli.calibrate", None),
    ("cli", "cmd_compare", "cli.compare", None),
]

#: (module, attribute, count metric): per-frame functions, counted only.
COUNTERS = [
    ("dynamics", "leg_inverse_dynamics", "dynamics.frame_calls"),
    ("synth", "recursive_leg", "synth.recursive_leg_calls"),
]

#: Reported per-layer metrics: name -> (unit, how it is derived).
#: "self" is the median over requests of the layer's summed self time,
#: "calls" the median count of its spans, "count" the median count.
METRICS = {
    "ingest.read_markers_ms": ("ms", "self", "ingest.read_markers"),
    "ingest.read_grf_ms": ("ms", "self", "ingest.read_grf"),
    "ingest.fill_gaps_ms": ("ms", "self", "ingest.fill_gaps"),
    "ingest.gap_frames_filled": ("count", "count", "ingest.gap_frames_filled"),
    "ingest.align_ms": ("ms", "self", "ingest.align"),
    "ingest.write_ms": ("ms", "self", "ingest.write"),
    "kinematics.segment_states_ms": ("ms", "self", "kinematics.segment_states"),
    "kinematics.moving_average_ms": ("ms", "self", "kinematics.moving_average"),
    "kinematics.moving_average_calls": ("count", "calls", "kinematics.moving_average"),
    "gaitseg.events_ms": ("ms", "self", "gaitseg.events"),
    "gaitseg.phase_normalize_ms": ("ms", "self", "gaitseg.phase_normalize"),
    "forces.calibrate_ms": ("ms", "self", "forces.calibrate"),
    "forces.features_ms": ("ms", "self", "forces.features"),
    "dynamics.moment_series_ms": ("ms", "self", "dynamics.moment_series"),
    "dynamics.frame_calls": ("count", "count", "dynamics.frame_calls"),
    "metrics.stride_ms": ("ms", "self", "metrics.stride"),
    "metrics.stiffness_ms": ("ms", "self", "metrics.stiffness"),
    "pipeline.analyze_self_ms": ("ms", "self", "pipeline.analyze"),
    "pipeline.write_bundle_ms": ("ms", "self", "pipeline.write_bundle"),
    "pipeline.bundle_bytes": ("B", "count", "pipeline.bundle_bytes"),
    "synth.synthesize_ms": ("ms", "self", "synth.synthesize"),
    "synth.recursive_leg_calls": ("count", "count", "synth.recursive_leg_calls"),
    "cli.calibrate_ms": ("ms", "self", "cli.calibrate"),
    "cli.compare_ms": ("ms", "self", "cli.compare"),
}


class Tracer:
    """Spans and counts of one run, grouped by request (one generated
    input or one timed operation).  Nothing is recorded while ``request``
    is None, as during the warm-up operation."""

    def __init__(self):
        self.spans: list[list] = []   # name, start, end, parent, request
        self.counts: dict = defaultdict(int)  # (request, name) -> n
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self, modules: dict) -> None:
        for mod, attr, name, extra in SPANS:
            self._patch(modules[mod], attr, self._span(name, extra))
        for mod, attr, name in COUNTERS:
            self._patch(modules[mod], attr, self._counter(name))

    @property
    def active(self) -> bool:
        return bool(self._patched)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def add(self, name: str, n: int) -> None:
        if self.request is not None:
            self.counts[(self.request, name)] += n

    def _patch(self, module, attr, make) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original))

    def _span(self, name, extra):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.request is None:
                    return fn(*args, **kwargs)
                parent = self._stack[-1] if self._stack else None
                index = len(self.spans)
                self.spans.append([name, time.perf_counter(), None, parent,
                                   self.request])
                self._stack.append(index)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    self.spans[index][2] = time.perf_counter()
                if extra is not None:
                    self.add(extra[0], extra[1](args, result))
                return result
            return wrapper
        return make

    def _counter(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.add(name, 1)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def self_times(self) -> dict:
        """(request, layer) -> summed self time in s: each span minus the
        spans directly inside it."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        out: dict = defaultdict(float)
        for (name, _, _, _, request), t in zip(self.spans, own):
            out[(request, name)] += t
        return out

    def metrics(self) -> dict:
        """Every per-layer metric: the median over the requests that used
        the layer, 0 for a layer the workload never calls."""
        per = {"self": defaultdict(list), "calls": defaultdict(list),
               "count": defaultdict(list)}
        for (request, name), t in self.self_times().items():
            per["self"][name].append(1e3 * t)
        calls: dict = defaultdict(int)
        for name, _, _, _, request in self.spans:
            calls[(request, name)] += 1
        for (request, name), n in calls.items():
            per["calls"][name].append(n)
        for (request, name), n in self.counts.items():
            per["count"][name].append(n)
        out = {}
        for metric, (unit, kind, source) in METRICS.items():
            values = per[kind].get(source)
            out[metric] = {"value": statistics.median(values) if values else 0.0,
                           "unit": unit}
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": [[n, s, e, p, str(r)] for n, s, e, p, r in self.spans],
               "counts": [[str(r), n, c] for (r, n), c in self.counts.items()],
               **extra}
        path.write_text(json.dumps(doc) + "\n")
