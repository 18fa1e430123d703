"""Peak memory of the trial readers, writers and generator, of the
marker filter and of one trial's analysis, as traced by ``tracemalloc``
(numpy reports its array buffers to it), on a 20 s walk, and the generator
on a 12 s one too.  Each bound is a small multiple of the data: the file's
size, the arrays the generator returns, or the marker stack.  The leg
states the analysis passes to inverse dynamics are sized by their fields."""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from sandgait import dynamics, ingest, kinematics, pipeline, synth
from sandgait.schema import MarkerSchema


def _peak(f, *args):
    """``f(*args)`` and the most memory it held at once, in bytes."""
    tracemalloc.start()
    try:
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _array_bytes(obj, seen=None) -> int:
    """Bytes of every array buffer reachable from ``obj``, each counted once
    however many views share it."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(v, seen) for v in obj)
    return 0


@pytest.fixture(scope="module")
def walk():
    return dataclasses.replace(synth.stride_profile(), duration=20.0)


@pytest.fixture(scope="module")
def trial(walk, tmp_path_factory):
    """The walk's trial files, the markers with 90 seeded dropouts."""
    res = synth.synthesize_gait(walk)
    markers = res.markers.copy()
    labels = sorted(markers.pos)
    rng = np.random.default_rng(16)
    for g in range(90):
        start = int(rng.integers(10, len(markers) - 20))
        markers.pos[labels[rng.integers(len(labels))]][start:start + 1 + g % 5] = np.nan
    d = tmp_path_factory.mktemp("trial")
    ingest.write_grf_file(d / "grf.csv", res.grf)
    ingest.write_marker_file(d / "markers.csv", markers)
    ingest.write_meta_file(d / "meta.json", res.meta)
    return d, res.grf, markers


def test_read_grf_file(trial):
    # read in blocks of whole lines: the file is never held beside its table
    path = trial[0] / "grf.csv"
    _, peak = _peak(ingest.read_grf_file, path)
    assert peak <= 1.0 * path.stat().st_size


def test_read_marker_file_with_gaps(trial):
    # the table and the copies of its columns, but not the file
    path = trial[0] / "markers.csv"
    markers, peak = _peak(ingest.read_marker_file, path, MarkerSchema.default())
    assert any(np.isnan(p).any() for p in markers.pos.values())
    assert peak <= 1.4 * path.stat().st_size


@pytest.fixture(scope="module")
def parsed(trial):
    """The parsed gappy walk."""
    d = trial[0]
    return ingest.parse_trial(d / "markers.csv", d / "grf.csv",
                              ingest.read_meta_file(d / "meta.json"),
                              pipeline.RunConfig().load_schema())


@pytest.fixture(scope="module")
def analysis(parsed):
    """The parsed gappy walk's analysis traced, and its marker stack's
    bytes."""
    cfg = pipeline.RunConfig()
    pipeline.analyze_trial(parsed, cfg)  # imports scipy, reads the config
    result, peak = _peak(pipeline.analyze_trial, parsed, cfg)
    stack = np.stack(list(parsed.markers.pos.values()), axis=1)
    assert stack.shape == (2001, 18, 3)
    return result, peak, stack.nbytes


def test_analyze_trial(analysis):
    # each intermediate is released after the last stage that reads it:
    # the aligned stream and gap-filled copies before the states, the
    # smoothed markers after them, the states once the moments exist
    _, peak, stack_bytes = analysis
    assert peak <= 3.3 * stack_bytes


def test_leg_states_hold_five_columns(parsed, monkeypatch):
    # e and acc as [x, z] and omega_dot as lab y: five float columns a
    # frame, and no field a view that keeps a wider array alive
    states = []
    moment_series = dynamics.leg_moment_series

    def capture(time, load, leg, *rest):
        states.extend(leg.values())
        return moment_series(time, load, leg, *rest)

    monkeypatch.setattr(dynamics, "leg_moment_series", capture)
    pipeline.analyze_trial(parsed, pipeline.RunConfig())
    assert len(states) == 6
    for state in states:
        held = 0
        for f in dataclasses.fields(state):
            arr = getattr(state, f.name)
            while isinstance(arr, np.ndarray):
                held += arr.nbytes
                arr = arr.base
        assert held <= 5 * 8 * len(state.e)


def test_analysis_result_holds_no_trial_table(analysis):
    # a result array that were a view of a trial table would keep the
    # whole (2001, 55) marker table alive
    result, _, _ = analysis
    assert _array_bytes(result) <= 0.3e6


def test_write_grf_file(trial, tmp_path):
    path = tmp_path / "grf.csv"
    _, peak = _peak(ingest.write_grf_file, path, trial[1])
    assert peak <= 3 * path.stat().st_size


def test_write_marker_file(trial, tmp_path):
    # a block of 55-cell rows holds no more cells than one of the GRF file
    path = tmp_path / "markers.csv"
    _, peak = _peak(ingest.write_marker_file, path, trial[2])
    assert peak <= 0.75 * path.stat().st_size


@pytest.mark.parametrize("duration", [12.0, 20.0])
def test_synthesize_gait(walk, duration):
    # the legs are walked planar: at 1 kHz a block at a time, each segment
    # dropped once the next is computed, keeping the feet as 1-D x and z
    # series; at the marker rate every segment is held planar while it
    # runs (1.8 times at 12 s, 1.7 at 20 s)
    synth.synthesize_gait(synth.stride_profile())  # imports numpy.ma
    res, peak = _peak(synth.synthesize_gait,
                      dataclasses.replace(walk, duration=duration))
    assert peak <= 1.9 * _array_bytes(res)


def test_fill_gaps_copies_only_filled_markers(trial):
    # gaps in one marker of 18: the fill copies that marker alone, so it
    # holds less than one copy of all the markers, its spline included
    markers = trial[2]
    gappy = max(markers.pos, key=lambda label: np.isnan(markers.pos[label]).sum())
    one_gappy = ingest.MarkerData(markers.time, {
        label: pos if label == gappy else np.nan_to_num(pos)
        for label, pos in markers.pos.items()})
    ingest.fill_gaps(one_gappy)  # the first fill imports scipy
    filled, peak = _peak(ingest.fill_gaps, one_gappy)
    assert not np.isnan(filled.pos[gappy]).any()
    assert peak <= _array_bytes(one_gappy)


def test_moving_average_full_windows_from_slices(trial):
    # a gap-free 20 s stack: the running sums and the output, and no
    # input-sized gather of either
    stack = np.nan_to_num(np.stack(list(trial[2].pos.values()), axis=1))
    _, peak = _peak(kinematics.moving_average, stack, 7)
    assert peak <= 2.2 * stack.nbytes


def test_moving_average_with_gaps(trial):
    # the 20 s stack with its 90 gaps: the windows holding a NaN are marked
    # by boolean masks, with no input-sized count, under the gap-free bound
    stack = np.stack(list(trial[2].pos.values()), axis=1)
    assert np.isnan(stack).any()
    _, peak = _peak(kinematics.moving_average, stack, 7)
    assert peak <= 2.2 * stack.nbytes
