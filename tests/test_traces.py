"""Trace model: windowing, ROI counting, synthesis, and file round trips."""

import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wattcount import (
    CountTrace,
    DetectionLog,
    RoiSpec,
    SynthPattern,
    WindowSpec,
    load_detection_log,
    load_trace,
    roi_count,
    save_detection_log,
    save_trace,
    synth_trace,
    trace_from_detections,
)

ROI = RoiSpec(region=(0.0, 0.0, 10.0, 10.0), travel_seconds=1.0)


def _log_every_second(n, boxes_per_frame):
    """One frame per second at ts 0..n-1, each with the given boxes."""
    return DetectionLog(
        timestamps=tuple(float(i) for i in range(n)),
        boxes=tuple(boxes_per_frame for _ in range(n)),
    )


IN_BOX = (1.0, 1.0, 2.0, 2.0, "car")
OUT_BOX = (50.0, 50.0, 60.0, 60.0, "car")


# reference implementations: the per-box and per-instant loops that the
# template writer and the array sampler replaced


def _reference_log_text(log):
    lines = []
    for ts, frame in zip(log.timestamps, log.boxes):
        boxes = [
            {"x0": x0, "y0": y0, "x1": x1, "y1": y1, "class": label}
            for x0, y0, x1, y1, label in frame
        ]
        lines.append(json.dumps({"ts": ts, "boxes": boxes}, sort_keys=True))
    return "\n".join(lines) + "\n"


def _reference_hits(frame, region, class_label):
    rx0, ry0, rx1, ry1 = region
    return sum(
        1 for x0, y0, x1, y1, label in frame
        if label == class_label and x0 <= rx1 and x1 >= rx0 and y0 <= ry1 and y1 >= ry0
    )


def _reference_roi_count(log, roi, class_label, time_range):
    if not log.timestamps:
        raise ValueError("no frames")
    start, end = float(time_range[0]), float(time_range[1])
    if end <= start:
        raise ValueError("range out of bounds")
    ts = np.asarray(log.timestamps)
    n_samples = int(np.ceil((end - start) / roi.travel_seconds - 1e-12))
    targets = start + roi.travel_seconds * np.arange(n_samples)
    if start < ts[0] - 1e-9 or (n_samples and targets[-1] > ts[-1] + 1e-9):
        raise ValueError("range out of bounds")
    frame_idx = np.searchsorted(ts, targets - 1e-9, side="left")
    return sum(_reference_hits(log.boxes[fi], roi.region, class_label) for fi in frame_idx)


def _reference_trace_counts(log, roi, class_label, spec, fps):
    if not log.timestamps:
        raise ValueError("no frames")
    ts = np.asarray(log.timestamps)
    start = float(ts[0])
    wf = spec.window_frames(fps)
    total_frames = int(np.floor((float(ts[-1]) - start) * fps)) + 1
    n_windows = total_frames // wf
    if n_windows == 0:
        raise ValueError("shorter than one")
    n_frames = n_windows * wf
    counts = np.zeros(n_frames, dtype=np.int64)
    t = roi.travel_seconds
    n_samples = int(np.ceil(n_frames / fps / t - 1e-12))
    for j in range(n_samples):
        instant = start + j * t
        slot = int(np.floor((instant - start) * fps))
        if slot >= n_frames:
            break
        fi = int(np.searchsorted(ts, instant - 1e-9, side="left"))
        if fi >= len(ts):
            continue
        counts[slot] += _reference_hits(log.boxes[fi], roi.region, class_label)
    return counts


# boxes inside, outside, on the edge of and across the 0..10 ROI, plus one of
# another class
SAMPLE_BOXES = (
    IN_BOX, OUT_BOX, (10.0, 4.0, 12.0, 6.0, "car"), (-5.0, -5.0, 15.0, 15.0, "car"),
    (1.0, 1.0, 2.0, 2.0, "bus"),
)


@st.composite
def _ingest_logs(draw):
    """Logs with gaps between frames, at a small or an epoch-sized start time."""
    start = draw(st.sampled_from([0.0, 12.3, 1.6e9]))
    gaps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.0, 1.0, 3.0, 7.5]), max_size=60))
    ts = np.cumsum([start, *gaps]).tolist()
    frames = draw(st.lists(
        st.lists(st.sampled_from(SAMPLE_BOXES), max_size=3).map(tuple),
        min_size=len(ts), max_size=len(ts),
    ))
    return DetectionLog(timestamps=tuple(ts), boxes=tuple(frames))


# travel times under, at and over a frame; 0.99999999 s puts the last instant
# of some epoch-sized logs within rounding of the trace's end
TRAVEL = st.one_of(
    st.sampled_from([0.7, 1.0, 1.3, 2.5, 0.99999999]), st.floats(0.2, 4.0)
)


def _loadtxt_counts(path):
    """The counts of a trace CSV read as text and parsed by np.loadtxt, or None.

    The rules load_trace must match, accepting and rejecting the same files.
    """
    header, _, body = path.read_text(encoding="utf-8").strip().partition("\n")
    if header != "frame_index,count" or "\n\n" in body:
        return None
    table = np.empty((0, 2), dtype=np.int64)
    if body:
        try:
            table = np.loadtxt(
                io.StringIO(body), dtype=np.int64, delimiter=",", comments=None, ndmin=2
            )
        except (ValueError, DeprecationWarning):  # numpy 1.x warns before reading 3.0 as 3
            return None
    if table.shape[1] != 2 or (table[:, 0] != np.arange(len(table))).any():
        return None
    return None if (table[:, 1] < 0).any() else table[:, 1]


CSV_FAULTS = (
    "empty field", "blank field", "extra field", "missing field", "non-digit", "two runs",
    "blank line", "out of order", "past int64",
)


@st.composite
def _csv_texts(draw):
    """Trace CSV texts that np.loadtxt reads, some with one fault injected."""
    pad = st.sampled_from(["", "", " ", "\t", " \t ", "\x0b", "\x1c", "\xa0", "\u3000"])
    values = draw(st.lists(
        st.one_of(st.integers(0, 120), st.integers(10**18, 2**63 - 1)), max_size=12
    ))

    def field(value):
        sign = draw(st.sampled_from(["", "+", "-"] if value == 0 else ["", "+"]))
        zeros = "0" * draw(st.sampled_from([0, 0, 1, 3]))
        return f"{draw(pad)}{sign}{zeros}{value}{draw(pad)}"

    rows = [[field(i), field(v)] for i, v in enumerate(values)]
    fault = draw(st.sampled_from(CSV_FAULTS)) if rows and draw(st.booleans()) else None
    if fault:
        at = draw(st.integers(0, len(rows) - 1))
        row = rows[at]
        if fault == "empty field":
            row[draw(st.integers(0, 1))] = ""
        elif fault == "blank field":
            row[draw(st.integers(0, 1))] = draw(st.sampled_from([" ", "\t"]))
        elif fault == "extra field":
            row.append(field(0))
        elif fault == "missing field":
            row.pop()
        elif fault == "non-digit":
            row[1] = draw(st.sampled_from(
                ["x", "1e2", "3.0", "1_0", "0x10", "7 7", "\u0663", "+-1", "1+", "+ 1", "- 0"]
            ))
        elif fault == "two runs":  # as many digit runs as fields, one field holding two
            row[:] = [f"{row[0]} 1", " "]
        elif fault == "blank line":
            rows.insert(at, [])
        elif fault == "out of order":
            row[0] = field(at + draw(st.sampled_from([-1, 1])))
        else:
            row[1] = field(draw(st.one_of(st.integers(2**63, 10**19 - 1), st.integers(2**64))))
    lines = ["frame_index,count"] + [",".join(row) for row in rows]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    trailing = draw(st.sampled_from(["", "", "\n", "\n\n", " \r\n \n"]))
    return "".join(line + end for line, end in zip(lines, ends)) + trailing


class TestWindowing:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WindowSpec(tau_seconds=0)
        with pytest.raises(ValueError):
            WindowSpec(horizon_windows=0)
        with pytest.raises(ValueError):
            WindowSpec(alpha=1.0)

    def test_window_frames_scales_with_fps(self):
        assert WindowSpec(tau_seconds=1800).window_frames(1) == 1800
        assert WindowSpec(tau_seconds=600).window_frames(2) == 1200

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            CountTrace("s", np.array([1, -1]))
        with pytest.raises(ValueError):
            CountTrace("s", np.array([[1, 2]]))
        with pytest.raises(ValueError):
            CountTrace("s", np.arange(4), fps=0)

    def test_ragged_trace_rejected_by_windowing(self):
        spec = WindowSpec(tau_seconds=10)
        trace = CountTrace("s", np.zeros(25, dtype=int))
        with pytest.raises(ValueError, match="whole number"):
            trace.n_windows(spec)

    def test_window_and_horizon_slicing(self):
        spec = WindowSpec(tau_seconds=4, horizon_windows=2)
        trace = CountTrace("s", np.arange(16))
        assert trace.n_windows(spec) == 4
        np.testing.assert_array_equal(trace.window_slice(1, spec), [4, 5, 6, 7])
        h1 = trace.horizon_slice(1, spec)
        np.testing.assert_array_equal(h1.counts, np.arange(8, 16))
        assert h1.start_epoch == 8.0
        with pytest.raises(IndexError):
            trace.window_slice(4, spec)
        with pytest.raises(IndexError):
            trace.horizon_slice(2, spec)

    def test_counts_are_immutable(self):
        trace = CountTrace("s", np.arange(4))
        with pytest.raises(ValueError):
            trace.counts[0] = 9


class TestRoiCounting:
    def test_one_box_per_frame(self):
        # t=1s over a 3s range samples three frames, each contributing 1
        log = _log_every_second(10, (IN_BOX,))
        assert roi_count(log, ROI, "car", (0.0, 3.0)) == 3

    def test_disjoint_boxes_count_zero(self):
        log = _log_every_second(10, (OUT_BOX,))
        roi = RoiSpec(region=(0.0, 0.0, 10.0, 10.0), travel_seconds=2.0)
        assert roi_count(log, roi, "car", (0.0, 4.0)) == 0

    def test_two_then_one_intersecting(self):
        boxes = [
            (IN_BOX, IN_BOX),  # ts 0: two hits
            (OUT_BOX,),        # ts 1: skipped at t=2 spacing
            (IN_BOX, OUT_BOX), # ts 2: one hit
            (OUT_BOX,),
        ]
        log = DetectionLog(timestamps=(0.0, 1.0, 2.0, 3.0), boxes=tuple(boxes))
        roi = RoiSpec(region=(0.0, 0.0, 10.0, 10.0), travel_seconds=2.0)
        assert roi_count(log, roi, "car", (0.0, 4.0)) == 3

    def test_class_filter(self):
        log = _log_every_second(5, (IN_BOX, (1.0, 1.0, 2.0, 2.0, "bus")))
        assert roi_count(log, ROI, "bus", (0.0, 2.0)) == 2

    def test_edge_touching_box_counts(self):
        # each box shares only one ROI edge; closed rectangles intersect
        for touching in (
            (10.0, 4.0, 12.0, 6.0, "car"),
            (-2.0, 4.0, 0.0, 6.0, "car"),
            (4.0, 10.0, 6.0, 12.0, "car"),
            (4.0, -2.0, 6.0, 0.0, "car"),
        ):
            log = _log_every_second(3, (touching,))
            assert roi_count(log, ROI, "car", (0.0, 2.0)) == 2, touching

    def test_monotone_in_roi_area(self):
        rng = np.random.default_rng(11)
        frames = []
        for _ in range(20):
            frame = []
            for _ in range(rng.integers(0, 5)):
                x0, y0 = rng.uniform(0, 90, 2)
                w, h = rng.uniform(1, 10, 2)
                frame.append((x0, y0, x0 + w, y0 + h, "car"))
            frames.append(tuple(frame))
        log = DetectionLog(timestamps=tuple(map(float, range(20))), boxes=tuple(frames))
        small = RoiSpec(region=(20.0, 20.0, 50.0, 50.0), travel_seconds=1.0)
        big = RoiSpec(region=(10.0, 10.0, 80.0, 80.0), travel_seconds=1.0)
        assert roi_count(log, small, "car", (0.0, 20.0)) <= roi_count(
            log, big, "car", (0.0, 20.0)
        )

    def test_empty_log_and_bad_range(self):
        with pytest.raises(ValueError, match="no frames"):
            roi_count(DetectionLog(), ROI, "car", (0.0, 1.0))
        log = _log_every_second(5, (IN_BOX,))
        with pytest.raises(ValueError, match="range out of bounds"):
            roi_count(log, ROI, "car", (0.0, 100.0))
        with pytest.raises(ValueError, match="range out of bounds"):
            roi_count(log, ROI, "car", (-5.0, 2.0))

    @settings(max_examples=150, deadline=None)
    @given(log=_ingest_logs(), travel=TRAVEL, class_label=st.sampled_from(["car", "bus"]),
           lo=st.floats(-1.0, 1.0), span=st.floats(0.0, 1.2))
    def test_matches_per_sample_loop(self, log, travel, class_label, lo, span):
        roi = RoiSpec(region=(0.0, 0.0, 10.0, 10.0), travel_seconds=travel)
        first, last = log.timestamps[0], log.timestamps[-1]
        time_range = (first + lo, first + lo + span * (last - first + 1.0))
        try:
            expected = _reference_roi_count(log, roi, class_label, time_range)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                roi_count(log, roi, class_label, time_range)
        else:
            assert roi_count(log, roi, class_label, time_range) == expected

    def test_log_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            DetectionLog(timestamps=(0.0, 0.0), boxes=((), ()))
        with pytest.raises(ValueError, match="frame 2: timestamps must be strictly increasing"):
            DetectionLog(timestamps=(0.0, 1.0, 1.0), boxes=((), (), ()))
        with pytest.raises(ValueError, match="positive area"):
            DetectionLog(timestamps=(0.0,), boxes=(((3.0, 1.0, 2.0, 2.0, "c"),),))

    def test_box_that_collapses_as_floats_rejected(self):
        # 2**60 - 64 < 2**60 + 1 as ints, but both round to the float 2**60
        y0, y1 = 2**60 - 64, 2**60 + 1
        with pytest.raises(ValueError, match="frame 0: boxes must have positive area"):
            DetectionLog(timestamps=(0.0,), boxes=(((0.0, y0, 1.0, y1, "c"),),))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_rejected(self, bad):
        # a NaN compares false both ways, so the ordering check alone lets it through
        with pytest.raises(ValueError, match=r"frame 1: timestamp must be finite, got (nan|inf|-inf)"):
            DetectionLog(timestamps=(0.0, bad, 2.0), boxes=((), (), ()))

    @pytest.mark.parametrize("box", [
        (-math.inf, 1.0, 2.0, 2.0),
        (1.0, 1.0, math.inf, 2.0),
        (1.0, -math.inf, 2.0, 2.0),
        (1.0, 1.0, 2.0, math.inf),
        (math.nan, 1.0, 2.0, 2.0),
        (1.0, 1.0, 2.0, math.nan),
    ])
    def test_non_finite_box_rejected(self, box):
        ok = (1.0, 1.0, 2.0, 2.0, "c")
        with pytest.raises(ValueError, match="frame 1: box coordinates must be finite"):
            DetectionLog(timestamps=(0.0, 1.0), boxes=((ok,), (ok, (*box, "c"))))

    @pytest.mark.parametrize("box", [
        (None, 0, 1, 1),
        ("1", 0, 2, 1),
        (0, 0, 1, None),
        (0, [0], 1, 1),
        (0, 0, 10**400, 10**400 + 1),  # compares with floats, but float() overflows
    ])
    def test_non_numeric_box_rejected(self, box):
        with pytest.raises(ValueError, match=r"frame 0: box coordinates must be finite numbers"):
            DetectionLog(timestamps=(0.0,), boxes=(((*box, "c"),),))

    @pytest.mark.parametrize("label", [None, 7, 1.5, ("car",)])
    def test_non_string_class_rejected(self, label):
        ok = (0.0, 0.0, 1.0, 1.0, "c")
        with pytest.raises(ValueError, match=r"frame 1: box class must be a string, got "):
            DetectionLog(timestamps=(0.0, 1.0), boxes=((ok,), (ok, (0.0, 0.0, 1.0, 1.0, label))))

    def test_integer_coordinates_stored_as_floats(self):
        log = DetectionLog(timestamps=(0,), boxes=(((0, 1, 2, 3, "c"),),))
        assert log.boxes == (((0.0, 1.0, 2.0, 3.0, "c"),),)
        assert all(type(v) is float for v in log.boxes[0][0][:4])

    @pytest.mark.parametrize("region, travel, match", [
        ((0.0, 0.0, 1.0), 1.0, r"region must be \(x_min, y_min, x_max, y_max\)"),
        ((0.0, 0.0, 0.0, 1.0), 1.0, "positive width and height"),
        ((0.0, 0.0, 1.0, 1.0), 0.0, "travel_seconds must be positive and finite, got 0.0"),
        ((0.0, 0.0, 1.0, 1.0), math.nan, "travel_seconds must be positive and finite, got nan"),
        ((0.0, 0.0, 1.0, 1.0), math.inf, "travel_seconds must be positive and finite, got inf"),
    ])
    def test_roi_spec_validation(self, region, travel, match):
        with pytest.raises(ValueError, match=match):
            RoiSpec(region=region, travel_seconds=travel)


class TestIngestion:
    def test_window_sums_match_roi_count(self):
        # window length (4 s) is a multiple of travel time (2 s), so each
        # window's trace sum must equal roi_count over that window's range
        rng = np.random.default_rng(5)
        frames = []
        for _ in range(16):
            k = int(rng.integers(0, 4))
            frames.append(tuple(IN_BOX for _ in range(k)))
        log = DetectionLog(timestamps=tuple(map(float, range(16))), boxes=tuple(frames))
        roi = RoiSpec(region=(0.0, 0.0, 10.0, 10.0), travel_seconds=2.0)
        spec = WindowSpec(tau_seconds=4)
        trace = trace_from_detections(log, roi, "car", spec, fps=1)
        assert trace.n_frames == 16  # ts 0..15 span exactly four 4-frame windows
        for w in range(trace.n_windows(spec)):
            expected = roi_count(log, roi, "car", (4.0 * w, 4.0 * (w + 1)))
            assert int(trace.window_slice(w, spec).sum()) == expected

    def test_too_short_log_rejected(self):
        log = _log_every_second(3, (IN_BOX,))
        with pytest.raises(ValueError, match="shorter than one"):
            trace_from_detections(log, ROI, "car", WindowSpec(tau_seconds=100))

    @settings(max_examples=200, deadline=None)
    @given(log=_ingest_logs(), travel=TRAVEL, fps=st.integers(1, 3), tau=st.integers(1, 5),
           class_label=st.sampled_from(["car", "bus"]))
    def test_matches_per_instant_loop(self, log, travel, fps, tau, class_label):
        roi = RoiSpec(region=(0.0, 0.0, 10.0, 10.0), travel_seconds=travel)
        spec = WindowSpec(tau_seconds=tau)
        try:
            expected = _reference_trace_counts(log, roi, class_label, spec, fps)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                trace_from_detections(log, roi, class_label, spec, fps=fps)
        else:
            trace = trace_from_detections(log, roi, class_label, spec, fps=fps)
            assert trace.counts.tolist() == expected.tolist()
            assert trace.start_epoch == log.timestamps[0] and trace.fps == fps

    @pytest.mark.parametrize("travel, fps, last", [
        (0.7, 1, 7.0),  # two instants share a slot; 7.7 s falls after the last frame
        (1.3, 3, 7.0),
        (0.99999999, 1, 8.0),  # 8 * 0.99999999 s rounds onto the epoch end of the 8 s trace
    ])
    def test_shared_slots_and_instants_past_the_trace(self, travel, fps, last):
        log = DetectionLog(
            timestamps=tuple(1.6e9 + t for t in (0.0, 1.0, 3.0, last)),
            boxes=((IN_BOX,), (IN_BOX, IN_BOX), (IN_BOX,), (IN_BOX, IN_BOX, IN_BOX)),
        )
        roi = RoiSpec(region=(0.0, 0.0, 10.0, 10.0), travel_seconds=travel)
        spec = WindowSpec(tau_seconds=2)
        trace = trace_from_detections(log, roi, "car", spec, fps=fps)
        expected = _reference_trace_counts(log, roi, "car", spec, fps)
        assert trace.counts.tolist() == expected.tolist()


class TestSynthesis:
    def test_deterministic(self):
        spec = WindowSpec(tau_seconds=50)
        pat = SynthPattern(base_rate=2.0, diurnal_amplitude=1.0, period_windows=4)
        a = synth_trace(pat, 8, spec, seed=13)
        b = synth_trace(pat, 8, spec, seed=13)
        c = synth_trace(pat, 8, spec, seed=14)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_zero_rate_gives_zero_trace(self):
        spec = WindowSpec(tau_seconds=10)
        trace = synth_trace(SynthPattern(base_rate=0.0), 5, spec, seed=1)
        assert trace.counts.sum() == 0

    def test_constant_rate_mean(self):
        spec = WindowSpec(tau_seconds=100_000)
        trace = synth_trace(SynthPattern(base_rate=0.5), 10, spec, seed=2)
        assert trace.n_frames == 10**6
        assert abs(trace.counts.mean() - 0.5) < 0.005  # within 1%

    def test_poisson_dispersion(self):
        # variance/mean ratio near 1 over >= 1e5 frames at constant rate
        spec = WindowSpec(tau_seconds=100_000)
        trace = synth_trace(SynthPattern(base_rate=3.0), 1, spec, seed=7)
        ratio = trace.counts.var() / trace.counts.mean()
        assert 0.9 <= ratio <= 1.1

    def test_rate_clamped_at_zero(self):
        spec = WindowSpec(tau_seconds=200)
        pat = SynthPattern(base_rate=1.0, diurnal_amplitude=5.0, period_windows=4)
        trace = synth_trace(pat, 8, spec, seed=9)
        assert trace.counts.min() >= 0

    def test_bad_args(self):
        with pytest.raises(ValueError):
            synth_trace(SynthPattern(), 0, WindowSpec(tau_seconds=10), seed=1)
        with pytest.raises(ValueError):
            SynthPattern(base_rate=-1.0)


# body, what the error says, and the data row it names
MALFORMED_ROWS = [
    ("0,3\n2,4\n", "frame_index out of order at row 2", 2),
    ("1,3\n", "frame_index out of order at row 1", 1),
    ("0,3\n1,4\n3,5\n2,6\n", "frame_index out of order at row 3", 3),
    ("0,3\n1,x\n", "could not convert", 2),
    ("0,3\n1,2.5\n", "could not convert", 2),
    ("0,3\n1,\n", "could not convert", 2),
    ("0,3\n1\n", "columns", 2),
    ("0\n1\n", "expected 2 fields per row", 1),
    ("0,3,1\n", "expected 2 fields per row", 1),
    ("0,3\n\n1,4\n", "blank line at row 2", 2),
    ("0,3\n \n1,4\n", "columns", 2),
    ("0,3\n1,-2\n", "non-negative", 2),
    ("0,3 # note\n", "could not convert", 1),
    ("0,3\n1,\udcff\n", "invalid UTF-8 byte 0xff", 2),
    ("\r\n0,3\r\n1,\udcff\r\n", "invalid UTF-8 byte 0xff", 2),  # after the skipped empty line
]


class TestFiles:
    def test_trace_round_trip(self, tmp_path):
        spec = WindowSpec(tau_seconds=20)
        trace = synth_trace(SynthPattern(base_rate=2.0), 3, spec, seed=4, fps=2)
        path = tmp_path / "scene.csv"
        save_trace(trace, path, spec)
        loaded, tau = load_trace(path)
        np.testing.assert_array_equal(loaded.counts, trace.counts)
        assert loaded.scene_id == trace.scene_id
        assert loaded.fps == 2
        assert tau == 20
        header = path.read_text().splitlines()[0]
        assert header == "frame_index,count"

    def test_trace_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frame,count\n0,1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row 0: expected header"):
            load_trace(path)

    @settings(max_examples=60, deadline=None)
    @given(counts=st.lists(st.integers(0, 2**63 - 1), max_size=300), fps=st.integers(1, 30))
    # the index column widens from 9 to 10, 99 to 100 and 999 to 1000; 9000 rows of
    # 25 bytes span more than one block when written and when read
    @example(counts=[5] * 11, fps=1)
    @example(counts=[0, 2**63 - 1] * 50 + [7], fps=1)
    @example(counts=list(range(1001)), fps=1)
    @example(counts=[2**63 - 1] * 9000, fps=1)
    def test_trace_save_load_save_exact(self, tmp_path_factory, counts, fps):
        path = tmp_path_factory.mktemp("rt") / "scene.csv"
        trace = CountTrace("rt", np.asarray(counts, dtype=np.int64), fps=fps, start_epoch=1.5)
        spec = WindowSpec(tau_seconds=7)
        save_trace(trace, path, spec)
        first = path.read_bytes()
        # the format: a header, then one `index,count` line per frame
        assert first.decode() == "frame_index,count\n" + "".join(
            f"{i},{c}\n" for i, c in enumerate(counts)
        )
        loaded, tau = load_trace(path)
        assert loaded.counts.tolist() == counts
        assert (loaded.scene_id, loaded.fps, loaded.start_epoch, tau) == ("rt", fps, 1.5, 7)
        save_trace(loaded, path, spec)
        assert path.read_bytes() == first

    @settings(max_examples=300, deadline=None)
    @given(text=_csv_texts())
    # a text read ends a line at a lone \r, and loadtxt skipped one empty line
    @example(text="frame_index,count\r0,1\r1,2")
    @example(text="frame_index,count\n\n0,1\n")
    def test_trace_load_agrees_with_loadtxt(self, tmp_path_factory, text):
        path = self._write(tmp_path_factory.mktemp("csv"), text)
        expected = _loadtxt_counts(path)
        if expected is None:
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: row \d+: "):
                load_trace(path)
        else:
            assert load_trace(path)[0].counts.tolist() == expected.tolist()

    def test_trace_header_only_is_empty(self, tmp_path):
        path = self._write(tmp_path, "frame_index,count\n")
        trace, tau = load_trace(path)
        assert trace.n_frames == 0 and tau == 60

    @pytest.mark.parametrize("body, match, row", MALFORMED_ROWS, ids=[
        f"{body}-{match}" for body, match, _ in MALFORMED_ROWS  # the names always collected
    ])
    def test_trace_load_rejects_malformed_rows(self, tmp_path, body, match, row):
        path = self._write(tmp_path, "frame_index,count\n" + body)
        with pytest.raises(ValueError, match=match) as raised:
            load_trace(path)
        assert str(raised.value).startswith(f"{path}: row {row}: ")

    @staticmethod
    def _write(tmp_path, text):
        """A trace CSV of text, a lone surrogate standing for a byte that is not UTF-8."""
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        meta = {"scene_id": "t", "fps": 1, "start_epoch": 0.0, "tau_seconds": 60}
        path.with_suffix(".meta.json").write_text(json.dumps(meta))
        return path

    def test_empty_detection_log_is_one_newline(self, tmp_path):
        path = tmp_path / "log.jsonl"
        save_detection_log(DetectionLog(), path)
        assert path.read_bytes() == b"\n"

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_detection_log_bytes_match_json_dumps(self, tmp_path_factory, data):
        label = st.one_of(
            st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\n\t", "\x7f", "caf\u00e9",
                             "\u2603", "\U0001f697", ""]),
            st.text(max_size=6),
        )
        coord = st.one_of(
            st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 0.1, 1e-7, 2.5e-5, 1e22]),
            st.floats(allow_nan=False, allow_infinity=False),
            st.integers(-2**60, 2**60),
        )
        # two values distinct as the floats a log stores, sorted, give a box
        # edge of positive length
        edge = st.lists(coord, min_size=2, max_size=2, unique_by=float).map(sorted)
        box = st.tuples(edge, edge, label).map(lambda b: (b[0][0], b[1][0], b[0][1], b[1][1], b[2]))
        ts = data.draw(st.lists(
            st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**6, 10**6)),
            unique=True, max_size=8,
        ).map(sorted))
        frames = data.draw(st.lists(
            st.lists(box, max_size=3).map(tuple), min_size=len(ts), max_size=len(ts),
        ))
        log = DetectionLog(timestamps=tuple(ts), boxes=tuple(frames))
        path = tmp_path_factory.mktemp("dl") / "log.jsonl"
        save_detection_log(log, path)
        assert path.read_bytes() == _reference_log_text(log).encode()
        assert load_detection_log(path) == log

    def test_detection_log_round_trip(self, tmp_path):
        log = DetectionLog(
            timestamps=(0.0, 1.5),
            boxes=(((1.0, 2.0, 3.0, 4.0, "car"),), ()),
        )
        path = tmp_path / "log.jsonl"
        save_detection_log(log, path)
        loaded = load_detection_log(path)
        assert loaded == log
