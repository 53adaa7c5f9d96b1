"""Ground-truth count traces.

A trace holds one non-negative object count per frame for a single camera
scene. Traces come either from synthesis (Poisson arrivals with a diurnal
rate) or from ingesting a detection log through region-of-interest counting.
Windowing operations slice a trace into fixed-length aggregation windows and
fixed-size planning horizons.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import MISSING, dataclass
from pathlib import Path

import numpy as np

from ._rng import spawn_rng


@dataclass(frozen=True)
class WindowSpec:
    """Aggregation window and horizon geometry plus the confidence level."""

    tau_seconds: int = 1800
    horizon_windows: int = 48
    alpha: float = 0.95

    def __post_init__(self):
        if self.tau_seconds <= 0:
            raise ValueError("tau_seconds must be positive")
        if self.horizon_windows < 1:
            raise ValueError("horizon_windows must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")

    def window_frames(self, fps: int) -> int:
        return self.tau_seconds * fps


@dataclass(frozen=True)
class CountTrace:
    """Per-frame ground-truth counts for one scene at a fixed frame rate."""

    scene_id: str
    counts: np.ndarray
    fps: int = 1
    start_epoch: float = 0.0

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be non-negative")
        if self.fps < 1:
            raise ValueError("fps must be a positive integer")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n_frames(self) -> int:
        return int(self.counts.size)

    def n_windows(self, spec: WindowSpec) -> int:
        wf = spec.window_frames(self.fps)
        if self.n_frames % wf != 0:
            raise ValueError(
                f"trace length {self.n_frames} is not a whole number of "
                f"{wf}-frame windows"
            )
        return self.n_frames // wf

    def window_slice(self, window_index: int, spec: WindowSpec) -> np.ndarray:
        wf = spec.window_frames(self.fps)
        n = self.n_windows(spec)
        if not 0 <= window_index < n:
            raise IndexError(f"window {window_index} out of range [0, {n})")
        return self.counts[window_index * wf : (window_index + 1) * wf]

    def n_horizons(self, spec: WindowSpec) -> int:
        """Whole horizons in the trace; a partial last one does not count."""
        return self.n_frames // (spec.window_frames(self.fps) * spec.horizon_windows)

    def horizon_slice(self, horizon_index: int, spec: WindowSpec) -> "CountTrace":
        wf = spec.window_frames(self.fps) * spec.horizon_windows
        n_h = self.n_horizons(spec)
        if not 0 <= horizon_index < n_h:
            raise IndexError(f"horizon {horizon_index} out of range [0, {n_h})")
        sub = self.counts[horizon_index * wf : (horizon_index + 1) * wf]
        return CountTrace(
            scene_id=self.scene_id,
            counts=sub,
            fps=self.fps,
            start_epoch=self.start_epoch + horizon_index * wf / self.fps,
        )


@dataclass(frozen=True)
class RoiSpec:
    """Axis-aligned region of interest plus the object travel time through it."""

    region: tuple  # (x_min, y_min, x_max, y_max) in pixels
    travel_seconds: float

    def __post_init__(self):
        if len(self.region) != 4:
            raise ValueError(f"region must be (x_min, y_min, x_max, y_max), got {self.region!r}")
        x_min, y_min, x_max, y_max = self.region
        if not (x_min < x_max and y_min < y_max):
            raise ValueError("region must have positive width and height")
        if not 0 < self.travel_seconds < math.inf:  # NaN fails it too
            raise ValueError(
                f"travel_seconds must be positive and finite, got {self.travel_seconds!r}"
            )


class _FrameError(ValueError):
    """A DetectionLog check that failed on one frame; a loader maps `frame` to its line."""

    def __init__(self, frame: int, reason: str):
        super().__init__(f"frame {frame}: {reason}")
        self.frame = frame
        self.reason = reason


@dataclass(frozen=True)
class DetectionLog:
    """Timestamped per-frame detection boxes, the input to ROI counting.

    boxes[i] is a tuple of (x0, y0, x1, y1, class_label) tuples for the frame
    at timestamps[i].
    """

    timestamps: tuple = ()
    boxes: tuple = ()

    def __post_init__(self):
        ts = tuple(float(t) for t in self.timestamps)
        if not all(map(math.isfinite, ts)):
            i = next(i for i, t in enumerate(ts) if not math.isfinite(t))
            raise _FrameError(i, f"timestamp must be finite, got {ts[i]!r}")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            i = next(i for i in range(1, len(ts)) if ts[i] <= ts[i - 1])
            raise _FrameError(
                i, f"timestamps must be strictly increasing, got {ts[i]!r} after {ts[i - 1]!r}"
            )
        frames = []
        for i, frame in enumerate(self.boxes):
            checked = []
            for x0, y0, x1, y1, label in frame:
                try:
                    # NaN fails every comparison; once x0 < x1 and y0 < y1 hold,
                    # these four are the only bounds that can be infinite. None
                    # or a string cannot be compared with a float at all.
                    finite = -math.inf < x0 and x1 < math.inf and -math.inf < y0 and y1 < math.inf
                    box = (float(x0), float(y0), float(x1), float(y1), label)
                except (TypeError, OverflowError):  # OverflowError: an int past float range
                    finite = False
                if not finite:
                    raise _FrameError(
                        i, f"box coordinates must be finite numbers, got {(x0, y0, x1, y1)!r}"
                    )
                # on the stored floats: ints past 2**53 that differ can round to one float
                if not (box[0] < box[2] and box[1] < box[3]):
                    raise _FrameError(i, "boxes must have positive area")
                if not isinstance(label, str):  # str() would book null under "None"
                    raise _FrameError(i, f"box class must be a string, got {label!r}")
                checked.append(box)
            frames.append(tuple(checked))
        if len(ts) != len(frames):
            raise ValueError("timestamps and boxes must have equal length")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "boxes", tuple(frames))


def _roi_hits(log: DetectionLog, frame_idx: np.ndarray, roi: RoiSpec, class_label: str):
    """Boxes of one class that intersect the ROI, for each frame index given.

    Closed rectangles: a box sharing only an edge or corner with the ROI
    still counts.
    """
    rx0, ry0, rx1, ry1 = roi.region
    return np.fromiter(
        (
            sum(
                label == class_label and x0 <= rx1 and x1 >= rx0 and y0 <= ry1 and y1 >= ry0
                for x0, y0, x1, y1, label in log.boxes[f]
            )
            for f in frame_idx.tolist()
        ),
        dtype=np.int64,
        count=len(frame_idx),
    )


def roi_count(log: DetectionLog, roi: RoiSpec, class_label: str, time_range: tuple) -> int:
    """Count objects of one class crossing the ROI over a time range.

    Frames are sampled every ``roi.travel_seconds`` starting at the range
    start; each sample time maps to the nearest logged frame at or after it.
    A box contributes when its rectangle intersects the ROI (closed
    rectangles, so edge contact counts).

    Parameters
    ----------
    log : DetectionLog
    roi : RoiSpec
    class_label : str
        Only boxes with this label are counted.
    time_range : (start, end)
        Half-open interval in the log's time units.

    Returns
    -------
    int
        Sum of intersecting boxes over the sampled frames.
    """
    if not log.timestamps:
        raise ValueError("no frames")
    start, end = float(time_range[0]), float(time_range[1])
    if end <= start:
        raise ValueError("range out of bounds")
    ts = np.asarray(log.timestamps)
    t = roi.travel_seconds
    n_samples = int(np.ceil((end - start) / t - 1e-12))
    targets = start + t * np.arange(n_samples)
    if start < ts[0] - 1e-9 or (n_samples and targets[-1] > ts[-1] + 1e-9):
        raise ValueError("range out of bounds")
    frame_idx = np.searchsorted(ts, targets - 1e-9, side="left")
    return int(_roi_hits(log, frame_idx, roi, class_label).sum())


def trace_from_detections(
    log: DetectionLog,
    roi: RoiSpec,
    class_label: str,
    spec: WindowSpec,
    fps: int = 1,
    scene_id: str = "ingested",
) -> CountTrace:
    """Convert a detection log into a count trace via ROI sampling.

    Sample instants run from the log start at travel-time intervals; each
    instant books the intersecting-box count of the nearest logged frame at
    or after it into the trace frame containing the instant. Window sums of
    the result match per-window roi_count whenever the window length is a
    multiple of the travel time. The output is truncated to whole windows.
    """
    if not log.timestamps:
        raise ValueError("no frames")
    ts = np.asarray(log.timestamps)
    start = float(ts[0])
    wf = spec.window_frames(fps)
    total_frames = int(np.floor((float(ts[-1]) - start) * fps)) + 1
    n_windows = total_frames // wf
    if n_windows == 0:
        raise ValueError(
            f"log spans {total_frames} frames, shorter than one {wf}-frame window"
        )
    n_frames = n_windows * wf
    t = roi.travel_seconds
    n_samples = int(np.ceil(n_frames / fps / t - 1e-12))
    instants = start + np.arange(n_samples) * t
    slots = np.floor((instants - start) * fps).astype(np.int64)
    frame_idx = np.searchsorted(ts, instants - 1e-9, side="left")
    # slots never decrease, so the first mask keeps a prefix of the instants;
    # the second drops instants with no logged frame at or after them
    booked = (slots < n_frames) & (frame_idx < len(ts))
    counts = np.zeros(n_frames, dtype=np.int64)
    # two instants can share a slot (travel time under a frame): add.at sums both
    np.add.at(counts, slots[booked], _roi_hits(log, frame_idx[booked], roi, class_label))
    return CountTrace(scene_id=scene_id, counts=counts, fps=fps, start_epoch=start)


@dataclass(frozen=True)
class SynthPattern:
    """Diurnal Poisson arrival pattern for synthetic scenes."""

    base_rate: float = 2.0
    diurnal_amplitude: float = 0.0
    period_windows: int = 48

    def __post_init__(self):
        for name in ("base_rate", "diurnal_amplitude"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails it too
                raise ValueError(f"{name} must be non-negative and finite, got {getattr(self, name)!r}")
        if self.period_windows < 1:
            raise ValueError("period_windows must be >= 1")


def synth_trace(
    pattern: SynthPattern,
    n_windows: int,
    spec: WindowSpec,
    seed: int,
    scene_id: str = "synthetic",
    fps: int = 1,
) -> CountTrace:
    """Draw a synthetic trace with a sinusoidal diurnal rate.

    Per-frame counts are independent Poisson draws at rate
    ``max(0, base + amplitude * sin(2*pi*w / period))`` where w is the frame's
    position measured in windows. Deterministic for a given seed.
    """
    if n_windows <= 0:
        raise ValueError("n_windows must be positive")
    wf = spec.window_frames(fps)
    n_frames = n_windows * wf
    frame_pos_windows = np.arange(n_frames, dtype=np.float64) / wf
    lam = pattern.base_rate + pattern.diurnal_amplitude * np.sin(
        2.0 * np.pi * frame_pos_windows / pattern.period_windows
    )
    np.maximum(lam, 0.0, out=lam)
    rng = spawn_rng(seed, 1)
    counts = rng.poisson(lam)
    return CountTrace(scene_id=scene_id, counts=counts, fps=fps)


# ---------------------------------------------------------------------------
# file formats


def read_json(path):
    """Parse a JSON file; a file that cannot be read or parsed raises ValueError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:  # json.JSONDecodeError and UnicodeDecodeError are ones
        raise ValueError(f"{path}: {exc}") from None


def read_json_object(path) -> JsonObject:
    """Parse a JSON file that must hold a single object."""
    d = read_json(path)
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return JsonObject(d, path)


def _finite_number(value) -> bool:
    try:
        return type(value) in (int, float) and math.isfinite(value)  # a bool's type is bool
    except OverflowError:  # an int past the float range
        return False


class JsonObject:
    """The artefact loaders' one field contract: typed reads of a JSON object's fields.

    A number is a finite JSON int or float, never a bool, a string, null, NaN
    or Infinity; an integer is a number with an integral value; a number list
    reads as a float64 array. A bad field raises ValueError reading ``<where>:
    <key>: expected <what>, got <value!r>`` (a missing one ``<where>: missing key
    '<key>'``), with keys below the top level dotted and list elements indexed.
    """

    def __init__(self, data: dict, where, prefix: str = ""):
        self.data, self.where, self.prefix = data, where, prefix

    def error(self, key: str, expected: str, value) -> ValueError:
        return ValueError(f"{self.where}: {self.prefix}{key}: expected {expected}, got {value!r}")

    def build(self, cls, **fields):
        """cls(**fields), whose own rules name the file when they fail."""
        try:
            return cls(**fields)
        except ValueError as exc:
            raise ValueError(f"{self.where}: {exc}") from None

    def _read(self, key: str, default, expected: str, accept):
        if key not in self.data:
            if default is MISSING:
                raise ValueError(f"{self.where}: missing key {self.prefix + key!r}")
            return default
        if not accept(self.data[key]):
            raise self.error(key, expected, self.data[key])
        return self.data[key]

    def number(self, key: str, default=MISSING) -> float:
        return float(self._read(key, default, "a finite number", _finite_number))

    def integer(self, key: str, default=MISSING) -> int:
        return int(self._read(key, default, "an integer",
                              lambda v: _finite_number(v) and float(v).is_integer()))

    def string(self, key: str) -> str:
        return self._read(key, MISSING, "a string", lambda v: isinstance(v, str))

    def strings(self, key: str) -> list:
        return self._read(key, MISSING, "a list of strings",
                          lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v))

    def nested(self, key: str) -> JsonObject:
        data = self._read(key, MISSING, "a JSON object", lambda v: isinstance(v, dict))
        return JsonObject(data, self.where, f"{self.prefix}{key}.")

    def numbers(self, key: str) -> np.ndarray:
        values = self._read(key, MISSING, "a list of numbers", lambda v: isinstance(v, list))
        bad = next((i for i, v in enumerate(values) if not _finite_number(v)), None)
        if bad is not None:
            raise self.error(f"{key}[{bad}]", "a finite number", values[bad])
        return np.array(values, dtype=np.float64)


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".meta.json")


def save_trace(trace: CountTrace, csv_path, spec: WindowSpec) -> None:
    """Write `frame_index,count` rows plus a metadata sidecar JSON."""
    csv_path = Path(csv_path)
    counts = trace.counts.tolist()
    rows = "".join(map("{},{}\n".format, range(len(counts)), counts))
    csv_path.write_text("frame_index,count\n" + rows)
    meta = {
        "scene_id": trace.scene_id,
        "fps": trace.fps,
        "start_epoch": trace.start_epoch,
        "tau_seconds": spec.tau_seconds,
    }
    _sidecar_path(csv_path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_trace(csv_path) -> tuple:
    """Read a trace CSV plus sidecar; returns (CountTrace, tau_seconds)."""
    csv_path = Path(csv_path)
    header, _, body = csv_path.read_text().strip().partition("\n")
    if header != "frame_index,count":
        raise ValueError(f"{csv_path}: expected header 'frame_index,count'")
    if "\n\n" in body:  # loadtxt would skip it
        row = body.count("\n", 0, body.index("\n\n")) + 2
        raise ValueError(f"{csv_path}: blank line at row {row}")
    table = np.empty((0, 2), dtype=np.int64)
    if body:
        try:
            table = np.loadtxt(
                io.StringIO(body), dtype=np.int64, delimiter=",", comments=None, ndmin=2
            )
        except ValueError as exc:
            raise ValueError(f"{csv_path}: {exc}") from exc
    if table.shape[1] != 2:
        raise ValueError(f"{csv_path}: expected 2 fields per row, got {table.shape[1]}")
    out_of_order = np.flatnonzero(table[:, 0] != np.arange(len(table)))
    if out_of_order.size:
        raise ValueError(f"{csv_path}: frame_index out of order at row {out_of_order[0] + 1}")
    counts = table[:, 1].copy()  # contiguous, without the index column
    sidecar = _sidecar_path(csv_path)
    meta = read_json_object(sidecar)
    fps, tau = meta.integer("fps"), meta.integer("tau_seconds")
    return CountTrace(meta.string("scene_id"), counts, fps, meta.number("start_epoch")), tau


def save_detection_log(log: DetectionLog, path) -> None:
    """Write one `{"boxes": [...], "ts": t}` JSON line per frame.

    The bytes are those of ``json.dumps(record, sort_keys=True)``: keys in
    sorted order, default separators, floats through ``repr`` (the log holds
    finite floats only) and labels through ``json.dumps``.
    """
    distinct = {box[4] for frame in log.boxes for box in frame}
    labels = {label: json.dumps(label) for label in distinct}
    lines = []
    for ts, frame in zip(log.timestamps, log.boxes):
        boxes = ", ".join([
            f'{{"class": {labels[label]}, "x0": {x0!r}, "x1": {x1!r}, "y0": {y0!r}, "y1": {y1!r}}}'
            for x0, y0, x1, y1, label in frame
        ])
        lines.append(f'{{"boxes": [{boxes}], "ts": {ts!r}}}')
    Path(path).write_text("\n".join(lines) + "\n")


def load_detection_log(path) -> DetectionLog:
    """Read JSON-lines of `{ts, boxes:[{x0,y0,x1,y1,class}]}` records."""
    timestamps = []
    frames = []
    linenos = []  # blank lines are skipped, so a frame's line is not its index + 1
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("expected a JSON object")
            ts, boxes = rec["ts"], rec["boxes"]
            if type(ts) is not float and type(ts) is not int:  # a bool, a string or null
                raise ValueError(f"'ts' must be a number, got {ts!r}")
            ts = float(ts)
            if not isinstance(boxes, list) or not all(isinstance(b, dict) for b in boxes):
                raise ValueError("'boxes' must be a list of JSON objects")
            frames.append(tuple((b["x0"], b["y0"], b["x1"], b["y1"], b["class"]) for b in boxes))
        except KeyError as exc:
            raise ValueError(f"{path}: line {lineno}: missing key {exc.args[0]!r}") from None
        except (ValueError, OverflowError) as exc:  # json.JSONDecodeError is a ValueError
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        timestamps.append(ts)
        linenos.append(lineno)
    try:
        return DetectionLog(timestamps=tuple(timestamps), boxes=tuple(frames))
    except _FrameError as exc:
        raise ValueError(f"{path}: line {linenos[exc.frame]}: {exc.reason}") from None
