"""Ground-truth count traces.

A trace holds one non-negative object count per frame for a single camera
scene. Traces come either from synthesis (Poisson arrivals with a diurnal
rate) or from ingesting a detection log through region-of-interest counting.
Windowing operations slice a trace into fixed-length aggregation windows and
fixed-size planning horizons.
"""

from __future__ import annotations

import json
import math
import operator
import re
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
        if holds_bool(self.counts):
            raise ValueError("counts must be integers, got a bool")
        counts = np.asarray(self.counts)
        if counts.size and counts.dtype.kind not in "iu":  # a float, bool or object count
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        counts = counts.astype(np.int64, copy=False)
        if counts.ndim != 1:
            raise ValueError("counts must be one-dimensional")
        if counts.size and counts.min() < 0:
            raise ValueError("counts must be non-negative")
        if type(self.fps) is not int or self.fps < 1:  # a bool's type is bool
            raise ValueError(f"fps must be a positive integer, got {self.fps!r}")
        if not finite_number(self.start_epoch):
            raise ValueError(f"start_epoch must be a finite number, got {self.start_epoch!r}")
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
        ts = tuple(self.timestamps)
        if not {float}.issuperset(map(type, ts)):
            ts = tuple(map(_checked_timestamp, range(len(ts)), ts))
        if not all(map(math.isfinite, ts)):
            i = next(i for i, t in enumerate(ts) if not math.isfinite(t))
            raise _FrameError(i, f"timestamp must be finite, got {ts[i]!r}")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            i = next(i for i in range(1, len(ts)) if ts[i] <= ts[i - 1])
            raise _FrameError(
                i, f"timestamps must be strictly increasing, got {ts[i]!r} after {ts[i - 1]!r}"
            )
        frames = []
        inf = math.inf
        for i, frame in enumerate(self.boxes):
            # a tuple frame of boxes already in stored form is kept as given;
            # any other goes through the full check, which converts or rejects
            if type(frame) is tuple:
                try:
                    for box in frame:
                        if type(box) is not tuple:
                            break
                        x0, y0, x1, y1, label = box
                        if not (
                            type(x0) is float and type(y0) is float and type(x1) is float
                            and type(y1) is float and type(label) is str
                            and -inf < x0 < x1 < inf and -inf < y0 < y1 < inf
                        ):
                            break
                    else:
                        frames.append(frame)
                        continue
                except ValueError:  # a box not of five values
                    pass
            frames.append(_checked_frame(i, frame))
        if len(ts) != len(frames):
            raise ValueError("timestamps and boxes must have equal length")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "boxes", tuple(frames))


def _checked_timestamp(i: int, t) -> float:
    """Frame i's timestamp as a float; a bool, a string or an int past float range raises."""
    if isinstance(t, float) or type(t) is int:  # numpy's float64 is a float, a bool an int
        try:
            return float(t)
        except OverflowError:
            pass
    raise _FrameError(i, f"'ts' must be a number, got {t!r}")


def _checked_frame(i: int, frame) -> tuple:
    """Frame i's boxes as (x0, y0, x1, y1, label) tuples of four floats and a str.

    Raises _FrameError for the first bad box.
    """
    checked = []
    for x0, y0, x1, y1, label in frame:
        try:
            # NaN fails every comparison; once x0 < x1 and y0 < y1 hold, these
            # four are the only bounds that can be infinite. None or a string
            # cannot be compared with a float at all, and a bool is no number.
            finite = (
                bool not in map(type, (x0, y0, x1, y1))
                and -math.inf < x0 and x1 < math.inf and -math.inf < y0 and y1 < math.inf
            )
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
    return tuple(checked)


def _roi_hits(log: DetectionLog, frame_idx: np.ndarray, roi: RoiSpec, class_label: str):
    """Boxes of one class that intersect the ROI, for each frame index given.

    Closed rectangles: a box sharing only an edge or corner with the ROI
    still counts.
    """
    rx0, ry0, rx1, ry1 = roi.region
    boxes = log.boxes
    hits = []
    for f in frame_idx.tolist():
        n = 0
        for x0, y0, x1, y1, label in boxes[f]:
            if label == class_label and x0 <= rx1 and x1 >= rx0 and y0 <= ry1 and y1 >= ry0:
                n += 1
        hits.append(n)
    return np.array(hits, dtype=np.int64)


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
    or after it into the trace frame containing the instant. The output is
    truncated to whole windows.
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


def finite_number(value) -> bool:
    """Whether value is a finite int or float; a bool, a string or None is no number."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def holds_bool(values) -> bool:
    """Whether a list or tuple holds a bool, which np.asarray would store as 0 or 1."""
    return isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, values))


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
        return float(self._read(key, default, "a finite number", finite_number))

    def integer(self, key: str, default=MISSING) -> int:
        return int(self._read(key, default, "an integer",
                              lambda v: finite_number(v) and float(v).is_integer()))

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
        bad = next((i for i, v in enumerate(values) if not finite_number(v)), None)
        if bad is not None:
            raise self.error(f"{key}[{bad}]", "a finite number", values[bad])
        return np.array(values, dtype=np.float64)


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix(".meta.json")


_CSV_HEADER = b"frame_index,count"
# Rows formatted at a time: one block's arrays stay in cache, and its
# temporaries stay small.
_BLOCK_ROWS = 1 << 13
# what np.loadtxt converts to int64: ASCII digits with an optional sign, and
# any whitespace str.isspace knows around them
_INT_FIELD = re.compile(r"\s*([+-]?[0-9]+)\s*")


def _digit_counts(values: np.ndarray) -> np.ndarray:
    """Decimal digits of each non-negative value."""
    digits = np.ones(values.shape, dtype=np.int64)
    power, top = 10, int(values.max(initial=0))
    while power <= top:
        digits += values >= power
        power *= 10
    return digits


def _put_digits(buf: np.ndarray, ends: np.ndarray, values: np.ndarray, digits: np.ndarray) -> None:
    """Write each value's decimal digits into buf, its last digit at ends - 1."""
    pos, rest = ends - 1, values
    for place in range(int(digits.max(initial=0))):
        if place:
            live = digits > place  # drop the values whose digits are all written
            if not live.all():
                pos, rest, digits = pos[live], rest[live], digits[live]
            pos -= 1
        tens = rest // 10
        buf[pos] = (rest - tens * 10 + ord("0")).astype(np.uint8)
        rest = tens


def _csv_rows(first: int, counts: np.ndarray) -> np.ndarray:
    """The bytes of the trace CSV rows `index,count` for frames from first on."""
    index = np.arange(first, first + counts.size)
    index_digits, count_digits = _digit_counts(index), _digit_counts(counts)
    row_ends = np.cumsum(index_digits + count_digits + 2)
    commas = row_ends - 2 - count_digits
    buf = np.empty(row_ends[-1], dtype=np.uint8)
    buf[row_ends - 1] = ord("\n")
    buf[commas] = ord(",")
    _put_digits(buf, commas, index, index_digits)
    _put_digits(buf, row_ends - 1, counts, count_digits)
    return buf


def save_trace(trace: CountTrace, csv_path, spec: WindowSpec) -> None:
    """Write `frame_index,count` rows plus a metadata sidecar JSON.

    The CSV bytes are those of ``"frame_index,count\\n"`` followed by
    ``f"{i},{c}\\n"`` for each frame; rows are formatted a block at a time.
    """
    csv_path = Path(csv_path)
    counts = trace.counts
    with open(csv_path, "wb") as f:
        f.write(_CSV_HEADER + b"\n")
        for first in range(0, counts.size, _BLOCK_ROWS):
            f.write(_csv_rows(first, counts[first : first + _BLOCK_ROWS]))
    meta = {
        "scene_id": trace.scene_id,
        "fps": trace.fps,
        "start_epoch": trace.start_epoch,
        "tau_seconds": spec.tau_seconds,
    }
    _sidecar_path(csv_path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _row_error(csv_path, row: int, reason: str) -> ValueError:
    return ValueError(f"{csv_path}: row {row}: {reason}")


def _row_fault(csv_path, rows: str, refusal: str) -> ValueError:
    """The error naming the first of the newline-split rows that np.loadtxt refuses.

    It only words a refusal: if no row is at fault, the error is refusal itself.
    """
    for row, line in enumerate(rows.split("\n"), start=1):
        fields = line.split(",")
        if len(fields) != 2:
            return _row_error(
                csv_path, row,
                f"expected 2 fields per row (columns frame_index,count), got {len(fields)}",
            )
        for field in fields:
            digits = _INT_FIELD.fullmatch(field)
            if not digits or not -(2**63) <= int(digits[1]) < 2**63:
                return _row_error(csv_path, row, f"could not convert {field!r} to int64")
    return ValueError(f"{csv_path}: {refusal}")


def _read_counts(csv_path: Path) -> np.ndarray:
    """The count column of a trace CSV, every row checked.

    The file is UTF-8 text, with \\r\\n and a lone \\r ending a line; the
    whitespace around the whole text is ignored. Its first line is the header,
    and one empty line after it is skipped; a blank line after that is
    refused. np.loadtxt reads the rows: two comma-separated int64 fields each,
    the k-th holding frame index k - 1 and a non-negative count. The text
    gives loadtxt the lines to skip and the rows to read, and words its
    refusal. A refused file names its first blank line, else the first row
    loadtxt refuses, else the first index out of order or negative count,
    counting data rows from 1 and the header as row 0.
    """
    header = _CSV_HEADER.decode()
    try:
        text = csv_path.read_bytes().decode()
    except UnicodeDecodeError as exc:  # its row counted as the rows are counted below
        raw = exc.object
        head = raw[: exc.start].decode().replace("\r\n", "\n").replace("\r", "\n").lstrip()
        row = head.count("\n") - head.startswith(header + "\n\n")
        raise _row_error(csv_path, row, f"invalid UTF-8 byte {raw[exc.start]:#04x}") from None
    if "\r" in text:  # the lines a text read, loadtxt's included, sees
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    # text[start:end] is the text without the whitespace around it
    start, end = 0, len(text)
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    header_end = start + len(header)
    if text[start:header_end] != header or header_end < end and text[header_end] != "\n":
        raise _row_error(csv_path, 0, f"expected header {header!r}")
    first = header_end + 1  # the first data row's offset
    if text.startswith("\n", first, end):
        first += 1  # loadtxt skips an empty line; skiprows counts it, max_rows would not
    blank = text.find("\n\n", header_end + 1, end)
    if blank >= 0:
        row = text.count("\n", first, blank + 1) + 1
        raise _row_error(csv_path, row, f"blank line at row {row}")
    if first >= end:
        return np.empty(0, dtype=np.int64)
    skiprows, n_rows = text.count("\n", 0, first), text.count("\n", first, end) + 1
    # freed, so that loadtxt's buffers reuse its memory: a warm load of the
    # README scene takes about 4 ms less
    del text
    try:
        # given a path, loadtxt runs its chunked C reader on the file; a file
        # object, io.StringIO included, it walks line by line at about twice
        # the cost
        table = np.loadtxt(
            csv_path, dtype=np.int64, delimiter=",", comments=None,
            skiprows=skiprows, max_rows=n_rows, encoding="utf-8", ndmin=2,
        )
        if table.shape[1] != 2:
            raise ValueError(f"expected 2 fields per row, got {table.shape[1]}")
    except ValueError as exc:  # the text again, as loadtxt read it, to name the row
        rows = csv_path.read_text(encoding="utf-8")[first:end]
        raise _row_fault(csv_path, rows, str(exc)) from None
    bad_index = table[:, 0] != np.arange(n_rows)
    if bad_index.any():
        row = int(bad_index.argmax()) + 1
        raise _row_error(csv_path, row, f"frame_index out of order at row {row}")
    counts = table[:, 1].copy()  # contiguous, without the index column
    if counts.min() < 0:
        i = int(np.argmax(counts < 0))
        raise _row_error(csv_path, i + 1, f"counts must be non-negative, got {counts[i]}")
    return counts


def load_trace(csv_path) -> tuple:
    """Read a trace CSV plus sidecar; returns (CountTrace, tau_seconds).

    np.loadtxt reads the CSV's rows (see _read_counts). A fault in the CSV
    raises ValueError reading ``<path>: row <k>: <reason>``, with k counting
    data rows from 1 and the header as row 0; a file with several faults
    names its first blank line, else the first row loadtxt refuses. The
    sidecar's tau_seconds must be a positive integer.
    """
    csv_path = Path(csv_path)
    counts = _read_counts(csv_path)
    meta = read_json_object(_sidecar_path(csv_path))
    fps, tau = meta.integer("fps"), meta.integer("tau_seconds")
    if tau < 1:
        raise meta.error("tau_seconds", "a positive integer", tau)
    return meta.build(CountTrace, scene_id=meta.string("scene_id"), counts=counts, fps=fps,
                      start_epoch=meta.number("start_epoch")), tau


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


_JSON_SPACE = " \t\n\r"
_scan_json = json.JSONDecoder().scan_once
_box_fields = operator.itemgetter("x0", "y0", "x1", "y1", "class")


def load_detection_log(path) -> DetectionLog:
    """Read JSON-lines of `{ts, boxes:[{x0,y0,x1,y1,class}]}` records.

    The file is UTF-8 with one record per `\\n`-ended line; blank lines are
    skipped. A fault raises ValueError reading ``<path>: line <k>: <reason>``.
    """
    timestamps = []
    frames = []
    linenos = []  # blank lines are skipped, so a frame's line is not its index + 1
    # split on "\n" alone: a JSON string may hold U+2028 and the other breaks
    # str.splitlines knows, and text mode has already made "\r\n" and "\r" "\n"
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        body = line.strip(_JSON_SPACE)
        try:
            # what json.loads accepts is one value spanning the line between
            # JSON whitespace; anything else is parsed again by json.loads,
            # whose error counts columns on the raw line
            try:
                rec, end = _scan_json(body, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(body):
                if not line.strip():
                    continue
                rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ValueError("expected a JSON object")
            ts, boxes = rec["ts"], rec["boxes"]
            if type(ts) is not float and type(ts) is not int:  # a bool, a string or null
                raise ValueError(f"'ts' must be a number, got {ts!r}")
            ts = float(ts)
            if not isinstance(boxes, list):
                raise ValueError("'boxes' must be a list of JSON objects")
            try:
                frames.append(tuple(map(_box_fields, boxes)))
            except (KeyError, TypeError):  # a box that is not an object reads as TypeError
                if not all(isinstance(b, dict) for b in boxes):
                    raise ValueError("'boxes' must be a list of JSON objects") from None
                raise
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
