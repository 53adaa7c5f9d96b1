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


_CSV_HEADER = b"frame_index,count"

# What a trace CSV row may hold besides digits, commas and newlines, by
# byte: the spaces are the ASCII characters str.isspace accepts, which numpy
# strips around an integer field. A file that is not ASCII has its other
# whitespace turned into spaces before it is parsed.
_OTHER, _SPACE, _SIGN = range(3)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(b"\t\x0b\x0c\x1c\x1d\x1e\x1f ")] = _SPACE
_BYTE_CLASS[list(b"+-")] = _SIGN


# Rows formatted, and body bytes parsed, at a time: one block's arrays stay
# in cache, and its temporaries stay small.
_BLOCK_ROWS = 1 << 13
_BLOCK_BYTES = 1 << 16
# _DIGIT_MASKS[k] keeps the low nibbles of the high k bytes of a word
_DIGIT_MASKS = np.array(
    [0x0F0F0F0F0F0F0F0F >> (8 * (8 - k)) << (8 * (8 - k)) for k in range(9)], dtype=np.uint64
)


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


def _eight_digits(buf: bytes, ends: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Value of the last min(n, 8) ASCII digits of buf before each end >= 8, as uint64.

    Read as a little-endian word, the eight bytes before an end hold those
    digits in their high bytes. A mask keeps their values and clears the
    bytes before them, and three multiply-add steps combine the digits
    pairwise into one value.
    """
    words = np.ndarray((len(buf) - 7,), dtype="V8", buffer=buf, strides=(1,))
    w = words[ends - 8].view("<u8")
    w &= _DIGIT_MASKS[np.minimum(n, 8)]
    w *= np.uint64(10 * 256 + 1)
    w >>= np.uint64(8)
    pairs = np.uint64(0x000000FF000000FF)
    high = w >> np.uint64(16)
    high &= pairs
    high *= np.uint64(1 + (10000 << 32))
    w &= pairs
    w *= np.uint64(100 + (1000000 << 32))
    w += high
    w >>= np.uint64(32)
    return w


def _row_error(csv_path, row: int, reason: str) -> ValueError:
    return ValueError(f"{csv_path}: row {row}: {reason}")


def _csv_text(csv_path: Path) -> bytes:
    """A trace CSV's bytes as a text read sees them, stripped; the header is checked.

    The file reads as UTF-8, with \\r\\n and a lone \\r ending a line. Other
    whitespace than ASCII becomes a space: np.loadtxt strips any whitespace
    around a field.
    """
    raw = csv_path.read_bytes()
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:  # its row counted as the parse counts rows
        head = raw[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").lstrip()
        row = head.count(b"\n") - head.startswith(_CSV_HEADER + b"\n\n")
        raise _row_error(csv_path, row, f"invalid UTF-8 byte {raw[exc.start]:#04x}") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    text = text.strip()
    if not text.isascii():
        text = re.sub(r"[^\S\n]", " ", text)
    buf = text.encode()
    if buf[: len(_CSV_HEADER) + 1] not in (_CSV_HEADER, _CSV_HEADER + b"\n"):
        raise _row_error(csv_path, 0, f"expected header {_CSV_HEADER.decode()!r}")
    return buf


def _parse_block(csv_path, buf: bytes, lo: int, hi: int, row0: int) -> np.ndarray:
    """The counts of the whole rows in buf[lo:hi], row0 being the first one's number."""
    b = np.frombuffer(buf, dtype=np.uint8, count=hi - lo, offset=lo)
    pos = np.flatnonzero((b - np.uint8(ord("0"))) > 9)  # every byte that is not a digit
    byte = b[pos]
    is_sep = (byte == ord(",")) | (byte == ord("\n"))
    seps, sep_byte = pos[is_sep], byte[is_sep]
    n_rows = np.count_nonzero(sep_byte == ord("\n")) + 1

    def bad_field(p: int) -> ValueError:
        """The error for the field holding block position p, or ending at it."""
        i = int(np.searchsorted(seps, p))
        field = bytes(b[seps[i - 1] + 1 if i else 0 : seps[i] if i < seps.size else b.size])
        row = row0 + buf.count(b"\n", lo, lo + p)
        return _row_error(csv_path, row, f"could not convert {field.decode()!r} to int64")

    extra = np.flatnonzero(~is_sep)  # spaces, signs and faults, which a file rarely holds
    extra_kind = _BYTE_CLASS[byte[extra]]
    if (extra_kind == _OTHER).any():
        raise bad_field(pos[extra[np.argmin(extra_kind)]])
    if seps.size != 2 * n_rows - 1 or (sep_byte[::2] != ord(",")).any():
        newlines = seps[sep_byte == ord("\n")]
        commas = np.bincount(np.searchsorted(newlines, seps[sep_byte == ord(",")]), minlength=n_rows)
        empty = np.diff(newlines, prepend=-1, append=b.size) == 1
        row = int(np.flatnonzero(empty | (commas != 1))[0])
        if empty[row]:
            raise _row_error(csv_path, row0 + row, f"blank line at row {row0 + row}")
        raise _row_error(
            csv_path, row0 + row,
            f"expected 2 fields per row (columns frame_index,count), got {commas[row] + 1}",
        )
    # the digit runs: gaps[i] digits end at edges[i]
    edges = np.append(pos, b.size)
    gaps = np.diff(edges, prepend=-1)
    gaps -= 1
    is_run = gaps > 0
    ends, n = edges[is_run], gaps[is_run]
    # one run per field: run k ends by separator k, and run k + 1 starts after it
    if ends.size != 2 * n_rows or (ends[:-1] > seps).any() or (seps >= (ends - n)[1:]).any():
        per_field = np.bincount(np.searchsorted(seps, ends - n), minlength=2 * n_rows)
        f = int(np.flatnonzero(per_field != 1)[0])  # no digits, or two runs of them
        raise bad_field(seps[f - 1] + 1 if f else 0)
    signs = extra[extra_kind == _SIGN]
    loose = signs[gaps[signs + 1] == 0]  # a sign must come right before the digits
    if loose.size:
        raise bad_field(pos[loose[0]])
    values = _eight_digits(buf, lo + ends, n)
    if n.max() > 8:
        wide = np.flatnonzero(n > 8)
        values[wide] += _eight_digits(buf, lo + ends[wide] - 8, n[wide] - 8) * np.uint64(10**8)
        for i in np.flatnonzero(n > 16).tolist():  # leading zeros, or past the int64 range
            value = int(b[ends[i] - n[i] : ends[i]].tobytes())
            if value > np.iinfo(np.int64).max:
                raise bad_field(ends[i] - 1)
            values[i] = value
    values = values.view(np.int64)
    values[np.searchsorted(seps, pos[signs[byte[signs] == ord("-")]])] *= -1
    index = np.arange(row0 - 1, row0 - 1 + n_rows)
    if (values[0::2] != index).any():
        row = row0 + int(np.argmax(values[0::2] != index))
        raise _row_error(csv_path, row, f"frame_index out of order at row {row}")
    counts = values[1::2]
    if counts.min() < 0:
        i = int(np.argmax(counts < 0))
        raise _row_error(csv_path, row0 + i, f"counts must be non-negative, got {counts[i]}")
    return counts


def _read_counts(csv_path: Path) -> np.ndarray:
    """The count column of a trace CSV, every row checked.

    After the header, one empty line is skipped. Each row then holds two
    integer fields split by one comma; a field is an optional sign and ASCII
    digits, with any whitespace around them, and must fit in int64. Row k
    holds frame index k - 1 and a non-negative count.
    """
    buf = _csv_text(csv_path)
    lo = len(_CSV_HEADER) + 1
    lo += buf[lo : lo + 1] == b"\n"
    # filled block by block, so no block's arrays outlive it
    counts = np.empty(buf.count(b"\n", lo) + 1 if lo < len(buf) else 0, dtype=np.int64)
    row = 1
    while lo < len(buf):
        hi = buf.find(b"\n", lo + _BLOCK_BYTES)
        hi = len(buf) if hi < 0 else hi
        block = _parse_block(csv_path, buf, lo, hi, row)
        counts[row - 1 : row - 1 + block.size] = block
        row += block.size
        lo = hi + 1
    return counts


def load_trace(csv_path) -> tuple:
    """Read a trace CSV plus sidecar; returns (CountTrace, tau_seconds).

    A fault in the CSV raises ValueError reading ``<path>: row <k>: <reason>``,
    with k counting data rows from 1 and the header as row 0.
    """
    csv_path = Path(csv_path)
    counts = _read_counts(csv_path)
    meta = read_json_object(_sidecar_path(csv_path))
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
