"""Simulated object counters and their error profiles.

A counter is a parametric stand-in for a detector network: it maps true
per-frame counts to observed counts through a multiplicative ratio, an
additive offset, and per-object misses. Profiling compares window means of
truth and observation and stores the deviations in two regimes split by a
threshold on the true mean: a ratio regime for busy windows and an offset
regime for near-empty ones, where ratios would blow up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence

import numpy as np

from ._rng import derive_seed, keyed_normals, keyed_uniforms
from .traces import CountTrace, WindowSpec, finite_number, holds_bool, read_json_object

# stream tags for the keyed per-frame randomness
_STREAM_RATIO = 1
_STREAM_OFFSET = 2
_STREAM_MISS = 3


class UnprofiledRegimeError(ValueError):
    """Raised when a CI is requested for a regime with no profiled samples.

    A batched interval call (:func:`ci.window_sum_intervals`) sets ``row`` to
    the row that raised, so its caller can name the window.
    """

    row = None


@dataclass(frozen=True)
class CounterModel:
    """Parametric error model of one counter plus its per-frame energy cost."""

    counter_id: str
    energy_per_frame_j: float
    ratio_mean: float = 1.0
    ratio_std: float = 0.0
    offset_std: float = 0.0
    miss_floor: float = 0.0

    def __post_init__(self):
        # an id names a profile file and fills a column of the results CSV
        cid = self.counter_id
        if not cid:
            raise ValueError("counter_id must be non-empty")
        if "," in cid or "/" in cid or cid.splitlines() != [cid]:
            raise ValueError(f"counter_id {cid!r} must not contain ',', '/' or a line break")
        for name in ("energy_per_frame_j", "ratio_mean", "ratio_std", "offset_std"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.energy_per_frame_j <= 0:
            raise ValueError("energy_per_frame_j must be positive")
        if self.ratio_mean <= 0:
            raise ValueError("ratio_mean must be positive")
        if self.ratio_std < 0 or self.offset_std < 0:
            raise ValueError("ratio_std and offset_std must be non-negative")
        if not 0.0 <= self.miss_floor <= 1.0:
            raise ValueError("miss_floor must be a probability")


def counter_seeds(counters: Sequence[CounterModel], seed: int, *tags: int) -> Dict[str, int]:
    """Each counter's noise seed, keyed by counter id.

    The counter of rank r in id order gets derive_seed(seed, *tags, r), so
    the order a caller lists the counters in changes no draw. Every
    per-counter seed of the pipeline comes from here, each caller with its
    own tags.
    """
    ids = sorted(c.counter_id for c in counters)
    return {cid: derive_seed(seed, *tags, rank) for rank, cid in enumerate(ids)}


def observe_counts(truth_counts, frame_indices, model: CounterModel, seed: int) -> np.ndarray:
    """Observed counts for the given frames, keyed by (seed, frame index).

    The draw for a frame depends only on the seed and that frame's index, so
    observing any subset of frames gives the same values those frames would
    get in a full pass. Per-object misses collapse to one binomial draw per
    frame. A frame observes rint(max(0, kept * r + a)), with r its ratio
    draw and a its offset draw.

    When at least half the frames keep no object, ratios are drawn only for
    the frames that keep some: a frame with kept == 0 observes
    rint(max(0, a)) whatever its ratio, because 0 * r + a == a for every
    finite r, and keyed draws do not depend on which other frames are drawn.
    Below that share the full-array pass is cheaper than the gather and
    scatter, so every frame draws its ratio.
    """
    g = np.asarray(truth_counts, dtype=np.int64)
    idx = np.asarray(frame_indices, dtype=np.int64)
    if g.shape != idx.shape:
        raise ValueError("truth_counts and frame_indices must align")
    if model.miss_floor > 0.0:
        # scipy.stats costs most of the package's import time; only
        # counters with a miss floor need it
        from scipy.stats import binom

        u = keyed_uniforms(seed, _STREAM_MISS, idx)
        kept = binom.ppf(u, g, 1.0 - model.miss_floor).astype(np.int64)
    else:
        kept = g
    a = keyed_normals(seed, _STREAM_OFFSET, idx, 0.0, model.offset_std)
    if 2 * np.count_nonzero(kept) <= kept.size:
        some = np.flatnonzero(kept)
        r = keyed_normals(seed, _STREAM_RATIO, idx.reshape(-1)[some],
                          model.ratio_mean, model.ratio_std)
        r *= kept.reshape(-1)[some]
        r += a.reshape(-1)[some]
        observed = a
        observed.reshape(-1)[some] = r
    else:
        observed = keyed_normals(seed, _STREAM_RATIO, idx, model.ratio_mean, model.ratio_std)
        observed *= kept
        observed += a
    np.maximum(observed, 0.0, out=observed)
    return np.rint(observed, out=observed).astype(np.int64)


def apply_counter(truth: CountTrace, model: CounterModel, seed: int) -> CountTrace:
    """Run the forward error model over a whole trace."""
    idx = np.arange(truth.n_frames, dtype=np.int64)
    observed = observe_counts(truth.counts, idx, model, seed)
    return CountTrace(
        scene_id=truth.scene_id,
        counts=observed,
        fps=truth.fps,
        start_epoch=truth.start_epoch,
    )


@dataclass(frozen=True)
class ErrorProfile:
    """Empirical window-mean deviations of a counter, split at `threshold`.

    ratio_samples holds true/observed mean ratios for windows whose true mean
    exceeds the threshold; offset_samples holds true-minus-observed
    differences for the rest. Moments are cached at construction and always
    recomputable from the raw samples.
    """

    counter_id: str
    threshold: float
    ratio_samples: np.ndarray
    offset_samples: np.ndarray
    dropped_pairs: int = 0

    def __post_init__(self):
        if not (finite_number(self.threshold) and self.threshold >= 0):
            raise ValueError(f"threshold must be non-negative and finite, got {self.threshold!r}")
        if type(self.dropped_pairs) is not int or self.dropped_pairs < 0:  # a bool's type is bool
            raise ValueError(f"dropped_pairs must be a non-negative integer, got {self.dropped_pairs!r}")
        ratio = _finite_samples("ratio", self.ratio_samples)
        offset = _finite_samples("offset", self.offset_samples)
        if ratio.size and ratio.min() <= 0:
            raise ValueError("ratio samples must be positive")
        ratio.setflags(write=False)
        offset.setflags(write=False)
        object.__setattr__(self, "ratio_samples", ratio)
        object.__setattr__(self, "offset_samples", offset)
        # population moments; Monte Carlo resampling sees exactly these
        object.__setattr__(self, "ratio_mean", float(ratio.mean()) if ratio.size else float("nan"))
        object.__setattr__(self, "ratio_stdev", float(ratio.std()) if ratio.size else float("nan"))
        object.__setattr__(self, "offset_mean", float(offset.mean()) if offset.size else float("nan"))
        object.__setattr__(self, "offset_stdev", float(offset.std()) if offset.size else float("nan"))

    @property
    def ratio_usable(self) -> bool:
        return self.ratio_samples.size > 0

    @property
    def offset_usable(self) -> bool:
        return self.offset_samples.size > 0

    def require_branch(self, branch: str) -> None:
        if branch == "ratio" and not self.ratio_usable:
            raise UnprofiledRegimeError(
                f"unprofiled regime: counter {self.counter_id!r} has no ratio samples"
            )
        if branch == "offset" and not self.offset_usable:
            raise UnprofiledRegimeError(
                f"unprofiled regime: counter {self.counter_id!r} has no offset samples"
            )


def _finite_samples(branch: str, samples) -> np.ndarray:
    """One branch's samples as float64; a bool, non-numeric or non-finite sample raises."""
    values = np.asarray(samples)
    if holds_bool(samples) or values.size and (
        values.dtype.kind not in "iuf" or not np.isfinite(values).all()
    ):
        raise ValueError(f"{branch} samples must be finite numbers")
    return np.asarray(values, dtype=np.float64)


def profile_errors(pairs, threshold: float, counter_id: str = "", min_pairs: int = 30) -> ErrorProfile:
    """Build an ErrorProfile from (true mean, observed mean) window pairs.

    Pairs with observed mean 0 in the ratio regime cannot form a finite ratio
    and are dropped; the count of drops is kept on the profile.

    Parameters
    ----------
    pairs : sequence of (true_mean, observed_mean)
    threshold : float
        Regime split on the true mean.
    min_pairs : int
        Minimum pairs required; 30 matches the smallest sample size the
        planners will ever request.
    """
    pairs = [(float(m), float(mx)) for m, mx in pairs]
    if len(pairs) < min_pairs:
        raise ValueError(f"insufficient pairs: got {len(pairs)}, need >= {min_pairs}")
    ratio = []
    offset = []
    dropped = 0
    for true_mean, obs_mean in pairs:
        if true_mean > threshold:
            if obs_mean == 0.0:
                dropped += 1
                continue
            ratio.append(true_mean / obs_mean)
        else:
            offset.append(true_mean - obs_mean)
    return ErrorProfile(
        counter_id=counter_id,
        threshold=threshold,
        ratio_samples=np.asarray(ratio),
        offset_samples=np.asarray(offset),
        dropped_pairs=dropped,
    )


def window_mean_pairs(truth: CountTrace, observed: CountTrace, spec: WindowSpec):
    """Per-window (true mean, observed mean) pairs for profiling."""
    if truth.n_frames != observed.n_frames or truth.fps != observed.fps:
        raise ValueError("truth and observed traces must align")
    wf = spec.window_frames(truth.fps)
    n = truth.n_windows(spec)
    t = truth.counts[: n * wf].reshape(n, wf).mean(axis=1)
    o = observed.counts[: n * wf].reshape(n, wf).mean(axis=1)
    return list(zip(t.tolist(), o.tolist()))


# ---------------------------------------------------------------------------
# file formats


def save_profile(profile: ErrorProfile, path) -> None:
    payload = {
        "counter_id": profile.counter_id,
        "threshold": profile.threshold,
        "ratio_samples": profile.ratio_samples.tolist(),
        "offset_samples": profile.offset_samples.tolist(),
        "dropped_pairs": profile.dropped_pairs,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_profile(path) -> ErrorProfile:
    d = read_json_object(path)
    # moments recomputed by the constructor, not trusted from disk
    return d.build(
        ErrorProfile,
        counter_id=d.string("counter_id"),
        threshold=d.number("threshold"),
        ratio_samples=d.numbers("ratio_samples"),
        offset_samples=d.numbers("offset_samples"),
        dropped_pairs=d.integer("dropped_pairs", 0),
    )
