"""Per-window energy versus CI-width characterization.

A count action picks one counter and a number of frames to sample in a
window. Each action costs energy and yields an interval width; sweeping
actions over the frame-count grid for every counter and keeping only the
undominated outcomes gives the window's energy/CI front, the menu the
planners allocate from. Counters are never mixed within one window.

Fronts are built a horizon at a time. :func:`horizon_fronts` observes each
counter once over the horizon and takes every window's stats in one pass;
:func:`fronts_from_stats` turns those stats into every window's front: the
closed-form interval width for every (window, counter) row x the frame
grid in one :func:`ci.window_sum_intervals` call, the grid priced by
:func:`window_energy`, then one sort by energy, which every window shares,
and a dominance filter of two masks run on all windows at once: a candidate
stays when it is strictly narrower than every candidate before it in that
order and is the narrowest of its equal-energy group.
:meth:`EnergyCIFront.from_batch` checks the front rules once over every
kept point and stores each front as read-only slices of the horizon's
arrays; :class:`FrontPoint` objects are built only when its ``points`` are
read. The point constructor is its one-front case, and :func:`build_front`
is the one-window case of :func:`fronts_from_stats`. :func:`action_outcome`
evaluates a single action with the same interval math.

Three pieces every planner shares also live here: :func:`max_affordable_frames`
decides how many grid frames an allowance buys, :func:`picked_frames` which
frames an action observes, and :func:`execute_windows` runs chosen actions
on consecutive windows, giving their sample moments.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .ci import (
    SampleStats,
    approx_ci,
    mean_to_sum,
    sample_moments,
    sample_stats,
    window_sum_intervals,
)
from .counters import CounterModel, ErrorProfile, observe_counts
from .traces import CountTrace, WindowSpec

MIN_FRAMES = 30  # smallest statistically useful sample; planner floor
GRID_STEP = 10


@dataclass(frozen=True)
class CountAction:
    counter_id: str
    n_frames: int

    def __post_init__(self):
        if self.n_frames < MIN_FRAMES:
            raise ValueError(f"n_frames must be >= {MIN_FRAMES}")


@dataclass(frozen=True)
class EnergyModel:
    """Scalar per-frame and per-window energy costs.

    Capture cost is paid per sampled frame on top of the counter's processing
    cost; the wake constants are paid once per window regardless of how many
    frames are processed.
    """

    e_capture_per_frame: float
    e_wake_capture: float = 0.0
    e_wake_process: float = 0.0

    def __post_init__(self):
        for name in ("e_capture_per_frame", "e_wake_capture", "e_wake_process"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if min(self.e_capture_per_frame, self.e_wake_capture, self.e_wake_process) < 0:
            raise ValueError("energy parameters must be non-negative")

    @property
    def per_window_overhead_j(self) -> float:
        return self.e_wake_capture + self.e_wake_process


def window_energy(n_frames: int, counter: CounterModel, em: EnergyModel) -> float:
    """Energy of one count action: per-frame costs plus the window overhead.

    An integer array of frame counts gives one energy per entry.
    """
    return n_frames * (em.e_capture_per_frame + counter.energy_per_frame_j) + em.per_window_overhead_j


def cheapest_counter(counters: Sequence[CounterModel]) -> CounterModel:
    if not counters:
        raise ValueError("need at least one counter")
    return min(counters, key=lambda c: (c.energy_per_frame_j, c.counter_id))


def _grid_floor(n: int) -> int:
    # the largest frame grid point at or below n >= MIN_FRAMES; for a window
    # of n frames, the last point of default_grid(n)
    return MIN_FRAMES + (n - MIN_FRAMES) // GRID_STEP * GRID_STEP


def default_grid(window_frames: int) -> np.ndarray:
    if window_frames < MIN_FRAMES:
        raise ValueError(f"window has {window_frames} frames, need >= {MIN_FRAMES}")
    return np.arange(MIN_FRAMES, window_frames + 1, GRID_STEP, dtype=np.int64)


def snap_to_grid(n: float, window_frames: int) -> int:
    """Nearest feasible grid frame count for a requested real value."""
    if window_frames < MIN_FRAMES:
        raise ValueError(f"window has {window_frames} frames, need >= {MIN_FRAMES}")
    snapped = MIN_FRAMES + GRID_STEP * round((n - MIN_FRAMES) / GRID_STEP)
    return int(min(max(snapped, MIN_FRAMES), _grid_floor(window_frames)))


def max_affordable_frames(
    allowance_j: float, counter: CounterModel, em: EnergyModel, window_frames: int
) -> Optional[int]:
    """Largest point of ``default_grid(window_frames)`` one window can pay for.

    None when the allowance does not cover MIN_FRAMES on this counter, or the
    window is shorter than MIN_FRAMES.
    """
    per_frame = em.e_capture_per_frame + counter.energy_per_frame_j
    n = min(math.floor((allowance_j - em.per_window_overhead_j) / per_frame + 1e-9), window_frames)
    if n < MIN_FRAMES:
        return None
    return _grid_floor(n)


def uniform_sample_indices(
    window_frames: int, n: int, phase: float | np.ndarray = 0.0
) -> np.ndarray:
    """Evenly spaced frame indices covering the window, optionally phased.

    The gap between consecutive picks never exceeds twice the ideal spacing,
    which is the uniform-in-time contract the simulator checks. A float
    `phase` gives one row of n indices; an array of phases gives one row per
    phase, each equal to the row that phase gives alone.
    """
    if not 1 <= n <= window_frames:
        raise ValueError("n must be in [1, window_frames]")
    step = window_frames / n
    ph = np.asarray(phase, dtype=np.float64)
    if not ((ph >= 0.0) & (ph < step)).all():  # the method skips np.all's wrapper
        raise ValueError("phase must lie in [0, step)")
    # the picks are >= 0, so truncating to int64 floors them; a float arange
    # spares the multiply a cast to the same values
    idx = (ph[..., None] + step * np.arange(n, dtype=np.float64)).astype(np.int64)
    return np.minimum(idx, window_frames - 1, out=idx)


def picked_frames(
    windows: int | np.ndarray, window_frames: int, n: int, phase_u: float | np.ndarray
) -> np.ndarray:
    """Horizon frame indices an n-frame action observes in each given window.

    The frames are picked uniformly in time, offset by phase_u (a uniform in
    [0, 1)) times the frame step, and window w starts at frame
    w * window_frames. An int window with a float phase gives one row of n
    indices; aligned arrays give one row per window, each equal to the row
    that window gives alone. It is the one frame rule: planners pick by it
    through :func:`execute_windows`, and training picks by it too.
    """
    phases = np.asarray(phase_u, dtype=np.float64) * (window_frames / n) * (1 - 1e-12)
    idx = uniform_sample_indices(window_frames, n, phases)
    idx += (np.asarray(windows, dtype=np.int64) * window_frames)[..., None]
    return idx


def execute_windows(
    truth_horizon: CountTrace,
    first_window: int,
    window_frames: int,
    actions: Sequence[CountAction],
    counters: Mapping[str, CounterModel],
    phase_u: Sequence[float],
    obs_seeds: Mapping[str, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Run count actions on consecutive windows; each one's sample mean and std.

    actions[k] runs on window first_window + k, on the frames
    :func:`picked_frames` gives for phase_u[k]. The counter named by the
    action observes exactly those frames, its noise keyed by
    obs_seeds[counter id] and each frame's index in the horizon, so each
    frame reads what a pass over the whole horizon reads there. Returns two
    float arrays, the means and the sample stds (n-1 convention), entry k
    for actions[k]. Windows that share a counter and a frame count run as
    one batch: the draws are elementwise in the frame index and each row's
    stats are reduced on their own, so a batch gives what its windows give
    one at a time.
    """
    k = len(actions)
    if len(phase_u) != k:
        raise ValueError(f"need one phase per action, got {len(phase_u)} for {k}")
    if not 0 <= first_window <= first_window + k <= truth_horizon.n_frames // window_frames:
        raise IndexError(f"windows {first_window}..{first_window + k - 1} out of range")
    groups: Dict[tuple, List[int]] = {}
    for j, action in enumerate(actions):
        groups.setdefault((action.counter_id, action.n_frames), []).append(j)
    phase_u = np.asarray(phase_u, dtype=np.float64)
    means = np.empty(k)
    stds = np.empty(k)
    for (counter_id, n), rows in groups.items():
        counter = counters.get(counter_id)
        if counter is None:
            raise ValueError(f"action is for {counter_id!r}, not one of the given counters")
        rows = np.array(rows)
        frame_idx = picked_frames(first_window + rows, window_frames, n, phase_u[rows]).ravel()
        observed = observe_counts(
            truth_horizon.counts[frame_idx], frame_idx, counter, obs_seeds[counter_id]
        )
        means[rows], stds[rows] = sample_moments(observed.reshape(len(rows), n).astype(np.float64))
    return means, stds


@dataclass(frozen=True)
class FrontPoint:
    action: CountAction
    energy_j: float
    ci_width: float  # window-sum half width over max(estimated sum, 1)

    def __post_init__(self):
        if self.energy_j <= 0:
            raise ValueError("energy_j must be positive")
        if self.ci_width < 0:
            raise ValueError("ci_width must be non-negative")


def _frozen_array(values, dtype) -> np.ndarray:
    """values as an array of dtype, made read-only; an array of dtype is frozen in place."""
    a = np.asarray(values, dtype=dtype)
    a.setflags(write=False)
    return a


def _front_slices(energies, widths, n_frames, counter_ids, sizes) -> list:
    """Check fronts laid end to end and cut them into read-only slices.

    Front k holds the next sizes[k] of the aligned per-point arrays. The
    front rules are checked once over every point; the ValueError names the
    first rule that the first bad front, in order, breaks. Returns one
    (energies, widths, n_frames, counter_ids) tuple per front, its arrays
    slices of the batch arrays, which are made read-only in place.
    """
    if len(sizes) == 0:
        return []
    energies = _frozen_array(energies, np.float64)
    widths = _frozen_array(widths, np.float64)
    n_frames = _frozen_array(n_frames, np.int64)
    counter_ids = tuple(counter_ids)
    if energies.ndim != 1 or energies.size == 0:
        raise ValueError("front must have at least one point")
    if not (energies.shape == widths.shape == n_frames.shape == (len(counter_ids),)
            and sum(sizes) == len(counter_ids)):
        raise ValueError("front arrays must align")
    sizes = np.asarray(sizes)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    opens = np.zeros(energies.size, dtype=bool)  # the first point of each front
    opens[starts[sizes > 0]] = True
    improves = (energies[1:] > energies[:-1]) & (widths[1:] < widths[:-1])
    # per rule, in the order one front is checked, the points that break it;
    # a pair of points (i, i + 1) belongs to the front of point i + 1
    rules = [
        (~(np.isfinite(energies) & np.isfinite(widths)), 0,
         "front energies and widths must be finite"),
        (energies <= 0, 0, "energy_j must be positive"),
        (widths < 0, 0, "ci_width must be non-negative"),
        (n_frames < MIN_FRAMES, 0, f"n_frames must be >= {MIN_FRAMES}"),
        (~(opens[1:] | improves), 1, "front points must strictly improve width as energy grows"),
    ]
    # the fronts that break each rule, in ascending order
    broken = [(np.flatnonzero(sizes == 0), "front must have at least one point")] + [
        (np.searchsorted(ends, np.flatnonzero(bad) + shift, side="right"), message)
        for bad, shift, message in rules
    ]
    firsts = [int(fronts[0]) for fronts, _ in broken if fronts.size]
    if firsts:
        bad = min(firsts)
        raise ValueError(next(m for fronts, m in broken if fronts.size and fronts[0] == bad))
    starts = starts.tolist()
    return [
        (energies[a:b], widths[a:b], n_frames[a:b], counter_ids[a:b])
        for a, b in zip(starts, ends.tolist())
    ]


class EnergyCIFront:
    """Lower envelope of (energy, width) outcomes for one window.

    Stored as aligned arrays: ``energies`` and ``widths`` (read-only float64),
    ``n_frames`` (read-only int64) and ``counter_ids`` (a tuple of str), point
    i being the action (counter_ids[i], n_frames[i]). ``points`` builds the
    :class:`FrontPoint` tuple on first read and caches it. Fronts are
    immutable and compare by value.
    """

    def __init__(self, window_index: int, points: Sequence[FrontPoint]):
        pts = tuple(points)
        ((energies, widths, n_frames, counter_ids),) = _front_slices(
            [p.energy_j for p in pts],
            [p.ci_width for p in pts],
            [p.action.n_frames for p in pts],
            [p.action.counter_id for p in pts],
            [len(pts)],
        )
        self._set(window_index, energies, widths, n_frames, counter_ids, pts)

    @classmethod
    def from_batch(
        cls, window_indices: Sequence[int], energies, widths, n_frames,
        counter_ids: Sequence[str], sizes: Sequence[int],
    ) -> List[EnergyCIFront]:
        """Fronts laid end to end in aligned per-point arrays, checked at once.

        Front k is window window_indices[k] and holds the next sizes[k]
        points; a front that breaks a rule raises as it would alone, the
        first such front in order deciding. Each front's arrays are
        read-only slices of the batch arrays, not copies: arrays given as
        float64 (energies, widths) or int64 (n_frames) are made read-only in
        place, so pass ones that nothing else writes to.
        """
        fronts = []
        for window_index, arrays in zip(
            window_indices, _front_slices(energies, widths, n_frames, counter_ids, sizes)
        ):
            front = cls.__new__(cls)
            front._set(window_index, *arrays, None)
            fronts.append(front)
        return fronts

    def _set(self, window_index, energies, widths, n_frames, counter_ids, points) -> None:
        set_ = object.__setattr__
        set_(self, "window_index", window_index)
        set_(self, "energies", energies)
        set_(self, "widths", widths)
        set_(self, "n_frames", n_frames)
        set_(self, "counter_ids", counter_ids)
        set_(self, "_points", points)

    @property
    def points(self) -> tuple:
        if self._points is None:
            object.__setattr__(self, "_points", tuple(
                FrontPoint(CountAction(c, n), e, w)
                for e, w, c, n in zip(
                    self.energies.tolist(), self.widths.tolist(),
                    self.counter_ids, self.n_frames.tolist(),
                )
            ))
        return self._points

    def action_at(self, i: int) -> CountAction:
        """The count action of point i."""
        return CountAction(self.counter_ids[i], int(self.n_frames[i]))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.window_index == other.window_index
            and self.counter_ids == other.counter_ids
            and np.array_equal(self.n_frames, other.n_frames)
            and np.array_equal(self.energies, other.energies)
            and np.array_equal(self.widths, other.widths)
        )

    def __hash__(self):
        return hash((
            self.window_index, self.counter_ids, tuple(self.n_frames.tolist()),
            tuple(self.energies.tolist()), tuple(self.widths.tolist()),
        ))

    def __repr__(self):
        return f"EnergyCIFront(window_index={self.window_index!r}, points={self.points!r})"


def action_outcome(
    observed_window: np.ndarray,
    action: CountAction,
    counter: CounterModel,
    em: EnergyModel,
    profile: ErrorProfile,
    alpha: float,
) -> FrontPoint:
    """Evaluate one count action against a window's observed count series.

    The width is the predicted interval for a uniform-in-time sample of
    n_frames: the window's full observed stats evaluated at sample size n,
    so widths are smooth and strictly shrinking in n. Recomputing stats from
    each n-frame subsample instead would let small-sample jitter fabricate
    gradients the planner then chases. The window-sum half width is
    normalized by the estimated sum (floored at 1), so outcomes compare
    across windows of very different traffic levels.
    """
    wf = int(len(observed_window))
    if action.n_frames > wf:
        raise ValueError(f"action wants {action.n_frames} frames, window has {wf}")
    full = sample_stats(np.asarray(observed_window))
    stats = SampleStats(mean=full.mean, std=full.std, n=action.n_frames)
    ci = mean_to_sum(approx_ci(stats, profile, alpha), wf)
    width = ci.half_width / max(ci.center, 1.0)
    energy = window_energy(action.n_frames, counter, em)
    return FrontPoint(action=action, energy_j=energy, ci_width=width)


def fronts_from_stats(
    means: Sequence[np.ndarray],
    stds: Sequence[np.ndarray],
    window_frames: int,
    counters: Sequence[CounterModel],
    em: EnergyModel,
    profiles: Dict[str, ErrorProfile],
    alpha: float,
    first_window: int = 0,
) -> List[EnergyCIFront]:
    """One front per window from each counter's full-window sample stats.

    means[k] and stds[k] hold, for every window, the mean and sample std
    (n-1) of counters[k]'s observed counts over all window_frames frames;
    row w gives the front of window first_window + w. Every counter is swept
    over ``default_grid(window_frames)``, the grid every planner executes
    on, so each point is an action a planner can take; each equals what
    :func:`action_outcome` gives for that action. Candidates are ordered by
    energy, then counter id, then n; one is kept when its width is strictly
    below every width before it and equals the least width at its energy,
    so each kept point is the first at its group's least width. A regime
    with no profile raises for the first (window, counter) in window order.
    """
    if not counters:
        raise ValueError("need at least one counter")
    grid = default_grid(window_frames)
    n_windows = len(means[0])
    # one row per (window, counter) in window-major order, so the first
    # unprofiled window raises; reshaped, window w's row holds counters[k]'s
    # grid at columns k * G to k * G + G - 1, the order energy is laid out in
    _, center, half = window_sum_intervals(
        np.stack(means, axis=1).ravel(), np.stack(stds, axis=1).ravel(), grid,
        [profiles[c.counter_id] for c in counters] * n_windows, alpha, window_frames,
    )
    # window-sum half width over max(estimated sum, 1), as action_outcome
    width = (half / np.maximum(center, 1.0)[:, None]).reshape(n_windows, -1)
    energy = np.concatenate([window_energy(grid, c, em) for c in counters])
    ids = sorted(c.counter_id for c in counters)
    counter_rank = np.repeat([ids.index(c.counter_id) for c in counters], grid.size)
    n_frames = np.tile(grid, len(counters))

    # every window prices its candidates alike, so one sort orders all rows
    # by energy, ties by counter id and n. A candidate is kept when it is
    # strictly narrower than everything cheaper or earlier in its energy
    # group, and is the narrowest in that group.
    order = np.lexsort((n_frames, counter_rank, energy))
    energy, counter_rank, n_frames = energy[order], counter_rank[order], n_frames[order]
    width = width[:, order]
    opens = np.concatenate(([True], energy[1:] != energy[:-1]))
    group = np.cumsum(opens) - 1
    group_min = np.minimum.reduceat(width, np.flatnonzero(opens), axis=1)
    earlier = np.minimum.accumulate(
        np.concatenate((np.full((len(width), 1), np.inf), width[:, :-1]), axis=1), axis=1
    )
    rows, cols = np.nonzero((width < earlier) & (width == group_min[:, group]))

    col_ids = np.array(ids, dtype=object)[counter_rank]
    return EnergyCIFront.from_batch(
        range(first_window, first_window + len(width)), energy[cols], width[rows, cols],
        n_frames[cols], col_ids[cols].tolist(), np.bincount(rows, minlength=len(width)),
    )


def build_front(
    observed_by_counter: Dict[str, np.ndarray],
    counters: Sequence[CounterModel],
    em: EnergyModel,
    profiles: Dict[str, ErrorProfile],
    alpha: float,
    window_index: int = 0,
) -> EnergyCIFront:
    """Sweep counters x ``default_grid`` over one window's observed series.

    The one-window case of :func:`fronts_from_stats`: it keeps the
    undominated outcomes, each equal to what :func:`action_outcome` gives.
    """
    if not counters:
        raise ValueError("need at least one counter")
    lengths = {len(observed_by_counter[c.counter_id]) for c in counters}
    if len(lengths) != 1:
        raise ValueError("all counters must cover the same window")
    stats = [
        sample_moments(np.asarray(observed_by_counter[c.counter_id], dtype=np.float64)[None, :])
        for c in counters
    ]
    (front,) = fronts_from_stats(
        [m for m, _ in stats], [s for _, s in stats], lengths.pop(), counters, em, profiles,
        alpha, first_window=window_index,
    )
    return front


def horizon_fronts(
    truth_horizon: CountTrace,
    counters: Sequence[CounterModel],
    em: EnergyModel,
    profiles: Dict[str, ErrorProfile],
    spec: WindowSpec,
    obs_seeds: Mapping[str, int],
) -> List[EnergyCIFront]:
    """Per-window fronts of one horizon from full-window observed series.

    obs_seeds[counter id] keys that counter's observation noise, as in
    :func:`execute_windows`.
    """
    wf = spec.window_frames(truth_horizon.fps)
    if truth_horizon.n_windows(spec) < spec.horizon_windows:
        raise ValueError("truth_horizon is shorter than one horizon")
    n_frames = spec.horizon_windows * wf
    # one observation pass and one stats pass per counter; draws are keyed
    # by frame index and each row is reduced on its own, so every window's
    # stats equal those of observing that window alone
    means, stds = [], []
    for c in counters:
        observed = observe_counts(
            truth_horizon.counts[:n_frames], np.arange(n_frames, dtype=np.int64), c,
            obs_seeds[c.counter_id],
        )
        mean, std = sample_moments(observed.reshape(spec.horizon_windows, wf).astype(np.float64))
        means.append(mean)
        stds.append(std)
    return fronts_from_stats(means, stds, wf, counters, em, profiles, spec.alpha)


def front_gradient(front: EnergyCIFront, current_energy: float) -> float:
    """Width improvement per joule of the segment just right of an energy."""
    energies = front.energies
    widths = front.widths
    if current_energy < energies[0] - 1e-9:
        raise ValueError("current_energy below the minimum action")
    if current_energy >= energies[-1]:
        return 0.0
    j = int(np.searchsorted(energies, current_energy, side="right"))
    i = j - 1
    return float((widths[i] - widths[j]) / (energies[j] - current_energy))


def save_front(front: EnergyCIFront, path) -> None:
    """Dump one window's front as `energy_j,ci_width,counter_id,n_frames` CSV."""
    lines = ["energy_j,ci_width,counter_id,n_frames"]
    for e, w, c, n in zip(
        front.energies.tolist(), front.widths.tolist(), front.counter_ids, front.n_frames.tolist()
    ):
        lines.append(f"{e!r},{w!r},{c},{n}")
    Path(path).write_text("\n".join(lines) + "\n")
