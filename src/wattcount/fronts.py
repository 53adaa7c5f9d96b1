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
order and is the narrowest of its equal-energy group. The masks already
keep each front positive, on the grid and strictly improving, so it checks
only for a window that kept no point or an energy past the float range,
and stores each front as read-only slices of the horizon's arrays;
:class:`FrontPoint` objects are built only when its ``points`` are read.
:func:`build_front` is the one-window case of :func:`fronts_from_stats`,
and the point constructor of :class:`EnergyCIFront` checks fronts built by
hand. :func:`action_outcome` evaluates a single action with the same
interval math.

Three pieces every planner shares also live here: :func:`max_affordable_frames`
decides how many grid frames an allowance buys, and so which budgets a horizon
admits, :func:`picked_frames` which frames an action observes, and
:func:`execute_windows` runs chosen actions on consecutive windows.
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
from .counters import CounterModel, ErrorProfile, UnprofiledRegimeError, observe_counts
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
    """Scalar per-frame and per-window energy costs, the paper's E_cap and E_wake.

    Capture cost (E_cap) is paid per sampled frame on top of the counter's
    processing cost (E_proc, ``CounterModel.energy_per_frame_j``); the wake
    cost (E_wake) is paid once per window regardless of how many frames are
    processed.
    """

    e_capture_per_frame: float
    e_wake_per_window: float = 0.0

    def __post_init__(self):
        for name in ("e_capture_per_frame", "e_wake_per_window"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if min(self.e_capture_per_frame, self.e_wake_per_window) < 0:
            raise ValueError("energy parameters must be non-negative")


def window_energy(n_frames: int, counter: CounterModel, em: EnergyModel) -> float:
    """Energy of one count action: per-frame costs plus the window's wake.

    An integer array of frame counts gives one energy per entry.
    """
    return n_frames * (em.e_capture_per_frame + counter.energy_per_frame_j) + em.e_wake_per_window


def cheapest_counter(counters: Sequence[CounterModel]) -> CounterModel:
    if not counters:
        raise ValueError("need at least one counter")
    return min(counters, key=lambda c: (c.energy_per_frame_j, c.counter_id))


def _grid_floor(n: int) -> int:
    # the largest frame grid point at or below n >= MIN_FRAMES; for a window
    # of n frames, the last point of default_grid(n)
    return MIN_FRAMES + (n - MIN_FRAMES) // GRID_STEP * GRID_STEP


def require_window_frames(window_frames: int) -> None:
    """Refuse a window too short to hold the frame grid's first point."""
    if window_frames < MIN_FRAMES:
        raise ValueError(f"window has {window_frames} frames, need >= {MIN_FRAMES}")


def default_grid(window_frames: int) -> np.ndarray:
    require_window_frames(window_frames)
    return np.arange(MIN_FRAMES, window_frames + 1, GRID_STEP, dtype=np.int64)


def snap_to_grid(n: float, window_frames: int) -> int:
    """Nearest feasible grid frame count for a requested real value."""
    require_window_frames(window_frames)
    snapped = MIN_FRAMES + GRID_STEP * round((n - MIN_FRAMES) / GRID_STEP)
    return int(min(max(snapped, MIN_FRAMES), _grid_floor(window_frames)))


def max_affordable_frames(
    budget_j: float, counter: CounterModel, em: EnergyModel, window_frames: int, windows: int = 1
) -> Optional[int]:
    """Largest point of ``default_grid(window_frames)`` each of ``windows`` windows can pay for.

    The rule is on joules, as the ledger charges them: the window energies,
    added one at a time as ``agents.EnergyLedger.charge`` adds them, must not
    exceed budget_j, so a budget that covers them exactly affords them. A
    non-finite budget and a window shorter than MIN_FRAMES raise ValueError;
    None means only that the budget cannot pay for MIN_FRAMES a window.
    """
    if not math.isfinite(budget_j):
        raise ValueError(f"budget_j must be finite, got {budget_j!r}")
    require_window_frames(window_frames)

    def fits(n: int) -> bool:
        energy = spent = window_energy(n, counter, em)
        for _ in range(windows - 1):
            spent += energy
        return spent <= budget_j

    per_frame = em.e_capture_per_frame + counter.energy_per_frame_j
    # an estimate, compared before flooring: a subnormal per-frame cost makes it infinite
    quotient = (budget_j / windows - em.e_wake_per_window) / per_frame
    top = _grid_floor(window_frames)
    n = top if quotient >= window_frames else _grid_floor(math.floor(max(quotient, MIN_FRAMES)))
    if n < top and fits(n + GRID_STEP):  # the estimate's rounding can fall a grid point short
        n += GRID_STEP
    while not fits(n):
        if n == MIN_FRAMES:
            return None
        n -= GRID_STEP
    return n


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
    """values as a read-only array of dtype whose write flag cannot be set again.

    An array of dtype is frozen in place, so pass one that nothing else writes to.
    """
    a = np.asarray(values, dtype=dtype)
    a.setflags(write=False)
    return a[:]  # a view of a read-only array cannot be made writeable


class EnergyCIFront:
    """Lower envelope of (energy, width) outcomes for one window.

    Stored as aligned arrays: ``energies`` and ``widths`` (read-only float64),
    ``n_frames`` (read-only int64) and ``counter_ids`` (a tuple of str), point
    i being the action (counter_ids[i], n_frames[i]). ``points`` builds the
    :class:`FrontPoint` tuple on first read and caches it. Fronts are
    immutable and compare by value. The constructor takes the points in
    energy order and requires at least one, finite values and a strictly
    narrower width at each greater energy; :class:`FrontPoint` and
    :class:`CountAction` check each point's own fields.
    """

    def __init__(self, window_index: int, points: Sequence[FrontPoint]):
        pts = tuple(points)
        if not pts:
            raise ValueError("front must have at least one point")
        energies = _frozen_array([p.energy_j for p in pts], np.float64)
        widths = _frozen_array([p.ci_width for p in pts], np.float64)
        if not (np.isfinite(energies).all() and np.isfinite(widths).all()):
            raise ValueError("front energies and widths must be finite")
        if not ((np.diff(energies) > 0) & (np.diff(widths) < 0)).all():
            raise ValueError("front points must strictly improve width as energy grows")
        n_frames = _frozen_array([p.action.n_frames for p in pts], np.int64)
        counter_ids = tuple(p.action.counter_id for p in pts)
        self._set(window_index, energies, widths, n_frames, counter_ids, pts)

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
    with no profile raises UnprofiledRegimeError naming the window for the
    first (window, counter) in window order,
    and so does a window that keeps no point (its stats are not finite) or
    keeps an energy past the float range. Each front's arrays are read-only
    slices of the horizon's kept points.
    """
    if not counters:
        raise ValueError("need at least one counter")
    grid = default_grid(window_frames)
    n_windows = len(means[0])
    # one row per (window, counter) in window-major order, so the first
    # unprofiled window raises; reshaped, window w's row holds counters[k]'s
    # grid at columns k * G to k * G + G - 1, the order energy is laid out in
    try:
        _, center, half = window_sum_intervals(
            np.stack(means, axis=1).ravel(), np.stack(stds, axis=1).ravel(), grid,
            [profiles[c.counter_id] for c in counters] * n_windows, alpha, window_frames,
        )
    except UnprofiledRegimeError as exc:
        window = first_window + exc.row // len(counters)
        raise UnprofiledRegimeError(f"window {window}: {exc}") from None
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

    # the masks keep every kept width finite and each window's points
    # strictly improving, so these two faults are all that can reach here
    energies = _frozen_array(energy[cols], np.float64)
    sizes = np.bincount(rows, minlength=n_windows)
    faults = [
        (np.flatnonzero(sizes == 0), "front must have at least one point"),
        (rows[~np.isfinite(energies)], "front energies and widths must be finite"),
    ]
    firsts = [(int(windows[0]), message) for windows, message in faults if windows.size]
    if firsts:
        raise ValueError(min(firsts)[1])  # the first bad window decides
    widths = _frozen_array(width[rows, cols], np.float64)
    kept_frames = _frozen_array(n_frames[cols], np.int64)
    kept_ids = tuple(np.array(ids, dtype=object)[counter_rank[cols]].tolist())
    ends = np.cumsum(sizes).tolist()
    fronts = []
    for w, a, b in zip(range(first_window, first_window + n_windows), [0] + ends, ends):
        front = EnergyCIFront.__new__(EnergyCIFront)
        front._set(w, energies[a:b], widths[a:b], kept_frames[a:b], kept_ids[a:b], None)
        fronts.append(front)
    return fronts


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
