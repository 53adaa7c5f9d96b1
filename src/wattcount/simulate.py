"""Horizon simulator: planners in the loop, energy accounting, and scoring.

Runs any planner over ground-truth horizons one committed run of windows at
a time: a planner that fixes its actions up front (the oracle, the
fixed-counter baselines) commits the whole horizon at once, the online
planner one window at a time. Each run is charged against a hard ledger and
then executed as one batch. Frames are sampled uniformly in time with a
seeded phase, observed counts come from the counter error model restricted
to exactly the sampled frames, and every window yields its energy charge
and a window-sum interval (textbook standard error fused with the counter's
profile). The executor returns a run's sample means and stds as arrays,
and the whole run is scored in one :func:`ci.window_sum_intervals` call,
each window under its own counter's profile and at its own frame count,
with the bits :func:`ci.approx_ci` and :func:`ci.mean_to_sum` give one
window at a time. Metrics follow the evaluation conventions: coverage
probability, width over estimate, and absolute error over truth, all on
window sums.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ._rng import derive_seed, keyed_uniforms
from .agents import AgentPair, EnergyLedger, act, bare_minimum, build_observation
from .ci import ConfidenceInterval, window_sum_intervals
from .counters import CounterModel, ErrorProfile, counter_seeds
from .fronts import (
    MIN_FRAMES,
    CountAction,
    EnergyModel,
    execute_windows,
    horizon_fronts,
    max_affordable_frames,
    window_energy,
)
from .oracle import plan_horizon
from .traces import CountTrace, WindowSpec

# stream tags for the keyed simulation randomness
_STREAM_SIM_PHASE = 42
_TAG_FRONT_OBS = 40
_TAG_EXEC_OBS = 41
_TAG_HORIZON = 50


# A planner spec's begin_horizon(truth_horizon, counters, em, profiles,
# budget_j, spec, seed) prepares one horizon and returns
# choose(t, ledger, stream) -> the run of actions the planner commits to for
# windows t, t + 1, ...: at least one action and no more than the windows
# left. run_horizon calls it at window 0 and again after each run; the
# ledger has been charged and stream (the measured (mean, std) history) has
# grown for every window before t.
_Choose = Callable[[int, EnergyLedger, List[Tuple[float, float]]], Sequence[CountAction]]


@dataclass(frozen=True)
class OraclePlannerSpec:
    """Offline allocator with hindsight: plans the horizon from its true fronts."""

    name: str = "oracle"

    def begin_horizon(self, truth_horizon, counters, em, profiles, budget_j, spec, seed) -> _Choose:
        fronts = oracle_fronts(truth_horizon, counters, em, profiles, spec, seed)
        actions = plan_horizon(fronts, budget_j).actions
        return lambda t, ledger, stream: actions[t:]


@dataclass(frozen=True)
class RlPlannerSpec:
    """Online planner: a trained agent pair acting on the measured history."""

    pair: AgentPair
    name: str = "rl"

    def check(self, counters: Sequence[CounterModel], window_frames: int) -> None:
        """Raise ValueError unless the pair was trained on these counters and window length."""
        self.pair.require_counters(counters)
        if self.pair.window_frames != window_frames:
            raise ValueError(
                f"agent pair was trained on {self.pair.window_frames}-frame windows, "
                f"the trace has {window_frames}-frame windows"
            )

    def begin_horizon(self, truth_horizon, counters, em, profiles, budget_j, spec, seed) -> _Choose:
        self.check(counters, spec.window_frames(truth_horizon.fps))
        n_steps = spec.horizon_windows

        def choose(t, ledger, stream):
            obs = build_observation(
                stream, n_steps, self.pair.norm_mean_scale, self.pair.norm_std_scale
            )
            return (act(self.pair, obs, ledger, n_steps - t, counters, em),)

        return choose


@dataclass(frozen=True)
class FixedCounterPlannerSpec:
    """Even budget split on one counter; covers the golden and uni baselines."""

    counter_id: str
    name: str

    def begin_horizon(self, truth_horizon, counters, em, profiles, budget_j, spec, seed) -> _Choose:
        counter = {c.counter_id: c for c in counters}[self.counter_id]
        wf = spec.window_frames(truth_horizon.fps)
        n_frames = _fixed_frame_count(counter, em, budget_j, spec, wf)
        action = CountAction(counter.counter_id, n_frames)
        n_steps = spec.horizon_windows
        return lambda t, ledger, stream: (action,) * (n_steps - t)


PlannerSpec = Union[OraclePlannerSpec, RlPlannerSpec, FixedCounterPlannerSpec]


@dataclass(frozen=True)
class WindowResult:
    window_index: int
    action: CountAction
    ci_sum: ConfidenceInterval
    true_sum: int
    energy_j: float


@dataclass(frozen=True)
class MetricsReport:
    coverage_probability: float
    mean_ci_width: float
    mean_error: float  # nan when undefined (zero true total)
    energy_utilization: tuple  # spent/budget per horizon
    n_windows: int
    per_horizon: tuple  # one dict per horizon


def oracle_fronts(
    truth_horizon: CountTrace,
    counters: Sequence[CounterModel],
    em: EnergyModel,
    profiles: Dict[str, ErrorProfile],
    spec: WindowSpec,
    seed: int,
) -> List:
    """Per-window fronts from full-window observed series, as the oracle sees them."""
    seeds = counter_seeds(counters, seed, _TAG_FRONT_OBS)
    return horizon_fronts(truth_horizon, counters, em, profiles, spec, seeds)


def horizon_seed(seed: int, horizon_index: int) -> int:
    """The per-horizon seed simulate_scene derives from a run seed."""
    return derive_seed(seed, _TAG_HORIZON, horizon_index)


def _fixed_frame_count(
    counter: CounterModel, em: EnergyModel, budget_j: float, spec: WindowSpec, window_frames: int
) -> int:
    """Even per-window frame count for a fixed-counter baseline."""
    n = max_affordable_frames(budget_j, counter, em, window_frames, spec.horizon_windows)
    if n is None:
        raise ValueError(
            f"budget below bare minimum: counter {counter.counter_id!r} cannot "
            f"afford {MIN_FRAMES} frames per window"
        )
    return n


def run_horizon(
    planner: PlannerSpec,
    truth_horizon: CountTrace,
    counters: Sequence[CounterModel],
    em: EnergyModel,
    profiles: Dict[str, ErrorProfile],
    budget_j: float,
    spec: WindowSpec,
    seed: int,
    stream: Optional[List[Tuple[float, float]]] = None,
) -> Tuple[List[WindowResult], EnergyLedger]:
    """Execute one horizon under a planner; returns results and the ledger.

    `stream` is the cross-horizon history of measured (mean, std) pairs that
    feeds the online planner's observations; pass the same list across
    consecutive horizons of one deployment, and each window's pair is
    appended to it. Without it the history starts empty at this horizon.
    A run's intervals are all computed before any of its windows is
    recorded, so a run that raises (a window in a regime with no profile)
    leaves the history as it was at the run's start.
    """
    if not math.isfinite(budget_j):
        raise ValueError(f"budget_j must be finite, got {budget_j!r}")
    wf = spec.window_frames(truth_horizon.fps)
    n_steps = spec.horizon_windows
    if truth_horizon.n_windows(spec) != n_steps:
        raise ValueError("truth_horizon must be exactly one horizon long")
    if budget_j < bare_minimum(n_steps, counters, em):
        raise ValueError("budget below bare minimum")
    by_id = {c.counter_id: c for c in counters}
    phase_u = keyed_uniforms(seed, _STREAM_SIM_PHASE, np.arange(n_steps)).tolist()
    obs_seeds = counter_seeds(counters, seed, _TAG_EXEC_OBS)

    choose = planner.begin_horizon(truth_horizon, counters, em, profiles, budget_j, spec, seed)
    ledger = EnergyLedger(budget_j=budget_j)
    history = stream if stream is not None else []
    true_sums = truth_horizon.counts[: n_steps * wf].reshape(n_steps, wf).sum(axis=1).tolist()
    results: List[WindowResult] = []
    t = 0
    while t < n_steps:
        run = choose(t, ledger, history)
        if not 1 <= len(run) <= n_steps - t:
            raise ValueError(
                f"window {t}: planner committed {len(run)} actions, "
                f"need 1 to {n_steps - t} (the windows left)"
            )
        energies = [window_energy(a.n_frames, by_id[a.counter_id], em) for a in run]
        for energy in energies:
            ledger.charge(energy)
        means, stds = execute_windows(
            truth_horizon, t, wf, run, by_id, phase_u[t : t + len(run)], obs_seeds
        )
        intervals = _run_intervals(run, means, stds, profiles, spec.alpha, wf)
        history.extend(zip(means.tolist(), stds.tolist()))
        for action, energy, ci_sum in zip(run, energies, intervals):
            results.append(
                WindowResult(
                    window_index=t,
                    action=action,
                    ci_sum=ci_sum,
                    true_sum=true_sums[t],
                    energy_j=energy,
                )
            )
            t += 1
    return results, ledger


def _run_intervals(
    run: Sequence[CountAction],
    means: np.ndarray,
    stds: np.ndarray,
    profiles: Dict[str, ErrorProfile],
    alpha: float,
    window_frames: int,
) -> List[ConfidenceInterval]:
    """Window-sum intervals of one executed run, in window order.

    Window j's interval is the one :func:`ci.window_sum_intervals` gives for
    means[j], stds[j] and run[j]'s frame count under its counter's profile;
    the whole run is scored in one call, each window with its own profile
    and frame count. The first window of the run in a regime with no profile
    raises, as scoring the windows one at a time would.
    """
    branch, center, half = window_sum_intervals(
        means, stds, np.array([a.n_frames for a in run])[:, None],
        [profiles[a.counter_id] for a in run], alpha, window_frames,
    )
    return [
        ConfidenceInterval(center=c, half_width=h, alpha=alpha, branch=b)
        for b, c, h in zip(branch.tolist(), center.tolist(), half[:, 0].tolist())
    ]


def simulate_scene(
    planner: PlannerSpec,
    trace: CountTrace,
    horizon_indices: Sequence[int],
    counters: Sequence[CounterModel],
    em: EnergyModel,
    profiles: Dict[str, ErrorProfile],
    budget_j: float,
    spec: WindowSpec,
    seed: int,
) -> Tuple[List[List[WindowResult]], List[EnergyLedger]]:
    """Run consecutive horizons, threading planner history between them."""
    stream: List[Tuple[float, float]] = []
    all_results = []
    ledgers = []
    for h in horizon_indices:
        horizon = trace.horizon_slice(h, spec)
        results, ledger = run_horizon(
            planner,
            horizon,
            counters,
            em,
            profiles,
            budget_j,
            spec,
            horizon_seed(seed, h),
            stream=stream,
        )
        all_results.append(results)
        ledgers.append(ledger)
    return all_results, ledgers


def score(
    results_by_horizon: Sequence[Sequence[WindowResult]],
    ledgers: Sequence[EnergyLedger],
) -> MetricsReport:
    """Aggregate coverage, relative width, relative error, and utilization."""
    if not results_by_horizon or not any(len(r) for r in results_by_horizon):
        raise ValueError("need at least one window result")

    def _block(results):
        covered = sum(1 for r in results if r.ci_sum.covers(r.true_sum))
        half = sum(r.ci_sum.half_width for r in results)
        est = sum(r.ci_sum.center for r in results)
        err = sum(abs(r.ci_sum.center - r.true_sum) for r in results)
        true = sum(r.true_sum for r in results)
        return covered, half, est, err, true, len(results)

    per_horizon = []
    tot = np.zeros(5)
    n_windows = 0
    for results, ledger in zip(results_by_horizon, ledgers):
        covered, half, est, err, true, n = _block(results)
        tot += (covered, half, est, err, true)
        n_windows += n
        per_horizon.append(
            {
                "n_windows": n,
                "coverage": covered / n if n else float("nan"),
                "mean_ci_width": half / est if est > 0 else float("nan"),
                "mean_error": err / true if true > 0 else float("nan"),
                "spent_j": ledger.spent_j,
                "budget_j": ledger.budget_j,
                "unused_j": ledger.remaining_j,
            }
        )
    covered, half, est, err, true = (float(v) for v in tot)
    return MetricsReport(
        coverage_probability=covered / n_windows,
        mean_ci_width=half / est if est > 0 else float("nan"),
        mean_error=err / true if true > 0 else float("nan"),
        energy_utilization=tuple(l.spent_j / l.budget_j for l in ledgers),
        n_windows=n_windows,
        per_horizon=tuple(per_horizon),
    )


def select_uni_counter(
    trace: CountTrace,
    validation_horizon: int,
    counters: Sequence[CounterModel],
    em: EnergyModel,
    profiles: Dict[str, ErrorProfile],
    budget_j: float,
    spec: WindowSpec,
    seed: int,
) -> str:
    """Counter with the best mean width on a held-out validation horizon.

    Counters that cannot afford the minimum action are skipped; any other
    failure on the validation horizon propagates.
    """
    if not math.isfinite(budget_j):
        raise ValueError(f"budget_j must be finite, got {budget_j!r}")
    wf = spec.window_frames(trace.fps)
    best: Optional[Tuple[float, str]] = None
    for c in sorted(counters, key=lambda c: c.counter_id):
        if max_affordable_frames(budget_j, c, em, wf, spec.horizon_windows) is None:
            continue
        results, ledgers = simulate_scene(
            FixedCounterPlannerSpec(counter_id=c.counter_id, name="uni"),
            trace,
            [validation_horizon],
            counters,
            em,
            profiles,
            budget_j,
            spec,
            seed,
        )
        width = score(results, ledgers).mean_ci_width
        if best is None or width < best[0]:
            best = (width, c.counter_id)
    if best is None:
        raise ValueError("no counter is affordable at this budget")
    return best[1]


def compare_baselines(
    trace: CountTrace,
    budgets_j: Sequence[float],
    counters: Sequence[CounterModel],
    em: EnergyModel,
    profiles: Dict[str, ErrorProfile],
    spec: WindowSpec,
    seed: int,
    eval_horizons: Sequence[int],
    validation_horizon: int,
    golden_counter_id: str,
    pairs: Optional[Dict[float, AgentPair]] = None,
) -> List[dict]:
    """Metrics per (budget, planner); planners without a trained pair are skipped."""
    rows = []
    for budget_j in budgets_j:
        planners: List[PlannerSpec] = [OraclePlannerSpec()]
        if pairs and budget_j in pairs:
            planners.append(RlPlannerSpec(pair=pairs[budget_j]))
        uni_id = select_uni_counter(
            trace, validation_horizon, counters, em, profiles, budget_j, spec, seed
        )
        planners.append(FixedCounterPlannerSpec(counter_id=uni_id, name="uni"))
        planners.append(FixedCounterPlannerSpec(counter_id=golden_counter_id, name="golden"))
        for planner in planners:
            results, _ = simulate_scene(
                planner, trace, eval_horizons, counters, em, profiles, budget_j, spec, seed
            )
            rows.append(comparison_row(budget_j, planner.name, results))
    return rows


def comparison_row(budget_j: float, planner: str, results_by_horizon) -> dict:
    """Score one planner's runs at one budget as a comparison-table row.

    Each horizon's spend is the sum of its window energies, which is exactly
    what its ledger was charged, so results read back from disk score alike.
    """
    ledgers = [
        EnergyLedger(budget_j=budget_j, spent_j=sum(r.energy_j for r in block))
        for block in results_by_horizon
    ]
    report = score(results_by_horizon, ledgers)
    return {
        "budget_j": budget_j,
        "planner": planner,
        "coverage": report.coverage_probability,
        "mean_ci_width": report.mean_ci_width,
        "mean_error": report.mean_error,
        "energy_utilization": float(np.mean(report.energy_utilization)),
        "n_windows": report.n_windows,
    }


# ---------------------------------------------------------------------------
# file outputs


def save_results(results_by_horizon, horizon_indices, path) -> None:
    """Window results CSV, one row per executed window."""
    lines = ["horizon,window,counter_id,n_frames,energy_j,center,half_width,true_sum"]
    for h, results in zip(horizon_indices, results_by_horizon):
        for r in results:
            lines.append(
                f"{h},{r.window_index},{r.action.counter_id},{r.action.n_frames},"
                f"{r.energy_j!r},{r.ci_sum.center!r},{r.ci_sum.half_width!r},{r.true_sum}"
            )
    Path(path).write_text("\n".join(lines) + "\n")


def load_results(path, alpha: float):
    """Read a results CSV back into (results_by_horizon, horizon_indices).

    Interval branches are not stored in the CSV, so loaded intervals carry
    branch "unknown"; that is enough for scoring. A malformed row raises a
    ValueError that names the file and the line.
    """
    rows = Path(path).read_text().rstrip().splitlines()
    header = "horizon,window,counter_id,n_frames,energy_j,center,half_width,true_sum"
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: expected header {header!r}")
    by_horizon: Dict[int, List[WindowResult]] = {}
    for lineno, row in enumerate(rows[1:], start=2):
        try:
            fields = row.split(",")
            if len(fields) != 8:
                raise ValueError(f"expected 8 fields, got {len(fields)}")
            h_s, w_s, cid, n_s, e_s, c_s, hw_s, t_s = fields
            h, energy, center, half = int(h_s), float(e_s), float(c_s), float(hw_s)
            if not all(map(math.isfinite, (energy, center, half))):
                raise ValueError("energy_j, center and half_width must be finite")
            result = WindowResult(
                window_index=int(w_s),
                action=CountAction(cid, int(n_s)),
                ci_sum=ConfidenceInterval(
                    center=center, half_width=half, alpha=alpha, branch="unknown"
                ),
                true_sum=int(t_s),
                energy_j=energy,
            )
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
        by_horizon.setdefault(h, []).append(result)
    return list(by_horizon.values()), list(by_horizon)


def save_comparison(rows, path) -> None:
    lines = ["budget_j,planner,coverage,mean_ci_width,mean_error,energy_utilization,n_windows"]
    for r in rows:
        lines.append(
            f"{float(r['budget_j'])!r},{r['planner']},{float(r['coverage'])!r},"
            f"{float(r['mean_ci_width'])!r},{float(r['mean_error'])!r},"
            f"{float(r['energy_utilization'])!r},{int(r['n_windows'])}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def save_manifest(manifest: dict, path) -> None:
    Path(path).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
