"""Offline steepest-gradient energy allocation across a horizon.

The oracle sees every window's energy/CI front. It starts each window at the
cheapest action on its front, then repeatedly advances the window whose next
front segment buys the most width reduction per joule, as long as that
advance fits in the remaining budget. The budget bound is hard: the plan
never spends more than it was given. This is marginal analysis (Fox 1966):
optimal when every front is concave, greedy only when it is not.

The advance order needs no priority queue. A window's step can only be taken
after all its earlier steps, so it ranks by the running minimum of its
window's gradients up to it; sorting every step once by (running minimum
descending, window, step) gives exactly the order in which a max-heap of
window heads would pop them. Walking that order spends the budget,
dropping a window for good at its first step that no longer fits.

Most of the walk needs no decision. Until the first step that does not fit,
every step is taken, so one running subtraction over the ordered costs finds
that step and each window's level is the count of its steps before it. The
step-by-step walk resumes there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .fronts import EnergyCIFront


@dataclass(frozen=True)
class HorizonPlan:
    """One count action per window plus the energy ledger that proves fit."""

    budget_j: float
    actions: tuple
    per_window_energy: tuple
    spent_j: float

    def __post_init__(self):
        if len(self.actions) != len(self.per_window_energy):
            raise ValueError("actions and per_window_energy must align")
        if not math.isfinite(self.budget_j):
            raise ValueError(f"budget_j must be finite, got {self.budget_j!r}")
        total = sum(self.per_window_energy)
        if abs(total - self.spent_j) > 1e-6:
            raise ValueError("spent_j must equal the sum of per-window energies")
        if self.spent_j > self.budget_j:
            raise ValueError("plan exceeds budget")


def plan_horizon(fronts: Sequence[EnergyCIFront], budget_j: float) -> HorizonPlan:
    """Allocate a horizon budget across window fronts by steepest gradient.

    Advances are atomic front steps; ranking is width gain per joule, ties
    broken toward the lowest window index so replays are deterministic.
    """
    if not math.isfinite(budget_j):
        raise ValueError(f"budget_j must be finite, got {budget_j!r}")
    if not fronts:
        raise ValueError("need at least one front")
    # every front's points end to end, in (window, point) order
    sizes = np.array([f.energies.size for f in fronts])
    first = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    energy = np.concatenate([f.energies for f in fronts])
    width = np.concatenate([f.widths for f in fronts])
    minimum = sum(energy[first].tolist())
    if budget_j < minimum:
        raise ValueError(
            f"budget below bare minimum: {budget_j!r} J < {minimum!r} J "
            f"(short {minimum - budget_j:.3g} J)"
        )

    # the step table in (window, step) order: step k of window w advances
    # from point first[w] + k, and first[w] counts w's earlier steps plus w.
    # A step's key is the running minimum of its window's gradients up to
    # it, taken down a step-major table padded past each window's last step
    n_steps = sizes - 1
    window = np.repeat(np.arange(len(fronts)), n_steps)
    at = np.arange(window.size) + window  # the point each step advances from
    step = at - first[window]
    incs = np.diff(energy)[at]
    cell = step * len(fronts) + window
    gradient = np.full(n_steps.max() * len(fronts), np.inf)
    with np.errstate(over="ignore"):  # a step of subnormal cost is infinitely steep
        gradient[cell] = (width[:-1] - width[1:])[at] / incs
    keys = np.minimum.accumulate(gradient.reshape(-1, len(fronts)), axis=0).ravel()[cell]
    # descending key; the stable sort keeps equal keys in (window, step) order
    order = np.argsort(-keys, kind="stable")
    window, incs = window[order], incs[order]

    # until the first step that does not fit, no window has been dropped, so
    # every step is taken and the running remainder is one sequential
    # subtraction, the loop's own arithmetic
    left = np.subtract.accumulate(np.concatenate(([budget_j - minimum], incs)))
    misfits = np.flatnonzero(incs > left[:-1] + 1e-12)
    fit = misfits[0] if misfits.size else incs.size
    # a window's steps come in step order, so the prefix takes its first ones
    level = np.bincount(window[:fit], minlength=len(fronts)).tolist()
    dropped = [False] * len(fronts)
    remaining = float(left[fit])
    for w, inc in zip(window[fit:].tolist(), incs[fit:].tolist()):
        if dropped[w]:
            continue
        if inc > remaining + 1e-12:
            # remaining only shrinks and steps cannot be skipped, so this
            # window can never advance again; drop it for good
            dropped[w] = True
            continue
        remaining -= inc
        level[w] += 1  # a kept window takes its steps in step order

    # the running remainder rounds differently from the window-order sum the
    # plan is checked by, and may admit a step a few ulps too dear; undo the
    # latest advances until that sum fits, as at the minimum it always does
    energies = energy[first + level].tolist()
    if sum(energies) > budget_j:
        # every step in order, the latest first
        for w, i in zip(window[::-1].tolist(), step[order[::-1]].tolist()):
            if i + 1 == level[w]:  # the latest advance window w kept
                level[w] = i
                energies[w] = float(fronts[w].energies[i])
                if sum(energies) <= budget_j:
                    break
    return HorizonPlan(
        budget_j=budget_j,
        actions=tuple(f.action_at(i) for f, i in zip(fronts, level)),
        per_window_energy=tuple(energies),
        spent_j=sum(energies),
    )


def plan_quality(plan: HorizonPlan, fronts: Sequence[EnergyCIFront]) -> float:
    """Mean front width at the plan's operating points (lower is better)."""
    if len(plan.actions) != len(fronts):
        raise ValueError("plan and fronts must align")
    widths = []
    for action, front in zip(plan.actions, fronts):
        for counter_id, n, width in zip(
            front.counter_ids, front.n_frames.tolist(), front.widths.tolist()
        ):
            if counter_id == action.counter_id and n == action.n_frames:
                widths.append(width)
                break
        else:
            raise ValueError(
                f"action ({action.counter_id}, {action.n_frames}) not on front "
                f"{front.window_index}"
            )
    return sum(widths) / len(widths)


def save_plan(plan: HorizonPlan, path) -> None:
    payload = {
        "budget_j": plan.budget_j,
        "windows": [
            {
                "index": i,
                "counter_id": a.counter_id,
                "n_frames": a.n_frames,
                "energy_j": e,
            }
            for i, (a, e) in enumerate(zip(plan.actions, plan.per_window_energy))
        ],
        "spent_j": plan.spent_j,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

