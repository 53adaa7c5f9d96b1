"""Build per-window energy/width fronts and spend a horizon budget greedily.

Two counters compete: a cheap biased one and an accurate one that costs ten
times as much per frame. Each window gets a front of undominated (energy,
interval width) actions; the planner then walks the steepest front segments
until the budget runs out.

    python demos/02_fronts_and_plan.py
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from wattcount import (
    CounterModel,
    EnergyModel,
    SynthPattern,
    WindowSpec,
    apply_counter,
    derive_seed,
    front_gradient,
    oracle_fronts,
    plan_horizon,
    plan_quality,
    profile_errors,
    save_plan,
    synth_trace,
    window_mean_pairs,
)
from wattcount.counters import counter_seeds

OUT = Path(__file__).resolve().parent / "out"


def main():
    spec = WindowSpec(tau_seconds=600, horizon_windows=48, alpha=0.95)
    em = EnergyModel(e_capture_per_frame=0.05)
    counters = [
        CounterModel("cheap", energy_per_frame_j=0.2, ratio_mean=0.85, ratio_std=0.10),
        CounterModel("golden", energy_per_frame_j=2.45),
    ]
    pattern = SynthPattern(base_rate=4.0, diurnal_amplitude=2.0, period_windows=48)
    truth = synth_trace(pattern, n_windows=8 * 48, spec=spec, seed=202, scene_id="demo", fps=1)

    profiles = {}
    seeds = counter_seeds(counters, 202, 1)
    for c in counters:
        obs = apply_counter(truth, c, seed=seeds[c.counter_id])
        pairs = window_mean_pairs(truth, obs, spec)[: 3 * spec.horizon_windows]
        profiles[c.counter_id] = profile_errors(pairs, threshold=0.25, counter_id=c.counter_id)

    # Fronts for day 4, one per window, from full-window observed series.
    day = truth.horizon_slice(3, spec)
    fronts = oracle_fronts(day, counters, em, profiles, spec, seed=derive_seed(202, 2))

    f0 = fronts[0]
    print(f"window 0 front: {len(f0.points)} undominated of "
          f"{sum(len(fr.points) for fr in fronts)} total points across the day")
    for p in f0.points[:6]:
        print(f"  {p.action.counter_id:>6} n={p.action.n_frames:<4d}"
              f" energy {p.energy_j:7.2f} J  width {p.ci_width:.5f}")
    if len(f0.points) > 6:
        print(f"  ... {len(f0.points) - 6} more")
    g = front_gradient(f0, f0.energies[0])
    print(f"  steepest marginal gain at the floor: {g:.2e} width/J")

    budget = 700.0
    plan = plan_horizon(fronts, budget_j=budget)
    by_counter = Counter(a.counter_id for a in plan.actions)
    frames = sorted(a.n_frames for a in plan.actions)
    print(f"\nplan for {budget:.0f} J: spent {plan.spent_j:.1f} J"
          f" ({plan.spent_j / budget:.1%} of budget)")
    print(f"  counter picks: {dict(by_counter)}")
    print(f"  frames/window: min {frames[0]}, median {frames[len(frames) // 2]}, max {frames[-1]}")
    print(f"  mean relative width: {plan_quality(plan, fronts):.5f}")

    OUT.mkdir(exist_ok=True)
    save_plan(plan, OUT / "plan_day3.json")
    print(f"\nwrote {OUT / 'plan_day3.json'}")


if __name__ == "__main__":
    main()
