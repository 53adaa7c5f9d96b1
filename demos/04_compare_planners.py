"""Race four planners over ten held-out days at a tight energy budget.

oracle   hindsight greedy on fronts built from the full observed series
rl       trained imitator of the oracle, with an affordability backstop
uni      best single counter, frames split evenly across windows
golden   the accurate-but-expensive counter, split evenly

Trains the imitator for the full 2000 episodes, so expect roughly half a
minute end to end.

    python demos/04_compare_planners.py
"""

from __future__ import annotations

from wattcount import (
    AgentPair,
    CounterModel,
    EnergyModel,
    SynthPattern,
    TrainConfig,
    WindowSpec,
    a2c_train,
    apply_counter,
    compare_baselines,
    prepare_training_data,
    profile_errors,
    synth_trace,
    window_mean_pairs,
)
from wattcount.counters import counter_seeds


def main():
    spec = WindowSpec(tau_seconds=600, horizon_windows=48, alpha=0.95)
    em = EnergyModel(e_capture_per_frame=0.05)
    counters = [
        CounterModel("cheap", energy_per_frame_j=0.2, ratio_mean=0.85, ratio_std=0.10),
        CounterModel("golden", energy_per_frame_j=2.45),
    ]
    pattern = SynthPattern(base_rate=4.0, diurnal_amplitude=0.5, period_windows=48)
    truth = synth_trace(pattern, n_windows=14 * 48, spec=spec, seed=3033, scene_id="demo", fps=1)

    profiles = {}
    seeds = [counter_seeds(counters, 3034, 60, h) for h in range(3)]
    for c in counters:
        pairs = []
        for h in range(3):
            day = truth.horizon_slice(h, spec)
            obs = apply_counter(day, c, seed=seeds[h][c.counter_id])
            pairs.extend(window_mean_pairs(day, obs, spec))
        profiles[c.counter_id] = profile_errors(pairs, threshold=0.25, counter_id=c.counter_id)

    budget = 3700.0
    print(f"budget {budget:.0f} J per 48-window day"
          f" ({budget / spec.horizon_windows:.1f} J per window)")

    print("training the imitator on days 0-2 ...")
    data = prepare_training_data(truth, [0, 1, 2], budget, counters, em, profiles, spec, seed=3035)
    pair = AgentPair(
        budget_level_j=budget,
        counter_ids=[c.counter_id for c in counters],
        window_frames=spec.window_frames(truth.fps),
        norm_mean_scale=data.mean_scale,
        norm_std_scale=data.std_scale,
        seed=3036,
    )
    a2c_train(data, pair, TrainConfig(episodes=2000), seed=3037)

    print("simulating days 4-13 ...")
    rows = compare_baselines(
        truth,
        budgets_j=[budget],
        counters=counters,
        em=em,
        profiles=profiles,
        spec=spec,
        seed=5151,
        eval_horizons=list(range(4, 14)),
        validation_horizon=3,
        golden_counter_id="golden",
        pairs={budget: pair},
    )

    print(f"\n{'planner':<8} {'coverage':>8} {'rel width':>10} {'energy used':>12}")
    for r in rows:
        print(f"{r['planner']:<8} {r['coverage']:8.3f} {r['mean_ci_width']:10.5f}"
              f" {r['energy_utilization']:11.1%}")
    print("\nwidth is the interval half-width relative to the estimated window total,")
    print("averaged over the ten days; lower is better at equal coverage.")


if __name__ == "__main__":
    main()
