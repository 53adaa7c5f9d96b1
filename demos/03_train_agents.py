"""Train the online planner to imitate greedy allocations.

Builds oracle plans for three training days, then fits the two actor heads
(frame count regressor, counter classifier) plus a value baseline with
advantage actor-critic. Short run, a few seconds; the comparison demo
trains the full 2000 episodes.

    python demos/03_train_agents.py
"""

from __future__ import annotations

from pathlib import Path

from wattcount import (
    AgentPair,
    CounterModel,
    EnergyModel,
    SynthPattern,
    TrainConfig,
    WindowSpec,
    a2c_train,
    apply_counter,
    prepare_training_data,
    profile_errors,
    save_agent_pair,
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
    pattern = SynthPattern(base_rate=4.0, diurnal_amplitude=0.5, period_windows=48)
    truth = synth_trace(pattern, n_windows=6 * 48, spec=spec, seed=303, scene_id="demo", fps=1)

    profiles = {}
    seeds = counter_seeds(counters, 303, 1)
    for c in counters:
        obs = apply_counter(truth, c, seed=seeds[c.counter_id])
        pairs = window_mean_pairs(truth, obs, spec)[: 3 * spec.horizon_windows]
        profiles[c.counter_id] = profile_errors(pairs, threshold=0.25, counter_id=c.counter_id)

    budget = 3700.0
    data = prepare_training_data(truth, [0, 1, 2], budget, counters, em, profiles, spec, seed=304)
    pair = AgentPair(
        budget_level_j=budget,
        counter_ids=[c.counter_id for c in counters],
        window_frames=spec.window_frames(truth.fps),
        norm_mean_scale=data.mean_scale,
        norm_std_scale=data.std_scale,
        seed=305,
    )

    log = a2c_train(data, pair, TrainConfig(episodes=600), seed=306)
    print("episode  reward(frames)  reward(counter)  entropy")
    for row in log[::100] + [log[-1]]:
        ep, reg, cls, ent = row
        print(f"{ep:7d}  {reg:14.4f}  {cls:15.4f}  {ent:7.4f}")

    OUT.mkdir(exist_ok=True)
    save_agent_pair(pair, OUT / "agents_demo.json")
    print(f"\nwrote {OUT / 'agents_demo.json'}")


if __name__ == "__main__":
    main()
