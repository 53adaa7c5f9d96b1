"""Horizon simulator: planners, hard energy accounting, metrics, file formats."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattcount import (
    AgentPair,
    ConfidenceInterval,
    CountAction,
    CountTrace,
    CounterModel,
    EnergyLedger,
    EnergyModel,
    ErrorProfile,
    FixedCounterPlannerSpec,
    OraclePlannerSpec,
    RlPlannerSpec,
    SampleStats,
    SynthPattern,
    UnprofiledRegimeError,
    WindowResult,
    WindowSpec,
    apply_counter,
    approx_ci,
    build_front,
    cheapest_counter,
    compare_baselines,
    default_grid,
    derive_seed,
    horizon_seed,
    keyed_uniforms,
    load_results,
    mean_to_sum,
    observe_counts,
    oracle_fronts,
    plan_horizon,
    prepare_training_data,
    profile_errors,
    run_horizon,
    save_comparison,
    save_manifest,
    save_results,
    score,
    select_uni_counter,
    simulate_scene,
    synth_trace,
    window_energy,
    window_mean_pairs,
)
from wattcount.fronts import execute_windows, horizon_fronts
from wattcount.simulate import comparison_row

SPEC = WindowSpec(tau_seconds=120, horizon_windows=8, alpha=0.95)
# long enough for one run to hold many windows of a counter at more than one frame count
LONG = WindowSpec(tau_seconds=120, horizon_windows=24, alpha=0.95)


@pytest.fixture(scope="module")
def world():
    pattern = SynthPattern(base_rate=4.0, diurnal_amplitude=2.0, period_windows=8)
    trace = synth_trace(pattern, n_windows=48, spec=SPEC, seed=7, scene_id="sim", fps=1)
    counters = (
        CounterModel("cheap", 0.2, ratio_mean=0.85, ratio_std=0.1),
        CounterModel("gold", 2.0),
    )
    em = EnergyModel(0.05)
    profiles = {}
    for i, c in enumerate(counters):
        observed = apply_counter(trace, c, seed=derive_seed(5, i))
        pairs = window_mean_pairs(trace, observed, SPEC)
        profiles[c.counter_id] = profile_errors(pairs, threshold=0.25, counter_id=c.counter_id)
    return trace, counters, em, profiles


def run(world, planner, budget_j, horizons=(0,), seed=100):
    trace, counters, em, profiles = world
    return simulate_scene(
        planner, trace, list(horizons), counters, em, profiles, budget_j, SPEC, seed
    )


class TestOracleFronts:
    def test_each_window_is_built_from_its_full_observed_series(self, world):
        # the counter of rank i in id order (here, list order) is observed with
        # derive_seed(seed, 40, i) on frame indices of the horizon
        trace, counters, em, profiles = world
        horizon = trace.horizon_slice(1, SPEC)
        fronts = oracle_fronts(horizon, counters, em, profiles, SPEC, seed=123)
        assert [f.window_index for f in fronts] == list(range(SPEC.horizon_windows))
        wf = SPEC.window_frames(horizon.fps)
        for w in (0, 5):
            frames = np.arange(w * wf, (w + 1) * wf)
            observed = {
                c.counter_id: observe_counts(horizon.window_slice(w, SPEC), frames, c,
                                             derive_seed(123, 40, i))
                for i, c in enumerate(counters)
            }
            want = build_front(observed, counters, em, profiles, SPEC.alpha, window_index=w)
            assert fronts[w] == want

    def test_seeds_are_keyed_by_counter_id(self, world):
        # the mapping, not the order of the counters, decides each one's noise
        trace, counters, em, profiles = world
        horizon = trace.horizon_slice(0, SPEC)
        seeds = {"cheap": 3, "gold": 4}
        fronts = horizon_fronts(horizon, counters, em, profiles, SPEC, seeds)
        assert horizon_fronts(horizon, counters[::-1], em, profiles, SPEC, seeds) == fronts
        swapped = {"cheap": 4, "gold": 3}
        assert horizon_fronts(horizon, counters, em, profiles, SPEC, swapped) != fronts

    def test_short_horizon_rejected(self, world):
        trace, counters, em, profiles = world
        wf = SPEC.window_frames(trace.fps)
        short = CountTrace("short", trace.counts[: (SPEC.horizon_windows - 1) * wf])
        with pytest.raises(ValueError, match="shorter than one horizon"):
            horizon_fronts(short, counters, em, profiles, SPEC, {"cheap": 1, "gold": 2})


class TestRunHorizon:
    def test_energy_rows_sum_to_ledger_exactly(self, world):
        results, ledgers = run(world, OraclePlannerSpec(), budget_j=120.0)
        spent = sum(r.energy_j for r in results[0])
        assert spent == ledgers[0].spent_j
        assert ledgers[0].spent_j <= 120.0

    def test_oracle_actions_follow_the_offline_plan(self, world):
        trace, counters, em, profiles = world
        horizon = trace.horizon_slice(0, SPEC)
        seed = horizon_seed(100, 0)
        fronts = oracle_fronts(horizon, counters, em, profiles, SPEC, seed)
        plan = plan_horizon(fronts, 120.0)
        results, _ = run(world, OraclePlannerSpec(), budget_j=120.0)
        assert [r.action for r in results[0]] == list(plan.actions)

    def test_fixed_planner_splits_budget_evenly(self, world):
        trace, counters, em, profiles = world
        # 160 J over 8 windows is 20 J per window: floor(20 / 0.25) = 80 frames
        results, ledgers = run(
            world, FixedCounterPlannerSpec(counter_id="cheap", name="golden"), budget_j=160.0
        )
        assert all(r.action == CountAction("cheap", 80) for r in results[0])
        assert ledgers[0].spent_j == pytest.approx(8 * 80 * 0.25)

    def test_fixed_planner_needs_minimum_per_window(self, world):
        # gold needs 8 * 30 * 2.05 J; 120 J cannot buy that
        with pytest.raises(ValueError, match="budget below bare minimum"):
            run(world, FixedCounterPlannerSpec(counter_id="gold", name="golden"), budget_j=120.0)

    @pytest.mark.parametrize("budget_j", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("planner", [
        FixedCounterPlannerSpec(counter_id="cheap", name="uni"),
        FixedCounterPlannerSpec(counter_id="gold", name="golden"),
        OraclePlannerSpec(),
    ], ids=["uni", "golden", "oracle"])
    def test_non_finite_budget_rejected(self, world, planner, budget_j):
        with pytest.raises(ValueError, match=f"budget_j must be finite, got {budget_j!r}"):
            run(world, planner, budget_j)

    def test_budget_below_horizon_minimum(self, world):
        with pytest.raises(ValueError, match="budget below bare minimum"):
            run(world, OraclePlannerSpec(), budget_j=59.0)  # bare minimum is 60

    @pytest.mark.parametrize("planner", ["oracle", "uni", "rl"])
    def test_wake_overhead_admitted_once_per_window(self, world, planner):
        # 30 frames at 2 J capture + 1 J counting, plus 7 J of wake: 97 J a window
        trace, _, _, profiles = world
        counters = (CounterModel("cheap", 1.0, ratio_mean=0.85, ratio_std=0.1),
                    CounterModel("gold", 4.0))
        em = EnergyModel(2.0, e_wake_per_window=7.0)
        two = WindowSpec(tau_seconds=120, horizon_windows=2, alpha=0.95)
        horizon = trace.horizon_slice(0, two)
        spec = {
            "oracle": OraclePlannerSpec(),
            "uni": FixedCounterPlannerSpec("cheap", "uni"),
            "rl": RlPlannerSpec(AgentPair(194.0, ("cheap", "gold"), 120, 1.0, 1.0, seed=0)),
        }[planner]
        results, ledger = run_horizon(spec, horizon, counters, em, profiles, 194.0, two, seed=1)
        assert [r.action for r in results] == [CountAction("cheap", 30)] * 2
        assert ledger.spent_j == 194.0
        with pytest.raises(ValueError, match="budget below bare minimum"):
            run_horizon(spec, horizon, counters, em, profiles, math.nextafter(194.0, 0), two, 1)

    @pytest.mark.parametrize("planner", ["oracle", "uni", "golden", "rl"])
    def test_short_window_refused_by_one_message(self, world, planner):
        # every planner refuses a window too short for MIN_FRAMES the same way,
        # whatever the budget
        trace, counters, em, profiles = world
        short = WindowSpec(tau_seconds=20, horizon_windows=8, alpha=0.95)
        spec = {
            "oracle": OraclePlannerSpec(),
            "uni": FixedCounterPlannerSpec("cheap", "uni"),
            "golden": FixedCounterPlannerSpec("gold", "golden"),
            "rl": RlPlannerSpec(AgentPair(1e6, ("cheap", "gold"), 20, 1.0, 1.0, seed=0)),
        }[planner]
        horizon = trace.horizon_slice(0, short)
        with pytest.raises(ValueError, match="^window has 20 frames, need >= 30$"):
            run_horizon(spec, horizon, counters, em, profiles, 1e6, short, seed=1)

    @settings(max_examples=60, deadline=None)
    @given(
        per_frame=st.tuples(st.floats(0.01, 10.0), st.floats(0.01, 10.0)),
        capture=st.floats(0.0, 2.0),
        wake=st.floats(0.0, 40.0),
        window_frames=st.integers(30, 90),
    )
    def test_every_planner_admits_the_least_budget_and_nothing_less(
        self, world, per_frame, capture, wake, window_frames
    ):
        # the least budget is the cheapest counter's 30-frame window in each of
        # the 12 windows, added one window at a time as the ledger charges them;
        # past 5 windows that sum and 12 times one window part in the last bits
        trace, _, _, profiles = world
        counters = (CounterModel("cheap", per_frame[0], ratio_mean=0.85, ratio_std=0.1),
                    CounterModel("gold", per_frame[1]))
        em = EnergyModel(capture, e_wake_per_window=wake)
        spec = WindowSpec(tau_seconds=window_frames, horizon_windows=12, alpha=0.95)
        horizon = CountTrace("admit", trace.counts[: 12 * window_frames])
        cheapest = cheapest_counter(counters)
        least = 0.0
        for _ in range(12):
            least += window_energy(30, cheapest, em)
        planners = (
            OraclePlannerSpec(),
            FixedCounterPlannerSpec(cheapest.counter_id, "uni"),
            RlPlannerSpec(AgentPair(least, ("cheap", "gold"), window_frames, 1.0, 1.0, seed=0)),
        )
        for planner in planners:
            _, ledger = run_horizon(planner, horizon, counters, em, profiles, least, spec, 3)
            assert ledger.spent_j <= least, planner.name
            with pytest.raises(ValueError, match="budget below bare minimum"):
                run_horizon(planner, horizon, counters, em, profiles,
                            math.nextafter(least, 0), spec, 3)

    def test_horizon_length_checked(self, world):
        trace, counters, em, profiles = world
        with pytest.raises(ValueError, match="exactly one horizon"):
            run_horizon(
                OraclePlannerSpec(), trace, counters, em, profiles, 1000.0, SPEC, seed=1
            )

    def test_rl_counter_set_must_match(self, world):
        trace, counters, em, profiles = world
        pair = AgentPair(120.0, ("cheap",), 120, 1.0, 1.0, seed=0)
        horizon = trace.horizon_slice(0, SPEC)
        with pytest.raises(ValueError, match="different counter set"):
            run_horizon(
                RlPlannerSpec(pair=pair), horizon, counters, em, profiles, 120.0, SPEC, seed=1
            )

    def test_rl_backstop_at_bare_minimum_budget(self, world):
        trace, counters, em, profiles = world
        pair = AgentPair(60.0, ("cheap", "gold"), 120, 1.0, 1.0, seed=0)
        results, ledgers = run(world, RlPlannerSpec(pair=pair), budget_j=60.0)
        assert all(r.action == CountAction("cheap", 30) for r in results[0])
        assert ledgers[0].spent_j == pytest.approx(60.0)

    def test_any_spec_with_begin_horizon_plans(self, world):
        # run_horizon dispatches on the spec's own begin_horizon
        class EveryOtherWindow:
            name = "alternate"

            def begin_horizon(self, truth_horizon, counters, em, profiles, budget_j, spec, seed):
                return lambda t, ledger, stream: (CountAction("cheap", 30 + 10 * (t % 2)),)

        results, ledgers = run(world, EveryOtherWindow(), budget_j=120.0)
        assert [r.action.n_frames for r in results[0]] == [30, 40] * 4
        assert ledgers[0].spent_j == pytest.approx(4 * (30 + 40) * 0.25)

    def test_history_grows_one_pair_per_window(self, world):
        trace, counters, em, profiles = world
        seen = []

        class RecordHistory:
            name = "record"

            def begin_horizon(self, truth_horizon, counters, em, profiles, budget_j, spec, seed):
                def choose(t, ledger, stream):
                    seen.append(list(stream))
                    return (CountAction("cheap", 30),)

                return choose

        horizon = trace.horizon_slice(0, SPEC)
        fresh, _ = run_horizon(RecordHistory(), horizon, counters, em, profiles, 120.0, SPEC, 5)
        fresh_seen, seen[:] = list(seen), []
        stream = [(1.0, 2.0)]
        given, _ = run_horizon(RecordHistory(), horizon, counters, em, profiles, 120.0, SPEC, 5,
                               stream=stream)
        assert given == fresh
        assert [len(h) for h in fresh_seen] == list(range(8))
        assert [h[1:] for h in seen] == fresh_seen  # the same pairs after the given one
        assert len(stream) == 9 and stream[1:] == seen[-1][1:] + [stream[-1]]

    def test_windows_draw_keyed_phases_and_counter_seeds(self, world):
        # window t is sampled at phase keyed_uniforms(seed, 42, [t]) and the
        # counter of rank i in id order (here, list order) observed with
        # derive_seed(seed, 41, i), drawn here one at a time, and scored with
        # approx_ci alone. The actions mix two counters and two frame counts:
        # committed as one run, cheap scores 21 windows at 30 and 40 frames in
        # one call and gold three; one window per run, each call scores a lone
        # window
        trace, counters, em, profiles = world
        layout = ["cheap30"] * 3 + ["cheap40", "gold30"] + ["cheap30"] * 5 + ["cheap40"] * 8
        layout += ["cheap30"] * 4 + ["gold30", "gold40"]
        actions = [CountAction(a[:-2], int(a[-2:])) for a in layout]
        assert len(actions) == LONG.horizon_windows

        class Mixed:
            name = "mixed"

            def __init__(self, whole_run):
                self.whole_run = whole_run

            def begin_horizon(self, truth_horizon, counters, em, profiles, budget_j, spec, seed):
                if self.whole_run:
                    return lambda t, ledger, stream: tuple(actions[t:])
                return lambda t, ledger, stream: (actions[t],)

        horizon = trace.horizon_slice(1, LONG)
        wf = LONG.window_frames(horizon.fps)
        whole, _ = run_horizon(Mixed(True), horizon, counters, em, profiles, 500.0, LONG, seed=77)
        single, _ = run_horizon(Mixed(False), horizon, counters, em, profiles, 500.0, LONG,
                                seed=77)
        assert whole == single
        assert [r.action for r in whole] == actions
        for t, r in enumerate(whole):
            i = [c.counter_id for c in counters].index(r.action.counter_id)
            phase_u = float(keyed_uniforms(77, 42, [t])[0])
            cid = r.action.counter_id
            means, stds = execute_windows(horizon, t, wf, (r.action,), {cid: counters[i]},
                                          [phase_u], {cid: derive_seed(77, 41, i)})
            stats = SampleStats(float(means[0]), float(stds[0]), r.action.n_frames)
            ci = approx_ci(stats, profiles[r.action.counter_id], LONG.alpha)
            assert r.ci_sum == mean_to_sum(ci, wf)
            assert type(r.ci_sum.center) is float and type(r.ci_sum.half_width) is float
            assert type(r.ci_sum.branch) is str

    @pytest.mark.parametrize("on_cheap, empty, message", [
        (set(range(10)), [9, 15], "'cheap' has no offset samples"),
        (set(range(9)) | {15}, [15, 9], "'gold' has no offset samples"),
    ])
    def test_unprofiled_run_raises_for_its_first_bad_window(self, world, on_cheap, empty,
                                                             message):
        # cheap on the ten windows in on_cheap, gold with 30 frames on its
        # first seven windows and with 40 on its last seven, the whole
        # horizon scored in one call. One empty window per counter falls in
        # the offset regime, which neither profile has. Scored one window at
        # a time, the lower of them raises first, even when it is not the
        # lower position in its counter's windows
        _, counters, em, _ = world
        profiles = {c.counter_id: ErrorProfile(c.counter_id, 0.25, np.array([1.0, 1.1]),
                                               np.array([])) for c in counters}
        wf = LONG.window_frames(1)
        levels = np.full(LONG.horizon_windows, 6)
        levels[empty] = 0
        horizon = CountTrace("hand", np.repeat(levels, wf))
        gold = [t for t in range(LONG.horizon_windows) if t not in on_cheap]
        actions = tuple(
            CountAction("cheap", 30) if t in on_cheap
            else CountAction("gold", 30 if gold.index(t) < 7 else 40)
            for t in range(LONG.horizon_windows)
        )

        class WholeHorizon:
            name = "whole"

            def begin_horizon(self, truth_horizon, counters, em, profiles, budget_j, spec, seed):
                return lambda t, ledger, stream: actions[t:]

        class OneWindow:
            name = "one"

            def begin_horizon(self, truth_horizon, counters, em, profiles, budget_j, spec, seed):
                return lambda t, ledger, stream: (actions[t],)

        # committed in one run or one window at a time, the horizon is scored
        # once, and the raise leaves the history as it was at its start
        for planner in (WholeHorizon(), OneWindow()):
            stream = [(1.0, 2.0)]
            with pytest.raises(UnprofiledRegimeError,
                               match=f"^window {min(empty)}: unprofiled regime: counter {message}"):
                run_horizon(planner, horizon, counters, em, profiles, 1500.0, LONG, 5,
                            stream=stream)
            assert stream == [(1.0, 2.0)]
        with pytest.raises(UnprofiledRegimeError, match=message):
            _old_run_horizon(WholeHorizon(), horizon, counters, em, profiles, 1500.0, LONG, 5, [])

    def test_interval_scales_to_window_sums(self, world):
        results, _ = run(world, OraclePlannerSpec(), budget_j=120.0)
        for r in results[0]:
            # centers sit near the true window sum, not the window mean
            assert r.true_sum > 100  # 120 frames at rate >= 2
            assert r.ci_sum.center > 50

    def test_true_sums_match_trace(self, world):
        trace, *_ = world
        results, _ = run(world, OraclePlannerSpec(), budget_j=120.0)
        wf = SPEC.window_frames(trace.fps)
        for r in results[0]:
            lo = r.window_index * wf
            assert r.true_sum == int(trace.counts[lo : lo + wf].sum())


    def test_true_sum_hand_values(self, world):
        _, counters, em, profiles = world
        spec = WindowSpec(tau_seconds=30, horizon_windows=2)
        horizon = CountTrace("hand", np.concatenate([np.full(30, 2), np.arange(30)]))
        results, _ = run_horizon(FixedCounterPlannerSpec("cheap", "uni"), horizon, counters, em,
                                 profiles, 100.0, spec, seed=1)
        assert [r.true_sum for r in results] == [60, 435]
        assert all(type(r.true_sum) is int for r in results)

    def test_true_sums_cover_the_horizon_total(self, world):
        trace, counters, em, profiles = world
        horizon = trace.horizon_slice(2, SPEC)
        results, _ = run_horizon(OraclePlannerSpec(), horizon, counters, em, profiles, 120.0,
                                 SPEC, seed=4)
        assert sum(r.true_sum for r in results) == int(horizon.counts.sum())


class CommitRuns:
    """A planner that commits the given run lengths of cheap 30-frame windows."""

    name = "runs"

    def __init__(self, lengths):
        self.lengths = list(lengths)

    def begin_horizon(self, truth_horizon, counters, em, profiles, budget_j, spec, seed):
        lengths = iter(self.lengths)
        return lambda t, ledger, stream: (CountAction("cheap", 30),) * next(lengths)


class TestCommittedRuns:
    def test_runs_of_any_length_give_the_same_horizon(self, world):
        trace, counters, em, profiles = world
        horizon = trace.horizon_slice(1, SPEC)
        outs = []
        for lengths in ([8], [1] * 8, [3, 1, 4], [7, 1]):
            history = []
            results, ledger = run_horizon(CommitRuns(lengths), horizon, counters, em, profiles,
                                          120.0, SPEC, 9, stream=history)
            outs.append((results, ledger, history))
        assert all(out == outs[0] for out in outs[1:])
        assert len(outs[0][2]) == 8

    def test_chooser_sees_the_ledger_and_history_of_earlier_runs(self, world):
        trace, counters, em, profiles = world
        seen = []

        class Spy:
            name = "spy"

            def begin_horizon(self, truth_horizon, counters, em, profiles, budget_j, spec, seed):
                def choose(t, ledger, stream):
                    seen.append((t, ledger.spent_j, len(stream)))
                    return (CountAction("cheap", 30),) * 4
                return choose

        run_horizon(Spy(), trace.horizon_slice(0, SPEC), counters, em, profiles, 120.0, SPEC, 3)
        assert seen == [(0, 0.0, 0), (4, pytest.approx(4 * 30 * 0.25), 4)]

    @pytest.mark.parametrize("lengths, window, got", [
        ([0], 0, 0), ([3, 0], 3, 0), ([9], 0, 9), ([5, 4], 5, 4),
    ])
    def test_empty_or_overlong_run_names_the_window(self, world, lengths, window, got):
        trace, counters, em, profiles = world
        with pytest.raises(ValueError, match=f"window {window}: planner committed {got} actions, "
                                             f"need 1 to {8 - window}"):
            run_horizon(CommitRuns(lengths), trace.horizon_slice(0, SPEC), counters, em,
                        profiles, 120.0, SPEC, 3)

    def test_overdrawing_run_is_refused(self, world):
        # 8 gold windows of 30 frames cost 8 * 61.5 J; a run of them cannot fit 300 J
        trace, counters, em, profiles = world

        class AllGold:
            name = "gold"

            def begin_horizon(self, truth_horizon, counters, em, profiles, budget_j, spec, seed):
                return lambda t, ledger, stream: (CountAction("gold", 30),) * (8 - t)

        with pytest.raises(ValueError, match="ledger overdraft"):
            run_horizon(AllGold(), trace.horizon_slice(0, SPEC), counters, em, profiles, 300.0,
                        SPEC, 3)


def _old_run_horizon(planner, truth_horizon, counters, em, profiles, budget_j, spec, seed,
                     stream):
    # run_horizon as it was before planners committed runs: one choice, one
    # charge and one execution per window, and window_stats' sum as the truth.
    # The chooser's first action is what the per-window chooser returned, and
    # execute_windows on one action is the old execute_window (held to a copy
    # of it in test_fronts.py).
    wf = spec.window_frames(truth_horizon.fps)
    by_id = {c.counter_id: c for c in counters}
    phase_u = keyed_uniforms(seed, 42, np.arange(spec.horizon_windows)).tolist()
    obs_seeds = {c.counter_id: derive_seed(seed, 41, i) for i, c in enumerate(counters)}
    choose = planner.begin_horizon(truth_horizon, counters, em, profiles, budget_j, spec, seed)
    ledger = EnergyLedger(budget_j=budget_j)
    results = []
    for t in range(spec.horizon_windows):
        action = choose(t, ledger, stream)[0]
        energy = window_energy(action.n_frames, by_id[action.counter_id], em)
        ledger.charge(energy)
        means, stds = execute_windows(truth_horizon, t, wf, (action,), by_id, [phase_u[t]],
                                      obs_seeds)
        stats = SampleStats(float(means[0]), float(stds[0]), action.n_frames)
        stream.append((stats.mean, stats.std))
        ci_sum = mean_to_sum(approx_ci(stats, profiles[action.counter_id], spec.alpha), wf)
        true_sum = int(truth_horizon.window_slice(t, spec).sum())
        results.append(WindowResult(t, action, ci_sum, true_sum, energy))
    return results, ledger


class TestRunHorizonParity:
    @settings(max_examples=25, deadline=None)
    @given(
        planner=st.sampled_from(["oracle", "uni", "golden", "rl"]),
        h=st.integers(0, 5),
        budget_j=st.sampled_from([60.0, 120.0, 520.0, 1500.0]),
        seed=st.integers(0, 2**63),
        window_spec=st.sampled_from([SPEC, LONG]),
    )
    def test_committed_runs_match_the_per_window_loop(self, world, planner, h, budget_j, seed,
                                                      window_spec):
        trace, counters, em, profiles = world
        # budgets are per 8 windows; a long horizon has three times the windows
        budget_j *= window_spec.horizon_windows / 8
        h %= 48 // window_spec.horizon_windows
        spec = {
            "oracle": OraclePlannerSpec(),
            "uni": FixedCounterPlannerSpec("cheap", "uni"),
            "golden": FixedCounterPlannerSpec("gold", "golden"),
            "rl": RlPlannerSpec(AgentPair(budget_j, ("cheap", "gold"), 120, 4.0, 2.0, seed=seed)),
        }[planner]
        if planner == "golden" and budget_j < window_spec.horizon_windows * 30 * 2.05:
            budget_j = 1500.0 * window_spec.horizon_windows / 8
        horizon = trace.horizon_slice(h, window_spec)
        prior = [(4.0, 2.0), (5.0, 1.5)]
        got_stream, want_stream = list(prior), list(prior)
        got = run_horizon(spec, horizon, counters, em, profiles, budget_j, window_spec, seed,
                          stream=got_stream)
        want = _old_run_horizon(spec, horizon, counters, em, profiles, budget_j, window_spec,
                                seed, want_stream)
        assert got == want
        assert got_stream == want_stream


class TestSimulateScene:
    def test_deterministic_repeat(self, world, tmp_path):
        out = []
        for run_idx in range(2):
            results, _ = run(world, OraclePlannerSpec(), budget_j=120.0, horizons=(0, 1))
            path = tmp_path / f"r{run_idx}.csv"
            save_results(results, [0, 1], path)
            out.append(path.read_text())
        assert out[0] == out[1]

    def test_one_ledger_per_horizon(self, world):
        results, ledgers = run(world, OraclePlannerSpec(), budget_j=120.0, horizons=(0, 1, 2))
        assert len(ledgers) == 3
        for res, led in zip(results, ledgers):
            assert sum(r.energy_j for r in res) == led.spent_j
            assert led.spent_j <= led.budget_j

    def test_different_seeds_differ(self, world):
        a, _ = run(world, OraclePlannerSpec(), budget_j=120.0, seed=100)
        b, _ = run(world, OraclePlannerSpec(), budget_j=120.0, seed=101)
        assert [r.ci_sum.center for r in a[0]] != [r.ci_sum.center for r in b[0]]

    def test_horizon_seed_is_stable_and_distinct(self):
        assert horizon_seed(5, 0) == horizon_seed(5, 0)
        assert horizon_seed(5, 0) != horizon_seed(5, 1)
        assert horizon_seed(5, 0) != horizon_seed(6, 0)


@pytest.fixture(scope="module")
def three_counters(world):
    """The world's scene with three noisy counters, profiled."""
    trace, _, em, _ = world
    counters = (
        CounterModel("cheap", 0.2, ratio_mean=0.85, ratio_std=0.1),
        CounterModel("gold", 2.0, offset_std=0.1),
        CounterModel("mid", 0.6, ratio_mean=0.95, ratio_std=0.05, offset_std=0.2),
    )
    profiles = {}
    for i, c in enumerate(counters):
        observed = apply_counter(trace, c, seed=derive_seed(5, i))
        pairs = window_mean_pairs(trace, observed, SPEC)
        profiles[c.counter_id] = profile_errors(pairs, threshold=0.25, counter_id=c.counter_id)
    return trace, counters, em, profiles


@settings(max_examples=8, deadline=None)
@given(order=st.permutations(range(3)), seed=st.integers(0, 2**32))
def test_counter_order_changes_no_front_plan_or_result(three_counters, order, seed):
    # metamorphic: listing the counters in another order is the same input
    trace, counters, em, profiles = three_counters
    both = (counters, [counters[k] for k in order])
    budget_j = 600.0  # golden's bare minimum is 492 J
    horizon = trace.horizon_slice(1, SPEC)
    fronts = [oracle_fronts(horizon, cs, em, profiles, SPEC, seed) for cs in both]
    assert fronts[0] == fronts[1]
    assert plan_horizon(fronts[0], budget_j) == plan_horizon(fronts[1], budget_j)
    labels = [prepare_training_data(trace, [0, 2, 4], budget_j, cs, em, profiles, SPEC, seed)
              for cs in both]
    assert labels[0].plans == labels[1].plans
    uni = [select_uni_counter(trace, 0, cs, em, profiles, budget_j, SPEC, seed) for cs in both]
    assert uni[0] == uni[1]
    for planner in (OraclePlannerSpec(), FixedCounterPlannerSpec(uni[0], "uni"),
                    FixedCounterPlannerSpec("gold", "golden")):
        results = [simulate_scene(planner, trace, [1, 3], cs, em, profiles, budget_j, SPEC, seed)
                   for cs in both]
        assert results[0] == results[1], planner.name


def make_result(w, center, half, true_sum, energy=10.0):
    return WindowResult(
        window_index=w,
        action=CountAction("c", 30),
        ci_sum=ConfidenceInterval(center=center, half_width=half, alpha=0.95, branch="ratio"),
        true_sum=true_sum,
        energy_j=energy,
    )


class TestScore:
    def test_hand_example(self):
        results = [make_result(0, 90.0, 20.0, 100), make_result(1, 200.0, 10.0, 190)]
        ledger = EnergyLedger(100.0)
        ledger.charge(50.0)
        report = score([results], [ledger])
        assert report.coverage_probability == 1.0  # both true sums inside
        assert report.mean_ci_width == pytest.approx(30.0 / 290.0)
        assert report.mean_error == pytest.approx(20.0 / 290.0)
        assert report.energy_utilization == (0.5,)
        assert report.n_windows == 2
        assert report.per_horizon[0]["unused_j"] == 50.0

    def test_miss_counts_against_coverage(self):
        results = [make_result(0, 90.0, 5.0, 100), make_result(1, 200.0, 10.0, 195)]
        report = score([results], [EnergyLedger(100.0)])
        assert report.coverage_probability == 0.5

    def test_zero_true_total_leaves_error_undefined(self):
        results = [make_result(0, 0.0, 1.0, 0)]
        report = score([results], [EnergyLedger(100.0)])
        assert np.isnan(report.mean_error)
        assert report.coverage_probability == 1.0

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError, match="at least one window result"):
            score([], [])

    def test_per_horizon_blocks(self):
        h0 = [make_result(0, 10.0, 1.0, 10)]
        h1 = [make_result(0, 30.0, 2.0, 100)]
        led0 = EnergyLedger(10.0)
        led0.charge(4.0)
        led1 = EnergyLedger(20.0)
        report = score([h0, h1], [led0, led1])
        assert report.per_horizon[0]["coverage"] == 1.0
        assert report.per_horizon[1]["coverage"] == 0.0
        assert report.per_horizon[0]["spent_j"] == 4.0
        assert report.per_horizon[1]["unused_j"] == 20.0
        assert report.n_windows == 2


class TestSelectUniCounter:
    def test_picks_affordable_counter_when_golden_is_too_dear(self, world):
        trace, counters, em, profiles = world
        # at 120 J the gold counter cannot even run 30 frames per window
        chosen = select_uni_counter(trace, 3, counters, em, profiles, 120.0, SPEC, seed=9)
        assert chosen == "cheap"

    def test_picks_clean_counter_when_budget_allows(self, world):
        trace, counters, em, profiles = world
        # 1500 J buys gold 91 frames per window: clean counts beat the noisy ratio
        chosen = select_uni_counter(trace, 3, counters, em, profiles, 1500.0, SPEC, seed=9)
        assert chosen == "gold"

    def test_no_counter_affordable(self, world):
        trace, counters, em, profiles = world
        with pytest.raises(ValueError, match="budget below bare minimum"):
            select_uni_counter(trace, 3, counters, em, profiles, 10.0, SPEC, seed=9)

    def test_short_window_refused_as_short(self, world):
        # the validation horizon's 20-frame windows are too short at any budget,
        # not too poor
        trace, counters, em, profiles = world
        short = WindowSpec(tau_seconds=20, horizon_windows=8, alpha=0.95)
        with pytest.raises(ValueError, match="^window has 20 frames, need >= 30$"):
            select_uni_counter(trace, 3, counters, em, profiles, 1e6, short, seed=9)

    @pytest.mark.parametrize("budget_j", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_budget_rejected(self, world, budget_j):
        trace, counters, em, profiles = world
        with pytest.raises(ValueError, match=f"budget_j must be finite, got {budget_j!r}"):
            select_uni_counter(trace, 3, counters, em, profiles, budget_j, SPEC, seed=9)

    def test_unprofiled_regime_is_not_mistaken_for_unaffordable(self, world):
        trace, counters, em, profiles = world
        # every validation window falls below the threshold, where gold has no samples
        no_offset = ErrorProfile("gold", 1e6, np.array([1.0]), np.array([]))
        with pytest.raises(UnprofiledRegimeError, match="'gold' has no offset samples"):
            select_uni_counter(trace, 3, counters, em, {**profiles, "gold": no_offset},
                               1500.0, SPEC, seed=9)


class TestFixedBaselinesOnTheGrid:
    def test_off_grid_window_with_a_rich_budget(self):
        spec = WindowSpec(tau_seconds=125, horizon_windows=8, alpha=0.95)
        pattern = SynthPattern(base_rate=4.0, diurnal_amplitude=2.0, period_windows=8)
        trace = synth_trace(pattern, n_windows=32, spec=spec, seed=7)
        counters = (CounterModel("cheap", 0.2, ratio_mean=0.85, ratio_std=0.1),
                    CounterModel("gold", 2.0))
        em = EnergyModel(0.05)
        profiles = {}
        for i, c in enumerate(counters):
            observed = apply_counter(trace, c, seed=derive_seed(5, i))
            pairs = window_mean_pairs(trace, observed, spec)
            profiles[c.counter_id] = profile_errors(pairs, 0.25, counter_id=c.counter_id)
        budget_j = 10_000.0  # over 600 J per window: both counters could take all 125 frames
        uni_id = select_uni_counter(trace, 3, counters, em, profiles, budget_j, spec, seed=9)
        grid = set(default_grid(125).tolist())
        for planner in (FixedCounterPlannerSpec(counter_id=uni_id, name="uni"),
                        FixedCounterPlannerSpec(counter_id="gold", name="golden")):
            results, _ = simulate_scene(planner, trace, [0, 1], counters, em, profiles,
                                        budget_j, spec, seed=100)
            frames = {r.action.n_frames for block in results for r in block}
            assert frames == {120} and frames <= grid


class TestCompareBaselines:
    def test_rows_structure_and_oracle_sanity(self, world):
        trace, counters, em, profiles = world
        budgets = [520.0, 700.0]
        rows = compare_baselines(
            trace, budgets, counters, em, profiles, SPEC, seed=100,
            eval_horizons=[0, 1, 2], validation_horizon=3, golden_counter_id="gold",
        )
        assert [r["planner"] for r in rows] == ["oracle", "uni", "golden"] * 2
        by_key = {(r["budget_j"], r["planner"]): r for r in rows}
        for budget in budgets:
            oracle = by_key[(budget, "oracle")]
            uni = by_key[(budget, "uni")]
            golden = by_key[(budget, "golden")]
            assert oracle["mean_ci_width"] <= uni["mean_ci_width"] * 1.02
            assert uni["mean_ci_width"] <= golden["mean_ci_width"] * 1.02
            assert oracle["n_windows"] == 24
        # more budget buys a narrower oracle interval
        assert by_key[(700.0, "oracle")]["mean_ci_width"] < by_key[(520.0, "oracle")]["mean_ci_width"]

    def test_row_scores_the_simulated_ledgers(self, world):
        results, ledgers = run(world, OraclePlannerSpec(), budget_j=120.0, horizons=(0, 1))
        report = score(results, ledgers)
        assert comparison_row(120.0, "oracle", results) == {
            "budget_j": 120.0,
            "planner": "oracle",
            "coverage": report.coverage_probability,
            "mean_ci_width": report.mean_ci_width,
            "mean_error": report.mean_error,
            "energy_utilization": float(np.mean(report.energy_utilization)),
            "n_windows": 16,
        }

    def test_rl_row_present_only_with_a_pair(self, world):
        trace, counters, em, profiles = world
        pair = AgentPair(120.0, ("cheap", "gold"), 120, 1.0, 1.0, seed=0)
        rows = compare_baselines(
            trace, [120.0], counters, em, profiles, SPEC, seed=100,
            eval_horizons=[0], validation_horizon=3, golden_counter_id="cheap",
            pairs={120.0: pair},
        )
        assert [r["planner"] for r in rows] == ["oracle", "rl", "uni", "golden"]


class TestFileFormats:
    def test_results_round_trip(self, world, tmp_path):
        results, _ = run(world, OraclePlannerSpec(), budget_j=120.0, horizons=(0, 2))
        path = tmp_path / "results.csv"
        save_results(results, [0, 2], path)
        loaded, order = load_results(path, alpha=SPEC.alpha)
        assert order == [0, 2]
        for orig_h, load_h in zip(results, loaded):
            for o, l in zip(orig_h, load_h):
                assert l.action == o.action
                assert l.true_sum == o.true_sum
                assert l.energy_j == o.energy_j
                assert l.ci_sum.center == o.ci_sum.center
                assert l.ci_sum.half_width == o.ci_sum.half_width
                assert l.ci_sum.branch == "unknown"

    def test_results_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(ValueError, match="expected header"):
            load_results(path, alpha=0.95)

    def test_scores_survive_the_round_trip(self, world, tmp_path):
        results, ledgers = run(world, OraclePlannerSpec(), budget_j=120.0, horizons=(0, 1))
        path = tmp_path / "results.csv"
        save_results(results, [0, 1], path)
        loaded, _ = load_results(path, alpha=SPEC.alpha)
        a = score(results, ledgers)
        b = score(loaded, ledgers)
        assert b.coverage_probability == a.coverage_probability
        assert b.mean_ci_width == a.mean_ci_width
        assert b.mean_error == a.mean_error

    def test_comparison_csv_precision(self, tmp_path):
        rows = [{
            "budget_j": 90.0, "planner": "oracle", "coverage": 13.0 / 16.0,
            "mean_ci_width": 0.1234567890123, "mean_error": float("nan"),
            "energy_utilization": 0.999, "n_windows": 16,
        }]
        path = tmp_path / "cmp.csv"
        save_comparison(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("budget_j,planner,")
        fields = lines[1].split(",")
        assert float(fields[2]) == 13.0 / 16.0  # repr keeps full precision
        assert fields[1] == "oracle"

    def test_manifest_round_trip(self, tmp_path):
        path = tmp_path / "m.json"
        save_manifest({"seed": 1, "budgets": [1.0, 2.0]}, path)
        assert json.loads(path.read_text()) == {"seed": 1, "budgets": [1.0, 2.0]}
