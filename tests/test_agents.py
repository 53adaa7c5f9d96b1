"""Online planner: observations, budget backstop, A2C losses and training."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattcount import (
    AgentPair,
    CountAction,
    CounterModel,
    EnergyLedger,
    EnergyModel,
    SynthPattern,
    TrainConfig,
    TrainingData,
    WindowSpec,
    a2c_train,
    act,
    apply_counter,
    bare_minimum,
    build_observation,
    categorical_policy_loss_grads,
    derive_seed,
    gaussian_policy_loss_grads,
    load_agent_pair,
    normalization_scales,
    prepare_training_data,
    profile_errors,
    resolve_action,
    save_agent_pair,
    save_training_log,
    spawn_rng,
    synth_trace,
    value_loss_grads,
    window_energy,
    window_mean_pairs,
    CountTrace,
    Mlp,
    default_grid,
    plan_horizon,
)
from wattcount import agents as agents_module
from wattcount import counters as counters_module
from wattcount import fronts as fronts_module
from wattcount.agents import _categorical_draw
from wattcount.fronts import cheapest_counter, horizon_fronts, max_affordable_frames
from wattcount.mlp import softmax

SPEC = WindowSpec(tau_seconds=120, horizon_windows=8, alpha=0.95)


@pytest.fixture(scope="module")
def world():
    """Small scene with two counters, profiled, plus labeled training data."""
    pattern = SynthPattern(base_rate=4.0, diurnal_amplitude=2.0, period_windows=8)
    trace = synth_trace(pattern, n_windows=48, spec=SPEC, seed=7, scene_id="unit", fps=1)
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
    data = prepare_training_data(
        trace, [0, 1, 2], budget_j=120.0, counters=counters, em=em,
        profiles=profiles, spec=SPEC, seed=11,
    )
    return trace, counters, em, profiles, data


@pytest.fixture(scope="module")
def noise_paths_world():
    """Three counters whose training draws take every branch of observe_counts.

    The scene idles for part of each day, so some windows keep no object in
    most frames (the sparse ratio path) and others are busy (the full
    pass); one counter adds offset noise and one a miss floor, which draws
    its kept objects through scipy.stats' binomial quantile.
    """
    pattern = SynthPattern(base_rate=1.0, diurnal_amplitude=3.0, period_windows=8)
    trace = synth_trace(pattern, n_windows=48, spec=SPEC, seed=13, scene_id="paths", fps=1)
    counters = (
        CounterModel("offs", 0.2, ratio_mean=0.9, ratio_std=0.1, offset_std=0.4),
        CounterModel("miss", 0.5, ratio_mean=1.05, ratio_std=0.05, miss_floor=0.2),
        CounterModel("sparse", 1.0, ratio_mean=0.95, ratio_std=0.2),
    )
    em = EnergyModel(0.05)
    profiles = {}
    for i, c in enumerate(counters):
        observed = apply_counter(trace, c, seed=derive_seed(5, i))
        pairs = window_mean_pairs(trace, observed, SPEC)
        profiles[c.counter_id] = profile_errors(pairs, threshold=0.25, counter_id=c.counter_id)
    return prepare_training_data(
        trace, [0, 1, 2], budget_j=300.0, counters=counters, em=em,
        profiles=profiles, spec=SPEC, seed=11,
    )


def fresh_pair(data, seed=301):
    return AgentPair(
        budget_level_j=data.budget_j,
        counter_ids=tuple(c.counter_id for c in data.counters),
        window_frames=120,
        norm_mean_scale=data.mean_scale,
        norm_std_scale=data.std_scale,
        seed=seed,
    )


class TestEnergyLedger:
    def test_charges_accumulate(self):
        led = EnergyLedger(budget_j=100.0)
        led.charge(30.0)
        led.charge(20.0)
        assert led.spent_j == 50.0
        assert led.remaining_j == 50.0

    def test_overdraft_rejected(self):
        led = EnergyLedger(budget_j=10.0)
        with pytest.raises(ValueError, match="ledger overdraft"):
            led.charge(10.1)

    def test_negative_charge_rejected(self):
        led = EnergyLedger(budget_j=10.0)
        with pytest.raises(ValueError, match="negative"):
            led.charge(-1.0)

    def test_exact_spend_down_allowed(self):
        led = EnergyLedger(budget_j=10.0)
        led.charge(10.0)
        assert led.remaining_j == 0.0

    @pytest.mark.parametrize("budget_j", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_budget_rejected(self, budget_j):
        with pytest.raises(ValueError, match=f"budget_j must be finite, got {budget_j!r}"):
            EnergyLedger(budget_j=budget_j)

    @pytest.mark.parametrize("energy_j", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_charge_rejected(self, energy_j):
        led = EnergyLedger(budget_j=10.0)
        led.charge(4.0)
        with pytest.raises(ValueError, match=f"non-finite energy {energy_j!r}"):
            led.charge(energy_j)
        assert led.spent_j == 4.0


class TestBareMinimum:
    COUNTERS = (CounterModel("a", 1.0), CounterModel("b", 4.0))

    def test_hand_value_no_overhead(self):
        em = EnergyModel(2.0)
        # cheapest counter at 30 frames: 30 * (2 + 1) = 90 per window
        assert bare_minimum(10, self.COUNTERS, em) == 900.0

    def test_wake_overhead_counted_once_per_window(self):
        em = EnergyModel(2.0, e_wake_capture=3.0, e_wake_process=4.0)
        assert bare_minimum(2, self.COUNTERS, em) == 2 * 97.0

    def test_zero_windows_free(self):
        assert bare_minimum(0, self.COUNTERS, EnergyModel(1.0)) == 0.0

    def test_negative_windows_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            bare_minimum(-1, self.COUNTERS, EnergyModel(1.0))


class TestBuildObservation:
    def test_cold_start_is_all_zeros(self):
        obs = build_observation([], 48, 1.0, 1.0)
        assert obs.shape == (10,)
        assert np.all(obs == 0.0)

    def test_recent_and_day_back_layout(self):
        stream = [(float(10 * p), float(p)) for p in range(10)]
        obs = build_observation(stream[:9], 8, mean_scale=2.0, std_scale=4.0)
        # slots 0..3 are windows 8,7,6,5; slot 4 is window 9-8=1
        assert obs[0] == 80.0 / 2.0 and obs[1] == 8.0 / 4.0
        assert obs[2] == 70.0 / 2.0 and obs[3] == 7.0 / 4.0
        assert obs[6] == 50.0 / 2.0 and obs[7] == 5.0 / 4.0
        assert obs[8] == 10.0 / 2.0 and obs[9] == 1.0 / 4.0

    def test_partial_history_fills_what_exists(self):
        stream = [(5.0, 1.0), (6.0, 2.0)]
        obs = build_observation(stream, 8, 1.0, 1.0)
        assert obs[0] == 6.0 and obs[2] == 5.0
        assert np.all(obs[4:] == 0.0)  # older windows and day-back missing


class TestAgentPair:
    def test_network_budgets(self, world):
        *_, data = world
        pair = fresh_pair(data)
        for net in (pair.reg_actor, pair.reg_critic, pair.cls_actor, pair.cls_critic):
            assert net.n_params < 5500
        assert pair.reg_actor.n_weight_mults + pair.cls_actor.n_weight_mults <= 10_000

    def test_too_many_counters_blow_the_mult_budget(self):
        with pytest.raises(ValueError, match="multiply-add"):
            AgentPair(100.0, [f"c{i}" for i in range(8)], 120, 1.0, 1.0, seed=0)

    def test_needs_counters(self):
        with pytest.raises(ValueError, match="at least one counter"):
            AgentPair(100.0, [], 120, 1.0, 1.0, seed=0)

    def test_frames_from_raw_clips_and_snaps(self, world):
        *_, data = world
        pair = fresh_pair(data)  # window_frames=120
        assert pair.frames_from_raw(-2.0) == 30
        assert pair.frames_from_raw(5.0) == 120
        assert pair.frames_from_raw(1.0 / 3.0) == 60  # 30 + 30 exactly on grid


def _resolve_per_call(pair, raw_frames, counter_idx, ledger, windows_remaining, counters, em):
    """resolve_action as it was written before its constants were hoisted."""
    by_id = {c.counter_id: c for c in counters}
    cheap = cheapest_counter(counters)
    remaining = ledger.remaining_j
    floor_after = bare_minimum(windows_remaining - 1, counters, em)
    if remaining <= bare_minimum(windows_remaining, counters, em) + 1e-9:
        return CountAction(cheap.counter_id, 30), False
    proposed_n = pair.frames_from_raw(raw_frames)
    proposed_counter = by_id[pair.counter_ids[counter_idx]]
    allowance = remaining - floor_after
    cap = max_affordable_frames(allowance, proposed_counter, em, pair.window_frames)
    if cap is None:
        fallback_cap = max_affordable_frames(allowance, cheap, em, pair.window_frames)
        return CountAction(cheap.counter_id, min(proposed_n, fallback_cap)), True
    if proposed_n > cap:
        return CountAction(proposed_counter.counter_id, cap), True
    return CountAction(proposed_counter.counter_id, proposed_n), False


class TestResolveAction:
    COUNTERS = (CounterModel("a", 1.0), CounterModel("b", 4.0))
    EM = EnergyModel(1.0)  # a: 2 J/frame, b: 5 J/frame, no overhead

    def make_pair(self):
        return AgentPair(1000.0, ("a", "b"), 120, 1.0, 1.0, seed=9)

    def test_backstop_at_bare_minimum(self):
        pair = self.make_pair()
        ledger = EnergyLedger(600.0)  # exactly 10 windows at the cheap minimum
        action, clamped = resolve_action(pair, 1.0, 1, ledger, 10, self.COUNTERS, self.EM)
        assert action == CountAction("a", 30)
        assert not clamped

    def test_rich_budget_passes_through(self):
        pair = self.make_pair()
        ledger = EnergyLedger(10_000.0)
        action, clamped = resolve_action(pair, 1.0, 1, ledger, 2, self.COUNTERS, self.EM)
        assert action == CountAction("b", 120)
        assert not clamped

    def test_caps_frames_on_requested_counter(self):
        pair = self.make_pair()
        ledger = EnergyLedger(460.0)  # allowance 400 after the next window's floor
        action, clamped = resolve_action(pair, 1.0, 1, ledger, 2, self.COUNTERS, self.EM)
        assert action == CountAction("b", 80)  # floor(400 / 5) = 80, on grid
        assert clamped
        ledger.charge(window_energy(action.n_frames, self.COUNTERS[1], self.EM))
        assert ledger.remaining_j == pytest.approx(60.0)

    def test_downgrades_to_cheap_counter(self):
        pair = self.make_pair()
        ledger = EnergyLedger(200.0)  # allowance 140: under b's minimum of 150
        action, clamped = resolve_action(pair, 1.0, 1, ledger, 2, self.COUNTERS, self.EM)
        assert action == CountAction("a", 70)  # floor(140 / 2) = 70
        assert clamped

    def test_invariant_next_windows_stay_affordable(self):
        pair = self.make_pair()
        rng = spawn_rng(77, 0)
        for _ in range(300):
            wr = int(rng.integers(1, 6))
            floor = bare_minimum(wr, self.COUNTERS, self.EM)
            ledger = EnergyLedger(floor + float(rng.uniform(0.0, 500.0)))
            raw = float(rng.uniform(-0.5, 1.5))
            c_idx = int(rng.integers(0, 2))
            action, _ = resolve_action(pair, raw, c_idx, ledger, wr, self.COUNTERS, self.EM)
            counter = next(c for c in self.COUNTERS if c.counter_id == action.counter_id)
            ledger.charge(window_energy(action.n_frames, counter, self.EM))
            assert ledger.remaining_j >= bare_minimum(wr - 1, self.COUNTERS, self.EM) - 1e-9

    @pytest.mark.parametrize("window_frames", [30, 95, 120, 301])
    def test_clamped_frames_stay_on_the_grid(self, window_frames):
        em = EnergyModel(0.7, e_wake_capture=1.5, e_wake_process=2.25)
        counters = (CounterModel("a", 0.35), CounterModel("b", 3.1))
        pair = AgentPair(1000.0, ("a", "b"), window_frames, 1.0, 1.0, seed=9)
        grid = set(default_grid(window_frames).tolist())
        rng = spawn_rng(78, window_frames)
        clamped_seen = 0
        for _ in range(400):
            wr = int(rng.integers(1, 6))
            floor = bare_minimum(wr, counters, em)
            ledger = EnergyLedger(floor + float(rng.uniform(0.0, 2.0)) ** 3 * 400.0)
            raw = float(rng.uniform(-0.5, 1.5))
            action, clamped = resolve_action(pair, raw, int(rng.integers(0, 2)), ledger, wr,
                                             counters, em)
            clamped_seen += clamped
            assert action.n_frames in grid
        assert window_frames == 30 or clamped_seen > 0

    @settings(max_examples=100, deadline=None)
    @given(
        window_frames=st.integers(30, 400),
        per_frame=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=3),
        capture=st.floats(0.0, 2.0),
        wake=st.floats(0.0, 20.0),
        extra_j=st.floats(0.0, 1e5),
        steps=st.lists(
            st.tuples(st.floats(allow_nan=False), st.integers(0, 2)), min_size=1, max_size=8
        ),
    )
    def test_backstop_property(self, window_frames, per_frame, capture, wake, extra_j, steps):
        # whatever the policies output, a horizon driven through the backstop
        # never overdraws its ledger and only ever samples grid frame counts
        counters = tuple(CounterModel(f"c{i}", e) for i, e in enumerate(per_frame))
        em = EnergyModel(capture, e_wake_process=wake)
        pair = AgentPair(1.0, [c.counter_id for c in counters], window_frames, 1.0, 1.0, seed=9)
        grid = set(default_grid(window_frames).tolist())
        by_id = {c.counter_id: c for c in counters}
        ledger = EnergyLedger(bare_minimum(len(steps), counters, em) + extra_j)
        for t, (raw, c_idx) in enumerate(steps):
            action, _ = resolve_action(pair, raw, c_idx % len(counters), ledger,
                                       len(steps) - t, counters, em)
            assert action.n_frames in grid
            ledger.charge(window_energy(action.n_frames, by_id[action.counter_id], em))

    @settings(max_examples=300, deadline=None)
    @given(
        window_frames=st.integers(30, 400),
        per_frame=st.lists(st.floats(0.01, 10.0), min_size=1, max_size=3),
        capture=st.floats(0.0, 2.0),
        wake=st.floats(0.0, 20.0),
        windows_remaining=st.integers(1, 10),
        extra_j=st.floats(-50.0, 1e4),
        raw=st.floats(allow_nan=False),
        c_idx=st.integers(0, 2),
    )
    def test_same_result_as_the_per_call_form(
        self, window_frames, per_frame, capture, wake, windows_remaining, extra_j, raw, c_idx
    ):
        # resolve_action works from constants built once per counter set;
        # _resolve_per_call rebuilds them on every call, as resolve_action did
        counters = tuple(CounterModel(f"c{i}", e) for i, e in enumerate(per_frame))
        em = EnergyModel(capture, e_wake_process=wake)
        pair = AgentPair(1.0, [c.counter_id for c in counters], window_frames, 1.0, 1.0, seed=9)
        budget = max(bare_minimum(windows_remaining, counters, em) + extra_j, 0.0)
        c_idx %= len(counters)
        args = (pair, raw, c_idx, EnergyLedger(budget), windows_remaining, counters, em)
        assert resolve_action(*args) == _resolve_per_call(*args)  # neither charges the ledger

    def test_act_is_deterministic(self, world):
        _, counters, em, _, data = world
        pair = fresh_pair(data)
        obs = np.zeros(10)
        ledger = EnergyLedger(data.budget_j)
        first = act(pair, obs, ledger, 8, counters, em)
        second = act(pair, obs, ledger, 8, counters, em)
        assert first == second
        assert first.n_frames >= 30


def fd_gradient(f, x0, eps=1e-6):
    g = np.zeros_like(x0)
    for i in range(x0.size):
        up = x0.copy()
        up[i] += eps
        dn = x0.copy()
        dn[i] -= eps
        g[i] = (f(up) - f(dn)) / (2 * eps)
    return g


def max_rel(a, b):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.abs(a - b).max() / 1.0) if a.size == 0 else float((np.abs(a - b) / scale).max())


class TestLossGradients:
    def test_gaussian_policy_matches_fd(self):
        actor = Mlp([4, 6, 1], spawn_rng(40, 0))
        rng = spawn_rng(40, 1)
        obs = rng.normal(size=(5, 4))
        raw = rng.normal(size=5)
        adv = rng.normal(size=5)
        coef = 0.01
        log_std0 = -0.7

        _, analytic = gaussian_policy_loss_grads(actor, log_std0, obs, raw, adv, coef)

        def loss(vec):
            actor.set_flat(vec[:-1])
            value, _ = gaussian_policy_loss_grads(actor, float(vec[-1]), obs, raw, adv, coef)
            return value

        x0 = np.concatenate([actor.get_flat(), [log_std0]])
        numeric = fd_gradient(loss, x0)
        actor.set_flat(x0[:-1])
        assert max_rel(analytic, numeric) < 1e-5

    def test_categorical_policy_matches_fd(self):
        actor = Mlp([4, 6, 3], spawn_rng(41, 0))
        rng = spawn_rng(41, 1)
        obs = rng.normal(size=(6, 4))
        idx = rng.integers(0, 3, size=6)
        adv = rng.normal(size=6)
        coef = 0.01

        _, analytic = categorical_policy_loss_grads(actor, obs, idx, adv, coef)

        def loss(vec):
            actor.set_flat(vec)
            value, _ = categorical_policy_loss_grads(actor, obs, idx, adv, coef)
            return value

        numeric = fd_gradient(loss, actor.get_flat().copy())
        assert max_rel(analytic, numeric) < 1e-5

    def test_value_loss_matches_fd(self):
        critic = Mlp([4, 6, 1], spawn_rng(42, 0))
        rng = spawn_rng(42, 1)
        obs = rng.normal(size=(5, 4))
        targets = rng.normal(size=5)

        _, analytic = value_loss_grads(critic, obs, targets)

        def loss(vec):
            critic.set_flat(vec)
            value, _ = value_loss_grads(critic, obs, targets)
            return value

        numeric = fd_gradient(loss, critic.get_flat().copy())
        assert max_rel(analytic, numeric) < 1e-5

    def test_entropy_bonus_pushes_log_std_up(self):
        # zero advantages: the only log_std force left is the entropy term
        actor = Mlp([4, 6, 1], spawn_rng(43, 0))
        obs = spawn_rng(43, 1).normal(size=(5, 4))
        _, grad = gaussian_policy_loss_grads(actor, -1.0, obs, np.zeros(5), np.zeros(5), 0.01)
        assert grad[-1] == pytest.approx(-0.01 * 5)


class TestTrainingData:
    def test_plans_cover_horizons_and_respect_budget(self, world):
        *_, data = world
        assert len(data.horizons) == 3
        for plan in data.plans:
            assert len(plan.actions) == SPEC.horizon_windows
            assert plan.spent_j <= data.budget_j

    def test_preparation_is_deterministic(self, world):
        trace, counters, em, profiles, data = world
        again = prepare_training_data(
            trace, [0, 1, 2], budget_j=120.0, counters=counters, em=em,
            profiles=profiles, spec=SPEC, seed=11,
        )
        assert again.plans == data.plans
        assert again.mean_scale == data.mean_scale

    def test_plans_label_fronts_of_the_training_seed_tags(self, world):
        # each horizon's fronts observe the counter of rank i in id order
        # (here, list order) with derive_seed(seed, 30, h, i)
        trace, counters, em, profiles, data = world
        for h, plan in zip([0, 1, 2], data.plans):
            seeds = {c.counter_id: derive_seed(11, 30, h, i) for i, c in enumerate(counters)}
            fronts = horizon_fronts(trace.horizon_slice(h, SPEC), counters, em, profiles, SPEC,
                                    seeds)
            assert plan_horizon(fronts, data.budget_j) == plan

    def test_misaligned_labels_rejected(self, world):
        *_, data = world
        with pytest.raises(ValueError, match="must align"):
            TrainingData(
                budget_j=data.budget_j, horizons=data.horizons, plans=data.plans[:2],
                counters=data.counters, em=data.em, spec=data.spec,
                mean_scale=data.mean_scale, std_scale=data.std_scale,
            )

    def test_needs_three_horizons(self, world):
        *_, data = world
        with pytest.raises(ValueError, match="at least 3"):
            TrainingData(
                budget_j=data.budget_j, horizons=data.horizons[:2], plans=data.plans[:2],
                counters=data.counters, em=data.em, spec=data.spec,
                mean_scale=data.mean_scale, std_scale=data.std_scale,
            )

    def test_normalization_scales_hand_case(self):
        trace = CountTrace("flat", np.full(960, 3, dtype=np.int64))
        mean_scale, std_scale = normalization_scales(trace, [0], SPEC)
        assert mean_scale == 3.0
        assert std_scale == 1e-6  # degenerate stds floor at epsilon


def _searchsorted_draw(probs, u):
    return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1))


class TestCategoricalDraw:
    """The running-sum draw picks what searchsorted over np.cumsum picked."""

    PROBS = (
        np.array([0.3, 0.7]),
        np.array([0.1, 0.2, 0.3, 0.4]),
        np.array([1.0, 0.0]),
        np.array([0.0, 1.0]),
        np.array([0.5, 0.25, 0.125, 0.0625]),  # sums short of 1
        softmax(np.array([0.5, -1.0, 2.0])),
        np.array([np.nan, np.nan]),
        np.array([0.3, np.nan]),
    )

    @pytest.mark.parametrize("probs", PROBS, ids=range(len(PROBS)))
    def test_on_and_beside_every_cumulative_boundary(self, probs):
        us = [0.0, 0.5, float(np.nextafter(1.0, 0.0))]
        for c in np.cumsum(probs).tolist():
            us += [c, float(np.nextafter(c, 0.0)), float(np.nextafter(c, 2.0))]
        for u in filter(np.isfinite, us):  # u is a uniform draw, never NaN
            assert _categorical_draw(probs, u) == _searchsorted_draw(probs, u), u

    @settings(max_examples=300, deadline=None)
    @given(
        logits=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=6),
        u=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_property(self, logits, u):
        probs = softmax(np.array(logits))
        assert _categorical_draw(probs, u) == _searchsorted_draw(probs, u)


class TestTraining:
    def test_two_runs_identical(self, world):
        *_, data = world
        cfg = TrainConfig(episodes=6)
        pair_a = fresh_pair(data)
        log_a = a2c_train(data, pair_a, cfg, seed=99)
        pair_b = fresh_pair(data)
        log_b = a2c_train(data, pair_b, cfg, seed=99)
        assert log_a == log_b
        assert np.array_equal(pair_a.reg_actor.get_flat(), pair_b.reg_actor.get_flat())
        assert np.array_equal(pair_a.cls_actor.get_flat(), pair_b.cls_actor.get_flat())
        assert pair_a.reg_log_std == pair_b.reg_log_std

    def test_run_pinned_to_recorded_digests(self, world, tmp_path):
        # recorded from the per-step draw loop before the episode draws were
        # batched; batching must not move a single draw
        *_, data = world
        pair = fresh_pair(data)
        rows = a2c_train(data, pair, TrainConfig(episodes=3), seed=99)
        save_training_log(rows, tmp_path / "log.csv")
        save_agent_pair(pair, tmp_path / "pair.json")
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("log.csv", "pair.json")
        }
        assert digests == {
            "log.csv": "7a476d3b9db73bb7104b9b712d556c5e6dac30e5aef468410a434e45fa642f16",
            "pair.json": "b1f82ca2586adf2867a8068e40e635ddb71d37b5e63ea6a5c6869fe39f645b94",
        }

    def test_noise_paths_run_pinned_to_recorded_digests(self, noise_paths_world, tmp_path):
        # recorded from the executor that observed each step's picked frames
        # alone; offset noise, the miss floor's binomial and the sparse path
        # must each give the same counts from a horizon-wide observation
        data = noise_paths_world
        pair = fresh_pair(data)
        rows = a2c_train(data, pair, TrainConfig(episodes=6), seed=99)
        save_training_log(rows, tmp_path / "log.csv")
        save_agent_pair(pair, tmp_path / "pair.json")
        digests = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("log.csv", "pair.json")
        }
        assert digests == {
            "log.csv": "1b0e7b97e5e973d45183bf6d3b44b24da7cd537ebd58cea8b9afb0cca32e43fa",
            "pair.json": "af5d65d396d5c9ac0d3d24f22b7d279a531e7f98660e08d2c50768bc306bc730",
        }

    def test_one_observation_per_counter_per_episode(self, noise_paths_world, monkeypatch):
        # a step takes its window's picked frames from its counter's
        # horizon-wide observation, so an episode draws each counter once
        data = noise_paths_world
        original = counters_module.observe_counts
        calls = []

        def counted(truth_counts, frame_indices, model, seed):
            calls.append((model.counter_id, seed))
            return original(truth_counts, frame_indices, model, seed)

        for module in (agents_module, fronts_module, counters_module):
            monkeypatch.setattr(module, "observe_counts", counted)
        episodes = 6
        a2c_train(data, fresh_pair(data), TrainConfig(episodes=episodes), seed=99)
        # each episode keys its counters' noise by seeds of its own
        assert calls
        assert len(set(calls)) == len(calls) <= episodes * len(data.counters)

    def test_window_length_must_match_the_data(self, world):
        *_, data = world
        pair = AgentPair(data.budget_j, ("cheap", "gold"), 60, 1.0, 1.0, seed=1)
        with pytest.raises(ValueError, match="disagree on the window length"):
            a2c_train(data, pair, TrainConfig(episodes=1), seed=3)

    @pytest.mark.parametrize("counter_ids", [("cheap", "gold", "extra"), ("cheap",)])
    def test_counter_set_must_match_the_data(self, world, counter_ids):
        *_, data = world
        pair = AgentPair(data.budget_j, counter_ids, 120, 1.0, 1.0, seed=1)
        before = pair.reg_actor.get_flat().copy()
        with pytest.raises(ValueError, match="trained on a different counter set"):
            a2c_train(data, pair, TrainConfig(episodes=1), seed=3)
        assert np.array_equal(pair.reg_actor.get_flat(), before)  # raised before any update

    def test_log_rows_shape(self, world):
        *_, data = world
        pair = fresh_pair(data)
        rows = a2c_train(data, pair, TrainConfig(episodes=5), seed=3)
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
        for _, r_reg, r_cls, entropy in rows:
            assert r_reg <= 0.0  # distance reward is never positive
            assert 0.0 <= r_cls <= 1.0
            assert np.isfinite(entropy)

    def test_rewards_improve_with_training(self, world):
        *_, data = world
        pair = fresh_pair(data, seed=302)
        rows = a2c_train(data, pair, TrainConfig(episodes=300), seed=17)
        reg = np.array([r[1] for r in rows])
        cls = np.array([r[2] for r in rows])
        assert cls[-50:].mean() > cls[:50].mean() + 0.1
        assert reg[-50:].mean() >= reg[:50].mean()

    def test_training_log_round_trip(self, world, tmp_path):
        *_, data = world
        pair = fresh_pair(data)
        rows = a2c_train(data, pair, TrainConfig(episodes=3), seed=2)
        path = tmp_path / "log.csv"
        save_training_log(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "episode,mean_reward_reg,mean_reward_cls,entropy"
        assert len(lines) == 4
        episode, r_reg, *_ = lines[1].split(",")
        assert episode == "0"
        assert float(r_reg) == rows[0][1]


class TestCheckpoints:
    def test_round_trip_exact(self, world, tmp_path):
        *_, data = world
        pair = fresh_pair(data, seed=55)
        a2c_train(data, pair, TrainConfig(episodes=2), seed=1)
        path = tmp_path / "pair.json"
        save_agent_pair(pair, path)
        loaded = load_agent_pair(path)
        assert loaded.budget_level_j == pair.budget_level_j
        assert loaded.counter_ids == pair.counter_ids
        assert loaded.window_frames == pair.window_frames
        assert loaded.norm_mean_scale == pair.norm_mean_scale
        assert loaded.reg_log_std == pair.reg_log_std
        for name in ("reg_actor", "reg_critic", "cls_actor", "cls_critic"):
            assert np.array_equal(getattr(loaded, name).get_flat(), getattr(pair, name).get_flat())

    def test_version_guard(self, world, tmp_path):
        *_, data = world
        pair = fresh_pair(data)
        path = tmp_path / "pair.json"
        save_agent_pair(pair, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported checkpoint version"):
            load_agent_pair(path)
