"""Per-window energy/CI fronts: grids, sampling, envelopes, gradients."""

import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattcount import (
    CountAction,
    CounterModel,
    CountTrace,
    EnergyCIFront,
    EnergyModel,
    ErrorProfile,
    FrontPoint,
    SynthPattern,
    WindowSpec,
    action_outcome,
    build_front,
    cheapest_counter,
    default_grid,
    front_gradient,
    observe_counts,
    profile_errors,
    sample_stats,
    save_front,
    snap_to_grid,
    synth_trace,
    uniform_sample_indices,
    window_energy,
    UnprofiledRegimeError,
    apply_counter,
    window_mean_pairs,
)
from wattcount import fronts as fronts_module
from wattcount.ci import SampleStats, sample_moments
from wattcount.fronts import (
    GRID_STEP,
    MIN_FRAMES,
    execute_windows,
    fronts_from_stats,
    horizon_fronts,
    max_affordable_frames,
    picked_frames,
)
from wattcount.oracle import plan_horizon

EM = EnergyModel(e_capture_per_frame=1.0)
CHEAP = CounterModel("cheap", 2.0, ratio_std=0.3)
EXACT = CounterModel("exact", 8.0)
UNIT_PROFILE = profile_errors([(2.0, 2.0), (3.0, 3.0)], 1.0, min_pairs=1)


def noisy_profile(std, seed=0, mean=1.0):
    rng = np.random.default_rng(seed)
    ratios = np.clip(rng.normal(mean, std, 120), 0.05, None)
    return profile_errors([(2.0 * r, 2.0) for r in ratios], 1.0, min_pairs=1)


class TestGridAndSampling:
    def test_default_grid(self):
        np.testing.assert_array_equal(default_grid(60), [30, 40, 50, 60])
        np.testing.assert_array_equal(default_grid(35), [30])
        with pytest.raises(ValueError):
            default_grid(29)

    def test_snap_to_grid(self):
        assert snap_to_grid(30.0, 600) == 30
        assert snap_to_grid(34.9, 600) == 30
        assert snap_to_grid(35.1, 600) == 40
        assert snap_to_grid(4.0, 600) == 30  # clamps up
        assert snap_to_grid(9999.0, 600) == 600  # clamps down
        assert snap_to_grid(596.0, 600) == 600

    def test_snap_to_grid_clamps_to_the_last_grid_point(self):
        for wf in range(MIN_FRAMES, 2001):
            last = int(default_grid(wf)[-1])
            assert snap_to_grid(1e9, wf) == last, wf
            assert snap_to_grid(float(last), wf) == last, wf
        with pytest.raises(ValueError, match=f"window has 29 frames, need >= {MIN_FRAMES}"):
            snap_to_grid(30.0, 29)

    def test_uniform_indices_basic(self):
        idx = uniform_sample_indices(100, 10)
        assert len(idx) == 10
        assert idx[0] == 0
        assert (np.diff(idx) > 0).all()
        assert idx[-1] < 100

    def test_uniform_indices_gap_bound(self):
        # max gap <= 2 * window/n, the uniform-in-time contract
        rng = np.random.default_rng(12)
        for _ in range(200):
            wf = int(rng.integers(30, 2000))
            n = int(rng.integers(1, wf + 1))
            step = wf / n
            phase = float(rng.uniform(0, step * (1 - 1e-9)))
            idx = uniform_sample_indices(wf, n, phase)
            assert len(idx) == n
            assert idx[0] >= 0 and idx[-1] < wf
            if n > 1:
                assert np.diff(idx).max() <= 2.0 * wf / n

    def test_uniform_indices_full_window(self):
        np.testing.assert_array_equal(uniform_sample_indices(50, 50), np.arange(50))

    def test_phase_validation(self):
        with pytest.raises(ValueError, match="phase"):
            uniform_sample_indices(100, 10, phase=10.0)
        with pytest.raises(ValueError, match="n must be"):
            uniform_sample_indices(100, 0)

    def test_phase_rows_equal_single_phases(self):
        phases = np.array([0.0, 1.25, 3.3, 9.999])
        rows = uniform_sample_indices(100, 10, phases)
        assert rows.shape == (4, 10)
        for row, phase in zip(rows, phases.tolist()):
            np.testing.assert_array_equal(row, uniform_sample_indices(100, 10, phase))

    @pytest.mark.parametrize("n", [0, -1, 101])
    def test_phase_rows_check_n(self, n):
        with pytest.raises(ValueError, match=r"n must be in \[1, window_frames\]"):
            uniform_sample_indices(100, n, np.zeros(3))

    @pytest.mark.parametrize("bad", [-1e-9, 10.0, 12.5, math.nan])
    def test_phase_rows_check_every_phase(self, bad):
        # step is 100 / 10 = 10, so one phase out of [0, 10) fails the batch
        with pytest.raises(ValueError, match=r"phase must lie in \[0, step\)"):
            uniform_sample_indices(100, 10, np.array([0.0, 5.0, bad]))


class TestEnergy:
    @pytest.mark.parametrize("field", ["e_capture_per_frame", "e_wake_per_window"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_energy_rejected(self, field, value):
        kwargs = {"e_capture_per_frame": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EnergyModel(**kwargs)

    def test_window_energy_hand_value(self):
        em = EnergyModel(e_capture_per_frame=1.0)
        assert window_energy(30, CounterModel("c", 2.0), em) == 90.0

    def test_wake_overhead_charged_once_per_window(self):
        em = EnergyModel(e_capture_per_frame=1.0, e_wake_per_window=7.0)
        assert window_energy(30, CounterModel("c", 2.0), em) == 97.0
        assert window_energy(60, CounterModel("c", 2.0), em) == 187.0

    def test_energy_affine_in_n(self):
        em = EnergyModel(e_capture_per_frame=0.5, e_wake_per_window=2.0)
        c = CounterModel("c", 1.5)
        base = window_energy(30, c, em)
        for n in (40, 50, 120):
            assert window_energy(n, c, em) == pytest.approx(base + (n - 30) * 2.0)

    def test_cheapest_counter(self):
        assert cheapest_counter([EXACT, CHEAP]).counter_id == "cheap"
        tie = CounterModel("aaa", 2.0)
        assert cheapest_counter([CHEAP, tie]).counter_id == "aaa"
        with pytest.raises(ValueError):
            cheapest_counter([])

    def test_action_validation(self):
        with pytest.raises(ValueError):
            CountAction("c", 29)


class TestOutcomes:
    def _window(self, lam=4.0, wf=200, seed=3):
        rng = np.random.default_rng(seed)
        return rng.poisson(lam, wf)

    def test_energy_matches_model(self):
        window = self._window()
        point = action_outcome(window, CountAction("cheap", 50), CHEAP, EM, UNIT_PROFILE, 0.95)
        assert point.energy_j == window_energy(50, CHEAP, EM)

    def test_width_shrinks_with_n(self):
        window = self._window()
        widths = [
            action_outcome(window, CountAction("cheap", n), CHEAP, EM, UNIT_PROFILE, 0.95).ci_width
            for n in (30, 60, 120, 200)
        ]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_oversized_action_rejected(self):
        window = self._window(wf=100)
        with pytest.raises(ValueError, match="frames"):
            action_outcome(window, CountAction("cheap", 101), CHEAP, EM, UNIT_PROFILE, 0.95)

    def test_windows_with_different_stats_differ(self):
        rush = self._window(lam=12.0, seed=5)
        midnight = self._window(lam=1.5, seed=6)
        busy = action_outcome(rush, CountAction("cheap", 60), CHEAP, EM, noisy_profile(0.05), 0.95)
        quiet = action_outcome(midnight, CountAction("cheap", 60), CHEAP, EM, noisy_profile(0.05), 0.95)
        assert busy.energy_j == quiet.energy_j
        assert busy.ci_width != quiet.ci_width


class TestBuildFront:
    def _observed(self, seed=3, wf=200):
        rng = np.random.default_rng(seed)
        window = rng.poisson(4.0, wf)
        return {"cheap": window, "exact": window}

    def test_envelope_undominated_brute_force(self):
        observed = self._observed()
        profiles = {"cheap": noisy_profile(0.25, seed=1), "exact": noisy_profile(0.01, seed=2)}
        front = build_front(observed, [CHEAP, EXACT], EM, profiles, 0.95)
        # collect every candidate outcome and check no front point is dominated
        candidates = []
        for counter in (CHEAP, EXACT):
            for n in default_grid(200):
                candidates.append(
                    action_outcome(
                        observed[counter.counter_id],
                        CountAction(counter.counter_id, int(n)),
                        counter, EM, profiles[counter.counter_id], 0.95,
                    )
                )
        for point in front.points:
            dominated = any(
                c.energy_j <= point.energy_j and c.ci_width < point.ci_width
                for c in candidates
            )
            assert not dominated

    def test_envelope_is_minimal_width_per_energy(self):
        observed = self._observed(seed=9)
        profiles = {"cheap": noisy_profile(0.25, seed=1), "exact": noisy_profile(0.01, seed=2)}
        front = build_front(observed, [CHEAP, EXACT], EM, profiles, 0.95)
        energies = front.energies
        widths = front.widths
        assert (np.diff(energies) > 0).all()
        assert (np.diff(widths) < 0).all()

    def test_single_counter_front_is_its_curve_with_dominated_removed(self):
        observed = {"cheap": self._observed()["cheap"]}
        profiles = {"cheap": noisy_profile(0.2, seed=4)}
        front = build_front(observed, [CHEAP], EM, profiles, 0.95)
        assert all(p.action.counter_id == "cheap" for p in front.points)
        assert front.points[0].action.n_frames == 30

    def test_identical_errors_double_cost_counter_excluded(self):
        window = self._observed()["cheap"]
        twin = CounterModel("twin", 4.0, ratio_std=CHEAP.ratio_std)
        profiles = {"cheap": noisy_profile(0.2, seed=4), "twin": noisy_profile(0.2, seed=4)}
        front = build_front(
            {"cheap": window, "twin": window}, [CHEAP, twin], EM, profiles, 0.95
        )
        assert {p.action.counter_id for p in front.points} == {"cheap"}

    def test_crossing_curves_switch_counter(self):
        # noisy-cheap dominates at low energy; exact dominates once its
        # narrower intervals become affordable
        observed = self._observed(seed=11)
        profiles = {"cheap": noisy_profile(0.3, seed=1), "exact": noisy_profile(0.002, seed=2)}
        front = build_front(observed, [CHEAP, EXACT], EM, profiles, 0.95)
        ids = [p.action.counter_id for p in front.points]
        assert ids[0] == "cheap"
        assert "exact" in ids

    def test_first_point_is_cheapest_at_minimum(self):
        observed = self._observed()
        profiles = {"cheap": noisy_profile(0.2, seed=1), "exact": noisy_profile(0.01, seed=2)}
        front = build_front(observed, [CHEAP, EXACT], EM, profiles, 0.95)
        first = front.points[0]
        assert first.action == CountAction("cheap", 30)
        assert first.energy_j == window_energy(30, CHEAP, EM)


def reference_front(observed, counters, em, profiles, alpha, window_index=0):
    """The front from one action_outcome per candidate, sorted and filtered in turn."""
    wf = len(observed[counters[0].counter_id])
    candidates = []
    for counter in counters:
        for n in default_grid(wf).tolist():
            point = action_outcome(
                observed[counter.counter_id], CountAction(counter.counter_id, n), counter, em,
                profiles[counter.counter_id], alpha,
            )
            candidates.append((point.energy_j, point.ci_width, counter.counter_id, n, point))
    candidates.sort(key=lambda t: t[:4])
    kept = []
    best_width = np.inf
    last_energy = -np.inf
    for energy, width, _, _, point in candidates:
        if width < best_width and energy > last_energy:
            kept.append(point)
            best_width = width
            last_energy = energy
    return EnergyCIFront(window_index=window_index, points=tuple(kept))


def both_branch_profile(ratio_std, offset_std, threshold=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return ErrorProfile(
        counter_id="",
        threshold=threshold,
        ratio_samples=np.clip(rng.normal(1.0, ratio_std, 80), 0.05, None),
        offset_samples=rng.normal(0.0, offset_std, 80),
    )


class TestFrontKernelParity:
    """build_front equals the per-candidate reference exactly, float for float."""

    PROFILES = {
        "cheap": both_branch_profile(0.3, 0.4, seed=1),
        "exact": both_branch_profile(0.01, 0.05, seed=2),
    }

    def _assert_parity(self, observed, counters, profiles=None):
        profiles = profiles or self.PROFILES
        got = build_front(observed, counters, EM, profiles, 0.95)
        want = reference_front(observed, counters, EM, profiles, 0.95)
        assert got.points == want.points
        return got

    @pytest.mark.parametrize("lam", [4.0, 0.3])  # ratio branch, offset branch
    def test_branches(self, lam):
        rng = np.random.default_rng(17)
        observed = {"cheap": rng.poisson(lam, 600), "exact": rng.poisson(lam, 600)}
        self._assert_parity(observed, [CHEAP, EXACT])

    def test_all_zero_window(self):
        zeros = np.zeros(300, dtype=np.int64)
        front = self._assert_parity({"cheap": zeros, "exact": zeros}, [CHEAP, EXACT])
        assert front.points[0].action == CountAction("cheap", 30)

    # 30 and 35 frames give one grid point; 125 ends off the grid, 250 on it
    @pytest.mark.parametrize("wf", [30, 35, 125, 250])
    def test_default_grid_windows(self, wf):
        rng = np.random.default_rng(5)
        observed = {"cheap": rng.poisson(3.0, wf), "exact": rng.poisson(3.0, wf)}
        front = self._assert_parity(observed, [CHEAP, EXACT])
        assert set(front.n_frames.tolist()) <= set(default_grid(wf).tolist())

    def test_equal_per_frame_energy(self):
        rng = np.random.default_rng(8)
        window = rng.poisson(5.0, 400)
        twin_a = CounterModel("twin_a", 3.0)
        twin_b = CounterModel("twin_b", 3.0)
        profiles = {"twin_a": both_branch_profile(0.2, 0.3, seed=3),
                    "twin_b": both_branch_profile(0.1, 0.3, seed=4)}
        for counters in ([twin_a, twin_b], [twin_b, twin_a]):
            front = self._assert_parity({"twin_a": window, "twin_b": window}, counters, profiles)
            assert {p.action.counter_id for p in front.points} == {"twin_b"}
        same = {"twin_a": profiles["twin_a"], "twin_b": profiles["twin_a"]}
        for counters in ([twin_a, twin_b], [twin_b, twin_a]):
            front = self._assert_parity({"twin_a": window, "twin_b": window}, counters, same)
            assert {p.action.counter_id for p in front.points} == {"twin_a"}  # id breaks ties

    def test_unprofiled_regime_raises(self):
        busy = np.random.default_rng(2).poisson(4.0, 200)
        idle = np.zeros(200, dtype=np.int64)
        full = both_branch_profile(0.2, 0.3)
        ratio_only = ErrorProfile("cheap", 1.0, full.ratio_samples, np.array([]))
        offset_only = ErrorProfile("cheap", 1.0, np.array([]), full.offset_samples)
        with pytest.raises(UnprofiledRegimeError, match="no offset samples"):
            build_front({"cheap": idle}, [CHEAP], EM, {"cheap": ratio_only}, 0.95)
        with pytest.raises(UnprofiledRegimeError, match="no ratio samples"):
            build_front({"cheap": busy}, [CHEAP], EM, {"cheap": offset_only}, 0.95)
        # the second counter's regime is checked too
        with pytest.raises(UnprofiledRegimeError, match="no ratio samples"):
            build_front({"cheap": busy, "exact": busy}, [CHEAP, EXACT], EM,
                        {"cheap": full, "exact": offset_only}, 0.95)
        build_front({"cheap": busy}, [CHEAP], EM, {"cheap": ratio_only}, 0.95)

    @settings(max_examples=60, deadline=None)
    @given(
        wf=st.integers(30, 400),
        lams=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=3),
        energies=st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.5]), min_size=3, max_size=3),
        ratio_std=st.floats(0.0, 0.5),
        offset_std=st.floats(0.0, 1.0),
        threshold=st.floats(0.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_parity_property(self, wf, lams, energies, ratio_std, offset_std, threshold, seed):
        rng = np.random.default_rng(seed)
        counters = [CounterModel(f"c{i}", energies[i]) for i in range(len(lams))]
        observed = {c.counter_id: rng.poisson(lam, wf) for c, lam in zip(counters, lams)}
        profiles = {
            c.counter_id: both_branch_profile(ratio_std, offset_std, threshold, seed=i)
            for i, c in enumerate(counters)
        }
        self._assert_parity(observed, counters, profiles)


NIGHT_SPEC = WindowSpec(tau_seconds=600, horizon_windows=12, alpha=0.95)
NIGHT_EM = EnergyModel(e_capture_per_frame=0.05)
# 300 cheap frames and 30 golden frames both cost 75.0 J
NIGHT_COUNTERS = (
    CounterModel("cheap", 0.2, ratio_mean=0.85, ratio_std=0.1),
    CounterModel("golden", 2.45),
)
# equal per-frame energy and error model: observed under one seed, twins tie
TWINS = (
    CounterModel("twin_a", 0.7, ratio_mean=0.95, ratio_std=0.03),
    CounterModel("twin_b", 0.7, ratio_mean=0.95, ratio_std=0.03),
)


def observed_windows(horizon, counters, seeds, wf):
    """Each window's observed series per counter, observed one window at a time."""
    out = []
    for w in range(horizon.n_frames // wf):
        frames = np.arange(w * wf, (w + 1) * wf, dtype=np.int64)
        out.append({c.counter_id: observe_counts(horizon.counts[frames], frames, c,
                                                 seeds[c.counter_id])
                    for c in counters})
    return out


class TestHorizonBatchParity:
    """horizon_fronts builds every window at once; each row must equal the
    window built alone, float for float, and fail where window order fails."""

    @pytest.fixture(scope="class")
    def night(self):
        # idle nights and busy days, profiled on the first three days
        trace = synth_trace(SynthPattern(1.0, 1.5, 12), 48, NIGHT_SPEC, seed=7)
        profiles = {}
        for i, c in enumerate(NIGHT_COUNTERS + TWINS[:1]):
            pairs = []
            for h in range(3):
                truth = trace.horizon_slice(h, NIGHT_SPEC)
                pairs += window_mean_pairs(truth, apply_counter(truth, c, 60 + 10 * h + i),
                                           NIGHT_SPEC)
            profiles[c.counter_id] = profile_errors(pairs, 1.0, c.counter_id, min_pairs=36)
        profiles["twin_b"] = replace(profiles["twin_a"], counter_id="twin_b")
        return trace.horizon_slice(3, NIGHT_SPEC), profiles

    def test_every_row_equals_the_reference(self, night):
        horizon, profiles = night
        seeds = {"cheap": 101, "golden": 202}
        wf = NIGHT_SPEC.window_frames(horizon.fps)
        fronts = horizon_fronts(horizon, NIGHT_COUNTERS, NIGHT_EM, profiles, NIGHT_SPEC, seeds)
        observed = observed_windows(horizon, NIGHT_COUNTERS, seeds, wf)
        assert [f.window_index for f in fronts] == list(range(NIGHT_SPEC.horizon_windows))
        for w, (front, obs) in enumerate(zip(fronts, observed)):
            want = reference_front(obs, list(NIGHT_COUNTERS), NIGHT_EM, profiles, 0.95, w)
            assert front.points == want.points, f"window {w}"
            assert front == want and hash(front) == hash(want) and repr(front) == repr(want)
            assert front == build_front(obs, NIGHT_COUNTERS, NIGHT_EM, profiles, 0.95, w)
        # the horizon has both branches and ties in energy won by each counter
        means = [float(obs["cheap"].mean()) for obs in observed]
        assert min(means) <= 1.0 < max(means)
        at_75 = {p.action for f in fronts for p in f.points if p.energy_j == 75.0}
        assert at_75 == {CountAction("cheap", 300), CountAction("golden", 30)}

    @pytest.mark.parametrize("twins_first", [True, False])
    def test_exact_width_ties_keep_the_first_of_each(self, night, twins_first):
        # the twins observe alike under one seed and share a profile, so each
        # of their frame counts ties exactly in energy and width; 100 twin
        # frames cost 75.0 J, as do 300 cheap and 30 golden ones
        horizon, profiles = night
        counters = TWINS + NIGHT_COUNTERS if twins_first else NIGHT_COUNTERS + TWINS
        seeds = {"cheap": 101, "golden": 202, "twin_a": 303, "twin_b": 303}
        wf = NIGHT_SPEC.window_frames(horizon.fps)
        fronts = horizon_fronts(horizon, counters, NIGHT_EM, profiles, NIGHT_SPEC, seeds)
        observed = observed_windows(horizon, counters, seeds, wf)
        for w, (front, obs) in enumerate(zip(fronts, observed)):
            np.testing.assert_array_equal(obs["twin_a"], obs["twin_b"])
            want = reference_front(obs, list(counters), NIGHT_EM, profiles, 0.95, w)
            assert front.points == want.points, f"window {w}"
            assert front == want and hash(front) == hash(want) and repr(front) == repr(want)
        kept = [set(f.counter_ids) for f in fronts]
        assert any("twin_a" in ids for ids in kept)  # the tie reaches the front
        assert not any("twin_b" in ids for ids in kept)  # and the first id wins it

    @pytest.mark.parametrize("busy_first", [True, False])
    @pytest.mark.parametrize("golden_first", [True, False])
    @pytest.mark.parametrize("golden_needs", ["ratio", "offset"])
    def test_unprofiled_regime_fails_at_the_first_window(self, busy_first, golden_first,
                                                         golden_needs):
        # cheap lacks offset samples, so it fails on the first idle window;
        # golden lacks ratio or offset samples
        rng = np.random.default_rng(4)
        busy, idle = rng.poisson(4.0, 600), np.zeros(600, dtype=np.int64)
        pattern = [busy, busy, idle, busy] if busy_first else [idle, idle, busy, idle]
        spec = WindowSpec(tau_seconds=600, horizon_windows=4, alpha=0.95)
        horizon = CountTrace("mixed", np.concatenate(pattern))
        full = both_branch_profile(0.2, 0.3)
        empty = np.array([])
        profiles = {
            "cheap": ErrorProfile("cheap", 1.0, full.ratio_samples, empty),
            "golden": (ErrorProfile("golden", 1.0, empty, full.offset_samples)
                       if golden_needs == "ratio"
                       else ErrorProfile("golden", 1.0, full.ratio_samples, empty)),
        }
        counters = list(NIGHT_COUNTERS[::-1] if golden_first else NIGHT_COUNTERS)
        seeds = {"cheap": 5, "golden": 6}
        expected = None
        for w, obs in enumerate(observed_windows(horizon, counters, seeds, 600)):
            try:
                build_front(obs, counters, NIGHT_EM, profiles, 0.95, w)
            except UnprofiledRegimeError as exc:
                expected = str(exc)
                break
        assert expected is not None
        with pytest.raises(UnprofiledRegimeError) as got:
            horizon_fronts(horizon, counters, NIGHT_EM, profiles, spec, seeds)
        assert str(got.value) == expected


class TestFrontsFromStatsFaults:
    """The two faults the dominance masks cannot rule out, raised for the
    first bad window in window order."""

    PROFILES = {"cheap": both_branch_profile(0.3, 0.4, seed=1),
                "dear": both_branch_profile(0.01, 0.05, seed=2)}
    # 180 frames or more at 1e306 J a frame cost more than a float holds
    DEAR = CounterModel("dear", 1e306)

    def fronts(self, means, stds, counters):
        with np.errstate(over="ignore"):  # the dear counter's window energies overflow
            return fronts_from_stats(
                [np.array(means)] * len(counters), [np.array(stds)] * len(counters), 300,
                counters, EM, self.PROFILES, 0.95, first_window=5,
            )

    def test_nan_stats_keep_no_point(self):
        with pytest.raises(ValueError, match="^front must have at least one point$"):
            self.fronts([4.0, math.nan, 3.0], [2.0, math.nan, 1.5], [CHEAP])
        assert len(self.fronts([4.0, 3.0], [2.0, 1.5], [CHEAP])) == 2

    def test_energy_past_the_float_range(self):
        with np.errstate(over="ignore"):
            assert not np.isfinite(window_energy(300, self.DEAR, EM))
        with pytest.raises(ValueError, match="^front energies and widths must be finite$"):
            self.fronts([4.0, 3.0], [2.0, 1.5], [CHEAP, self.DEAR])

    @pytest.mark.parametrize("nan_window, message", [
        (0, "front must have at least one point"),
        (1, "front energies and widths must be finite"),
    ])
    def test_first_bad_window_decides(self, nan_window, message):
        # every window with finite stats keeps a dear point past the float range
        means, stds = [4.0, 3.0, 5.0], [2.0, 1.5, 2.5]
        means[nan_window] = stds[nan_window] = math.nan
        with pytest.raises(ValueError) as exc:
            self.fronts(means, stds, [CHEAP, self.DEAR])
        assert str(exc.value) == message


@settings(max_examples=100, deadline=None)
@given(
    wf=st.integers(30, 400),
    lams=st.lists(st.floats(0.0, 12.0), min_size=1, max_size=3),
    ratio_std=st.floats(0.0, 0.5),
    offset_std=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_build_front_is_finite_and_strictly_monotone(wf, lams, ratio_std, offset_std, seed):
    rng = np.random.default_rng(seed)
    counters = [CounterModel(f"c{i}", 0.5 + i) for i in range(len(lams))]
    observed = {c.counter_id: rng.poisson(lam, wf) for c, lam in zip(counters, lams)}
    profiles = {c.counter_id: both_branch_profile(ratio_std, offset_std, seed=i)
                for i, c in enumerate(counters)}
    front = build_front(observed, counters, EM, profiles, 0.95)
    assert np.isfinite(front.energies).all() and np.isfinite(front.widths).all()
    assert (np.diff(front.energies) > 0).all() and (np.diff(front.widths) < 0).all()
    assert (front.energies > 0).all() and (front.widths >= 0).all()
    assert set(front.n_frames.tolist()) <= set(default_grid(wf).tolist())
    assert set(front.counter_ids) <= set(observed)


class TestGradient:
    FRONT = EnergyCIFront(
        window_index=0,
        points=(
            FrontPoint(CountAction("c", 30), 100.0, 0.5),
            FrontPoint(CountAction("c", 60), 200.0, 0.3),
            FrontPoint(CountAction("c", 90), 400.0, 0.25),
        ),
    )

    def test_hand_value(self):
        assert front_gradient(self.FRONT, 100.0) == pytest.approx(0.002)

    def test_midpoint_uses_remaining_energy(self):
        # from 150 J the next point costs 50 J more for a 0.2 width drop
        assert front_gradient(self.FRONT, 150.0) == pytest.approx(0.2 / 50.0)

    def test_exhausted_front(self):
        assert front_gradient(self.FRONT, 400.0) == 0.0
        assert front_gradient(self.FRONT, 1000.0) == 0.0

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError, match="below the minimum"):
            front_gradient(self.FRONT, 50.0)

    def test_positive_before_exhaustion(self):
        for e in (100.0, 199.0, 200.0, 399.0):
            assert front_gradient(self.FRONT, e) > 0.0

    def test_front_validation(self):
        with pytest.raises(ValueError, match="strictly improve"):
            EnergyCIFront(
                window_index=0,
                points=(
                    FrontPoint(CountAction("c", 30), 100.0, 0.5),
                    FrontPoint(CountAction("c", 60), 200.0, 0.5),
                ),
            )


class TestDump:
    def test_csv_format(self, tmp_path):
        path = tmp_path / "front.csv"
        save_front(TestGradient.FRONT, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "energy_j,ci_width,counter_id,n_frames"
        assert lines[1] == "100.0,0.5,c,30"
        assert len(lines) == 4

    def test_array_front_writes_the_same_bytes(self, tmp_path):
        front = array_front()
        save_front(front, tmp_path / "arrays.csv")
        save_front(point_twin(front), tmp_path / "points.csv")
        assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "points.csv").read_bytes()


def array_front(window_index=4):
    """A front as fronts_from_stats stores it, on slices of its arrays; no points yet.

    Cheap counts at low energy and exact ones at high energy, so its points
    name both counters.
    """
    window = np.random.default_rng(11).poisson(4.0, 200)
    profiles = {"cheap": noisy_profile(0.3, seed=1), "exact": noisy_profile(0.002, seed=2)}
    return build_front({"cheap": window, "exact": window}, [CHEAP, EXACT], EM, profiles, 0.95,
                       window_index)


def point_twin(front):
    """The same front built by the point constructor from front's points."""
    return EnergyCIFront(front.window_index, front.points)


def points_front(window_index, energies, widths, n_frames, counter_ids):
    """A front from aligned per-point lists, through FrontPoint and the point constructor."""
    return EnergyCIFront(window_index, [
        FrontPoint(CountAction(c, n), e, w)
        for e, w, n, c in zip(energies, widths, n_frames, counter_ids)
    ])


class TestFrontStorage:
    def test_arrays_and_points_agree(self):
        front = array_front()
        assert front._points is None  # no points until they are read
        twin = point_twin(front)
        assert front.points is front.points  # built once, then cached
        assert twin.points is twin.points
        assert set(front.counter_ids) == {"cheap", "exact"}
        for f in (front, twin):
            assert f.energies.dtype == f.widths.dtype == np.float64
            assert f.n_frames.dtype == np.int64 and type(f.counter_ids) is tuple
            for name in ("energies", "widths", "n_frames"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(f, name)[0] = 0
                with pytest.raises(ValueError):
                    getattr(f, name).setflags(write=True)
        assert front == twin and twin == front
        assert front.points == twin.points
        assert hash(front) == hash(twin)
        assert [front.action_at(i) for i in range(front.energies.size)] == [
            p.action for p in twin.points
        ]

    def test_repr_lists_the_points(self):
        front = points_front(4, [7.5], [0.25], [30], ["cheap"])
        want = (
            "EnergyCIFront(window_index=4, points=(FrontPoint(action=CountAction("
            "counter_id='cheap', n_frames=30), energy_j=7.5, ci_width=0.25),))"
        )
        assert repr(front) == want
        assert repr(array_front()) == repr(point_twin(array_front()))

    def test_immutable(self):
        energies = np.array([1.0, 2.0])
        front = EnergyCIFront(0, [
            FrontPoint(CountAction("c", n), e, w)
            for e, w, n in zip(energies, [0.5, 0.25], [30, 40])
        ])
        energies[0] = 1.5  # the front keeps its own copy
        assert front.energies[0] == 1.0
        for name in ("energies", "widths", "n_frames"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(front, name)[0] = 0
        with pytest.raises(FrozenInstanceError):
            front.window_index = 1
        with pytest.raises(FrozenInstanceError):
            front.energies = np.array([3.0, 4.0])
        with pytest.raises(FrozenInstanceError):
            del front.widths

    @pytest.mark.parametrize("change", [
        {"window_index": 1}, {"energies": [100.0, 200.0, 401.0]},
        {"widths": [0.5, 0.3, 0.2]}, {"n_frames": [30, 60, 100]},
        {"counter_ids": ["c", "c", "d"]},
    ])
    def test_any_field_breaks_equality(self, change):
        base = TestGradient.FRONT
        fields = dict(window_index=0, energies=base.energies.tolist(),
                      widths=base.widths.tolist(), n_frames=base.n_frames.tolist(),
                      counter_ids=base.counter_ids)
        other = points_front(**{**fields, **change})
        assert other != base
        assert base != "not a front"

    # FrontPoint and CountAction reject a non-positive energy, a negative
    # width and too few frames; the front checks the rest
    @pytest.mark.parametrize("arrays, message", [
        (([], [], [], []), "at least one point"),
        (([2.0, 1.0], [0.5, 0.4], [30, 40], ["c", "c"]), "strictly improve"),
        (([1.0, math.inf], [0.5, 0.4], [30, 40], ["c", "c"]), "must be finite"),
        (([1.0, math.nan], [0.5, 0.4], [30, 40], ["c", "c"]), "must be finite"),
        (([1.0, 2.0], [math.inf, 0.4], [30, 40], ["c", "c"]), "must be finite"),
        (([0.0, 2.0], [0.5, 0.4], [30, 40], ["c", "c"]), "energy_j must be positive"),
        (([1.0, 2.0], [0.5, -0.1], [30, 40], ["c", "c"]), "ci_width must be non-negative"),
        (([1.0, 2.0], [0.5, 0.4], [29, 40], ["c", "c"]), "n_frames must be >= 30"),
        (([1.0, 1.0], [0.5, 0.4], [30, 40], ["c", "c"]), "strictly improve"),
        (([1.0, 2.0], [0.5, 0.5], [30, 40], ["c", "c"]), "strictly improve"),
    ])
    def test_validation(self, arrays, message):
        with pytest.raises(ValueError, match=message):
            points_front(0, *arrays)

    def test_batch_equals_single_fronts(self):
        # a horizon's fronts are read-only slices of its kept points, and each
        # equals the front its own points build
        spec = WindowSpec(tau_seconds=120, horizon_windows=4)
        horizon = synth_trace(SynthPattern(base_rate=4.0), n_windows=4, spec=spec, seed=3)
        profiles = {"cheap": noisy_profile(0.2, seed=1), "exact": noisy_profile(0.01, seed=2)}
        fronts = horizon_fronts(horizon, [CHEAP, EXACT], EM, profiles, spec,
                                {"cheap": 1, "exact": 2})
        assert [f.window_index for f in fronts] == [0, 1, 2, 3]
        for front in fronts:
            assert front.energies.dtype == front.widths.dtype == np.float64
            assert front.n_frames.dtype == np.int64 and type(front.counter_ids) is tuple
            for name in ("energies", "widths", "n_frames"):
                array = getattr(front, name)
                assert array.base is getattr(fronts[0], name).base
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
                with pytest.raises(ValueError):
                    array.setflags(write=True)
        twins = [point_twin(f) for f in fronts]
        assert fronts == twins
        assert [hash(f) for f in fronts] == [hash(f) for f in twins]
        assert [repr(f) for f in fronts] == [repr(f) for f in twins]

    def test_points_are_built_only_when_read(self, monkeypatch, tmp_path):
        built = []

        class CountingPoint(FrontPoint):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(fronts_module, "FrontPoint", CountingPoint)
        spec = WindowSpec(tau_seconds=120, horizon_windows=4)
        horizon = synth_trace(SynthPattern(base_rate=4.0), n_windows=4, spec=spec, seed=3)
        profiles = {"cheap": noisy_profile(0.2, seed=1), "exact": noisy_profile(0.01, seed=2)}
        fronts = horizon_fronts(horizon, [CHEAP, EXACT], EM, profiles, spec,
                                {"cheap": 1, "exact": 2})
        plan_horizon(fronts, sum(float(f.energies[-1]) for f in fronts) / 2)
        save_front(fronts[0], tmp_path / "front.csv")
        assert built == []
        assert len(fronts[1].points) == len(built) == fronts[1].energies.size

class TestMaxAffordableFrames:
    def test_hand_values(self):
        # CHEAP costs 3 J per frame under EM; no per-window overhead
        assert max_affordable_frames(140.0, CHEAP, EM, 120) == 40  # floor(46.7) snaps down
        assert max_affordable_frames(90.0, CHEAP, EM, 120) == 30
        assert max_affordable_frames(89.9, CHEAP, EM, 120) is None
        assert max_affordable_frames(1e6, CHEAP, EM, 120) == 120

    def test_overhead_is_paid_first(self):
        em = EnergyModel(1.0, e_wake_per_window=10.0)
        assert max_affordable_frames(100.0, CHEAP, em, 120) == 30
        assert max_affordable_frames(99.0, CHEAP, em, 120) is None

    def test_short_window_refused(self):
        # None is kept for a budget too small; a window too short is an error at any budget
        with pytest.raises(ValueError, match="^window has 29 frames, need >= 30$"):
            max_affordable_frames(1e6, CHEAP, EM, MIN_FRAMES - 1)

    @pytest.mark.parametrize("budget_j", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_refused(self, budget_j):
        with pytest.raises(ValueError, match=f"^budget_j must be finite, got {budget_j!r}$"):
            max_affordable_frames(budget_j, CHEAP, EM, 120)

    def test_off_grid_window_caps_at_last_grid_point(self):
        assert default_grid(125)[-1] == 120
        assert max_affordable_frames(1e6, CHEAP, EM, 125) == 120

    @settings(max_examples=200, deadline=None)
    @given(
        allowance=st.floats(0.0, 1e5),
        energy_per_frame=st.floats(0.01, 10.0),
        capture=st.floats(0.0, 5.0),
        wake=st.floats(0.0, 50.0),
        window_frames=st.integers(MIN_FRAMES, 2000),
    )
    def test_largest_affordable_grid_point(self, allowance, energy_per_frame, capture, wake,
                                           window_frames):
        counter = CounterModel("c", energy_per_frame)
        em = EnergyModel(capture, e_wake_per_window=wake)
        grid = default_grid(window_frames)
        tol = 1e-6 * max(1.0, allowance)
        n = max_affordable_frames(allowance, counter, em, window_frames)
        if n is None:
            assert window_energy(MIN_FRAMES, counter, em) > allowance - tol
            return
        assert n in set(grid.tolist())
        assert window_energy(n, counter, em) <= allowance + tol
        nxt = n + GRID_STEP
        assert nxt > grid[-1] or window_energy(nxt, counter, em) > allowance - tol


def _old_uniform_sample_indices(window_frames, n, phase=0.0):
    # the single-phase sampler as it was before phases came in arrays
    if not 1 <= n <= window_frames:
        raise ValueError("n must be in [1, window_frames]")
    step = window_frames / n
    if not 0.0 <= phase < step:
        raise ValueError("phase must lie in [0, step)")
    idx = np.floor(phase + step * np.arange(n)).astype(np.int64)
    return np.minimum(idx, window_frames - 1)


def _old_sample_stats(observed):
    # sample_stats as it was before it shared sample_moments: 1-D reductions
    x = np.asarray(observed, dtype=np.float64)
    n = x.size
    mean = np.add.reduce(x, axis=None) / n
    d = x - mean
    var = np.add.reduce(d * d, axis=None) / (n - 1)
    return SampleStats(mean=float(mean), std=math.sqrt(var), n=n)


def _old_execute_window(truth_horizon, window_index, window_frames, action, counter, phase_u,
                        obs_seed):
    # the per-window executor that execute_windows replaced
    step = window_frames / action.n_frames
    idx = _old_uniform_sample_indices(window_frames, action.n_frames, phase_u * step * (1 - 1e-12))
    frame_idx = window_index * window_frames + idx
    observed = observe_counts(truth_horizon.counts[frame_idx], frame_idx, counter, obs_seed)
    return _old_sample_stats(observed)


class TestExecuteWindow:
    SPEC = WindowSpec(tau_seconds=120, horizon_windows=4)
    BY_ID = {"cheap": CHEAP, "exact": EXACT}
    SEEDS = {"cheap": 55, "exact": 56}

    def horizon(self):
        pattern = SynthPattern(base_rate=4.0)
        return synth_trace(pattern, n_windows=4, spec=self.SPEC, seed=3)

    def test_observes_exactly_the_uniform_sample(self):
        horizon = self.horizon()
        wf = self.SPEC.window_frames(horizon.fps)
        action = CountAction("cheap", 40)
        for t, phase_u in ((0, 0.0), (2, 0.37), (3, 0.999)):
            means, stds = execute_windows(horizon, t, wf, (action,), self.BY_ID, [phase_u],
                                          self.SEEDS)
            step = wf / action.n_frames
            idx = uniform_sample_indices(wf, action.n_frames, phase_u * step * (1 - 1e-12))
            observed = observe_counts(
                horizon.window_slice(t, self.SPEC)[idx], t * wf + idx, CHEAP, 55
            )
            want = sample_stats(observed)
            assert means.dtype == stds.dtype == np.float64
            assert (means.tolist(), stds.tolist()) == ([want.mean], [want.std])

    def test_counter_must_match_action(self):
        with pytest.raises(ValueError, match="action is for 'gold'"):
            execute_windows(self.horizon(), 0, 120, (CountAction("gold", 40),), self.BY_ID,
                            [0.5], self.SEEDS)

    def test_window_index_checked(self):
        with pytest.raises(IndexError, match="out of range"):
            execute_windows(self.horizon(), 4, 120, (CountAction("cheap", 40),), self.BY_ID,
                            [0.5], self.SEEDS)
        with pytest.raises(IndexError, match=r"windows 2\.\.4 out of range"):
            execute_windows(self.horizon(), 2, 120, (CountAction("cheap", 40),) * 3,
                            self.BY_ID, [0.5] * 3, self.SEEDS)

    def test_one_phase_per_action(self):
        with pytest.raises(ValueError, match="one phase per action, got 1 for 2"):
            execute_windows(self.horizon(), 0, 120, (CountAction("cheap", 40),) * 2,
                            self.BY_ID, [0.5], self.SEEDS)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_matches_the_per_window_executor(self, data):
        # n at the pairwise-sum block edges (numpy sums blocks of 8 and
        # recurses past 128) and at the whole window, so the row-wise reduce
        # of sample_moments is held to the 1-D reduce window by window
        wf = data.draw(st.sampled_from([129, 130, 257]), label="wf")
        n_windows = 6
        spec = WindowSpec(tau_seconds=wf, horizon_windows=n_windows)
        horizon = synth_trace(SynthPattern(base_rate=4.0, diurnal_amplitude=3.0,
                                           period_windows=5),
                              n_windows=n_windows, spec=spec,
                              seed=data.draw(st.integers(0, 2**16), label="trace seed"))
        counters = {"cheap": CounterModel("cheap", 2.0, ratio_mean=0.9, ratio_std=0.3,
                                          offset_std=0.4),
                    "lossy": CounterModel("lossy", 3.0, miss_floor=0.2)}
        seeds = {cid: data.draw(st.integers(0, 2**63), label=f"seed {cid}") for cid in counters}
        first = data.draw(st.integers(0, n_windows - 1), label="first window")
        k = data.draw(st.integers(1, n_windows - first), label="run length")
        # n below MIN_FRAMES reaches numpy's short sums; SampleStats still needs n >= 4
        n_choices = st.sampled_from([4, 7, 8, 9, 127, 128, 129, wf])
        actions = [
            _Action(data.draw(st.sampled_from(sorted(counters))), data.draw(n_choices))
            for _ in range(k)
        ]
        phases = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=k,
                                    max_size=k), label="phases")
        means, stds = execute_windows(horizon, first, wf, actions, counters, phases, seeds)
        want = [
            _old_execute_window(horizon, first + j, wf, a, counters[a.counter_id], phases[j],
                                seeds[a.counter_id])
            for j, a in enumerate(actions)
        ]
        assert means.tolist() == [w.mean for w in want]
        assert stds.tolist() == [w.std for w in want]


    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_horizon_observation_matches_a_one_action_run(self, data):
        # training observes a counter over the whole horizon once and takes
        # each window's picked frames from it; every noise path (ratio and
        # offset draws, the miss floor's binomial, the sparse ratio pass of
        # idle windows) must give the one-action executor's bits
        wf = data.draw(st.sampled_from([120, 135]), label="wf")
        n_windows = 6
        spec = WindowSpec(tau_seconds=wf, horizon_windows=n_windows)
        horizon = synth_trace(SynthPattern(base_rate=1.0, diurnal_amplitude=3.0,
                                           period_windows=n_windows),
                              n_windows=n_windows, spec=spec,
                              seed=data.draw(st.integers(0, 2**16), label="trace seed"))
        counter = CounterModel(
            "c", 1.0, ratio_mean=data.draw(st.floats(0.5, 1.5), label="ratio mean"),
            ratio_std=data.draw(st.sampled_from([0.0, 0.3]), label="ratio std"),
            offset_std=data.draw(st.sampled_from([0.0, 0.4]), label="offset std"),
            miss_floor=data.draw(st.sampled_from([0.0, 0.2]), label="miss floor"),
        )
        seed = data.draw(st.integers(0, 2**63), label="seed")
        n = data.draw(st.sampled_from(default_grid(wf).tolist()), label="n")
        phase_u = data.draw(st.floats(0.0, 1.0, exclude_max=True), label="phase")
        t = data.draw(st.integers(0, n_windows - 1), label="window")
        frames = np.arange(n_windows * wf, dtype=np.int64)
        observed = observe_counts(horizon.counts[: frames.size], frames, counter, seed)
        mean, std = sample_moments(observed[picked_frames(t, wf, n, phase_u)].astype(np.float64))
        means, stds = execute_windows(horizon, t, wf, (CountAction("c", n),), {"c": counter},
                                      [phase_u], {"c": seed})
        assert (float(mean), float(std)) == (means[0], stds[0])


class _Action:
    """A count action below MIN_FRAMES, which the executor accepts as given."""

    def __init__(self, counter_id, n_frames):
        self.counter_id = counter_id
        self.n_frames = n_frames
