"""Counter error simulation, profiling, and profile-stability diagnostics."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wattcount import (
    CounterModel,
    ErrorProfile,
    SynthPattern,
    UnprofiledRegimeError,
    WindowSpec,
    apply_counter,
    derive_seed,
    keyed_normals,
    keyed_uniforms,
    load_profile,
    observe_counts,
    profile_errors,
    save_profile,
    synth_trace,
    window_mean_pairs,
)
from wattcount.counters import counter_seeds

GOLDEN = CounterModel("golden", 2.0)


def _trace(n_windows=4, tau=50, rate=4.0, seed=1):
    return synth_trace(SynthPattern(base_rate=rate), n_windows, WindowSpec(tau_seconds=tau), seed=seed)


class TestForwardModel:
    def test_golden_counter_is_identity(self):
        trace = _trace()
        observed = apply_counter(trace, GOLDEN, seed=3)
        np.testing.assert_array_equal(observed.counts, trace.counts)

    def test_pure_ratio_rounding(self):
        # constant truth 5 at ratio 0.8 observes round(4.0) = 4 on every frame
        model = CounterModel("c", 1.0, ratio_mean=0.8)
        truth = np.full(64, 5)
        out = observe_counts(truth, np.arange(64), model, seed=2)
        np.testing.assert_array_equal(out, np.full(64, 4))

    def test_same_seed_identical(self):
        trace = _trace()
        model = CounterModel("c", 1.0, ratio_std=0.2, offset_std=0.5, miss_floor=0.1)
        a = apply_counter(trace, model, seed=5)
        b = apply_counter(trace, model, seed=5)
        c = apply_counter(trace, model, seed=6)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_subset_observation_matches_full_pass(self):
        # observing only sampled frames must reproduce the full trace's values
        trace = _trace()
        model = CounterModel("c", 1.0, ratio_mean=0.9, ratio_std=0.15, miss_floor=0.2)
        full = apply_counter(trace, model, seed=8)
        idx = np.array([0, 3, 11, 60, 199, 3])
        sub = observe_counts(trace.counts[idx], idx, model, seed=8)
        np.testing.assert_array_equal(sub, full.counts[idx])

    def test_outputs_non_negative_integers(self):
        model = CounterModel("c", 1.0, ratio_mean=0.5, offset_std=3.0)
        truth = np.zeros(500, dtype=int)
        out = observe_counts(truth, np.arange(500), model, seed=4)
        assert out.dtype == np.int64
        assert out.min() >= 0

    def test_ratio_moments_large_sample(self):
        model = CounterModel("c", 1.0, ratio_mean=0.85, ratio_std=0.1)
        truth = np.full(200_000, 40)
        out = observe_counts(truth, np.arange(truth.size), model, seed=9)
        # observed/truth per frame ~ Normal(0.85, 0.1) up to rounding
        ratios = out / 40.0
        assert abs(ratios.mean() - 0.85) < 0.002
        assert abs(ratios.std() - 0.1) < 0.002

    def test_miss_floor_thins_counts(self):
        model = CounterModel("c", 1.0, miss_floor=0.25)
        truth = np.full(100_000, 8)
        out = observe_counts(truth, np.arange(truth.size), model, seed=10)
        # kept objects are Binomial(8, 0.75) per frame
        assert abs(out.mean() - 6.0) < 0.02
        assert abs(out.var() - 8 * 0.75 * 0.25) < 0.05

    def test_miss_floor_values_pinned(self):
        # values recorded before scipy.stats moved to a lazy import; the
        # binomial path must keep its exact output
        truth = [0, 1, 2, 5, 9, 13, 40, 3]
        idx = [0, 1, 2, 3, 100, 7, 2**20, 5]
        lossy = CounterModel("lossy", 1.0, ratio_mean=0.9, ratio_std=0.1, offset_std=0.5,
                             miss_floor=0.3)
        assert observe_counts(truth, idx, lossy, seed=12345).tolist() == [0, 0, 3, 2, 5, 7, 18, 4]
        thin = CounterModel("thin", 1.0, miss_floor=0.5)
        assert observe_counts(truth, idx, thin, seed=99).tolist() == [0, 1, 2, 4, 4, 6, 18, 1]

    @settings(max_examples=150, deadline=None)
    @given(
        nonzero=st.lists(st.integers(1, 9), max_size=40),
        n_zero=st.integers(0, 40),
        shuffle=st.integers(0, 2**32),
        first=st.integers(0, 2**40),
        miss_floor=st.sampled_from([0.0, 0.3]),
        offset_std=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**63),
    )
    @example(nonzero=[3, 1, 4, 1], n_zero=4, shuffle=0, first=0, miss_floor=0.0,
             offset_std=0.5, seed=1)  # exactly half the frames empty: the skip
    @example(nonzero=[3, 1, 4, 1], n_zero=3, shuffle=0, first=0, miss_floor=0.0,
             offset_std=0.5, seed=1)  # just under half: every frame draws
    @example(nonzero=[], n_zero=0, shuffle=0, first=0, miss_floor=0.3, offset_std=0.5, seed=1)
    def test_skipping_empty_frames_matches_drawing_every_ratio(
        self, nonzero, n_zero, shuffle, first, miss_floor, offset_std, seed
    ):
        # observe_counts draws ratios only for frames that keep an object when
        # at least half keep none; every frame must still observe what the
        # full draw gives it, bit for bit
        truth = np.random.default_rng(shuffle).permutation(
            np.array(nonzero + [0] * n_zero, dtype=np.int64)
        )
        idx = first + 3 * np.arange(truth.size, dtype=np.int64)
        model = CounterModel("c", 1.0, ratio_mean=0.85, ratio_std=0.2, offset_std=offset_std,
                             miss_floor=miss_floor)
        if miss_floor > 0.0:
            from scipy.stats import binom

            u = keyed_uniforms(seed, 3, idx)
            kept = binom.ppf(u, truth, 1.0 - miss_floor).astype(np.int64)
        else:
            kept = truth
        r = keyed_normals(seed, 1, idx, model.ratio_mean, model.ratio_std)
        a = keyed_normals(seed, 2, idx, 0.0, model.offset_std)
        want = np.rint(np.maximum(0.0, kept * r + a)).astype(np.int64)
        got = observe_counts(truth, idx, model, seed)
        assert got.dtype == np.int64 and got.shape == truth.shape
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "field", ["energy_per_frame_j", "ratio_mean", "ratio_std", "offset_std"]
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, field, value):
        kwargs = {"energy_per_frame_j": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CounterModel("c", **kwargs)

    def test_nan_miss_floor_rejected(self):
        with pytest.raises(ValueError, match="miss_floor"):
            CounterModel("c", 1.0, miss_floor=math.nan)

    def test_empty_counter_id_rejected(self):
        with pytest.raises(ValueError, match="counter_id must be non-empty"):
            CounterModel("", 1.0)

    @pytest.mark.parametrize("counter_id", ["a,b", "a\nb", "a\r", "../x", "a/b"])
    def test_counter_id_unsafe_for_files_rejected(self, counter_id):
        # ids fill a results-CSV column and name profile_<id>.json files
        with pytest.raises(ValueError, match="must not contain"):
            CounterModel(counter_id, 1.0)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            CounterModel("c", 0.0)
        with pytest.raises(ValueError):
            CounterModel("c", 1.0, ratio_mean=0.0)
        with pytest.raises(ValueError):
            CounterModel("c", 1.0, ratio_std=-0.1)
        with pytest.raises(ValueError):
            CounterModel("c", 1.0, miss_floor=1.5)


def test_counter_seeds_follow_the_rank_in_id_order():
    a, b, c = (CounterModel(cid, 1.0) for cid in ("a", "b", "c"))
    want = {cid: derive_seed(9, 40, 2, rank) for rank, cid in enumerate("abc")}
    assert counter_seeds([c, a, b], 9, 40, 2) == counter_seeds([a, b, c], 9, 40, 2) == want
    assert counter_seeds([b], 9) == {"b": derive_seed(9, 0)}


class TestProfiling:
    def test_hand_ratio_pairs(self):
        profile = profile_errors([(2.0, 1.6), (4.0, 3.2)], 1.0, min_pairs=1)
        assert list(profile.ratio_samples) == [1.25, 1.25]
        assert profile.ratio_mean == pytest.approx(1.25)
        assert profile.ratio_stdev == 0.0
        assert not profile.offset_usable

    def test_hand_offset_pair(self):
        profile = profile_errors([(0.2, 0.5)], 1.0, min_pairs=1)
        assert list(profile.offset_samples) == pytest.approx([-0.3])
        assert not profile.ratio_usable

    def test_perfect_counter_degenerate_profile(self):
        pairs = [(float(v), float(v)) for v in (2, 3, 4, 0.5, 0.2)]
        profile = profile_errors(pairs, 1.0, min_pairs=1)
        assert profile.ratio_mean == 1.0 and profile.ratio_stdev == 0.0
        assert profile.offset_mean == 0.0 and profile.offset_stdev == 0.0

    def test_zero_observed_pairs_dropped(self):
        profile = profile_errors([(2.0, 0.0), (3.0, 1.5)], 1.0, min_pairs=1)
        assert profile.dropped_pairs == 1
        assert list(profile.ratio_samples) == [2.0]

    def test_min_pairs_enforced(self):
        pairs = [(2.0, 1.8)] * 29
        with pytest.raises(ValueError, match="insufficient pairs"):
            profile_errors(pairs, 1.0)
        profile_errors(pairs + [(2.0, 1.9)], 1.0)  # 30 pairs pass

    def test_moments_recomputable_from_samples(self):
        rng = np.random.default_rng(0)
        pairs = [(m, m * r) for m, r in zip(rng.uniform(2, 9, 40), rng.normal(0.8, 0.05, 40))]
        profile = profile_errors(pairs, 1.0)
        ratios = np.asarray(profile.ratio_samples)
        assert profile.ratio_mean == pytest.approx(ratios.mean())
        assert profile.ratio_stdev == pytest.approx(ratios.std())

    def test_unprofiled_branch_raises(self):
        profile = profile_errors([(2.0, 1.6)], 1.0, min_pairs=1)
        with pytest.raises(UnprofiledRegimeError, match="unprofiled regime"):
            profile.require_branch("offset")
        profile.require_branch("ratio")

    def test_window_mean_pairs(self):
        spec = WindowSpec(tau_seconds=100)
        truth = _trace(n_windows=3, tau=100, seed=2)
        observed = apply_counter(truth, CounterModel("c", 1.0, ratio_mean=0.8), seed=3)
        pairs = window_mean_pairs(truth, observed, spec)
        assert len(pairs) == 3
        for w, (mu, mu_x) in enumerate(pairs):
            assert mu == pytest.approx(truth.window_slice(w, spec).mean())
            assert mu_x == pytest.approx(observed.window_slice(w, spec).mean())


class TestDiagnostics:
    def test_profile_stability_across_segments(self):
        # same counter on two disjoint long segments of one scene: the ratio
        # histograms over shared bins should overlap strongly (Bhattacharyya
        # coefficient, 1 for identical distributions)
        spec = WindowSpec(tau_seconds=200)
        trace = synth_trace(SynthPattern(base_rate=4.0), 600, spec, seed=6)
        model = CounterModel("c", 1.0, ratio_mean=0.9, ratio_std=0.1)
        observed = apply_counter(trace, model, seed=7)
        pairs = window_mean_pairs(trace, observed, spec)
        a = profile_errors(pairs[:300], 1.0).ratio_samples
        b = profile_errors(pairs[300:], 1.0).ratio_samples
        edges = np.histogram_bin_edges(np.concatenate([a, b]), bins=32)
        p = np.histogram(a, bins=edges)[0] / a.size
        q = np.histogram(b, bins=edges)[0] / b.size
        assert np.sqrt(p * q).sum() >= 0.85


class TestFiles:
    @settings(max_examples=80, deadline=None)
    @given(fault=st.one_of(
        st.tuples(st.just("threshold"), st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
            st.floats(max_value=-1e-300),
        )),
        st.tuples(st.sampled_from(["ratio_samples", "offset_samples"]), st.one_of(
            # one non-finite sample or bool among finite ones, or samples that are bools
            st.tuples(st.lists(st.floats(0.5, 2.0), max_size=3),
                      st.sampled_from([math.nan, math.inf, -math.inf, True, False]))
            .map(lambda t: [*t[0], t[1]]),
            st.lists(st.booleans(), min_size=1, max_size=3),
        )),
        st.tuples(st.just("dropped_pairs"), st.one_of(
            st.booleans(), st.floats(0.1, 1e3).filter(lambda v: not v.is_integer()),
            st.integers(-5, -1),
        )),
    ))
    @example(fault=("ratio_samples", [1.0, True]))
    @example(fault=("offset_samples", [0.0, False]))
    def test_profile_refuses_what_its_loader_refuses(self, tmp_path_factory, fault):
        field, bad = fault
        fields = {"counter_id": "c", "threshold": 0.25, "ratio_samples": [1.0, 1.2],
                  "offset_samples": [-0.1, 0.2], "dropped_pairs": 0, field: bad}
        path = tmp_path_factory.mktemp("profile") / "profile.json"
        path.write_text(json.dumps(fields))  # NaN and Infinity as json writes them
        with pytest.raises(ValueError):
            load_profile(path)
        with pytest.raises(
            ValueError, match="^(threshold|ratio samples|offset samples|dropped_pairs) must be"
        ):
            ErrorProfile(**fields)

    def test_profile_round_trip(self, tmp_path):
        profile = profile_errors(
            [(2.0, 1.6), (4.0, 3.9), (0.5, 0.7), (2.0, 0.0)], 1.0, counter_id="c", min_pairs=1
        )
        path = tmp_path / "profile.json"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded.counter_id == "c"
        assert loaded.threshold == 1.0
        assert loaded.dropped_pairs == 1
        np.testing.assert_allclose(loaded.ratio_samples, profile.ratio_samples)
        np.testing.assert_allclose(loaded.offset_samples, profile.offset_samples)
        assert loaded.ratio_mean == pytest.approx(profile.ratio_mean)
