"""Interval math: sampling stats, sigma modes, Monte Carlo vs approximation.

Intervals use the textbook standard error; sigma_mu_x alone keeps the legacy
closed form, for comparison.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtri

from wattcount import (
    ConfidenceInterval,
    ErrorProfile,
    SampleStats,
    UnprofiledRegimeError,
    approx_ci,
    mean_to_sum,
    monte_carlo_ci,
    profile_errors,
    sample_stats,
    select_branch,
    sigma_mu_x,
    spawn_rng,
    z_score,
)
from wattcount._rng import _EXP_M2, keyed_uniforms
from wattcount._rng import ndtri as port_ndtri
from wattcount.ci import sample_moments, window_sum_intervals


def ratio_profile(samples):
    pairs = [(2.0 * r, 2.0) for r in samples]  # mu/mu_x = r with mu_x=2 > theta
    return profile_errors(pairs, 1.0, min_pairs=1)


def offset_profile(samples):
    pairs = [(0.5 + d, 0.5) for d in samples]  # mu - mu_x = d with mu=0.5+d <= theta
    return profile_errors(pairs, 10.0, min_pairs=1)


UNIT_RATIO = ratio_profile([1.0, 1.0])
ZERO_OFFSET = offset_profile([0.0, 0.0])


class TestSampleStats:
    def test_constant_input(self):
        s = sample_stats([2, 2, 2, 2])
        assert (s.mean, s.std, s.n) == (2.0, 0.0, 4)

    def test_hand_computed(self):
        s = sample_stats([0, 1, 2, 3, 4, 5])
        assert s.mean == 2.5
        assert s.std == pytest.approx(math.sqrt(3.5))  # n-1 divisor
        assert s.n == 6

    def test_too_short(self):
        with pytest.raises(ValueError, match="insufficient samples"):
            sample_stats([1, 2, 3])

    def test_n_floor(self):
        with pytest.raises(ValueError):
            SampleStats(mean=1.0, std=1.0, n=3)

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.int64, st.integers(4, 10_000), elements=st.integers(0, 2**40)))
    def test_same_bits_as_numpy_mean_and_std(self, counts):
        # sample_stats runs the reductions of mean() and std(ddof=1) directly
        x = counts.astype(np.float64)
        s = sample_stats(counts)
        assert s.mean == float(x.mean())
        assert s.std == float(x.std(ddof=1))
        assert s.n == counts.size

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.int64, st.tuples(st.integers(1, 50), st.integers(4, 300)),
                  elements=st.integers(0, 2**20)))
    def test_rows_reduce_as_if_alone(self, counts):
        # the batched executor takes one (mean, std) per row of a 2-D array
        means, stds = sample_moments(counts.astype(np.float64))
        assert [(m, s) for m, s in zip(means.tolist(), stds.tolist())] == [
            (r.mean, r.std) for r in map(sample_stats, counts)
        ]


class TestSigmaModes:
    def test_zero_s(self):
        assert sigma_mu_x(0.0, 30, "textbook") == 0.0
        assert sigma_mu_x(0.0, 30, "legacy") == 0.0

    def test_legacy_closed_form(self):
        assert sigma_mu_x(1.0, 30, "legacy") == pytest.approx(29 / (27 * math.sqrt(30)))

    def test_textbook_closed_form(self):
        assert sigma_mu_x(1.0, 30, "textbook") == pytest.approx(math.sqrt(29 / (30 * 27)))

    def test_textbook_matches_t_draw_std(self):
        # empirical std of (1/sqrt(30)) * T_29 over 1e6 draws
        rng = spawn_rng(100, 9)
        draws = rng.standard_t(29, 10**6) / math.sqrt(30)
        emp = draws.std()
        assert abs(sigma_mu_x(1.0, 30, "textbook") - emp) / emp < 0.005
        # the legacy printed form is visibly off the same oracle
        assert abs(sigma_mu_x(1.0, 30, "legacy") - emp) / emp > 0.02

    def test_mode_ratio_exact(self):
        for n in (4, 5, 10, 30, 60, 120, 500):
            ratio = sigma_mu_x(1.3, n, "legacy") / sigma_mu_x(1.3, n, "textbook")
            assert ratio == pytest.approx(math.sqrt((n - 1) / (n - 3)), rel=1e-12)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="sigma mode"):
            sigma_mu_x(1.0, 30, "bogus")
        with pytest.raises(ValueError, match="unknown sigma mode"):
            sigma_mu_x(1.0, np.array([30, 40]), "bogus")


class TestZScore:
    def test_reference_values(self):
        assert z_score(0.95) == pytest.approx(1.9600, abs=1e-3)
        assert z_score(0.99) == pytest.approx(2.5758, abs=1e-3)

    def test_monotone(self):
        assert z_score(0.99) > z_score(0.95) > z_score(0.5)

    def test_same_bits_as_scipy_over_an_alpha_grid(self):
        alphas = np.concatenate([np.linspace(0.001, 0.999, 999), [1e-12, 0.5, 0.95, 1 - 1e-12]])
        for a in alphas.tolist():
            assert z_score(a) == float(ndtri(0.5 + a / 2.0))

    def test_alpha_outside_the_unit_interval(self):
        # the largest float below 1 puts 0.5 + alpha / 2 at 1, an infinite quantile
        for a in (0.0, 1.0, -0.5, 1.5, math.nan, math.nextafter(1.0, 0.0)):
            with pytest.raises(ValueError, match="alpha"):
                z_score(a)


def same_bits(got, want) -> bool:
    return np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert differ.size == 0, f"{differ.size} differ, first at {differ[:5]}"


# inputs at which one Cephes coefficient of the port, moved by one ulp either
# way, changes the result; found by search. Together with the grids below they
# catch 93 of the 98 one-ulp moves of the 47 coefficients, sqrt(2 pi) and
# exp(-2). The other five (the constant terms of P2 and Q2 either way, Q2's
# linear coefficient down) changed no result on 150 million tail inputs
# searched: the bits they move are rounded away in the sums they enter.
ULP_WITNESSES = (
    1.0167170561881945e-276, 3.292163742150383e-269, 7.765921602198346e-252,
    1.5892119731414785e-16, 3.4299942724690404e-16, 8.267584068384265e-16,
    2.4537030766174136e-15, 3.880958545827201e-15, 1.582940223611296e-14,
    1.6619112334747857e-14, 4.8663340723784686e-14, 1.720791426067437e-11,
    2.8483866337045954e-10, 9.489704704154014e-09, 0.0025168503371824566,
    0.005544862823177876, 0.0780054168227102, 0.11947389957514078, 0.1353352832366127,
    0.13533528323661273, 0.1364440315953014, 0.13950943262085458, 0.14542140133818846,
    0.15324318614322102, 0.8589377424674002,
)


class TestNdtriPort:
    """_rng.ndtri, the one port of Cephes ndtri, against scipy.special.ndtri."""

    @settings(max_examples=2000, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_same_bits_on_the_open_unit_interval(self, y):
        assert same_bits(port_ndtri(y), ndtri(y))

    def test_same_bits_in_both_tails(self):
        lower = np.geomspace(1e-300, _EXP_M2, 20_000)
        upper = 1.0 - np.geomspace(1e-16, _EXP_M2, 20_000)
        y = np.concatenate([lower, upper, [5e-324, 2.2e-308, np.nextafter(1.0, 0.0)]])
        assert_same_bits(port_ndtri(y), ndtri(y))

    def test_same_bits_across_the_centre(self):
        y = np.linspace(_EXP_M2, 1.0 - _EXP_M2, 20_001)
        assert_same_bits(port_ndtri(y), ndtri(y))

    def test_same_bits_where_a_one_ulp_coefficient_change_shows(self):
        y = np.array(ULP_WITNESSES)
        for ys in (y, 1.0 - y):
            assert_same_bits(port_ndtri(ys), ndtri(ys))
            for one in ys.tolist():  # alone too: the port splits arrays by branch
                assert same_bits(port_ndtri(one), ndtri(one)), one

    def test_ends_and_outside(self):
        assert port_ndtri(0.0) == -math.inf == ndtri(0.0)
        assert port_ndtri(1.0) == math.inf == ndtri(1.0)
        outside = [-0.0, -1e-300, -1.0, 1.0 + 2.0**-52, 2.0, math.inf, -math.inf, math.nan]
        for y in outside:
            assert math.isnan(port_ndtri(y)) == math.isnan(ndtri(y)), y
            if not math.isnan(ndtri(y)):
                assert port_ndtri(y) == ndtri(y)
        mixed = np.array([0.0, 0.3, 1.0, *outside, 0.01, 0.99])
        np.testing.assert_array_equal(port_ndtri(mixed), ndtri(mixed))

    def test_same_bits_on_keyed_streams(self):
        # the inputs keyed_normals feeds it: 2.4M keyed uniforms over several
        # seeds and streams, in every index shape keyed draws take
        shapes = [(), (1,), (0,), (3, 0), (7, 5), (600_000,), (400, 500)]
        drawn = 0
        for seed, stream in [(7, 1), (11, 2), (4001, 3), (2**63 + 5, 77)]:
            for shape in shapes:
                idx = np.arange(math.prod(shape), dtype=np.int64).reshape(shape) * 3 + seed % 5
                u = keyed_uniforms(seed, stream, idx)
                z = port_ndtri(u)
                assert z.shape == u.shape == shape
                assert_same_bits(z, ndtri(u))
                drawn += u.size
        assert drawn >= 2_000_000


class TestBranchSelection:
    def test_observable_mean_vs_threshold(self):
        assert select_branch(1.5, 1.0) == "ratio"
        assert select_branch(0.5, 1.0) == "offset"
        assert select_branch(1.0, 1.0) == "offset"  # boundary goes to offset


class TestMonteCarlo:
    def test_two_point_profile_hand_case(self):
        # e' in {0.9, 1.1} and S=0: draws are exactly {9, 11} around center 10
        profile = ratio_profile([0.9, 1.1])
        stats = SampleStats(mean=10.0, std=0.0, n=30)
        ci = monte_carlo_ci(stats, profile, 0.95, 10_000, seed=1)
        assert ci.center == pytest.approx(10.0)
        assert ci.half_width == pytest.approx(1.0)
        assert ci.branch == "ratio"

    def test_degenerate_profile_matches_t_quantile(self):
        # with e'' identically 0 the half-width is the empirical t quantile
        stats = SampleStats(mean=0.5, std=1.0, n=30)
        ci = monte_carlo_ci(stats, ZERO_OFFSET, 0.95, 10**6, seed=2)
        assert ci.center == pytest.approx(0.5)
        assert ci.branch == "offset"
        from scipy.stats import t as t_dist

        expected = t_dist.ppf(0.975, 29) / math.sqrt(30)
        assert ci.half_width == pytest.approx(expected, rel=0.01)

    def test_deterministic(self):
        profile = ratio_profile([0.95, 1.0, 1.08])
        stats = SampleStats(mean=5.0, std=1.0, n=60)
        a = monte_carlo_ci(stats, profile, 0.95, 20_000, seed=3)
        b = monte_carlo_ci(stats, profile, 0.95, 20_000, seed=3)
        c = monte_carlo_ci(stats, profile, 0.95, 20_000, seed=4)
        assert a == b
        assert a.half_width != c.half_width

    def test_minimum_sims_enforced(self):
        stats = SampleStats(mean=5.0, std=1.0, n=30)
        with pytest.raises(ValueError, match="n_sims"):
            monte_carlo_ci(stats, UNIT_RATIO, 0.95, 5000, seed=1)

    def test_unprofiled_branch(self):
        stats = SampleStats(mean=0.2, std=0.1, n=30)  # below theta -> offset
        with pytest.raises(ValueError, match="unprofiled regime"):
            monte_carlo_ci(stats, UNIT_RATIO, 0.95, 10_000, seed=1)


class TestApprox:
    def test_offset_zero_error_hand_value(self):
        stats = SampleStats(mean=0.5, std=1.0, n=30)
        ci = approx_ci(stats, ZERO_OFFSET, 0.95)
        assert ci.center == 0.5
        assert ci.half_width == pytest.approx(1.96 * 0.18922, abs=2e-4)

    def test_ratio_unit_profile_collapses_to_sampling(self):
        stats = SampleStats(mean=5.0, std=1.0, n=30)
        ratio = approx_ci(stats, UNIT_RATIO, 0.95)
        assert ratio.center == pytest.approx(5.0)
        assert ratio.half_width == pytest.approx(z_score(0.95) * sigma_mu_x(1.0, 30))
        assert ratio.branch == "ratio"

    def test_ratio_variance_composition(self):
        # sigma^2 = (sigma_mu_x^2 + xbar^2)(mu_e^2 + sigma_e^2) - xbar^2 mu_e^2
        profile = ratio_profile([1.1, 1.3])
        stats = SampleStats(mean=4.0, std=2.0, n=60)
        smx = sigma_mu_x(2.0, 60)
        var = (smx**2 + 16.0) * (1.2**2 + 0.01) - 16.0 * 1.2**2
        ci = approx_ci(stats, profile, 0.95)
        assert ci.center == pytest.approx(4.0 * 1.2)
        assert ci.half_width == pytest.approx(z_score(0.95) * math.sqrt(var))

    def test_offset_variance_composition(self):
        profile = offset_profile([-0.2, 0.2])
        stats = SampleStats(mean=0.4, std=1.0, n=30)
        var = sigma_mu_x(1.0, 30) ** 2 + 0.2**2
        ci = approx_ci(stats, profile, 0.95)
        assert ci.center == pytest.approx(0.4)  # mu(e'') = 0
        assert ci.half_width == pytest.approx(z_score(0.95) * math.sqrt(var))

    def test_monotone_decreasing_in_n(self):
        profile = ratio_profile([0.9, 1.0, 1.1])
        prev = math.inf
        for n in (4, 6, 10, 30, 100, 400):
            ci = approx_ci(SampleStats(3.0, 1.0, n), profile, 0.95)
            assert ci.half_width < prev
            prev = ci.half_width

    def test_agreement_with_monte_carlo(self):
        # spot check ahead of the full randomized acceptance sweep
        profile = ratio_profile(list(np.random.default_rng(5).normal(1.15, 0.08, 200)))
        stats = SampleStats(mean=6.0, std=2.0, n=60)
        a = approx_ci(stats, profile, 0.95)
        m = monte_carlo_ci(stats, profile, 0.95, 10**6, seed=6)
        assert abs(a.half_width - m.half_width) / m.half_width < 0.05


class TestIntervalMoments:
    """The array path must give the scalar path's bits for every n."""

    def _check(self, profile, means):
        rng = spawn_rng(31, 0)
        grid = np.append(np.arange(4, 2004), [2**21 + 7, 10**7]).astype(np.int64)
        for mean in means:
            std = float(rng.uniform(0.0, 6.0))
            branch, center, half = window_sum_intervals(
                np.array([mean]), np.array([std]), grid, [profile], 0.95, window_frames=1
            )
            for n, h in zip(grid.tolist(), half[0].tolist()):
                want = approx_ci(SampleStats(mean, std, n), profile, 0.95)
                assert (branch[0], center[0], h) == (want.branch, want.center, want.half_width)

    def test_ratio_branch_array_matches_scalar(self):
        profile = ratio_profile([0.8, 1.1, 1.3, 0.95])
        self._check(profile, [1.5, 2.75, 7.0, 19.3])

    def test_offset_branch_array_matches_scalar(self):
        profile = offset_profile([-0.4, 0.1, 0.3, 0.05])
        self._check(profile, [0.0, 0.35, 2.2, 9.9])

    def test_squares_by_multiply_on_both_paths(self):
        # numpy's x*x and libm pow(x, 2) disagree by one ulp on a small share
        # of inputs; both paths square by multiply, so the array path must
        # give the scalar path's bits on those inputs too. The offset stdev
        # is not zero because sqrt(y*y) and sqrt(pow(y, 2)) both round back
        # to y, which would hide the square's last bit
        profile = offset_profile([-0.001, 0.001])
        grid = np.arange(4, 20004, dtype=np.int64)
        stds = np.array([0.3, 1.7, 4.1])
        _, _, half = window_sum_intervals(np.zeros(3), stds, grid, [profile] * 3, 0.95,
                                          window_frames=1)
        expected = [
            [approx_ci(SampleStats(0.0, s, n), profile, 0.95).half_width for n in grid.tolist()]
            for s in stds.tolist()
        ]
        assert half.tolist() == expected
        z = z_score(0.95)
        by_pow = [
            [z * math.sqrt(sigma_mu_x(s, n) ** 2 + profile.offset_stdev**2)
             for n in grid.tolist()]
            for s in stds.tolist()
        ]
        assert by_pow != expected  # the grid holds inputs where pow and multiply differ

    @pytest.mark.parametrize("mode", ["textbook", "legacy"])
    def test_windows_past_int64_products(self, mode):
        # n * (n - 3)**2 no longer fits in int64 once n passes 2**21; the
        # textbook form never forms it, and the legacy form takes an int n
        # only, which Python multiplies exactly
        grid = np.array([2_000_000, 2**21 + 7, 3_000_000, 10**7], dtype=np.int64)
        scalars = [sigma_mu_x(2.5, n, mode) for n in grid.tolist()]
        if mode == "textbook":
            assert sigma_mu_x(2.5, grid).tolist() == scalars
        else:
            textbook = [sigma_mu_x(2.5, n) for n in grid.tolist()]
            ratio = [math.sqrt((n - 1) / (n - 3)) for n in grid.tolist()]
            assert scalars == pytest.approx([t * r for t, r in zip(textbook, ratio)], rel=1e-12)
            with pytest.raises(ValueError, match="legacy form takes an int n"):
                sigma_mu_x(2.5, grid, mode)

    def test_array_n_validated(self):
        with pytest.raises(ValueError, match="n >= 4"):
            window_sum_intervals(np.array([2.0]), np.array([1.0]), np.array([30, 3]),
                                 [UNIT_RATIO], 0.95, window_frames=1)

    def test_approx_ci_uses_the_moments(self):
        # the variance written out as the docstring states it, per branch
        profile = ratio_profile([0.9, 1.2])
        m_r, s_r = profile.ratio_mean, profile.ratio_stdev
        sigma = sigma_mu_x(1.2, 50)
        var_mean = sigma * sigma
        var = (var_mean + 2.5 * 2.5) * (m_r * m_r + s_r * s_r) - 2.5 * 2.5 * (m_r * m_r)
        ci = approx_ci(SampleStats(mean=2.5, std=1.2, n=50), profile, 0.9)
        assert (ci.branch, ci.center, ci.half_width) == (
            "ratio", 2.5 * m_r, z_score(0.9) * math.sqrt(var)
        )
        profile = offset_profile([-0.2, 0.3])
        s_o = profile.offset_stdev
        var = var_mean + s_o * s_o
        ci = approx_ci(SampleStats(mean=0.5, std=1.2, n=50), profile, 0.9)
        assert (ci.branch, ci.center, ci.half_width) == (
            "offset", 0.5 + profile.offset_mean, z_score(0.9) * math.sqrt(var)
        )


class TestWindowSumIntervals:
    PROFILE = ErrorProfile("c", 1.0, np.array([0.8, 1.1, 1.35]), np.array([-0.3, 0.1, 0.45]))

    @settings(max_examples=60, deadline=None)
    @given(
        means=arrays(np.float64, st.integers(1, 12), elements=st.floats(0.0, 40.0)),
        std_scale=st.floats(0.0, 5.0),
        wf=st.integers(30, 400),
        alpha=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
    )
    def test_widths_are_the_fronts_expression(self, means, std_scale, wf, alpha):
        # fronts_from_stats turns the window-sum interval into a width as
        # action_outcome does from approx_ci, entry by entry
        stds = std_scale * np.sqrt(means + 0.5)
        grid = np.arange(30, wf + 1, 10, dtype=np.int64)
        _, center, half = window_sum_intervals(means, stds, grid, [self.PROFILE] * len(means),
                                               alpha, wf)
        got = (half / np.maximum(center, 1.0)[:, None]).tolist()
        for w, (mean, std) in enumerate(zip(means.tolist(), stds.tolist())):
            for k, n in enumerate(grid.tolist()):
                ci = mean_to_sum(approx_ci(SampleStats(mean, std, n), self.PROFILE, alpha), wf)
                assert got[w][k] == ci.half_width / max(ci.center, 1.0)

    def test_each_entry_is_the_scalar_interval(self):
        # means on both sides of the threshold, so both branches; n is a grid
        # shared by every window, or a (W, 1) column of one n per window
        means = np.array([0.0, 0.4, 1.0, 1.0000001, 3.7, 25.0])
        stds = np.array([0.0, 0.9, 1.3, 0.2, 2.6, 6.1])
        grid = np.array([30, 40, 70, 300], dtype=np.int64)
        per_window = np.array([[300], [30], [70], [40], [31], [120]], dtype=np.int64)
        for n_arg, shape in ((grid, (6, 4)), (per_window, (6, 1))):
            branch, center, half = window_sum_intervals(means, stds, n_arg, [self.PROFILE] * 6,
                                                        0.9, 300)
            assert half.shape == shape
            for w, (mean, std) in enumerate(zip(means.tolist(), stds.tolist())):
                ns = grid.tolist() if n_arg is grid else per_window[w].tolist()
                for k, n in enumerate(ns):
                    want = mean_to_sum(approx_ci(SampleStats(mean, std, n), self.PROFILE, 0.9),
                                       300)
                    got = ConfidenceInterval(center[w], half[w, k], 0.9, branch[w])
                    assert got == want

    # three full profiles, and a pool in which two lack a regime
    FULL = (
        PROFILE,
        ErrorProfile("d", 2.5, np.array([0.7, 0.95, 1.2]), np.array([-0.6, 0.2])),
        ErrorProfile("e", 0.0, np.array([1.05, 1.1]), np.array([0.3])),
    )
    PARTIAL = (
        PROFILE,
        ErrorProfile("a", 1.0, np.array([]), np.array([0.1, -0.2])),
        ErrorProfile("b", 1.0, np.array([1.0, 1.2]), np.array([])),
    )

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.floats(0.0, 40.0), st.sampled_from([0.0, 1.0, 2.5])),  # mean
                st.floats(0.0, 8.0),  # std
                st.integers(0, 2),  # the row's profile
                st.integers(30, 400),  # the row's own n
            ),
            min_size=2, max_size=12,
        ),
        per_window=st.booleans(),
        unprofiled=st.booleans(),
        alpha=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
    )
    def test_rows_mixing_profiles_are_each_rows_scalar_interval(
        self, rows, per_window, unprofiled, alpha
    ):
        # both branches (means on either side of, and at, each threshold),
        # a grid shared by every row or a (W, 1) column of one n per row;
        # each entry is its row scored alone, and with rows in regimes their
        # profile lacks, the call raises what the lowest such row raises alone
        assume(len({k for _, _, k, _ in rows}) >= 2)
        pool = self.PARTIAL if unprofiled else self.FULL
        means = np.array([m for m, _, _, _ in rows])
        stds = np.array([s for _, s, _, _ in rows])
        profiles = [pool[k] for _, _, k, _ in rows]
        grid = np.array([30, 50, 120, 400], dtype=np.int64)
        n_arg = np.array([[n] for *_, n in rows], dtype=np.int64) if per_window else grid
        row_ns = n_arg.tolist() if per_window else [grid.tolist()] * len(rows)
        want, error = [], None
        for mean, std, profile, ns in zip(means.tolist(), stds.tolist(), profiles, row_ns):
            try:
                cis = [mean_to_sum(approx_ci(SampleStats(mean, std, n), profile, alpha), 400)
                       for n in ns]
            except UnprofiledRegimeError as exc:
                error = error or str(exc)
                continue
            want.append([(ci.branch, ci.center.hex(), ci.half_width.hex()) for ci in cis])
        if error is not None:
            with pytest.raises(UnprofiledRegimeError) as raised:
                window_sum_intervals(means, stds, n_arg, profiles, alpha, 400)
            assert str(raised.value) == error
            return
        branch, center, half = window_sum_intervals(means, stds, n_arg, profiles, alpha, 400)
        assert [
            [(b, c.hex(), h.hex()) for h in hs]
            for b, c, hs in zip(branch.tolist(), center.tolist(), half.tolist())
        ] == want

    def test_int_n_gives_one_column(self):
        means, stds = np.array([0.5, 2.0]), np.array([1.0, 1.5])
        profiles = [self.PROFILE] * 2
        _, center, half = window_sum_intervals(means, stds, 40, profiles, 0.95, 120)
        _, center_a, half_a = window_sum_intervals(means, stds, np.array([40]), profiles, 0.95,
                                                   120)
        assert half.shape == (2, 1)
        assert center.tolist() == center_a.tolist() and half.tolist() == half_a.tolist()

    def test_unprofiled_window_raises(self):
        no_offset = ErrorProfile("c", 1.0, np.array([1.0]), np.array([]))
        with pytest.raises(UnprofiledRegimeError, match="no offset samples"):
            window_sum_intervals(np.array([2.0, 0.5]), np.array([1.0, 1.0]), 30,
                                 [no_offset] * 2, 0.95, 60)

    def test_window_frames_checked(self):
        with pytest.raises(ValueError, match="window_frames must be >= 1"):
            window_sum_intervals(np.array([2.0]), np.array([1.0]), 30, [self.PROFILE], 0.95, 0)

    def test_one_profile_per_window(self):
        # a lone profile would otherwise broadcast over every window
        with pytest.raises(ValueError, match="one profile per window, got 1 for 2"):
            window_sum_intervals(np.array([2.0, 0.5]), np.array([1.0, 1.0]), 30, [self.PROFILE],
                                 0.95, 60)


class TestRequireProfiled:
    """Of the windows in a regime their profile has no samples for, the lowest raises."""

    NO_RATIO = ErrorProfile("a", 1.0, np.array([]), np.array([0.1]))
    NO_OFFSET = ErrorProfile("b", 1.0, np.array([1.0]), np.array([]))

    @pytest.mark.parametrize("windows, message", [
        (None, "'b' has no offset"),  # b's 0.2 shares window 0 with a's 0.5 and follows it
        ([[0, 2], [3, 5]], "'a' has no ratio"),  # a's window 2 comes before b's window 3
        ([[4, 7], [1, 6]], "'b' has no offset"),
    ])
    def test_first_bad_window_decides(self, windows, message):
        # a's means sit at windows[0] and b's at windows[1] (both at 0 and 1
        # when None, a first, as fronts_from_stats lays out its rows); one row
        # per mean, in window order
        means = ([0.5, 3.0], [0.2, 0.4])
        rows = sorted(
            (w, k, m)
            for k, (ws, ms) in enumerate(zip(windows or [[0, 1], [0, 1]], means))
            for w, m in zip(ws, ms)
        )
        profiles = [(self.NO_RATIO, self.NO_OFFSET)[k] for _, k, _ in rows]
        with pytest.raises(UnprofiledRegimeError, match=message):
            window_sum_intervals(np.array([m for _, _, m in rows]), np.ones(len(rows)), 30,
                                 profiles, 0.95, 60)


class TestConversionAndCombination:
    def test_mean_to_sum_worked_example(self):
        ci = ConfidenceInterval(center=0.5, half_width=0.1, alpha=0.95, branch="ratio")
        total = mean_to_sum(ci, 1800)
        assert total.center == 900.0  # exact, not approx
        assert total.half_width == 180.0
        assert total.branch == "ratio"
        assert total.alpha == 0.95

    def test_mean_to_sum_identity_and_linearity(self):
        ci = ConfidenceInterval(center=2.0, half_width=0.0, alpha=0.9, branch="offset")
        assert mean_to_sum(ci, 1) == ci
        assert mean_to_sum(ci, 100).center == 200.0
        rng = np.random.default_rng(8)
        for _ in range(20):
            c, h, f = rng.uniform(0, 10), rng.uniform(0, 3), int(rng.integers(1, 5000))
            out = mean_to_sum(ConfidenceInterval(c, h, 0.95, "ratio"), f)
            assert out.center == c * f and out.half_width == h * f

    def test_covers(self):
        ci = ConfidenceInterval(center=10.0, half_width=2.0, alpha=0.95, branch="ratio")
        assert ci.covers(8.0) and ci.covers(12.0) and ci.covers(10.5)
        assert not ci.covers(12.1)
