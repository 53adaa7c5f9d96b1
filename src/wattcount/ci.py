"""Confidence intervals that fuse sampling error with counter error.

The estimate of a window's mean count starts from sample statistics of the
observed counts on sampled frames. Sampling uncertainty follows a Student-t
pivot, whose exact standard error is :func:`sigma_mu_x`'s textbook form;
counter uncertainty comes from an empirical error profile, applied as a ratio
above the profile threshold and as an offset below it. Two interval
constructions are provided: a Monte Carlo reference that resamples both error
sources, and a fast normal approximation used everywhere else. The
approximation has two forms: :func:`approx_ci` scores one window at one
sample size, and :func:`window_sum_intervals` scores many windows and sample
sizes in one array pass on the window-sum scale, each window under its own
profile, with the bits :func:`approx_ci` and :func:`mean_to_sum` give one
entry at a time; both take the center and the variance from the same two
formulas, fed the same profile terms, and both square by IEEE multiply,
which is correctly rounded, so they agree bit for bit.
:func:`sigma_mu_x` also keeps a legacy closed form, for comparison only; no
interval uses it. :func:`z_score` is the one-element case of
:func:`wattcount._rng.ndtri`, the package's port of Cephes ndtri, so no
interval needs scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import ndtri, spawn_rng
from .counters import ErrorProfile, UnprofiledRegimeError


@functools.lru_cache(maxsize=None)
def z_score(alpha: float) -> float:
    """Two-sided standard-normal quantile for confidence level alpha; cached per alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    z = float(ndtri(0.5 + alpha / 2.0))
    if not math.isfinite(z):  # 0.5 + alpha / 2 rounds to 1 for the largest float below 1
        raise ValueError(f"alpha {alpha!r} is too close to 1: its normal quantile is infinite")
    return z


@dataclass(frozen=True)
class SampleStats:
    """Mean, sample std (n-1 convention), and size of observed frame counts."""

    mean: float
    std: float
    n: int

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("need n >= 4 samples")
        if self.std < 0:
            raise ValueError("std must be non-negative")


@dataclass(frozen=True)
class ConfidenceInterval:
    center: float
    half_width: float
    alpha: float
    branch: str  # "ratio" or "offset"; "unknown" when read back from a results CSV

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be non-negative")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")

    def covers(self, value: float) -> bool:
        return abs(value - self.center) <= self.half_width


def sample_stats(observed) -> SampleStats:
    x = np.asarray(observed, dtype=np.float64)
    n = x.size
    if n < 4:
        raise ValueError(f"insufficient samples: got {n}, need >= 4")
    mean, std = sample_moments(x)
    return SampleStats(mean=float(mean), std=float(std), n=n)


def sample_moments(x: np.ndarray):
    """Mean and sample std (n-1 convention) along the last axis of a float64 array.

    These are the reductions x.mean(-1) and x.std(-1, ddof=1) run, without
    numpy's wrappers. A 1-D x gives two scalars, a 2-D x one pair per row;
    each row is summed pairwise on its own, so a row's values equal those of
    the same samples passed alone.
    """
    n = x.shape[-1]
    mean = np.add.reduce(x, axis=-1) / n
    d = x - mean[..., None]
    var = np.add.reduce(d * d, axis=-1) / (n - 1)
    return mean, np.sqrt(var)


def sigma_mu_x(s, n, mode: str = "textbook"):
    """Standard deviation of the sampled mean under the chosen closed form.

    textbook is the exact standard deviation of (s/sqrt(n)) times a Student-t
    variable with n-1 degrees of freedom. legacy keeps an alternative closed
    form, s*(n-1)/((n-3)*sqrt(n)), that some earlier tooling used; it exceeds
    textbook by exactly sqrt((n-1)/(n-3)). Every interval uses textbook;
    legacy is kept for comparison and takes an int n only. For textbook, n
    may be an int or an integer array, which gives one value per entry; s
    may be a float or a float array that broadcasts against n (s[:, None]
    gives one row per s).
    """
    if (n.min() if isinstance(n, np.ndarray) else n) < 4:
        raise ValueError("need n >= 4")
    if (s.min() if isinstance(s, np.ndarray) else s) < 0:
        raise ValueError("s must be non-negative")
    if mode == "textbook":
        var = (s * s / n) * (n - 1) / (n - 3)
    elif mode == "legacy":
        if isinstance(n, np.ndarray):  # n * (n - 3)**2 overflows int64 past 2**21
            raise ValueError("the legacy form takes an int n, not an array")
        var = s * s * (n - 1) ** 2 / (n * (n - 3) ** 2)
    else:
        raise ValueError(f"unknown sigma mode {mode!r}; expected one of ('textbook', 'legacy')")
    if isinstance(var, np.ndarray):
        return np.sqrt(var)
    return math.sqrt(var)


def select_branch(mean: float, threshold: float) -> str:
    """"ratio" above the threshold, else "offset"."""
    # the observable sample mean stands in for the unknown true mean
    return "ratio" if mean > threshold else "offset"


def _terms(profile: ErrorProfile) -> tuple:
    """The profile's terms in the interval formulas: m_r, m_o, m_r^2 + s_r^2, m_r^2, s_o^2.

    Each is a Python float, squared by multiply as both interval paths
    square; an array of rows gathers these per profile.
    """
    m_r, s_r, s_o = profile.ratio_mean, profile.ratio_stdev, profile.offset_stdev
    return m_r, profile.offset_mean, m_r * m_r + s_r * s_r, m_r * m_r, s_o * s_o


def _center(mean, terms, branch: str):
    if branch == "ratio":
        return mean * terms[0]
    return mean + terms[1]


def _variance(var_mean, mean_sq, terms, branch: str):
    if branch == "ratio":
        return (var_mean + mean_sq) * terms[2] - mean_sq * terms[3]
    return var_mean + terms[4]


def monte_carlo_ci(
    stats: SampleStats,
    profile: ErrorProfile,
    alpha: float,
    n_sims: int,
    seed: int,
) -> ConfidenceInterval:
    """Reference interval from joint resampling of both error sources.

    Each draw pairs a Student-t sampling deviate with one error sample pulled
    uniformly from the profile's active branch, composes them into a candidate
    true mean, and the half width is the smallest w such that at least
    ceil(alpha * n_sims) draws fall within w of the center.
    """
    if n_sims < 10_000:
        raise ValueError("n_sims must be at least 10000")
    branch = select_branch(stats.mean, profile.threshold)
    profile.require_branch(branch)
    rng = spawn_rng(seed, 2)
    t = rng.standard_t(stats.n - 1, size=n_sims)
    base = stats.mean + (stats.std / math.sqrt(stats.n)) * t
    if branch == "ratio":
        e = profile.ratio_samples[rng.integers(0, profile.ratio_samples.size, size=n_sims)]
        y = base * e
    else:
        e = profile.offset_samples[rng.integers(0, profile.offset_samples.size, size=n_sims)]
        y = base + e
    center = _center(stats.mean, _terms(profile), branch)
    dev = np.abs(y - center)
    k = math.ceil(alpha * n_sims)
    half = float(np.partition(dev, k - 1)[k - 1])
    return ConfidenceInterval(center=center, half_width=half, alpha=alpha, branch=branch)


def approx_ci(stats: SampleStats, profile: ErrorProfile, alpha: float) -> ConfidenceInterval:
    """Normal-approximation interval of one window; :func:`window_sum_intervals` matches it.

    The variance composes the textbook sampled-mean variance with the
    profiled error moments: for the ratio branch (var_mean + xbar^2) *
    (m_r^2 + s_r^2) - xbar^2 * m_r^2, for the offset branch var_mean + s_o^2.
    Width is the z quantile times its root.
    """
    branch = select_branch(stats.mean, profile.threshold)
    profile.require_branch(branch)
    terms = _terms(profile)
    sigma = sigma_mu_x(stats.std, stats.n)
    var = _variance(sigma * sigma, stats.mean * stats.mean, terms, branch)
    half = z_score(alpha) * math.sqrt(max(var, 0.0))  # guard tiny negative from float cancellation
    center = _center(stats.mean, terms, branch)
    return ConfidenceInterval(center=center, half_width=half, alpha=alpha, branch=branch)


def mean_to_sum(ci: ConfidenceInterval, frames_in_window: int) -> ConfidenceInterval:
    """Rescale a per-frame-mean interval to the window-sum scale."""
    if frames_in_window < 1:
        raise ValueError("frames_in_window must be >= 1")
    return ConfidenceInterval(
        center=ci.center * frames_in_window,
        half_width=ci.half_width * frames_in_window,
        alpha=ci.alpha,
        branch=ci.branch,
    )


def window_sum_intervals(
    means, stds, n, profiles: Sequence[ErrorProfile], alpha: float, window_frames: int
):
    """Window-sum intervals of many windows at once: branch, center and half width.

    means and stds are float arrays of one sample mean and std per window,
    and profiles[w] is the error profile window w is scored under; n is an
    integer array of sample sizes, or an int. Returns the branch and the
    window-sum center (center * window_frames) of each window, and the
    window-sum half width (z * sqrt(var) * window_frames) with one row per
    window and one column per n (a single column for an int n). An n of
    shape (W, 1), one sample size per window, gives a single column whose
    entry w is window w at its own n[w, 0]. Every entry has the bits
    ``mean_to_sum(approx_ci(SampleStats(mean, std, n), profile, alpha),
    window_frames)`` gives: each distinct profile's terms are formed once,
    as approx_ci forms them, and gathered per window. The first window in a
    regime its profile has no samples for raises, as approx_ci raises for it,
    with the error's ``row`` set to that window's row.
    """
    if window_frames < 1:
        raise ValueError("window_frames must be >= 1")
    if len(profiles) != len(means):
        raise ValueError(f"need one profile per window, got {len(profiles)} for {len(means)}")
    keys = list(map(id, profiles))
    distinct = dict(zip(keys, profiles))  # each profile once, in order of first use
    slot = dict(zip(distinct, range(len(distinct))))
    rows = np.fromiter(map(slot.__getitem__, keys), np.intp, len(keys))
    threshold, *terms = np.array([(p.threshold, *_terms(p)) for p in distinct.values()]).T[:, rows]
    ratio = means > threshold  # select_branch, one window per entry
    branch = np.where(ratio, "ratio", "offset")
    if not all(p.ratio_usable and p.offset_usable for p in distinct.values()):
        for row, (profile, b) in enumerate(zip(profiles, branch.tolist())):
            try:
                profile.require_branch(b)
            except UnprofiledRegimeError as exc:
                exc.row = row  # the caller knows which window the row is
                raise
    mean_sq = (means * means)[:, None]
    var_mean = sigma_mu_x(stds[:, None], n)
    var_mean *= var_mean
    columns = [t[:, None] for t in terms]
    var = np.where(
        ratio[:, None],
        _variance(var_mean, mean_sq, columns, "ratio"),
        _variance(var_mean, mean_sq, columns, "offset"),
    )
    center = np.where(ratio, _center(means, terms, "ratio"), _center(means, terms, "offset"))
    # guard tiny negative from float cancellation
    half = z_score(alpha) * np.sqrt(np.maximum(var, 0.0)) * window_frames
    return branch, center * window_frames, half
