"""Confidence intervals that fuse sampling error with counter error.

The estimate of a window's mean count starts from sample statistics of the
observed counts on sampled frames. Sampling uncertainty follows a Student-t
pivot, whose exact standard error is :func:`sigma_mu_x`'s textbook form;
counter uncertainty comes from an empirical error profile, applied as a ratio
above the profile threshold and as an offset below it. Two interval
constructions are provided: a Monte Carlo reference that resamples both error
sources, and a fast normal approximation used everywhere else. A converter
turns mean-scale intervals into window-sum intervals. :func:`sigma_mu_x` also
keeps a legacy closed form, for comparison only; no interval uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtri

from ._rng import spawn_rng
from .counters import ErrorProfile


def z_score(alpha: float) -> float:
    """Two-sided standard-normal quantile for confidence level alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return float(ndtri(0.5 + alpha / 2.0))


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
    if x.size < 4:
        raise ValueError(f"insufficient samples: got {x.size}, need >= 4")
    return SampleStats(mean=float(x.mean()), std=float(x.std(ddof=1)), n=int(x.size))


def sigma_mu_x(s: float, n, mode: str = "textbook"):
    """Standard deviation of the sampled mean under the chosen closed form.

    textbook is the exact standard deviation of (s/sqrt(n)) times a Student-t
    variable with n-1 degrees of freedom. legacy keeps an alternative closed
    form, s*(n-1)/((n-3)*sqrt(n)), that some earlier tooling used; it exceeds
    textbook by exactly sqrt((n-1)/(n-3)). Every interval uses textbook;
    legacy is kept for comparison. n may be an int or an integer array,
    which gives one value per entry.
    """
    if (n.min() if isinstance(n, np.ndarray) else n) < 4:
        raise ValueError("need n >= 4")
    if s < 0:
        raise ValueError("s must be non-negative")
    if mode == "textbook":
        var = (s * s / n) * (n - 1) / (n - 3)
    elif mode == "legacy":
        if isinstance(n, np.ndarray):
            # Python ints, as for a scalar n: n * (n - 3)**2 overflows int64 past 2**21
            n = n.astype(object)
        var = s * s * (n - 1) ** 2 / (n * (n - 3) ** 2)
    else:
        raise ValueError(f"unknown sigma mode {mode!r}; expected one of ('textbook', 'legacy')")
    if isinstance(var, np.ndarray):
        return np.sqrt(np.asarray(var, dtype=np.float64))
    return math.sqrt(var)


def _square(x):
    # Python's float ** calls libm pow; numpy's x**2 is x*x, which differs
    # from pow by one ulp on about 0.1% of inputs. Squaring element by element
    # in Python keeps array results bit-identical to the scalar path.
    if isinstance(x, np.ndarray):
        return np.array([v**2 for v in x.tolist()], dtype=np.float64)
    return x**2


def select_branch(mean: float, threshold: float) -> str:
    # the observable sample mean stands in for the unknown true mean
    return "ratio" if mean > threshold else "offset"


def _center(mean: float, profile: ErrorProfile, branch: str) -> float:
    if branch == "ratio":
        return mean * profile.ratio_mean
    return mean + profile.offset_mean


def interval_moments(mean: float, std: float, n, profile: ErrorProfile):
    """Branch, center and variance of the estimated true mean.

    The variance composes the textbook sampled-mean variance with the
    profiled error moments: for the ratio branch (var_mean + xbar^2) *
    (m_r^2 + s_r^2) - xbar^2 * m_r^2, for the offset branch var_mean + s_o^2.
    n may be an int, giving a float variance, or an integer array, giving one
    variance per entry with the same bits the int path gives for that entry.
    """
    branch = select_branch(mean, profile.threshold)
    profile.require_branch(branch)
    var_mean = _square(sigma_mu_x(std, n))
    if branch == "ratio":
        m_r = profile.ratio_mean
        s_r = profile.ratio_stdev
        var = (var_mean + mean**2) * (m_r**2 + s_r**2) - mean**2 * m_r**2
    else:
        var = var_mean + profile.offset_stdev**2
    # guard tiny negative from float cancellation
    var = np.maximum(var, 0.0) if isinstance(var, np.ndarray) else max(var, 0.0)
    return branch, _center(mean, profile, branch), var


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
    center = _center(stats.mean, profile, branch)
    dev = np.abs(y - center)
    k = math.ceil(alpha * n_sims)
    half = float(np.partition(dev, k - 1)[k - 1])
    return ConfidenceInterval(center=center, half_width=half, alpha=alpha, branch=branch)


def approx_ci(stats: SampleStats, profile: ErrorProfile, alpha: float) -> ConfidenceInterval:
    """Normal-approximation interval; the planners' fast path.

    Width is the z quantile times the root of the variance from
    :func:`interval_moments`.
    """
    branch, center, var = interval_moments(stats.mean, stats.std, stats.n, profile)
    half = z_score(alpha) * math.sqrt(var)
    return ConfidenceInterval(center=center, half_width=half, alpha=alpha, branch=branch)


def mean_to_sum(ci: ConfidenceInterval, frames_in_window: int) -> ConfidenceInterval:
    """Rescale a per-frame-mean interval to the window-sum scale."""
    if frames_in_window < 1:
        raise ValueError("frames_in_window must be >= 1")
    return replace(
        ci,
        center=ci.center * frames_in_window,
        half_width=ci.half_width * frames_in_window,
    )
