"""Deterministic randomness helpers.

Two kinds of randomness are used in this package and they have different
reproducibility contracts:

* counter-based draws, where the value for frame index i must be a pure
  function of (seed, stream tag, i) so that evaluating any subset of frames
  in any order gives the same numbers as a full sequential pass;
* ordinary bulk draws (trace synthesis, Monte Carlo, training noise), where
  a seeded generator consumed in a fixed documented order is enough.

The counter-based path hashes 64-bit keys with splitmix64 and converts the
hash to floats, so it is vectorizable and order independent.

Keyed normals invert the standard-normal CDF, through :func:`ndtri`, a numpy
port of the Cephes routine behind ``scipy.special.ndtri`` that gives its
bits, or through scipy's own. Importing ``scipy.special`` costs about as
much as 500k draws through the port, so each process has a port budget
(:func:`set_port_budget`): once ``scipy.special`` is loaded, by any module,
draws go through scipy; until then they go through the port while the
budget lasts, and the call that would exceed it imports scipy. The budget
is 0 unless raised, so library code imports scipy at its first noisy draw;
the command line raises it. The choice changes the cost of a draw, never
its value.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM_SALT = 0xD6E8FEB86659FD93
_INDEX_SALT = 0xA5CB3E2F71A8D209
_BELOW_ONE = np.array(np.nextafter(1.0, 0.0))
# the array-side constants, built once as 0-d arrays: numpy combines those
# with an array faster than it does a numpy scalar, let alone a fresh one
_U_GOLDEN, _U_MIX1, _U_MIX2, _U_INDEX_SALT, _U_11, _U_27, _U_30, _U_31 = (
    np.array(v, dtype=np.uint64) for v in (_GOLDEN, _MIX1, _MIX2, _INDEX_SALT, 11, 27, 30, 31)
)


def _mix_int(x: int) -> int:
    # splitmix64 finalizer on a Python int; the first step reduces it mod
    # 2**64, so callers may pass unreduced sums, products and negatives
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK
    return x ^ (x >> 31)


def _mix(x: np.ndarray) -> np.ndarray:
    # the same finalizer on a uint64 array of ndim >= 1, whose arithmetic
    # wraps mod 2**64 silently (numpy scalars would warn on the overflow);
    # x is overwritten and returned, one scratch array holding each shift
    t = np.empty_like(x)
    x += _U_GOLDEN
    x ^= np.right_shift(x, _U_30, out=t)
    x *= _U_MIX1
    x ^= np.right_shift(x, _U_27, out=t)
    x *= _U_MIX2
    x ^= np.right_shift(x, _U_31, out=t)
    return x


def keyed_uniforms(seed: int, stream: int, indices) -> np.ndarray:
    """Uniform (0, 1) draws keyed by (seed, stream, index), order independent.

    Draws are elementwise in the index, so one call over many indices equals
    one call per index.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    base = _mix_int(int(seed) + int(stream) * _STREAM_SALT)
    x = idx.reshape(-1) * _U_INDEX_SALT
    x ^= np.uint64(base)
    return _unit_floats(_mix(x)).reshape(idx.shape)


def _unit_floats(h: np.ndarray) -> np.ndarray:
    # the top 53 bits of each uint64 hash, shifted into (0, 1) so inverse-CDF
    # transforms stay finite; the top hash alone rounds up to 1.0, so clamp
    # it. h is overwritten; the floats are worked on in place
    h >>= _U_11
    u = h.astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    return np.minimum(u, _BELOW_ONE, out=u)


# normal draws this process may still take through the port before it
# imports scipy.special; process-wide, like the import it stands in for
_port_draws_left = 0


def set_port_budget(draws: int) -> None:
    """Let :func:`keyed_normals` take up to `draws` more normals through the port.

    Draws beyond that import ``scipy.special``. This changes only the cost of
    a draw, never its value.
    """
    global _port_draws_left
    _port_draws_left = int(draws)


def keyed_normals(seed: int, stream: int, indices, mean: float = 0.0, std: float = 0.0) -> np.ndarray:
    """Normal draws keyed like :func:`keyed_uniforms`, via the inverse CDF.

    The quantile comes from scipy or from :func:`ndtri` under the process's
    port budget (see the module docstring); both give the same bits.
    """
    global _port_draws_left
    if std == 0.0:
        return np.full(np.asarray(indices).shape, mean, dtype=np.float64)
    u = keyed_uniforms(seed, stream, indices)
    if "scipy.special" not in sys.modules and u.size <= _port_draws_left:
        _port_draws_left -= u.size
        z = ndtri(u)
    else:
        from scipy.special import ndtri as scipy_ndtri

        z = scipy_ndtri(u, out=u)
    z *= std
    z += mean
    return z


# Cephes ndtri's coefficients, as scipy.special.ndtri uses them, highest power
# first: P0/Q0 for |y - 0.5| <= 0.5 - exp(-2), P1/Q1 for the tail out to
# exp(-32), P2/Q2 beyond; each Q starts with the 1.0 that Cephes leaves
# implied. They are 0-d arrays, as above
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0, _Q0, _P1, _Q1, _P2, _Q2 = (tuple(np.array(c) for c in coef) for coef in (
    (
        -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
        1.39312609387279679503e1, -1.23916583867381258016e0,
    ), (
        1.0,
        1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
        -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
        1.59056225126211695515e1, -1.18331621121330003142e0,
    ), (
        4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
        4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
        -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
    ), (
        1.0,
        1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
        1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
        -3.80806407691578277194e-2, -9.33259480895457427372e-4,
    ), (
        3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
        1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
        3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
    ), (
        1.0,
        6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
        2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
        2.89247864745380683936e-6, 6.79019408009981274425e-9,
    ),
))


def _polevl(x: np.ndarray, coef) -> np.ndarray:
    # Horner's rule in the order of Cephes polevl and p1evl, each multiply
    # and add rounded apart (1.0 * x == x, so an implied 1.0 needs no case)
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _x_p_over_q(x: np.ndarray, p, q) -> np.ndarray:
    # x * P(x) / Q(x), left to right as Cephes writes it
    r = _polevl(x, p)
    r *= x
    r /= _polevl(x, q)
    return r


def _libm_log(x: np.ndarray) -> np.ndarray:
    # Cephes calls the C library's log, which np.log does not always match
    return np.fromiter(map(math.log, x.tolist()), np.float64, x.size)


def ndtri(y) -> np.ndarray:
    """Standard-normal quantile, elementwise: a numpy port of Cephes ndtri.

    It gives scipy.special.ndtri's bits where scipy's build rounds each
    multiply and add of Cephes apart, as the x86-64 manylinux wheels do;
    tests/test_ci.py::TestNdtriPort is the check. 0 maps to -inf, 1 to inf,
    and anything outside [0, 1] or NaN to NaN.
    """
    y = np.asarray(y, dtype=np.float64)
    flat = y.reshape(-1)
    upper = flat > 1.0 - _EXP_M2
    w = np.where(upper, 1.0 - flat, flat)  # exact: flat >= 0.5 there
    out = np.full_like(flat, np.nan)
    centre = w > _EXP_M2
    c = w[centre]
    c -= 0.5
    x = _x_p_over_q(c * c, _P0, _Q0)
    x *= c
    x += c
    x *= _S2PI
    out[centre] = x
    tail = np.flatnonzero(~centre & (w > 0.0))
    if tail.size:
        x = np.sqrt(-2.0 * _libm_log(w[tail]))
        z = 1.0 / x
        far = x >= 8.0  # y < exp(-32)
        x1 = _x_p_over_q(z, _P1, _Q1)
        if far.any():
            x1[far] = _x_p_over_q(z[far], _P2, _Q2)
        x -= _libm_log(x) / x
        x -= x1
        np.negative(x, out=x, where=~upper[tail])
        out[tail] = x
    out[flat == 0.0] = -np.inf
    out[flat == 1.0] = np.inf
    return out.reshape(y.shape)


def spawn_rng(seed: int, *tags: int) -> np.random.Generator:
    """A generator for bulk draws, derived hierarchically from seed and tags."""
    key: Iterable[int] = tuple(int(t) & 0xFFFFFFFFFFFFFFFF for t in tags)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=key))


def derive_seed(seed: int, *tags: int) -> int:
    """A new 64-bit seed that is a pure function of (seed, tags)."""
    h = int(seed) & _MASK
    for t in tags:
        h = _mix_int(h ^ (int(t) * _INDEX_SALT))
    return h
