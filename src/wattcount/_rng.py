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
"""

from __future__ import annotations

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


def keyed_normals(seed: int, stream: int, indices, mean: float = 0.0, std: float = 0.0) -> np.ndarray:
    """Normal draws keyed like :func:`keyed_uniforms`, via the inverse CDF."""
    if std == 0.0:
        return np.full(np.asarray(indices).shape, mean, dtype=np.float64)
    # scipy.special is most of a bare import's time; only bulk draws need it
    from scipy.special import ndtri

    u = keyed_uniforms(seed, stream, indices)
    z = ndtri(u, out=u)
    z *= std
    z += mean
    return z


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
