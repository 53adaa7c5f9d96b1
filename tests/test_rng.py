"""Determinism contracts of the keyed randomness helpers.

Everything downstream (lazy frame observation, training replay, byte-stable
reruns) leans on these properties, so they get their own checks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import ndtri

from wattcount import derive_seed, keyed_normals, keyed_uniforms, spawn_rng
from wattcount._rng import _unit_floats


# Reference: the numpy-uint64 implementation the keyed draws were first
# written in. The package now mixes the scalar base on Python ints and the
# indices on arrays; every value must stay the same.
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _ref_mix(x):
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) & _U64
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _U64
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _U64
        return x ^ (x >> np.uint64(31))


def _ref_u64(value):
    return np.uint64(int(value) & 0xFFFFFFFFFFFFFFFF)


def _ref_keyed_uniforms(seed, stream, indices):
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        salted = _ref_u64(seed) + _ref_u64(stream) * np.uint64(0xD6E8FEB86659FD93)
        base = _ref_mix(np.asarray(salted))
        h = _ref_mix(base ^ ((idx * np.uint64(0xA5CB3E2F71A8D209)) & _U64))
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


def _ref_derive_seed(seed, *tags):
    h = _ref_u64(seed)
    with np.errstate(over="ignore"):
        for t in tags:
            h = _ref_mix(np.asarray(h ^ (_ref_u64(t) * np.uint64(0xA5CB3E2F71A8D209))))
    return int(h)


_seeds = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 5, -(2**64)]),
)
_indices = st.one_of(
    st.integers(0, 2**63 - 1).map(np.array),  # 0-d
    hnp.arrays(np.uint64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6)),
    st.lists(st.integers(0, 2**40), max_size=8),
)


class TestReferenceParity:
    @settings(max_examples=300, deadline=None)
    @given(seed=_seeds, stream=_seeds, indices=_indices)
    def test_keyed_uniforms_match_reference(self, seed, stream, indices):
        got = keyed_uniforms(seed, stream, indices)
        want = np.asarray(_ref_keyed_uniforms(seed, stream, indices))
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=300, deadline=None)
    @given(seed=_seeds, tags=st.lists(_seeds, max_size=4))
    def test_derive_seed_matches_reference(self, seed, tags):
        assert derive_seed(seed, *tags) == _ref_derive_seed(seed, *tags)

    def test_shapes_kept(self):
        assert keyed_uniforms(1, 2, np.array(5)).shape == ()
        assert keyed_uniforms(1, 2, []).shape == (0,)
        grid = np.arange(12).reshape(3, 4)
        flat = keyed_uniforms(1, 2, grid.ravel())
        np.testing.assert_array_equal(keyed_uniforms(1, 2, grid), flat.reshape(3, 4))


@settings(max_examples=100, deadline=None)
@given(
    seed=_seeds,
    stream=st.integers(0, 2**16),
    indices=st.lists(st.integers(0, 2**48), min_size=1, max_size=40),
    data=st.data(),
)
def test_keyed_draws_independent_of_order_and_subset(seed, stream, indices, data):
    full = keyed_uniforms(seed, stream, indices)
    order = data.draw(st.permutations(range(len(indices))))
    subset = data.draw(st.lists(st.sampled_from(order), max_size=len(indices)))
    for picks in (order, subset):
        got = keyed_uniforms(seed, stream, [indices[i] for i in picks])
        np.testing.assert_array_equal(got, full[picks])
    # one draw per call gives the values of one call over all indices
    singles = [keyed_uniforms(seed, stream, [i])[0] for i in indices]
    np.testing.assert_array_equal(singles, full)


def test_keyed_uniforms_open_interval():
    u = keyed_uniforms(123, 1, np.arange(100_000))
    assert u.min() > 0.0
    assert u.max() < 1.0


class TestUnitFloats:
    def test_top_hash_stays_below_one(self):
        # (2**53 - 1) + 0.5 rounds to 2**53, which would make the draw 1.0
        # and its normal +inf
        u = _unit_floats(np.array([2**64 - 1, (2**53 - 1) << 11], dtype=np.uint64))
        np.testing.assert_array_equal(u, np.nextafter(1.0, 0.0))
        assert np.isfinite(ndtri(u)).all()

    def test_bottom_and_next_to_top(self):
        u = _unit_floats(np.array([0, (2**53 - 2) << 11], dtype=np.uint64))
        assert u.tolist() == [2.0 ** -54, 1.0 - 2.0 ** -52]

    @settings(max_examples=300, deadline=None)
    @given(h=hnp.arrays(np.uint64, st.integers(1, 8),
                        elements=st.integers(0, ((2**53 - 1) << 11) - 1)))
    def test_every_other_hash_unchanged(self, h):
        want = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)
        np.testing.assert_array_equal(_unit_floats(h), want)
        assert (_unit_floats(h) < 1.0).all()


def test_keyed_uniforms_subset_matches_full_pass():
    # lazy evaluation of any index subset must reproduce the full sequence
    full = keyed_uniforms(9, 3, np.arange(10_000))
    idx = np.array([0, 17, 256, 9_999, 5, 17])
    np.testing.assert_array_equal(keyed_uniforms(9, 3, idx), full[idx])


def test_keyed_uniforms_order_independent():
    idx = np.array([40, 2, 7, 2, 40])
    a = keyed_uniforms(5, 2, idx)
    assert a[0] == a[4] and a[1] == a[3]


def test_streams_and_seeds_decorrelate():
    idx = np.arange(1000)
    a = keyed_uniforms(1, 1, idx)
    b = keyed_uniforms(1, 2, idx)
    c = keyed_uniforms(2, 1, idx)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # roughly uniform: mean near 0.5 for each stream
    for u in (a, b, c):
        assert abs(u.mean() - 0.5) < 0.05


def test_keyed_uniforms_look_uniform():
    u = keyed_uniforms(77, 4, np.arange(200_000))
    hist, _ = np.histogram(u, bins=20, range=(0, 1))
    expected = len(u) / 20
    chi2 = ((hist - expected) ** 2 / expected).sum()
    # dof 19, comfortably below the 1e-6 tail (~56)
    assert chi2 < 56


def test_keyed_normals_moments_and_degenerate_std():
    x = keyed_normals(3, 1, np.arange(100_000), mean=2.0, std=0.5)
    assert abs(x.mean() - 2.0) < 0.01
    assert abs(x.std() - 0.5) < 0.01
    np.testing.assert_array_equal(
        keyed_normals(3, 1, np.arange(5), mean=1.5, std=0.0), np.full(5, 1.5)
    )


def test_derive_seed_pure_and_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2) != derive_seed(2, 2)
    assert 0 <= derive_seed(0) < 2**64


def test_spawn_rng_reproducible():
    a = spawn_rng(42, 7).standard_normal(16)
    b = spawn_rng(42, 7).standard_normal(16)
    c = spawn_rng(42, 8).standard_normal(16)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
