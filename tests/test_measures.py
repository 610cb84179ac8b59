import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dalvq.errors import ConfigError
from dalvq.measures import (STREAM_INIT_BASE, STREAM_REF_BATCH, STREAM_SCHEDULE,
                            DistributionSpec, StreamHandle, draw_index, init_quantizer,
                            make_batch, sample)
from oracles import generator_index, generator_sample, is_parted


BOX = DistributionSpec.uniform_box([0.0, -1.0], [2.0, 1.0])
MIX = DistributionSpec.gaussian_mixture(
    weights=[0.7, 0.3],
    means=[[0.5, 0.5], [1.5, -0.5]],
    covs=[[[0.04, 0.0], [0.0, 0.04]], [[0.02, 0.01], [0.01, 0.02]]],
    low=[0.0, -1.0], high=[2.0, 1.0])
DISKS = DistributionSpec.disk_union(centers=[[0.0, 0.0], [5.0, 0.0]], radii=[1.0, 0.5])


def draw_many(spec, seed, n, stream_id=0):
    return sample(spec, StreamHandle(seed, stream_id, np.arange(n)))


# ---- streams ----


class TestStreamHandle:
    def test_replay_is_bit_exact(self):
        z1 = sample(BOX, StreamHandle(42, 3, counter=17))
        z2 = sample(BOX, StreamHandle(42, 3, counter=17))
        assert np.array_equal(z1, z2)

    def test_counters_give_distinct_draws(self):
        zs = draw_many(BOX, 1, 500)
        assert len(np.unique(zs[:, 0])) == 500

    def test_streams_are_independent_of_each_other(self):
        a = draw_many(BOX, 9, 50, stream_id=0)
        b = draw_many(BOX, 9, 50, stream_id=1)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamHandle(-1, 0)
        with pytest.raises(ValueError):
            StreamHandle(2**64, 0)
        with pytest.raises(ValueError):
            StreamHandle(0, 0, counter=-2)

    @pytest.mark.parametrize("field, bad", [("stream", np.zeros((2, 2), dtype=int)),
                                            ("counter", np.array([0.0, 1.0])),
                                            ("counter", np.array([3, -1])),
                                            ("stream", np.array([True]))])
    def test_array_validation(self, field, bad):
        with pytest.raises(ConfigError):
            StreamHandle(0, **{"stream": 0, field: bad})

    def test_array_addresses_give_one_draw_each(self):
        stream, counter = np.array([0, 3, 3]), np.array([17, 17, 2])
        z = sample(BOX, StreamHandle(42, stream, counter))
        idx = draw_index(10, StreamHandle(42, stream, counter))
        assert z.shape == (3, 2) and idx.shape == (3,) and idx.dtype == np.int64
        for k in range(3):
            one = StreamHandle(42, int(stream[k]), int(counter[k]))
            assert np.array_equal(z[k], sample(BOX, one))
            assert idx[k] == draw_index(10, one) and type(draw_index(10, one)) is int
        assert sample(DISKS, StreamHandle(1, np.arange(0), 0)).shape == (0, 2)
        assert sample(MIX, StreamHandle(1, 0, np.arange(0))).shape == (0, 2)


# the processors' streams, the reserved ones and any 64-bit id
STREAMS = st.one_of(st.integers(0, 63),
                    st.sampled_from([STREAM_REF_BATCH, STREAM_SCHEDULE]),
                    st.integers(0, 63).map(lambda i: STREAM_INIT_BASE + i),
                    st.integers(0, 2**64 - 1))
COUNTERS = st.one_of(st.integers(0, 10**6), st.integers(0, 2**64 - 1))
ADDRESSES = st.lists(st.tuples(STREAMS, COUNTERS), min_size=1, max_size=6)
BOUNDS = st.floats(-1e3, 1e3, allow_subnormal=False)


@st.composite
def table_specs(draw):
    """A uniform box of dim 1-9 (one to three Philox blocks a draw) or a
    union of one to three disks."""
    if draw(st.booleans()):
        dim = draw(st.integers(1, 9))
        low = draw(st.lists(BOUNDS, min_size=dim, max_size=dim))
        width = draw(st.lists(st.floats(1e-3, 1e3), min_size=dim, max_size=dim))
        return DistributionSpec.uniform_box(low, np.add(low, width))
    m = draw(st.integers(1, 3))
    centers = draw(st.lists(st.tuples(BOUNDS, BOUNDS), min_size=m, max_size=m))
    radii = draw(st.lists(st.floats(1e-3, 1e2), min_size=m, max_size=m))
    return DistributionSpec.disk_union(centers, radii)


def _arrays(addrs):
    return (np.array([a[0] for a in addrs], dtype=np.uint64),
            np.array([a[1] for a in addrs], dtype=np.uint64))


class TestDrawTables:
    """The table draws are the per-address generator's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), addrs=ADDRESSES, spec=table_specs())
    def test_samples_are_the_generator_samples(self, seed, addrs, spec):
        z = sample(spec, StreamHandle(seed, *_arrays(addrs)))
        for k, (s, c) in enumerate(addrs):
            ref = generator_sample(spec, StreamHandle(seed, s, c))
            one = sample(spec, StreamHandle(seed, s, c))
            for got in (z[k], one):
                assert np.array_equal(got, ref) and np.array_equal(np.signbit(got),
                                                                   np.signbit(ref))

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), addrs=ADDRESSES, n=st.integers(1, 2**31))
    def test_indices_are_the_generator_indices(self, seed, addrs, n):
        idx = draw_index(n, StreamHandle(seed, *_arrays(addrs)))
        want = [generator_index(n, StreamHandle(seed, s, c)) for s, c in addrs]
        assert idx.tolist() == want
        assert [draw_index(n, StreamHandle(seed, s, c)) for s, c in addrs] == want


# ---- distributions ----


class TestDistributionSpec:
    def test_box_validation(self):
        with pytest.raises(ConfigError):
            DistributionSpec.uniform_box([0.0, 0.0], [1.0, 0.0])

    def test_mixture_weight_validation(self):
        with pytest.raises(ConfigError):
            DistributionSpec.gaussian_mixture(weights=[0.5, 0.6],
                                              means=[[0.0], [1.0]],
                                              covs=[[[1.0]], [[1.0]]],
                                              low=[-5.0], high=[5.0])

    def test_mixture_spd_validation(self):
        with pytest.raises(ConfigError):
            DistributionSpec.gaussian_mixture(weights=[1.0], means=[[0.0, 0.0]],
                                              covs=[[[1.0, 2.0], [2.0, 1.0]]],
                                              low=[-5.0, -5.0], high=[5.0, 5.0])

    @pytest.mark.parametrize("bad", [["a", 0.0], ["0.0", "0.0"], [None, 0.0], "1.0", True,
                                     [True, 1.0], (True, 1.0), [np.True_, 1.0], [[0.0], 0.0],
                                     [2**70, 1.0]], ids=repr)
    def test_bounds_hold_only_numbers(self, bad):
        # numpy reads a bool among numbers as 0 or 1, so the rule scans for one
        with pytest.raises(ConfigError):
            DistributionSpec.uniform_box(bad, [1.0, 1.0])
        spec = DistributionSpec.uniform_box([0, 0], (1, 1.0))
        assert spec.low.dtype == spec.high.dtype == float

    def test_disk_validation(self):
        with pytest.raises(ConfigError):
            DistributionSpec.disk_union(centers=[[0.0, 0.0]], radii=[0.0])

    @pytest.mark.parametrize("field,path", [("weights", (0,)), ("means", (1, 0)),
                                            ("covs", (0, 1, 1)), ("covs", (1, 0, 1))])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mixture_rejects_non_finite(self, field, path, bad):
        # NaN slips past both the sign and the sum-to-1 checks on weights,
        # and past the Cholesky factorization on covs
        doc = MIX.to_dict()
        node = doc[field]
        for i in path[:-1]:
            node = node[i]
        node[path[-1]] = bad
        with pytest.raises(ConfigError, match="finite"):
            DistributionSpec.from_dict(doc)

    def test_mixture_rejects_scalar_weights(self):
        doc = {**MIX.to_dict(), "weights": 1.0}
        with pytest.raises(ConfigError, match="1-d"):
            DistributionSpec.from_dict(doc)

    @pytest.mark.parametrize("field,path", [("centers", (0, 1)), ("radii", (1,))])
    def test_disk_rejects_non_finite(self, field, path):
        doc = DISKS.to_dict()
        node = doc[field]
        for i in path[:-1]:
            node = node[i]
        node[path[-1]] = math.nan
        with pytest.raises(ConfigError, match="finite"):
            DistributionSpec.from_dict(doc)

    def test_roundtrip(self):
        for spec in (BOX, MIX, DISKS):
            again = DistributionSpec.from_dict(spec.to_dict())
            assert again.kind == spec.kind
            assert again.dim == spec.dim

    def test_from_dict_rejects_unknown_fields(self):
        d = BOX.to_dict()
        d["scale"] = 2.0
        with pytest.raises(ConfigError):
            DistributionSpec.from_dict(d)

    def test_convex_support_flag(self):
        assert BOX.convex_support
        assert MIX.convex_support
        assert not DISKS.convex_support
        one_disk = DistributionSpec.disk_union(centers=[[0.0, 0.0]], radii=[1.0])
        assert one_disk.convex_support

    def test_diameter(self):
        assert BOX.diameter == pytest.approx(np.sqrt(4.0 + 4.0))
        assert DISKS.diameter == pytest.approx(5.0 + 1.0 + 0.5)


# ---- samplers ----


class TestSamplers:
    def test_box_support_and_mean(self):
        zs = draw_many(BOX, 2, 4000)
        assert np.all(zs >= [0.0, -1.0]) and np.all(zs <= [2.0, 1.0])
        np.testing.assert_allclose(zs.mean(axis=0), [1.0, 0.0], atol=0.06)

    def test_mixture_stays_in_box(self):
        zs = draw_many(MIX, 3, 2000)
        assert np.all(zs >= [0.0, -1.0]) and np.all(zs <= [2.0, 1.0])

    def test_mixture_mean_against_rejection_oracle(self):
        zs = draw_many(MIX, 4, 6000)
        # independent rejection sampler on a different generator
        g = np.random.default_rng(999)
        chols = [np.linalg.cholesky(np.array(c)) for c in
                 ([[0.04, 0.0], [0.0, 0.04]], [[0.02, 0.01], [0.01, 0.02]])]
        means = np.array([[0.5, 0.5], [1.5, -0.5]])
        ref = []
        while len(ref) < 6000:
            comp = 0 if g.random() < 0.7 else 1
            z = means[comp] + chols[comp] @ g.standard_normal(2)
            if np.all(z >= [0.0, -1.0]) and np.all(z <= [2.0, 1.0]):
                ref.append(z)
        np.testing.assert_allclose(zs.mean(axis=0), np.mean(ref, axis=0), atol=0.03)

    def test_disks_contain_samples(self):
        zs = draw_many(DISKS, 5, 2000)
        d0 = np.linalg.norm(zs - [0.0, 0.0], axis=1)
        d1 = np.linalg.norm(zs - [5.0, 0.0], axis=1)
        assert np.all((d0 <= 1.0 + 1e-12) | (d1 <= 0.5 + 1e-12))
        # area weighting: the big disk carries 1 / (1 + 0.25) of the mass
        frac = np.mean(d0 <= 1.0 + 1e-12)
        assert frac == pytest.approx(0.8, abs=0.03)

    @pytest.mark.parametrize("weights", [[0.7, 0.3], [0.0, 1.0], [1.0, 0.0],
                                         [0.25, 0.0, 0.75], [0.1, 0.2, 0.3, 0.4]])
    def test_mixture_cdf_is_the_per_draw_rule(self, weights):
        m = len(weights)
        means = np.linspace(0.1, 0.9, m)[:, None]
        spec = DistributionSpec.gaussian_mixture(
            weights=weights, means=means, covs=np.full((m, 1, 1), 1e-4), low=[0.0], high=[1.0])
        cum = np.cumsum(np.array(weights))
        cum[-1] = 1.0
        assert np.array_equal(spec._cdf, cum)
        # a zero-weight component never draws
        zs = draw_many(spec, 6, 300)[:, 0]
        near = np.abs(zs[:, None] - means[:, 0]).argmin(axis=1)
        assert set(near) == set(np.flatnonzero(weights))

    @pytest.mark.parametrize("radii", [[1.0, 0.5], [0.3, 0.7, 1.1], [0.4]])
    def test_disk_cdf_is_the_per_draw_rule(self, radii):
        centers = [[3.0 * k, 0.0] for k in range(len(radii))]
        spec = DistributionSpec.disk_union(centers=centers, radii=radii)
        areas = np.array(radii)**2
        cum = np.cumsum(areas / np.sum(areas))
        cum[-1] = 1.0
        assert np.array_equal(spec._cdf, cum)

    def test_impossible_truncation_raises(self):
        bad = DistributionSpec.gaussian_mixture(
            weights=[1.0], means=[[100.0]], covs=[[[1e-6]]], low=[0.0], high=[1.0])
        with pytest.raises(ConfigError):
            sample(bad, StreamHandle(0, 0))


class TestDrawIndex:
    def test_range_and_replay(self):
        seen = set()
        for k in range(200):
            idx = draw_index(10, StreamHandle(7, 1, k))
            assert 0 <= idx < 10
            seen.add(idx)
        assert seen == set(range(10))
        assert draw_index(10, StreamHandle(7, 1, 3)) == draw_index(10, StreamHandle(7, 1, 3))


# ---- batches and initialization ----


class TestMakeBatch:
    def test_deterministic(self):
        a = make_batch(BOX, 11, 64)
        b = make_batch(BOX, 11, 64)
        assert np.array_equal(a.points, b.points)

    def test_distinct_from_processor_streams(self):
        batch = make_batch(BOX, 11, 16)
        proc = draw_many(BOX, 11, 16, stream_id=0)
        assert not np.array_equal(batch.points, proc)


class TestInitQuantizer:
    def test_separated_interior_deterministic(self):
        q1 = init_quantizer(BOX, 6, 21)
        q2 = init_quantizer(BOX, 6, 21)
        assert np.array_equal(q1, q2)
        assert is_parted(q1, 1e-6 * BOX.diameter)
        lo, hi = BOX.bbox
        assert np.all(q1 > lo) and np.all(q1 < hi)

    def test_read_only_float_array(self):
        q = init_quantizer(BOX, 5, 21)
        assert isinstance(q, np.ndarray)
        assert q.shape == (5, 2) and q.dtype == np.float64
        assert not q.flags.writeable
        with pytest.raises(ValueError):
            q[0, 0] = 5.0

    def test_distinct_streams_per_processor(self):
        a = init_quantizer(BOX, 4, 21)
        b = init_quantizer(BOX, 4, 21, stream=init_quantizer.__defaults__[0] + 1)
        assert not np.array_equal(a, b)
