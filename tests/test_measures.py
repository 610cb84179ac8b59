import math

import numpy as np
import pytest

from dalvq.errors import ConfigError
from dalvq.measures import (DistributionSpec, StreamHandle, draw_index,
                            init_quantizer, make_batch, sample)
from oracles import is_parted


BOX = DistributionSpec.uniform_box([0.0, -1.0], [2.0, 1.0])
MIX = DistributionSpec.gaussian_mixture(
    weights=[0.7, 0.3],
    means=[[0.5, 0.5], [1.5, -0.5]],
    covs=[[[0.04, 0.0], [0.0, 0.04]], [[0.02, 0.01], [0.01, 0.02]]],
    low=[0.0, -1.0], high=[2.0, 1.0])
DISKS = DistributionSpec.disk_union(centers=[[0.0, 0.0], [5.0, 0.0]], radii=[1.0, 0.5])


def draw_many(spec, seed, n, stream_id=0):
    out = np.empty((n, spec.dim))
    for k in range(n):
        out[k] = sample(spec, StreamHandle(seed, stream_id, k))
    return out


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
