import numpy as np
import pytest

from dalvq.baselines import lloyd_step, run_clvq, run_lloyd
from dalvq.errors import ConfigError
from dalvq.geometry import SampleBatch, batched_cell_stats
from dalvq.measures import DistributionSpec, make_batch
from oracles import clvq_step, sequential_clvq


BOX = DistributionSpec.uniform_box([0.0, 0.0], [1.0, 1.0])


def batch_1d(points):
    pts = np.asarray(points, dtype=float).reshape(-1, 1)
    return SampleBatch(points=pts, bbox_low=pts.min(axis=0), bbox_high=pts.max(axis=0),
                       diameter=float(pts.max() - pts.min()))


# ---- online steps ----


class TestClvqStep:
    def test_winner_homothety(self):
        w = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = clvq_step(w, np.array([0.1, 0.1]), 0.5)
        np.testing.assert_array_equal(out[0], [0.05, 0.05])
        np.testing.assert_array_equal(out[1], w[1])

    def test_input_untouched(self):
        w = np.zeros((2, 2))
        clvq_step(w, np.array([1.0, 1.0]), 0.5)
        assert np.all(w == 0.0)


class TestRunClvq:
    def test_deterministic(self):
        a = run_clvq(BOX, 4, 500, seed=3, c=0.4)
        b = run_clvq(BOX, 4, 500, seed=3, c=0.4)
        assert np.array_equal(a.quantizer, b.quantizer)
        assert a.distortion == b.distortion

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_clvq(BOX, 4, 10, seed=0, c=1.5)

    @pytest.mark.parametrize("replay", [False, True])
    def test_equals_sequential_loop(self, replay):
        box3 = DistributionSpec.uniform_box([0.0] * 3, [1.0] * 3)
        got = run_clvq(box3, 5, 2000, seed=4, c=0.4, replay_from_batch=replay, n_ref=300)
        want = sequential_clvq(box3, 5, 2000, seed=4, c=0.4, replay_from_batch=replay,
                               n_ref=300)
        assert np.array_equal(got.quantizer, want)
        assert got.iterations == 2000

    def test_improves_on_long_horizon(self):
        short = run_clvq(BOX, 4, 50, seed=7, c=0.5, n_ref=1500)
        long = run_clvq(BOX, 4, 20000, seed=7, c=0.5, n_ref=1500)
        assert long.distortion < short.distortion


# ---- batch steps ----


class TestLloydStep:
    def test_hand_example(self):
        batch = batch_1d([0.0, 0.4, 1.0])
        out = lloyd_step(np.array([[0.2], [0.8]]), batch)
        np.testing.assert_allclose(out, [[0.2], [1.0]])

    def test_empty_cell_keeps_component(self):
        batch = batch_1d([0.0, 0.1])
        far = np.array([[0.05], [50.0]])
        # the second cell is empty; widen the bbox so the component is legal
        batch = SampleBatch(points=batch.points, bbox_low=np.array([0.0]),
                            bbox_high=np.array([60.0]), diameter=60.0)
        out = lloyd_step(far, batch)
        assert out[1, 0] == 50.0
        assert out[0, 0] == pytest.approx(0.05)

    def test_never_increases_distortion(self):
        batch = make_batch(BOX, 5, 300)
        w = np.random.default_rng(2).random((6, 2))
        prev = batched_cell_stats(w[None], batch)[0][0]
        for _ in range(10):
            w = lloyd_step(w, batch)
            cur = batched_cell_stats(w[None], batch)[0][0]
            assert cur <= prev + 1e-15
            prev = cur


class TestRunLloyd:
    def test_converges_and_reports(self):
        res = run_lloyd(BOX, 4, seed=9, n_ref=400)
        assert res.converged
        assert res.iterations < 500
        # one more step moves essentially nothing
        batch = make_batch(BOX, 9, 400)
        again = lloyd_step(res.quantizer, batch)
        assert np.linalg.norm(again - res.quantizer) <= \
            1e-9 * np.linalg.norm(res.quantizer)

    def test_deterministic(self):
        a = run_lloyd(BOX, 3, seed=1, n_ref=200)
        b = run_lloyd(BOX, 3, seed=1, n_ref=200)
        assert np.array_equal(a.quantizer, b.quantizer)
