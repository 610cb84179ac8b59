import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_workloads import WORKLOADS
from dalvq import cli, diagnostics, geometry
from dalvq.engine import run
from dalvq.geometry import (SampleBatch, _cell_moves, _min_separation, batched_cell_stats,
                            min_component_separation, nearest_cell)
from dalvq.measures import DistributionSpec
from dalvq.measures import make_batch as draw_batch
from oracles import cell_stats, gradient_observation, is_parted
from test_acceptance import big_config

BOX = DistributionSpec.uniform_box([0.0, 0.0], [1.0, 1.0])


def make_batch(points):
    pts = np.asarray(points, dtype=float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    diam = 0.0
    for a in pts:
        for b in pts:
            diam = max(diam, float(np.linalg.norm(a - b)))
    return SampleBatch(points=pts, bbox_low=lo, bbox_high=hi, diameter=diam)


def stats(comps, batch):
    """The kernel on a stack of one: (distortion, gradient, counts, sums)."""
    dist, grad, counts, sums = batched_cell_stats(np.asarray(comps, dtype=float)[None], batch)
    return float(dist[0]), grad[0], counts[0], sums[0]


# ---- containers ----


class TestSampleBatch:
    def test_rejects_points_outside_box(self):
        with pytest.raises(ValueError):
            SampleBatch(points=np.array([[2.0, 0.0]]),
                        bbox_low=np.zeros(2), bbox_high=np.ones(2), diameter=1.0)

    def test_accepts_boundary_with_slack(self):
        b = make_batch([[0.0, 0.0], [1.0, 1.0]])
        assert b.n == 2 and b.dim == 2


# ---- winner selection ----


class TestNearestCell:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.random((6, 3))
            z = rng.random(3)
            dists = [float(np.sum((z - c) ** 2)) for c in w]
            assert nearest_cell(z, w) == int(np.argmin(dists))

    def test_bisector_tie_takes_min_index(self):
        w = np.array([[0.0, 0.0], [2.0, 0.0]])
        assert nearest_cell(np.array([1.0, 0.0]), w) == 0

    def test_duplicate_components_collapse_to_first(self):
        w = np.array([[3.0, 1.0], [0.5, 0.5], [0.5, 0.5]])
        assert nearest_cell(np.array([0.4, 0.6]), w) == 1

    def test_dim_one(self):
        assert nearest_cell(np.array([0.9]), [[0.0], [1.0]]) == 1

    @settings(max_examples=200, deadline=None)
    @given(E=st.integers(1, 9), kappa=st.integers(1, 5), dim=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_stacked_form_is_the_scalar_form(self, E, kappa, dim, seed):
        rng = np.random.default_rng(seed)
        # few distinct values (duplicates, ties, -0.0), or generic near ties
        if seed % 2:
            W = rng.choice([0.0, -0.0, 0.5, -1.0, 2.0], (E, kappa, dim))
            z = rng.choice([0.0, -0.0, 0.25, 0.5, -1.0], (E, dim))
        else:
            z = rng.random((E, dim))
            u = rng.normal(size=(E, 1, dim))
            W = z[:, None, :] + u * rng.choice([-1.0, 1.0, 1.0 + 1e-15], (E, kappa, 1))
        cells = nearest_cell(z, W)
        assert cells.shape == (E,)
        assert cells.tolist() == [nearest_cell(z[e], W[e]) for e in range(E)]

    def test_stacked_shapes_must_agree(self):
        with pytest.raises(ValueError):
            nearest_cell(np.zeros((3, 2)), np.zeros((4, 2, 2)))

    def test_reflected_near_ties_score_as_the_kernel(self):
        # two components mirrored through z are equidistant from it in exact
        # arithmetic, so which one wins turns on rounding: the scorer must
        # round as the kernel's scan does, summing coordinates in order
        rng = np.random.default_rng(12)
        differ = []
        for dim in range(3, 9):
            for _ in range(3000):
                z = rng.random(dim)
                u = rng.normal(size=dim)
                w = np.array([z + u, z - u, z + 4.0 * rng.normal(size=dim)])
                w = w[rng.permutation(3)]
                if nearest_cell(z, w) != cell_stats(w, z[None])[4][0]:
                    differ.append(dim)
        assert not differ, f"{len(differ)} of 18000 cases differ, at dims {sorted(set(differ))}"


class TestGradientObservation:
    def test_single_nonzero_row(self):
        w = np.array([[0.0, 0.0], [1.0, 1.0]])
        z = np.array([0.9, 0.8])
        g = gradient_observation(z, w)
        assert np.array_equal(g[0], np.zeros(2))
        np.testing.assert_allclose(g[1], w[1] - z)

    def test_zero_at_sample_equal_component(self):
        w = np.array([[0.25, 0.25]])
        g = gradient_observation(np.array([0.25, 0.25]), w)
        assert np.all(g == 0.0)


# ---- batch functionals: the one cell-statistics kernel ----


class TestEmpiricalDistortion:
    def test_against_double_loop(self):
        rng = np.random.default_rng(3)
        pts = rng.random((40, 2))
        batch = make_batch(pts)
        comps = rng.random((5, 2))
        got = stats(comps, batch)[0]
        assert got == pytest.approx(cell_stats(comps, pts)[0], rel=1e-12)

    def test_single_component_closed_form(self):
        pts = np.array([[0.0], [1.0]])
        batch = make_batch(pts)
        # 0.5 * mean of squared distances to 0.25
        expect = 0.5 * (0.25**2 + 0.75**2) / 2
        assert stats([[0.25]], batch)[0] == pytest.approx(expect)


class TestEmpiricalGradient:
    def test_cell_counts_formula(self):
        pts = np.array([[0.0, 0.0], [0.2, 0.0], [1.0, 1.0]])
        batch = make_batch(pts)
        comps = np.array([[0.1, 0.0], [0.9, 1.0]])
        _, g, counts, sums = stats(comps, batch)
        np.testing.assert_allclose(g[0], (2 * comps[0] - (pts[0] + pts[1])) / 3)
        np.testing.assert_allclose(g[1], (comps[1] - pts[2]) / 3)
        assert counts.tolist() == [2, 1]
        np.testing.assert_allclose(sums, [pts[0] + pts[1], pts[2]])

    def test_finite_difference_oracle(self):
        # parted configuration, no batch point near a bisector
        rng = np.random.default_rng(7)
        pts = rng.random((60, 2))
        batch = make_batch(pts)
        comps = np.array([[0.21, 0.27], [0.83, 0.31], [0.52, 0.86]])
        sq = ((pts[:, None, :] - comps[None, :, :]) ** 2).sum(axis=2)
        order = np.sort(sq, axis=1)
        assert np.min(order[:, 1] - order[:, 0]) > 1e-3  # margins are real
        g = stats(comps, batch)[1]
        h = 1e-6
        for ell in range(3):
            for k in range(2):
                wp = comps.copy(); wp[ell, k] += h
                wm = comps.copy(); wm[ell, k] -= h
                fd = (stats(wp, batch)[0] - stats(wm, batch)[0]) / (2 * h)
                assert g[ell, k] == pytest.approx(fd, abs=5e-9)

    def test_empty_cell_row_is_scaled_component(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.1]])
        batch = make_batch(pts)
        comps = np.array([[0.05, 0.05], [50.0, 50.0]])
        _, g, counts, sums = stats(comps, batch)
        assert np.all(g[1] == 0.0)  # count 0, sum 0
        assert counts[1] == 0 and np.all(sums[1] == 0.0)


class TestBatchedCellStats:
    def test_matches_direct_expansion(self):
        rng = np.random.default_rng(11)
        pts = rng.random((30, 4))
        batch = make_batch(pts)
        comps = rng.random((7, 4))
        dist, grad, counts, sums = stats(comps, batch)
        o_dist, o_grad, o_counts, o_sums, _ = cell_stats(comps, pts)
        assert dist == pytest.approx(o_dist, abs=1e-12)
        np.testing.assert_array_equal(counts, o_counts)
        np.testing.assert_allclose(sums, o_sums, atol=1e-12)
        np.testing.assert_allclose(grad, o_grad, atol=1e-12)
        # where a point is a component, its distance is 0: the direct form
        # has no |z|^2 - 2 z.w + |w|^2 to round to +-epsilon
        on = [stats(z[None], SampleBatch(points=z[None], bbox_low=np.zeros(4),
                                         bbox_high=np.ones(4), diameter=2.0))[0]
              for z in pts]
        assert max(on) == 0.0

    def test_matches_per_quantizer(self):
        batch = draw_batch(BOX, 11, 200)
        rng = np.random.default_rng(0)
        W = rng.random((7, 3, 2))
        dist, grad, counts, sums = batched_cell_stats(W, batch)
        for c in range(7):
            o_dist, o_grad, o_counts, o_sums, _ = cell_stats(W[c], batch.points)
            assert dist[c] == pytest.approx(o_dist, abs=1e-12)
            np.testing.assert_allclose(grad[c], o_grad, atol=1e-13)
            np.testing.assert_array_equal(counts[c], o_counts)
            np.testing.assert_allclose(sums[c], o_sums, atol=1e-12)

    def test_single_stack(self):
        batch = draw_batch(BOX, 1, 50)
        dist, grad, counts, sums = batched_cell_stats(np.full((1, 2, 2), 0.5), batch)
        assert dist.shape == (1,) and grad.shape == (1, 2, 2)
        assert counts.shape == (1, 2) and sums.shape == (1, 2, 2)
        # duplicate components: every point goes to the first
        assert counts[0].tolist() == [50, 0]

    def test_empty_stack_and_shape_checks(self):
        batch = make_batch([[0.0, 0.0], [1.0, 1.0]])
        dist, grad, counts, sums = batched_cell_stats(np.zeros((0, 3, 2)), batch)
        assert dist.shape == (0,) and grad.shape == (0, 3, 2)
        assert counts.shape == (0, 3) and sums.shape == (0, 3, 2)
        with pytest.raises(ValueError):
            batched_cell_stats(np.zeros((1, 3, 4)), batch)
        with pytest.raises(ValueError):
            batched_cell_stats(np.zeros((3, 2)), batch)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 3), kappa=st.integers(1, 4), n_quant=st.integers(1, 4),
           n=st.integers(1, 700), tail=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           duplicate=st.booleans())
    def test_exact_on_integer_grid(self, dim, kappa, n_quant, n, tail, seed, duplicate):
        # Components on the integer grid and points on the half-integer grid:
        # every distance and sum is a small dyadic number, so any summation
        # order agrees exactly. C = 256 + tail (tail >= 2) crosses a stack
        # chunk.
        rng = np.random.default_rng(seed)
        quants = rng.integers(-3, 4, size=(n_quant, kappa, dim)).astype(float)
        if duplicate and kappa > 1:
            quants[:, -1] = quants[:, 0]
        pts = rng.integers(-8, 9, size=(n, dim)) / 2.0
        # points on bisectors: midpoints of component pairs
        a, b = rng.integers(0, kappa, size=(2, n // 4))
        q = rng.integers(0, n_quant, size=n // 4)
        pts[: n // 4] = (quants[q, a] + quants[q, b]) / 2.0
        rng.shuffle(pts)
        batch = SampleBatch(points=pts, bbox_low=np.full(dim, -4.0),
                            bbox_high=np.full(dim, 4.0), diameter=8.0 * math.sqrt(dim))
        src = rng.integers(0, n_quant, size=256 + tail)
        dist, grad, counts, sums = batched_cell_stats(quants[src], batch)
        oracles = [cell_stats(w, pts) for w in quants]
        for c, s in enumerate(src):
            o_dist, o_grad, o_counts, o_sums, _ = oracles[s]
            assert dist[c] == o_dist
            np.testing.assert_array_equal(grad[c], o_grad)
            np.testing.assert_array_equal(counts[c], o_counts)
            np.testing.assert_array_equal(sums[c], o_sums)


class TestPrunedKernel:
    """The anchor-bounded kernel against the dense direct-form oracle."""

    @settings(max_examples=150, deadline=None)
    @given(dim=st.integers(1, 3), kappa=st.integers(1, 5), C=st.integers(1, 300),
           n=st.integers(1, 400), step=st.sampled_from([0, 1, 16, 256, 2048]),
           grid=st.booleans(), offset=st.sampled_from([0.0, 100.0, 1000.0]),
           duplicate=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_drifting_stack(self, dim, kappa, C, n, step, grid, offset, duplicate, seed):
        # A random walk of quantizers, up to step * 2^-12 per coordinate and
        # tick: small steps leave most points certified, while 2048 (half the
        # point cloud's unit) forces full scans. A third of the points sit on
        # or within a few ulps of a bisector, so a quantizer's cells depend
        # on the last bits of its distances; far from the origin an expanded
        # form |z|^2 - 2 z.w + |w|^2 would round those bits away. On the grid
        # every coordinate is a multiple of 2^-13, so all arithmetic is exact:
        # a point placed on a bisector is a true tie, and every path must
        # match the oracle bit for bit. Off the grid, sums and distortions may
        # differ in the last bits, assignments not at all. C = 1 is a lone
        # quantizer; large steps leave quantizers to new groups and full scans.
        rng = np.random.default_rng(seed)
        unit = 2.0 ** -12
        walk = np.cumsum(rng.integers(-step, step + 1, size=(C, kappa, dim)), axis=0)
        if grid:
            W = rng.integers(-4, 5, size=(1, kappa, dim)) + walk * unit
            pts = rng.integers(-5 * 2**8, 5 * 2**8 + 1, size=(n, dim)) / 2.0**8
        else:
            W = rng.uniform(-4, 4, size=(1, kappa, dim)) + walk * unit * rng.random()
            pts = rng.uniform(-5, 5, size=(n, dim))
        W, pts = W + offset, pts + offset
        if duplicate and kappa > 1:
            W[:, -1] = W[:, 0]
        j, (a, b) = rng.integers(0, C, n // 3), rng.integers(0, kappa, (2, n // 3))
        mid = (W[j, a] + W[j, b]) / 2.0                 # on the bisector of a and b
        pts[: n // 3] = mid if grid else mid + np.spacing(mid) * rng.integers(-2, 3, mid.shape)
        batch = SampleBatch(points=pts, bbox_low=pts.min(axis=0), bbox_high=pts.max(axis=0),
                            diameter=1.0 + float(np.ptp(pts, axis=0).max()))
        groups = []

        def recorded(Wc, batch):
            groups.append((Wc, _cell_moves(Wc, batch)))
            return groups[-1][1]

        with mock.patch.object(geometry, "_cell_moves", recorded):
            dist, grad, counts, sums = batched_cell_stats(W, batch)
        oracle = [cell_stats(w, pts) for w in W]
        tol = 1e-12 * (1.0 + offset)
        for c, (o_dist, o_grad, o_counts, o_sums, _) in enumerate(oracle):
            np.testing.assert_array_equal(counts[c], o_counts)
            if grid:
                assert dist[c] == o_dist
                np.testing.assert_array_equal(sums[c], o_sums)
                np.testing.assert_array_equal(grad[c], o_grad)
            else:
                assert dist[c] == pytest.approx(o_dist, rel=1e-12, abs=1e-300)
                np.testing.assert_allclose(sums[c], o_sums, rtol=0, atol=tol)
                np.testing.assert_allclose(grad[c], o_grad, rtol=0, atol=tol)
        # a lone quantizer's full scan does the oracle's arithmetic
        for c in (0, C - 1):
            lone = batched_cell_stats(W[c:c + 1], batch)
            for got, want in zip(lone, oracle[c]):
                np.testing.assert_array_equal(got[0], want)
        # assignments: in each group the kernel formed, the anchor's plus the
        # listed moves, for every quantizer the group did not leave to a full
        # scan (a group's rows are rows of W, found by their bytes)
        at = {w.tobytes(): c for c, w in enumerate(W)}
        assert (len(groups) > 0) == (C > 1)
        for Wc, (_, assign, _, full, j, p, cell, _) in groups:
            assert np.all(cell != assign[p])
            for q in sorted(set(range(len(Wc))) - set(full.tolist())):
                got = assign.copy()
                got[p[j == q]] = cell[j == q]
                np.testing.assert_array_equal(got, oracle[at[Wc[q].tobytes()]][4])

    def test_metrics_sweep(self, monkeypatch):
        # every kernel call of the criterion-4 sweep, cut to T = 2000: the
        # first ticks drift too far and take full scans, the rest prune
        cfg = replace(big_config(), horizon=2000)
        art = run(cfg)
        evaluated = checked_sweep(art, monkeypatch)
        # w* at each tick, the events' pre-merge versions, w* at the horizon
        # and every processor's recorded version, each in its chunk's call
        assert sum(evaluated) == cfg.horizon + art.n_events + 1 + len(art.snap_times) * cfg.M

    def test_metrics_sweep_joint_stacks(self, monkeypatch):
        # engine-m8-disk's shape cut to T = 600: eight events a tick, so a
        # chunk's w* rows and its events' versions make stacks of 2,304
        # quantizers, and the first chunk's adds the eight versions recorded
        # at tick 0 (the cadence, 1,000, records no other tick before the
        # horizon's, in the last chunk); each is checked against the oracle
        cfg = replace(cli.parse_config(WORKLOADS["engine-m8-disk"].config, None).run,
                      horizon=600)
        art = run(cfg)
        evaluated = checked_sweep(art, monkeypatch)
        assert max(evaluated) == 256 * (1 + cfg.M) + cfg.M > 2000
        assert sum(evaluated) == cfg.horizon + art.n_events + 1 + len(art.snap_times) * cfg.M

    def test_tight_stack_shares_one_scan(self, monkeypatch):
        # 3,000 quantizers that drift little: one anchor scan serves them all
        rng = np.random.default_rng(4)
        batch = box_batch(rng.uniform(-5, 5, (500, 2)))
        W = rng.uniform(-4, 4, (1, 5, 2)) + np.cumsum(rng.normal(0, 1e-4, (3000, 5, 2)), axis=0)
        scans = count_scans(monkeypatch)
        assert_oracle_stats(W, batch)
        assert scans == {"anchor": 1, "full": 0}

    def test_spread_stack_is_regrouped(self, monkeypatch):
        # two tight clusters far apart: the middle quantizer anchors the
        # second, which cannot bound the first; the first is grouped anew
        # around an anchor of its own, and nothing takes a full scan
        rng = np.random.default_rng(5)
        batch = box_batch(rng.uniform(-5, 5, (500, 2)))
        base = rng.uniform(-4, 4, (1, 5, 2))
        walk = np.cumsum(rng.normal(0, 1e-4, (600, 5, 2)), axis=0)
        W = base + walk
        W[300:] += 0.7
        scans = count_scans(monkeypatch)
        assert_oracle_stats(W, batch)
        assert scans == {"anchor": 2, "full": 0}

    def test_sweep_takes_fewer_full_scans(self, monkeypatch):
        # sweep-ref5k's sweep, inline: 93 full scans when each chunk made two
        # kernel calls, each cut into 256-quantizer slices with one anchor each
        art = run(cli.parse_config(WORKLOADS["sweep-ref5k"].config, None).run)
        scans = count_scans(monkeypatch)
        monkeypatch.setattr(diagnostics.os, "sched_getaffinity", lambda pid: {0})
        diagnostics.compute_metrics(art)
        assert scans["full"] < 93


def checked_sweep(art, monkeypatch):
    """The sizes of the sweep's kernel calls, run inline, each call checked
    against the oracle on every quantizer."""
    evaluated = []

    def checked(W, batch):
        out = batched_cell_stats(W, batch)
        for c, w in enumerate(W):
            o_dist, o_grad, o_counts, o_sums, _ = cell_stats(w, batch.points)
            np.testing.assert_array_equal(out[2][c], o_counts)
            assert out[0][c] == pytest.approx(o_dist, rel=1e-12)
            np.testing.assert_allclose(out[1][c], o_grad, rtol=0, atol=1e-12)
            np.testing.assert_allclose(out[3][c], o_sums, rtol=1e-12, atol=0)
        evaluated.append(len(W))
        return out

    monkeypatch.setattr(diagnostics, "batched_cell_stats", checked)
    # one CPU: the chunk loop's kernel calls stay in this process, where
    # they are counted (a forked loop calls the same kernel)
    monkeypatch.setattr(diagnostics.os, "sched_getaffinity", lambda pid: {0})
    diagnostics.compute_metrics(art)
    return evaluated


def count_scans(monkeypatch):
    """Counts, from now on, of the kernel's anchor scans and full scans."""
    scans = {"anchor": 0, "full": 0}
    moves, full = geometry._cell_moves, geometry._scan_stats

    def anchored(*args):
        scans["anchor"] += 1
        return moves(*args)

    def scanned(*args):
        scans["full"] += 1
        return full(*args)

    monkeypatch.setattr(geometry, "_cell_moves", anchored)
    monkeypatch.setattr(geometry, "_scan_stats", scanned)
    return scans


def assert_oracle_stats(W, batch):
    dist, grad, counts, sums = batched_cell_stats(W, batch)
    for c, w in enumerate(W):
        o_dist, o_grad, o_counts, o_sums, _ = cell_stats(w, batch.points)
        np.testing.assert_array_equal(counts[c], o_counts)
        assert dist[c] == pytest.approx(o_dist, rel=1e-12)
        np.testing.assert_allclose(sums[c], o_sums, rtol=1e-12, atol=1e-12)


def box_batch(pts):
    return SampleBatch(points=pts, bbox_low=pts.min(axis=0), bbox_high=pts.max(axis=0),
                       diameter=1.0 + float(np.ptp(pts, axis=0).max()))


def assert_oracle_cells(W, batch):
    """The kernel's counts and the anchor's assignment plus the listed moves
    are the oracle's for every quantizer of a one-chunk stack W; returns the
    moves (j, p, cell)."""
    dist, grad, counts, sums = batched_cell_stats(W, batch)
    oracle = [cell_stats(w, batch.points) for w in W]
    for c, (o_dist, _, o_counts, _, _) in enumerate(oracle):
        np.testing.assert_array_equal(counts[c], o_counts)
        assert dist[c] == pytest.approx(o_dist, rel=1e-12)
    _, assign, _, full, j, p, cell, _ = _cell_moves(W, batch)
    assert len(full) == 0
    for q in range(len(W)):
        got = assign.copy()
        got[p[j == q]] = cell[j == q]
        np.testing.assert_array_equal(got, oracle[q][4])
    return j, p, cell


class TestCandidateFilter:
    """Only points whose anchor slack is within their cell's largest
    threshold are sorted and rescanned."""

    def test_zero_drift_keeps_no_point(self):
        # a stack of one quantizer: every threshold is the rounding allowance,
        # and every point's slack is far above it
        rng = np.random.default_rng(1)
        batch = box_batch(rng.uniform(-5, 5, (400, 2)))
        W = np.repeat(rng.uniform(-4, 4, (1, 5, 2)), 6, axis=0)
        d = np.sort(np.sqrt(((batch.points[:, None] - W[0][None]) ** 2).sum(axis=-1)), axis=1)
        assert np.min(d[:, 1] - d[:, 0]) > 1e-9
        j, p, cell = assert_oracle_cells(W, batch)
        assert len(p) == 0

    def test_one_component_keeps_no_point(self):
        # kappa = 1: no runner-up, so every slack is infinite
        rng = np.random.default_rng(2)
        batch = box_batch(rng.uniform(-5, 5, (200, 3)))
        W = rng.uniform(-1, 1, (1, 1, 3)) + np.cumsum(rng.uniform(-0.1, 0.1, (9, 1, 3)), axis=0)
        j, p, cell = assert_oracle_cells(W, batch)
        assert len(p) == 0

    def test_zero_slack_tie_is_rescanned(self):
        # the anchor (the middle quantizer) has a point on the bisector of its
        # components 0 and 1, which goes to 0; the outer quantizers move
        # component 1 a grid step nearer, so the point changes cell there.
        # A stack without drift keeps it in cell 0.
        rng = np.random.default_rng(3)
        pts = rng.integers(-512, 513, (150, 2)) / 128.0
        pts[0] = [1.0, 0.0]
        batch = box_batch(pts)
        A = np.array([[0.0, 0.0], [2.0, 0.0], [-3.0, 3.0]])
        moved = A.copy()
        moved[1, 0] -= 2.0**-10
        j, p, cell = assert_oracle_cells(np.stack([moved, A, moved]), batch)
        assert {(int(q), int(c)) for q, c in zip(j[p == 0], cell[p == 0])} == {(0, 1), (2, 1)}
        j, p, cell = assert_oracle_cells(np.stack([A, A, A]), batch)
        assert len(p) == 0


class TestMinSeparation:
    def test_pairwise_min(self):
        w = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        assert min_component_separation(w) == pytest.approx(1.0)

    def test_single_component_is_inf(self):
        assert min_component_separation(np.array([[1.0, 2.0]])) == math.inf
        assert np.array_equal(_min_separation(np.zeros((3, 1, 2))), np.full(3, math.inf))

    def test_stacked_is_the_per_row_rule(self):
        # one stacked call gives, bit for bit, what the rule applied to each
        # quantizer alone gives: differences, the sum over coordinates, the
        # upper triangle's minimum, its square root
        def per_row(w):
            diff = w[:, None, :] - w[None, :, :]
            sq = np.einsum("ijd,ijd->ij", diff, diff)
            return float(np.sqrt(np.min(sq[np.triu_indices(len(w), k=1)])))

        rng = np.random.default_rng(6)
        for _ in range(81):
            R, kappa, dim = rng.integers(1, 30), rng.integers(2, 12), rng.integers(1, 4)
            W = rng.uniform(-5, 5, (R, kappa, dim)) * 10.0 ** rng.integers(-8, 8)
            W[::3, -1] = W[::3, 0]                       # duplicate components
            got = _min_separation(W)
            assert got.tobytes() == np.array([per_row(w) for w in W]).tobytes()
            assert [min_component_separation(w) for w in W] == got.tolist()

    def test_parted(self):
        w = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert is_parted(w, 0.5)
        assert not is_parted(w, 1.5)


@pytest.mark.parametrize("w", [np.zeros(3), np.zeros((2, 3, 2))])
def test_quantizer_must_be_2d(w):
    with pytest.raises(ValueError):
        nearest_cell(np.zeros(3), w)
    with pytest.raises(ValueError):
        min_component_separation(w)
