import numpy as np
import pytest

from dalvq.engine import (EngineState, EventLog, RunConfig, StepPolicy, _total_active,
                          dalvq_tick, initial_versions, run)
from dalvq.errors import ConfigError
from dalvq.geometry import gradient_observation, nearest_cell
from dalvq.measures import DistributionSpec
from dalvq.schedule import ScheduleSpec, generate
from oracles import descent_term


BOX = DistributionSpec.uniform_box([0.0, 0.0], [1.0, 1.0])
RING = ScheduleSpec(topology="ring", merge_period=2, delay_law="fixed",
                    delay_value=2, activity="round-robin")


def make_config(**kw):
    base = dict(M=3, kappa=2, dim=2, horizon=30, dist=BOX, sched=RING,
                step=StepPolicy("local-clock", 0.5), seed=5, n_ref=40, cadence=10)
    base.update(kw)
    return RunConfig(**base)


# ---- step policy ----


class TestStepPolicy:
    def test_validation(self):
        with pytest.raises(ConfigError):
            StepPolicy("global-clock", 1.0)
        with pytest.raises(ConfigError):
            StepPolicy("warp", 0.5)

    def test_global_clock_law(self):
        p = StepPolicy("global-clock", 0.3)
        assert p.epsilon(0, 1) == 0.3
        assert p.epsilon(1, 1) == 0.3
        assert p.epsilon(10, 3) == 0.03

    def test_local_clock_law(self):
        p = StepPolicy("local-clock", 0.4)
        assert p.epsilon(100, 1) == 0.4   # first own step, whatever the tick
        assert p.epsilon(100, 8) == 0.05

    def test_global_constants(self):
        sch = generate(RING, 3, 50, seed=1)
        assert StepPolicy("global-clock", 0.3).derived_constants(sch, 50) == (0.3, 1.0)

    def test_local_constants_against_brute_force(self):
        c = 0.45
        sch = generate(RING, 3, 80, seed=2)
        k1, k2 = StepPolicy("local-clock", c).derived_constants(sch, 80)
        n = np.zeros(3, dtype=int)
        lo, hi = np.inf, 1.0
        for t in range(80):
            for i in np.flatnonzero(sch.active_mask(t)):
                n[i] += 1
                r = c * max(t, 1) / n[i]
                lo, hi = min(lo, r), max(hi, r)
        assert (k1, k2) == (lo, hi)

    def test_roundtrip(self):
        p = StepPolicy("local-clock", 0.25)
        assert StepPolicy.from_dict(p.to_dict()) == p
        with pytest.raises(ConfigError):
            StepPolicy.from_dict({"kind": "local-clock", "c": 0.25, "warm": 1})


# ---- config ----


class TestRunConfig:
    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            make_config(dim=3)

    def test_bad_init_policy(self):
        with pytest.raises(ConfigError):
            make_config(init="mixed")

    def test_roundtrip_strict(self):
        cfg = make_config()
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg
        d = cfg.to_dict()
        d["threads"] = 4
        with pytest.raises(ConfigError):
            RunConfig.from_dict(d)

    def test_width(self):
        assert make_config(kappa=5, dim=2).width == 10


# ---- initial versions ----


class TestInitialVersions:
    def test_shared_rows_identical(self):
        x0 = initial_versions(make_config(init="shared"))
        assert np.array_equal(x0[0], x0[1]) and np.array_equal(x0[1], x0[2])

    def test_per_processor_rows_differ(self):
        x0 = initial_versions(make_config(init="per-processor"))
        assert not np.array_equal(x0[0], x0[1])


# ---- the tick ----


class TestDescentTerm:
    def test_matches_gradient_observation(self):
        w = np.array([[0.1, 0.1], [0.8, 0.9]])
        z = np.array([0.75, 0.95])
        np.testing.assert_array_equal(descent_term(z, w, 0.2),
                                      -0.2 * gradient_observation(z, w))


class TestRunDynamics:
    def test_naive_reference_trajectory(self):
        cfg = make_config(horizon=25, cadence=5, init="per-processor")
        art = run(cfg)
        sch = art.schedule
        # replay the dynamics with a plain dict of full version history,
        # using only the recorded draws; steps and winners are recomputed
        hist = {0: art.x0.copy()}
        n_local = np.zeros(3, dtype=int)
        ev_ptr = 0
        ev = art.events
        for t in range(25):
            merged = np.zeros((3, 4))
            coeff, delay = sch.coeff(t), sch.delay(t)
            for i in range(3):
                for j in range(3):
                    if coeff[i, j]:
                        merged[i] += coeff[i, j] * hist[t - delay[i, j]][j]
            for i in sorted(sch.active(t)):
                assert ev.t[ev_ptr] == t and ev.proc[ev_ptr] == i
                z = ev.z[ev_ptr]
                n_local[i] += 1
                eps = cfg.step.epsilon(t, n_local[i])
                assert eps == ev.eps[ev_ptr]
                w_cur = hist[t][i].reshape(2, 2)
                comp = nearest_cell(z, w_cur)
                assert comp == ev.comp[ev_ptr]
                assert np.array_equal(hist[t][i], ev.w_before[ev_ptr])
                merged[i] += descent_term(z, w_cur, eps).reshape(-1)
                ev_ptr += 1
            hist[t + 1] = merged
        assert ev_ptr == ev.n
        np.testing.assert_allclose(hist[25], art.final, atol=1e-13)
        for k, t in enumerate(art.snap_times):
            np.testing.assert_allclose(hist[int(t)], art.snapshots[k], atol=1e-13)

    def test_deterministic(self):
        a, b = run(make_config()), run(make_config())
        assert np.array_equal(a.final, b.final)
        assert np.array_equal(a.events.z, b.events.z)
        assert np.array_equal(a.snapshots, b.snapshots)

    def test_event_log_complete_and_ordered(self):
        art = run(make_config(horizon=40))
        ev = art.events
        assert ev.n == _total_active(art.schedule, 40)
        assert np.all(np.diff(ev.t) >= 0)
        for arr in (ev.t, ev.z, ev.w_before):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_n_local_counts(self):
        art = run(make_config(horizon=31))
        expect = np.zeros(3, dtype=int)
        for t in range(31):
            expect[list(art.schedule.active(t))] += 1
        assert np.array_equal(art.n_local, expect)

    def test_snapshot_times(self):
        art = run(make_config(horizon=25, cadence=10))
        assert list(art.snap_times) == [0, 10, 20, 25]
        assert np.array_equal(art.snapshots[0], art.x0)
        assert np.array_equal(art.snapshots[-1], art.final)


# ---- replay properties ----


class TestReplay:
    def test_draws_do_not_depend_on_schedule(self):
        # processor 0's k-th draw is a function of (seed, 0, k) alone
        robin = run(make_config(horizon=30))
        dense_sched = ScheduleSpec(topology="ring", merge_period=2, delay_law="fixed",
                                   delay_value=2, activity="all-active")
        dense = run(make_config(horizon=30, sched=dense_sched))
        z_robin = robin.events.z[robin.events.proc == 0]
        z_dense = dense.events.z[dense.events.proc == 0]
        assert len(z_robin) < len(z_dense)
        assert np.array_equal(z_robin, z_dense[:len(z_robin)])

    def test_replay_from_batch_draws_batch_rows(self):
        art = run(make_config(horizon=30, replay_from_batch=True, n_ref=17))
        pts = art.batch.points
        for z in art.events.z:
            assert np.any(np.all(pts == z, axis=1))

    def test_seed_changes_everything(self):
        a = run(make_config(seed=1))
        b = run(make_config(seed=2))
        assert not np.array_equal(a.x0, b.x0)
        assert not np.array_equal(a.events.z, b.events.z)


# ---- direct tick use ----


class TestDalvqTick:
    def test_manual_state_advances(self):
        cfg = make_config(horizon=6)
        sch = generate(cfg.sched, cfg.M, cfg.horizon, cfg.seed)
        from dalvq.measures import StreamHandle, make_batch
        x0 = initial_versions(cfg)
        depth = max(sch.B1, 1)
        ring = np.zeros((depth, 3, 4))
        ring[0] = x0
        state = EngineState(ring=ring, t=0, n_local=np.zeros(3, dtype=np.int64),
                            handles=[StreamHandle(cfg.seed, i) for i in range(3)])
        log = EventLog(_total_active(sch, 6), 2, 4)
        for _ in range(6):
            dalvq_tick(state, sch, cfg, make_batch(cfg.dist, cfg.seed, cfg.n_ref), log)
        assert state.t == 6
        art = run(cfg)
        assert np.array_equal(state.ring[6 % depth], art.final)
