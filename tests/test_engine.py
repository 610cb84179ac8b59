import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dalvq.engine import EventLog, RunConfig, StepPolicy, dalvq_tick, initial_versions, run
from dalvq.errors import ConfigError
from dalvq.geometry import nearest_cell
from dalvq.measures import DistributionSpec, StreamHandle, sample
from dalvq.schedule import ScheduleSpec, generate, write_trace
from oracles import (descent_term, generator_index, generator_sample, gradient_observation,
                     per_event_tick)


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
        eps, _, _ = StepPolicy("global-clock", 0.3).steps(np.array([0, 1, 10]),
                                                          np.array([1, 1, 3]))
        assert eps.tolist() == [0.3, 0.3, 0.03]

    def test_local_clock_law(self):
        # the first own step is c, whatever the tick
        eps, _, _ = StepPolicy("local-clock", 0.4).steps(np.array([100, 100]),
                                                         np.array([1, 8]))
        assert eps.tolist() == [0.4, 0.05]

    def test_global_constants(self):
        t, _, n = generate(RING, 3, 50, seed=1).descents()
        assert StepPolicy("global-clock", 0.3).steps(t, n)[1:] == (0.3, 1.0)

    def test_local_constants_against_brute_force(self):
        c = 0.45
        sch = generate(RING, 3, 80, seed=2)
        t, _, n_plan = sch.descents()
        _, k1, k2 = StepPolicy("local-clock", c).steps(t, n_plan)
        n = np.zeros(3, dtype=int)
        lo, hi = np.inf, 1.0
        for t in range(80):
            for i in sch.active(t):
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

    def test_mixed_type_unknown_keys_rejected(self):
        d = make_config().to_dict()
        d.update({1: 0, "threads": 4})
        with pytest.raises(ConfigError, match="threads"):
            RunConfig.from_dict(d)

    def test_width(self):
        assert make_config(kappa=5, dim=2).width == 10

    @pytest.mark.parametrize("field", ["dist", "sched", "step"])
    def test_dict_parts_rejected(self, field):
        # the library takes the parsed specs; a dict form is a config error
        with pytest.raises(ConfigError, match=field):
            make_config(**{field: make_config().to_dict()[field]})


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


@st.composite
def small_runs(draw):
    """Config fields of a small run, and whether to replay its schedule from a trace."""
    law = draw(st.sampled_from(["zero", "fixed", "uniform"]))
    value = 0 if law == "zero" else draw(st.integers(1 if law == "uniform" else 0, 3))
    sched = ScheduleSpec(
        topology=draw(st.sampled_from(["complete", "ring", "random-symmetric-gossip"])),
        merge_period=draw(st.integers(1, 3)), delay_law=law, delay_value=value,
        activity=draw(st.sampled_from(["all-active", "round-robin", "random-subset", "none"])),
        base_window=draw(st.integers(1, 8)))
    kw = dict(M=draw(st.integers(1, 4)), kappa=draw(st.integers(1, 3)),
              horizon=draw(st.integers(0, 30)), sched=sched, seed=draw(st.integers(0, 2**20)),
              step=StepPolicy(draw(st.sampled_from(["global-clock", "local-clock"])), 0.5),
              init=draw(st.sampled_from(["shared", "per-processor"])),
              replay_from_batch=draw(st.booleans()), n_ref=7, cadence=4)
    return kw, draw(st.booleans())


class TestRunDynamics:
    @settings(max_examples=150, deadline=None)
    @given(small_runs())
    def test_naive_reference_trajectory(self, drawn):
        kw, as_trace = drawn
        cfg = make_config(**kw)
        try:
            sch = generate(cfg.sched, cfg.M, cfg.horizon, cfg.seed)
        except ConfigError:  # gossip without enough mergeable processors
            assume(False)
        with tempfile.TemporaryDirectory() as tmp:
            if as_trace and cfg.horizon:  # the same schedule as a custom trace
                path = os.path.join(tmp, "trace.jsonl")
                write_trace(sch, path)
                cfg = replace(cfg, sched=ScheduleSpec(topology="custom-trace", trace_path=path))
            art = run(cfg)
        sch, M, c = art.schedule, cfg.M, cfg.step.c
        # replay the dynamics with a plain dict of full version history, its
        # own draw counters and the scalar step law
        hist = {0: art.x0.copy()}
        draws = [0] * M
        rows = []
        for t in range(cfg.horizon):
            merged = np.zeros((M, cfg.width))
            coeff, delay = sch.coeff(t), sch.delay(t)
            for i in range(M):
                for j in range(M):
                    if coeff[i, j]:
                        merged[i] += coeff[i, j] * hist[t - delay[i, j]][j]
            for i in sch.active(t):
                handle = StreamHandle(cfg.seed, i, draws[i])
                draws[i] += 1
                if cfg.replay_from_batch:
                    z = art.batch.points[generator_index(art.batch.n, handle)]
                else:
                    z = generator_sample(cfg.dist, handle)
                eps = c / max(t if cfg.step.kind == "global-clock" else draws[i], 1)
                w_cur = hist[t][i].reshape(cfg.kappa, cfg.dim)
                comp = nearest_cell(z, w_cur)
                rows.append((t, i, eps, comp, z, hist[t][i]))
                merged[i] += descent_term(z, w_cur, eps).reshape(-1)
            hist[t + 1] = merged
        ev = art.events
        assert ev.n == len(rows)
        for name, col in zip(("t", "proc", "eps", "comp", "z", "w_before"), zip(*rows)):
            assert np.array_equal(getattr(ev, name), np.array(col)), name
        np.testing.assert_allclose(hist[cfg.horizon], art.final, atol=1e-13)
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
        expect = [(t, i) for t in range(40) for i in art.schedule.active(t)]
        assert list(zip(ev.t.tolist(), ev.proc.tolist())) == expect
        for arr in (ev.t, ev.z, ev.w_before):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_n_local_counts(self):
        art = run(make_config(horizon=31))
        expect = np.zeros(3, dtype=int)
        for t in range(31):
            expect[list(art.schedule.active(t))] += 1
        ev = art.events
        assert np.array_equal(np.bincount(ev.proc, minlength=3), expect)
        for i in range(3):  # each processor's draws take counters 0, 1, 2, ...
            assert ev.draw[ev.proc == i].tolist() == list(range(expect[i]))

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
        t_ev, proc, n = sch.descents()
        eps, _, _ = cfg.step.steps(t_ev, n)
        log = EventLog(t_ev, proc, n - 1, eps, cfg.dim, cfg.width)
        for k in range(log.n):
            log.z[k] = sample(cfg.dist, StreamHandle(cfg.seed, int(proc[k]), int(log.draw[k])))
        depth = sch.B1
        ring = np.zeros((depth, 3, 4))
        ring[0] = initial_versions(cfg)
        for t in range(6):
            dalvq_tick(t, ring, sch, log, np.flatnonzero(t_ev == t))
        art = run(cfg)
        assert np.array_equal(ring[6 % depth], art.final)
        assert np.array_equal(log.z, art.events.z)
        assert np.array_equal(log.comp, art.events.comp)
        assert np.array_equal(log.w_before, art.events.w_before)


class TestBatchedTick:
    """A tick of several events is the per-event rule, bit for bit."""

    @pytest.mark.parametrize("kappa, dim", [(1, 1), (1, 3), (3, 1), (3, 3), (4, 2)])
    @settings(max_examples=25, deadline=None)
    @given(M=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_matches_per_event_rule(self, kappa, dim, M, seed):
        sch = generate(ScheduleSpec(topology="ring", merge_period=2, delay_law="uniform",
                                    delay_value=3, activity="random-subset", base_window=8),
                       M, 2 * M, seed)
        rng = np.random.default_rng(seed)
        # few distinct values: duplicate components, ties and -0.0 everywhere
        values = np.array([0.0, -0.0, 0.25, -0.5, 1.0])
        # tick t has t % M + 1 events on distinct processors: 1 to M a tick
        procs = [np.sort(rng.choice(M, t % M + 1, replace=False)) for t in range(sch.horizon)]
        t_ev = np.repeat(np.arange(sch.horizon), [len(p) for p in procs])
        proc = np.concatenate(procs)
        eps = rng.choice([0.5, 0.25, 1.0 / 3.0], len(t_ev))
        logs = [EventLog(t_ev, proc, np.zeros_like(proc), eps, dim, kappa * dim)
                for _ in range(2)]
        z = rng.choice(values, (len(t_ev), dim))
        ring0 = np.zeros((sch.B1, M, kappa * dim))
        ring0[0] = rng.choice(values, (M, kappa * dim))
        rings = [ring0.copy(), ring0.copy()]
        for log in logs:
            log.z[:] = z
        starts = np.searchsorted(t_ev, np.arange(sch.horizon + 1))
        for t in range(sch.horizon):
            ks = range(starts[t], starts[t + 1])
            dalvq_tick(t, rings[0], sch, logs[0], ks)
            per_event_tick(t, rings[1], sch, logs[1], ks)
            for a, b in [rings, (logs[0].comp, logs[1].comp),
                         (logs[0].w_before, logs[1].w_before)]:
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
