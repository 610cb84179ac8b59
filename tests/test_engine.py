import os
import tempfile
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dalvq import engine, geometry
from dalvq.agreement import _merge_plan, _merge_rows, _row_delta, merged_versions
from dalvq.engine import (EventLog, RunConfig, StepPolicy, _certify, dalvq_tick,
                          initial_versions, run)
from dalvq.errors import ConfigError
from dalvq.geometry import nearest_cell
from dalvq.measures import DistributionSpec, StreamHandle, sample
from dalvq.schedule import CommSchedule, ScheduleSpec, generate, read_trace, write_trace
from bench_workloads import WORKLOADS
from oracles import (collect, dense_merge, descent_term, generator_index, generator_sample,
                     gradient_observation, per_event_tick, split)


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
        ev = collect(art)
        assert ev.n == len(rows)
        for name, col in zip(("t", "proc", "eps", "comp", "z", "w_before"), zip(*rows)):
            assert np.array_equal(getattr(ev, name), np.array(col)), name
        np.testing.assert_allclose(hist[cfg.horizon], art.final, atol=1e-13)
        for k, t in enumerate(art.snap_times):
            np.testing.assert_allclose(hist[int(t)], art.snapshots[k], atol=1e-13)

    def test_deterministic(self):
        a, b = run(make_config()), run(make_config())
        assert np.array_equal(a.final, b.final)
        assert np.array_equal(collect(a).z, collect(b).z)
        assert np.array_equal(a.snapshots, b.snapshots)

    def test_event_log_complete_and_ordered(self):
        art = run(make_config(horizon=40))
        ev = collect(art)
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
        ev = collect(art)
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
        robin_log, dense_log = collect(robin), collect(dense)
        z_robin = robin_log.z[robin_log.proc == 0]
        z_dense = dense_log.z[dense_log.proc == 0]
        assert len(z_robin) < len(z_dense)
        assert np.array_equal(z_robin, z_dense[:len(z_robin)])

    def test_replay_from_batch_draws_batch_rows(self):
        art = run(make_config(horizon=30, replay_from_batch=True, n_ref=17))
        pts = art.batch.points
        for z in collect(art).z:
            assert np.any(np.all(pts == z, axis=1))

    def test_seed_changes_everything(self):
        a = run(make_config(seed=1))
        b = run(make_config(seed=2))
        assert not np.array_equal(a.x0, b.x0)
        assert not np.array_equal(collect(a).z, collect(b).z)


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
        kept = collect(art)
        assert np.array_equal(ring[6 % depth], art.final)
        assert np.array_equal(log.z, kept.z)
        assert np.array_equal(log.comp, kept.comp)
        assert np.array_equal(log.w_before, kept.w_before)

    def test_non_contiguous_ring_is_refused(self):
        # a tick of several events scatters through a flat view of the next
        # slot, which a non-C-contiguous ring cannot give: refused before
        # anything is written, on a merge tick (period 1) and on an identity
        # tick (tick 0 of period 2)
        for period in (1, 2):
            sch = generate(ScheduleSpec(topology="complete", merge_period=period), 2, 2, 0)
            assert _merge_plan(sch).identity[0] == (period == 2)
            ring = np.asfortranarray(np.arange(8.0).reshape(1, 2, 4))
            log = EventLog(np.array([0, 0]), np.array([0, 1]), np.zeros(2, dtype=int),
                           np.full(2, 0.5), 2, 4)
            before = ring.copy()
            with pytest.raises(ValueError, match="C-contiguous"):
                dalvq_tick(0, ring, sch, log, range(0, 2))
            assert np.array_equal(ring, before) and np.all(log.comp == -1)
            assert np.all(log.w_before == 0.0)

    @pytest.mark.parametrize("period", [1, 2])
    @pytest.mark.parametrize("n_events", [0, 1])
    def test_other_ticks_take_any_ring(self, period, n_events):
        # a tick of no event or of one writes the ring only through views of
        # its slots (its merge reads a copy of a ring without a flat view),
        # so it takes any layout: a Fortran-ordered ring and a column view of
        # a wider one advance as a C-contiguous copy does, on merge ticks and
        # identity ticks alike (period 2), over a delay
        sch = generate(ScheduleSpec(topology="ring", merge_period=period, delay_law="fixed",
                                    delay_value=1, activity="all-active"), 3, 6, 0)
        rng = np.random.default_rng(period + 2 * n_events)
        x = rng.standard_normal((sch.B1, 3, 8))
        for ring in (np.asfortranarray(x[:, :, :4]), x[:, :, 2:6]):
            assert not ring.flags.c_contiguous
            want = np.ascontiguousarray(ring)
            t_ev = np.repeat(np.arange(6), n_events)
            logs = [EventLog(t_ev, t_ev % 3, np.zeros_like(t_ev), np.full(len(t_ev), 0.25), 2, 4)
                    for _ in range(2)]
            z = rng.standard_normal((len(t_ev), 2))
            for log in logs:
                log.z[:] = z
            for t in range(6):
                ks = range(t * n_events, (t + 1) * n_events)
                dalvq_tick(t, ring, sch, logs[0], ks)
                per_event_tick(t, want, sch, logs[1], ks)
                assert ring.tobytes() == want.tobytes()
            assert np.array_equal(logs[0].comp, logs[1].comp)
            assert logs[0].w_before.tobytes() == logs[1].w_before.tobytes()


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
        window = int(rng.integers(1, 5))   # the engine's log takes certified winners too
        for t in range(sch.horizon):
            if t % window == 0:
                t1 = min(t + window, sch.horizon)
                _certify(rings[0], t, logs[0], slice(starts[t], starts[t1]), _row_delta(sch))
            ks = range(starts[t], starts[t + 1])
            dalvq_tick(t, rings[0], sch, logs[0], ks)
            per_event_tick(t, rings[1], sch, logs[1], ks)
            done = slice(0, ks.stop)
            for a, b in [rings, (logs[0].comp[done], logs[1].comp[done]),
                         (logs[0].w_before, logs[1].w_before)]:
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    @settings(max_examples=25, deadline=None)
    @given(M=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_depth_one_ring(self, M, seed):
        # zero delays give B1 = 1, where the next ring slot is the current
        # one: the tick must score and record before the merge writes
        sch = generate(ScheduleSpec(topology="complete", merge_period=2), M, 12, seed)
        assert sch.B1 == 1
        rng = np.random.default_rng(seed)
        kappa, dim = 3, 2
        procs = [np.sort(rng.choice(M, rng.integers(0, M + 1), replace=False))
                 for _ in range(sch.horizon)]
        t_ev = np.repeat(np.arange(sch.horizon), [len(p) for p in procs])
        proc = np.concatenate(procs).astype(np.int64)
        eps = rng.choice([0.5, 0.25, 1.0 / 3.0], len(t_ev))
        logs = [EventLog(t_ev, proc, np.zeros_like(proc), eps, dim, kappa * dim)
                for _ in range(2)]
        z = rng.standard_normal((len(t_ev), dim))
        for log in logs:
            log.z[:] = z
        x0 = rng.standard_normal((M, kappa * dim))
        one, two = x0[None].copy(), np.stack([x0, np.zeros_like(x0)])
        starts = np.searchsorted(t_ev, np.arange(sch.horizon + 1))
        for t in range(sch.horizon):
            ks = range(starts[t], starts[t + 1])
            dalvq_tick(t, one, sch, logs[0], ks)
            per_event_tick(t, two, sch, logs[1], ks)
            assert one[0].tobytes() == two[(t + 1) % 2].tobytes()
        assert np.array_equal(logs[0].comp, logs[1].comp)
        assert logs[0].w_before.tobytes() == logs[1].w_before.tobytes()


# ---- certified winners ----


def _schedule(coeff, delay, B1):
    """A periodic schedule of the given tables, one row or (P, M, M), every
    processor active."""
    M = np.shape(coeff)[-1]
    coeff = np.array(coeff, dtype=float).reshape(-1, M, M)
    return CommSchedule(M=M, horizon=4, alpha=float(coeff[coeff > 0].min(initial=1.0)), B1=B1,
                        B2=1, B3=1, coeff_table=coeff, delay_table=np.reshape(delay, coeff.shape),
                        active_table=np.ones(coeff.shape[:2], dtype=bool), period=len(coeff))


def _windows(sch, ring, log, window):
    """Certify each window's winners at its first tick, then run its ticks
    by the per-event rule; returns the certified winners (-1 where none)
    and the scalar ones, event by event."""
    T = int(log.t[-1]) + 1 if log.n else 0
    starts = np.searchsorted(log.t, np.arange(T + 1))
    certified = np.full(log.n, -1)
    for t0 in range(0, T, window):
        ks = slice(starts[t0], starts[min(t0 + window, T)])
        _certify(ring, t0, log, ks, _row_delta(sch))
        certified[ks] = log.comp[ks]
        for t in range(t0, min(t0 + window, T)):
            per_event_tick(t, ring, sch, log, range(starts[t], starts[t + 1]))
    return certified, log.comp.copy()


def _log(t, proc, eps, z, width):
    z = np.array(z, dtype=float)
    z = z if z.ndim == 2 else z.reshape(len(t), -1)
    log = EventLog(np.array(t), np.array(proc), np.zeros(len(t), dtype=int),
                   np.full(len(t), eps, dtype=float), z.shape[1], width)
    log.z[:] = z
    return log


@st.composite
def certify_cases(draw):
    """A schedule, a start ring and a log of events on it: generated rings
    and complete graphs (zero delays give B1 = 1), or a custom trace whose
    decimal rows miss 1; components and samples on a grid of few values
    (duplicates, ties, -0.0), at random, or on midpoints of the start
    components, a few ulps off, with steps too small to undo the tie."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    M, kappa, dim = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    T = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["ring", "complete", "decimal"]))
    if kind == "decimal":
        P, B1 = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        coeff = rng.choice([0.0, 0.1, 0.2, 0.3, 0.7, 1.0 / 3.0], (P, M, M))
        sch = _schedule(coeff, rng.integers(0, B1, (P, M, M)), B1)
    else:
        delays = dict(delay_law="uniform", delay_value=3) if kind == "ring" else {}
        spec = ScheduleSpec(topology=kind, merge_period=draw(st.integers(1, 3)),
                            activity="all-active", **delays)
        sch = generate(spec, M, T, seed)
    values = draw(st.sampled_from(["grid", "normal", "near-tie"]))
    x0 = rng.choice([0.0, -0.0, 0.25, -0.5, 1.0], (M, kappa, dim)) if values == "grid" \
        else rng.standard_normal((M, kappa, dim))
    procs = [np.sort(rng.choice(M, rng.integers(0, M + 1), replace=False)) for _ in range(T)]
    t_ev = np.repeat(np.arange(T), [len(p) for p in procs]).astype(np.int64)
    proc = np.concatenate(procs).astype(np.int64)
    if values == "grid":
        z = rng.choice([0.0, -0.0, 0.25, -0.5, 1.0], (len(t_ev), dim))
    elif values == "normal":
        z = rng.standard_normal((len(t_ev), dim))
    else:
        pair = rng.integers(0, kappa, (len(t_ev), 2))
        z = 0.5 * (x0[proc, pair[:, 0]] + x0[proc, pair[:, 1]])
        z += rng.integers(-3, 4, z.shape) * np.spacing(z)
    eps = rng.choice([0.5, 1.0 / 3.0, 1e-3, 1e-9 if values == "near-tie" else 1e-6], len(t_ev))
    ring = np.zeros((sch.B1, M, kappa * dim))
    ring[0] = x0.reshape(M, -1)
    return sch, ring, _log(t_ev, proc, eps, z, kappa * dim), draw(st.integers(1, 8))


class TestCertifiedWinners:
    """A certified winner is the winner nearest_cell gives at the event's tick."""

    @settings(max_examples=300, deadline=None)
    @given(case=certify_cases())
    def test_certified_winners_are_the_scalar_rule(self, case):
        sch, ring, log, window = case
        certified, scalar = _windows(sch, ring, log, window)
        sure = certified >= 0
        assert np.array_equal(certified[sure], scalar[sure])

    def test_far_winners_certify(self):
        # well-separated components, small steps: every winner is certified
        sch = generate(ScheduleSpec(topology="ring", merge_period=1, delay_law="fixed",
                                    delay_value=2, activity="all-active"), 3, 8, 1)
        ring = np.zeros((sch.B1, 3, 4))
        ring[0] = [0.0, 0.0, 10.0, 10.0]
        t = np.repeat(np.arange(8), 3)
        z = np.tile([[1.0, 1.0], [9.0, 9.0], [0.5, -0.5]], (8, 1))
        certified, scalar = _windows(sch, ring, _log(t, np.tile(np.arange(3), 8), 1e-3, z, 4), 8)
        assert np.array_equal(certified, scalar)
        assert np.array_equal(scalar, np.tile([0, 1, 0], 8))

    def test_steps_grow_the_bound(self):
        # the tick-0 step carries component 1 from 1 to 9.1, so tick 1's
        # sample at 0.6, nearest to component 1 at the window start, is not
        sch = _schedule([[1.0]], [[0]], 1)
        ring = np.array([[[0.0, 1.0]]])
        certified, scalar = _windows(sch, ring, _log([0, 1], [0, 0], 0.9, [10.0, 0.6], 2), 2)
        assert scalar.tolist() == [1, 0]
        assert certified.tolist() == [1, -1]

    def test_rows_that_miss_one(self):
        # a row summing to 0.5 halves both components at tick 0: the sample
        # at 1.4 is nearest to component 0 at 1 before, to component 1 after
        sch = _schedule([[0.5]], [[0]], 1)
        assert _row_delta(sch) == 0.5
        ring = np.array([[[1.0, 2.0]]])
        certified, scalar = _windows(sch, ring, _log([1], [0], 0.5, [1.4], 2), 2)
        assert scalar.tolist() == [1] and certified.tolist() == [-1]

    def test_delayed_versions_bound_the_box(self):
        # the merge at tick 1 reads the version at time 0, which the ring
        # still holds: component 1 goes back from 1 to 5, so the sample at
        # 0.6, nearest to it at the window start (tick 1), is not at tick 2
        sch = _schedule([[1.0]], [[1]], 2)
        ring = np.array([[[0.0, 5.0]], [[0.0, 1.0]]])
        log = _log([2], [0], 0.5, [0.6], 2)
        _certify(ring, 1, log, slice(0, 1), _row_delta(sch))
        certified = log.comp.tolist()
        for t in (1, 2):
            per_event_tick(t, ring, sch, log, range(0, 1) if t == 2 else range(0))
        assert log.comp.tolist() == [0] and certified == [-1]

    def test_merge_rounding_flips_a_near_tie(self):
        # three equal versions merged with weights 1/3 (whose sum rounds to
        # exactly 1) each come out one ulp lower, which moves a sample
        # 1.1e-16 nearer to component 0 over to component 1
        sch = _schedule(np.full((3, 3), 1.0 / 3.0), np.zeros((3, 3), dtype=int), 1)
        assert _row_delta(sch) == 0.0
        p, q = float.fromhex("0x1.b5e04f5a70a3cp-1"), float.fromhex("0x1.b8fa268155d33p-1")
        z = float.fromhex("0x1.b76d3aede33b7p-1")
        ring = np.tile([p, q], (1, 3, 1))
        certified, scalar = _windows(sch, ring, _log([1], [0], 1e-9, [z], 2), 2)
        assert nearest_cell(np.array([z]), np.array([[p], [q]])) == 0
        assert scalar.tolist() == [1] and certified.tolist() == [-1]

    @pytest.mark.parametrize("name, ceiling", [("sweep-ref5k", 0.5), ("engine-m8-disk", 0.15),
                                               ("impulse-gossip-m8", 0.15)])
    def test_most_winners_skip_the_scalar_rule(self, name, ceiling, monkeypatch):
        # measured at 2,000 ticks: 37% of the events reach nearest_cell on
        # sweep-ref5k (its first ticks take large steps), 8.9% on
        # engine-m8-disk and 9.2% on impulse-gossip-m8
        cfg, _ = WORKLOADS[name].config_for(0)
        cfg = {k: v for k, v in cfg.items() if k != "mode"}
        scored = []
        scalar = engine.nearest_cell
        monkeypatch.setattr(engine, "nearest_cell",
                            lambda z, w: scored.append(len(np.atleast_2d(z))) or scalar(z, w))
        art = run(RunConfig.from_dict({**cfg, "horizon": 2000}))
        assert art.final.shape == (art.config.M, art.config.width)
        assert 0 < sum(scored) <= ceiling * art.n_events


# ---- the ticks, chunk by chunk ----


def _schedules():
    """A periodic round-robin ring, a random-subset one, a dense trace of it
    idle for its first ten ticks, and one that never descends."""
    robin = generate(RING, 3, 50, seed=1)
    subset = generate(ScheduleSpec(topology="ring", merge_period=2, delay_law="uniform",
                                   delay_value=3, activity="random-subset", base_window=8),
                      4, 61, seed=2)
    coeff, delay, active = subset.materialize()
    active = active.copy()
    active[:10] = False
    dense = replace(subset, coeff_table=coeff, delay_table=delay, active_table=active,
                    period=None)
    idle = replace(robin, active_table=np.zeros_like(robin.active_table))
    return [robin, subset, dense, idle]


class TestPlanWindows:
    @pytest.mark.parametrize("k", range(4))
    def test_window_is_the_slice_of_the_plan(self, k):
        sch = _schedules()[k]
        t, proc, n = sch.descents()
        for t0, t1 in [(0, 0), (0, 7), (5, 5), (7, 19), (13, sch.horizon), (0, sch.horizon)]:
            keep = (t >= t0) & (t < t1)
            got = sch.descents(t0, t1)
            for a, b in zip(got, (t[keep], proc[keep], n[keep])):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("k", range(4))
    def test_active_count(self, k):
        sch = _schedules()[k]
        for t in range(sch.horizon + 1):
            want = np.zeros(sch.M, dtype=int)
            for u in range(t):
                want[list(sch.active(u))] += 1
            assert np.array_equal(sch.active_count(t), want)


class TestChunks:
    @pytest.mark.parametrize("size", [256, 7, 1])
    def test_pass_is_the_collected_log(self, size, monkeypatch):
        # the chunks of a pass hold the log's rows and the versions at their
        # recorded ticks, and the pass ends on its versions
        monkeypatch.setattr(engine, "_CHUNK", size)
        cfg = make_config(horizon=45, cadence=4)
        live = run(cfg)
        chunks = [(b0, b1, e0, starts.copy(), ev, snaps.copy())
                  for b0, b1, e0, starts, ev, snaps in live.chunks()]
        art = run(cfg)
        log = collect(art)
        assert [c[:2] for c in chunks] == [(b0, min(b0 + size, 45)) for b0 in range(0, 45, size)]
        again = split(log, art.schedule, art.snapshots, art.snap_times)
        for (b0, b1, e0, starts, ev, snaps), other in zip(chunks, again):
            assert np.array_equal(starts, np.searchsorted(log.t, np.arange(b0, b1 + 1)) - e0)
            assert ev.n == starts[-1] == other.events.n
            for name in ("t", "proc", "draw", "eps", "comp", "z", "w_before"):
                assert getattr(ev, name).tobytes() == getattr(log, name)[e0:e0 + ev.n].tobytes()
            assert snaps.tobytes() == other.snaps.tobytes()
        assert sum(c[4].n for c in chunks) == log.n == live.n_events
        assert np.concatenate([c[5] for c in chunks]).tobytes() == art.snapshots.tobytes()
        for name in ("snapshots", "final", "K1", "K2"):
            assert np.array_equal(getattr(live, name), getattr(art, name))

    @pytest.mark.parametrize("k", range(4))
    def test_step_constants_over_the_chunks(self, k, monkeypatch):
        # empty chunks fold nothing in: the idle start keeps K1 above c
        sch = _schedules()[k]
        t, _, n = sch.descents()
        monkeypatch.setattr("dalvq.engine.generate", lambda *a: sch)
        monkeypatch.setattr(engine, "_CHUNK", 5)
        art = run(make_config(M=sch.M, horizon=sch.horizon,
                              step=StepPolicy("local-clock", 0.45)))
        list(art.chunks())
        assert (art.K1, art.K2) == StepPolicy("local-clock", 0.45).steps(t, n)[1:]

    def test_ticks_run_once_per_reader(self, monkeypatch):
        # run() takes no tick and knows the plan's count; one pass serves the versions
        calls = []
        tick = engine.dalvq_tick
        monkeypatch.setattr(engine, "dalvq_tick", lambda t, *a: calls.append(t) or tick(t, *a))
        monkeypatch.setattr(engine, "_CHUNK", 6)
        for sch in _schedules():
            calls.clear()
            monkeypatch.setattr("dalvq.engine.generate", lambda *a: sch)
            art = run(make_config(M=sch.M, horizon=sch.horizon))
            assert calls == [] and art.n_events == len(sch.descents()[0])
            list(art.chunks())
            assert calls == list(range(sch.horizon))
            art.final, art.snapshots, art.K1, art.K2
            assert len(calls) == sch.horizon

    def test_first_chunk_is_drawn_alone(self, monkeypatch):
        # a consumer beside the ticks waits for the first chunk, so its
        # samples are one call of its own; the rest share one table
        sizes = []
        draw = engine.sample
        monkeypatch.setattr(engine, "sample", lambda spec, at: sizes.append(np.size(at.counter))
                            or draw(spec, at))
        monkeypatch.setattr(engine, "_CHUNK", 6)
        art = run(make_config(horizon=40))
        list(art.chunks())
        assert sizes == [6, 34]

    def test_pass_counts_each_window_once(self, monkeypatch):
        # a dense trace's cycle is its horizon, so recounting each window's
        # start from tick 0 (CommSchedule.active_count) would sum about
        # T^2 / 512 rows of the active table over a pass; the pass carries
        # the counts instead and sums no more rows than the horizon
        from dalvq.schedule import CommSchedule
        T = 8000
        sch = _schedules()[1]
        coeff, delay, active = sch.materialize(T)
        dense = replace(sch, horizon=T, coeff_table=coeff, delay_table=delay,
                        active_table=active, period=None)
        rows = []
        count = CommSchedule.active_count
        monkeypatch.setattr(CommSchedule, "active_count",
                            lambda self, t: rows.append(t % self.cycle) or count(self, t))
        monkeypatch.setattr("dalvq.engine.generate", lambda *a: dense)
        art = run(make_config(M=dense.M, horizon=T, cadence=T))
        ends = [(ch.b0, ch.events.n) for ch in art.chunks()]
        assert len(ends) == -(-T // 256) and sum(n for _, n in ends) == art.n_events
        assert sum(rows) <= T, len(rows)

    def test_replaced_run_runs_from_its_own_fields(self):
        # dataclasses.replace gives a run of the new fields, with an end of its own
        art = run(make_config(horizon=45, cadence=4))
        final, snapshots = art.final, art.snapshots
        moved = replace(art, x0=art.x0 + 0.1)
        first = next(moved.chunks()).events
        assert first.t[0] == 0 and first.w_before[0].tobytes() == moved.x0[first.proc[0]].tobytes()
        again = engine.RunArtifacts(art.config, art.schedule, art.batch, moved.x0, art.snap_times)
        assert moved.final.tobytes() == again.final.tobytes()
        assert not np.array_equal(moved.final, final)
        fewer = replace(art, snap_times=art.snap_times[-2:])
        assert fewer.snapshots.tobytes() == snapshots[-2:].tobytes()
        assert fewer.final.tobytes() == final.tobytes()

    def test_versions_alone_keep_no_log(self):
        art = run(make_config())
        assert art.final.shape == (3, 4) and art.snapshots.shape == (4, 3, 4)


# ---- the window plans ----


@st.composite
def window_cases(draw):
    """A run's pass over a schedule and start versions, with the window
    and chunk lengths to take it by. The schedules are generated rings,
    whose delays the first ticks clamp, complete graphs (zero delays give
    B1 = 1), or periodic tables whose decimal rows miss 1, some of them the
    identity; merge periods above 1 add identity ticks, random subsets
    ticks of no event, one or several. The samples are replayed from a
    batch of grid values (duplicates, ties, -0.0), of normal ones, or of
    midpoints of the start components a few ulps off, so that windows
    certify all, some or none of their winners."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    M, kappa, dim = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    T = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["ring", "complete", "decimal"]))
    if kind == "decimal":
        P, B1 = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        coeff = rng.choice([0.0, 0.1, 0.2, 0.3, 0.7, 1.0 / 3.0], (P, M, M))
        delay = rng.integers(0, B1, (P, M, M))
        eye = rng.random(P) < 0.3
        coeff[eye], delay[eye] = np.eye(M), 0
        sch = CommSchedule(M=M, horizon=T, alpha=float(coeff[coeff > 0].min(initial=1.0)),
                           B1=B1, B2=1, B3=1, coeff_table=coeff, delay_table=delay,
                           active_table=rng.random((P, M)) < 0.7, period=P)
    else:
        delays = dict(delay_law="uniform", delay_value=3) if kind == "ring" else {}
        spec = ScheduleSpec(topology=kind, merge_period=draw(st.integers(1, 3)),
                            activity=draw(st.sampled_from(["all-active", "random-subset"])),
                            base_window=8, **delays)
        sch = generate(spec, M, T, seed)
    grid = [0.0, -0.0, 0.25, -0.5, 1.0]
    values = draw(st.sampled_from(["grid", "normal", "near-tie"]))
    x0 = rng.choice(grid, (M, kappa, dim)) if values == "grid" \
        else rng.standard_normal((M, kappa, dim))
    if values == "grid":
        points = rng.choice(grid, (16, dim))
    elif values == "normal":
        points = rng.standard_normal((16, dim))
    else:
        i, pair = rng.integers(0, M, 16), rng.integers(0, kappa, (16, 2))
        points = 0.5 * (x0[i, pair[:, 0]] + x0[i, pair[:, 1]])
        points += rng.integers(-3, 4, points.shape) * np.spacing(points)
    step = StepPolicy(draw(st.sampled_from(["global-clock", "local-clock"])),
                      draw(st.sampled_from([0.5, 1.0 / 3.0, 1e-3, 1e-9])))
    cfg = RunConfig(M=M, kappa=kappa, dim=dim, horizon=T,
                    dist=DistributionSpec.uniform_box([0.0] * dim, [1.0] * dim), sched=RING,
                    step=step, seed=seed, n_ref=16, replay_from_batch=True)
    batch = geometry.SampleBatch(points, points.min(axis=0), points.max(axis=0), 1.0)
    snap_times = np.union1d(rng.integers(0, T + 1, 3), [T])
    art = engine.RunArtifacts(cfg, sch, batch, x0.reshape(M, -1), snap_times)
    return art, draw(st.integers(1, 8)), draw(st.sampled_from([5, 256]))


class TestPlannedWindows:
    """RunArtifacts.chunks, which plans each window's ticks at its start, is
    the per-event rule bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=window_cases())
    def test_pass_is_the_per_event_rule(self, case):
        art, window, size = case
        with mock.patch.object(engine, "_WINDOW", window), \
                mock.patch.object(engine, "_CHUNK", size):
            got = collect(art)
        snapshots, final = art.snapshots, art.final
        sch, cfg = art.schedule, art.config
        log = EventLog(got.t, got.proc, got.draw, got.eps, cfg.dim, cfg.width)
        log.z[:] = got.z
        ring = np.zeros((sch.B1, cfg.M, cfg.width))
        ring[0] = art.x0
        starts = np.searchsorted(log.t, np.arange(cfg.horizon + 1))
        want = []
        for t in range(cfg.horizon + 1):
            if t in art.snap_times:
                want.append(ring[t % sch.B1].copy())
            if t < cfg.horizon:
                per_event_tick(t, ring, sch, log, range(starts[t], starts[t + 1]))
        assert np.array_equal(got.comp, log.comp)
        assert got.w_before.tobytes() == log.w_before.tobytes()
        assert snapshots.tobytes() == np.array(want).reshape(snapshots.shape).tobytes()
        assert final.tobytes() == ring[cfg.horizon % sch.B1].tobytes()


def _row_rule_schedules():
    """Generated schedules and traces: a ring with delays (the first ticks
    clamp them), a complete graph at merge period 2 (identity ticks, B1 =
    1), slow gossip, the dense traces of the three, and a dense custom trace
    whose decimal rows miss 1."""
    specs = [(ScheduleSpec(topology="ring", merge_period=2, delay_law="uniform",
                           delay_value=3, activity="random-subset", base_window=8), 4, 30),
             (ScheduleSpec(topology="complete", merge_period=2), 3, 12),
             (ScheduleSpec(topology="random-symmetric-gossip", merge_period=2,
                           delay_law="uniform", delay_value=4, activity="random-subset",
                           base_window=60), 5, 60)]
    out = [generate(spec, M, T, 1) for spec, M, T in specs]
    with tempfile.TemporaryDirectory() as tmp:
        for k, sch in enumerate(list(out)):
            path = os.path.join(tmp, f"trace-{k}.jsonl")
            write_trace(sch, path)
            out.append(read_trace(path))
    rng = np.random.default_rng(3)
    coeff = rng.choice([0.0, 0.1, 0.2, 0.3, 0.7], (9, 4, 4))
    coeff[::4] = np.eye(4)
    delay = rng.integers(0, 3, (9, 4, 4))
    delay[::4] = 0
    out.append(CommSchedule(M=4, horizon=9, alpha=0.1, B1=3, B2=1, B3=1, coeff_table=coeff,
                            delay_table=delay, active_table=np.ones((9, 4), dtype=bool)))
    return out


class TestOneRowRule:
    """The engine's planned merge and merged_versions read the same rows."""

    @pytest.mark.parametrize("k", range(7))
    @pytest.mark.parametrize("width", [1, 3])
    def test_planned_merge_is_merged_versions(self, k, width):
        # windows from tick 0 (delays clamped) over a whole cycle, from the
        # horizon over a cycle (the tables repeat), and far past it; each is
        # planned once at its start, as RunArtifacts.chunks does, and advanced
        sch = _row_rule_schedules()[k]
        merge, B = _merge_plan(sch), sch.B1
        span = sch.cycle + merge.max_delay + 2
        rng = np.random.default_rng(k)
        no_events = EventLog(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                             np.zeros(0, dtype=np.int64), np.zeros(0), 1, width)
        identity = 0
        for t0 in (0, sch.horizon, 10**6 + 7):
            ring = rng.standard_normal((B, sch.M, width))
            plan = engine._plan(sch, ring, t0, t0 + span, no_events, 0, 0)
            rows = _merge_rows(merge, np.arange(t0, t0 + span), B)
            for t in range(t0, t0 + span):
                assert np.array_equal(rows[t - t0], _merge_rows(merge, t, B))
                want = merged_versions(sch, ring, t).tobytes()
                assert want == dense_merge(sch, ring, t).tobytes()
                dalvq_tick(t, ring, sch, no_events, range(0), plan)
                assert ring[(t + 1) % B].tobytes() == want
                identity += bool(merge.identity[t % sch.cycle])
        assert identity > 0 or not merge.identity.any()
