import contextlib
import functools
import json
import math
import os
import signal
from dataclasses import replace

import numpy as np
import pytest

from dalvq.agreement import PhiLimitSeries, phi_limit_series
from dalvq import cli, diagnostics, engine, geometry
from dalvq.diagnostics import (CSV_COLUMNS, _BOUND_SAFETY, compute_metrics,
                               consensus_decay, estimate_lipschitz,
                               summarize, theta_series)
from dalvq.engine import RunConfig, StepPolicy, run
from dalvq.geometry import batched_cell_stats, min_component_separation
from dalvq.measures import DistributionSpec, make_batch
from dalvq.schedule import ScheduleSpec, generate, write_trace
from oracles import (agreement_trajectory, agreement_vector, cell_stats, collect,
                     dense_descent, split, theta)


BOX = DistributionSpec.uniform_box([0.0, 0.0], [1.0, 1.0])
RING = ScheduleSpec(topology="ring", merge_period=2, delay_law="fixed",
                    delay_value=2, activity="round-robin")


def make_config(**kw):
    base = dict(M=3, kappa=2, dim=2, horizon=60, dist=BOX, sched=RING,
                step=StepPolicy("local-clock", 0.5), seed=5, n_ref=200, cadence=10)
    base.update(kw)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def small():
    cfg = make_config()
    art = run(cfg)
    met = compute_metrics(art)
    return art, met.limits, met


# ---- the step-weight tail sum ----


class TestTheta:
    def test_hand_values(self):
        # t=1: rho^2 / 1 + rho / 1
        assert theta(1, 0.5) == pytest.approx(0.75, rel=1e-15)
        assert theta(0, 0.5) == 0.5
        assert theta(0, 0.0) == 0.0
        assert theta(3, 0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            theta_series(-1, 0.5)
        with pytest.raises(ValueError):
            theta_series(2, -0.1)

    def test_series_matches_direct(self):
        for rho in (0.0, 0.3, 0.9, 1.0):
            series = theta_series(41, rho)
            direct = [theta(t, rho) for t in range(41)]
            np.testing.assert_allclose(series, direct, rtol=1e-12, atol=1e-300)

    def test_series_matches_direct_far_out(self):
        n = 10**6
        assert theta_series(n + 1, 0.5)[n] == pytest.approx(theta(n, 0.5), rel=1e-9)

    def test_monotone_in_rho(self):
        assert theta(20, 0.6) < theta(20, 0.8) < theta(20, 0.99)

    def test_series_length_edge(self):
        assert theta_series(0, 0.5).shape == (0,)
        assert theta_series(1, 0.5)[0] == 0.5

    @pytest.mark.parametrize("T, rho, expected", [
        (8000, 0.9380173486951544, 0.001895523302464296),      # sweep-ref5k
        (8000, 0.5818110570714146, 0.00017395995791700934),    # engine-m8-disk, old rho_hat
        (2000, 0.9725434130887501, 0.01804534470292662),       # impulse-gossip-m8
    ])
    def test_benchmark_theta_final_pinned(self, T, rho, expected):
        # the report's theta_final at each benchmark workload's (T, rho_hat), seed 0
        assert theta_series(T + 1, rho)[T] == expected


# ---- the cell-statistics kernel the sweep resolves ----


def same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def field_bytes(obj) -> dict:
    """The bytes of each field of a RunMetrics or PhiLimitSeries, by name,
    the limits' fields one by one: np.asarray of a dataclass would hold a
    pointer."""
    out = {}
    for name in obj.__dataclass_fields__:
        value = getattr(obj, name)
        if isinstance(value, PhiLimitSeries):
            out.update({f"{name}.{k}": v for k, v in field_bytes(value).items()})
        else:
            out[name] = np.asarray(value).tobytes()
    return out


def kernel(w, batch):
    """(distortion, gradient) of one quantizer from the geometry kernel."""
    dist, grad, _, _ = batched_cell_stats(w[None], batch)
    return float(dist[0]), grad[0]


def test_sweep_resolves_the_geometry_kernel():
    # compute_metrics looks the kernel up on this module
    assert diagnostics.batched_cell_stats is geometry.batched_cell_stats


class TestDenseDescent:
    def test_matches_event_log(self, small):
        art, _, _ = small
        s = dense_descent(art)
        ev = collect(art)
        cfg = art.config
        expect = np.zeros_like(s)
        wb = ev.w_before.reshape(ev.n, cfg.kappa, cfg.dim)
        for k in range(ev.n):
            comp = int(ev.comp[k])
            lo = comp * cfg.dim
            expect[ev.t[k], ev.proc[k], lo:lo + cfg.dim] = \
                -ev.eps[k] * (wb[k, comp] - ev.z[k])
        assert np.array_equal(s, expect)

    def test_size_guard(self, small):
        art, _, _ = small
        with pytest.raises(ValueError):
            dense_descent(art, max_entries=10)


# ---- the metrics sweep against direct loops ----


class TestComputeMetrics:
    def test_limits_are_the_schedules(self, small):
        art, limits, _ = small
        assert field_bytes(limits) == field_bytes(phi_limit_series(art.schedule))

    def test_times_are_snapshot_times(self, small):
        art, _, met = small
        assert np.array_equal(met.times, art.snap_times)
        assert met.times[-1] == art.config.horizon

    def test_agreement_trajectory_matches_direct_sum(self, small):
        art, limits, met = small
        s = dense_descent(art)
        for k, t in enumerate(met.times):
            direct = agreement_vector(limits, art.x0, s, int(t))
            np.testing.assert_allclose(met.w_star_rec[k], direct, atol=1e-12)

    def test_pointwise_columns(self, small):
        art, limits, met = small
        cfg = art.config
        batch = art.batch
        s = dense_descent(art)
        ev = collect(art)
        for k, t in enumerate(met.times):
            t = int(t)
            w = met.w_star_rec[k].reshape(cfg.kappa, cfg.dim)
            dist, grad = kernel(w, batch)
            assert met.distortion_star[k] == pytest.approx(dist, rel=1e-12, abs=1e-15)
            assert met.grad_norm_star[k] == pytest.approx(
                float(np.linalg.norm(grad)), rel=1e-10, abs=1e-15)
            assert met.min_sep_star[k] == pytest.approx(
                min_component_separation(w), rel=1e-12)
            at_t = (ev.t == t)
            eps_star = float(np.sum(limits.phi[t, ev.proc[at_t]] * ev.eps[at_t])) \
                if t < cfg.horizon else 0.0
            assert met.eps_star[k] == pytest.approx(eps_star, rel=1e-12, abs=1e-18)
            snaps = art.snapshots[k]
            gap = max(float(np.linalg.norm(snaps[i] - snaps[j]))
                      for i in range(cfg.M) for j in range(cfg.M))
            assert met.consensus_gap[k] == pytest.approx(gap, rel=1e-12, abs=1e-15)
            agap = max(float(np.linalg.norm(snaps[i] - met.w_star_rec[k]))
                       for i in range(cfg.M))
            assert met.agreement_gap[k] == pytest.approx(agap, rel=1e-12, abs=1e-15)
            expect_bound = (math.sqrt(cfg.kappa) * cfg.M * batch.diameter *
                            _BOUND_SAFETY * limits.A_hat * art.K2 *
                            theta(t, limits.rho_hat))
            assert met.bound_normmaj[k] == pytest.approx(expect_bound, rel=1e-9)

    def test_cumulative_columns(self, small):
        art, limits, met = small
        cfg = art.config
        batch = art.batch
        s = dense_descent(art)
        ev = collect(art)
        wb = ev.w_before.reshape(ev.n, cfg.kappa, cfg.dim)
        # per-tick agreement trajectory and its gradient, once
        w_all = [agreement_vector(limits, art.x0, s, t) for t in range(cfg.horizon)]
        g_all = [kernel(w.reshape(cfg.kappa, cfg.dim), batch)[1] for w in w_all]
        eps_star_all = np.zeros(cfg.horizon)
        for e in range(ev.n):
            eps_star_all[ev.t[e]] += limits.phi[ev.t[e], ev.proc[e]] * ev.eps[e]
        for k, t in enumerate(met.times):
            t = int(t)
            seg = sum(eps_star_all[tau] * float(np.sum(g_all[tau]**2))
                      for tau in range(t))
            assert met.sum_eps_grad2[k] == pytest.approx(seg, rel=1e-10, abs=1e-18)
            dm1 = np.zeros((cfg.kappa, cfg.dim))
            dm2 = np.zeros((cfg.kappa, cfg.dim))
            for e in range(ev.n):
                te = int(ev.t[e])
                if te >= t:
                    break
                coef = limits.phi[te, ev.proc[e]] * ev.eps[e]
                h_evt = kernel(wb[e], batch)[1]
                H = np.zeros((cfg.kappa, cfg.dim))
                H[ev.comp[e]] = wb[e, ev.comp[e]] - ev.z[e]
                dm1 += coef * (g_all[te] - h_evt)
                dm2 += coef * (h_evt - H)
            assert met.sum_dm1[k] == pytest.approx(
                float(np.linalg.norm(dm1)), rel=1e-9, abs=1e-15)
            assert met.dm2_partial_norm[k] == pytest.approx(
                float(np.linalg.norm(dm2)), rel=1e-9, abs=1e-15)

    def test_envelope_formula(self, small):
        art, _, met = small
        cfg = art.config
        ev = collect(art)
        n_active = np.bincount(ev.t, minlength=cfg.horizon).astype(float)
        for k, t in enumerate(met.times):
            t = int(t)
            if t == 0:
                assert met.dm2_envelope[k] == 0.0
                continue
            acc = sum(n_active[tau] / max(tau, 1)**2 for tau in range(t))
            expect = math.sqrt(4.0 * cfg.kappa * art.batch.diameter**2 *
                               art.K2**2 * acc)
            assert met.dm2_envelope[k] == pytest.approx(expect, rel=1e-12)

    def test_step_weight_ratio_bounds(self, small):
        art, limits, met = small
        cfg = art.config
        ev = collect(art)
        eps_star_all = np.zeros(cfg.horizon)
        np.add.at(eps_star_all, ev.t, limits.phi[ev.t, ev.proc] * ev.eps)
        active = np.flatnonzero(np.bincount(ev.t, minlength=cfg.horizon) > 0)
        ratios = eps_star_all[active] * np.maximum(active, 1)
        assert met.eps_ratio_min == pytest.approx(float(ratios.min()), rel=1e-12)
        assert met.eps_ratio_max == pytest.approx(float(ratios.max()), rel=1e-12)
        assert met.eps_ratio_min_t == int(active[np.argmin(ratios)])
        assert met.eps_ratio_max_t == int(active[np.argmax(ratios)])
        assert met.eps_star_total == pytest.approx(float(eps_star_all.sum()), rel=1e-12)

    def test_martingale_sampling(self, small):
        art, limits, met = small
        cfg = art.config
        batch = art.batch
        ev = collect(art)
        assert met.mart_n == ev.n  # default cap far exceeds this log
        wb = ev.w_before.reshape(ev.n, cfg.kappa, cfg.dim)
        incs = np.empty((ev.n, cfg.kappa, cfg.dim))
        for e in range(ev.n):
            h_evt = kernel(wb[e], batch)[1]
            H = np.zeros((cfg.kappa, cfg.dim))
            H[ev.comp[e]] = wb[e, ev.comp[e]] - ev.z[e]
            incs[e] = h_evt - H
        mean = incs.mean(axis=0)
        sigma = math.sqrt(float(np.mean(np.sum((incs - mean)**2, axis=(1, 2)))))
        assert met.mart_mean_norm == pytest.approx(float(np.linalg.norm(mean)), rel=1e-10)
        assert met.mart_sigma == pytest.approx(sigma, rel=1e-10)

    def test_martingale_cap(self, small, monkeypatch):
        art, _, _ = small
        monkeypatch.setattr(diagnostics, "_MART_SAMPLES", 7)
        met = compute_metrics(art)
        assert met.mart_n == 7

    def test_chunk_independence(self, small, monkeypatch):
        art, _, met = small
        monkeypatch.setattr(engine, "_CHUNK", 7)
        alt = compute_metrics(art)
        for name in CSV_COLUMNS[1:]:
            np.testing.assert_allclose(getattr(alt, name), getattr(met, name),
                                       rtol=1e-11, atol=1e-18)
        # w* does not go through the kernel, so its chunks leave no trace
        assert same_bits(alt.w_star_rec, met.w_star_rec)

    @pytest.mark.parametrize("chunk", [256, 7])
    def test_streamed_run_is_the_collected_log(self, chunk, monkeypatch):
        # the sweep over a pass of the ticks and over the split of the
        # collected log agree in every bit
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        cfg = make_config(horizon=100, cadence=3)
        streamed = run(cfg)
        a = compute_metrics(streamed)
        kept = run(cfg)
        log = collect(kept)          # its pass keeps the versions at the horizon
        assert len(log.z) == streamed.n_events
        object.__setattr__(kept, "chunks", lambda: split(log, kept.schedule, kept.snapshots,
                                                         kept.snap_times))
        b = compute_metrics(kept)
        assert field_bytes(a) == field_bytes(b)

    def test_csv_round_trip(self, small, tmp_path):
        _, _, met = small
        path = tmp_path / "metrics.csv"
        met.to_csv(str(path))
        rows = np.genfromtxt(path, delimiter=",", names=True)
        assert tuple(rows.dtype.names) == CSV_COLUMNS
        np.testing.assert_array_equal(rows["t"], met.times)
        np.testing.assert_array_equal(rows["agreement_gap"], met.agreement_gap)
        np.testing.assert_array_equal(rows["dm2_partial_norm"], met.dm2_partial_norm)


# ---- the agreement trajectory, bit for bit ----


class KeepSigns(np.ndarray):
    """Initial limit weights whose product with x0 adds its terms from the
    first, so a column of -0.0 in x0 stays -0.0 in w*(0); a BLAS product
    starts from +0.0 and would clear it."""

    def __matmul__(self, x0):
        return functools.reduce(np.add, np.asarray(self)[:, None] * x0)


class TestAgreementTrajectoryBits:
    """w*(t) at every recorded tick equals the per-event loop of
    ``oracles.agreement_trajectory`` in every bit, sign of zero included."""

    def check(self, art):
        met = compute_metrics(art)
        assert same_bits(met.w_star_rec, agreement_trajectory(art, met.limits))
        return met

    @pytest.mark.parametrize("chunk", [256, 7, 1])
    def test_small(self, small, chunk, monkeypatch):
        # horizon 60: below one chunk of 256, and not a multiple of 7
        art, _, _ = small
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        self.check(art)

    def test_horizon_not_a_chunk_multiple(self):
        art = run(make_config(horizon=300, cadence=1))
        self.check(art)

    @pytest.mark.parametrize("chunk", [256, 7])
    def test_negative_zero_columns(self, chunk, monkeypatch):
        # the first coordinate of every component starts at -0.0 and keeps
        # it until that component first wins a descent
        art = run(make_config(cadence=1))
        x0 = art.x0.copy()
        x0[:, ::art.config.dim] = -0.0
        limits = phi_limit_series(art.schedule)
        limits = replace(limits, phi_init=limits.phi_init.view(KeepSigns))
        monkeypatch.setattr(diagnostics, "phi_limit_series", lambda schedule: limits)
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        met = self.check(replace(art, x0=x0))
        firsts = np.signbit(met.w_star_rec[:, ::art.config.dim])
        assert firsts[0].all() and firsts[1].any()

    def test_idle_ticks_at_chunk_edges(self, tmp_path, monkeypatch):
        # the trace leaves the first and last tick of every 7-tick chunk idle
        chunk, T = 7, 40
        sch = generate(RING, 3, T, seed=5)
        coeff, delay, active = sch.materialize()
        active = active.copy()
        edges = np.arange(0, T, chunk)
        active[np.concatenate([edges, edges[1:] - 1])] = False
        path = str(tmp_path / "idle-edges.jsonl")
        write_trace(replace(sch, coeff_table=coeff, delay_table=delay,
                            active_table=active, period=None), path)
        art = run(make_config(horizon=T, cadence=1,
                              sched=ScheduleSpec(topology="custom-trace", trace_path=path)))
        assert not np.isin(edges, collect(art).t).any()
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        self.check(art)


# ---- the chunk loop in a forked child ----


def one_cpu(monkeypatch):
    monkeypatch.setattr(diagnostics.os, "sched_getaffinity", lambda pid: {0})


def two_cpus(monkeypatch):
    # fork also works on one CPU, so the forked path is tested on any host
    monkeypatch.setattr(diagnostics.os, "sched_getaffinity", lambda pid: {0, 1})


@contextlib.contextmanager
def deadline(seconds):
    """TimeoutError in this process if the block runs longer than seconds;
    a forked child does not inherit the timer."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_child_only(action, inner=batched_cell_stats):
    """inner (the kernel by default), except that a process other than this
    one runs action first; the caller's own calls go through untouched."""
    caller = os.getpid()

    def inner_or_action(*args):
        if os.getpid() != caller:
            action()
        return inner(*args)

    return inner_or_action


class TestForkedSweep:
    def test_path_follows_the_cpus(self, monkeypatch):
        two_cpus(monkeypatch)
        assert diagnostics.sweep_path() == "forked"
        one_cpu(monkeypatch)
        assert diagnostics.sweep_path() == "inline"
        monkeypatch.delattr(diagnostics.os, "sched_getaffinity")
        assert diagnostics.sweep_path() == "inline"

    @pytest.mark.parametrize("chunk", [256, 7])
    def test_forked_and_inline_sweeps_agree(self, chunk, monkeypatch):
        monkeypatch.setattr(engine, "_CHUNK", chunk)
        art = run(make_config(horizon=300, cadence=3))
        two_cpus(monkeypatch)
        with deadline(60):
            forked = compute_metrics(art)
        one_cpu(monkeypatch)
        inline = compute_metrics(art)
        assert field_bytes(forked) == field_bytes(inline)
        assert_no_child_left()

    def test_ticks_stay_in_the_caller(self, monkeypatch):
        # every tick runs here, and none in the child, which never reads the
        # snapshots; every kernel call of the sweep runs in the child, the
        # recorded versions' included, since each chunk carries its own
        art = run(make_config(horizon=600))
        ticks, kernel_calls = [], []
        tick = engine.dalvq_tick

        def tick_here(t, *args):
            ticks.append(t)
            return tick(t, *args)

        monkeypatch.setattr(engine, "dalvq_tick", in_child_only(
            lambda: pytest.fail("a tick ran in the child"), tick_here))
        monkeypatch.setattr(diagnostics, "batched_cell_stats",
                            lambda W, b: kernel_calls.append(len(W)) or batched_cell_stats(W, b))
        two_cpus(monkeypatch)
        with deadline(60):
            compute_metrics(art)
        assert ticks == list(range(600))
        assert kernel_calls == []
        assert_no_child_left()

    @pytest.mark.parametrize("horizon", [0, 601])
    def test_h_at_every_recorded_version(self, horizon, monkeypatch):
        # each chunk's stack holds the versions at its recorded ticks, the
        # last chunk's the horizon's too; at horizon 0 there is no chunk and
        # the start versions are scored alone. 601 ends inside a chunk of 256
        # and between two recorded ticks of cadence 7. Every h is the
        # oracle's from exact counts, and forked and inline agree in every bit
        art = run(make_config(horizon=horizon, cadence=7))
        cfg = art.config
        counts = {}

        def recording(W, b):
            out = batched_cell_stats(W, b)
            counts.update(zip((w.tobytes() for w in W), out[2]))
            return out

        monkeypatch.setattr(diagnostics, "batched_cell_stats", recording)
        one_cpu(monkeypatch)
        inline = compute_metrics(art)
        two_cpus(monkeypatch)
        with deadline(60):
            forked = compute_metrics(art)
        assert field_bytes(forked) == field_bytes(inline)
        assert_no_child_left()
        assert inline.h_snap.shape == (len(art.snap_times), cfg.M, cfg.width)
        for k in range(len(art.snap_times)):
            for i in range(cfg.M):
                w = art.snapshots[k, i].reshape(cfg.kappa, cfg.dim)
                _, grad, n_cell, _, _ = cell_stats(w, art.batch.points)
                np.testing.assert_array_equal(counts[w.tobytes()], n_cell)
                np.testing.assert_allclose(inline.h_snap[k, i], grad.ravel(), rtol=0, atol=1e-12)

    def test_limits_run_in_the_child(self, monkeypatch):
        # forked, the limits run in the child only; inline, here, once
        art = run(make_config(horizon=600))
        calls = []
        monkeypatch.setattr(diagnostics, "phi_limit_series",
                            lambda schedule: calls.append(1) or phi_limit_series(schedule))
        two_cpus(monkeypatch)
        with deadline(60):
            compute_metrics(art)
        assert calls == []
        one_cpu(monkeypatch)
        compute_metrics(art)
        assert calls == [1]
        assert_no_child_left()

    def test_failing_limits_are_raised_here(self, monkeypatch):
        # the child fails before it reads a chunk; the caller, still sending
        # chunks after the child has exited, meets a broken pipe and raises
        # the child's exception
        art = run(make_config(horizon=3000))
        caller, send = os.getpid(), diagnostics._send
        gone_r, gone_w = os.pipe()      # the child's copy of gone_w closes when it exits
        broken, waited = [], []

        def fail():
            raise ValueError("limits failed in the child")

        def send_once_the_child_is_gone(fd, obj):
            if os.getpid() == caller and not waited:
                waited.append(True)
                os.close(gone_w)
                assert os.read(gone_r, 1) == b""        # end of file: the child has exited
                os.close(gone_r)
            try:
                send(fd, obj)
            except BrokenPipeError:
                broken.append(obj)
                raise

        monkeypatch.setattr(diagnostics, "phi_limit_series", in_child_only(fail, phi_limit_series))
        monkeypatch.setattr(diagnostics, "_send", send_once_the_child_is_gone)
        two_cpus(monkeypatch)
        with deadline(60), pytest.raises(ValueError, match="limits failed") as info:
            compute_metrics(art)
        assert "in fail" in str(info.value.__cause__)     # the child's traceback
        assert len(broken) == 1 and broken[0].b0 == 0     # the first chunk met the broken pipe
        assert_no_child_left()

    def test_child_exception_is_raised_here(self, small, monkeypatch):
        art = small[0]

        def fail():
            raise ValueError("kernel failed in the child")

        monkeypatch.setattr(diagnostics, "batched_cell_stats", in_child_only(fail))
        two_cpus(monkeypatch)
        with deadline(60), pytest.raises(ValueError, match="failed in the child") as info:
            compute_metrics(art)
        assert "in fail" in str(info.value.__cause__)     # the child's traceback
        assert_no_child_left()

    def test_unpicklable_exception_arrives_as_its_traceback(self, small, monkeypatch):
        art = small[0]

        class LocalError(Exception):      # a local class does not pickle
            pass

        def fail():
            raise LocalError("kernel failed in the child")

        monkeypatch.setattr(diagnostics, "batched_cell_stats", in_child_only(fail))
        two_cpus(monkeypatch)
        with deadline(60), pytest.raises(RuntimeError, match="LocalError: kernel failed"):
            compute_metrics(art)
        assert_no_child_left()

    def test_killed_child_is_a_typed_error(self, small, tmp_path, monkeypatch, capsys):
        self.check_killed(small[0], tmp_path, monkeypatch, capsys, "batched_cell_stats")

    def test_child_killed_during_the_limits(self, small, tmp_path, monkeypatch, capsys):
        self.check_killed(small[0], tmp_path, monkeypatch, capsys, "phi_limit_series")

    def check_killed(self, art, tmp_path, monkeypatch, capsys, during):
        # the child is killed on its first call of diagnostics.<during>
        kill = in_child_only(lambda: os.kill(os.getpid(), signal.SIGKILL),
                             getattr(diagnostics, during))
        monkeypatch.setattr(diagnostics, during, kill)
        two_cpus(monkeypatch)
        with deadline(60), pytest.raises(ChildProcessError, match="killed by signal 9"):
            compute_metrics(art)
        assert_no_child_left()
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "dalvq", **make_config().to_dict()}))
        capsys.readouterr()
        with deadline(60):
            code = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == cli.EXIT_IO
        assert capsys.readouterr().err.startswith("io error: the metrics sweep child")
        assert_no_child_left()

    def test_failing_tick_reaps_the_child(self, monkeypatch):
        art = run(make_config(horizon=700))
        tick = engine.dalvq_tick

        def failing(t, *args):
            if t == 300:        # the child has swept the first chunk by now
                raise FloatingPointError("tick 300")
            return tick(t, *args)

        monkeypatch.setattr(engine, "dalvq_tick", failing)
        two_cpus(monkeypatch)
        with deadline(60), pytest.raises(FloatingPointError, match="tick 300"):
            compute_metrics(art)
        assert_no_child_left()


# ---- merge-only decay ----


class TestConsensusDecay:
    def test_uniform_average_reaches_consensus_at_once(self):
        spec = ScheduleSpec(topology="complete", merge_period=1, delay_law="zero",
                            activity="all-active")
        sch = generate(spec, 4, 30, seed=0)
        x0 = np.random.default_rng(3).random((4, 5))
        gaps, rho = consensus_decay(sch, x0)
        assert gaps[0] > 0.1
        assert np.all(gaps[1:] <= 1e-14)
        assert rho == 0.0

    def test_ring_decays_geometrically(self):
        sch = generate(RING, 3, 80, seed=2)
        x0 = np.random.default_rng(4).random((3, 4))
        gaps, rho = consensus_decay(sch, x0)
        assert 0.0 < rho < 1.0
        assert gaps[-1] < 0.05 * gaps[0]


# ---- Lipschitz probe and the report ----


class TestEstimateLipschitz:
    def test_positive_and_bounded(self, small):
        art, _, met = small
        p = estimate_lipschitz(art, met)
        assert 0.0 < p < 100.0

    def test_respects_ratio_definition(self, small):
        # the probe can never report more than the worst pair it was shown
        art, _, met = small
        cfg = art.config
        batch = art.batch
        best = 0.0
        for k in range(len(met.times)):
            ws = met.w_star_rec[k].reshape(cfg.kappa, cfg.dim)
            h_s = kernel(ws, batch)[1]
            for i in range(cfg.M):
                wi = art.snapshots[k, i].reshape(cfg.kappa, cfg.dim)
                dw = float(np.linalg.norm(wi - ws))
                if dw <= 1e-9 * batch.diameter:
                    continue
                h_i = kernel(wi, batch)[1]
                best = max(best, float(np.linalg.norm(h_i - h_s)) / dw)
        assert estimate_lipschitz(art, met) == pytest.approx(best, rel=1e-9)

    def test_reads_h_from_the_sweep(self, small, monkeypatch):
        # h at the recorded w* is the sweep's: its chunks' rows and the
        # horizon's; the probe and the report make no kernel call
        art, _, met = small
        cfg = art.config
        for k, w in enumerate(met.w_star_rec):
            h = kernel(w.reshape(cfg.kappa, cfg.dim), art.batch)[1]
            np.testing.assert_allclose(met.h_star[k], h.ravel(), rtol=0, atol=1e-12)
        monkeypatch.setattr(diagnostics, "batched_cell_stats",
                            lambda W, b: pytest.fail("the probe called the kernel"))
        assert estimate_lipschitz(art, met) > 0.0
        assert summarize(art, met).p_hat == estimate_lipschitz(art, met)


class TestSummarize:
    def test_report_coherence(self, small):
        art, limits, met = small
        rep = summarize(art, met)
        assert rep.horizon == art.config.horizon
        assert rep.n_events == art.n_events
        assert rep.final_consensus_gap == float(met.consensus_gap[-1])
        assert rep.final_agreement_gap == float(met.agreement_gap[-1])
        ratios = met.agreement_gap / met.bound_normmaj
        assert rep.worst_bound_ratio == pytest.approx(float(np.max(ratios)), rel=1e-12)
        assert rep.eps_ratio_lower == pytest.approx(limits.eta_hat * art.K1)
        assert rep.eps_ratio_upper == pytest.approx(art.config.M * art.K2)
        assert rep.eps_star_total_floor == pytest.approx(
            limits.eta_hat * art.K1 * math.log(art.config.horizon) / 2.0)
        assert rep.bound_params["safety"] == _BOUND_SAFETY
        assert rep.bound_params["theta_final"] == pytest.approx(
            theta(art.config.horizon, limits.rho_hat), rel=1e-12)
        assert math.isfinite(rep.consensus_slope)
        assert rep.limits_resolved == limits.resolved
        d = rep.to_dict()
        assert d["horizon"] == rep.horizon and "bound_params" in d

    def test_theta_final_is_read_from_the_sweep(self, small, monkeypatch):
        # the sweep has built theta over the whole run; the report reads its
        # last value instead of building the series again
        art, limits, met = small
        T = art.config.horizon
        want = float(theta_series(T + 1, limits.rho_hat)[T])
        calls = []

        def counted(*args):
            calls.append(args)
            return theta_series(*args)

        monkeypatch.setattr(diagnostics, "theta_series", counted)
        rep = summarize(art, met)
        assert calls == []
        assert rep.bound_params["theta_final"] == met.theta_final == want

    def test_distortion_cauchy_ratio_definition(self, small):
        art, limits, met = small
        rep = summarize(art, met)
        d = met.distortion_star
        q = 3 * len(d) // 4
        expect = (d[q:].max() - d[q:].min()) / (d.max() - d.min())
        assert rep.distortion_cauchy_ratio == pytest.approx(float(expect), rel=1e-12)
