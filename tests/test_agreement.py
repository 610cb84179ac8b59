import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dalvq.agreement
from dalvq.agreement import (_WINDOW, _adjoint, _base_limits, _impulse_blocks, _merge_plan,
                             compute_phi, merged_versions, phi_limit_series)
from dalvq.diagnostics import consensus_decay
from dalvq.engine import RunConfig, StepPolicy, run
from dalvq.errors import ConfigError
from dalvq.measures import DistributionSpec
from dalvq.schedule import (CommSchedule, ScheduleSpec, generate, read_trace, validate,
                            write_trace)
from oracles import (agreement_vector, dense_descent, dense_merge, envelope_blocks, envelope_log_a,
                     phi_family, step_matrix)
from test_workload_bytes import WORKLOADS


BOX = DistributionSpec.uniform_box([0.0, 0.0], [1.0, 1.0])


def ring_schedule(M=3, horizon=60, seed=4, delay=2):
    spec = ScheduleSpec(topology="ring", merge_period=2, delay_law="fixed",
                        delay_value=delay, activity="round-robin")
    return generate(spec, M, horizon, seed)


def identity_schedule(M=2, horizon=4):
    # nobody ever merges: impulses can never spread
    return CommSchedule(M=M, horizon=horizon, alpha=1.0, B1=1, B2=horizon, B3=1,
                        coeff_table=np.tile(np.eye(M), (horizon, 1, 1)),
                        delay_table=np.zeros((horizon, M, M), dtype=np.int64),
                        active_table=np.ones((horizon, M), dtype=bool), period=None)


def gossip_schedule(M=4, horizon=150, seed=3):
    spec = ScheduleSpec(topology="random-symmetric-gossip", merge_period=1,
                        delay_law="uniform", delay_value=4, activity="random-subset",
                        base_window=12)
    return generate(spec, M, horizon, seed)


def response_series(sch, tau, n_merges, limit=None):
    """Reference: the impulse injected at tau run on its own, one merge at a
    time on the schedule repeated past its horizon, for n_merges merges or,
    given its limit (M,), until every version in the ring, current and
    history, lies within 1e-14 of it. Returns the weights at times tau + 1,
    tau + 2, ..."""
    M, depth = sch.M, sch.B1
    ring = np.zeros((depth, M, M))
    ring[(tau + 1) % depth] = np.eye(M)
    out = [np.eye(M)]
    for u in range(tau + 1, tau + 1 + n_merges):
        if limit is not None and np.max(np.abs(ring - limit)) < 1e-14:
            break
        x = merged_versions(sch, ring, u)
        ring[(u + 1) % depth] = x
        out.append(x)
    return np.array(out)


def complete_schedule(delay_law, horizon=1500):
    # every processor merges all others each tick: with delays, the current
    # versions' spread dips far below the spread over the ring
    spec = ScheduleSpec(topology="complete", merge_period=1, delay_law=delay_law,
                        delay_value=3, activity="all-active")
    return generate(spec, 8, horizon, seed=5)


def receiver_means(sch, t, taus):
    """Receiver means of the exact weights at time t, for tau in [-1, taus - 1),
    and their largest spread across receivers."""
    tab = compute_phi(sch, t)
    phi = tab.phi[:taus]
    return np.mean(phi, axis=1), float(np.max(np.ptp(phi, axis=1)))


def base_taus(sch):
    """Injection ticks phi_limit_series runs directly: one period past the
    startup clamp for a periodic schedule, every tick of a dense one."""
    if sch.period is None:
        return range(-1, sch.horizon)
    tau0 = sch.period * math.ceil(sch.B1 / sch.period)
    return range(-1, min(tau0 + sch.period, sch.horizon))


# random small schedules: every topology, activity and delay law, on rings
# up to two slots deeper than their delays need
GENERATED = dict(M=st.integers(1, 4), horizon=st.integers(2, 40),
                 topology=st.sampled_from(["ring", "complete", "random-symmetric-gossip"]),
                 activity=st.sampled_from(["all-active", "round-robin", "random-subset"]),
                 law=st.sampled_from(["fixed", "uniform"]), value=st.integers(1, 4),
                 period=st.integers(1, 3), window=st.integers(4, 9),
                 seed=st.integers(0, 2**20), deeper=st.integers(0, 2))


def generated_schedule(M, horizon, topology, activity, law, value, period, window, seed,
                       deeper):
    """The schedule of one GENERATED draw; a ring deeper than the delays need
    (B1 raised by `deeper`) is valid."""
    spec = ScheduleSpec(topology=topology, merge_period=period, delay_law=law,
                        delay_value=value, activity=activity, base_window=window)
    try:
        sch = generate(spec, M, horizon, seed)
    except ConfigError:   # too few mergeable processors for gossip
        assume(False)
    return dataclasses.replace(sch, B1=sch.B1 + deeper)


# ---- the merge primitive ----


def fixed_schedule(coeff, delay, B1):
    """One merge table repeated every tick."""
    M = len(coeff)
    return CommSchedule(M=M, horizon=4, alpha=float(np.min(coeff[coeff > 0])), B1=B1, B2=1,
                        B3=1, coeff_table=np.array([coeff]), delay_table=np.array([delay]),
                        active_table=np.ones((1, M), dtype=bool), period=1)


def trace_schedule(horizon=20, seed=3):
    # a gossip schedule read back as a dense trace: its cycle is the horizon
    coeff, delay, active = gossip_schedule(M=4, horizon=horizon, seed=seed).materialize()
    return CommSchedule(M=4, horizon=horizon, alpha=float(np.min(coeff[coeff > 0])),
                        B1=int(delay.max()) + 1, B2=horizon, B3=1, coeff_table=coeff,
                        delay_table=delay, active_table=active, period=None)


class TestMergedVersions:
    def test_hand_example_with_delay(self):
        # ring holds versions for times 0 and 1; processor 0 mixes its current
        # value with processor 1's old one
        ring = np.zeros((2, 2, 1))
        ring[0] = [[1.0], [10.0]]   # time 0
        ring[1] = [[2.0], [20.0]]   # time 1
        sch = fixed_schedule(np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([[0, 1], [0, 0]]), 2)
        out = merged_versions(sch, ring, t=1)
        assert out[0, 0] == 0.5 * 2.0 + 0.5 * 10.0
        assert out[1, 0] == 20.0

    def test_identity_coeff_is_identity(self):
        ring = np.random.default_rng(0).random((3, 4, 5))
        sch = fixed_schedule(np.eye(4), np.zeros((4, 4), dtype=int), 1)
        out = merged_versions(sch, ring, t=2)
        assert np.array_equal(out, ring[2])

    def test_step_is_convex_in_buffered_versions(self):
        sch = ring_schedule(M=4, horizon=30, delay=2)
        rng = np.random.default_rng(1)
        ring = np.zeros((sch.B1, 4, 3))
        ring[0] = rng.random((4, 3))
        for t in range(30):
            lo = ring.min(axis=(0, 1)) - 1e-12
            hi = ring.max(axis=(0, 1)) + 1e-12
            ring[(t + 1) % sch.B1] = x = merged_versions(sch, ring, t)
            assert np.all(x >= lo) and np.all(x <= hi)

    def test_depth_below_delay_bound_rejected(self):
        sch = ring_schedule(delay=3)
        with pytest.raises(ValueError):
            merged_versions(sch, np.zeros((2, 3, 2)), 0)


@st.composite
def merge_cases(draw):
    """A schedule, a ring of depth B1 to B1 + 2 (or a column view of a wider
    one, as the impulse pass merges) and ticks to merge at: the clamped
    start, the horizon and one cycle past it, and far past it."""
    M = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["ring", "complete", "random-symmetric-gossip", "custom"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "custom" or (kind == "random-symmetric-gossip" and M < 2):
        # random row-stochastic rows, some the identity, some with a
        # diagonal delay, and delays on zero coefficients too
        P, dmax = draw(st.integers(1, 6)), draw(st.integers(0, 3))
        keep = rng.random((P, M, M)) < rng.random((P, 1, 1))
        keep[:, np.arange(M), np.arange(M)] = True
        coeff = keep * rng.random((P, M, M))
        coeff /= coeff.sum(axis=-1, keepdims=True)
        ident = rng.random((P, M)) < 0.3
        coeff[ident] = np.eye(M)[np.nonzero(ident)[1]]
        coeff[rng.random(P) < 0.4] = np.eye(M)
        delay = rng.integers(0, dmax + 1, (P, M, M))
        delay[:, np.arange(M), np.arange(M)] *= rng.random((P, M)) < 0.2
        dense = draw(st.booleans())   # a trace's tables span its horizon
        sch = CommSchedule(M=M, horizon=P if dense else draw(st.integers(0, 2 * P)),
                           alpha=float(coeff[coeff > 0].min()), B1=dmax + 1, B2=1, B3=1,
                           coeff_table=coeff, delay_table=delay,
                           active_table=np.ones((P, M), dtype=bool),
                           period=None if dense else P)
    else:
        law = draw(st.sampled_from(["zero", "fixed", "uniform"]))
        activity = draw(st.sampled_from(["all-active", "round-robin"]))
        if kind == "random-symmetric-gossip" and M < 3:   # too few to pair off the active one
            activity = "all-active"
        spec = ScheduleSpec(topology=kind, merge_period=draw(st.integers(1, 3)), delay_law=law,
                            delay_value={"zero": 0, "fixed": 2, "uniform": 4}[law],
                            activity=activity, base_window=6)
        sch = generate(spec, M, draw(st.integers(0, 12)), int(rng.integers(2**31)))
    B = sch.B1 + draw(st.integers(0, 2))
    # width 1 often: einsum sums it in SIMD lanes, where a term's position counts
    D, pad = draw(st.sampled_from([1, 1, 2, 3, 4])), draw(st.sampled_from([0, 0, 3]))
    # normal numbers of many scales, +-0.0 and subnormals
    wide = rng.standard_normal((B, M, D + pad)) * 10.0 ** rng.integers(-9, 10, (B, M, D + pad))
    kind_of = rng.integers(0, 6, wide.shape)
    wide[kind_of == 1] = 0.0
    wide[kind_of == 2] = -0.0
    wide[kind_of == 3] = rng.integers(-9, 10, int(np.sum(kind_of == 3))) * 5e-324
    ring = wide[:, :, pad:pad + D] if pad else wide
    dmax = int(sch.delay_table.max())
    ticks = sorted({*range(dmax + 2), sch.horizon, sch.horizon + sch.cycle,
                    10**6 + int(rng.integers(2 * sch.cycle))})
    return sch, ring, ticks


class TestMergePlan:
    """The merge plan gives the dense merge's bits."""

    @settings(max_examples=300, deadline=None)
    @given(case=merge_cases())
    def test_matches_dense_merge(self, case):
        sch, ring, ticks = case
        out = np.empty(ring.shape[1:])
        for t in ticks:
            want = dense_merge(sch, ring, t).tobytes()
            assert merged_versions(sch, ring, t).tobytes() == want
            assert merged_versions(sch, ring, t, out=out) is out
            assert out.tobytes() == want

    def test_width_one_is_the_sequential_sum(self):
        # einsum would sum a width-1 merge over the senders in SIMD lanes,
        # whose layout follows the host's CPU dispatch; each receiver's value
        # must be a plain Python sum in sender order from 0.0: rows with zeros
        # between their terms, on versions of scales 1e-9 to 1e9, 500 ticks
        # at each M in 3 .. 8
        rng = np.random.default_rng(7)
        P = 500
        for M in range(3, 9):
            coeff = rng.random((P, M, M)) * (rng.random((P, M, M)) < 0.6)
            coeff[:, np.arange(M), np.arange(M)] = 1.0
            coeff /= coeff.sum(axis=-1, keepdims=True)
            sch = CommSchedule(M=M, horizon=P, alpha=float(coeff[coeff > 0].min()), B1=1, B2=1,
                               B3=1, coeff_table=coeff,
                               delay_table=np.zeros((P, M, M), dtype=int),
                               active_table=np.ones((P, M), dtype=bool), period=None)
            ring = rng.standard_normal((1, M, 1)) * 10.0 ** rng.integers(-9, 10, (1, M, 1))
            v = ring[0, :, 0].tolist()
            for t in range(P):
                want = []
                for i in range(M):
                    total = 0.0
                    for j in range(M):
                        total += float(coeff[t, i, j]) * v[j]
                    want.append(total)
                assert merged_versions(sch, ring, t)[:, 0].tolist() == want
                assert merged_versions(sch, ring, t).tobytes() == dense_merge(sch, ring, t).tobytes()


def short_ring_schedule():
    # M = 2, both processors read each other two ticks late, but B1 = 2
    coeff = np.full((1, 2, 2), 0.5)
    delay = np.array([[[0, 2], [2, 0]]])
    return CommSchedule(M=2, horizon=6, alpha=0.5, B1=2, B2=1, B3=1, coeff_table=coeff,
                        delay_table=delay, active_table=np.ones((1, 2), dtype=bool), period=1)


class TestDelayPastTheRing:
    """A stored delay at or past the ring depth is an error, not a read of an
    overwritten slot."""

    def test_merge_raises(self):
        sch = short_ring_schedule()
        with pytest.raises(ValueError, match="delay 2 is at or past the ring depth 2"):
            merged_versions(sch, np.zeros((2, 2, 3)), 4)
        assert merged_versions(sch, np.ones((3, 2, 3)), 4).tolist() == [[1.0] * 3] * 2

    @pytest.mark.parametrize("call", [lambda s: compute_phi(s, 4),
                                      lambda s: consensus_decay(s, np.eye(2)),
                                      lambda s: phi_limit_series(s)])
    def test_consumers_raise(self, call):
        with pytest.raises(ValueError, match="delay 2 is at or past the ring depth 2"):
            call(short_ring_schedule())

    def test_validation_reports_it(self):
        check = validate(short_ring_schedule()).checks["delay_bounds"]
        assert not check.passed and check.detail == "delay at or above B1"


class TestOneMerge:
    """The merge on the version ring and on the augmented state are one map."""

    CASES = {"ring": lambda: ring_schedule(M=3, horizon=60, delay=2),
             "gossip": lambda: gossip_schedule(),
             "complete": lambda: complete_schedule("uniform", horizon=40),
             "trace": trace_schedule}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_step_matrix_equals_merge(self, case):
        # the dense step matrix of tests/oracles.py is the merge on the ring,
        # and R @ it the merge plan's adjoint step
        sch = self.CASES[case]()
        M, B = sch.M, sch.B1
        assert int(sch.delay_table.max()) > 0
        rng = np.random.default_rng(2)
        # clamped delays below B, past the horizon from 2 * cycle on for the trace
        for t in [*range(2 * sch.cycle + B), sch.horizon + B, 2 * sch.horizon + 1]:
            ring = rng.random((B, M, 3))
            # slot k of the augmented state holds the versions at time t - k
            aug = ring[(t - np.arange(B)) % B]
            A = step_matrix(sch, t)
            stepped = (A @ aug.reshape(B * M, 3)).reshape(B, M, 3)
            np.testing.assert_allclose(stepped[0], merged_versions(sch, ring, t),
                                       rtol=0, atol=1e-15)
            assert np.array_equal(stepped[1:], aug[:-1])
            R = rng.random((4, B * M))
            np.testing.assert_allclose(_adjoint(sch, R, t), R @ A, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_accessors_repeat_past_the_horizon(self, case):
        sch = self.CASES[case]()
        for t in range(sch.B1, sch.horizon + sch.cycle):
            assert np.array_equal(sch.coeff(t + sch.cycle), sch.coeff(t))
            assert np.array_equal(sch.delay(t + sch.cycle), sch.delay(t))
        with pytest.raises(ValueError):
            sch.coeff(-1)


# ---- impulse weights ----


class TestComputePhi:
    def test_initial_probe_rows_sum_to_one(self):
        sch = ring_schedule(horizon=40)
        tab = compute_phi(sch, 40)
        np.testing.assert_allclose(tab.at(-1).sum(axis=1), 1.0, atol=1e-12)
        assert np.all(tab.phi >= -1e-15) and np.all(tab.phi <= 1.0 + 1e-15)

    def test_impulse_at_injection_time_is_identity(self):
        sch = ring_schedule(horizon=20)
        for tau in (-1, 0, 5):
            tab = compute_phi(sch, tau + 1)
            assert np.array_equal(tab.at(tau), np.eye(3))

    def test_matches_response_series(self):
        sch = ring_schedule(horizon=25)
        series = response_series(sch, tau=3, n_merges=21)
        for t in (4, 10, 25):
            assert np.array_equal(compute_phi(sch, t).at(3), series[t - 4])

    @settings(max_examples=300, deadline=None)
    @given(**GENERATED)
    def test_generated_schedules_match_forward_oracle(self, **draw):
        # the backward recursion sums in another order than the forward
        # merges, so the weights agree to rounding, past the horizon too
        sch = generated_schedule(**draw)
        times = sorted({0, 1, sch.horizon // 2, sch.horizon, sch.horizon + 2 * sch.cycle + 1})
        fam = phi_family(sch, times[-1])
        for t in times:
            np.testing.assert_allclose(compute_phi(sch, t).phi, fam[t, :t + 1],
                                       rtol=0, atol=1e-15, err_msg=str(t))

    @pytest.mark.parametrize("make", [ring_schedule, trace_schedule], ids=["periodic", "trace"])
    def test_one_backward_step_per_tick(self, make, monkeypatch):
        # the weights at t cost t steps of the augmented merge, not one
        # forward run per injection tick
        sch = make()
        calls = []
        step = dalvq.agreement._adjoint
        monkeypatch.setattr(dalvq.agreement, "_adjoint",
                            lambda s, r, u: calls.append(u) or step(s, r, u))
        for t in (0, 1, 7, sch.horizon + 3):
            calls.clear()
            compute_phi(sch, t)
            assert calls == list(range(t - 1, -1, -1)), t

    def test_records(self):
        sch = ring_schedule(horizon=6)
        recs = compute_phi(sch, 2).to_records()
        assert len(recs) == 3 * 3 * 3  # taus {-1,0,1} x 3 x 3
        assert {r["tau"] for r in recs} == {-1, 0, 1}


class TestPhiFamily:
    def test_matches_single_time_tables_exactly(self):
        sch = ring_schedule(horizon=30, delay=2)
        fam = phi_family(sch, 30)
        for t in (0, 1, 7, 23, 30):
            tab = compute_phi(sch, t)
            assert np.array_equal(fam[t, :t + 1], tab.phi), t

    def test_future_injections_are_zero(self):
        sch = ring_schedule(horizon=12)
        fam = phi_family(sch, 12)
        for t in range(13):
            assert np.all(fam[t, t + 1:] == 0.0)

    def test_injection_identity(self):
        sch = ring_schedule(horizon=12)
        fam = phi_family(sch, 12)
        for tau in (-1, 0, 4, 11):
            assert np.array_equal(fam[tau + 1, tau + 1], np.eye(3))


class TestDecomposition:
    def test_run_versions_equal_weighted_sums(self):
        # the linear-decomposition identity on a real run with descents
        sched = ScheduleSpec(topology="ring", merge_period=2, delay_law="fixed",
                             delay_value=2, activity="round-robin")
        cfg = RunConfig(M=3, kappa=2, dim=2, horizon=40, dist=BOX, sched=sched,
                        step=StepPolicy("local-clock", 0.5), seed=6, n_ref=50,
                        cadence=5, init="per-processor")
        art = run(cfg)
        s = dense_descent(art)                      # (T, M, D)
        for t in (5, 20, 40):
            tab = compute_phi(art.schedule, t)
            k = int(np.flatnonzero(art.snap_times == t)[0])
            want = art.snapshots[k]
            got = tab.at(-1) @ art.x0
            for tau in range(t):
                got += tab.at(tau) @ s[tau]
            np.testing.assert_allclose(got, want, atol=1e-12)


# ---- limits ----


class TestImpulseOracle:
    """Every impulse entry point against impulses run one at a time."""

    CASES = {"ring": lambda: ring_schedule(M=3, horizon=60, delay=2),
             "gossip": lambda: gossip_schedule(),
             "identity": lambda: identity_schedule(M=2, horizon=6),
             "capped": lambda: ring_schedule(M=4, horizon=40, delay=2)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tables_equal_single_runs(self, case):
        sch = self.CASES[case]()
        t_end = min(sch.horizon, 30)
        fam = phi_family(sch, t_end)
        for t in sorted({0, 1, t_end // 2, t_end}):
            tab = compute_phi(sch, t)
            for tau in range(-1, t):
                want = response_series(sch, tau, t - tau - 1)[-1]
                assert np.array_equal(tab.at(tau), want), (t, tau)
                assert np.array_equal(fam[t, tau + 1], want), (t, tau)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_tables_past_the_horizon(self, case):
        # the schedule repeats past its horizon, and so do the tables
        sch = self.CASES[case]()
        t = sch.horizon + 2 * sch.cycle + 1
        tab = compute_phi(sch, t)
        for tau in range(-1, t):
            want = response_series(sch, tau, t - tau - 1)[-1]
            assert np.array_equal(tab.at(tau), want), tau

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_limits_equal_single_runs(self, case):
        # every limit, tiled ones included, is the receiver mean of the exact
        # weights long after its injection, where the receivers agree
        sch = self.CASES[case]()
        series = phi_limit_series(sch)
        if case == "identity":
            assert not series.resolved
            assert (series.A_hat, series.rho_hat) == (1.0, 1.0)
            return
        star, spread = receiver_means(sch, 1500, sch.horizon + 1)
        assert spread < 1e-13
        assert series.resolved
        np.testing.assert_allclose(series.phi_init, star[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(series.phi, star[1:], rtol=0, atol=1e-12)
        assert series.eta_hat == min(np.min(series.phi_init), np.min(series.phi))


def window_rows(sch, limits):
    """_impulse_blocks' windows row by row, as envelope_blocks yields them:
    (t, lo, live, resid) over blocks lo .. min(t + 1, n) - 1. No block
    outside that range is live in a window's row."""
    n = len(limits)
    for t0, base, lo, live, resid in _impulse_blocks(sch, limits):
        assert len(lo) == len(live) == len(resid) <= _WINDOW
        for k, first in enumerate(lo.tolist()):
            cols = slice(first - base, min(t0 + k + 1, n) - base)
            assert live[k, cols].sum() == live[k].sum()
            yield t0 + k, first, live[k, cols], resid[k, cols]


def weakly_coupled_trace(path, w=2.0 ** -10):
    # off-diagonal weights of w and 2 w, read back from a trace file, so
    # every row sums to 1 exactly
    M, T = 3, 2
    coeff = np.full((T, M, M), w)
    for t in range(T):
        for i in range(M):
            coeff[t, i, (i + 1 + t) % M] = 2 * w
            coeff[t, i, i] = 1 - 3 * w
    delay = np.zeros((T, M, M), dtype=np.int64)
    write_trace(CommSchedule(M=M, horizon=T, alpha=w, B1=1, B2=1, B3=1,
                             coeff_table=coeff, delay_table=delay,
                             active_table=np.ones((T, M), dtype=bool)), str(path))
    sch = read_trace(str(path))
    assert np.array_equal(sch.coeff_table.sum(axis=-1), np.ones((T, M)))
    return sch


# random dense traces: rows of 1.0 on the receiver at delay 0 (a share
# `copies` of them), now and then 1.0 on it at a delay, the rest random
# weights on the receiver and some senders at random delays
TRACES = dict(M=st.integers(1, 5), horizon=st.integers(1, 9), B1=st.integers(1, 4),
              copies=st.floats(0.0, 0.9), seed=st.integers(0, 2**20))


def random_trace(M, horizon, B1, copies, seed):
    rng = np.random.default_rng(seed)
    coeff = np.zeros((horizon, M, M))
    delay = np.zeros((horizon, M, M), dtype=np.int64)
    for t, i in itertools.product(range(horizon), range(M)):
        u = rng.uniform()
        if u < copies + 0.05:
            coeff[t, i, i] = 1.0
            delay[t, i, i] = 0 if u < copies else rng.integers(0, B1)
        else:
            w = rng.integers(1, 5, size=M) * (rng.uniform(size=M) < 0.6)
            w[i] += 1
            coeff[t, i], delay[t, i] = w / w.sum(), rng.integers(0, B1, size=M) * (w > 0)
    return CommSchedule(M=M, horizon=horizon, alpha=float(coeff[coeff > 0].min()), B1=B1,
                        B2=horizon, B3=1, coeff_table=coeff, delay_table=delay,
                        active_table=np.ones((horizon, M), dtype=bool), period=None)


# a draw whose pass stops on the last tick of a window
ENDS_ON_A_WINDOW_EDGE = dict(M=4, horizon=7, topology="complete", activity="random-subset",
                             law="uniform", value=2, period=1, window=4, seed=65536, deeper=2)


class TestEnvelopePass:
    """The envelope pass, which merges and measures only the receivers a tick
    changes, a window of ticks at a time, against the oracle that merges
    every receiver and measures every slot afresh each tick: the same
    (t, lo, live, resid) at every tick, each window expanded row by row, and
    the same last tick."""

    @staticmethod
    def assert_same_pass(sch, max_ticks=20_000):
        series = phi_limit_series(sch)
        limits = np.vstack([series.phi_init, series.phi[:len(base_taus(sch)) - 1]])
        got = itertools.islice(window_rows(sch, limits), max_ticks)
        want = itertools.islice(envelope_blocks(sch, limits), max_ticks)
        ticks = 0
        for a, b in itertools.zip_longest(got, want):
            assert a is not None and b is not None, "the passes stop on different ticks"
            assert a[0] == ticks and len(a) == len(b) == 4
            assert all(np.array_equal(x, y) for x, y in zip(a, b)), ticks
            ticks += 1
        return ticks

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_schedules(self, name):
        cfg = WORKLOADS[name].config
        sch = generate(ScheduleSpec.from_dict(cfg["sched"]), cfg["M"], cfg["horizon"],
                       cfg["seed"])
        assert sch.B1 >= 2
        assert self.assert_same_pass(sch) < 20_000

    @settings(max_examples=60, deadline=None)
    @given(**GENERATED)
    @example(M=1, horizon=2, topology="ring", activity="all-active", law="fixed", value=1,
             period=1, window=4, seed=0, deeper=1)
    @example(**ENDS_ON_A_WINDOW_EDGE)
    def test_generated_schedules(self, **draw):
        # with M = 1 a deeper ring is what keeps slots from before a block's
        # entry in view once the block has reached its limit
        sch = generated_schedule(**draw)
        assume(sch.B1 >= 2)
        self.assert_same_pass(sch, max_ticks=3000)

    @settings(max_examples=30, deadline=None)
    @given(**TRACES)
    def test_random_traces(self, **draw):
        self.assert_same_pass(random_trace(**draw), max_ticks=2000)


def self_delay_trace():
    # receiver 0 reads only its own version of the tick before at tick 0:
    # weight 1.0 on itself, but at delay 1, so its row changes its version
    M, T = 3, 4
    coeff = np.tile([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]], (T, 1, 1))
    coeff[0, 0] = [1.0, 0.0, 0.0]
    delay = np.tile([[0, 1, 0], [1, 0, 1], [0, 1, 0]], (T, 1, 1))
    delay[0, 0] = [1, 0, 0]
    return CommSchedule(M=M, horizon=T, alpha=0.25, B1=2, B2=T, B3=1, coeff_table=coeff,
                        delay_table=delay, active_table=np.ones((T, M), dtype=bool),
                        period=None)


class TestEnvelopeCertificate:
    """phi_limit_series' resolved, A_hat, rho_hat and eta_hat against the
    certificate of tests/oracles.py (envelope_log_a), which reads the
    per-tick pass of envelope_blocks: equal bit for bit."""

    @staticmethod
    def assert_same_certificate(sch):
        series = phi_limit_series(sch)
        limits, rho = _base_limits(sch, sch.horizon)
        log_a = None if rho is None else envelope_log_a(sch, limits, rho)
        want = (False, 1.0, 1.0) if log_a is None else (True, float(np.exp(log_a)), rho)
        assert (series.resolved, series.A_hat, series.rho_hat) == want
        assert series.eta_hat == float(np.min(limits))
        return series

    @staticmethod
    def ticks(sch):
        limits, _ = _base_limits(sch, sch.horizon)
        return sum(len(lo) for _, _, lo, _, _ in _impulse_blocks(sch, limits))

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_workload_schedules(self, name):
        cfg = WORKLOADS[name].config
        sch = generate(ScheduleSpec.from_dict(cfg["sched"]), cfg["M"], cfg["horizon"],
                       cfg["seed"])
        assert self.assert_same_certificate(sch).resolved

    @settings(max_examples=40, deadline=None)
    @given(**GENERATED)
    def test_generated_schedules(self, **draw):
        self.assert_same_certificate(generated_schedule(**draw))

    @settings(max_examples=30, deadline=None)
    @given(**TRACES)
    def test_random_traces(self, **draw):
        self.assert_same_certificate(random_trace(**draw))

    def test_self_row_at_a_delay_is_merged(self):
        sch = self_delay_trace()
        assert not _merge_plan(sch).copy[0, 0] and _merge_plan(sch).copy.sum() == 0
        assert self.assert_same_certificate(sch).resolved

    def test_identity_ticks(self):
        # merge period 3: two ticks in three copy every receiver
        sch = generate(ScheduleSpec(topology="ring", merge_period=3, delay_law="fixed",
                                    delay_value=2, activity="all-active"), 4, 60, seed=1)
        assert _merge_plan(sch).identity.sum() == 2
        assert self.assert_same_certificate(sch).resolved

    def test_one_processor_deeper_ring(self):
        spec = ScheduleSpec(topology="ring", merge_period=1, delay_law="fixed", delay_value=1,
                            activity="all-active")
        sch = dataclasses.replace(generate(spec, 1, 5, seed=0), B1=3)
        assert _merge_plan(sch).copy.all()
        assert self.assert_same_certificate(sch).resolved

    def test_pass_ends_mid_window(self):
        sch = ring_schedule(M=3, horizon=60, delay=2)
        assert self.ticks(sch) % _WINDOW not in (0, _WINDOW - 1)
        assert self.assert_same_certificate(sch).resolved

    def test_pass_ends_on_a_window_edge(self):
        sch = generated_schedule(**ENDS_ON_A_WINDOW_EDGE)
        assert self.ticks(sch) % _WINDOW == 0
        assert self.assert_same_certificate(sch).resolved

    def test_weakly_coupled_trace_hits_the_cap_mid_window(self, tmp_path):
        sch = weakly_coupled_trace(tmp_path / "trace.jsonl")
        limits, rho = _base_limits(sch, sch.horizon)
        cap = 2 * math.ceil(math.log(1e-14) / math.log(rho)) + sch.B1 + sch.cycle
        last = next(t for t, lo, _, _ in envelope_blocks(sch, limits) if t + 1 - lo > cap)
        assert last % _WINDOW not in (0, _WINDOW - 1)
        assert not self.assert_same_certificate(sch).resolved


class TestPhiLimits:
    def test_tables_limits_match_series(self):
        sch = ring_schedule(M=3, horizon=160, delay=1)
        tab = compute_phi(sch, 160)
        # every tau up to 80 has agreed across receivers by t = 160
        assert np.max(np.ptp(tab.phi[:81], axis=1)) < 1e-9
        star = np.mean(tab.phi, axis=1)
        series = phi_limit_series(sch)
        np.testing.assert_allclose(star[0], series.phi_init, atol=1e-7)
        for tau in (0, 3, 10):
            np.testing.assert_allclose(star[tau + 1], series.phi[tau], atol=1e-7)

    @pytest.mark.parametrize("make", [lambda: ring_schedule(M=3, horizon=120, delay=1),
                                      lambda: complete_schedule("fixed", horizon=120)],
                             ids=["ring", "complete"])
    def test_envelope_covers_fitted_residuals(self, make):
        sch = make()
        series = phi_limit_series(sch)
        assert 0.0 < series.rho_hat < 1.0
        tightest = 0.0
        for tau in base_taus(sch):
            traj = response_series(sch, tau, 10**6, limit=series.weights_at(tau))
            resid = np.abs(traj - series.weights_at(tau)).max(axis=(1, 2))
            gaps = np.arange(1, len(traj) + 1)
            assert np.all(resid <= series.A_hat * series.rho_hat ** gaps + 1e-14)
            tightest = max(tightest, np.max((resid / series.rho_hat ** gaps)[resid > 1e-14]))
        # and no larger than it needs to be
        assert series.A_hat == pytest.approx(tightest, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(**GENERATED)
    def test_envelope_covers_generated_residuals(self, **draw):
        # on every schedule that passes validation and resolves, the
        # certificate covers each base-block impulse run on its own
        sch = generated_schedule(**draw)
        assume(validate(sch).passed)
        series = phi_limit_series(sch)
        assume(series.resolved)
        for tau in base_taus(sch):
            traj = response_series(sch, tau, 10**6, limit=series.weights_at(tau))
            resid = np.abs(traj - series.weights_at(tau)).max(axis=(1, 2))
            gaps = np.arange(1, len(traj) + 1)
            assert np.all(resid <= series.A_hat * series.rho_hat ** gaps + 1e-14), tau

    @pytest.mark.parametrize("delay_law", ["fixed", "uniform"])
    def test_delayed_complete_matches_exact_weights(self, delay_law):
        # the current versions' spread dips below 1e-12 long before the
        # delayed versions agree: the limits must not stop at such a dip
        sch = complete_schedule(delay_law)
        series = phi_limit_series(sch)
        n = len(base_taus(sch))
        star, spread = receiver_means(sch, 1500, n)
        assert spread < 1e-13
        assert series.resolved
        np.testing.assert_allclose(series.phi_init, star[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(series.phi[:n - 1], star[1:], rtol=0, atol=1e-12)

    def test_envelope_stops_on_rows_off_by_rounding(self):
        # rows summing to 1 - 1e-15 pass validation, but agreed weights then
        # drift by about 1e-15 per tick: a fixed 1e-14 stop never comes
        exact = generate(ScheduleSpec(topology="ring", merge_period=1, delay_law="fixed",
                                      delay_value=1, activity="all-active"), 6, 50, seed=0)
        sch = dataclasses.replace(exact, coeff_table=exact.coeff_table * (1 - 1e-15))
        want = phi_limit_series(exact)
        limits = np.vstack([want.phi_init, want.phi[:len(base_taus(sch)) - 1]])
        for t0, _, lo, *_ in _impulse_blocks(sch, limits):
            assert t0 + len(lo) <= 5000, "impulse blocks never stopped"
        series = phi_limit_series(sch)
        assert series.resolved
        np.testing.assert_allclose(series.phi, want.phi, rtol=0, atol=1e-12)
        assert series.A_hat == pytest.approx(want.A_hat, rel=1e-6)

    def test_weakly_coupled_trace_ends_unresolved(self, tmp_path, monkeypatch):
        # off-diagonal weights of 2**-10 and 2**-9 mix so slowly that rounding
        # keeps both the limits and the impulse runs about 1e-14 apart: no
        # run gets within 1e-14 of its limit, and the pass ends at its
        # derived gap instead
        sch = weakly_coupled_trace(tmp_path / "trace.jsonl")

        def counted(*args, **kwargs):
            for window in _impulse_blocks(*args, **kwargs):
                assert window[0] + len(window[2]) <= 100_000, "envelope pass did not end"
                yield window

        monkeypatch.setattr(dalvq.agreement, "_impulse_blocks", counted)
        series = phi_limit_series(sch)
        assert not series.resolved
        assert series.A_hat == series.rho_hat == 1.0

    def test_unresolved_flagged_not_raised(self):
        sch = identity_schedule()
        series = phi_limit_series(sch)
        assert not series.resolved
        assert series.rho_hat >= 1.0
        for t in (2, 3, 4):
            tab = compute_phi(sch, t)
            # every tau stays split across receivers
            assert np.all(np.max(np.ptp(tab.phi, axis=1), axis=1) == 1.0)

    def test_ring_m16_resolves(self):
        spec = ScheduleSpec(topology="ring", merge_period=1, delay_law="fixed",
                            delay_value=1, activity="all-active")
        series = phi_limit_series(generate(spec, 16, 200, seed=0))
        assert series.resolved
        assert series.eta_hat > 0.0
        assert series.phi_init.sum() == pytest.approx(1.0, abs=1e-9)

    def test_periodic_tiling_equals_dense(self):
        sch = ring_schedule(M=3, horizon=90, delay=1)
        tiled = phi_limit_series(sch)
        coeff, delay, active = sch.materialize()
        dense = CommSchedule(M=3, horizon=90, alpha=sch.alpha, B1=sch.B1, B2=sch.B2,
                             B3=sch.B3, coeff_table=coeff, delay_table=delay,
                             active_table=active, period=None)
        direct = phi_limit_series(dense)
        np.testing.assert_allclose(tiled.phi_init, direct.phi_init, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tiled.phi, direct.phi, rtol=0, atol=1e-12)

    def test_rho_floor_on_a_rank_one_product(self):
        # complete, zero delay, all active: every merge tick takes the mean,
        # so the period product has rank one and its lambda_2 is rounding
        spec = ScheduleSpec(topology="complete", merge_period=2, delay_law="zero",
                            activity="all-active")
        sch = generate(spec, 8, 40, seed=0)
        series = phi_limit_series(sch)
        assert series.resolved and (sch.B1, sch.cycle) == (1, 2)
        assert series.rho_hat == (8 * np.finfo(float).eps) ** (1.0 / 2)

    def test_rho_does_not_follow_the_summation_order(self, monkeypatch):
        # engine-m8-disk's |lambda_2| is about 9e-16, under the floor: the
        # period product through the plan's adjoint and the dense oracle
        # product give one rho_hat
        cfg = WORKLOADS["engine-m8-disk"].config
        sch = generate(ScheduleSpec.from_dict(cfg["sched"]), cfg["M"], cfg["horizon"],
                       cfg["seed"])
        _, rho = _base_limits(sch, sch.horizon)
        monkeypatch.setattr(dalvq.agreement, "_adjoint", lambda s, r, t: r @ step_matrix(s, t))
        assert _base_limits(sch, sch.horizon)[1] == rho
        assert rho == (sch.B1 * sch.M * np.finfo(float).eps) ** (1.0 / sch.cycle)

    def test_limit_weights_are_probabilities(self):
        series = phi_limit_series(ring_schedule(M=4, horizon=80, delay=2))
        assert series.resolved
        assert series.eta_hat > 0.0
        assert np.all(series.phi_init >= 0.0) and np.all(series.phi_init <= 1.0)
        assert np.all(series.phi >= 0.0) and np.all(series.phi <= 1.0)
        assert series.phi_init.sum() == pytest.approx(1.0, abs=1e-9)


# ---- the agreement vector ----


class TestAgreementVector:
    def setup_method(self):
        self.sch = ring_schedule(M=3, horizon=50, delay=1)
        self.lim = phi_limit_series(self.sch)
        rng = np.random.default_rng(8)
        self.x0 = rng.random((3, 2, 2))
        self.s = rng.normal(scale=0.01, size=(50, 3, 2, 2))

    def test_direct_sum_oracle(self):
        got = agreement_vector(self.lim, self.x0, self.s, 17)
        want = np.zeros((2, 2))
        for j in range(3):
            want += self.lim.phi_init[j] * self.x0[j]
        for tau in range(17):
            for j in range(3):
                want += self.lim.phi[tau, j] * self.s[tau, j]
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_recursion_is_exact(self):
        for t in (0, 1, 10, 30):
            a = agreement_vector(self.lim, self.x0, self.s, t)
            b = agreement_vector(self.lim, self.x0, self.s, t + 1)
            step = (self.lim.phi[t] @ self.s[t].reshape(3, -1)).reshape(2, 2)
            assert np.array_equal(b, a + step)

    def test_descent_required_beyond_zero(self):
        assert agreement_vector(self.lim, self.x0, None, 0).shape == (2, 2)
        with pytest.raises(ValueError):
            agreement_vector(self.lim, self.x0, None, 3)
