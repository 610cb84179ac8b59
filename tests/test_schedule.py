import json
from dataclasses import replace
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dalvq
from dalvq.errors import ConfigError
from dalvq.schedule import (CommSchedule, ScheduleSpec, _measure, generate, read_trace,
                            validate, write_trace)
from oracles import communication_graph, trace_text


def ring_spec(**kw):
    base = dict(topology="ring", merge_period=2, delay_law="fixed", delay_value=1,
                activity="round-robin")
    base.update(kw)
    return ScheduleSpec(**base)


def plain_schedule(coeff, delay=None, active=None, **kw):
    coeff = np.asarray(coeff, dtype=float)
    T, M = coeff.shape[0], coeff.shape[1]
    if delay is None:
        delay = np.zeros_like(coeff, dtype=np.int64)
    if active is None:
        active = np.ones((T, M), dtype=bool)
    args = dict(M=M, horizon=T, alpha=float(np.min(coeff[coeff > 0.0])),
                B1=int(np.max(delay)) + 1, B2=T, B3=1)
    args.update(kw)
    return CommSchedule(coeff_table=coeff, delay_table=np.asarray(delay),
                        active_table=np.asarray(active), period=None, **args)


# ---- spec parsing ----


class TestScheduleSpec:
    def test_rejects_unknown_topology(self):
        with pytest.raises(ConfigError):
            ScheduleSpec(topology="torus")

    def test_uniform_delay_needs_positive_bound(self):
        with pytest.raises(ConfigError):
            ScheduleSpec(topology="ring", delay_law="uniform", delay_value=0)

    def test_roundtrip_strict(self):
        spec = ring_spec()
        again = ScheduleSpec.from_dict(spec.to_dict())
        assert again == spec
        bad = spec.to_dict()
        bad["jitter"] = 1
        with pytest.raises(ConfigError):
            ScheduleSpec.from_dict(bad)


# ---- generated families ----


class TestGenerate:
    def test_ring_round_robin_structure(self):
        sch = generate(ring_spec(), 4, 100, seed=3)
        assert sch.period == math.lcm(2, 4)
        for t in range(sch.period):
            act = sch.active(t)
            assert act == (t % 4,)
            c = sch.coeff(t)
            np.testing.assert_allclose(c.sum(axis=1), 1.0)
            if t % 2 == 1:  # merge tick: non-active rows average their ring neighbor
                for i in range(4):
                    if i in act:
                        assert np.array_equal(c[i], np.eye(4)[i])
                    else:
                        assert c[i, i] == 0.5 and c[i, (i - 1) % 4] == 0.5
            else:
                assert np.array_equal(c, np.eye(4))

    def test_declared_constants_measured(self):
        sch = generate(ring_spec(delay_law="uniform", delay_value=4, base_window=8),
                       3, 200, seed=9)
        assert sch.B1 == int(sch.delay_table.max()) + 1
        assert sch.alpha == float(np.min(sch.coeff_table[sch.coeff_table > 0.0]))
        assert sch.delay_table[sch.coeff_table == 0.0].max(initial=0) == 0

    def test_delay_clamped_near_start(self):
        sch = generate(ring_spec(delay_law="fixed", delay_value=1, merge_period=1,
                                 activity="all-active"), 3, 50, seed=0)
        assert sch.delay(0).max() == 0
        assert sch.delay(5).max() == 1

    def test_complete_all_active(self):
        sch = generate(ScheduleSpec(topology="complete", merge_period=1,
                                    delay_law="zero", activity="all-active"),
                       5, 20, seed=1)
        np.testing.assert_allclose(sch.coeff(7), np.full((5, 5), 0.2))
        assert sch.active(7) == (0, 1, 2, 3, 4)

    def test_gossip_pairs_exclude_active(self):
        spec = ScheduleSpec(topology="random-symmetric-gossip", merge_period=1,
                            delay_law="zero", activity="round-robin", base_window=12)
        sch = generate(spec, 4, 120, seed=5)
        for t in range(sch.period):
            act = set(sch.active(t))
            c = sch.coeff(t)
            for i in range(4):
                off = [j for j in range(4) if j != i and c[i, j] > 0]
                if i in act:
                    assert off == []
                assert len(off) <= 1  # gossip merges one pair

    def test_materialize_matches_accessors(self):
        sch = generate(ring_spec(), 3, 40, seed=2)
        coeff, delay, active = sch.materialize(80)   # past the horizon too
        for t in (0, 1, 7, 39, 40, 79):
            assert np.array_equal(coeff[t], sch.coeff(t))
            assert np.array_equal(delay[t], sch.delay(t))
            assert tuple(np.flatnonzero(active[t])) == sch.active(t)

    def test_custom_trace_topology_requires_path(self):
        with pytest.raises(ConfigError):
            ScheduleSpec(topology="custom-trace")

    def test_large_m_generates_and_validates(self):
        complete = ScheduleSpec(topology="complete", merge_period=1, delay_law="zero",
                                activity="all-active")
        gossip = ScheduleSpec(topology="random-symmetric-gossip", merge_period=1,
                              delay_law="fixed", delay_value=1, activity="all-active",
                              base_window=24)
        for M in (9, 64):
            ring = validate(generate(ring_spec(), M, 4 * M, seed=0))
            assert ring.passed and ring.asy1 and not ring.asy2
            full = validate(generate(complete, M, 4 * M, seed=0))
            assert full.passed and full.asy1 and full.asy2
            pairs = validate(generate(gossip, M, 60, seed=0))
            assert pairs.checks["symmetry"].passed
            assert pairs.constants["M"] == M and pairs.constants["B1"] == 2

    def test_custom_trace_must_match_config(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(generate(ring_spec(), 3, 24, seed=1), str(path))
        spec = ScheduleSpec(topology="custom-trace", trace_path=str(path))
        for M, horizon in ((4, 24), (3, 30), (3, 12)):
            with pytest.raises(ConfigError):
                generate(spec, M, horizon, seed=0)


# ---- validation on healthy families ----


class TestValidateFamilies:
    def test_ring_round_robin_is_asy1(self):
        rep = validate(generate(ring_spec(), 4, 200, seed=7))
        assert rep.passed and rep.asy1
        assert not rep.asy2  # one-directional ring has no mirror edges
        assert rep.checks["symmetry"].detail == "edge never mirrored"

    def test_complete_is_both_bundles(self):
        sch = generate(ScheduleSpec(topology="complete", merge_period=1,
                                    delay_law="zero", activity="all-active"),
                       3, 60, seed=0)
        rep = validate(sch)
        assert rep.passed and rep.asy1 and rep.asy2

    def test_gossip_symmetric(self):
        spec = ScheduleSpec(topology="random-symmetric-gossip", merge_period=1,
                            delay_law="zero", activity="all-active", base_window=16)
        rep = validate(generate(spec, 4, 160, seed=11))
        assert rep.checks["symmetry"].passed  # pairs always swap both directions

    def test_report_dict_shape(self):
        rep = validate(generate(ring_spec(), 3, 30, seed=1))
        d = rep.to_dict()
        assert set(d["checks"]) == {"delay_bounds", "convex_combination", "connectivity",
                                    "bounded_intervals", "symmetry", "activity"}
        assert d["constants"]["B1"] >= 1


# ---- validation on hand-broken schedules ----


class TestValidateFailures:
    def test_delay_at_b1_rejected(self):
        eye = np.tile(np.eye(2), (6, 1, 1))
        c = eye.copy()
        c[3] = [[0.5, 0.5], [0.5, 0.5]]
        d = np.zeros((6, 2, 2), dtype=np.int64)
        d[3, 0, 1] = 2
        sch = plain_schedule(c, delay=d, B1=2, alpha=0.5)
        rep = validate(sch)
        assert not rep.checks["delay_bounds"].passed
        assert rep.checks["delay_bounds"].witness == {"t": 3, "i": 0, "j": 1, "delay": 2}

    def test_row_sum_rejected(self):
        c = np.tile(np.eye(2), (4, 1, 1))
        c[1, 0] = [0.5, 0.4]
        rep = validate(plain_schedule(c, alpha=0.4))
        assert not rep.checks["convex_combination"].passed
        assert not rep.passed

    def test_threshold_rejected(self):
        c = np.tile(np.eye(2), (4, 1, 1))
        c[1, 0] = [0.75, 0.25]
        c[1, 1] = [0.25, 0.75]
        rep = validate(plain_schedule(c, alpha=0.5))
        assert not rep.checks["convex_combination"].passed
        assert rep.checks["convex_combination"].witness["coeff"] == 0.25

    def test_disconnected_rejected(self):
        c = np.tile(np.eye(2), (10, 1, 1))  # nobody ever talks
        rep = validate(plain_schedule(c, alpha=1.0))
        assert not rep.checks["connectivity"].passed
        assert not rep.passed

    def test_vanishing_pair_breaks_intervals(self):
        T = 40
        c = np.tile(np.eye(2), (T, 1, 1))
        for t in (0, 1):  # pair talks twice early, then never again
            c[t] = [[0.5, 0.5], [0.5, 0.5]]
        rep = validate(plain_schedule(c, alpha=0.5, B2=8))
        assert not rep.checks["bounded_intervals"].passed
        assert rep.checks["bounded_intervals"].witness["needed_window"] == T - 1

    def test_single_occurrence_pair_unconstrained(self):
        T = 12
        c = np.tile(np.eye(2), (T, 1, 1))
        c[2] = [[0.5, 0.5], [0.5, 0.5]]
        rep = validate(plain_schedule(c, alpha=0.5, B2=T))
        assert rep.checks["bounded_intervals"].passed
        assert "occur once" in rep.checks["bounded_intervals"].detail

    def test_one_directional_edge_beyond_b3(self):
        T = 10
        c = np.tile(np.eye(2), (T, 1, 1))
        c[0, 0] = [0.5, 0.5]
        c[9, 1] = [0.5, 0.5]
        rep = validate(plain_schedule(c, alpha=0.5, B3=4))
        assert not rep.checks["symmetry"].passed
        assert rep.checks["symmetry"].witness["nearest_reverse_gap"] == 9

    def test_idle_tick_fails_activity(self):
        c = np.tile(np.full((2, 2), 0.5), (4, 1, 1))
        act = np.ones((4, 2), dtype=bool)
        act[2] = False
        rep = validate(plain_schedule(c, active=act, alpha=0.5))
        assert not rep.checks["activity"].passed
        assert rep.checks["activity"].witness == {"t": 2}
        assert rep.asy1 and not rep.passed  # merge side fine, overall fails


# ---- traces ----


class TestTraceRoundtrip:
    def test_write_read_identical(self, tmp_path):
        sch = generate(ring_spec(delay_law="uniform", delay_value=3, base_window=6),
                       3, 48, seed=13)
        path = tmp_path / "trace.jsonl"
        write_trace(sch, str(path))
        back = read_trace(str(path))
        assert back.period is None and back.horizon == 48
        coeff, delay, active = sch.materialize()
        assert np.array_equal(back.coeff_table, coeff)
        assert np.array_equal(back.delay_table, delay)
        assert np.array_equal(back.active_table, active)
        for name in ("alpha", "B1", "B2", "B3"):
            assert getattr(back, name) == getattr(sch, name)

    @settings(max_examples=60, deadline=None)
    @given(M=st.integers(2, 4), horizon=st.integers(0, 40), law=st.sampled_from(["fixed", "uniform"]),
           value=st.integers(1, 5), period=st.integers(1, 3), window=st.integers(1, 9),
           seed=st.integers(0, 2**20))
    def test_bytes_are_the_per_tick_writer(self, tmp_path_factory, M, horizon, law, value,
                                           period, window, seed):
        # records repeat with the table row once no delay is clamped
        sch = generate(ring_spec(merge_period=period, delay_law=law, delay_value=value,
                                 activity="random-subset", base_window=window), M, horizon, seed)
        path = tmp_path_factory.mktemp("trace") / "trace.jsonl"
        write_trace(sch, str(path))
        assert path.read_text() == trace_text(sch)
        schedules = [replace(sch, B1=1)]  # a B1 under the delays clamps no less
        if horizon:
            schedules.append(read_trace(str(path)))  # a dense trace: every row once
        for s in schedules:
            write_trace(s, str(path))
            assert path.read_text() == trace_text(s)

    def test_custom_trace_spec_reads_file(self, tmp_path):
        sch = generate(ring_spec(), 3, 24, seed=1)
        path = tmp_path / "trace.jsonl"
        write_trace(sch, str(path))
        spec = ScheduleSpec(topology="custom-trace", trace_path=str(path))
        back = generate(spec, 3, 24, seed=999)  # seed is irrelevant for traces
        assert np.array_equal(back.coeff_table, sch.materialize()[0])

    def test_bad_tick_order_rejected(self, tmp_path):
        sch = generate(ring_spec(), 2, 6, seed=0)
        path = tmp_path / "trace.jsonl"
        write_trace(sch, str(path))
        lines = path.read_text().splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            read_trace(str(path))

    def test_under_declared_b1_rejected(self, tmp_path):
        sch = generate(ring_spec(delay_value=2), 3, 24, seed=1)
        path = tmp_path / "trace.jsonl"
        write_trace(sch, str(path))
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["meta"]["B1"] = 1  # the trace holds delays of 2
        path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        with pytest.raises(ConfigError):
            read_trace(str(path))

    def test_nan_coefficient_rejected(self, tmp_path):
        c = np.tile(np.full((2, 2), 0.5), (4, 1, 1))
        c[2, 0, 1] = np.nan
        with pytest.raises(ConfigError):
            plain_schedule(c, alpha=0.5)
        c[2, 0, 1] = np.inf
        with pytest.raises(ConfigError):
            plain_schedule(c, alpha=0.5)

    @pytest.mark.parametrize("meta", [
        None, [1, 2], "meta",
        {"alpha": 0.5, "B2": 4, "B3": 1},                     # B1 missing
        {"B1": 3, "B2": 4, "B3": 1},                          # alpha missing
        {"alpha": "x", "B1": 3, "B2": 4, "B3": 1},
        {"alpha": 0.5, "B1": None, "B2": 4, "B3": 1},
        {"alpha": 0.5, "B1": 3, "B2": True, "B3": 1},
        {"alpha": 0.5, "B1": 3, "B2": 4, "B3": [1]},
        {"alpha": 0.5, "B1": 3, "B2": 4, "B3": float("nan")},
        {"alpha": 0.5, "B1": 3.9, "B2": 4, "B3": 1},          # B1, B2, B3 must be integers
        {"alpha": 0.5, "B1": 3, "B2": 2.5, "B3": 1},
        {"alpha": 0.5, "B1": 3, "B2": 4, "B3": 1e20},
        {"alpha": 10**400, "B1": 3, "B2": 4, "B3": 1}])       # no finite float
    def test_malformed_meta_rejected(self, tmp_path, meta):
        sch = generate(ring_spec(delay_value=2), 3, 24, seed=1)
        path = tmp_path / "trace.jsonl"
        write_trace(sch, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join([json.dumps({"meta": meta})] + lines[1:]) + "\n")
        with pytest.raises(ConfigError):
            read_trace(str(path))

    @pytest.mark.parametrize("line, field, value", [
        ("5", None, None), ("null", None, None),
        (None, "active", 3), (None, "active", ["a"]), (None, "active", [1.0]),
        (None, "active", [2, 2]),
        (None, "coeff", "abc"), (None, "coeff", [[0.5, 0.5, 0.0], [0.0, 1.0], [0.0, 0.0, 1.0]]),
        (None, "coeff", [["a", 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        (None, "coeff", [[True, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        (None, "delay", [[0.5, 0, 0], [0, 0, 0], [0, 0, 0]]),
        (None, "delay", [[0, 0, 0], [0, 0, True], [0, 0, 0]])],
        ids=["number-line", "null-line", "active-number", "active-string",
             "active-float", "active-duplicate", "coeff-string", "coeff-ragged",
             "coeff-string-entry", "coeff-bool", "delay-fraction", "delay-bool"])
    def test_malformed_tick_rejected(self, tmp_path, line, field, value):
        sch = generate(ring_spec(delay_value=2), 3, 24, seed=1)
        path = tmp_path / "trace.jsonl"
        write_trace(sch, str(path))
        lines = path.read_text().splitlines()
        if line is not None:
            lines.insert(5, line)
        else:
            lines[5] = json.dumps({**json.loads(lines[5]), field: value})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            read_trace(str(path))

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"t": 0, "coeff": [[1.0]], "delay": [[0]]}\n')
        with pytest.raises(ConfigError):
            read_trace(str(path))


# ---- misc ----


class TestCommunicationGraph:
    def test_edges_sorted_sender_receiver(self):
        sch = generate(ring_spec(merge_period=1, activity="all-active"), 3, 10, seed=0)
        assert communication_graph(sch, 5) == [(0, 1), (1, 2), (2, 0)]

    def test_identity_tick_empty(self):
        sch = generate(ring_spec(), 3, 10, seed=0)
        assert communication_graph(sch, 0) == []


def naive_edge_analysis(coeff, horizon, period, B2, B3):
    """Reference: the periodic table tiled over the whole horizon and analysed
    window by window and tick by tick. Returns the derived (B2, B3) and the
    connectivity, interval and symmetry checks against the declared B2, B3."""
    M = coeff.shape[1]
    P = period if period is not None else max(horizon, 1)
    ticks = range(horizon)
    occ = {(i, j): [t for t in ticks if i != j and coeff[t % P, i, j] > 0.0]
           for i in range(M) for j in range(M)}  # (receiver, sender) -> ticks

    def connected(t0, t1):
        edges = [(j, i) for (i, j), o in occ.items() if any(t0 <= t < t1 for t in o)]
        for forward in (True, False):
            seen, todo = {0}, [0]
            while todo:
                u = todo.pop()
                for a, b in edges:
                    a, b = (a, b) if forward else (b, a)
                    if a == u and b not in seen:
                        seen.add(b)
                        todo.append(b)
            if len(seen) < M:
                return False
        return True

    def first_bad_window(w):
        return next((s for s in range(horizon - w + 1) if not connected(s, s + w)), None)

    def need(o):
        return max(o[0] + 1, max(b - a for a, b in zip(o, o[1:])), horizon - o[-1])

    def nearest(t, o):
        return min(abs(t - u) for u in o)

    if horizon == 0 or M == 1:
        b2 = 1
    elif first_bad_window(horizon) is not None:
        b2 = horizon
    else:
        b2 = next(w for w in range(1, horizon + 1) if first_bad_window(w) is None)
        b2 = max([b2] + [need(o) for o in occ.values() if len(o) >= 2])
    if any(o and not occ[(j, i)] for (i, j), o in occ.items()):
        b3 = 1
    else:
        b3 = 1 + max([nearest(t, occ[(j, i)]) for (i, j), o in occ.items() for t in o],
                     default=0)

    checks = {"connectivity": {"passed": True,
                               "detail": "every B2-window union is strongly connected"},
              "bounded_intervals": {"passed": True,
                                    "detail": "recurring pairs reappear within every B2-window"},
              "symmetry": {"passed": True,
                           "detail": "every edge has its reverse within |t - tau| < B3"}}
    if horizon == 0 or M == 1:
        return (b2, b3), checks
    width = min(B2, horizon)
    start = first_bad_window(width)
    if start is not None:
        checks["connectivity"] = {"passed": False,
                                  "detail": "window union not strongly connected",
                                  "witness": {"window_start": start, "window": width}}
    long = [(i, j) for (i, j), o in occ.items() if len(o) >= 2 and need(o) > B2]
    singles = sum(len(o) == 1 for o in occ.values())
    if long:
        i, j = long[0]
        checks["bounded_intervals"] = {"passed": False,
                                       "detail": "recurring pair exceeds the B2 interval",
                                       "witness": {"sender": j, "receiver": i,
                                                   "needed_window": need(occ[(i, j)])}}
    elif singles:
        checks["bounded_intervals"]["detail"] += \
            f"; {singles} pair(s) occur once and are unconstrained"
    for i in range(M):
        for j in range(i + 1, M):
            for r, s in ((i, j), (j, i)):
                a, b = occ[(r, s)], occ[(s, r)]
                if checks["symmetry"]["passed"] and a and not b:
                    checks["symmetry"] = {"passed": False, "detail": "edge never mirrored",
                                          "witness": {"sender": s, "receiver": r, "t": a[0]}}
                elif checks["symmetry"]["passed"] and a:
                    gaps = [nearest(t, b) for t in a]
                    if max(gaps) >= B3:
                        checks["symmetry"] = {
                            "passed": False, "detail": "mirror edge outside the B3 slack",
                            "witness": {"sender": s, "receiver": r,
                                        "t": a[gaps.index(max(gaps))],
                                        "nearest_reverse_gap": max(gaps)}}
    return (b2, b3), checks


@st.composite
def edge_tables(draw):
    """A random coefficient table, periodic or dense, with the horizon below,
    at or off a multiple of the period, and declared B2, B3 that may be wrong."""
    M = draw(st.integers(min_value=1, max_value=5))
    P = draw(st.integers(min_value=1, max_value=12))
    reps = draw(st.integers(min_value=0, max_value=5))
    horizon = reps * P + draw(st.integers(min_value=0, max_value=P - 1))
    dense = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    adj = rng.random((P, M, M)) < draw(st.sampled_from([0.1, 0.3, 0.6]))
    if draw(st.booleans()):  # mirror every edge, at once or a few ticks later
        adj |= np.roll(adj.transpose(0, 2, 1), draw(st.integers(0, 3)), axis=0)
    adj[:, np.arange(M), np.arange(M)] = True
    coeff = adj / adj.sum(axis=2, keepdims=True)
    if dense:
        coeff = coeff[np.arange(max(horizon, 1)) % P]
    declared = (draw(st.integers(min_value=1, max_value=horizon + 2)),
                draw(st.integers(min_value=1, max_value=P + 2)))
    return coeff, horizon, None if dense else P, declared


def with_tick_faults(coeff, period, seed):
    """A schedule on the table whose delays, rows, alpha and activity may break
    the per-tick checks, sparsely, so first witnesses land anywhere."""
    rng = np.random.default_rng(seed)
    L, M = coeff.shape[:2]
    off = ~np.eye(M, dtype=bool)
    delay = np.where((coeff > 0.0) & off, rng.integers(0, 5, size=coeff.shape), 0)
    delay[rng.random(coeff.shape) < 0.01] = 1            # self or silent delays
    coeff = coeff * np.where(rng.random((L, M)) < 0.02, 0.9, 1.0)[:, :, None]
    active = rng.random((L, M)) < 0.9
    active[rng.random(L) < 0.03] = False
    alpha = min(1.0, float(np.min(coeff[coeff > 0.0])) * rng.choice([1.0, 1.0, 1.5]))
    return dict(alpha=alpha, B1=int(rng.integers(1, 6)), coeff_table=coeff,
                delay_table=delay, active_table=active, period=period)


class TestEdgeAnalysis:
    @settings(max_examples=120, deadline=None)
    @given(edge_tables(), st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_naive_tiled_analysis(self, table, use_derived, seed):
        coeff, horizon, period, declared = table
        M = coeff.shape[1]
        derived = _measure(coeff, np.zeros(coeff.shape, dtype=np.int64), horizon)[2:]
        want, _ = naive_edge_analysis(coeff, horizon, period, *declared)
        assert derived == want
        B2, B3 = want if use_derived else declared
        sch = CommSchedule(M=M, horizon=horizon, alpha=float(np.min(coeff[coeff > 0.0])),
                           B1=1, B2=B2, B3=B3, coeff_table=coeff,
                           delay_table=np.zeros(coeff.shape, dtype=np.int64),
                           active_table=np.ones(coeff.shape[:2], dtype=bool), period=period)
        got = validate(sch).to_dict()
        _, checks = naive_edge_analysis(coeff, horizon, period, B2, B3)
        for name, check in checks.items():
            assert got["checks"][name] == check, name

        # the per-tick checks read a periodic schedule over a bounded span only;
        # they must report what the same schedule tiled out densely reports
        faulty = with_tick_faults(coeff, period, seed)
        tiled = {k: v[np.arange(max(horizon, 1)) % len(v)] if k.endswith("_table") else v
                 for k, v in faulty.items()}
        tiled["period"] = None
        periodic, dense = (validate(CommSchedule(M=M, horizon=horizon, B2=B2, B3=B3, **kw))
                           .to_dict()["checks"] for kw in (faulty, tiled))
        for name in ("delay_bounds", "convex_combination", "activity"):
            assert periodic[name] == dense[name], name

    def test_validate_memory_flat_in_horizon(self):
        # An M = 64 ring of period 64 at the 200k-tick horizon. Materialized
        # over all ticks, its (T, M, M) tables would take ~6.5 GB each, so the
        # check runs in a child whose address space is capped at 2 GB: a
        # regression fails there with MemoryError instead of swamping the host.
        child = textwrap.dedent("""
            import resource, tracemalloc
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from dalvq.schedule import ScheduleSpec, generate, validate
            spec = ScheduleSpec(topology="ring", merge_period=1, delay_law="fixed",
                                delay_value=1, activity="round-robin")
            sch = generate(spec, 64, 200_000, seed=0)
            assert sch.period == 64
            tracemalloc.start()
            report = validate(sch)
            print(report.asy1, tracemalloc.get_traced_memory()[1])
        """)
        src_root = os.path.dirname(os.path.dirname(os.path.abspath(dalvq.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src_root, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        asy1, peak = proc.stdout.split()
        assert asy1 == "True"
        assert int(peak) < 64 * 2**20, f"validate peak {int(peak) / 2**20:.0f} MB"
