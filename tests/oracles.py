"""Direct reference implementations the tests compare the library against.

None of these is used by the library itself: each spells out one quantity the
fast paths compute, in the plainest form, or records at every time what the
library computes at one (``phi_family``).
"""

import copy
import json
import math
from typing import Iterator, Optional

import numpy as np

from dalvq import engine
from dalvq.agreement import merged_versions
from dalvq.engine import Chunk, EventLog
from dalvq.errors import ConfigError
from dalvq.geometry import min_component_separation, nearest_cell
from dalvq.measures import STREAM_SCHEDULE, StreamHandle, init_quantizer, make_batch
from dalvq.schedule import CheckResult, CommSchedule, _edge_tensor, _measure, _pair_gaps


def generator_sample(spec, draw: StreamHandle) -> np.ndarray:
    """The point at one stream address, read from the address's own
    generator (`StreamHandle.generator`) one value at a time: the per-draw
    rule the library's draw tables compute for all addresses at once. A
    mixture point takes the component, then candidates until one lies in the
    box."""
    g = draw.generator()
    if spec.kind == "truncated-gaussian-mixture":
        comp = int(np.searchsorted(spec._cdf, g.random(), side="right"))
        for _ in range(10_000):
            z = spec.means[comp] + spec._chols[comp] @ g.standard_normal(spec.dim)
            if np.all(z >= spec.low) and np.all(z <= spec.high):
                return z
        raise ConfigError(f"no in-box point of component {comp} in 10,000 attempts")
    if spec.kind == "uniform-box":
        u = g.random(spec.dim)
        return spec.low + u * (spec.high - spec.low)
    disk = int(np.searchsorted(spec._cdf, g.random(), side="right"))
    r = spec.radii[disk] * np.sqrt(g.random())
    ang = 2.0 * np.pi * g.random()
    return spec.centers[disk] + r * np.array([np.cos(ang), np.sin(ang)])


def generator_index(n: int, draw: StreamHandle) -> int:
    """Uniform index in [0, n) from the address's own generator."""
    return int(draw.generator().random() * n)


def cell_stats(comps, points) -> tuple:
    """(distortion, gradient, counts, sums, assignment) of one quantizer.

    Every point is scored against every component in the direct form
    |z - w|^2, summed in coordinate order, and goes to the smallest index
    among the minima; nothing is pruned and nothing is shared with
    ``batched_cell_stats``.
    """
    comps = np.asarray(comps, dtype=float)
    pts = np.asarray(points, dtype=float)
    n, kappa = len(pts), len(comps)
    d2 = np.zeros((n, kappa))
    for k in range(comps.shape[1]):
        d2 = d2 + (pts[:, k, None] - comps[None, :, k]) ** 2
    assign = np.argmin(d2, axis=1)
    counts = np.bincount(assign, minlength=kappa)
    sums = np.zeros_like(comps)
    np.add.at(sums, assign, pts)
    dist = float(np.sum(0.5 * d2[np.arange(n), assign])) / n
    grad = (counts[:, None] * comps - sums) / n
    return dist, grad, counts, sums, assign


def theta(t: int, rho: float) -> float:
    """Direct evaluation of sum_{tau=-1}^{t-1} rho**(t - tau) / (tau or 1)."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if rho < 0.0:
        raise ValueError("rho must be >= 0")
    if t == 0:
        return rho
    tau = np.arange(-1, t)
    terms = rho ** (t - tau).astype(float) / np.maximum(tau, 1)
    return float(np.sum(terms))


def gradient_observation(z, w) -> np.ndarray:
    """Single-sample winner-takes-all gradient surrogate: (kappa, dim), zero
    except in the winning row, which holds w_winner - z."""
    comps = np.asarray(w, dtype=float)
    out = np.zeros_like(comps)
    win = nearest_cell(z, comps)
    out[win] = comps[win] - z
    return out


def descent_term(z: np.ndarray, w: np.ndarray, eps: float) -> np.ndarray:
    """-eps times the winner-takes-all gradient observation, shape (kappa, dim)."""
    return -eps * gradient_observation(z, w)


def clvq_step(w: np.ndarray, z: np.ndarray, eps: float) -> np.ndarray:
    """One online tick: pull the winning component toward the sample."""
    comp = nearest_cell(z, w)
    new = np.array(w, dtype=float)
    new[comp] = w[comp] + -eps * (w[comp] - z)
    return new


def sequential_clvq(dist, kappa: int, horizon: int, seed: int, c: float,
                    replay_from_batch: bool = False, n_ref: int = 2000) -> np.ndarray:
    """The sequential online law as a plain loop: from the shared init, draw t
    of stream 0 (or the batch point it indexes) moves the winner with step
    c / (t or 1), t = 0 .. horizon-1. Returns the final (kappa, dim) quantizer."""
    batch = make_batch(dist, seed, n_ref)
    w = np.array(init_quantizer(dist, kappa, seed))
    for t in range(horizon):
        draw = StreamHandle(seed, 0, t)
        z = batch.points[generator_index(batch.n, draw)] if replay_from_batch \
            else generator_sample(dist, draw)
        w = clvq_step(w, z, c / max(t, 1))
    return w


def per_event_tick(t: int, ring: np.ndarray, schedule, events, ks) -> None:
    """`engine.dalvq_tick` one event at a time: merge, then for each event k
    in ks the scalar nearest cell of z[k] in its processor's pre-merge
    version, recorded in comp and w_before, and that cell's step into the
    merged row."""
    depth, dim = ring.shape[0], events.z.shape[1]
    merged = merged_versions(schedule, ring, t)
    cur = ring[t % depth]
    for k in ks:
        i = int(events.proc[k])
        z = events.z[k]
        w_cur = cur[i].reshape(-1, dim)
        comp = nearest_cell(z, w_cur)
        events.comp[k], events.w_before[k] = comp, cur[i]
        lo = comp * dim
        merged[i, lo:lo + dim] += -events.eps[k] * (w_cur[comp] - z)
    ring[(t + 1) % depth] = merged


def dense_merge(schedule, ring: np.ndarray, t: int) -> np.ndarray:
    """The merge at tick t over every sender: each receiver's row adds the
    terms of all M delayed versions to +0.0 one at a time, in sender order,
    zero coefficients included."""
    M = ring.shape[1]
    slots = (t - schedule.delay(t)) % ring.shape[0]
    gathered = ring[slots, np.arange(M)]   # [i, j] = delayed version of j
    coeff = schedule.coeff(t)
    out = np.zeros((M, ring.shape[2]))
    for j in range(M):
        out += coeff[:, j, None] * gathered[:, j]
    return out


def step_matrix(schedule, t: int) -> np.ndarray:
    """The merge at tick t on the augmented state as a dense (B1 M)^2 matrix,
    the reference for ``agreement._adjoint``: slot k of the state holds the M
    versions at time t - k; slot 0 takes the merge at the accessors' clamped
    delays, the others shift back by one."""
    M, B = schedule.M, schedule.B1
    i, j = np.indices((M, M))
    k, m = np.arange(1, B)[:, None], np.arange(M)
    a = np.zeros((B, M, B, M))
    a[0, i, schedule.delay(t), j] = schedule.coeff(t)
    a[k, m, k - 1, m] = 1.0
    return a.reshape(B * M, B * M)


def trace_text(schedule) -> str:
    """`schedule.write_trace`'s file as text, one json.dumps per tick of the
    accessors' values."""
    meta = {"meta": {"M": schedule.M, "horizon": schedule.horizon,
                     "alpha": schedule.alpha, "B1": schedule.B1,
                     "B2": schedule.B2, "B3": schedule.B3}}
    lines = [json.dumps(meta)]
    for t in range(schedule.horizon):
        lines.append(json.dumps({"t": t, "coeff": schedule.coeff(t).tolist(),
                                 "delay": schedule.delay(t).tolist(),
                                 "active": list(schedule.active(t))}))
    return "".join(line + "\n" for line in lines)


def generate_by_entry(spec, M: int, horizon: int, seed: int):
    """`schedule.generate` for a generated family, one entry at a time: each
    merger's row filled by a loop over its members, then a delay attached to
    each positive off-diagonal entry by an i/j loop, a uniform law's delays
    drawn one scalar call each. The library builds each tick's rows from
    one hearing mask and draws a tick's delays in one call."""
    if M < 1:
        raise ConfigError("M must be >= 1")
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    separated = spec.activity in ("round-robin", "random-subset")
    if spec.topology == "random-symmetric-gossip" and M < (3 if separated else 2):
        raise ConfigError("gossip needs at least 2 mergeable processors per merge tick")

    def merge_row(i, neighbors):  # uniform convex row over {i} + in-neighbors
        row = np.zeros(M)
        members = [i] + [j for j in neighbors if j != i]
        for j in members:
            row[j] = 1.0 / len(members)
        return row

    p = spec.merge_period
    periods = [p]
    if spec.activity == "round-robin":
        periods.append(M)
    if spec.activity == "random-subset" or spec.delay_law == "uniform" \
            or spec.topology == "random-symmetric-gossip":
        periods.append(spec.base_window)
    P = math.lcm(*periods)

    g = StreamHandle(seed, STREAM_SCHEDULE).generator()
    coeff = np.zeros((P, M, M))
    delay = np.zeros((P, M, M), dtype=np.int64)
    active = np.zeros((P, M), dtype=bool)
    for t in range(P):
        if spec.activity == "all-active":
            act = np.ones(M, dtype=bool)
        elif spec.activity == "round-robin":
            act = np.zeros(M, dtype=bool)
            act[t % M] = True
        elif spec.activity == "random-subset":
            act = g.random(M) < 0.5
            if not act.any():
                act[t % M] = True
        else:  # none
            act = np.zeros(M, dtype=bool)
        active[t] = act

        coeff[t] = np.eye(M)
        if t % p != p - 1:
            continue  # not a merge tick: identity rows everywhere
        mergers = [i for i in range(M) if not (separated and act[i])]
        if spec.topology == "complete":
            for i in mergers:
                coeff[t, i] = merge_row(i, list(range(M)))
        elif spec.topology == "ring":
            for i in mergers:
                coeff[t, i] = merge_row(i, [(i - 1) % M])
        elif len(mergers) >= 2:  # random-symmetric-gossip: one pair
            pair = g.choice(len(mergers), size=2, replace=False)
            a_, b_ = mergers[int(pair[0])], mergers[int(pair[1])]
            coeff[t, a_] = merge_row(a_, [b_])
            coeff[t, b_] = merge_row(b_, [a_])
        for i in range(M):
            for j in range(M):
                if i != j and coeff[t, i, j] > 0.0:
                    if spec.delay_law == "fixed":
                        delay[t, i, j] = spec.delay_value
                    elif spec.delay_law == "uniform":
                        delay[t, i, j] = int(g.integers(0, spec.delay_value))

    alpha, B1, B2, B3 = _measure(coeff, delay, horizon)
    return CommSchedule(M=M, horizon=horizon, alpha=alpha, B1=B1, B2=B2, B3=B3,
                        coeff_table=coeff, delay_table=delay, active_table=active, period=P)


def validate_by_check(schedule) -> dict:
    """`schedule.validate`'s delay_bounds, convex_combination,
    bounded_intervals and activity checks, each fault found by its own
    argwhere and its witness written out by hand. The library states each
    check as a list of faults and reads every witness by one rule
    (`schedule._first_fault`)."""
    M, T = schedule.M, schedule.horizon
    span = min(T, schedule.cycle + int(np.max(schedule.delay_table, initial=0)) + 1)
    coeff, delay, active = schedule.materialize(span)
    checks = {}

    ok, detail, witness = True, "delays in [0, B1), diagonal and silent entries zero", None
    if T > 0:
        too_big = np.argwhere(delay >= schedule.B1)
        diag_bad = np.argwhere(delay[:, np.arange(M), np.arange(M)] != 0)
        silent_bad = np.argwhere((coeff == 0.0) & (delay != 0))
        if len(too_big):
            t, i, j = map(int, too_big[0])
            ok, detail, witness = False, "delay at or above B1", {"t": t, "i": i, "j": j,
                                                                 "delay": int(delay[t, i, j])}
        elif len(diag_bad):
            t, i = map(int, diag_bad[0])
            ok, detail, witness = False, "nonzero self-delay", {"t": t, "i": i}
        elif len(silent_bad):
            t, i, j = map(int, silent_bad[0])
            ok, detail, witness = False, "delay on a zero coefficient", {"t": t, "i": i, "j": j}
    checks["delay_bounds"] = CheckResult(ok, detail, witness)

    ok, detail, witness = True, "rows are convex combinations with threshold alpha", None
    if T > 0:
        sums = np.sum(coeff, axis=2)
        bad_sum = np.argwhere(np.abs(sums - 1.0) > 1e-12)
        pos = coeff > 0.0
        bad_small = np.argwhere(pos & (coeff < schedule.alpha - 1e-15))
        bad_big = np.argwhere(coeff > 1.0 + 1e-15)
        diag = coeff[:, np.arange(M), np.arange(M)]
        bad_diag = np.argwhere(diag < schedule.alpha - 1e-15)
        if len(bad_sum):
            t, i = map(int, bad_sum[0])
            ok, detail, witness = False, "row does not sum to 1", {"t": t, "i": i,
                                                                  "sum": float(sums[t, i])}
        elif len(bad_big):
            t, i, j = map(int, bad_big[0])
            ok, detail, witness = False, "coefficient above 1", {"t": t, "i": i, "j": j}
        elif len(bad_small):
            t, i, j = map(int, bad_small[0])
            ok, detail, witness = False, "positive coefficient below alpha", \
                {"t": t, "i": i, "j": j, "coeff": float(coeff[t, i, j])}
        elif len(bad_diag):
            t, i = map(int, bad_diag[0])
            ok, detail, witness = False, "self weight below alpha", {"t": t, "i": i,
                                                                    "coeff": float(diag[t, i])}
    checks["convex_combination"] = CheckResult(ok, detail, witness)

    ok, detail, witness = True, "recurring pairs reappear within every B2-window", None
    if T > 0 and M > 1:
        edges = _edge_tensor(schedule.coeff_table, T)
        need = _pair_gaps(edges)[0]
        bad = np.argwhere(need > schedule.B2)
        singles = int(np.sum(np.sum(edges, axis=0) == 1))
        if len(bad):
            i, j = map(int, bad[0])
            ok, detail = False, "recurring pair exceeds the B2 interval"
            witness = {"sender": j, "receiver": i, "needed_window": int(need[i, j])}
        elif singles:
            detail += f"; {singles} pair(s) occur once and are unconstrained"
    checks["bounded_intervals"] = CheckResult(ok, detail, witness)

    ok, detail, witness = True, "some processor descends at every tick", None
    if T > 0:
        idle = np.flatnonzero(~np.any(active, axis=1))
        if len(idle):
            ok, detail, witness = False, "tick with no active processor", {"t": int(idle[0])}
    checks["activity"] = CheckResult(ok, detail, witness)
    return checks


def is_parted(q, delta: float) -> bool:
    """True if all pairwise component distances of q are >= delta."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return min_component_separation(q) >= delta


_LOG_FIELDS = ("t", "proc", "draw", "eps", "comp", "z", "w_before")


def collect(art) -> EventLog:
    """The whole event log of a run (its RunArtifacts): the arrays of one
    pass of its chunks, concatenated, read-only like each chunk's.
    The parts start with an empty log of the plan's dtypes, since a run of
    horizon 0 has no chunk."""
    cfg = art.config
    t, proc, n = art.schedule.descents(0, 0)
    parts = [EventLog(t, proc, n - 1, np.zeros(0), cfg.dim, cfg.width)]
    parts += [ch.events for ch in art.chunks()]
    cols = [np.concatenate([getattr(ev, name) for ev in parts]) for name in _LOG_FIELDS]
    log = EventLog(*cols[:4], cfg.dim, cfg.width)
    log.comp, log.z, log.w_before = cols[4:]
    log.finish()
    return log


def split(log: EventLog, schedule, snapshots: np.ndarray,
          snap_times: np.ndarray) -> Iterator[Chunk]:
    """A whole log of the schedule's planned descents, by the engine's chunk
    of ticks, each chunk's events views of the log's rows and its versions
    those of the snapshots (recorded at snap_times) at its ticks, the
    horizon's in the last: the chunks a pass of the run's ticks gives, from
    the log and the snapshots instead."""
    t_plan, proc_plan, _ = schedule.descents()
    if not (np.array_equal(log.t, t_plan) and np.array_equal(log.proc, proc_plan)):
        raise ValueError("metrics need the run's event log of every planned descent")
    T, size = schedule.horizon, engine._CHUNK
    starts = np.searchsorted(log.t, np.arange(T + 1))
    for b0 in range(0, T, size):
        b1 = min(b0 + size, T)
        e0, e1 = int(starts[b0]), int(starts[b1])
        part = copy.copy(log)
        for name in _LOG_FIELDS:
            setattr(part, name, getattr(log, name)[e0:e1])
        part.n = e1 - e0
        at = (snap_times >= b0) & (snap_times < b1 + (b1 == T))
        yield Chunk(b0, b1, e0, starts[b0:b1 + 1] - e0, part, snapshots[at])


def dense_descent(art, max_entries: int = 2**22) -> np.ndarray:
    """Descent history as a dense (horizon, M, width) array; small runs only."""
    cfg = art.config
    total = cfg.horizon * cfg.M * cfg.width
    if total > max_entries:
        raise ValueError(f"dense descent history would hold {total} floats; "
                         "use the event log directly for long runs")
    out = np.zeros((cfg.horizon, cfg.M, cfg.width))
    ev = collect(art)
    wb = ev.w_before.reshape(ev.n, cfg.kappa, cfg.dim)
    for k in range(ev.n):
        comp = int(ev.comp[k])
        lo = comp * cfg.dim
        s = -ev.eps[k] * (wb[k, comp] - ev.z[k])
        out[ev.t[k], ev.proc[k], lo:lo + cfg.dim] = s
    return out


def agreement_vector(limits, initial: np.ndarray, descent: Optional[np.ndarray],
                     t: int) -> np.ndarray:
    """The virtual consensus trajectory at time t.

    initial has shape (M, ...); descent, when given, has shape (T, M, ...)
    holding each processor's descent term per tick (zeros when idle). Satisfies
    the recursion w*(t+1) = w*(t) + sum_j phi[t, j] * descent[t, j] by
    construction of the incremental sum.
    """
    initial = np.asarray(initial, dtype=float)
    M = initial.shape[0]
    shape = initial.shape[1:]
    flat0 = initial.reshape(M, -1)
    out = limits.phi_init @ flat0
    if t > 0:
        if descent is None:
            raise ValueError("descent history required for t > 0")
        descent = np.asarray(descent, dtype=float)
        if descent.shape[0] < t or descent.shape[1] != M:
            raise ValueError("descent history must cover (t, M, ...)")
        flat_s = descent[:t].reshape(t, M, -1)
        for tau in range(t):
            out = out + limits.phi[tau] @ flat_s[tau]
    return out.reshape(shape)


def agreement_trajectory(art, limits) -> np.ndarray:
    """w*(t) at each recorded tick of a run, (n_rec, width), by the per-event
    loop: w*(0) = phi_init @ x0, and each descent event, in log order, adds
    phi[t, proc] times its descent term to its winning component's slice.
    w*(t) is read before tick t's events."""
    cfg, ev = art.config, collect(art)
    wb = ev.w_before.reshape(ev.n, cfg.kappa, cfg.dim)
    s_evt = -ev.eps[:, None] * (wb[np.arange(ev.n), ev.comp] - ev.z)
    phi_evt = limits.phi[ev.t, ev.proc]
    rec_of = {int(t): k for k, t in enumerate(art.snap_times)}
    out = np.empty((len(rec_of), cfg.width))
    starts = np.searchsorted(ev.t, np.arange(cfg.horizon + 2))
    w = limits.phi_init @ art.x0
    for t in range(cfg.horizon + 1):
        if t in rec_of:
            out[rec_of[t]] = w
        for e in range(starts[t], starts[t + 1]):
            lo = int(ev.comp[e]) * cfg.dim
            w[lo:lo + cfg.dim] += phi_evt[e] * s_evt[e]
    return out


def communication_graph(schedule, t: int) -> list:
    """Directed edges (sender, receiver) present at tick t, sorted."""
    c = schedule.coeff(t)
    M = schedule.M
    return sorted((j, i) for i in range(M) for j in range(M)
                  if i != j and c[i, j] > 0.0)


def averaging_iteration(schedule, x0: np.ndarray, T: int) -> np.ndarray:
    """Versions of the pure merge iteration at times 0..T, shape (T + 1, M, D).

    Keeps every version instead of a ring of the last B1, and applies the
    merge's einsum to versions read by time, so each tick's arithmetic is the
    library's.
    """
    hist = np.zeros((T + 1, *np.shape(x0)))
    hist[0] = x0
    senders = np.arange(schedule.M)[None, :]
    for t in range(T):
        gathered = hist[t - schedule.delay(t), senders]
        hist[t + 1] = np.einsum("ij,ijd->id", schedule.coeff(t), gathered)
    return hist


def phi_family(schedule, t_end: int) -> np.ndarray:
    """Impulse weights phi(t, tau) for every 0 <= t <= t_end, -1 <= tau < t.

    Returns F of shape (t_end + 1, t_end + 1, M, M): F[t, k, i, j] is the
    weight processor i's version at time t puts on the unit injected at
    processor j at tick tau = k - 1 (k = 0 probes the initial versions).
    Entries with tau >= t are zero. One forward merge iteration carries all
    t_end + 1 impulses as column blocks of one ring; block t + 1 is set to
    the identity once tick t's merge is done. ``compute_phi`` gives one time
    of this family, by the backward recursion.
    """
    M, depth, n = schedule.M, schedule.B1, t_end + 1
    eye = np.eye(M)
    ring = np.zeros((depth, M, n * M))
    ring[0, :, :M] = eye
    out = np.zeros((n, M, n * M))
    out[0] = ring[0]
    for t in range(t_end):
        x = merged_versions(schedule, ring, t)
        x[:, (t + 1) * M:(t + 2) * M] = eye
        ring[(t + 1) % depth] = out[t + 1] = x
    return out.reshape(n, M, n, M).transpose(0, 2, 1, 3).copy()


def envelope_blocks(schedule, limits: np.ndarray):
    """The envelope pass of ``_impulse_blocks(schedule, limits)`` one tick at
    a time, with every receiver merged and every residual taken afresh: each
    tick measures every ring slot of every block from lo on against its
    limit. Yields (t, lo, live, resid) over blocks lo .. min(t + 1, n) - 1,
    one row of the library's windows each."""
    M, depth, n = schedule.M, schedule.B1, len(limits)
    delta = float(np.max(np.abs(schedule.coeff_table.sum(axis=-1) - 1.0)))
    eye = np.eye(M)
    ring = np.zeros((depth, M, n * M))
    ring[0, :, :M] = eye
    live = np.ones(n, dtype=bool)
    lo, hi, t = 0, 1, 0
    while True:
        window = ring[:, :, lo * M:hi * M]
        dev = np.abs(window.reshape(depth, M, hi - lo, M) - limits[lo:hi]).max(axis=(1, 3))
        yield t, lo, live[lo:hi].copy(), dev[t % depth]
        live[lo:hi] &= ~(dev.max(axis=0) < 1e-14 + delta * (t + 1 - np.arange(lo, hi)))
        if not live.any():
            return
        lo, hi = int(np.argmax(live)), min(t + 2, n)
        cols = slice(lo * M, hi * M)
        x = merged_versions(schedule, ring[:, :, cols], t)
        if t + 1 < n:
            x[:, (t + 1 - lo) * M:] = eye
        ring[(t + 1) % depth, :, cols] = x
        t += 1


def envelope_log_a(schedule, limits: np.ndarray, rho: float) -> Optional[float]:
    """``phi_limit_series``' certificate over ``envelope_blocks``, one tick at
    a time: log A_hat, the largest log residual - gap * log rho of a live
    block over 1e-14, or None once the oldest live block's gap passes the
    cap 2 ceil(log(1e-14) / log(rho)) + B1 + P."""
    cap = 2 * math.ceil(math.log(1e-14) / math.log(rho)) + schedule.B1 + schedule.cycle
    log_a = -math.inf
    for t, lo, live, resid in envelope_blocks(schedule, limits):
        if t + 1 - lo > cap:  # the oldest live block's gap
            return None
        keep = live & (resid > 1e-14)
        gaps = t + 1 - lo - np.flatnonzero(keep)
        log_a = np.max(np.log(resid[keep]) - gaps * math.log(rho), initial=log_a)
    return log_a
