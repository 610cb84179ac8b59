"""Direct reference implementations the tests compare the library against.

None of these is used by the library itself: each spells out one quantity the
fast paths compute, in the plainest form, or records what the library only
streams (``phi_family``).
"""

import json
from typing import Optional

import numpy as np

from dalvq.agreement import _impulse_blocks, merged_versions
from dalvq.geometry import min_component_separation, nearest_cell
from dalvq.measures import StreamHandle, init_quantizer, make_batch, sample


def generator_sample(spec, draw: StreamHandle) -> np.ndarray:
    """The point at one stream address, read from the address's own
    generator (`StreamHandle.generator`) one value at a time: the per-draw
    rule the library's draw tables compute for all addresses at once."""
    if spec.kind == "truncated-gaussian-mixture":   # the library draws these per address too
        return sample(spec, draw)
    g = draw.generator()
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


def is_parted(q, delta: float) -> bool:
    """True if all pairwise component distances of q are >= delta."""
    if delta < 0:
        raise ValueError("delta must be >= 0")
    return min_component_separation(q) >= delta


def dense_descent(art, max_entries: int = 2**22) -> np.ndarray:
    """Descent history as a dense (horizon, M, width) array; small runs only."""
    cfg = art.config
    total = cfg.horizon * cfg.M * cfg.width
    if total > max_entries:
        raise ValueError(f"dense descent history would hold {total} floats; "
                         "use the event log directly for long runs")
    out = np.zeros((cfg.horizon, cfg.M, cfg.width))
    ev = art.events
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
    cfg, ev = art.config, art.events
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
    Entries with tau >= t are zero. Records every time of the library's joint
    impulse propagator, which ``compute_phi`` reads at one time only.
    """
    M, n = schedule.M, t_end + 1
    out = np.zeros((n, M, n * M))
    for t, lo, x, _, _ in _impulse_blocks(schedule, n, t_end=t_end):
        out[t, :, lo * M:lo * M + x.shape[1]] = x
    return out.reshape(n, M, n, M).transpose(0, 2, 1, 3).copy()
