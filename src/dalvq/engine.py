"""The distributed online quantization iteration.

Each simulated processor repeats: draw a sample, apply one winner-takes-all
descent tick scaled by its step policy, and merge delayed versions of its
peers according to the communication schedule. The schedule alone fixes every
descent's tick, processor, step and draw counter, and no sample depends on the
iterates, so a run takes its ticks in chunks, each planned and drawn before
its first tick: the samples of a table of consecutive chunks' descents come
from one call over their draw addresses. Draw k of processor i is addressed
as (seed, i, k) in a counter-based stream, so a run is a pure function of its
config and schedule; replaying any processor's draws needs no coordination
with the others. The events of one tick belong to distinct processors and
each reads only its own processor's pre-merge version, so a tick with several
events scores and steps them together. Within a chunk the ticks go in windows
of _WINDOW ticks: at each window start, every event of the window is scored
against its processor's version there in one stacked call, and a drift bound
certifies most winners, whose ticks then skip nearest_cell (see dalvq_tick),
and then plans the window's ticks (_plan). One object is the run:
RunArtifacts holds the only copy of what fixes it and takes its ticks
(RunArtifacts.chunks). The chunks are the only source of a run's events: a
consumer, such as the metrics sweep, holds one chunk of them at a time, and no
whole log is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Iterator, NamedTuple, Optional

import numpy as np

from . import measures
from .agreement import _check_depth, _combine, _merge_plan, _merge_rows, _row_delta, merged_versions
from .errors import ConfigError, require_int, strict_object
from .geometry import SampleBatch, _sq_dist, nearest_cell
from .measures import (DistributionSpec, StreamHandle, STREAM_INIT_BASE,
                       draw_index, init_quantizer, make_batch, sample)
from .schedule import CommSchedule, ScheduleSpec, generate

__all__ = [
    "StepPolicy",
    "RunConfig",
    "EventLog",
    "Chunk",
    "RunArtifacts",
    "dalvq_tick",
    "run",
]

_STEP_KINDS = ("global-clock", "local-clock")
# RunArtifacts.chunks certifies the winners of a window of this many ticks at once
# (_certify): a longer window shares its scoring call among more events, a
# shorter one keeps the drift bound tighter.
_WINDOW = 64
# RunArtifacts.chunks hands a run on in chunks of this many ticks
_CHUNK = 256
_EPS = np.finfo(float).eps
_INIT_POLICIES = ("shared", "per-processor")


@dataclass(frozen=True)
class StepPolicy:
    """Step size law: c / (t or 1) on the shared clock, or c / (own active
    count) on the local clock. c must be a float in (0, 1)."""

    kind: str
    c: float

    def __post_init__(self):
        if self.kind not in _STEP_KINDS:
            raise ConfigError(f"step kind must be one of {_STEP_KINDS}, got {self.kind!r}")
        if not isinstance(self.c, float) or not 0.0 < self.c < 1.0:
            raise ConfigError(f"step constant must be a float in (0, 1), got {self.c!r}")

    def steps(self, t: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, float, float]:
        """Steps of the descents at ticks t, each its processor's n-th active
        tick, and (K1, K2) with K1 <= step * (t or 1) <= K2 on every one of
        them, K2 floored at 1. Exact: takes the planned descents instead of
        assuming a worst case."""
        eps = self.c / np.maximum(t if self.kind == "global-clock" else n, 1)
        if self.kind == "global-clock" or len(t) == 0:
            return eps, self.c, 1.0
        ratio = self.c * np.maximum(t, 1) / n
        return eps, float(ratio.min()), max(1.0, float(ratio.max()))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "c": self.c}

    @staticmethod
    def from_dict(data: dict) -> "StepPolicy":
        return StepPolicy(**strict_object("step policy", data, ("kind", "c")))


_INT_FIELDS = ("M", "kappa", "dim", "horizon", "seed", "n_ref", "cadence")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on. Two equal configs give identical artifacts."""

    M: int
    kappa: int
    dim: int
    horizon: int
    dist: DistributionSpec
    sched: ScheduleSpec
    step: StepPolicy
    seed: int
    n_ref: int = 2000
    cadence: int = 100
    replay_from_batch: bool = False
    init: str = "shared"

    def __post_init__(self):
        for name in _INT_FIELDS:
            require_int(name, getattr(self, name))
        for name, kind in (("dist", DistributionSpec), ("sched", ScheduleSpec),
                           ("step", StepPolicy)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}")
        if self.M < 1 or self.kappa < 1 or self.dim < 1:
            raise ConfigError("M, kappa and dim must all be >= 1")
        if self.horizon < 0:
            raise ConfigError("horizon must be >= 0")
        if self.n_ref < 1 or self.cadence < 1:
            raise ConfigError("n_ref and cadence must be >= 1")
        if not (0 <= self.seed < 2**63):
            raise ConfigError("seed must fit a nonnegative 63-bit integer")
        if self.dist.dim != self.dim:
            raise ConfigError(f"distribution dimension {self.dist.dim} != dim {self.dim}")
        if not isinstance(self.replay_from_batch, bool):
            raise ConfigError(f"replay_from_batch must be a bool, got {self.replay_from_batch!r}")
        if self.init not in _INIT_POLICIES:
            raise ConfigError(f"init must be one of {_INIT_POLICIES}, got {self.init!r}")

    @property
    def width(self) -> int:
        return self.kappa * self.dim

    def to_dict(self) -> dict:
        return {"M": self.M, "kappa": self.kappa, "dim": self.dim,
                "horizon": self.horizon, "dist": self.dist.to_dict(),
                "sched": self.sched.to_dict(), "step": self.step.to_dict(),
                "seed": self.seed, "n_ref": self.n_ref, "cadence": self.cadence,
                "replay_from_batch": self.replay_from_batch, "init": self.init}

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        kw = dict(strict_object("run config", data,
                                ("M", "kappa", "dim", "horizon", "dist", "sched", "step", "seed"),
                                ("n_ref", "cadence", "replay_from_batch", "init")))
        kw["dist"] = DistributionSpec.from_dict(kw["dist"])
        kw["sched"] = ScheduleSpec.from_dict(kw["sched"])
        kw["step"] = StepPolicy.from_dict(kw["step"])
        return RunConfig(**kw)


class EventLog:
    """Per-descent records in tick order, one for each planned descent.

    For event k: processor proc[k] descended at tick t[k] with step eps[k] on
    sample z[k], the draw at counter draw[k] of its stream; comp[k] is the
    winning component and w_before[k] the flat quantizer the gradient
    observation was evaluated at (its version at t[k], before that tick's
    merge). The descent vector is recoverable as -eps * (w_before[comp] - z)
    on the winning rows. The plan gives t, proc, draw and eps, the draws z,
    and the ticks fill in comp and w_before. comp starts at -1, "not yet
    scored": a winner certified before its tick is recorded there first
    (see dalvq_tick).
    """

    def __init__(self, t: np.ndarray, proc: np.ndarray, draw: np.ndarray,
                 eps: np.ndarray, dim: int, width: int):
        self.t, self.proc, self.draw, self.eps = t, proc, draw, eps
        self.n = len(t)
        self.comp = np.full(self.n, -1, dtype=np.int32)
        self.z = np.zeros((self.n, dim))
        self.w_before = np.zeros((self.n, width))

    def finish(self) -> None:
        for arr in (self.t, self.proc, self.draw, self.eps, self.comp, self.z, self.w_before):
            arr.flags.writeable = False


class Chunk(NamedTuple):
    """Ticks b0 .. b1 - 1 of a run and their descents, the run's events e0
    onwards: tick t's are events[starts[t - b0]:starts[t - b0 + 1]]; and the
    versions at its recorded ticks, the horizon's too in a run's last chunk."""

    b0: int
    b1: int
    e0: int
    starts: np.ndarray       # (b1 - b0 + 1,) offsets into events
    events: EventLog
    snaps: np.ndarray        # (recorded ticks in b0 .. b1 - 1, or b1 at the horizon, M, width)


@dataclass(frozen=True)
class RunArtifacts:
    """One run: what fixes it, and its ticks, taken a chunk at a time.

    run() stops before the first tick. Each pass of chunks() starts at tick 0
    with a fresh version ring; each chunk's descents are planned and their
    samples drawn a table ahead (_planned), and the chunk runs its ticks and
    is handed on, kept nowhere: the events are exposed no other way. Every
    pass gives the same chunks. n_events, the plan's count, is known at once.
    The first pass to reach the horizon keeps the snapshots (the final
    versions last) and K1, K2; reading one of them first runs such a pass. That
    cache is no constructor field, so dataclasses.replace starts afresh.
    """

    config: RunConfig
    schedule: CommSchedule
    batch: SampleBatch
    x0: np.ndarray                     # (M, width) initial versions
    snap_times: np.ndarray             # (n_snap,) recorded ticks
    _end: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _planned(self) -> Iterator[tuple]:
        """Each chunk's ticks b0 .. b1 - 1, its descents (t, proc, n) as
        CommSchedule.descents gives them, and their samples. The samples are
        drawn a table ahead: one call over the draw addresses of as many
        consecutive chunks as measures._TABLE_CHUNK holds, or of one chunk
        that alone holds more. The first chunk is a table of its own, so a
        consumer running beside the ticks, such as the forked sweep, gets it
        without waiting for a whole table's draws."""
        cfg, size = self.config, _CHUNK
        before = np.zeros(cfg.M, dtype=np.int64)    # each processor's active ticks before b0
        table, n_table = [], 0
        for b0 in range(0, cfg.horizon, size):
            b1 = min(b0 + size, cfg.horizon)
            t_ev, proc, n = self.schedule.descents(b0, b1, before)
            before = before + np.bincount(proc, minlength=cfg.M)
            if table and (b0 == size or n_table + len(t_ev) > measures._TABLE_CHUNK):
                yield from self._drawn(table)
                table, n_table = [], 0
            table.append((b0, b1, t_ev, proc, n))
            n_table += len(t_ev)
        if table:
            yield from self._drawn(table)

    def _drawn(self, table: list) -> Iterator[tuple]:
        """The table's chunk plans, each with its slice of one draw over all
        their addresses."""
        cfg = self.config
        draws = StreamHandle(cfg.seed, np.concatenate([plan[3] for plan in table]),
                             np.concatenate([plan[4] for plan in table]) - 1)
        if cfg.replay_from_batch:
            z = np.take(self.batch.points, draw_index(self.batch.n, draws), axis=0)
        else:
            z = sample(cfg.dist, draws)
        for plan in table:
            yield (*plan, z[:len(plan[2])])
            z = z[len(plan[2]):]

    def chunks(self) -> Iterator[Chunk]:
        """The run, by chunks of _CHUNK consecutive ticks and their recorded versions."""
        cfg, schedule = self.config, self.schedule
        T, depth = cfg.horizon, schedule.B1
        ring = np.zeros((depth, cfg.M, cfg.width))
        ring[0] = self.x0
        snapshots = np.empty((len(self.snap_times), cfg.M, cfg.width))
        snap_at = {int(u): k for k, u in enumerate(self.snap_times)}
        snapshots[-1] = self.x0         # the horizon's at horizon 0; a last chunk rewrites it
        delta = _row_delta(schedule)
        _check_depth(_merge_plan(schedule), depth)
        K1, K2, e0 = math.inf, 1.0, 0
        for b0, b1, t_ev, proc, n, z in self._planned():
            eps, k1, k2 = cfg.step.steps(t_ev, n)
            if len(t_ev):
                K1, K2 = min(K1, k1), max(K2, k2)
            events = EventLog(t_ev, proc, n - 1, eps, cfg.dim, cfg.width)
            events.z[:] = z
            starts = np.searchsorted(t_ev, np.arange(b0, b1 + 1))
            first = starts.tolist()
            for w0 in range(b0, b1, _WINDOW):
                w1 = min(w0 + _WINDOW, b1)
                _certify(ring, w0, events, slice(first[w0 - b0], first[w1 - b0]), delta)
                plan = _plan(schedule, ring, w0, w1, events, first[w0 - b0], first[w1 - b0])
                for t in range(w0, w1):
                    k = snap_at.get(t)
                    if k is not None:
                        snapshots[k] = ring[t % depth]
                    dalvq_tick(t, ring, schedule, events,
                               range(first[t - b0], first[t - b0 + 1]), plan)
            if b1 == T:
                snapshots[-1] = ring[T % depth]
            events.finish()
            yield Chunk(b0, b1, e0, starts, events,
                        snapshots[slice(*np.searchsorted(self.snap_times, [b0, b1 + (b1 == T)]))])
            e0 += events.n
        if not self._end:
            snapshots.flags.writeable = False
            self._end.update(snapshots=snapshots, K1=K1 if self.n_events else cfg.step.c, K2=K2)

    n_events = property(lambda self: int(self.schedule.active_count(self.config.horizon).sum()),
                        doc="the number of planned descents")

    # read only by perfbench's tracer (events.n); goes with its seams, ROADMAP item 3B
    events = property(lambda self: SimpleNamespace(n=self.n_events))

    def _ended(self, name: str):
        """What the first pass to reach the horizon kept, after one if none has."""
        if not self._end:
            for _ in self.chunks():
                pass
        return self._end[name]

    snapshots = property(lambda self: self._ended("snapshots"),
                         doc="(n_snap, M, width) versions at the recorded ticks")
    final = property(lambda self: self.snapshots[-1],
                     doc="(M, width) versions at the horizon, the last snapshot")
    K1 = property(lambda self: self._ended("K1"), doc="least step * (t or 1) of a descent")
    K2 = property(lambda self: self._ended("K2"), doc="largest step * (t or 1), at least 1")


def _plan(schedule: CommSchedule, ring: np.ndarray, t0: int, t1: int, events: EventLog,
          k0: int, k1: int) -> tuple:
    """Ticks t0 .. t1 - 1 and events k0 .. k1 - 1 planned: t0, k0, the ring one version a row,
    winner offsets in a slot, -eps, merge rows, coefficients, identity flags, events to score."""
    merge, t, ks, dim = _merge_plan(schedule), np.arange(t0, t1), slice(k0, k1), events.z.shape[1]
    r = t % len(merge.identity)
    at = (events.proc[ks] * ring.shape[2] + events.comp[ks] * dim)[:, None] + np.arange(dim)
    todo = np.bincount(events.t[ks][events.comp[ks] < 0] - t0, minlength=t1 - t0).tolist()
    return (t0, k0, ring.reshape(-1, ring.shape[2]), at, -events.eps[ks, None].repeat(dim, 1),
            _merge_rows(merge, t, len(ring)), merge.coeff[r], merge.identity[r].tolist(), todo)


def dalvq_tick(t: int, ring: np.ndarray, schedule: CommSchedule, events: EventLog,
               ks: range, plan: Optional[tuple] = None) -> None:
    """Advance the version ring (depth, M, width) from tick t to t + 1: score
    each of the tick's planned events ks on its sample z[k] at its
    processor's pre-merge version, merge delayed versions into the next
    slot, and add the descent terms there. Every read of the current
    versions comes before the merge writes, so a ring of depth 1, whose next
    slot is the current one, advances too.

    An event whose comp is still -1, the value EventLog starts it at, is
    scored by nearest_cell, so a direct caller gets nearest_cell's rule for
    every event. RunArtifacts.chunks records the winners it can certify
    before the tick (_certify), and the tick keeps them. A tick's events
    belong to distinct processors, and each reads only its own processor's
    pre-merge version, so several events are scored in one stacked
    nearest_cell call and stepped together; a lone event takes the scalar
    step, which costs less than a stack of one.

    RunArtifacts.chunks plans each window after _certify (_plan); a direct
    call plans its own tick. A tick of several events is then a take, a gather,
    the merge (a take and an einsum, or + 0.0 on an identity tick) and a
    scatter through a flat view of the next slot, so a direct call refuses
    a ring without one before it writes.

    Why a certified winner is nearest_cell's (Elkan, ICML 2003; Hamerly,
    SDM 2010; the argument geometry._cell_moves makes for the sweep): at the
    window start t0, event k of processor i is scored against i's version V
    at t0, giving its winner c, the distance r from z to V_c and the slack s,
    the runner-up's distance minus r.

    - Every version stored at t0 (times max(0, t0 - depth + 1) .. t0, all
      processors) has component l in the box of component l over them, of
      diagonal spread_l. Let B_l(G) be that box grown by G.
    - A merge reads stored versions with nonnegative coefficients
      (CommSchedule rejects others), so a row with sum 1 keeps component l
      in B_l(G), and a row whose sum misses 1 by at most delta moves it by
      at most delta R more, where R bounds every norm involved.
    - An event at tick u moves its winner by eps |w - z|, and the winner is
      no farther from z than component c, which lies within spread_c + G_u
      of V_c; so it moves by at most eps (r + spread_c + G_u).
    - So every version at tick t has component l in B_l(G_t), with G_t0 = 0
      and G_{u+1} = G_u (1 + m_u) + a_u + rho. Here m_u is the largest step
      and a_u the largest eps (r + spread_c) of tick u's events, and rho
      takes delta R and the rounding of the merge, the step and the bound.
    - At event k's tick t, i's version W has |W_l - V_l| <= spread_l + G_t
      for every l. So W_c is strictly nearest to z when s > spread_c +
      max_{l != c} spread_l + 2 G_t. Adding _cell_moves' allowance of
      16 (dim + 4) eps R for the rounding of the distances makes W_c the
      strict least of the direct-form distances at t, which is nearest_cell's
      winner. A tie has zero slack and is never certified.
    """
    if plan is None:
        if len(ks) > 1 and not ring[(t + 1) % ring.shape[0]].flags.c_contiguous:
            raise ValueError("the version ring must be C-contiguous")
        _check_depth(_merge_plan(schedule), ring.shape[0])
        ks = range(ks[0], ks[0] + len(ks)) if len(ks) else range(0)
        plan = _plan(schedule, ring, t, t + 1, events, ks.start, ks.stop)
    t0, k0, rows2d, at, neg_eps, rows, coeff, identity, todo = plan
    depth, dim, u, n = ring.shape[0], events.z.shape[1], t - t0, len(ks)
    cur, nxt = ring[t % depth], ring[(t + 1) % depth]
    if n == 1:
        k = ks[0]
        i, z = int(events.proc[k]), events.z[k]
        comp = int(events.comp[k])
        if comp < 0:
            comp = events.comp[k] = nearest_cell(z, cur[i].reshape(-1, dim))
        events.w_before[k] = cur[i]
        lo = comp * dim
        step = -events.eps[k] * (cur[i, lo:lo + dim] - z)
    elif n:
        ks, e = slice(ks.start, ks.stop), slice(ks.start - k0, ks.stop - k0)
        z, w_before = events.z[ks], cur.take(events.proc[ks], 0, out=events.w_before[ks])
        if todo[u]:
            comp = events.comp[ks]
            left = np.flatnonzero(comp < 0)
            comp[left] = nearest_cell(z[left], w_before[left].reshape(len(left), -1, dim))
            at[e][left] += (comp[left, None] + 1) * dim     # planned at comp -1
        step = (cur.take(at[e]) - z) * neg_eps[e]
    np.add(cur, 0.0, out=nxt) if identity[u] else _combine(coeff[u], rows2d.take(rows[u], 0), nxt)
    if n == 1:
        nxt[i, lo:lo + dim] += step
    elif n:
        nxt.reshape(-1)[at[e]] += step


def _certify(ring: np.ndarray, t0: int, events: EventLog, ks: slice, delta: float) -> None:
    """Record in comp the winner of each event ks (ticks t0 onwards) that the
    drift bound of dalvq_tick proves, before tick t0 runs, and leave the
    others at -1. delta is the schedule's largest |row sum - 1|. The events
    are scored in one stacked direct-form call. G_t is bounded by Q_t
    sum_{u<t} (a_u + rho), with Q_t = prod_{u<t} (1 + m_u). R = 2 sqrt(dim)
    (|x| + |z|), where |x| and |z| are the largest coordinates of the stored
    versions and of the samples, bounds the norms up to the tick of any event
    that certifies: its 2 G_t is below its slack, which is at most 2 sqrt(dim)
    |x|.
    """
    E = ks.stop - ks.start
    if E == 0:
        return
    depth, M, width = ring.shape
    dim = events.z.shape[1]
    kappa = width // dim
    proc, z, eps = events.proc[ks], events.z[ks], events.eps[ks]
    V = ring[t0 % depth].take(proc, 0).reshape(E, kappa, dim)
    d2 = _sq_dist(z.T[:, None, :], V.transpose(2, 1, 0), np.empty((kappa, E)),
                  np.empty((kappa, E)))                   # component-major
    win = d2.argmin(axis=0)
    rows = np.arange(E)
    r = np.sqrt(d2[win, rows])
    d2[win, rows] = np.inf
    slack = np.sqrt(d2.min(axis=0)) - r                 # inf when kappa == 1

    stored = ring[:t0 + 1] if t0 + 1 < depth else ring
    lo, hi = stored.min(axis=(0, 1)), stored.max(axis=(0, 1))
    spread = np.sqrt(np.square(hi - lo).reshape(kappa, dim).sum(axis=1))
    top = np.sort(spread)[::-1]
    other = np.where(spread == top[0], top[1] if kappa > 1 else 0.0, top[0])
    R = 2.0 * math.sqrt(dim) * (max(hi.max(), -lo.min()) + np.abs(z).max())
    rho = R * (delta + 4 * (M + dim + 4) * (1.0 + delta) * _EPS)

    u = events.t[ks] - t0
    m, a = np.zeros(u[-1] + 1), np.zeros(u[-1] + 1)
    np.maximum.at(m, u, eps)
    np.maximum.at(a, u, eps * (r + spread[win]))
    G = np.zeros(len(a) + 1)
    G[1:] = np.cumsum(a + rho) * np.cumprod(1.0 + m)
    theta = spread[win] + other[win] + 2.0 * G[u] + 16 * (dim + 4) * _EPS * R
    ok = slack > theta
    events.comp[ks][ok] = win[ok]


def initial_versions(config: RunConfig) -> np.ndarray:
    """(M, width) start versions under the configured init policy."""
    if config.init == "shared":
        q = init_quantizer(config.dist, config.kappa, config.seed)
        return np.tile(q.reshape(-1), (config.M, 1))
    rows = [init_quantizer(config.dist, config.kappa, config.seed,
                           stream=STREAM_INIT_BASE + i).reshape(-1)
            for i in range(config.M)]
    return np.array(rows)


def run(config: RunConfig) -> RunArtifacts:
    """Set up a run: its schedule, reference batch and start versions, in
    the one RunArtifacts that holds them. Byte-deterministic in the config.
    The ticks run when the artifacts' chunks or versions are first read."""
    schedule = generate(config.sched, config.M, config.horizon, config.seed)
    batch = make_batch(config.dist, config.seed, config.n_ref)
    x0 = initial_versions(config)
    snap_times = np.array(sorted(set(range(0, config.horizon + 1, config.cadence))
                                 | {config.horizon}), dtype=np.int64)
    for arr in (x0, snap_times):
        arr.flags.writeable = False
    return RunArtifacts(config=config, schedule=schedule, batch=batch, x0=x0,
                        snap_times=snap_times)
