"""The distributed online quantization iteration.

Each simulated processor repeats: draw a sample, apply one winner-takes-all
descent tick scaled by its step policy, and merge delayed versions of its
peers according to the communication schedule. The schedule alone fixes every
descent's tick, processor, step and draw counter, and no sample depends on the
iterates, so a run plans every descent and draws every sample before its first
tick, in one call over the array of draw addresses. Draw k of processor i is
addressed as (seed, i, k) in a counter-based stream, so a run is a pure
function of its config and schedule; replaying any processor's draws needs no
coordination with the others. The events of one tick belong to distinct
processors and each reads only its own processor's pre-merge version, so a
tick with several events scores and steps them together.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .agreement import merged_versions
from .errors import ConfigError, require_int, strict_object
from .geometry import SampleBatch, nearest_cell
from .measures import (DistributionSpec, StreamHandle, STREAM_INIT_BASE,
                       draw_index, init_quantizer, make_batch, sample)
from .schedule import CommSchedule, ScheduleSpec, generate

__all__ = [
    "StepPolicy",
    "RunConfig",
    "EventLog",
    "RunArtifacts",
    "dalvq_tick",
    "run",
]

_STEP_KINDS = ("global-clock", "local-clock")
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
    on the winning rows. The plan gives t, proc, draw and eps, run draws z
    before the first tick, and the ticks fill in comp and w_before.
    """

    def __init__(self, t: np.ndarray, proc: np.ndarray, draw: np.ndarray,
                 eps: np.ndarray, dim: int, width: int):
        self.t, self.proc, self.draw, self.eps = t, proc, draw, eps
        self.n = len(t)
        self.comp = np.zeros(self.n, dtype=np.int32)
        self.z = np.zeros((self.n, dim))
        self.w_before = np.zeros((self.n, width))

    def finish(self) -> None:
        for arr in (self.t, self.proc, self.draw, self.eps, self.comp, self.z, self.w_before):
            arr.flags.writeable = False


@dataclass(frozen=True)
class RunArtifacts:
    """Everything a finished run exposes to diagnostics and reports."""

    config: RunConfig
    schedule: CommSchedule
    batch: SampleBatch
    x0: np.ndarray                     # (M, width) initial versions
    events: EventLog
    snap_times: np.ndarray             # (n_snap,) recorded ticks
    snapshots: np.ndarray              # (n_snap, M, width) versions at those ticks
    final: np.ndarray                  # (M, width) versions at the horizon
    K1: float
    K2: float


def dalvq_tick(t: int, ring: np.ndarray, schedule: CommSchedule, events: EventLog,
               ks: range) -> None:
    """Advance the version ring (depth, M, width) from tick t to t + 1: merge
    delayed versions, then add the descent term of each of the tick's planned
    events ks on its sample z[k], at its processor's pre-merge version.

    A tick's events belong to distinct processors, and each reads only its
    own processor's pre-merge version, so several events are scored in one
    stacked nearest_cell call and stepped in one scatter; a lone event takes
    the scalar step, which costs less than a stack of one.
    """
    depth, dim = ring.shape[0], events.z.shape[1]
    merged = merged_versions(schedule, ring, t)
    cur = ring[t % depth]
    if len(ks) == 1:
        k = ks[0]
        i = int(events.proc[k])
        z = events.z[k]
        w_cur = cur[i].reshape(-1, dim)
        comp = nearest_cell(z, w_cur)
        events.comp[k], events.w_before[k] = comp, cur[i]
        lo = comp * dim
        merged[i, lo:lo + dim] += -events.eps[k] * (w_cur[comp] - z)
    elif len(ks) > 1:
        ks = slice(ks.start, ks.stop)
        i = events.proc[ks]
        z = events.z[ks]
        w_before = cur[i]
        w_cur = w_before.reshape(len(i), -1, dim)
        comp = nearest_cell(z, w_cur)
        events.comp[ks], events.w_before[ks] = comp, w_before
        step = -events.eps[ks, None] * (w_cur[np.arange(len(i)), comp] - z)
        merged[i[:, None], comp[:, None] * dim + np.arange(dim)] += step
    ring[(t + 1) % depth] = merged


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
    """Execute a full run. Byte-deterministic in the config. The schedule plans
    every descent, each planned draw fills its row of events.z, and then the
    ticks merge and descend."""
    schedule = generate(config.sched, config.M, config.horizon, config.seed)
    batch = make_batch(config.dist, config.seed, config.n_ref)
    x0 = initial_versions(config)

    t_ev, proc, n = schedule.descents()
    eps, K1, K2 = config.step.steps(t_ev, n)
    events = EventLog(t_ev, proc, n - 1, eps, config.dim, config.width)
    starts = np.searchsorted(t_ev, np.arange(config.horizon + 1))
    draws = StreamHandle(config.seed, proc, events.draw)
    events.z[:] = batch.points[draw_index(batch.n, draws)] if config.replay_from_batch \
        else sample(config.dist, draws)

    depth = schedule.B1
    ring = np.zeros((depth, config.M, config.width))
    ring[0] = x0
    snap_times = np.array(sorted(set(range(0, config.horizon + 1, config.cadence))
                                 | {config.horizon}), dtype=np.int64)
    snapshots = np.empty((len(snap_times), config.M, config.width))
    snap_at = {int(u): k for k, u in enumerate(snap_times)}

    for t in range(config.horizon):
        k = snap_at.get(t)
        if k is not None:
            snapshots[k] = ring[t % depth]
        dalvq_tick(t, ring, schedule, events, range(starts[t], starts[t + 1]))
    snapshots[snap_at[config.horizon]] = ring[config.horizon % depth]

    events.finish()
    final = ring[config.horizon % depth].copy()
    for arr in (x0, snap_times, snapshots, final):
        arr.flags.writeable = False
    return RunArtifacts(config=config, schedule=schedule, batch=batch, x0=x0,
                        events=events, snap_times=snap_times, snapshots=snapshots,
                        final=final, K1=K1, K2=K2)
