"""The distributed online quantization iteration.

Each simulated processor repeats: draw a sample, apply one winner-takes-all
descent tick scaled by its step policy, and merge delayed versions of its
peers according to the communication schedule. Everything is driven by
counter-based streams, so a run is a pure function of its config and schedule;
replaying any processor's draws needs no coordination with the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .agreement import merged_versions
from .errors import ConfigError, require_int
from .geometry import SampleBatch, nearest_cell
from .measures import (DistributionSpec, StreamHandle, STREAM_INIT_BASE,
                       draw_index, init_quantizer, make_batch, sample)
from .schedule import CommSchedule, ScheduleSpec, generate

__all__ = [
    "StepPolicy",
    "RunConfig",
    "EngineState",
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

    def epsilon(self, t: int, n_local: int) -> float:
        """Step for a descent at tick t; n_local counts the processor's active
        ticks t' <= t, including this one."""
        if self.kind == "global-clock":
            return self.c / max(t, 1)
        return self.c / max(n_local, 1)

    def derived_constants(self, schedule: CommSchedule, horizon: int) -> tuple[float, float]:
        """(K1, K2) with K1 * (t or 1) <= step <= K2 * (t or 1) on every active
        tick of this schedule, K2 floored at 1. Exact: enumerates the activity
        pattern instead of assuming a worst case."""
        if self.kind == "global-clock":
            return self.c, max(1.0, self.c)
        ts = np.arange(horizon)
        idx = ts % schedule.period if schedule.period is not None else ts
        act = schedule.active_table[idx]                     # (horizon, M)
        if horizon == 0 or not act.any():
            return self.c, 1.0
        counts = np.cumsum(act, axis=0)
        ratio = self.c * np.maximum(ts, 1)[:, None] / np.maximum(counts, 1)
        vals = ratio[act]
        return float(vals.min()), max(1.0, float(vals.max()))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "c": self.c}

    @staticmethod
    def from_dict(data: dict) -> "StepPolicy":
        if not isinstance(data, dict):
            raise ConfigError("step policy must be an object")
        unknown = set(data) - {"kind", "c"}
        if unknown:
            raise ConfigError(f"unknown step policy fields: {sorted(unknown)}")
        if "kind" not in data or "c" not in data:
            raise ConfigError("step policy needs 'kind' and 'c'")
        return StepPolicy(kind=data["kind"], c=data["c"])


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
        fields = {"M", "kappa", "dim", "horizon", "dist", "sched", "step", "seed",
                  "n_ref", "cadence", "replay_from_batch", "init"}
        unknown = set(data) - fields
        if unknown:
            raise ConfigError(f"unknown run config fields: {sorted(unknown)}")
        missing = {"M", "kappa", "dim", "horizon", "dist", "sched", "step", "seed"} - set(data)
        if missing:
            raise ConfigError(f"run config missing fields: {sorted(missing)}")
        kw = dict(data)
        kw["dist"] = DistributionSpec.from_dict(kw["dist"])
        kw["sched"] = ScheduleSpec.from_dict(kw["sched"])
        kw["step"] = StepPolicy.from_dict(kw["step"])
        return RunConfig(**kw)


class EventLog:
    """Per-descent records in tick order, preallocated to the exact count.

    For event k: processor proc[k] descended at tick t[k] with step eps[k] on
    sample z[k]; comp[k] is the winning component and w_before[k] the flat
    quantizer the gradient observation was evaluated at (its version at t[k],
    before that tick's merge). The descent vector is recoverable as
    -eps * (w_before[comp] - z) on the winning rows.
    """

    def __init__(self, capacity: int, dim: int, width: int):
        self.t = np.zeros(capacity, dtype=np.int64)
        self.proc = np.zeros(capacity, dtype=np.int32)
        self.comp = np.zeros(capacity, dtype=np.int32)
        self.eps = np.zeros(capacity, dtype=float)
        self.z = np.zeros((capacity, dim), dtype=float)
        self.w_before = np.zeros((capacity, width), dtype=float)
        self.n = 0

    def append(self, t: int, proc: int, comp: int, eps: float,
               z: np.ndarray, w_before: np.ndarray) -> None:
        k = self.n
        self.t[k] = t
        self.proc[k] = proc
        self.comp[k] = comp
        self.eps[k] = eps
        self.z[k] = z
        self.w_before[k] = w_before
        self.n = k + 1

    def finish(self) -> None:
        for name in ("t", "proc", "comp", "eps", "z", "w_before"):
            arr = getattr(self, name)[:self.n]
            arr.flags.writeable = False
            setattr(self, name, arr)


@dataclass
class EngineState:
    """Mutable in-run state: the version ring plus per-processor bookkeeping."""

    ring: np.ndarray                   # (depth, M, width)
    t: int
    n_local: np.ndarray                # (M,) active-tick counts
    handles: list                      # per-processor StreamHandle


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
    n_local: np.ndarray                # (M,) final active counts
    K1: float
    K2: float


def dalvq_tick(state: EngineState, schedule: CommSchedule, config: RunConfig,
               batch: Optional[SampleBatch], events: EventLog) -> None:
    """Advance one tick: merge delayed versions, then add each active
    processor's descent term (evaluated at its own pre-merge version)."""
    t = state.t
    ring = state.ring
    depth = ring.shape[0]
    merged = merged_versions(schedule.coeff(t), schedule.delay(t), ring, t)
    active = schedule.active(t)
    if active:
        cur = ring[t % depth]
        for i in active:
            if config.replay_from_batch:
                idx, state.handles[i] = draw_index(batch.n, state.handles[i])
                z = batch.points[idx]
            else:
                z, state.handles[i] = sample(config.dist, state.handles[i])
            state.n_local[i] += 1
            eps = config.step.epsilon(t, int(state.n_local[i]))
            w_cur = cur[i].reshape(config.kappa, config.dim)
            comp = nearest_cell(z, w_cur)
            events.append(t, i, comp, eps, z, cur[i])
            lo = comp * config.dim
            merged[i, lo:lo + config.dim] += -eps * (w_cur[comp] - z)
    ring[(t + 1) % depth] = merged
    state.t = t + 1


def _total_active(schedule: CommSchedule, horizon: int) -> int:
    tab = schedule.active_table
    if schedule.period is None:
        return int(tab[:horizon].sum())
    P = schedule.period
    return int(tab.sum()) * (horizon // P) + int(tab[:horizon % P].sum())


def initial_versions(config: RunConfig) -> np.ndarray:
    """(M, width) start versions under the configured init policy."""
    if config.init == "shared":
        q = init_quantizer(config.dist, config.kappa, config.seed)
        return np.tile(q.components.reshape(-1), (config.M, 1))
    rows = [init_quantizer(config.dist, config.kappa, config.seed,
                           stream=STREAM_INIT_BASE + i).components.reshape(-1)
            for i in range(config.M)]
    return np.array(rows)


def run(config: RunConfig) -> RunArtifacts:
    """Execute a full run. Byte-deterministic in the config."""
    schedule = generate(config.sched, config.M, config.horizon, config.seed)
    batch = make_batch(config.dist, config.seed, config.n_ref)
    x0 = initial_versions(config)

    depth = max(schedule.B1, 1)
    ring = np.zeros((depth, config.M, config.width))
    ring[0] = x0
    state = EngineState(ring=ring, t=0,
                        n_local=np.zeros(config.M, dtype=np.int64),
                        handles=[StreamHandle(config.seed, i) for i in range(config.M)])

    events = EventLog(_total_active(schedule, config.horizon), config.dim, config.width)
    snap_times = np.array(sorted(set(range(0, config.horizon + 1, config.cadence))
                                 | {config.horizon}), dtype=np.int64)
    snapshots = np.empty((len(snap_times), config.M, config.width))
    snap_at = {int(u): k for k, u in enumerate(snap_times)}

    for t in range(config.horizon):
        k = snap_at.get(t)
        if k is not None:
            snapshots[k] = ring[t % depth]
        dalvq_tick(state, schedule, config, batch, events)
    snapshots[snap_at[config.horizon]] = ring[config.horizon % depth]

    events.finish()
    final = ring[config.horizon % depth].copy()
    for arr in (x0, snap_times, snapshots, final, state.n_local):
        arr.flags.writeable = False
    K1, K2 = config.step.derived_constants(schedule, config.horizon)
    return RunArtifacts(config=config, schedule=schedule, batch=batch, x0=x0,
                        events=events, snap_times=snap_times, snapshots=snapshots,
                        final=final, n_local=state.n_local, K1=K1, K2=K2)
