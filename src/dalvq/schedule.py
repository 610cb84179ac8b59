"""Communication schedules: who merges from whom, with what weights and delays.

A schedule fixes, for every tick t, a row-stochastic merge matrix, an integer
delay per (receiver, sender) entry, and the set of processors taking a descent
step. The directed communication edge (j -> i) exists at t exactly when the
merge coefficient of receiver i on sender j is positive. Generated families are
periodic (random draws fill one base window and repeat), which the agreement
analysis exploits; traces read from disk stay dense.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, is_numeric, require_int, strict_object
from .measures import STREAM_SCHEDULE, StreamHandle

__all__ = [
    "CommSchedule",
    "ScheduleSpec",
    "CheckResult",
    "ValidationReport",
    "generate",
    "validate",
    "write_trace",
    "read_trace",
]

_TOPOLOGIES = ("complete", "ring", "random-symmetric-gossip", "custom-trace")
_DELAY_LAWS = ("zero", "fixed", "uniform")
_ACTIVITIES = ("all-active", "round-robin", "random-subset", "none")

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ScheduleSpec:
    """Recipe for a schedule family.

    merge_period p: merges happen on ticks with t % p == p - 1.
    delay_law: "zero", "fixed" (value = the delay), or "uniform" (value = the
    exclusive upper bound, so delays are drawn from 0..value-1).
    activity: which processors take descent steps; "none" yields the pure
    agreement iteration (no descent anywhere, flagged by validation).
    base_window: length of the window random draws fill before repeating.
    """

    topology: str
    merge_period: int = 1
    delay_law: str = "zero"
    delay_value: int = 0
    activity: str = "all-active"
    base_window: int = 64
    trace_path: Optional[str] = None

    def __post_init__(self):
        if self.topology not in _TOPOLOGIES:
            raise ConfigError(f"unknown topology {self.topology!r}, expected one of {_TOPOLOGIES}")
        if self.delay_law not in _DELAY_LAWS:
            raise ConfigError(f"unknown delay law {self.delay_law!r}, expected one of {_DELAY_LAWS}")
        if self.activity not in _ACTIVITIES:
            raise ConfigError(f"unknown activity law {self.activity!r}, expected one of {_ACTIVITIES}")
        for name in ("merge_period", "delay_value", "base_window"):
            require_int(name, getattr(self, name))
        if self.merge_period < 1:
            raise ConfigError("merge_period must be >= 1")
        if self.base_window < 1:
            raise ConfigError("base_window must be >= 1")
        if self.delay_law == "zero" and self.delay_value != 0:
            raise ConfigError("zero delay law takes no delay_value")
        if self.delay_law == "fixed" and self.delay_value < 0:
            raise ConfigError("fixed delay must be >= 0")
        if self.delay_law == "uniform" and self.delay_value < 1:
            raise ConfigError("uniform delay law needs delay_value >= 1 (exclusive bound)")
        if self.trace_path is not None and not isinstance(self.trace_path, str):
            raise ConfigError(f"trace_path must be a string, got {self.trace_path!r}")
        if self.topology == "custom-trace" and not self.trace_path:
            raise ConfigError("custom-trace topology needs trace_path")

    def to_dict(self) -> dict:
        out = {"topology": self.topology, "merge_period": self.merge_period,
               "delay_law": self.delay_law, "delay_value": self.delay_value,
               "activity": self.activity, "base_window": self.base_window}
        if self.trace_path is not None:
            out["trace_path"] = self.trace_path
        return out

    @staticmethod
    def from_dict(data: dict) -> "ScheduleSpec":
        return ScheduleSpec(**strict_object(
            "schedule", data, ("topology",),
            ("merge_period", "delay_law", "delay_value", "activity", "base_window", "trace_path")))


@dataclass(frozen=True)
class CommSchedule:
    """Realized schedule over a horizon, periodic or dense.

    Stored delays may exceed t near the start; the accessors clamp them to t so
    a requested version time is never negative. The clamped value is the
    schedule. Past the horizon the accessors repeat the tables (the period, or
    the whole trace when dense).
    """

    M: int
    horizon: int
    alpha: float
    B1: int
    B2: int
    B3: int
    coeff_table: np.ndarray      # (P, M, M) float
    delay_table: np.ndarray      # (P, M, M) int
    active_table: np.ndarray     # (P, M) bool
    period: Optional[int] = None  # None: tables are dense over the horizon

    def __post_init__(self):
        if self.M < 1 or self.horizon < 0:
            raise ConfigError("schedule needs M >= 1 and horizon >= 0")
        for name in ("B1", "B2", "B3"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigError("alpha must lie in (0, 1]")
        c = np.ascontiguousarray(self.coeff_table, dtype=float)
        d = np.ascontiguousarray(self.delay_table, dtype=np.int64)
        a = np.ascontiguousarray(self.active_table, dtype=bool)
        P = self.cycle
        if c.shape != (P, self.M, self.M) or d.shape != c.shape or a.shape != (P, self.M):
            raise ConfigError("schedule tables have inconsistent shapes")
        if not np.all(np.isfinite(c)):
            raise ConfigError("coefficients must be finite")
        if np.any(c < 0.0) or np.any(d < 0):
            raise ConfigError("coefficients and delays must be nonnegative")
        for arr in (c, d, a):
            arr.flags.writeable = False
        object.__setattr__(self, "coeff_table", c)
        object.__setattr__(self, "delay_table", d)
        object.__setattr__(self, "active_table", a)

    @property
    def cycle(self) -> int:
        """Number of rows in each table; tick t reads row t % cycle. The period,
        or a dense trace's horizon (at least 1)."""
        return self.period if self.period is not None else max(self.horizon, 1)

    # ---- per-tick accessors ----

    def _idx(self, t: int) -> int:
        if t < 0:
            raise ValueError(f"tick {t} is negative")
        return t % self.cycle

    def coeff(self, t: int) -> np.ndarray:
        return self.coeff_table[self._idx(t)]

    def delay(self, t: int) -> np.ndarray:
        return np.minimum(self.delay_table[self._idx(t)], t)

    def active(self, t: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.active_table[self._idx(t)]))

    def descents(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every descent over the horizon in tick order, then processor order:
        (t, proc, n), where processor proc[k] descends at tick t[k] and n[k]
        counts its active ticks up to and including t[k]."""
        act = self.active_table[np.arange(self.horizon) % self.cycle]
        t, proc = np.nonzero(act)
        return t, proc, np.cumsum(act, axis=0)[act]

    def materialize(self, t1: Optional[int] = None):
        """Dense (coeff, delay, active) arrays of the accessors' values for
        ticks 0..t1-1, by default over the horizon."""
        ts = np.arange(self.horizon if t1 is None else t1)
        idx = ts % self.cycle
        return (self.coeff_table[idx], np.minimum(self.delay_table[idx], ts[:, None, None]),
                self.active_table[idx])


# ---------------------------------------------------------------------------
# generation


def _merge_row(M: int, i: int, neighbors: list[int]) -> np.ndarray:
    """Uniform convex row over {i} + in-neighbors."""
    row = np.zeros(M)
    members = [i] + [j for j in neighbors if j != i]
    for j in members:
        row[j] = 1.0 / len(members)
    return row


def generate(spec: ScheduleSpec, M: int, horizon: int, seed: int) -> CommSchedule:
    """Build a schedule for the family; deterministic in (spec, M, horizon, seed).

    The declared constants are measured from the realized schedule: alpha is
    the smallest positive coefficient, B1 one more than the largest stored
    delay, B2 the smallest window width that simultaneously makes every
    window's edge union strongly connected and covers every recurring pair's
    occurrence gaps, and B3 the tightest symmetry slack (1 when the family is
    not symmetric at all, in which case the symmetry check simply fails).
    """
    if M < 1:
        raise ConfigError("M must be >= 1")
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    if spec.topology == "custom-trace":
        trace = read_trace(spec.trace_path)
        if (trace.M, trace.horizon) != (M, horizon):
            raise ConfigError(f"trace {spec.trace_path} has M={trace.M} and horizon "
                              f"{trace.horizon}, the config M={M} and horizon {horizon}")
        return trace
    if spec.topology == "random-symmetric-gossip":
        separated = spec.activity in ("round-robin", "random-subset")
        if M < 2 + (1 if separated else 0):
            raise ConfigError("gossip needs at least 2 mergeable processors per merge tick")

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
    eye = np.eye(M)

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

        coeff[t] = eye
        if t % p != p - 1:
            continue  # not a merge tick: identity rows everywhere

        # A processor never merges on a tick where it also descends, except in
        # the all-active family, which deliberately runs the combined iteration.
        separated = spec.activity in ("round-robin", "random-subset", "none")
        mergers = [i for i in range(M) if not (separated and act[i])]
        if spec.topology == "complete":
            for i in mergers:
                coeff[t, i] = _merge_row(M, i, list(range(M)))
        elif spec.topology == "ring":
            for i in mergers:
                coeff[t, i] = _merge_row(M, i, [(i - 1) % M])
        elif len(mergers) >= 2:  # random-symmetric-gossip: one pair
            pair = g.choice(len(mergers), size=2, replace=False)
            a_, b_ = mergers[int(pair[0])], mergers[int(pair[1])]
            coeff[t, a_] = _merge_row(M, a_, [b_])
            coeff[t, b_] = _merge_row(M, b_, [a_])

        # delays attach to positive off-diagonal entries only
        for i in range(M):
            for j in range(M):
                if i != j and coeff[t, i, j] > 0.0:
                    if spec.delay_law == "fixed":
                        delay[t, i, j] = spec.delay_value
                    elif spec.delay_law == "uniform":
                        delay[t, i, j] = int(g.integers(0, spec.delay_value))

    alpha, B1, B2, B3 = _measure(coeff, delay, horizon)
    return CommSchedule(M=M, horizon=horizon, alpha=alpha, B1=B1, B2=B2, B3=B3,
                        coeff_table=coeff, delay_table=delay, active_table=active,
                        period=P)


# ---------------------------------------------------------------------------
# edge analysis on a boolean tensor: E[t, i, j] is True when (j -> i) in E(t)


def _edge_tensor(coeff: np.ndarray, horizon: int) -> np.ndarray:
    """Edges at every tick of the horizon; a periodic horizon comes folded.

    Ticks t and t + P carry the same edges, so a horizon T >= 2P answers every
    question asked of it here (window unions, gaps between a pair's ticks and
    to either end, distances to the reverse pair, the ticks where the worst
    of these occur) exactly as its first L = 2P + (T - 2P) % P ticks do. Two
    periods hold every window and every wrap-around gap; L = T (mod P) lines
    the last period up with the horizon's end. A witness tick t >= P of the
    fold is tick t + T - L of the horizon. The table repeats with period
    P = len(coeff), a dense table's being the horizon.
    """
    P = len(coeff)
    L = min(horizon, 2 * P + (horizon - 2 * P) % P)
    edges = coeff[np.arange(L) % P] > 0.0
    M = coeff.shape[1]
    edges[:, np.arange(M), np.arange(M)] = False
    return edges


def _edge_counts(edges: np.ndarray) -> np.ndarray:
    """Cumulative edge counts: [t, i, j] is how often j -> i occurs before tick t."""
    L, M = edges.shape[:2]
    counts = np.zeros((L + 1, M, M), dtype=np.int32)
    np.cumsum(edges, axis=0, out=counts[1:])
    return counts


def _first_disconnected(counts: np.ndarray, width: int) -> Optional[int]:
    """Start of the first width-tick window whose edge union is not strongly
    connected, or None; counts is _edge_counts of the edge tensor, and a
    width beyond the horizon means the whole horizon. A union is strongly
    connected exactly when processor 0 reaches every processor and every
    processor reaches 0. Both reached sets grow for all windows at once, one
    hop per pass, until they stop growing."""
    L, M = len(counts) - 1, counts.shape[1]
    width = min(width, L)
    union = counts[width:] > counts[:L - width + 1]  # window k: edge j -> i at [k, i, j]
    union[:, np.arange(M), np.arange(M)] = True
    bad = np.zeros(len(union), dtype=bool)
    for hop in (union, union.transpose(0, 2, 1)):  # 0 reaches i; i reaches 0
        reached = hop[:, :, :1]  # one hop from 0, or to 0
        while not np.array_equal(grown := hop @ reached, reached):
            reached = grown
        bad |= ~np.all(reached, axis=(1, 2))
    return int(np.argmax(bad)) if bad.any() else None


def _pair_gaps(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per pair (receiver i, sender j), from one scan of its ticks:
    - need: for a pair seen at least twice, the window width that holds one
      of its ticks wherever it starts, max(first tick + 1, largest gap
      between its ticks, L - last tick); 0 for every other pair;
    - gap, tick: for a pair that occurs, the largest distance from one of its
      ticks to the nearest tick of the reverse pair, and the first tick at
      that distance; a pair never reversed gets -1 at its first tick, and
      pairs that never occur get 0."""
    L, M = edges.shape[:2]
    need, gap, tick = (np.zeros((M, M), dtype=np.int64) for _ in range(3))
    ticks = {(i, j): np.flatnonzero(edges[:, i, j])
             for i, j in zip(*np.nonzero(np.any(edges, axis=0)))}
    for (i, j), a in ticks.items():
        if len(a) >= 2:
            need[i, j] = max(a[0] + 1, np.max(np.diff(a)), L - a[-1])
        b = ticks.get((j, i))
        if b is None:
            gap[i, j], tick[i, j] = -1, a[0]
            continue
        pos = np.searchsorted(b, a)
        nearest = np.minimum(np.abs(a - b[np.maximum(pos - 1, 0)]),
                             np.abs(b[np.minimum(pos, len(b) - 1)] - a))
        worst = int(np.argmax(nearest))
        gap[i, j], tick[i, j] = nearest[worst], a[worst]
    return need, gap, tick


def _derive_b2(edges: np.ndarray, horizon: int, need: np.ndarray) -> int:
    """Smallest width covering both window connectivity and the recurring
    pairs' needs (_pair_gaps)."""
    L, M = edges.shape[:2]
    if horizon == 0 or M == 1:
        return 1
    # window connectivity is monotone in the width: double it until the
    # windows connect, then bisect between the last two widths
    counts = _edge_counts(edges)
    connected = functools.cache(lambda w: _first_disconnected(counts, w) is None)
    lo, hi = 0, 1
    while hi < L and not connected(hi):
        lo, hi = hi, 2 * hi
    width = lo + 1 + bisect.bisect_left(range(lo + 1, min(hi, L) + 1), True, key=connected)
    if width > L:
        return horizon  # union never connects; validation will fail A5
    return max(width, int(np.max(need)))


def _measure(coeff: np.ndarray, delay: np.ndarray, horizon: int) -> tuple[float, int, int, int]:
    """The constants (alpha, B1, B2, B3) a table realizes over the horizon.
    B3 is the tightest b with every edge mirrored within |t - tau| < b, else 1."""
    alpha = float(np.min(coeff[coeff > 0.0])) if np.any(coeff > 0.0) else 1.0
    edges = _edge_tensor(coeff, horizon)
    need, gap, _ = _pair_gaps(edges)
    B3 = 1 if np.any(gap < 0) else int(np.max(gap)) + 1
    return alpha, int(np.max(delay)) + 1, _derive_b2(edges, horizon, need), B3


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str
    witness: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {"passed": self.passed, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class ValidationReport:
    checks: dict[str, CheckResult]
    asy1: bool
    asy2: bool
    passed: bool
    constants: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"checks": {k: v.to_dict() for k, v in self.checks.items()},
                "asy1": self.asy1, "asy2": self.asy2, "passed": self.passed,
                "constants": self.constants}


def validate(schedule: CommSchedule) -> ValidationReport:
    """Check every structural assumption against the declared constants.

    Produces one pass/fail per check with a witness tick on failure, declares
    which of the two assumption bundles holds (delays+combination+connectivity
    plus either bounded communication intervals or symmetric exchanges), and an
    overall verdict that additionally requires a nonempty active set per tick.
    """
    M, T = schedule.M, schedule.horizon
    # a tick t >= cycle + max delay repeats tick t - cycle, delay clamp and all,
    # so the ticks before it hold the first witness of every per-tick fault
    span = min(T, schedule.cycle + int(np.max(schedule.delay_table, initial=0)) + 1)
    coeff, delay, active = schedule.materialize(span)
    checks: dict[str, CheckResult] = {}

    # delays: in range, zero on the diagonal and wherever the coefficient is zero
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

    # convex combinations: rows sum to 1, entries either 0 or in [alpha, 1], self weight >= alpha
    ok, detail, witness = True, "rows are convex combinations with threshold alpha", None
    if T > 0:
        sums = np.sum(coeff, axis=2)
        bad_sum = np.argwhere(np.abs(sums - 1.0) > _ROW_SUM_TOL)
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

    edges = _edge_tensor(schedule.coeff_table, T)
    need, gap, tick = _pair_gaps(edges)

    # connectivity: every B2-length window's edge union is strongly connected
    ok, detail, witness = True, "every B2-window union is strongly connected", None
    if T > 0 and M > 1:
        width = min(schedule.B2, T)
        bad_start = _first_disconnected(_edge_counts(edges), width)
        if bad_start is not None:
            ok, detail = False, "window union not strongly connected"
            witness = {"window_start": bad_start, "window": width}
    checks["connectivity"] = CheckResult(ok, detail, witness)

    # bounded communication intervals: recurring pairs occur in every B2-window
    ok, detail, witness = True, "recurring pairs reappear within every B2-window", None
    if T > 0 and M > 1:
        bad = np.argwhere(need > schedule.B2)
        singles = int(np.sum(np.sum(edges, axis=0) == 1))
        if len(bad):
            i, j = map(int, bad[0])
            ok, detail = False, "recurring pair exceeds the B2 interval"
            witness = {"sender": j, "receiver": i, "needed_window": int(need[i, j])}
        elif singles:
            detail += f"; {singles} pair(s) occur once and are unconstrained"
    checks["bounded_intervals"] = CheckResult(ok, detail, witness)

    # symmetry: each edge is mirrored within strict distance B3
    ok, detail, witness = True, "every edge has its reverse within |t - tau| < B3", None
    if T > 0 and M > 1:
        pairs = ((r, s) for i in range(M) for j in range(i + 1, M) for r, s in ((i, j), (j, i)))
        bad = next(((r, s) for r, s in pairs if gap[r, s] < 0 or gap[r, s] >= schedule.B3), None)
        if bad is not None:
            r, s = bad
            t = int(tick[r, s])
            if t >= schedule.cycle:
                t += T - len(edges)  # back from the fold
            ok, witness = False, {"sender": s, "receiver": r, "t": t}
            if gap[r, s] < 0:
                detail = "edge never mirrored"
            else:
                detail = "mirror edge outside the B3 slack"
                witness["nearest_reverse_gap"] = int(gap[r, s])
    checks["symmetry"] = CheckResult(ok, detail, witness)

    # at least one descent step per tick
    ok, detail, witness = True, "some processor descends at every tick", None
    if T > 0:
        idle = np.flatnonzero(~np.any(active, axis=1))
        if len(idle):
            ok, detail, witness = False, "tick with no active processor", {"t": int(idle[0])}
    checks["activity"] = CheckResult(ok, detail, witness)

    base = all(checks[k].passed for k in ("delay_bounds", "convex_combination", "connectivity"))
    asy1 = base and checks["bounded_intervals"].passed
    asy2 = base and checks["symmetry"].passed
    passed = (asy1 or asy2) and checks["activity"].passed
    constants = {"M": M, "horizon": T, "alpha": schedule.alpha,
                 "B1": schedule.B1, "B2": schedule.B2, "B3": schedule.B3,
                 "period": schedule.period}
    return ValidationReport(checks=checks, asy1=asy1, asy2=asy2, passed=passed,
                            constants=constants)


# ---------------------------------------------------------------------------
# trace round-trip (JSONL, one record per tick, plus a leading meta record)


def write_trace(schedule: CommSchedule, path: str) -> None:
    meta = {"meta": {"M": schedule.M, "horizon": schedule.horizon,
                     "alpha": schedule.alpha, "B1": schedule.B1,
                     "B2": schedule.B2, "B3": schedule.B3}}
    # From tick `free` on no delay is clamped, so a tick's record is its table
    # row's apart from "t": the text after "t" is kept for rows that recur.
    free = int(np.max(schedule.delay_table, initial=0))
    tails = {}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(meta) + "\n")
        for t in range(schedule.horizon):
            row = t % schedule.cycle
            tail = tails.get(row) if t >= free else None
            if tail is None:
                tail = json.dumps({"coeff": schedule.coeff(t).tolist(),
                                   "delay": schedule.delay(t).tolist(),
                                   "active": list(schedule.active(t))})[1:]
                if t >= free and t + schedule.cycle < schedule.horizon:
                    tails[row] = tail
            fh.write('{"t": ' + str(t) + ", " + tail + "\n")


def read_trace(path: str) -> CommSchedule:
    """Read a dense schedule from JSONL; constants come from the meta record
    when present and are measured from the trace otherwise. A meta B1 below
    the trace's largest delay + 1 is rejected: a ring sized from it would
    read overwritten versions. So is a meta record that is not an object, or
    lacks a finite number for alpha or a config integer (require_int) for any
    of B1, B2 and B3, and a line that is not an object. Each tick needs an
    M x M array of numbers for coeff, one of integers for delay, and a list of
    distinct processor indices for active."""
    records = []
    meta = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ConfigError(f"{path}:{line_no}: invalid JSON") from exc
                if not isinstance(obj, dict):
                    raise ConfigError(f"{path}:{line_no}: record must be an object")
                if "meta" in obj:
                    meta = obj["meta"]
                    if not isinstance(meta, dict):
                        raise ConfigError(f"{path}:{line_no}: meta record must be an object")
                else:
                    records.append((line_no, obj))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    if not records:
        raise ConfigError(f"{path}: trace has no tick records")

    first = records[0][1]
    if not isinstance(first.get("coeff"), list) or "t" not in first:
        raise ConfigError(f"{path}: tick records need fields t, coeff, delay, active")
    M = len(first["coeff"])
    T = len(records)
    coeff = np.zeros((T, M, M))
    delay = np.zeros((T, M, M), dtype=np.int64)
    active = np.zeros((T, M), dtype=bool)
    for k, (line_no, rec) in enumerate(records):
        missing = {"t", "coeff", "delay", "active"} - set(rec)
        if missing:
            raise ConfigError(f"{path}:{line_no}: record missing field(s) {sorted(missing)}")
        if rec["t"] != k:
            raise ConfigError(f"{path}:{line_no}: expected t={k}, got t={rec['t']}")
        try:  # a ragged array raises
            c, d = np.asarray(rec["coeff"]), np.asarray(rec["delay"])
        except ValueError as exc:
            raise ConfigError(f"{path}:{line_no}: coeff/delay must be {M}x{M}") from exc
        if c.shape != (M, M) or d.shape != (M, M):
            raise ConfigError(f"{path}:{line_no}: coeff/delay must be {M}x{M}")
        if not (is_numeric(rec["coeff"], c) and is_numeric(rec["delay"], d, "iu")):
            raise ConfigError(f"{path}:{line_no}: coeff must hold numbers and delay integers")
        coeff[k], delay[k] = c, d
        act = rec["active"]
        if not isinstance(act, list):
            raise ConfigError(f"{path}:{line_no}: active must be a list")
        for i in act:
            if not (isinstance(i, int) and not isinstance(i, bool) and 0 <= i < M):
                raise ConfigError(f"{path}:{line_no}: active entry {i!r} is not an index "
                                  f"below {M}")
            if active[k, i]:
                raise ConfigError(f"{path}:{line_no}: active index {i} is listed twice")
            active[k, i] = True

    if meta is None:
        alpha, B1, B2, B3 = _measure(coeff, delay, T)
    else:
        alpha = meta.get("alpha")     # an int of any size compares exactly; NaN fails
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) \
                or not abs(alpha) <= float(np.finfo(float).max):
            raise ConfigError(f"{path}: meta alpha must be a finite number, got {alpha!r}")
        for name in ("B1", "B2", "B3"):
            require_int(f"{path}: meta {name}", meta.get(name))
        alpha, B1, B2, B3 = float(alpha), meta["B1"], meta["B2"], meta["B3"]
        if B1 < int(np.max(delay)) + 1:
            raise ConfigError(f"{path}: meta B1={B1} is below the largest delay + 1 "
                              f"= {int(np.max(delay)) + 1}")
    return CommSchedule(M=M, horizon=T, alpha=alpha, B1=B1, B2=B2, B3=B3,
                        coeff_table=coeff, delay_table=delay, active_table=active,
                        period=None)
