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
# Bytes allowed for the limits' (B1 * M)^2 period product and its solves, and for a
# generated schedule's P-row tables; a schedule over either is rejected where it is built.
_STEP_MATRIX_BYTES = 2**30


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
    the whole trace when dense). B1 is bounded by the limits' period product
    and its solves: 8 (B1 M)^2 bytes at most _STEP_MATRIX_BYTES.
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
    # agreement.merged_versions' merge plan, built on first use
    _plans: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.M < 1 or self.horizon < 0:
            raise ConfigError("schedule needs M >= 1 and horizon >= 0")
        for name in ("B1", "B2", "B3"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if 8 * (self.B1 * self.M) ** 2 > _STEP_MATRIX_BYTES:
            raise ConfigError(f"B1={self.B1} at M={self.M} needs a {self.B1 * self.M}^2 "
                              f"step matrix, over {_STEP_MATRIX_BYTES} bytes")
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
        object.__setattr__(self, "_plans", {})

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

    def active_count(self, t: int) -> np.ndarray:
        """(M,) each processor's active ticks before tick t."""
        q, r = divmod(t, self.cycle)
        return q * self.active_table.sum(axis=0) + self.active_table[:r].sum(axis=0)

    def descents(self, t0: int = 0, t1: Optional[int] = None,
                 before: Optional[np.ndarray] = None) -> tuple[np.ndarray, ...]:
        """The descents at ticks t0 .. t1 - 1 (by default the whole horizon) in
        tick order, then processor order: (t, proc, n), where processor
        proc[k] descends at tick t[k] and n[k] counts its active ticks up to
        and including t[k]. before is active_count(t0), which a caller walking
        the horizon in windows carries from one window to the next rather
        than have it recounted from tick 0."""
        act = self.active_table[np.arange(t0, self.horizon if t1 is None else t1) % self.cycle]
        t, proc = np.nonzero(act)
        if before is None:
            before = self.active_count(t0)
        return t + t0, proc, (np.cumsum(act, axis=0) + before)[act]

    def materialize(self, t1: Optional[int] = None):
        """Dense (coeff, delay, active) arrays of the accessors' values for
        ticks 0..t1-1, by default over the horizon."""
        ts = np.arange(self.horizon if t1 is None else t1)
        idx = ts % self.cycle
        return (self.coeff_table[idx], np.minimum(self.delay_table[idx], ts[:, None, None]),
                self.active_table[idx])


# ---------------------------------------------------------------------------
# generation


def generate(spec: ScheduleSpec, M: int, horizon: int, seed: int) -> CommSchedule:
    """Build a schedule for the family; deterministic in (spec, M, horizon, seed).

    The declared constants are measured from the realized schedule: alpha is
    the smallest positive coefficient, B1 one more than the largest stored
    delay, B2 the smallest window width that simultaneously makes every
    window's edge union strongly connected and covers every recurring pair's
    occurrence gaps, and B3 the tightest symmetry slack (1 when the family is
    not symmetric at all, in which case the symmetry check simply fails).
    An M or a period P too large for the (B1 M)^2 period product at B1 = 1
    or for the P M (16 M + 1) table bytes is rejected before any table is built.
    """
    if M < 1:
        raise ConfigError("M must be >= 1")
    if 8 * M**2 > _STEP_MATRIX_BYTES:  # over the cap even at B1 = 1
        raise ConfigError(f"M={M} needs a {M}^2 step matrix, over {_STEP_MATRIX_BYTES} bytes")
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    if spec.topology == "custom-trace":
        trace = read_trace(spec.trace_path)
        if (trace.M, trace.horizon) != (M, horizon):
            raise ConfigError(f"trace {spec.trace_path} has M={trace.M} and horizon "
                              f"{trace.horizon}, the config M={M} and horizon {horizon}")
        return trace
    # A processor never merges on a tick where it also descends, except in the
    # all-active family, which deliberately runs the combined iteration (no
    # processor descends under "none").
    separated = spec.activity in ("round-robin", "random-subset")
    if spec.topology == "random-symmetric-gossip" and M < (3 if separated else 2):
        raise ConfigError("gossip needs at least 2 mergeable processors per merge tick")

    p = spec.merge_period
    periods = [p]
    if spec.activity == "round-robin":
        periods.append(M)
    if spec.activity == "random-subset" or spec.delay_law == "uniform" \
            or spec.topology == "random-symmetric-gossip":
        periods.append(spec.base_window)
    P = math.lcm(*periods)
    if (size := P * M * (16 * M + 1)) > _STEP_MATRIX_BYTES:  # coeff, delay, active
        raise ConfigError(f"merge_period={p} and base_window={spec.base_window} at M={M} need "
                          f"{P}-row tables of {size} bytes, over {_STEP_MATRIX_BYTES} bytes")

    g = StreamHandle(seed, STREAM_SCHEDULE).generator()
    eye = np.eye(M, dtype=bool)
    coeff = np.tile(np.eye(M), (P, 1, 1))
    delay = np.zeros((P, M, M), dtype=np.int64)
    active = np.zeros((P, M), dtype=bool)

    for t in range(P):
        act = active[t]  # the table's row, filled in place; "none" leaves it empty
        if spec.activity == "all-active":
            act[:] = True
        elif spec.activity == "round-robin":
            act[t % M] = True
        elif spec.activity == "random-subset":
            act[:] = g.random(M) < 0.5
            if not act.any():
                act[t % M] = True

        if t % p != p - 1:
            continue  # not a merge tick: identity rows everywhere

        # heard[i, j]: receiver i averages sender j: itself, and for a merger
        # every sender (complete), its left neighbour (ring) or its gossip partner
        heard = eye.copy()
        mergers = np.flatnonzero(~(act & separated))
        if spec.topology == "complete":
            heard[mergers] = True
        elif spec.topology == "ring":
            heard[mergers, (mergers - 1) % M] = True
        elif len(mergers) >= 2:
            a_, b_ = mergers[g.choice(len(mergers), size=2, replace=False)]
            heard[a_, b_] = heard[b_, a_] = True
        coeff[t] = heard / heard.sum(axis=1, keepdims=True)
        # delays attach to positive off-diagonal entries only (a zero law's
        # value is 0); a uniform law draws them in one call, in row order
        sent = heard & ~eye
        delay[t][sent] = (g.integers(0, spec.delay_value, size=np.count_nonzero(sent))
                          if spec.delay_law == "uniform" else spec.delay_value)

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


def _first_fault(passed_detail: str, faults: list) -> CheckResult:
    """A check's result: failed at the first fault, in list order, whose mask
    holds anywhere, else passed. A fault is (detail, mask, axis names) and
    optionally (value name, value array); its witness names the mask's first
    hit in C order by axis, then the value array's entry there."""
    for detail, mask, axes, *value in faults:
        if mask.any():
            at = np.unravel_index(np.argmax(mask), mask.shape)
            witness = {axis: int(k) for axis, k in zip(axes, at)}
            witness.update((name, array[at].item()) for name, array in value)
            return CheckResult(False, detail, witness)
    return CheckResult(True, passed_detail)


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
    d = np.arange(M)
    checks["delay_bounds"] = _first_fault(
        "delays in [0, B1), diagonal and silent entries zero",
        [("delay at or above B1", delay >= schedule.B1, ("t", "i", "j"), ("delay", delay)),
         ("nonzero self-delay", delay[:, d, d] != 0, ("t", "i")),
         ("delay on a zero coefficient", (coeff == 0.0) & (delay != 0), ("t", "i", "j"))])

    # convex combinations: rows sum to 1, entries either 0 or in [alpha, 1], self weight >= alpha
    sums, own, low = np.sum(coeff, axis=2), coeff[:, d, d], schedule.alpha - 1e-15
    checks["convex_combination"] = _first_fault(
        "rows are convex combinations with threshold alpha",
        [("row does not sum to 1", np.abs(sums - 1.0) > _ROW_SUM_TOL, ("t", "i"), ("sum", sums)),
         ("coefficient above 1", coeff > 1.0 + 1e-15, ("t", "i", "j")),
         ("positive coefficient below alpha", (coeff > 0.0) & (coeff < low), ("t", "i", "j"),
          ("coeff", coeff)),
         ("self weight below alpha", own < low, ("t", "i"), ("coeff", own))])

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
    singles = int(np.sum(np.sum(edges, axis=0) == 1))
    checks["bounded_intervals"] = _first_fault(
        "recurring pairs reappear within every B2-window"
        + (f"; {singles} pair(s) occur once and are unconstrained" if singles else ""),
        [("recurring pair exceeds the B2 interval", need > schedule.B2, ("receiver", "sender"),
          ("needed_window", need))])

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
    checks["activity"] = _first_fault("some processor descends at every tick", [
        ("tick with no active processor", ~np.any(active, axis=1), ("t",))])

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
    of B1, B2 and B3, and a line that is not an object. Each tick needs its
    index as a config integer t, an M x M array of numbers for coeff, one of
    integers for delay, and a list of distinct processor indices for active."""
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
        require_int(f"{path}:{line_no}: t", rec["t"])
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
