"""Delayed averaging: the agreement iteration, its impulse weights, and limits.

The merge half of the distributed iteration is linear: every version at time t
is a combination of the initial versions and the descent terms injected so
far, with weights found by driving the same iteration with unit impulses.
Under the connectivity and threshold assumptions each weight converges, as
the evaluation time grows, to a limit shared by every receiver; those limits
define the agreement vector, the sequence a virtual single processor follows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .schedule import CommSchedule

__all__ = [
    "merged_versions",
    "PhiTable",
    "PhiLimitSeries",
    "compute_phi",
    "phi_limit_series",
]


@dataclass(frozen=True)
class _MergePlan:
    """A schedule's merge, row by row of its tables (see _merge_plan)."""

    coeff: np.ndarray      # (P, M, K) each receiver's terms in sender order, 0.0-padded
    offset: np.ndarray     # (P, M, K) flat ring row of each term's version: j - d * M
    identity: np.ndarray   # (P,) the row is the identity with zero delay
    copy: np.ndarray       # (P, M) the receiver's row is 1.0 on itself at delay 0, nothing else
    max_delay: int         # the largest stored delay


def _merge_plan(schedule: CommSchedule) -> _MergePlan:
    """The schedule's merge plan, built once and kept on the schedule.

    A receiver keeps only its nonzero coefficients, in sender order, padded
    with zeros to K, the most any row has. Each output is built from +0.0
    with the terms added in order, so a zero term never changes a partial
    sum (a + 0.0 = a, and +0.0 + -0.0 = +0.0), and the plan gives the dense
    merge's bits.
    """
    plan = schedule._plans.get("merge")
    if plan is None:
        c, d, M = schedule.coeff_table, schedule.delay_table, schedule.M
        keep = c != 0.0
        K = int(keep.sum(axis=-1).max(initial=0))
        cols = np.argsort(~keep, axis=-1, kind="stable")[..., :K]   # kept first, in order
        coeff = np.where(np.take_along_axis(keep, cols, -1), np.take_along_axis(c, cols, -1), 0.0)
        offset = cols - np.take_along_axis(d, cols, -1) * M
        copy = np.all(c == np.eye(M), axis=2) & (np.diagonal(d, axis1=1, axis2=2) == 0)
        plan = schedule._plans["merge"] = _MergePlan(coeff, offset, copy.all(axis=1), copy,
                                                     int(np.max(d, initial=0)))
    return plan


def _row_delta(schedule: CommSchedule) -> float:
    """delta: the largest |row sum - 1| of the schedule's coefficients."""
    return float(np.max(np.abs(schedule.coeff_table.sum(axis=-1) - 1.0)))


def _check_depth(plan: _MergePlan, depth: int) -> None:
    """A delay at or past the ring depth would read an overwritten version."""
    if plan.max_delay >= depth:
        raise ValueError(f"delay {plan.max_delay} is at or past the ring depth {depth}")


def _merge_rows(plan: _MergePlan, t, depth: int) -> np.ndarray:
    """The ring rows of the plan's terms at tick t, or at each tick of an
    array t, for take (a negative row counts from the end): with s = t %
    depth, j + (s - d) * M, or time 0's j - (t - s) * M, the larger if d > t."""
    r, s, M, first = t % len(plan.offset), t % depth, plan.offset.shape[1], t
    if isinstance(t, np.ndarray):
        t, s, first = t[:, None, None], s[:, None, None], t.min()
    rows = plan.offset[r] + s * M
    return rows if first >= depth else np.maximum(rows, plan.offset[r] % M - (t - s) * M)


def _combine(coeff: np.ndarray, gathered: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
    """sum_k coeff[:, k] * gathered[:, k] from +0.0 in term order: in one einsum,
    or at width 1, where einsum would sum in SIMD lanes, term by term."""
    if gathered.shape[2] > 1:
        return np.einsum("ik,ikd->id", coeff, gathered, out=out)
    out = np.empty((len(coeff), 1)) if out is None else out
    out[:, 0] = sum((coeff * gathered[:, :, 0]).T, np.zeros(len(coeff)))
    return out


def merged_versions(schedule: CommSchedule, ring: np.ndarray, t: int,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """The merge at tick t: out[i] = sum_j a_ij(t) * version of j at t - tau_ij(t).

    ring (depth, M, D) holds the last depth versions, slot u % depth for time
    u, with every stored delay below depth. Delays are clamped to t and the
    tables repeat past the horizon, as the schedule's accessors do. A tick
    gathers each receiver's terms in one take (_merge_rows) and sums them in
    sender order from +0.0 (_combine); an identity tick is the current
    versions plus 0.0, which is what the sum gives. The result goes to out
    when given, which may be any slot of the ring, the current one included.
    """
    B, M = ring.shape[:2]
    plan = _merge_plan(schedule)
    _check_depth(plan, B)
    r = schedule._idx(t)
    if plan.identity[r]:
        return np.add(ring[t % B], 0.0, out=out)
    return _combine(plan.coeff[r], ring.reshape(B * M, -1).take(_merge_rows(plan, t, B), 0), out)


# ---------------------------------------------------------------------------
# impulse responses


_WINDOW = 64   # ticks of the envelope pass per window


def _impulse_blocks(schedule: CommSchedule, limits: np.ndarray):
    """The envelope pass: the impulse injected at tick tau = k - 1 is column
    block k of one joint merge iteration, entering as the identity at time k.
    It is merged until its residual against limits[k] over the current and
    history versions is below 1e-14 + delta * age: a row-stochastic merge
    never increases it, and rows that miss 1 by delta move it by at most
    delta per tick. A merge never mixes columns, so each block follows exactly
    the arithmetic of a run on its own; past the horizon the schedule repeats.

    Yields one window of _WINDOW times at a time, (t0, base, lo, live,
    resid), until every block has stopped: row k is time t0 + k and column b
    block base + b; lo[k] is the oldest block still running, live[k] which
    entered blocks still run (stopped blocks between running ones ride
    along), resid[k] each block's largest current-version residual. A block
    residual before it enters is max |limits[k]|, its zero columns'. The
    last window ends at the time the pass stops.

    Only the receivers a tick changes are merged and measured. A row of 1.0
    on the receiver itself at delay 0 and nothing else keeps its version bit
    for bit (the weights are nonnegative, and 0.0 + 1.0 * x = x), so its
    next time reads the same stored row and its residuals carry forward; on
    a block's entry tick every receiver takes a fresh row, so a delayed read
    never sees the entering identity. A window's store holds the depth * M
    versions it inherits, then each changed row in tick order, over the
    columns of blocks lo .. hi - 1 (one buffer, reused); V[u, i] is the row
    of receiver i's version at time t0 - depth + u, which the merges read as
    a ring of depth + _WINDOW times (_merge_rows). The merges go tick by
    tick, over the blocks entered so far; the residuals, the carry-forward,
    the stop test and the live flags are a few array calls a window.
    """
    M, depth, n, K = schedule.M, schedule.B1, len(limits), _WINDOW
    plan = _merge_plan(schedule)
    _check_depth(plan, depth)
    delta, P, D, old = _row_delta(schedule), len(plan.copy), depth + K, depth * M
    eye = np.eye(M)
    zero = np.abs(limits).max(axis=1)
    rr = np.tile(zero, (M, 1))               # each receiver's residuals at time t0 - 1
    hist = np.tile(zero, (depth - 1, 1))     # each block's at times t0 - depth + 1 .. t0 - 1
    live = np.ones(n, dtype=bool)
    carry, base = np.zeros((old, M)), 0      # the versions at times t0 - depth .. t0 - 1
    buf, t0 = np.empty(0), 0
    while True:
        lo, hi = int(np.argmax(live)), min(t0 + K, n)
        ticks = np.arange(t0 - 1, t0 + K - 1)   # tick t makes time t + 1; time 0 enters
        r = ticks % P
        ch = ~plan.copy[r] | (ticks < n - 1)[:, None]
        E, w = int(ch.sum()), (hi - lo) * M
        if buf.size < (old + E) * w:
            buf = np.empty((old + E) * w)
        store = buf[:(old + E) * w].reshape(old + E, w)
        keep = min(base * M + carry.shape[1], hi * M) - lo * M
        store[:old, :keep] = carry[:, (lo - base) * M:(lo - base) * M + keep]
        store[:old, keep:] = 0.0
        store[old:, min(t0 + 1 - lo, hi - lo) * M:] = 0.0   # blocks not yet entered
        ids = np.vstack([np.arange(old).reshape(depth, M), old - 1 + np.cumsum(ch).reshape(K, M)])
        at = np.where(np.vstack([np.ones((depth, M), dtype=bool), ch]), np.arange(D)[:, None], 0)
        V = np.take_along_axis(ids, np.maximum.accumulate(at, axis=0), axis=0)
        ring = np.roll(V, (t0 - depth) % D, axis=0).ravel()   # time u's rows at u % D
        src, coeff = ring.take(_merge_rows(plan, np.maximum(ticks, 0), D)[ch]), plan.coeff[r][ch]
        a = 0
        for k, b in enumerate(np.cumsum(ch.sum(axis=1)).tolist()):
            t = t0 - 1 + k
            if b > a:
                c = min(t + 2 - lo, hi - lo) * M   # the blocks entered by time t + 1
                if t >= 0:
                    _combine(coeff[a:b], store[src[a:b], :c], store[old + a:old + b, :c])
                if t < n - 1:
                    store[old + a:old + b, c - M:c] = eye
            a = b
        carry, base = store[V[K:].ravel()], lo
        x, lim = store[old:], limits[lo:hi].ravel()
        if E == K * M:   # every receiver changes every tick: a time's M rows at once
            top, low = x.reshape(K, M, w).max(axis=1), x.reshape(K, M, w).min(axis=1)
            np.subtract(top, lim, out=top)   # max_i |x_i - l| = max(max x - l, l - min x)
            np.subtract(lim, low, out=low)
            resid = _block_max(np.maximum(top, low, out=top), M)
            last = _block_max(np.abs(x[-M:] - lim), M)
        else:
            np.subtract(x, lim, out=x)
            per = np.vstack([rr[:, lo:hi], _block_max(np.abs(x, out=x), M)])
            per = per[V[depth:] - (depth - 1) * M]   # (K, M, blocks): the carry-forward
            resid, last = per.max(axis=1), per[-1]
        hist_w = np.vstack([hist[:, lo:hi], resid])
        over = np.lib.stride_tricks.sliding_window_view(hist_w, depth, axis=0).max(axis=2)
        times, blocks = np.arange(t0, t0 + K)[:, None], np.arange(lo, hi)
        entered = blocks <= times
        done = entered & (over < 1e-14 + delta * (times + 1 - blocks))
        after = live[lo:hi] & ~np.logical_or.accumulate(done, axis=0)
        before = np.vstack([live[lo:hi], after[:-1]])
        ends = np.flatnonzero(~after.any(axis=1)) if hi == n else ()
        rows = int(ends[0]) + 1 if len(ends) else K
        yield t0, lo, lo + np.argmax(before[:rows], axis=1), (before & entered)[:rows], resid[:rows]
        if len(ends):
            return
        live[lo:hi], rr[:, lo:hi], hist[:, lo:hi] = after[-1], last, hist_w[K:]
        t0 += K


def _block_max(x: np.ndarray, M: int) -> np.ndarray:
    """(E, nb * M) -> (E, nb): the largest entry of each block of M columns,
    with numpy's inner loop along the longer of the two axes."""
    if 2 * M > x.shape[1] // M:
        return x.reshape(len(x), x.shape[1] // M, M).max(axis=2)
    out = x[:, ::M].copy()
    for j in range(1, M):
        np.maximum(out, x[:, j::M], out=out)
    return out


def _adjoint(schedule: CommSchedule, r: np.ndarray, t: int) -> np.ndarray:
    """r A(t) for r (..., B1 * M), A(t) the merge at tick t on the augmented
    state (slot k: the versions at time t - k): the delayed slots shift up
    one, then each plan term adds r[..., i] * coeff[i, k] at its version's
    slot (_merge_rows' clamp) in plan order; np.add.at adds in index order."""
    M, B, plan = schedule.M, schedule.B1, _merge_plan(schedule)
    rows, coeff = _merge_rows(plan, t, B).ravel(), plan.coeff[t % len(plan.coeff)]
    out = np.zeros(r.shape)   # C-ordered, so its flat view takes the terms
    out[..., :-M] = r[..., M:]   # the shift
    cols = np.arange(0, out.size, B * M)[:, None] + ((t - rows // M) % B * M + rows % M)
    terms = r.take(np.arange(M).repeat(coeff.shape[1]), axis=-1) * coeff.ravel()
    np.add.at(out.reshape(-1), cols.ravel(), terms.ravel())
    return out


def _backward(schedule: CommSchedule, r: np.ndarray, t: int) -> np.ndarray:
    """Slot 0 of r A(t - 1) ... A(s) for each s from t down to 0, indexed by s,
    where r (..., B1 * M) weights the augmented state at time t (_adjoint)."""
    _check_depth(_merge_plan(schedule), schedule.B1)
    out = np.empty((t + 1, *r.shape[:-1], schedule.M))
    out[t] = r[..., :schedule.M]
    for s in range(t - 1, -1, -1):
        r = _adjoint(schedule, r, s)
        out[s] = r[..., :schedule.M]
    return out


@dataclass(frozen=True)
class PhiTable:
    """All impulse weights evaluated at one time t.

    phi[k, i, j] = weight of the impulse at tick tau = k - 1 (k = 0 is the
    initial-version probe) in processor i's version at time t.
    """

    t: int
    phi: np.ndarray  # (t + 1, M, M)

    @property
    def M(self) -> int:
        return self.phi.shape[1]

    def at(self, tau: int) -> np.ndarray:
        if not (-1 <= tau < self.t):
            raise ValueError(f"tau must lie in [-1, {self.t}), got {tau}")
        return self.phi[tau + 1]

    def to_records(self) -> list[dict]:
        return [{"t": self.t, "tau": k - 1, "i": i, "j": j,
                 "value": float(self.phi[k, i, j])}
                for k in range(self.phi.shape[0]) for i in range(self.M) for j in range(self.M)]


def compute_phi(schedule: CommSchedule, t: int) -> PhiTable:
    """Impulse weights at time t for every injection tick tau in [-1, t), past
    the horizon too: slot 0 of R_{tau + 1}, where R_t = [I, 0, ..., 0] and
    R_s = R_{s+1} A(s) on the augmented state (see _backward)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return PhiTable(t, _backward(schedule, np.eye(schedule.M, schedule.B1 * schedule.M), t))


# ---------------------------------------------------------------------------
# limits


@dataclass(frozen=True)
class PhiLimitSeries:
    """Limit weights for every injection tick of a run, plus their envelope.

    phi_init[j] weights the initial versions; phi[tau, j] weights the descent
    term of processor j at tick tau. Periodic schedules are solved on a base
    block and tiled; dense schedules are solved per tick.
    """

    phi_init: np.ndarray      # (M,)
    phi: np.ndarray           # (T, M)
    A_hat: float
    rho_hat: float
    eta_hat: float
    resolved: bool

    def weights_at(self, tau: int) -> np.ndarray:
        return self.phi_init if tau == -1 else self.phi[tau]


def _base_limits(schedule: CommSchedule, horizon: int) -> tuple[np.ndarray, Optional[float]]:
    """The limit rows of the impulses at ticks -1 .. min(tau0 + P, horizon) - 1,
    and rho_hat when eigenvalue 1 of the period product (I stepped back one
    period through _adjoint) is simple and |lambda_2| < 1, up to rounding
    (None otherwise; |lambda_2| is floored at n eps); see phi_limit_series."""
    n, P = schedule.B1 * schedule.M, schedule.cycle
    tau0 = P * math.ceil(schedule.B1 / P)
    _check_depth(_merge_plan(schedule), schedule.B1)
    prod = np.eye(n)
    for s in range(tau0 + P - 1, tau0 - 1, -1):
        prod = _adjoint(schedule, prod, s)
    # moduli, largest first; the appended 0 gives a 1 x 1 product a lambda_2
    lam = np.sort(np.abs(np.append(np.linalg.eigvals(prod), 0.0)))[::-1]
    # pi (prod - I) = 0 bordered by sum(pi) = 1; least squares takes the
    # smallest such pi when eigenvalue 1 is not simple
    pi = np.linalg.lstsq(np.vstack([prod.T - np.eye(n), np.ones(n)]), np.eye(n + 1)[-1],
                         rcond=None)[0]
    limits = _backward(schedule, pi, tau0 + P)[:min(tau0 + P, horizon) + 1]
    if abs(lam[0] - 1.0) < 1e-9 and lam[1] < 1.0 - 1e-9:
        return limits, max(float(lam[1]), n * float(np.finfo(float).eps)) ** (1.0 / P)
    return limits, None


def _envelope(schedule: CommSchedule, limits: np.ndarray, rho: float) -> Optional[float]:
    """log A_hat over the envelope pass: the largest log residual - gap * log rho
    of a running block, or None once the oldest running block's gap passes
    the cap, a window of ticks at a time."""
    cap = 2 * math.ceil(math.log(1e-14) / math.log(rho)) + schedule.B1 + schedule.cycle
    log_a = -math.inf
    for t0, base, lo, live, resid in _impulse_blocks(schedule, limits):
        times = np.arange(t0, t0 + len(lo))[:, None]
        if np.any(times[:, 0] + 1 - lo > cap):
            return None
        keep = live & (resid > 1e-14)
        gaps = (times + 1 - base - np.arange(resid.shape[1]))[keep]
        log_a = np.max(np.log(resid[keep]) - gaps * math.log(rho), initial=log_a)
    return log_a


def phi_limit_series(schedule: CommSchedule, horizon: Optional[int] = None) -> PhiLimitSeries:
    """Limit weights for all injection ticks tau in [-1, horizon), exactly.

    The merge is a row-stochastic map A(t) on the augmented state (current
    plus B1 - 1 delayed versions) that repeats with period P (a dense trace's
    horizon) from tick tau0 = P * ceil(B1 / P) on, where no delay is clamped.
    The limit row of the products from tau0 on is the left Perron vector pi of
    one period's product; backwards pi_s = pi_{s+1} A(s), and the impulse
    injected at tau tends to slot 0 of pi_{tau + 1} at every receiver. Ticks
    below tau0 + P are solved, the rest tiled (_base_limits).

    The limits are resolved when, up to rounding (1e-9), eigenvalue 1 of the
    period product is simple and |lambda_2| < 1, and every base-block impulse
    is within 1e-14 of its limit by gap 2 log(1e-14) / log(rho_hat) + B1 + P,
    where any A * rho_hat ** gap with A < 1e14 is below 1e-14; rho_hat is
    |lambda_2| ** (1 / P), |lambda_2| floored at n eps. A_hat is then the least A
    with A * rho_hat ** gap above every residual of those impulses over 1e-14
    (_envelope). Otherwise A_hat = rho_hat = 1, which holds since every weight
    is in [0, 1].
    """
    T, P = schedule.horizon if horizon is None else horizon, schedule.cycle
    tau0 = P * math.ceil(schedule.B1 / P)
    limits, rho = _base_limits(schedule, T)
    log_a = None if rho is None else _envelope(schedule, limits, rho)
    a_hat, rho_hat = (1.0, 1.0) if log_a is None else (float(np.exp(log_a)), rho)

    ticks = np.arange(T)   # past the base block its last period repeats
    phi = limits[1:][np.where(ticks < tau0, ticks, tau0 + (ticks - tau0) % P)]
    return PhiLimitSeries(phi_init=limits[0], phi=phi, A_hat=a_hat, rho_hat=rho_hat,
                          eta_hat=float(np.min(limits)), resolved=log_a is not None)
