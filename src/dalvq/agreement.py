"""Delayed averaging: the agreement iteration, its impulse weights, and limits.

The merge half of the distributed iteration is linear: every version at time t
is a convex-ish combination of the initial versions and the descent terms
injected so far. The weights are obtained constructively by driving the same
iteration with unit impulses. Under the connectivity and threshold assumptions
the weight of an impulse converges, as the evaluation time grows, to a value
independent of the receiving processor; those limits define the agreement
vector, the sequence a virtual single processor would follow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .schedule import CommSchedule

__all__ = [
    "AgreementState",
    "agreement_step",
    "merged_versions",
    "PhiTable",
    "PhiLimitSeries",
    "compute_phi",
    "phi_family",
    "phi_limit_series",
    "agreement_vector",
]


def merged_versions(coeff: np.ndarray, delay: np.ndarray, ring: np.ndarray,
                    t: int) -> np.ndarray:
    """One merge: out[i] = sum_j coeff[i,j] * version of j at time t - delay[i,j].

    ring holds the last B versions, slot u % B for time u; delays must already
    be clamped to t (schedule accessors do this), so every read lands on a
    written slot.
    """
    B = ring.shape[0]
    slots = (t - delay) % B
    senders = np.arange(ring.shape[1])[None, :]
    gathered = ring[slots, senders]            # (M, M, D): [i, j] = delayed version of j
    return np.einsum("ij,ijd->id", coeff, gathered)


@dataclass(frozen=True)
class AgreementState:
    """Versions of all processors with their recent history ring.

    ring has shape (depth, M, D) with depth >= the schedule's delay bound;
    slot u % depth holds the versions computed at time u.
    """

    ring: np.ndarray
    t: int

    @staticmethod
    def initial(x0: np.ndarray, depth: int) -> "AgreementState":
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim != 2:
            raise ValueError("initial versions must have shape (M, D)")
        if depth < 1:
            raise ValueError("ring depth must be >= 1")
        ring = np.zeros((depth, x0.shape[0], x0.shape[1]))
        ring[0] = x0
        return AgreementState(ring=ring, t=0)

    @property
    def depth(self) -> int:
        return self.ring.shape[0]

    def current(self) -> np.ndarray:
        return self.ring[self.t % self.depth]


def agreement_step(state: AgreementState, schedule: CommSchedule) -> AgreementState:
    """Advance the pure merge iteration by one tick (no descent terms)."""
    if state.depth < schedule.B1:
        raise ValueError(f"ring depth {state.depth} below delay bound {schedule.B1}")
    t = state.t
    new = merged_versions(schedule.coeff(t), schedule.delay(t), state.ring, t)
    ring = state.ring.copy()
    ring[(t + 1) % state.depth] = new
    return AgreementState(ring=ring, t=t + 1)


# ---------------------------------------------------------------------------
# impulse responses


def _impulse_blocks(schedule: CommSchedule, ends: np.ndarray, spread_tol: float):
    """Unit impulses as column blocks of one joint merge iteration.

    Block k carries the impulse injected at tick tau = k - 1: it enters as the
    identity at time k and is merged until its spread across receivers falls
    below spread_tol or its time reaches ends[k]. A merge never mixes columns,
    so each block follows exactly the arithmetic of a run on its own. Past the
    horizon the schedule repeats (its period, or the whole trace when dense).

    Yields (t, lo, x, live, done, spread) for t = 0, 1, ... until every block
    has stopped. x (M, W * M) holds blocks lo .. lo + W - 1 at time t, the last
    of them injected at t or earlier; live marks those still running at t, done
    those that stop at t, and spread is each one's spread (inf before its first
    merge). Stopped blocks between running ones ride along unrecorded.
    """
    M, n = schedule.M, len(ends)
    depth = max(schedule.B1, 1)
    P = schedule.period if schedule.period is not None else max(schedule.horizon, 1)
    eye = np.eye(M)
    ring = np.zeros((depth, M, n * M))
    ring[0, :, :M] = eye
    live = np.ones(n, dtype=bool)
    lo, t = 0, 0
    x, spread = ring[0, :, :M], np.array([np.inf])  # block 0 at its injection
    while True:
        hi = lo + len(spread)
        done = live[lo:hi] & ((ends[lo:hi] <= t) | (spread < spread_tol))
        yield t, lo, x, live[lo:hi].copy(), done, spread
        live[lo:hi] &= ~done
        if not live.any():
            return
        lo, hi = int(np.argmax(live)), min(t + 2, n)
        cols = slice(lo * M, hi * M)
        x = merged_versions(schedule.coeff_table[t % P],
                            np.minimum(schedule.delay_table[t % P], t), ring[:, :, cols], t)
        spread = np.max((np.max(x, axis=0) - np.min(x, axis=0)).reshape(-1, M), axis=1)
        if t + 1 < n:  # block t + 1 enters at time t + 1
            x[:, (t + 1 - lo) * M:] = eye
            spread[-1] = np.inf
        ring[(t + 1) % depth, :, cols] = x
        t += 1


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
        M = self.M
        return [{"t": self.t, "tau": k - 1, "i": i, "j": j,
                 "value": float(self.phi[k, i, j])}
                for k in range(self.phi.shape[0]) for i in range(M) for j in range(M)]


def compute_phi(schedule: CommSchedule, t: int) -> PhiTable:
    """Impulse weights at time t for every injection tick tau in [-1, t)."""
    if not (0 <= t <= schedule.horizon):
        raise ValueError(f"t must lie in [0, horizon], got {t}")
    for _, _, x, _, _, _ in _impulse_blocks(schedule, np.full(t + 1, t), 0.0):
        pass
    M = schedule.M
    return PhiTable(t=t, phi=x.reshape(M, t + 1, M).transpose(1, 0, 2).copy())


def phi_family(schedule: CommSchedule, t_end: int) -> np.ndarray:
    """Impulse weights phi(t, tau) for every 0 <= t <= t_end, -1 <= tau < t.

    Returns F of shape (t_end + 1, t_end + 1, M, M): F[t, k, i, j] is the
    weight processor i's version at time t puts on the unit injected at
    processor j at tick tau = k - 1 (k = 0 probes the initial versions).
    Entries with tau >= t are zero.
    """
    if not (0 <= t_end <= schedule.horizon):
        raise ValueError(f"t_end must lie in [0, horizon], got {t_end}")
    M = schedule.M
    n_tau = t_end + 1
    if n_tau * n_tau * M * M > 2**24:
        raise ValueError("phi family would exceed the in-memory budget; "
                         "query single times with compute_phi instead")
    out = np.zeros((t_end + 1, M, n_tau * M))
    for t, lo, x, _, _, _ in _impulse_blocks(schedule, np.full(n_tau, t_end), 0.0):
        out[t, :, lo * M:lo * M + x.shape[1]] = x
    return out.reshape(t_end + 1, M, n_tau, M).transpose(0, 2, 1, 3).copy()


# ---------------------------------------------------------------------------
# limits


def _fit_geometric(gaps: np.ndarray, resids: np.ndarray) -> tuple[float, float]:
    """(A_hat, rho_hat) with LS slope on log-residuals and envelope intercept.

    gaps broadcasts against resids; both are read in C order. Residuals at or
    below 1e-14 are rounding noise and stay out of the fit.
    """
    keep = resids > 1e-14
    if not np.any(keep):
        return 0.0, 0.0
    g = np.broadcast_to(gaps, resids.shape)[keep].astype(float)
    r = np.log(resids[keep])
    if g.min() == g.max():
        rho = 1.0
    else:
        slope = np.polyfit(g, r, 1)[0]
        rho = float(np.exp(slope))
    if rho >= 1.0 or rho <= 0.0:
        # no contraction measurable: envelope with a flat rate
        return float(np.max(resids[keep])), max(rho, 1.0)
    a = float(np.max(resids[keep] / rho ** g))
    return a, rho


@dataclass(frozen=True)
class PhiLimitSeries:
    """Limit weights for every injection tick of a run, plus the fitted rate.

    phi_init[j] weights the initial versions; phi[tau, j] weights the descent
    term of processor j at tick tau. Periodic schedules are computed on a base
    block and tiled; dense schedules are computed per tick.
    """

    phi_init: np.ndarray      # (M,)
    phi: np.ndarray           # (T, M)
    A_hat: float
    rho_hat: float
    eta_hat: float
    resolved: bool
    max_spread: float

    def weights_at(self, tau: int) -> np.ndarray:
        return self.phi_init if tau == -1 else self.phi[tau]


def phi_limit_series(schedule: CommSchedule, horizon: Optional[int] = None,
                     spread_tol: float = 1e-12, max_run: int = 20000) -> PhiLimitSeries:
    """Limit weights for all injection ticks tau in [-1, horizon).

    Each impulse runs until its spread across receivers falls below
    spread_tol, or for max_run merges, and its limit is the receiver average
    at that time. For a periodic schedule the limits for tau and tau + period
    coincide once tau clears the startup delay clamp, so only one base block
    is run and the rest is tiled. The geometric fit pools every residual of
    the base runs, impulse by impulse: least-squares slope, envelope intercept.
    """
    T = schedule.horizon if horizon is None else horizon
    M = schedule.M
    if schedule.period is not None and T > 0:
        P = schedule.period
        tau0 = P * math.ceil(max(schedule.B1, 1) / P)
        direct_hi = min(tau0 + P, T)
    else:
        direct_hi = T

    n = direct_hi + 1  # taus -1 .. direct_hi - 1
    limits, spreads = np.empty((n, M)), np.empty(n)
    rows, owners, gaps = [], [], []
    for t, lo, x, live, done, spread in _impulse_blocks(schedule, np.arange(n) + max_run,
                                                        spread_tol):
        blocks = x.reshape(M, -1, M).transpose(1, 0, 2)
        k = lo + np.flatnonzero(live)
        rows.append(blocks[live])
        owners.append(k)
        gaps.append(t + 1 - k)
        for w in np.flatnonzero(done):
            limits[lo + w] = np.mean(blocks[w], axis=0)
            spreads[lo + w] = spread[w]

    # the fit reads residuals impulse by impulse, each in time order: the
    # least-squares slope depends on that order in its last bits
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    resids = np.concatenate(rows)
    rows.clear()  # free the per-step copies before the reorder
    resids = resids[order]
    resids -= limits[owner[order]][:, None, :]
    np.abs(resids, out=resids)
    a_hat, rho_hat = _fit_geometric(np.concatenate(gaps)[order][:, None, None], resids)

    phi = np.zeros((T, M))
    phi[:direct_hi] = limits[1:]
    if T > direct_hi:  # tile the periodic block
        phi[direct_hi:] = phi[tau0 + (np.arange(direct_hi, T) - tau0) % P]
    return PhiLimitSeries(phi_init=limits[0], phi=phi, A_hat=a_hat, rho_hat=rho_hat,
                          eta_hat=float(np.min(limits)),
                          resolved=bool(np.all(spreads < spread_tol)),
                          max_spread=float(np.max(spreads)))


# ---------------------------------------------------------------------------
# agreement vector


def agreement_vector(limits: PhiLimitSeries, initial: np.ndarray,
                     descent: Optional[np.ndarray], t: int) -> np.ndarray:
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
