"""Run diagnostics: the agreement trajectory, perturbation sums, and bounds.

Everything here reads run artifacts; the metrics sweep consumes the run's
chunks of consecutive ticks as the engine produces them. The expensive parts
(distortion and gradient evaluations against the reference batch) go through
``geometry.batched_cell_stats`` in one call a chunk: its ticks' w*(t) and
its events' pre-merge versions, stacked in tick order, so the middle w*
anchors them all, then the processors' versions at its recorded ticks.
Consecutive iterates move by O(1/t) and the versions stay near w*, so the
kernel's anchor bounds leave few reference points to rescan. h at each
recorded w* and at each recorded version is a row of that call, which the
Lipschitz probe reads. The per-tick bookkeeping (the agreement trajectory,
the perturbation partial sums) is a prefix sum over each chunk's events, in
event order, and each recorded tick reads its row by one gather.

The pass has two halves: the impulse limits and the chunk loop, which read
only the schedule, the start versions and the chunk stream, and a tail that
reads what the ticks leave at the horizon (the snapshots and K2) and scores
nothing. On a system that can fork, with at least two CPUs available to the
process (os.sched_getaffinity), the first half runs in a forked child: the
ticks, draws and merges stay in the caller, which starts them at once and
pickles each chunk into a pipe widened to hold several, so the child
computes the limits while the first ticks run and then sweeps a chunk while
the next one's ticks run. The caller makes no kernel call. With one CPU the
same limits and loop run in the caller. Both paths give the same bits. An
exception in the child is raised in the caller as its own type, or as a
RuntimeError carrying the child's traceback when it does not pickle; a child
that dies raises ChildProcessError, an OSError. No child outlives
compute_metrics.

Cumulative columns follow one convention: the value reported at tick t sums
contributions of ticks tau < t, matching the agreement recursion whose value
at t is built from descents strictly before t.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .agreement import PhiLimitSeries, merged_versions, phi_limit_series
from .engine import Chunk, RunArtifacts
from .geometry import _min_separation, batched_cell_stats
from .schedule import CommSchedule

__all__ = [
    "theta_series",
    "RunMetrics",
    "compute_metrics",
    "sweep_path",
    "consensus_decay",
    "estimate_lipschitz",
    "ConvergenceReport",
    "summarize",
    "CSV_COLUMNS",
]


# ---------------------------------------------------------------------------
# the step-weight tail sum


def theta_series(n: int, rho: float) -> np.ndarray:
    """theta_t = sum_{tau=-1}^{t-1} rho**(t - tau) / (tau or 1) for t = 0 .. n-1,
    through the recurrence theta_{t+1} = rho * theta_t + rho / (t or 1),
    theta_0 = rho."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if rho < 0.0:
        raise ValueError("rho must be >= 0")
    rho = float(rho)
    x = np.full(n, rho)
    x[1:] /= np.maximum(np.arange(n - 1), 1)
    out = x.tolist()
    acc = 0.0
    for t, term in enumerate(out):
        acc = rho * acc + term
        out[t] = acc
    return np.array(out)


# ---------------------------------------------------------------------------
# the metrics sweep


CSV_COLUMNS = ("t", "consensus_gap", "agreement_gap", "bound_normmaj",
               "distortion_star", "grad_norm_star", "eps_star", "min_sep_star",
               "sum_eps_grad2", "sum_dm1", "dm2_partial_norm")

_STREAM_COLUMNS = CSV_COLUMNS[4:]   # the columns the event stream decides

_BOUND_SAFETY = 1.1
_MART_SAMPLES = 10000     # martingale increments sampled from the event log


@dataclass(frozen=True)
class RunMetrics:
    """Per-recorded-tick series plus whole-run scalars from one sweep."""

    times: np.ndarray
    consensus_gap: np.ndarray
    agreement_gap: np.ndarray
    bound_normmaj: np.ndarray
    distortion_star: np.ndarray
    grad_norm_star: np.ndarray
    eps_star: np.ndarray
    min_sep_star: np.ndarray
    sum_eps_grad2: np.ndarray
    sum_dm1: np.ndarray
    dm2_partial_norm: np.ndarray
    dm2_envelope: np.ndarray
    w_star_rec: np.ndarray            # (n_rec, width)
    eps_ratio_min: float              # min over active ticks of eps_star * (t or 1)
    eps_ratio_min_t: int
    eps_ratio_max: float
    eps_ratio_max_t: int
    eps_star_total: float
    theta_final: float                # theta at the horizon, for the report
    mart_mean_norm: float             # unscaled increment sample mean
    mart_sigma: float
    mart_n: int
    limits: PhiLimitSeries            # the impulse limits the series are built on
    h_snap: np.ndarray                # (n_rec, M, width) h at each recorded version, from the sweep
    h_star: np.ndarray                # (n_rec, width) h at each recorded w*, from the sweep

    def to_csv(self, path: str) -> None:
        """Shortest round-trip decimal floats; byte-stable across runs."""
        cols = [getattr(self, c) for c in CSV_COLUMNS[1:]]
        with open(path, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for k, t in enumerate(self.times):
                row = [str(int(t))] + [repr(float(c[k])) for c in cols]
                fh.write(",".join(row) + "\n")


def _spread(x: np.ndarray) -> np.ndarray:
    """Largest distance between two rows of x (..., M, D), per leading index."""
    d = x[..., :, None, :] - x[..., None, :, :]
    return np.sqrt(np.einsum("...ijd,...ijd->...ij", d, d)).max(axis=(-2, -1))


# A plain class: a NamedTuple or dataclass would cost every import of this
# module, validate-schedule's included, a tenth of a millisecond or more.
class _Failure:
    """An exception that stopped the sweep child, with the child's traceback."""

    def __init__(self, exc: BaseException, traceback: str):
        self.exc, self.traceback = exc, traceback


def _chunk_loop(art: RunArtifacts, chunks: Iterable[Chunk]) -> dict:
    """The run's impulse limits, then the sweep over its chunks, in tick order.

    Returns the RunMetrics fields the stream decides, by name, and env_sum,
    the sum of n_active / (tau or 1)**2 over tau < t at each recorded t.

    The limits depend on the schedule alone, so they come first, before the
    first chunk is read. In each chunk the agreement trajectory w*(t) and
    the perturbation partial sums are prefix sums over the chunk's events,
    in event order, and all distortion or gradient evaluations go through
    one kernel call on the chunk's w* rows and its events' versions, stacked
    in tick order, then the versions at its recorded ticks (Chunk.snaps),
    whose h fill h_snap. Reads nothing the ticks leave at the horizon: the
    last chunk brings the horizon's versions, and at horizon 0, with no
    chunk, they are the start versions.
    """
    limits = phi_limit_series(art.schedule)
    cfg = art.config
    T, M, kappa, dim, D = cfg.horizon, cfg.M, cfg.kappa, cfg.dim, cfg.width
    batch = art.batch

    # per-tick step weights and activity, filled chunk by chunk
    eps_star_all = np.zeros(T + 1)
    n_active = np.zeros(T + 1, dtype=np.int64)

    # martingale increment sampling: evenly spaced over the event log, each
    # sampled event once
    n_ev = art.n_events
    mart_at = np.linspace(0, n_ev - 1, min(_MART_SAMPLES, n_ev)).astype(int)
    mart_rows = np.empty((len(mart_at), D))
    mart_cursor = 0

    times = art.snap_times
    n_rec = len(times)
    out = {name: np.zeros(n_rec) for name in _STREAM_COLUMNS}
    w_star_rec = np.empty((n_rec, D))
    h_star = np.empty((n_rec, D))
    h_snap = np.empty((n_rec, M, D))
    dm_rec = np.empty((n_rec, 2, D))      # the dm1 and dm2 partial sums

    # Each prefix sum below runs behind a -0.0 row or over -0.0 fill, since
    # x + (-0.0) keeps every bit of x: row p then holds the first p events'
    # sum, added in the order a loop over the events would add them.
    w_star = limits.phi_init @ art.x0
    run_dm = np.zeros((2, D))
    run_seg = 0.0

    for b0, b1, e0, starts, ev, snaps in chunks:
        L, E = b1 - b0, ev.n
        ev_rows = np.arange(E)
        wb = ev.w_before.reshape(E, kappa, dim)
        wb_comp = wb[ev_rows, ev.comp]                               # (E, dim)
        phi_evt = limits.phi[ev.t, ev.proc]
        coef_evt = phi_evt * ev.eps
        step_evt = phi_evt[:, None] * (-ev.eps[:, None] * (wb_comp - ev.z))   # phi * s
        eps_star_all[b0:b1] = np.bincount(ev.t - b0, weights=coef_evt, minlength=L)
        n_active[b0:b1] = np.bincount(ev.t - b0, minlength=L)

        # w* before each of the chunk's events, and after the last
        acc = np.full((E + 1, D), -0.0)
        acc[0] = w_star
        acc.reshape(E + 1, kappa, dim)[ev_rows + 1, ev.comp] = step_evt
        np.cumsum(acc, axis=0, out=acc)
        W = acc[starts[:L]]
        w_star = acc[E]

        # one stack in tick order, w*(t) and then tick t's events' versions,
        # then the recorded versions
        at_w, at_ev = starts[:L] + np.arange(L), ev_rows + (ev.t - b0) + 1
        stack = np.empty((L + E + len(snaps) * M, kappa, dim))
        stack[at_w], stack[at_ev] = W.reshape(L, kappa, dim), wb
        stack[L + E:] = snaps.reshape(-1, kappa, dim)
        dist_s, grad_s, _, _ = batched_cell_stats(stack, batch)
        dist_b, grad_b, h_evt = dist_s[at_w], grad_s[at_w], grad_s[at_ev]
        gn2_b = np.einsum("ckd,ckd->c", grad_b, grad_b)
        seg = np.cumsum(np.concatenate(([-0.0], eps_star_all[b0:b1] * gn2_b)))

        dm = np.full((E + 1, 2, kappa, dim), -0.0)
        dm1, dm2 = dm[1:, 0], dm[1:, 1]
        cview = coef_evt[:, None, None]
        dm1[...] = grad_b[ev.t - b0]                                 # h* per event
        dm1 -= h_evt
        dm1 *= cview
        inc = h_evt                                                  # h - H per event
        inc[ev_rows, ev.comp] -= wb_comp - ev.z
        sampled = np.zeros(E, dtype=bool)
        sampled[mart_at[slice(*np.searchsorted(mart_at, [e0, e0 + E]))] - e0] = True
        picked = inc[sampled]
        mart_rows[mart_cursor:mart_cursor + len(picked)] = picked.reshape(-1, D)
        mart_cursor += len(picked)
        np.multiply(inc, cview, out=dm2)
        dm = dm.reshape(E + 1, 2, D)
        np.cumsum(dm, axis=0, out=dm)

        # the chunk's recorded ticks, by one gather each
        ks = slice(*np.searchsorted(times, [b0, b1]))
        rec = times[ks] - b0
        w_star_rec[ks] = W[rec]
        h_star[ks] = grad_b[rec].reshape(-1, D)
        h_snap[ks.start:ks.start + len(snaps)] = grad_s[L + E:].reshape(-1, M, D)
        out["distortion_star"][ks] = dist_b[rec]
        out["grad_norm_star"][ks] = np.sqrt(gn2_b[rec])
        out["sum_eps_grad2"][ks] = run_seg + seg[rec]
        dm_rec[ks] = run_dm + dm[starts[rec]]

        run_seg += float(seg[L])
        run_dm += dm[E]

    # final recorded tick (the horizon itself)
    w_star_rec[-1] = w_star
    dist_f, grad_f, _, _ = batched_cell_stats(w_star.reshape(1, kappa, dim), batch)
    out["distortion_star"][-1] = dist_f[0]
    out["grad_norm_star"][-1] = float(np.linalg.norm(grad_f))
    h_star[-1] = grad_f.reshape(D)
    if T == 0:      # no chunk: the horizon's versions are the start versions
        h_snap[-1] = batched_cell_stats(art.x0.reshape(M, kappa, dim), batch)[1].reshape(M, D)
    out["sum_eps_grad2"][-1] = run_seg
    dm_rec[-1] = run_dm
    out["eps_star"][:] = eps_star_all[times]      # no event falls at the horizon
    out["sum_dm1"][:] = [float(np.linalg.norm(v)) for v in dm_rec[:, 0]]
    out["dm2_partial_norm"][:] = [float(np.linalg.norm(v)) for v in dm_rec[:, 1]]
    out["min_sep_star"][:] = _min_separation(w_star_rec.reshape(n_rec, kappa, dim))
    tick_w = np.maximum(np.arange(T + 1), 1).astype(float)
    env_cum = np.cumsum(n_active / tick_w**2)
    env_sum = np.zeros(n_rec)
    pos = times > 0
    env_sum[pos] = env_cum[times[pos] - 1]

    # step-weight ratio bounds over active ticks
    act = np.flatnonzero(n_active > 0)
    if len(act):
        ratios = eps_star_all[act] * tick_w[act]
        i_min, i_max = int(np.argmin(ratios)), int(np.argmax(ratios))
        r_min, t_min = float(ratios[i_min]), int(act[i_min])
        r_max, t_max = float(ratios[i_max]), int(act[i_max])
    else:
        r_min = r_max = 0.0
        t_min = t_max = -1
    mart = mart_rows[:mart_cursor]
    if len(mart):
        mean = mart.mean(axis=0)
        mart_mean_norm = float(np.linalg.norm(mean))
        mart_sigma = float(np.sqrt(np.mean(np.sum((mart - mean)**2, axis=1))))
    else:
        mart_mean_norm = mart_sigma = 0.0

    return dict(out, w_star_rec=w_star_rec, h_star=h_star, h_snap=h_snap, env_sum=env_sum,
                eps_ratio_min=r_min, eps_ratio_min_t=t_min,
                eps_ratio_max=r_max, eps_ratio_max_t=t_max,
                eps_star_total=float(np.sum(eps_star_all[:T])),
                mart_mean_norm=mart_mean_norm, mart_sigma=mart_sigma, mart_n=len(mart),
                limits=limits)


def sweep_path() -> str:
    """Where compute_metrics runs its chunk loop: "forked" into a child when
    the system can fork and at least two CPUs are available to this process,
    "inline" otherwise."""
    affinity = getattr(os, "sched_getaffinity", None)
    return "forked" if affinity and hasattr(os, "fork") and len(affinity(0)) >= 2 else "inline"


def _send(fd: int, obj) -> None:
    """obj, pickled, into the pipe fd; blocks while the pipe is full."""
    view = memoryview(pickle.dumps(obj, protocol=5))
    while view:
        view = view[os.write(fd, view):]


def _sweep_child(art: RunArtifacts, chunk_r: int, result_w: int) -> None:
    """The forked child's work: the chunk loop on the chunks read from
    chunk_r, up to a None, then its result, or the exception that stopped
    it, into result_w."""
    try:
        with open(chunk_r, "rb") as fh:
            msg = _chunk_loop(art, iter(functools.partial(pickle.load, fh), None))
    except BaseException as exc:
        import traceback
        msg = _Failure(exc, traceback.format_exc())
        try:
            pickle.loads(pickle.dumps(msg, protocol=5))
        except Exception:
            msg = _Failure(RuntimeError(msg.traceback), msg.traceback)
    _send(result_w, msg)


def _forked_loop(art: RunArtifacts) -> dict:
    """The chunk loop in a forked child, fed through a pipe.

    The caller takes the run's ticks (art.chunks) at once and pickles each
    chunk, the versions at its recorded ticks included, into the pipe; the
    child computes the limits meanwhile, then sweeps the chunks as they
    come, and the caller scores nothing. The pipe, widened to the system's
    largest, holds a few chunks, which bounds how far the ticks run ahead.
    The child never reads the snapshots or the final versions, which would
    take the ticks again in the child. The child's exception is raised here
    as its own type. A child that ends without a result raises
    ChildProcessError, and one left running when the caller raises is
    killed; either way it is reaped before this returns.

    The child is a copy of the calling thread alone. It uses only numpy and
    pickle; OpenBLAS stops its thread pool before a fork (its pthread_atfork
    handler) and starts a fresh one on its next call in either process.
    """
    import fcntl            # POSIX, like fork: only the forked path imports these
    import signal
    chunk_r, chunk_w = os.pipe()
    result_r, result_w = os.pipe()
    try:        # a pipe that holds several chunks: the ticks run on during the limits
        with open("/proc/sys/fs/pipe-max-size") as fh:
            fcntl.fcntl(chunk_w, fcntl.F_SETPIPE_SZ, int(fh.read()))
    except (OSError, ValueError, AttributeError):
        pass
    try:
        pid = os.fork()
    except OSError:
        for fd in (chunk_r, chunk_w, result_r, result_w):
            os.close(fd)
        raise
    if pid == 0:        # the child leaves only through _exit: no atexit, no stdio flush
        code = 1
        try:
            os.close(chunk_w)
            os.close(result_r)
            _sweep_child(art, chunk_r, result_w)
            code = 0
        finally:
            os._exit(code)
    os.close(chunk_r)
    os.close(result_w)
    status = None
    with open(result_r, "rb") as back:
        try:
            try:
                for chunk in art.chunks():
                    _send(chunk_w, chunk)
                _send(chunk_w, None)
            except BrokenPipeError:
                pass        # the child stopped reading: its message or its status says why
            finally:
                os.close(chunk_w)
            try:
                msg = pickle.load(back)
            except (EOFError, pickle.UnpicklingError):
                msg = None
            status = os.waitpid(pid, 0)[1]
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if isinstance(msg, _Failure):
        raise msg.exc from RuntimeError(f"in the metrics sweep child:\n{msg.traceback}")
    code = os.waitstatus_to_exitcode(status)
    if not isinstance(msg, dict) or code:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"the metrics sweep child {how} without a result")
    return msg


def compute_metrics(art: RunArtifacts) -> RunMetrics:
    """The run's impulse limits and one chronological sweep computing every
    diagnostic series.

    Walks the run chunk by chunk (art.chunks, chunks of consecutive ticks),
    so a run whose ticks have not been taken yet takes them here, one chunk
    of its event log at a time, in this process. The limits and the chunk
    loop, every kernel call included, run in a forked child or here
    (sweep_path); the tail, which reads the versions the ticks leave
    (snapshots, K2) and scores nothing, runs here once the last chunk is
    taken.
    """
    swept = _forked_loop(art) if sweep_path() == "forked" else _chunk_loop(art, art.chunks())
    limits, env_sum = swept["limits"], swept.pop("env_sum")
    cfg = art.config
    T, M, kappa = cfg.horizon, cfg.M, cfg.kappa
    diam = art.batch.diameter
    times = art.snap_times
    snaps = art.snapshots
    theta_all = theta_series(T + 1, limits.rho_hat)
    bound_coef = math.sqrt(kappa) * M * diam * (_BOUND_SAFETY * limits.A_hat) * art.K2
    env_coef = 4.0 * kappa * diam**2 * art.K2**2
    dev = snaps - swept["w_star_rec"][:, None, :]
    return RunMetrics(times=times, consensus_gap=_spread(snaps),
                      agreement_gap=np.sqrt(np.einsum("kid,kid->ki", dev, dev)).max(axis=1),
                      bound_normmaj=bound_coef * theta_all[times],
                      dm2_envelope=np.sqrt(env_coef * env_sum),
                      theta_final=float(theta_all[T]), **swept)


# ---------------------------------------------------------------------------
# merge-only decay and Lipschitz probe


def consensus_decay(schedule: CommSchedule, x0: np.ndarray) -> tuple[np.ndarray, float]:
    """Spread of the pure merge iteration per tick, with a fitted decay rate.

    Returns (gaps over ticks 0..T, rho_fit); rho_fit is the least-squares
    per-tick rate on ticks whose spread exceeds 1e-14, and 0.0 when fewer
    than three such ticks exist (consensus reached essentially at once).
    """
    T, depth = schedule.horizon, schedule.B1
    ring = np.zeros((depth, *np.shape(x0)))
    ring[0] = x0
    gaps = np.empty(T + 1)
    gaps[0] = _spread(ring[0])
    for t in range(T):
        merged_versions(schedule, ring, t, out=ring[(t + 1) % depth])
        gaps[t + 1] = _spread(ring[(t + 1) % depth])
    slope = _log_slope(np.arange(T + 1), gaps, 1e-14)
    return gaps, 0.0 if slope is None else float(np.exp(slope))


def _log_slope(t: np.ndarray, v: np.ndarray, floor: float) -> Optional[float]:
    """Least-squares slope of log v against t over the values above floor,
    or None when fewer than three are."""
    keep = v > floor
    if np.count_nonzero(keep) < 3:
        return None
    return float(np.polyfit(t[keep].astype(float), np.log(v[keep]), 1)[0])


def estimate_lipschitz(art: RunArtifacts, metrics: RunMetrics) -> float:
    """Largest observed ratio ||h(a) - h(b)|| / ||a - b|| over the run's own
    recorded quantizers paired with the agreement trajectory; h at both is
    the sweep's (metrics.h_snap and metrics.h_star), so the probe scores
    nothing."""
    dw = np.linalg.norm(art.snapshots - metrics.w_star_rec[:, None], axis=2)
    dh = np.linalg.norm(metrics.h_snap - metrics.h_star[:, None], axis=2)
    keep = dw > 1e-9 * art.batch.diameter
    return float(np.max(dh[keep] / dw[keep], initial=0.0))


# ---------------------------------------------------------------------------
# the report


@dataclass(frozen=True)
class ConvergenceReport:
    """Scalar summary of one run against the asynchronous theory's claims."""

    horizon: int
    n_events: int
    final_consensus_gap: float
    consensus_slope: float            # log-gap per tick over the later recorded half
    final_agreement_gap: float
    worst_bound_ratio: float          # max recorded agreement_gap / bound
    bound_params: dict
    final_distortion_star: float
    distortion_cauchy_ratio: float    # last-quarter range over full range
    final_grad_norm_star: float
    eps_ratio_min: float
    eps_ratio_min_t: int
    eps_ratio_lower: float            # eta_hat * K1
    eps_ratio_max: float
    eps_ratio_max_t: int
    eps_ratio_upper: float            # M * K2
    eps_star_total: float
    eps_star_total_floor: float       # eta_hat * K1 * ln(horizon) / 2
    sum_eps_grad2_final: float
    sum_eps_grad2_tail_fraction: float
    dm1_final_norm: float
    dm2_final_norm: float
    dm2_envelope_final: float
    mart_mean_norm: float
    mart_sigma: float
    mart_n: int
    min_sep_star_min: float
    p_hat: float
    limits_resolved: bool
    rho_hat: float

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def summarize(art: RunArtifacts, metrics: RunMetrics) -> ConvergenceReport:
    T, limits = art.config.horizon, metrics.limits
    times = metrics.times
    gaps = metrics.agreement_gap
    bounds = metrics.bound_normmaj
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bounds > 0, gaps / np.where(bounds > 0, bounds, 1.0), np.inf)
        ratio[(bounds == 0) & (gaps <= 1e-12 * art.batch.diameter)] = 0.0
    worst = float(np.max(ratio)) if len(ratio) else 0.0

    dvals = metrics.distortion_star
    q = 3 * len(dvals) // 4
    full_range = float(dvals.max() - dvals.min()) if len(dvals) else 0.0
    tail_range = float(dvals[q:].max() - dvals[q:].min()) if len(dvals) > q else 0.0
    cauchy = tail_range / full_range if full_range > 0 else 0.0

    seg = metrics.sum_eps_grad2
    seg_final = float(seg[-1]) if len(seg) else 0.0
    seg_tail = float(seg[-1] - seg[q]) / seg_final if seg_final > 0 and len(seg) > q else 0.0

    half = len(times) // 2
    slope = _log_slope(times[half:], metrics.consensus_gap[half:], 1e-300)

    return ConvergenceReport(
        horizon=T, n_events=art.n_events,
        final_consensus_gap=float(metrics.consensus_gap[-1]),
        consensus_slope=0.0 if slope is None else slope,
        final_agreement_gap=float(gaps[-1]),
        worst_bound_ratio=worst,
        bound_params={"A_hat": limits.A_hat, "rho_hat": limits.rho_hat,
                      "eta_hat": limits.eta_hat, "K1": art.K1, "K2": art.K2,
                      "safety": _BOUND_SAFETY,
                      "theta_final": metrics.theta_final},
        final_distortion_star=float(dvals[-1]),
        distortion_cauchy_ratio=cauchy,
        final_grad_norm_star=float(metrics.grad_norm_star[-1]),
        eps_ratio_min=metrics.eps_ratio_min,
        eps_ratio_min_t=metrics.eps_ratio_min_t,
        eps_ratio_lower=limits.eta_hat * art.K1,
        eps_ratio_max=metrics.eps_ratio_max,
        eps_ratio_max_t=metrics.eps_ratio_max_t,
        eps_ratio_upper=art.config.M * art.K2,
        eps_star_total=metrics.eps_star_total,
        eps_star_total_floor=limits.eta_hat * art.K1 * math.log(max(T, 2)) / 2.0,
        sum_eps_grad2_final=seg_final,
        sum_eps_grad2_tail_fraction=seg_tail,
        dm1_final_norm=float(metrics.sum_dm1[-1]),
        dm2_final_norm=float(metrics.dm2_partial_norm[-1]),
        dm2_envelope_final=float(metrics.dm2_envelope[-1]),
        mart_mean_norm=metrics.mart_mean_norm,
        mart_sigma=metrics.mart_sigma,
        mart_n=metrics.mart_n,
        min_sep_star_min=float(np.min(metrics.min_sep_star)),
        p_hat=estimate_lipschitz(art, metrics),
        limits_resolved=limits.resolved,
        rho_hat=limits.rho_hat,
    )
