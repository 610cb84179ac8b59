"""Single-machine references: sequential online quantization and batch Lloyd.

The sequential baseline is the distributed engine on one processor: the
complete schedule on M = 1 merges a processor with itself alone, so each tick
is one winner-takes-all descent on the shared clock. It shares the engine's
init stream, per-draw counters and arithmetic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import RunConfig, StepPolicy, run
from .geometry import SampleBatch, batched_cell_stats
from .measures import DistributionSpec, init_quantizer, make_batch
from .schedule import ScheduleSpec

__all__ = ["run_clvq", "lloyd_step", "run_lloyd", "BaselineRun"]

_LLOYD_REL_TOL = 1e-10
_LLOYD_MAX_ITERS = 500


@dataclass(frozen=True)
class BaselineRun:
    quantizer: np.ndarray    # (kappa, dim)
    distortion: float        # on the reference batch
    iterations: int
    converged: bool = True


def run_clvq(dist: DistributionSpec, kappa: int, horizon: int, seed: int, c: float,
             replay_from_batch: bool = False, n_ref: int = 2000) -> BaselineRun:
    """Sequential run with steps c / (t or 1), t = 0 .. horizon-1: the engine's
    one-processor run. It reads only the final version, so the run's ticks
    pass chunk by chunk and no event log is kept."""
    config = RunConfig(M=1, kappa=kappa, dim=dist.dim, horizon=horizon, dist=dist,
                       sched=ScheduleSpec(topology="complete"),
                       step=StepPolicy("global-clock", c), seed=seed, n_ref=n_ref,
                       replay_from_batch=replay_from_batch)
    art = run(config)
    w = art.final.reshape(kappa, dist.dim)
    d, _, _, _ = batched_cell_stats(w[None], art.batch)
    return BaselineRun(quantizer=w, distortion=float(d[0]), iterations=horizon)


def lloyd_step(w, batch: SampleBatch) -> np.ndarray:
    """One batch update: move each component to its cell's centroid.

    A component whose cell is empty stays where it is.
    """
    w = np.asarray(w, dtype=float)
    _, _, (counts,), (sums,) = batched_cell_stats(w[None], batch)
    new = np.array(w)
    occupied = counts > 0
    new[occupied] = sums[occupied] / counts[occupied, None]
    return new


def run_lloyd(dist: DistributionSpec, kappa: int, seed: int, n_ref: int = 2000) -> BaselineRun:
    """Iterate batch updates on the reference batch until the quantizer moves
    by less than _LLOYD_REL_TOL of its own scale, at most _LLOYD_MAX_ITERS times."""
    batch = make_batch(dist, seed, n_ref)
    w = init_quantizer(dist, kappa, seed)
    for it in range(1, _LLOYD_MAX_ITERS + 1):
        new = lloyd_step(w, batch)
        scale = max(float(np.linalg.norm(w)), 1e-300)
        converged = float(np.linalg.norm(new - w)) / scale < _LLOYD_REL_TOL
        w = new
        if converged:
            break
    dist, _, _, _ = batched_cell_stats(w[None], batch)
    return BaselineRun(quantizer=w, distortion=float(dist[0]), iterations=it, converged=converged)
