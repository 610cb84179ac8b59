"""Single-machine references: sequential online quantization and batch Lloyd.

The sequential baseline mirrors the distributed engine exactly: same init
stream, same per-draw counters, same arithmetic on the winning row. With one
processor, a trivial merge and the shared clock, the engine must reproduce it
bit for bit; the tests pin that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import QuantizerVec, SampleBatch, batched_cell_stats, nearest_cell
from .measures import (DistributionSpec, StreamHandle, draw_index, init_quantizer,
                       make_batch, sample)

__all__ = ["clvq_step", "run_clvq", "lloyd_step", "run_lloyd", "BaselineRun"]

_LLOYD_REL_TOL = 1e-10
_LLOYD_MAX_ITERS = 500


@dataclass(frozen=True)
class BaselineRun:
    quantizer: QuantizerVec
    distortion: float        # on the reference batch
    iterations: int
    converged: bool = True


def clvq_step(w: np.ndarray, z: np.ndarray, eps: float) -> np.ndarray:
    """One online tick: pull the winning component toward the sample."""
    comp = nearest_cell(z, w)
    new = np.array(w, dtype=float)
    new[comp] = w[comp] + -eps * (w[comp] - z)
    return new


def run_clvq(dist: DistributionSpec, kappa: int, horizon: int, seed: int, c: float,
             replay_from_batch: bool = False, n_ref: int = 2000) -> BaselineRun:
    """Sequential run with steps c / (t or 1), t = 0 .. horizon-1."""
    if not (0.0 < c < 1.0):
        raise ConfigError(f"step constant must lie in (0, 1), got {c}")
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    batch = make_batch(dist, seed, n_ref)
    w = np.array(init_quantizer(dist, kappa, seed).components)
    for t in range(horizon):
        draw = StreamHandle(seed, 0, t)
        if replay_from_batch:
            z = batch.points[draw_index(batch.n, draw)]
        else:
            z = sample(dist, draw)
        eps = c / max(t, 1)
        comp = nearest_cell(z, w)
        w[comp] = w[comp] + -eps * (w[comp] - z)
    dist, _, _, _ = batched_cell_stats(w[None], batch)
    return BaselineRun(quantizer=QuantizerVec(w), distortion=float(dist[0]),
                       iterations=horizon)


def lloyd_step(w, batch: SampleBatch) -> np.ndarray:
    """One batch update: move each component to its cell's centroid.

    A component whose cell is empty stays where it is.
    """
    comps = w.components if isinstance(w, QuantizerVec) else np.asarray(w, dtype=float)
    _, _, (counts,), (sums,) = batched_cell_stats(comps[None], batch)
    new = np.array(comps)
    occupied = counts > 0
    new[occupied] = sums[occupied] / counts[occupied, None]
    return new


def run_lloyd(dist: DistributionSpec, kappa: int, seed: int, n_ref: int = 2000) -> BaselineRun:
    """Iterate batch updates on the reference batch until the quantizer moves
    by less than _LLOYD_REL_TOL of its own scale, at most _LLOYD_MAX_ITERS times."""
    batch = make_batch(dist, seed, n_ref)
    w = np.array(init_quantizer(dist, kappa, seed).components)
    converged = False
    it = 0
    for it in range(1, _LLOYD_MAX_ITERS + 1):
        new = lloyd_step(w, batch)
        scale = max(float(np.linalg.norm(w)), 1e-300)
        moved = float(np.linalg.norm(new - w)) / scale
        w = new
        if moved < _LLOYD_REL_TOL:
            converged = True
            break
    dist, _, _, _ = batched_cell_stats(w[None], batch)
    return BaselineRun(quantizer=QuantizerVec(w), distortion=float(dist[0]),
                       iterations=it, converged=converged)
