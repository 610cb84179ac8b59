"""Quantizer geometry: nearest-cell assignment, distortion, and gradient surrogates.

A quantizer is a tuple of kappa components (prototype vectors) in R^d. The cell
of a component is the set of points closer to it than to any other component,
with ties and duplicate components resolving to the smallest index, so the cells
always partition the data even for degenerate quantizers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuantizerVec",
    "SampleBatch",
    "nearest_cell",
    "gradient_observation",
    "batched_cell_stats",
    "min_component_separation",
]


def _as_components(w) -> np.ndarray:
    """Coerce a QuantizerVec or array-like to a (kappa, dim) float array."""
    if isinstance(w, QuantizerVec):
        return w.components
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"quantizer must be 2-d (kappa, dim), got shape {arr.shape}")
    return arr


def _check_point(z, dim: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (dim,):
        raise ValueError(f"point has shape {z.shape}, expected ({dim},)")
    return z


@dataclass(frozen=True)
class QuantizerVec:
    """Immutable stack of kappa prototype vectors, shape (kappa, dim).

    Components are finite floats; the array is copied on construction and
    frozen so instances behave as values.
    """

    components: np.ndarray

    def __post_init__(self):
        arr = np.array(self.components, dtype=float)  # defensive copy
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"components must have shape (kappa>=1, dim>=1), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("components must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "components", arr)

    @property
    def kappa(self) -> int:
        return self.components.shape[0]

    @property
    def dim(self) -> int:
        return self.components.shape[1]


@dataclass(frozen=True)
class SampleBatch:
    """A fixed batch of samples plus the declared support geometry.

    The bounding box and diameter describe the distribution's support, not the
    empirical point cloud: diagnostics that scale by the support diameter must
    not drift with the draw.
    """

    points: np.ndarray
    bbox_low: np.ndarray
    bbox_high: np.ndarray
    diameter: float
    # squared point norms, cached for batched_cell_stats
    _sq_norms: np.ndarray = field(init=False, repr=False)
    # batched_cell_stats' work arrays, kept across calls (see _work_array)
    _work: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"points must have shape (n>=1, dim), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        lo = np.array(self.bbox_low, dtype=float)
        hi = np.array(self.bbox_high, dtype=float)
        if lo.shape != (pts.shape[1],) or hi.shape != (pts.shape[1],):
            raise ValueError("bounding box does not match point dimension")
        slack = 1e-9 * max(1.0, float(np.max(hi - lo)))
        if np.any(pts < lo - slack) or np.any(pts > hi + slack):
            raise ValueError("points fall outside the declared bounding box")
        if not (np.isfinite(self.diameter) and self.diameter > 0):
            raise ValueError("diameter must be positive and finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "bbox_low", lo)
        object.__setattr__(self, "bbox_high", hi)
        sq = np.einsum("nd,nd->n", pts, pts)
        sq.flags.writeable = False
        object.__setattr__(self, "_sq_norms", sq)
        object.__setattr__(self, "_work", {})

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def nearest_cell(z, w) -> int:
    """Index of the component closest to z, smallest index on ties.

    Duplicate components produce bit-identical distances, so the collapse to
    the first duplicate falls out of first-occurrence argmin.
    """
    comps = _as_components(w)
    z = _check_point(z, comps.shape[1])
    diff = comps - z
    sq = np.einsum("kd,kd->k", diff, diff)
    return int(np.argmin(sq))


def gradient_observation(z, w) -> np.ndarray:
    """Single-sample winner-takes-all gradient surrogate.

    Returns a (kappa, dim) array that is zero except in the winning row,
    which holds w_winner - z. Its only nonzero row has norm <= the distance
    from z to the quantizer, hence <= the support diameter whenever both live
    in the support hull.
    """
    comps = _as_components(w)
    z = _check_point(z, comps.shape[1])
    out = np.zeros_like(comps)
    win = nearest_cell(z, comps)
    out[win] = comps[win] - z
    return out


_POINT_BLOCK = 320
_STACK_CHUNK = 256


def _work_array(batch: SampleBatch, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """An uninitialized view of the batch's work array `name`, grown as
    needed. A fresh array per call or block would be a new mapping of up to
    megabytes (glibc maps allocations over 128 KB), zeroed page by page by
    the OS, and a metrics sweep calls the kernel hundreds of times."""
    size = math.prod(shape)
    buf = batch._work.get(name)
    if buf is None or buf.size < size:
        buf = batch._work[name] = np.empty(size, dtype=dtype)
    return buf[:size].reshape(shape)


def batched_cell_stats(W: np.ndarray, batch: SampleBatch) -> tuple[np.ndarray, ...]:
    """Distortion, gradient and cell statistics of a stack of quantizers.

    W has shape (C, kappa, dim). Returns (distortion (C,), gradient
    (C, kappa, dim), counts (C, kappa), sums (C, kappa, dim)): half the mean
    squared distance to the nearest component, the mean winner-takes-all
    observation (count_l * w_l - sum of cell l) / n, and the cell sizes and
    sums behind it. At a parted quantizer whose cell boundaries carry no
    points the gradient is exact.

    Points go to the smallest index minimizing |w|^2 - 2 z.w; |z|^2 shifts
    every column equally, so it is added back only in the distortion, clamped
    at zero where z coincides with a component. The stack is taken in chunks
    of _STACK_CHUNK quantizers to bound memory, and the points in blocks of
    _POINT_BLOCK: the (block, chunk * kappa) score matrix is the bandwidth hot
    spot, and keeping it in cache roughly halves a long metrics sweep.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 3 or W.shape[2] != batch.dim:
        raise ValueError(f"quantizer stack must have shape (C, kappa, {batch.dim}), "
                         f"got {W.shape}")
    C, kappa, dim = W.shape
    n = batch.n
    neg2 = -2.0 * batch.points
    dist = np.empty(C)
    counts = np.zeros((C, kappa), dtype=np.int64)
    sums = np.zeros((C, kappa, dim))
    for c0 in range(0, C, _STACK_CHUNK):
        c1 = min(c0 + _STACK_CHUNK, C)
        comps = W[c0:c1].reshape(-1, dim)
        cnt, sm = counts[c0:c1].reshape(-1), sums[c0:c1].reshape(-1, dim)  # views
        w_sq = np.einsum("kd,kd->k", comps, comps)
        col = kappa * np.arange(c1 - c0)[None, :]
        tot = np.zeros(c1 - c0)
        b_max = min(_POINT_BLOCK, n)
        pq, qp = (b_max, c1 - c0), (c1 - c0, b_max)    # (point, quantizer) and back
        score_buf = _work_array(batch, "score", (b_max, len(comps)))
        at_row = _work_array(batch, "at_row", pq, np.intp)    # first score of (point, quantizer)
        np.add(np.arange(b_max)[:, None] * len(comps), col, out=at_row)
        assign_buf = _work_array(batch, "assign", pq, np.intp)
        where_buf = _work_array(batch, "where", pq, np.intp)
        rmin_buf, coord_buf = _work_array(batch, "rmin", pq), _work_array(batch, "coord", qp)
        flat_buf = _work_array(batch, "flat", qp, np.intp)
        for p0 in range(0, n, _POINT_BLOCK):
            p1 = min(p0 + _POINT_BLOCK, n)
            b = p1 - p0
            score = np.matmul(neg2[p0:p1], comps.T, out=score_buf[:b])
            score += w_sq[None, :]
            assign = np.argmin(score.reshape(b, c1 - c0, kappa), axis=2,
                               out=assign_buf[:b])              # (block, chunk)
            rmin = np.take(score, np.add(assign, at_row[:b], out=where_buf[:b]), out=rmin_buf[:b])
            rmin += batch._sq_norms[p0:p1, None]
            tot += np.maximum(rmin, 0.0, out=rmin).sum(axis=0)
            flat = np.add(assign.T, col.T, out=flat_buf[:, :b]).ravel()  # chunk-major
            cnt += np.bincount(flat, minlength=len(cnt))
            coord = coord_buf[:, :b]
            for k in range(dim):
                coord[:] = batch.points[p0:p1, k]
                sm[:, k] += np.bincount(flat, weights=coord.ravel(), minlength=len(cnt))
        dist[c0:c1] = 0.5 * tot / n
    grad = (counts[:, :, None] * W - sums) / n
    return dist, grad, counts, sums


def min_component_separation(w) -> float:
    """Smallest pairwise distance between components; +inf when kappa == 1."""
    comps = _as_components(w)
    kappa = comps.shape[0]
    if kappa == 1:
        return math.inf
    diff = comps[:, None, :] - comps[None, :, :]
    sq = np.einsum("ijd,ijd->ij", diff, diff)
    iu = np.triu_indices(kappa, k=1)
    return float(np.sqrt(np.min(sq[iu])))
