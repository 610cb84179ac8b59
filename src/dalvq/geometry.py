"""Quantizer geometry: nearest-cell assignment, distortion, and gradient surrogates.

A quantizer is a (kappa, dim) float array, one component (prototype vector) a
row. The cell of a component is the set of points closer to it than to any
other component, with ties and duplicate components resolving to the smallest
index, so the cells always partition the data even for degenerate quantizers.

``batched_cell_stats`` scores whole stacks of quantizers against a sample
batch. Stacks that drift slowly, like the per-tick iterates of a run, are
pruned with exact triangle-inequality bounds against an anchor quantizer per
group within a drift budget, so only the points near a moving cell boundary
are scored again. The anchor, the rescans, a quantizer the bounds do not
serve and the one point ``nearest_cell`` scores are all scored in the direct
form |z - w|^2, summed in coordinate order, so a point gets the same cell on
every path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SampleBatch",
    "nearest_cell",
    "batched_cell_stats",
    "min_component_separation",
]


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
    # batched_cell_stats' work arrays, kept across calls (see _work_array)
    _work: dict = field(init=False, repr=False, compare=False)
    # the norm of the points' coordinate-wise largest |z_d|: their term of
    # _cell_moves' radius R
    _radius: float = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_work", {})
        object.__setattr__(self, "_radius", float(np.linalg.norm(np.abs(pts).max(axis=0))))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def nearest_cell(z, w) -> int | np.ndarray:
    """Index of the component closest to z, smallest index on ties, scored
    by the kernel's rule (_sq_dist): the cell a scan of a batch gives z.
    Stacked form: for points z (E, dim) and quantizers w (E, kappa, dim),
    the cell of each z[e] in w[e], as an (E,) array, scored by the same rule
    and so bit for bit the cell each pair gets alone.

    Duplicate components produce bit-identical distances, so the collapse to
    the first duplicate falls out of first-occurrence argmin.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim not in (2, 3):
        raise ValueError(f"quantizer must be 2-d (kappa, dim) or a stack (E, kappa, dim), "
                         f"got shape {w.shape}")
    z = np.asarray(z, dtype=float)
    expect = w.shape[:-2] + w.shape[-1:]
    if z.shape != expect:
        raise ValueError(f"point has shape {z.shape}, expected {expect}")
    if w.ndim == 2:
        kappa = len(w)
        return int(_sq_dist(z, w.T, np.empty(kappa), np.empty(kappa)).argmin())
    d2 = _sq_dist(z.T[:, :, None], w.transpose(2, 0, 1), np.empty(w.shape[:2]),
                  np.empty(w.shape[:2]))
    return np.argmin(d2, axis=1)


_PAIR_BLOCK = 4096
# A quantizer whose bounds leave more than n / _FULL_SHARE points to rescan
# is not served by its anchor. 2 and 4 save a few percent of the sweep's
# kernel time but grow the pair lists (+1.4 MB peak RSS on sweep-ref5k).
_FULL_SHARE = 8
# A new group smaller than this takes full scans: a pass costs about three scans.
_REGROUP = 8
# A pruned distortion whose terms cancel by more than this factor takes a
# full scan: at 64 the closed form stays within ~1e-13 relative.
_CANCEL = 64.0


def _work_array(batch: SampleBatch, name: str, shape: tuple) -> np.ndarray:
    """An uninitialized view of the batch's work array `name`, grown as
    needed. A fresh array per call would be a new mapping of up to megabytes
    (glibc maps allocations over 128 KB), zeroed page by page by the OS, and
    a metrics sweep calls the kernel hundreds of times."""
    size = math.prod(shape)
    buf = batch._work.get(name)
    if buf is None or buf.size < size:
        buf = batch._work[name] = np.empty(size)
    return buf[:size].reshape(shape)


def batched_cell_stats(W: np.ndarray, batch: SampleBatch) -> tuple[np.ndarray, ...]:
    """Distortion, gradient and cell statistics of a stack of quantizers.

    W has shape (C, kappa, dim). Returns (distortion (C,), gradient
    (C, kappa, dim), counts (C, kappa), sums (C, kappa, dim)): half the mean
    squared distance to the nearest component, the mean winner-takes-all
    observation (count_l * w_l - sum of cell l) / n, and the cell sizes and
    sums behind it. At a parted quantizer whose cell boundaries carry no
    points the gradient is exact.

    The anchor groups follow how far the stack spreads, not its length: the
    middle quantizer is scanned in full, and every other one is bounded
    against it by the triangle inequality (Elkan, ICML 2003; Hamerly, SDM
    2010), so only the points whose bounds cross are scanned again and a
    tight stack of any size costs one scan (see _cell_moves, _pruned_stats).
    Those the anchor does not serve (too many points to rescan, or a closed
    form that would cancel) are grouped anew, each group the ones within the
    anchor's drift budget of the middle one left (Ding et al., ICML 2015); a
    group of _REGROUP or more is bounded the same way, and the rest, a lone
    quantizer among them, take full scans (_scan_stats). Every scan scores a
    point in the direct form |z - w|^2 and gives it the nearest component
    with the smallest index on ties, so the cells are the same whichever
    path a quantizer takes.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 3 or W.shape[2] != batch.dim:
        raise ValueError(f"quantizer stack must have shape (C, kappa, {batch.dim}), "
                         f"got {W.shape}")
    C, kappa, dim = W.shape
    dist = np.empty(C)
    counts = np.zeros((C, kappa), dtype=np.int64)
    sums = np.zeros((C, kappa, dim))
    groups, lone = ([np.arange(C)], []) if C > 1 else ([], list(range(C)))
    while groups:
        group = groups.pop()
        dist[group], counts[group], sums[group], loose, budget = _pruned_stats(W[group], batch)
        left = group[loose]
        while 0 < len(left) < len(group):   # unless even the anchor went unserved
            near = _thresholds(W[left], W[left[len(left) // 2]]).max(axis=1) <= budget
            (groups.append if np.count_nonzero(near) >= _REGROUP else lone.extend)(left[near])
            left = left[~near]
        lone.extend(left)
    for c in lone:
        dist[c], counts[c], sums[c] = _scan_stats(W[c], batch)
    grad = (counts[:, :, None] * W - sums) / batch.n
    return dist, grad, counts, sums


def _sq_dist(z: np.ndarray, w: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Direct-form squared distances sum_d (z_d - w_d)^2, summed in coordinate
    order; z and w are (dim, ...) arrays broadcasting to out's shape."""
    np.square(np.subtract(z[0], w[0], out=out), out=out)
    for k in range(1, len(z)):
        out += np.square(np.subtract(z[k], w[k], out=tmp), out=tmp)
    return out


def _scan(w: np.ndarray, batch: SampleBatch) -> tuple[np.ndarray, ...]:
    """Every point's squared distances to the components of w, component by
    component as (kappa, n), its nearest component, the smallest index on
    ties, and its squared distance to that component. The (kappa, n)
    distances are a work array, overwritten by the next scan. A component
    takes a point only when strictly closer than every earlier one, so a
    duplicate never wins over its first copy."""
    n, kappa = batch.n, len(w)
    d2 = _sq_dist(batch.points.T[:, None, :], w.T[:, :, None],
                  _work_array(batch, "d2", (kappa, n)), _work_array(batch, "d2_tmp", (kappa, n)))
    assign = np.zeros(n, dtype=np.intp)
    u2 = d2[0].copy()
    closer = np.empty(n, dtype=bool)
    for k in range(1, kappa):
        np.putmask(assign, np.less(d2[k], u2, out=closer), k)
        np.minimum(u2, d2[k], out=u2)
    return d2, assign, u2


def _scan_stats(w: np.ndarray, batch: SampleBatch) -> tuple[float, np.ndarray, np.ndarray]:
    """(distortion, counts, sums) of one quantizer from a full scan."""
    kappa, dim = w.shape
    _, assign, u2 = _scan(w, batch)
    sums = np.empty((kappa, dim))
    for k in range(dim):
        sums[:, k] = np.bincount(assign, batch.points[:, k], kappa)
    return 0.5 * u2.sum() / batch.n, np.bincount(assign, minlength=kappa), sums


def _thresholds(Wc: np.ndarray, A: np.ndarray) -> np.ndarray:
    """_cell_moves' theta_jk = drift_jk + max_{k' != k} drift_jk'."""
    C, kappa, _ = Wc.shape
    step = Wc - A
    drift = np.sqrt(np.einsum("ckd,ckd->ck", step, step))
    other = np.zeros((C, kappa))
    if kappa > 1:                                       # max drift over the other components
        top = np.argmax(drift, axis=1)
        two = np.partition(drift, kappa - 2, axis=1)[:, kappa - 2:]
        other[:] = two[:, 1:]
        other[np.arange(C), top] = two[:, 0]
    return drift + other


def _cell_moves(Wc: np.ndarray, batch: SampleBatch) -> tuple[np.ndarray, ...]:
    """The assignments of a stack, as an anchor's plus the changes.

    The middle quantizer A is the anchor: each point p gets its cell a_p,
    its distance u_p to A's component a_p and l_p to the runner-up, exactly.
    Quantizer j moves component k by drift_jk = |W_jk - A_k|, so p's
    distance to W_j,a_p is at most u_p + drift_j,a_p and to any other W_jk
    at least l_p - max_{k != a_p} drift_jk: p stays in a_p unless its slack
    l_p - u_p is at most theta_j,a_p = drift_j,a_p + max_{k != a_p} drift_jk.
    Only points whose slack is at most their cell's largest theta can move;
    those candidates, sorted by cell, then slack, then index, make each
    (j, cell) candidate set a prefix, and only candidates are rescanned over
    all components. A tie has zero slack, so it is always rescanned and goes
    to the smallest index.

    Distances are computed in the direct form, each within (dim + 3) eps R
    of the true one, R bounding every distance; the allowance of
    16 (dim + 4) eps R added to every threshold covers the errors in the
    slack, the drifts and the rescan's comparison.

    Returns (j0, assign, u2, full, j, p, cell, budget): the anchor's index,
    its assignment and squared distances u_p^2, the quantizers left to a
    full scan, each point p whose cell under quantizer j (not in full)
    differs from assign[p], and the drift budget, the (n / _FULL_SHARE)-th
    smallest slack: thresholds within it leave about that many to rescan.
    """
    C, kappa, dim = Wc.shape
    n, pts = batch.n, batch.points
    j0 = C // 2
    A = Wc[j0]
    d2, assign, u2 = _scan(A, batch)
    d2[assign, np.arange(n)] = np.inf
    slack = np.sqrt(d2.min(axis=0)) - np.sqrt(u2)      # inf when kappa == 1

    budget = np.partition(slack, n // _FULL_SHARE)[n // _FULL_SHARE]
    R = batch._radius + np.linalg.norm(np.abs(Wc).max(axis=0).max(axis=0))
    theta = _thresholds(Wc, A) + 16 * (dim + 4) * np.finfo(float).eps * R

    cand = np.flatnonzero(slack <= theta.max(axis=0)[assign])
    order = cand[np.lexsort((slack[cand], assign[cand]))]
    slack = slack[order]
    start = np.zeros(kappa + 1, dtype=np.intp)
    np.cumsum(np.bincount(assign[cand], minlength=kappa), out=start[1:])
    m = np.empty((C, kappa), dtype=np.intp)
    for k in range(kappa):
        m[:, k] = np.searchsorted(slack[start[k]:start[k + 1]], theta[:, k], side="right")
    full = np.flatnonzero(m.sum(axis=1) > n // _FULL_SHARE)
    m[full] = 0

    lens = m.ravel()
    jk = np.repeat(np.arange(C * kappa), lens)
    first = np.repeat(np.tile(start[:-1], C) - (np.cumsum(lens) - lens), lens)
    p = order[first + np.arange(len(jk))]
    j, old = np.divmod(jk, kappa)
    new = np.empty_like(old)
    b_max = min(_PAIR_BLOCK, len(jk))
    out = _work_array(batch, "pair_d2", (b_max, kappa))
    tmp = _work_array(batch, "pair_tmp", (b_max, kappa))
    for q0 in range(0, len(jk), _PAIR_BLOCK):
        q1 = min(q0 + _PAIR_BLOCK, len(jk))
        d2 = _sq_dist(pts[p[q0:q1]].T[:, :, None], Wc[j[q0:q1]].transpose(2, 0, 1),
                      out[:q1 - q0], tmp[:q1 - q0])
        np.argmin(d2, axis=1, out=new[q0:q1])
    moved = new != old
    return j0, assign, u2, full, j[moved], p[moved], new[moved], budget


def _pruned_stats(Wc: np.ndarray, batch: SampleBatch) -> tuple[np.ndarray, ...]:
    """(dist, counts, sums) of a stack from its anchor's cell statistics plus
    the points that changed cell (_cell_moves), the indices the anchor does
    not serve, whose rows hold no result, and _cell_moves' drift budget.

    Cell l of quantizer j holds N points with sum S and sum of squared
    distances D to the anchor's component A_l, so its distortion is
    D + 2 (A_l - W_jl).(S - N A_l) + N |A_l - W_jl|^2. Centred on the
    anchor, every term but D is of the order of the drift, and the form is
    as accurate as a per-point sum. Where a quantizer's terms sum in
    magnitude to more than _CANCEL times its distortion (it sits much nearer
    its points than the anchor does), the form would lose that factor to
    cancellation, and the quantizer is left to a full scan too.
    """
    C, kappa, dim = Wc.shape
    pts = batch.points
    j0, assign, u2, full, j, p, new, budget = _cell_moves(Wc, batch)
    A = Wc[j0]
    size = C * kappa
    into, out = j * kappa + new, j * kappa + assign[p]

    def cells(anchor_w, into_w, out_w):
        """Per (quantizer, cell) sum of a per-point weight."""
        moved = np.bincount(into, into_w, size) - np.bincount(out, out_w, size)
        return np.bincount(assign, anchor_w, kappa) + moved.reshape(C, kappa)

    counts = cells(None, None, None)
    sums = np.stack([cells(pts[:, k], pts[p, k], pts[p, k]) for k in range(dim)], axis=-1)
    d_into = _sq_dist(pts[p].T, A[new].T, np.empty(len(p)), np.empty(len(p)))
    cell_d = cells(u2, d_into, u2[p])
    e = A - Wc
    cross = 2.0 * np.einsum("ckd,ckd->ck", e, sums - counts[:, :, None] * A)
    quad = counts * np.einsum("ckd,ckd->ck", e, e)
    total = (cell_d + cross + quad).sum(axis=1)
    loose = (cell_d + np.abs(cross) + quad).sum(axis=1) > _CANCEL * total
    loose[full] = True
    return 0.5 * total / batch.n, counts, sums, np.flatnonzero(loose), budget


def min_component_separation(w) -> float:
    """Smallest pairwise distance between components; +inf when kappa == 1."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"quantizer must be 2-d (kappa, dim), got shape {w.shape}")
    return float(_min_separation(w[None])[0])


def _min_separation(W: np.ndarray) -> np.ndarray:
    """min_component_separation of each quantizer of a stack (R, kappa, dim)."""
    diff = W[:, :, None, :] - W[:, None, :, :]
    iu = np.triu_indices(W.shape[1], k=1)
    sq = np.einsum("rijd,rijd->rij", diff, diff)[:, iu[0], iu[1]]
    return np.sqrt(np.min(sq, axis=1, initial=math.inf))
