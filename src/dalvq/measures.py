"""Sample distributions and replayable random streams.

Every random draw in a run is addressed by (master seed, stream id, counter):
the triple keys a counter-based bit generator, so any single sample can be
regenerated bit-exactly without replaying the stream prefix, and distinct
streams are independent by construction. Stream ids 0..M-1 belong to the
processors' data streams; the high reserved ids below keep utility draws out
of their keyspace.

The bit generator is Philox4x64-10, a function of (key, counter) alone, so the
uniforms of any list of addresses come from one vectorized pass (`_uniforms`)
with the same bits a per-address generator gives.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, is_numeric, strict_object
from .geometry import SampleBatch, min_component_separation

__all__ = [
    "DistributionSpec",
    "StreamHandle",
    "sample",
    "draw_index",
    "make_batch",
    "init_quantizer",
    "STREAM_REF_BATCH",
    "STREAM_INIT_BASE",
    "STREAM_SCHEDULE",
]

STREAM_REF_BATCH = 2**48
STREAM_INIT_BASE = 2**48 + 2**16
STREAM_SCHEDULE = 2**49

# Attempt caps: exceeding either means the configuration is degenerate, not bad luck.
_MAX_REJECTION_ATTEMPTS = 10_000
_MAX_INIT_ROUNDS = 1000

_UNIFORM_BOX = "uniform-box"
_GAUSS_MIX = "truncated-gaussian-mixture"
_DISK_UNION = "uniform-disk-union"
_FIELDS = {_UNIFORM_BOX: ("kind", "low", "high"),
           _GAUSS_MIX: ("kind", "weights", "means", "covs", "low", "high"),
           _DISK_UNION: ("kind", "centers", "radii")}


@dataclass(frozen=True)
class StreamHandle:
    """Address of one draw: counter number `counter` of stream `stream`.

    `stream` and `counter` may also be 1-d integer arrays, which broadcast
    together into a list of addresses; `sample` and `draw_index` then return
    one draw per address.
    """

    seed: int
    stream: int | np.ndarray
    counter: int | np.ndarray = 0

    def __post_init__(self):
        for name in ("seed", "stream", "counter"):
            v = getattr(self, name)
            if isinstance(v, np.ndarray) and name != "seed":
                ok = v.ndim == 1 and v.dtype.kind in "iu" and not np.any(v < 0)
            else:
                ok = isinstance(v, (int, np.integer)) and v >= 0
            if not ok:
                raise ConfigError(f"stream handle field {name} must be a nonnegative integer")
        if self.seed >= 2**64 or np.ndim(self.stream) == 0 and self.stream >= 2**64:
            raise ConfigError("seed and stream id must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        """Generator owning this counter's private block of the keyed Philox
        space; one address only."""
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        ctr = np.array([0, self.counter, 0, 0], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=ctr))


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC'11), the bit generator behind StreamHandle.generator
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(32)
# addresses per pass: keeps the (2, n) round state a few hundred KB
_TABLE_CHUNK = 8192


def _mulhilo(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of _PHILOX_M * x, row by row, the 128-bit
    product assembled from 32-bit limbs."""
    m_lo, m_hi = _PHILOX_M & _LO32, _PHILOX_M >> _HALF
    x_lo, x_hi = x & _LO32, x >> _HALF
    lo_lo, lo_hi, hi_lo = m_lo * x_lo, m_lo * x_hi, m_hi * x_lo
    mid = (lo_lo >> _HALF) + (lo_hi & _LO32) + (hi_lo & _LO32)
    hi = m_hi * x_hi + (lo_hi >> _HALF) + (hi_lo >> _HALF) + (mid >> _HALF)
    return hi, _PHILOX_M * x


def _philox_block(block: int, seed: int, stream: np.ndarray,
                  counter: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of counter (block, counter, 0, 0) under key (seed,
    stream), per address: a (4, n) array of the block's words in order."""
    even = np.zeros((2, len(counter)), dtype=np.uint64)    # words 0 and 2
    even[0] = block
    odd = np.zeros_like(even)                               # words 1 and 3
    odd[0] = counter
    key = np.empty_like(even)
    key[0], key[1] = seed, stream
    for r in range(10):
        if r:
            key += _PHILOX_W
        hi, lo = _mulhilo(even)
        even, odd = hi[::-1] ^ odd ^ key, lo[::-1]
    return np.stack([even[0], odd[0], even[1], odd[1]])


def _addresses(draw: StreamHandle) -> tuple[np.ndarray, np.ndarray]:
    """The draw's streams and counters as two 1-d uint64 arrays of equal length."""
    stream, counter = np.broadcast_arrays(draw.stream, draw.counter)
    return np.ravel(stream).astype(np.uint64), np.ravel(counter).astype(np.uint64)


def _uniforms(draw: StreamHandle, n: int) -> np.ndarray:
    """(N, n) array: the first n `random()` values of the generator at each of
    the draw's N addresses, computed for all addresses at once.

    The generator at counter c starts at counter block (0, c, 0, 0) and steps
    before its first block, so value w is word w % 4 of block
    (1 + w // 4, c, 0, 0), and `random()` is (word >> 11) * 2**-53.
    """
    stream, counter = _addresses(draw)
    out = np.empty((len(counter), n))
    for a in range(0, len(counter), _TABLE_CHUNK):
        b = min(a + _TABLE_CHUNK, len(counter))
        for w in range(0, n, 4):
            words = _philox_block(1 + w // 4, draw.seed, stream[a:b], counter[a:b])
            out[a:b, w:w + 4] = (words[:n - w] >> np.uint64(11)).T * 2.0**-53
    return out


@dataclass(frozen=True)
class DistributionSpec:
    """A sampling distribution with bounded support of known diameter.

    Three kinds: a uniform box (convex), a Gaussian mixture truncated to a box
    (convex support, bounded density), and a union of planar disks (possibly
    non-convex, for stressing support-shape assumptions; overlapping disks are
    oversampled in proportion to the overlap).
    """

    kind: str
    low: np.ndarray = None
    high: np.ndarray = None
    weights: np.ndarray = None
    means: np.ndarray = None
    covs: np.ndarray = None
    centers: np.ndarray = None
    radii: np.ndarray = None
    _chols: np.ndarray = field(repr=False, compare=False, default=None)
    _cdf: np.ndarray = field(repr=False, compare=False, default=None)   # component choice

    # ---- constructors ----

    @staticmethod
    def uniform_box(low, high) -> "DistributionSpec":
        return DistributionSpec(kind=_UNIFORM_BOX, low=low, high=high)

    @staticmethod
    def gaussian_mixture(weights, means, covs, low, high) -> "DistributionSpec":
        return DistributionSpec(kind=_GAUSS_MIX, weights=weights, means=means, covs=covs,
                                low=low, high=high)

    @staticmethod
    def disk_union(centers, radii) -> "DistributionSpec":
        return DistributionSpec(kind=_DISK_UNION, centers=centers, radii=radii)

    def __post_init__(self):
        def freeze(name, value):
            try:
                arr = np.asarray(value)
            except ValueError as exc:  # ragged nesting
                raise ConfigError(f"{name} must be a regular array of numbers") from exc
            if not is_numeric(value, arr):
                raise ConfigError(f"{name} must hold only numbers")
            arr = np.array(arr, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
            return arr

        if self.kind in (_UNIFORM_BOX, _GAUSS_MIX):
            if self.low is None or self.high is None:
                raise ConfigError(f"{self.kind} needs low/high bounds")
            lo = freeze("low", self.low)
            hi = freeze("high", self.high)
            if lo.ndim != 1 or lo.shape != hi.shape:
                raise ConfigError("low/high must be 1-d arrays of equal length")
            if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
                raise ConfigError("box bounds must be finite")
            if not np.all(lo < hi):
                raise ConfigError("box must satisfy low < high in every coordinate")
        if self.kind == _GAUSS_MIX:
            if self.weights is None or self.means is None or self.covs is None:
                raise ConfigError("mixture needs weights, means, covs")
            w = freeze("weights", self.weights)
            mu = freeze("means", self.means)
            cv = freeze("covs", self.covs)
            if not all(np.all(np.isfinite(a)) for a in (w, mu, cv)):
                raise ConfigError("mixture weights, means and covs must be finite")
            if w.ndim != 1 or len(w) < 1 or np.any(w < 0):
                raise ConfigError("weights must be a nonnegative 1-d array")
            d, m = len(self.low), len(w)
            if abs(float(np.sum(w)) - 1.0) > 1e-12:
                raise ConfigError("mixture weights must sum to 1 within 1e-12")
            if mu.shape != (m, d):
                raise ConfigError(f"means must have shape ({m}, {d})")
            if cv.shape != (m, d, d):
                raise ConfigError(f"covs must have shape ({m}, {d}, {d})")
            try:
                chols = np.linalg.cholesky(cv)
            except np.linalg.LinAlgError as exc:
                raise ConfigError("each covariance must be symmetric positive definite") from exc
            chols.flags.writeable = False
            object.__setattr__(self, "_chols", chols)
            object.__setattr__(self, "_cdf", _categorical(w))
        elif self.kind == _DISK_UNION:
            if self.centers is None or self.radii is None:
                raise ConfigError("disk union needs centers and radii")
            c = freeze("centers", self.centers)
            r = freeze("radii", self.radii)
            if c.ndim != 2 or c.shape[1] != 2:
                raise ConfigError("disk centers must have shape (m, 2)")
            if not (np.all(np.isfinite(c)) and np.all(np.isfinite(r))):
                raise ConfigError("disk centers and radii must be finite")
            if r.shape != (c.shape[0],) or np.any(r <= 0):
                raise ConfigError("radii must be positive, one per center")
            areas = r**2
            object.__setattr__(self, "_cdf", _categorical(areas / np.sum(areas)))
        elif self.kind != _UNIFORM_BOX:
            raise ConfigError(f"unknown distribution kind: {self.kind!r}")

    # ---- support geometry ----

    @property
    def dim(self) -> int:
        if self.kind == _DISK_UNION:
            return 2
        return self.low.shape[0]

    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == _DISK_UNION:
            return (np.min(self.centers - self.radii[:, None], axis=0),
                    np.max(self.centers + self.radii[:, None], axis=0))
        return self.low, self.high

    @property
    def diameter(self) -> float:
        """Exact diameter of the declared support."""
        if self.kind == _DISK_UNION:
            dc = self.centers[:, None, :] - self.centers[None, :, :]
            gaps = np.sqrt(np.einsum("ijd,ijd->ij", dc, dc))
            return float(np.max(gaps + self.radii[:, None] + self.radii[None, :]))
        return float(np.linalg.norm(self.high - self.low))

    @property
    def convex_support(self) -> bool:
        # a lone disk is convex; a union of several generally is not
        return self.kind != _DISK_UNION or len(self.radii) == 1

    def _strictly_interior(self, z) -> bool:
        z = np.asarray(z, dtype=float)
        if self.kind == _DISK_UNION:
            dist = np.linalg.norm(self.centers - z[None, :], axis=1)
            return bool(np.any(dist < self.radii))
        return bool(np.all(z > self.low) and np.all(z < self.high))

    # array fields break the generated comparison; value semantics via dicts
    def __eq__(self, other):
        if not isinstance(other, DistributionSpec):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    # ---- serialization (JSON-safe dicts) ----

    def to_dict(self) -> dict:
        if self.kind == _UNIFORM_BOX:
            return {"kind": self.kind, "low": self.low.tolist(), "high": self.high.tolist()}
        if self.kind == _GAUSS_MIX:
            return {"kind": self.kind, "weights": self.weights.tolist(),
                    "means": self.means.tolist(), "covs": self.covs.tolist(),
                    "low": self.low.tolist(), "high": self.high.tolist()}
        return {"kind": self.kind, "centers": self.centers.tolist(), "radii": self.radii.tolist()}

    @staticmethod
    def from_dict(data: dict) -> "DistributionSpec":
        # every field passes this first check; the kind then names the allowed ones
        kind = strict_object("distribution", data, ("kind",), data)["kind"]
        if not isinstance(kind, str) or kind not in _FIELDS:
            raise ConfigError(f"unknown distribution kind: {kind!r}")
        return DistributionSpec(**strict_object(f"{kind} distribution", data, _FIELDS[kind]))


def _categorical(p: np.ndarray) -> np.ndarray:
    """Cumulative distribution of the probabilities p, its last entry set to
    exactly 1 so that every uniform draw in [0, 1) finds a component."""
    cum = np.cumsum(p)
    cum[-1] = 1.0
    cum.flags.writeable = False
    return cum


def _is_scalar(draw: StreamHandle) -> bool:
    return np.ndim(draw.stream) == 0 and np.ndim(draw.counter) == 0


def sample(spec: DistributionSpec, draw: StreamHandle) -> np.ndarray:
    """The point drawn from the distribution at one stream address, or an
    (N, dim) array of the points at the N addresses of an array draw.

    The point depends only on (spec, seed, stream, counter), never on earlier
    draws, so replaying any counter reproduces its sample bit-exactly. Box
    and disk draws read the address's first uniforms (`_uniforms`); a
    mixture draw runs its generator, whose normals take a variable number
    of words.
    """
    if spec.kind == _GAUSS_MIX:
        stream, counter = _addresses(draw)
        z = np.empty((len(counter), spec.dim))
        for k, (s, c) in enumerate(zip(stream.tolist(), counter.tolist())):
            z[k] = _mixture_point(spec, StreamHandle(draw.seed, s, c).generator())
    elif spec.kind == _UNIFORM_BOX:
        z = spec.low + _uniforms(draw, spec.dim) * (spec.high - spec.low)
    else:  # disk union, area-weighted disk choice
        u = _uniforms(draw, 3)
        disk = np.searchsorted(spec._cdf, u[:, 0], side="right")
        r = spec.radii[disk] * np.sqrt(u[:, 1])
        ang = 2.0 * np.pi * u[:, 2]
        z = spec.centers[disk] + r[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return z[0] if _is_scalar(draw) else z


def _mixture_point(spec: DistributionSpec, g: np.random.Generator) -> np.ndarray:
    comp = int(np.searchsorted(spec._cdf, g.random(), side="right"))
    mean = spec.means[comp]
    chol = spec._chols[comp]
    for _ in range(_MAX_REJECTION_ATTEMPTS):
        z = mean + chol @ g.standard_normal(spec.dim)
        if np.all(z >= spec.low) and np.all(z <= spec.high):
            return z
    raise ConfigError(
        "truncation box rejects virtually all mass of component "
        f"{comp}; loosen the box or move the component")


def draw_index(n: int, draw: StreamHandle) -> int | np.ndarray:
    """Uniform index in [0, n), replayable like sample(), or an int64 array
    of one index per address; used by batch replay."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = (_uniforms(draw, 1)[:, 0] * n).astype(np.int64)
    return int(idx[0]) if _is_scalar(draw) else idx


def make_batch(spec: DistributionSpec, seed: int, n: int) -> SampleBatch:
    """n deterministic draws packaged with the declared support geometry."""
    if n < 1:
        raise ConfigError("batch size must be >= 1")
    pts = sample(spec, StreamHandle(seed, STREAM_REF_BATCH, np.arange(n)))
    lo, hi = spec.bbox
    return SampleBatch(points=pts, bbox_low=lo, bbox_high=hi, diameter=spec.diameter)


def init_quantizer(spec: DistributionSpec, kappa: int, seed: int,
                   stream: int = STREAM_INIT_BASE) -> np.ndarray:
    """A read-only (kappa, dim) quantizer of points drawn from the
    distribution, resampled as a group until they are pairwise separated by at
    least 1e-6 of the support diameter and strictly interior to the support.
    Round r takes counters r * kappa .. (r + 1) * kappa - 1 of the stream."""
    if kappa < 1:
        raise ConfigError("kappa must be >= 1")
    min_sep = 1e-6 * spec.diameter
    for r in range(_MAX_INIT_ROUNDS):
        pts = sample(spec, StreamHandle(seed, stream, r * kappa + np.arange(kappa)))
        if not all(spec._strictly_interior(p) for p in pts):
            continue
        if kappa == 1 or min_component_separation(pts) >= min_sep:
            pts.flags.writeable = False
            return pts
    raise RuntimeError(
        f"could not draw {kappa} separated interior points in {_MAX_INIT_ROUNDS} rounds; "
        "the distribution is too degenerate for this kappa")
