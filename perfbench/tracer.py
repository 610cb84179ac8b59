"""In-memory spans and call counters recorded from outside the program.

The tracer wraps public functions at the module attribute their caller looks
them up through, so nothing in ``src/`` needs to know it exists. Low-rate calls
become spans (name, start, end, parent, self time, peak RSS at both ends);
high-rate calls are folded into one counter per name (calls, total time, self
time). Both kinds nest on a single frame stack, so a frame's self time is its
duration minus the time its direct children (spans or counted calls) cover.
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index into Tracer.spans, None at top level
    self_s: float
    rss_start_mb: float
    rss_end_mb: float

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class Counter:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans and counters; ``install`` patches, ``restore`` undoes."""

    def __init__(self, clock=time.perf_counter, rss=peak_rss_mb):
        self.clock = clock
        self.rss = rss
        self.spans: list[Span] = []
        self.counters: dict[str, Counter] = {}
        # one frame per open span or counted call: [child time, span index or None]
        self._frames: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---- recording

    def _parent(self) -> int | None:
        for frame in reversed(self._frames):
            if frame[1] is not None:
                return frame[1]
        return None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = Span(name, 0.0, 0.0, self._parent(), 0.0, self.rss(), 0.0)
        self.spans.append(rec)
        frame = [0.0, idx]
        self._frames.append(frame)
        rec.start = self.clock()
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._frames.pop()
            rec.self_s = rec.dur - frame[0]
            rec.rss_end_mb = self.rss()
            if self._frames:
                self._frames[-1][0] += rec.dur

    def _counted(self, fn, name: str):
        counter = self.counters.setdefault(name, Counter())
        frames, clock = self._frames, self.clock

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            frames.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                counter.calls += 1
                counter.total_s += dt
                counter.self_s += dt - frame[0]
        return wrapper

    def _spanned(self, fn, name: str, tally=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if tally is not None:
                tally(self, args, result)
            return result
        return wrapper

    def count(self, name: str, n: int = 1) -> None:
        """Add n calls to a counter that carries no time (a tally)."""
        self.counters.setdefault(name, Counter()).calls += n

    # ---- patching

    def install(self, owner, attr: str, name: str, counted: bool = False,
                tally=None) -> None:
        """Replace owner.attr by a recording wrapper; ``restore`` puts it back.

        ``counted`` folds every call into one counter instead of one span per
        call. ``tally(tracer, args, result)`` runs after each spanned call.
        """
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        wrapped = self._counted(original, name) if counted \
            else self._spanned(original, name, tally)
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- queries

    def total(self, name: str) -> float:
        """Summed duration of the spans with this name."""
        return sum(s.dur for s in self.spans if s.name == name)

    def self_total(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def rss_growth(self, names) -> float:
        """Rise of peak RSS summed over the top-level spans of these names.

        Peak RSS never falls, so rises over disjoint spans add up to what
        those spans contributed to the process peak.
        """
        top = {i for i, s in enumerate(self.spans) if s.name in names}
        return sum(s.rss_end_mb - s.rss_start_mb for i, s in enumerate(self.spans)
                   if i in top and s.parent not in top)

    def to_dict(self) -> dict:
        return {"spans": [vars(s) for s in self.spans],
                "counters": {k: vars(c) for k, c in self.counters.items()}}
