"""In-memory spans around calls into the program's layers, and the statistics
the benchmark derives from them.

Tracing works from outside the program: ``Tracer.wrap`` replaces a public
module attribute with a wrapper that records a span around each call. Code
inside the package reaches its siblings through module attributes
(``pareto.exact_hypervolume``, ``cmaes.sample_population``), so nested calls
are recorded with their parent. A name that no longer exists is recorded as
absent instead of failing the run.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

# percentiles considered by ``tail_percentile``, lowest first
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
# a percentile is reported only with at least this many samples beyond it
MIN_SAMPLES_BEYOND = 10


@dataclass
class Span:
    name: str
    start: float
    parent: int          # index of the enclosing span, -1 for a root
    op: int              # operation (request or training command) id
    end: float = math.nan
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory while ``enabled``; ``unwrap`` restores every
    wrapped attribute."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.op = 0
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, info=None) -> None:
        """Record a span named ``name`` around every call of ``module.attr``.

        ``info(args, kwargs, result) -> dict`` adds counters to the span; it
        runs after the span has ended, so its cost is not the layer's.
        """
        fn = getattr(module, attr, None) if module is not None else None
        if not callable(fn):
            self.absent.append(name)
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if info is not None:
                self.spans[index].info = info(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._wrapped.append((module, attr, fn))

    def unwrap(self) -> None:
        while self._wrapped:
            module, attr, fn = self._wrapped.pop()
            setattr(module, attr, fn)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    info: list[dict] = field(default_factory=list)


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per-name call count, inclusive time and self time.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of a span and all its descendants add up to
    its own duration.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    stats: dict[str, LayerStats] = {}
    for s, covered in zip(spans, child_time):
        st = stats.setdefault(s.name, LayerStats())
        st.calls += 1
        st.total_s += s.duration
        st.self_s += s.duration - covered
        if s.info:
            st.info.append(s.info)
    return stats


def root_time(spans: list[Span]) -> float:
    """Wall time covered by spans that have no traced parent."""
    return sum(s.duration for s in spans if s.parent < 0)


def start_gaps(spans: list[Span], name: str) -> list[float]:
    """Differences between the start times of successive spans called
    ``name`` under the same parent span (e.g. sampler calls -> epoch times)."""
    last: dict[int, float] = {}
    gaps = []
    for s in spans:
        if s.name != name:
            continue
        if s.parent in last:
            gaps.append(s.start - last[s.parent])
        last[s.parent] = s.start
    return gaps


def _rank(p: float, n: int) -> int:
    """ceil(p/100 * n) in integer arithmetic on tenths of a percent, so that
    e.g. p90 of 100 samples is the 90th and not, by rounding, the 91st."""
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(samples) -> tuple[float, float, int] | None:
    """The highest ladder percentile with at least ten samples beyond it, as
    (percentile, value, sample count); None when even the median has fewer."""
    n = len(samples)
    best = None
    for p in PERCENTILE_LADDER:
        if n and n - _rank(p, n) >= MIN_SAMPLES_BEYOND:
            best = (p, percentile(samples, p), n)
    return best
