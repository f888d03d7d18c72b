"""Span recorder for the traced benchmark run.

It replaces module attributes with timing wrappers, so it sees exactly the
calls that go through the binding a caller looks up: ``analysis`` imports
``step`` and ``generate_sequence`` by name, so those calls go through
``analysis.step`` and ``analysis.generate_sequence``, not through the
``filters`` or ``plant`` attributes.  ``wrap`` patches every binding of the
function in the given modules.  Hot functions (one call per filter step) are
aggregated into a count and a summed duration instead of one span each.
``restore`` puts every original back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Recorder.spans, -1 for a root
    aggregated_child_s: float = 0.0  # time in aggregated calls made inside this span


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0


@dataclass
class Recorder:
    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    aggregates: dict[str, Aggregate] = field(default_factory=dict)
    counters: dict[str, dict] = field(default_factory=dict)  # per span name, filled by observers
    absent: list[str] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)
    _patches: list[tuple] = field(default_factory=list)

    def wrap(self, modules, home, attr: str, name: str, *, aggregate=None, observe=None) -> None:
        """Time every call to ``home.attr`` made through any binding in ``modules``.

        ``aggregate(args)``, when given, makes the call an aggregated one and
        returns the aggregate's name.  ``observe(counters, args, kwargs,
        result)`` may add counts for a span to ``self.counters[name]``.  A
        function that no longer exists is listed in ``absent``.
        """
        original = getattr(home, attr, None)
        if not callable(original):
            self.absent.append(name)
            return
        if aggregate is not None:
            wrapper = self._aggregated(original, aggregate)
        else:
            wrapper = self._spanned(original, name, self.counters.setdefault(name, {}), observe)
        for module in modules:
            for binding, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, binding, original))
                    setattr(module, binding, wrapper)

    def restore(self) -> None:
        for module, binding, original in reversed(self._patches):
            setattr(module, binding, original)
        self._patches.clear()

    def _spanned(self, original, name, counters, observe):
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._open[-1] if self._open else -1)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = self.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return wrapper

    def _aggregated(self, original, aggregate):
        def wrapper(*args, **kwargs):
            t0 = self.clock()
            try:
                return original(*args, **kwargs)
            finally:
                dt = self.clock() - t0
                agg = self.aggregates.get(key := aggregate(args))
                if agg is None:
                    agg = self.aggregates[key] = Aggregate()
                agg.calls += 1
                agg.total_s += dt
                if self._open:
                    self.spans[self._open[-1]].aggregated_child_s += dt

        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans and aggregated calls cover."""
    own = [s.end - s.start - s.aggregated_child_s for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, summed self time, and every inclusive duration."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["self_s"] += own
        row["durations"].append(span.end - span.start)
    return out
