"""Out-of-program tracing: spans around calls into each plotburn layer.

The tracer rebinds the names through which the pipeline, the CV loop and
the feature builder reach each layer's public functions, records one span
(name, start, end, parent) per call plus counts taken from the arguments
and results, and puts every original binding back on restore. Nothing in
the program is edited; the spans live in memory until the run ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# Span-name prefix -> layer. A span name is "<layer>.<what>".
LAYERS = ("pipeline", "synth", "gridio", "resample", "scene", "indices",
          "features", "separability", "forest", "cv", "thresholds")

# Allowed gap between the summed self times and the externally timed run:
# wrapper bookkeeping outside the spans, as a share of the run plus a floor.
SELF_SUM_SLACK_FRAC = 0.01
SELF_SUM_SLACK_S = 0.005


class TraceError(AssertionError):
    """A tracer self-check failed."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent_index]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise TraceError(f"span {self.spans[idx][0]} closed out of order")

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Rebind module.attr to a traced version; count(counts, args, kwargs, result)."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = tracer.call(name, original, *args, **kwargs)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def replace(self, module, attr: str, value) -> None:
        """Rebind module.attr to value, restored like a wrapped name."""
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        for module, attr, original in self._saved:
            if getattr(module, attr) is not original:
                raise TraceError(f"{module.__name__}.{attr} was not restored")
        self._saved.clear()

    # -- analysis ------------------------------------------------------
    def durations(self) -> list[float]:
        return [end - start for _, start, end, _ in self.spans]

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        durations = self.durations()
        out = list(durations)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                out[parent] -= durations[i]
        return out

    def inclusive(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (name, *_), dur in zip(self.spans, self.durations()):
            out[name] += dur
        return out

    def exclusive(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[name] += own
        return out

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, own in self.exclusive().items():
            out[name.split(".", 1)[0]] += own
        return out

    def check(self, measured_s: float) -> None:
        """Spans closed and nested, siblings disjoint, self times sum to the run."""
        if self._stack:
            raise TraceError(f"{len(self._stack)} span(s) left open")
        roots = [i for i, s in enumerate(self.spans) if s[3] is None]
        if len(roots) != 1:
            raise TraceError(f"expected one root span, found {len(roots)}")
        last_child_end: dict[int | None, float] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None or end < start:
                raise TraceError(f"span {name} has no valid end")
            if parent is not None:
                _, p_start, p_end, _ = self.spans[parent]
                if not (p_start <= start and end <= p_end):
                    raise TraceError(f"span {name} lies outside its parent")
            if start < last_child_end.get(parent, start):
                raise TraceError(f"span {name} overlaps its previous sibling")
            last_child_end[parent] = end
        total = sum(self.layer_self().values())
        slack = SELF_SUM_SLACK_FRAC * measured_s + SELF_SUM_SLACK_S
        if abs(total - measured_s) > slack:
            raise TraceError(f"layer self times sum to {total:.4f} s, "
                             f"run took {measured_s:.4f} s (slack {slack:.4f} s)")
