"""In-memory span tracer built by patching the package's public functions.

A name is patched in the module that calls it (for example
``multigrain.train.encode``), so a span covers exactly the calls made
through that module. Spans are kept in a list while the run lasts and are
written out at the end; nothing is printed or written while timing.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "phase")

    def __init__(self, name, start, parent, request, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.phase = phase


class Patches:
    """Module attributes replaced by wrappers, restored on close()."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make_wrapper):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def close(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class StepProbe:
    """Times each train step, ending it after `adam_step`.

    This is the one probe the untraced run carries; the traced run uses it
    too, so both runs time steps the same way. The steps are units of a
    speed.RefClock: begin() starts the first one, each adam_step ends one
    and starts the next, and end() ends the last, which holds what
    train_loop does after its last step.
    """

    def __init__(self):
        self.clock = None
        self.steps: list[int] = []  # the clock's unit id of each step
        self.on_step = None  # called after each step, e.g. to advance a request id

    def install(self, patches: Patches, train_module):
        def make(adam_step):
            def wrapper(*args, **kwargs):
                out = adam_step(*args, **kwargs)
                self.steps.append(self.clock.stop())
                if self.on_step is not None:
                    self.on_step(len(self.steps))
                self.clock.start()
                return out

            return wrapper

        patches.replace(train_module, "adam_step", make)

    def begin(self, clock):
        self.clock = clock
        self.steps = []
        clock.start(fresh=True)

    def end(self) -> int:
        return self.clock.stop()


class Tracer:
    """Records spans (name, start, end, parent, request id, phase) and counts.

    A span opened with no span open is a root; its name is the phase of
    every span below it. Layer wrappers exist only while tracing; the
    benchmark's own spans are no-ops unless `enabled` is set.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.request = None
        self.enabled = False
        self._stack: list[int] = []

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        phase = self.spans[parent].phase if parent is not None else name
        self.spans.append(Span(name, time.perf_counter(), parent, self.request, phase))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own call into a layer."""
        if not self.enabled:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, patches: Patches, module, attr, name, count=None):
        """Patch module.attr so that each call records a span.

        `name` is a span name or a function of the call's arguments.
        `count(counts, result, *args, **kwargs)` adds to the counts after
        the call returns.
        """

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = self._open(name if isinstance(name, str) else name(*args, **kwargs))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(idx)
                if count is not None:
                    count(self.counts, result, *args, **kwargs)
                return result

            return wrapper

        patches.replace(module, attr, make)

    def hook(self, patches: Patches, module, attr, count):
        """Patch module.attr to add counts only, without a span."""

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(self.counts, result, *args, **kwargs)
                return result

            return wrapper

        patches.replace(module, attr, make)

    def write(self, path, meta: dict):
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "parent": s.parent,
                    "request": s.request,
                    "phase": s.phase,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part its child spans cover.

    Raises if a child is not inside its parent's interval, since the
    subtraction is only valid for properly nested spans.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start or s.end > p.end:
                raise AssertionError(f"span {s.name} is not nested inside {p.name}")
            covered[s.parent] += s.end - s.start
    return [(s.end - s.start) - c for s, c in zip(spans, covered)]
