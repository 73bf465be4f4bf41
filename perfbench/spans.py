"""In-memory span tracer for the traced benchmark run.

`Tracer.wrap` replaces a library function where its caller looks it up (a
module attribute such as `trifuse.trainer.forward_video`, or a class
attribute such as `Adam.step`) with a wrapper that records one span per
call: name, start, end, parent span and run id. Nothing is wrapped until
`wrap` is called, so the untraced run executes the program unchanged, and
`restore` puts every original back.

A run id names what the spans belong to: `setup-<k>` for the k-th set-up,
`op-<i>` for the i-th measured operation, `warmup`, `memory` or `check`
for untimed work.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = "setup-0"
        self.memory = False  # wrappers made with peak=True measure tracemalloc peaks
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self.run])

    def close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        self.counts[self.run][name] += value

    def wrap(self, owner, attr: str, name: str, peak: bool = False, before=None, after=None) -> None:
        """Record a span named `name` around every call of `owner.attr`.

        `before(args)` runs ahead of the span, inside a `trace.<name>` span of
        its own so that its cost is not charged to any layer; `after(args,
        result)` runs once the span is closed. With `peak` and `self.memory`
        set, the tracemalloc peak inside the call is counted as `<name>_peak_mb`.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                tracer.open(f"trace.{name}")
                before(args)
                tracer.close()
            measure = peak and tracer.memory
            if measure:
                tracemalloc.start()
            tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close()
                if measure:
                    tracer.count(f"{name}_peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
                    tracemalloc.stop()
            if after is not None:
                after(args, result)
            return result

        self._install(owner, attr, original, wrapper)

    def wrap_iteration(self, owner, attr: str, name: str) -> None:
        """Record a span from each item a generator yields until the consumer
        asks for the next one: the body of the caller's loop."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            for item in original(*args, **kwargs):
                tracer.open(name)
                try:
                    yield item
                finally:
                    tracer.close()

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def self_ms(self) -> dict[str, dict[str, float]]:
        """Per run id and span name, milliseconds of self time.

        A span's self time is its duration minus that of its children, found
        through the parent links. Spans of one thread nest without
        overlapping, so the children's durations add up to the part of the
        interval they cover.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, run in self.spans:
            if parent is not None and end is not None:
                child_s[parent] += end - start
        selfs: dict = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if end is not None:
                selfs[run][name] += (end - start - child_s[i]) * 1e3
        return selfs

    def outermost_ms(self, names: set[str]) -> dict[str, float]:
        """Per run id, milliseconds in spans named in `names`; a span nested
        inside another span of the same set is not counted twice."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent, run in self.spans:
            if name not in names or end is None:
                continue
            if parent is not None and self._has_ancestor_in(parent, names):
                continue
            totals[run] += (end - start) * 1e3
        return totals

    def _has_ancestor_in(self, index: int, names: set[str]) -> bool:
        while index is not None:
            if self.spans[index][0] in names:
                return True
            index = self.spans[index][3]
        return False

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, run in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run}) + "\n")
