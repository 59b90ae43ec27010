"""Spans recorded from outside kas3, around each call the benchmark makes.

A span is (name, start, end, parent, job): `name` is `<module>.<function>`,
`parent` is the index of the enclosing span or -1, and `job` identifies the
job the call belongs to. Spans stay in memory and are written out once, when
the run ends. With tracing off, `Tracer.call` records nothing and only notes
which call an escaping exception came from, so failures can be tallied by
layer in both modes.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = None
        self.spans: list = []
        self._stack: list[int] = []
        self.failed_calls: Counter = Counter()
        self._last_failure = None

    def call(self, name: str, fn, *args, **kwargs):
        """Call `fn` as a call into layer `name`."""
        if not self.enabled:
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._note_failure(name, exc)
                raise
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._note_failure(name, exc)
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.job)

    def _note_failure(self, name: str, exc: BaseException) -> None:
        self.failed_calls[name] += 1
        if self._last_failure is None or self._last_failure[0] is not exc:
            self._last_failure = (exc, name)

    def failure_site(self, exc: BaseException) -> str:
        """Innermost call the exception escaped from; forgets the exception."""
        last, self._last_failure = self._last_failure, None
        if last is not None and last[0] is exc:
            return last[1]
        return "bench"

    @contextlib.contextmanager
    def active(self, patches=()):
        """Trace inside the block; `patches` are (module, attribute, span name)
        triples whose module attributes are wrapped for its duration, so calls
        kas3 makes between its own modules get spans too."""
        saved = []
        for module, attr, span_name in patches:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))
        self.enabled = True
        try:
            yield
        finally:
            self.enabled = False
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus covered child time."""
        child_time = defaultdict(float)
        for name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent, _job) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return dict(totals)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps([name, start, end, parent, job]) + "\n")
