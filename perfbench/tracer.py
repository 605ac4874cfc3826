"""Span timers wrapped around the module attributes the package's callers look up.

A caller that did ``from .dataset import risk_arrays`` looks the name up in
its own module at call time, so the harness's risk-table calls are seen by
wrapping ``rmwtest.harness.risk_arrays``, while ``build_risk_table`` calls
``rmwtest.dataset.risk_arrays``. The tracer swaps a timing wrapper into each
listed attribute on entry and puts the original back on exit; the package's
source is never edited.

Spans are aggregated in memory by (span, parent span), where the parent is
the innermost traced span open when the call started. A span's self time is
its total time minus the time of the spans it directly caused.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Context manager that times calls through a set of module attributes.

    ``spans`` maps a span name to the ``(module, attribute)`` pairs whose
    calls belong to it. ``measures`` maps a span name to a function of the
    call's return value whose results are summed into ``counts``.
    """

    def __init__(self, spans, measures=None):
        self._spans = spans
        self._measures = measures or {}
        self._saved = []
        self._stack = []
        self.stats = defaultdict(lambda: [0, 0.0])  # (span, parent) -> [calls, seconds]
        self.counts = defaultdict(int)

    def __enter__(self):
        try:
            for name, targets in self._spans.items():
                for module, attr in targets:
                    # AttributeError here means a refactor renamed a traced function
                    original = getattr(module, attr)
                    self._saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(name, original))
        except AttributeError:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        stack, stats, counts = self._stack, self.stats, self.counts
        measure = self._measures.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            stack.append(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                entry = stats[(name, parent)]
                entry[0] += 1
                entry[1] += elapsed
            if measure is not None:
                counts[name] += measure(result)
            return result

        return traced

    def names(self):
        return sorted({name for name, _ in self.stats})

    def calls(self, name, parent=None):
        """Calls of ``name``; with ``parent``, only those that span caused."""
        return sum(
            c for (n, p), (c, _) in self.stats.items()
            if n == name and (parent is None or p == parent)
        )

    def total(self, name):
        return sum(s for (n, _), (_, s) in self.stats.items() if n == name)

    def self_time(self, name):
        children = sum(s for (_, p), (_, s) in self.stats.items() if p == name)
        return self.total(name) - children
