"""In-memory span tracer that wraps public callables from the outside.

A span is ``(name, start, end, parent, key)``: ``parent`` is the index of
the enclosing span (``-1`` at top level) and ``key`` groups the spans of
one request, step or round.  Spans stay in a list while the workload
runs; :meth:`Tracer.dump` writes them out once it has finished.

The library is never edited: :meth:`Tracer.patch` swaps an attribute
(a bound method on an instance, a module-level function, a class
method) for a timing wrapper and :meth:`Tracer.restore` puts every
original back.  An untraced run never constructs a tracer, so it pays
nothing.
"""

import json
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans = []
        self._stack = []
        self._patched = []

    # -- recording -----------------------------------------------------
    def call(self, name, fn, *args, key=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, key)

    def wrap(self, name, fn, key=None):
        """A callable that runs ``fn`` inside a span called ``name``.

        ``key(*args, **kwargs)``, when given, computes the span's key
        from the call's arguments.
        """
        def traced(*args, **kwargs):
            span_key = key(*args, **kwargs) if key is not None else None
            return self.call(name, fn, *args, key=span_key, **kwargs)
        return traced

    def patch(self, owner, attr, name, key=None):
        """Replace ``owner.attr`` with a traced wrapper until restore().

        ``owner`` is a module, a class or an instance; on an instance
        the wrapper shadows the class's method.
        """
        own = vars(owner)
        self._patched.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), key))

    def restore(self):
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, had_own, value = self._patched.pop()
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------
    def layer_table(self, start=0, stop=None):
        """Per span name: (durations, self times) of spans[start:stop].

        Self time is the span's duration minus the durations of its
        direct children; spans on one thread nest, so children never
        overlap each other.
        """
        spans = self.spans
        stop = len(spans) if stop is None else stop
        child_time = {}
        for name, begin, end, parent, _ in spans[start:stop]:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + end - begin
        table = {}
        for index in range(start, stop):
            name, begin, end, _, _ = spans[index]
            totals, own = table.setdefault(name, ([], []))
            totals.append(end - begin)
            own.append(end - begin - child_time.get(index, 0.0))
        return {name: (np.asarray(totals), np.asarray(own))
                for name, (totals, own) in table.items()}

    def top_level_time(self, start=0, stop=None):
        """Seconds covered by spans[start:stop] that have no parent."""
        return sum(end - begin for _, begin, end, parent, _
                   in self.spans[start:stop] if parent < 0)

    def dump(self, path):
        """Write every span as one JSON list of [name, start, end, parent, key]."""
        with open(path, "w") as handle:
            json.dump([list(span) for span in self.spans], handle)
