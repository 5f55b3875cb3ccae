"""In-memory spans around the benchmark's calls into each mpst module.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory during the run and are written out as JSON lines when it
ends.  A layer's self time is the duration of its spans minus the part of
that interval their child spans cover.
"""

import contextlib
import json
from array import array
from collections import defaultdict
from time import perf_counter

_NULL = contextlib.nullcontext()


class NullTracer:
    """Used for untraced runs: every span is the same no-op context."""

    op = 0

    def span(self, name):
        return _NULL


class Tracer:
    """Spans in flat arrays: a list of container objects would make every
    garbage collection walk them and slow the code being measured."""

    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")   # index of the enclosing span, or -1
        self.ops = array("q")
        self._open = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(perf_counter())
        try:
            yield
        finally:
            self.ends[index] = perf_counter()
            self._open.pop()

    def self_times(self):
        """Total self time in seconds per span name."""
        covered = [0.0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(float)
        for name, start, end, inner in zip(self.names, self.starts,
                                           self.ends, covered):
            totals[name] += end - start - inner
        return totals

    def write(self, path):
        with open(path, "w") as f:
            for row in zip(self.names, self.starts, self.ends, self.parents,
                           self.ops):
                f.write(json.dumps(dict(zip(
                    ("name", "start", "end", "parent", "op"), row))) + "\n")
