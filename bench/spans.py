"""In-memory span tracer that wraps aprid's public names from outside.

A :class:`Tracer` replaces a callable where its callers look it up (a module
global such as ``aprid.solvers.clip_gradient``, or a method on a class such
as ``ErgodicAverager.push``) by a wrapper that records one span per call:
name, start, end and the span that was open when the call began. Nothing in
``src/`` changes, and :meth:`Tracer.restore` puts every original back.

Spans are kept in flat arrays, so a traced run of ~10^5 steps stays a few MB,
and are written out once at the end (:meth:`Tracer.save`). A span's self time
is its duration minus the durations of its direct child spans.

A wrapper may also take a *measure*: a function ``measure(counts, args,
result)`` run after the call returns, which adds work counts (elements
touched, bytes written) to ``Tracer.counts`` where the work is done. It runs
after the span has ended, so its small cost lands in the parent's self time.
"""

import time
from array import array

import numpy as np

__all__ = ["Tracer", "SpanTable"]


class Tracer:
    """Records spans of the wrapped callables between install and restore."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = [-1]
        self._patched = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def wrap(self, owner, attr, span, measure=None):
        """Replace ``owner.attr`` (a plain function in ``owner``'s namespace)
        by a span-recording wrapper named ``span``."""
        original = vars(owner)[attr]
        sid = self._span_id(span)
        stack, counts = self._stack, self.counts
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if measure is not None:
                measure(counts, args, result)
            return result

        self._patch(owner, attr, original, traced)

    def count_calls(self, owner, attr, counter, under):
        """Replace ``owner.attr`` by a wrapper that records no span and adds
        one to ``counts[counter]`` for each call made directly inside a span
        named ``under``."""
        original = vars(owner)[attr]
        uid = self._span_id(under)
        stack, counts, name_id = self._stack, self.counts, self.name_id

        def counted(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == uid:
                counts[counter] = counts.get(counter, 0) + 1
            return original(*args, **kwargs)

        self._patch(owner, attr, original, counted)

    def _span_id(self, span):
        sid = self._ids.setdefault(span, len(self.names))
        if sid == len(self.names):
            self.names.append(span)
        return sid

    def _patch(self, owner, attr, original, wrapper):
        if not callable(original) or isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr} is not a plain function")
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def restore(self):
        """Put back every wrapped name, newest first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def unrestored(self):
        """Wrapped names that do not hold their original object now."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patched
                if vars(owner).get(attr) is not original]

    def table(self):
        return SpanTable(self.names, np.frombuffer(self.name_id, dtype=np.int32),
                         np.frombuffer(self.parent, dtype=np.int32),
                         np.frombuffer(self.start), np.frombuffer(self.end))

    def save(self, path):
        """Write the spans and counts as one ``.npz`` file."""
        t = self.table()
        np.savez(path, names=np.array(self.names), name_id=t.name_id,
                            parent=t.parent, start=t.start, end=t.end,
                            count_names=np.array(sorted(self.counts)),
                            count_values=np.array([self.counts[k] for k in sorted(self.counts)],
                                                  dtype=float))


class SpanTable:
    """Per-name aggregates over one tracer's spans."""

    def __init__(self, names, name_id, parent, start, end):
        self.names = list(names)
        self.name_id = name_id
        self.parent = parent
        self.start = start
        self.end = end
        k = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self.duration = dur
        self.self_time = dur - child
        self._calls = np.bincount(name_id, minlength=k)
        self._self = np.bincount(name_id, weights=self.self_time, minlength=k)
        self._total = np.bincount(name_id, weights=dur, minlength=k)

    def __len__(self):
        return int(self.name_id.size)

    def _id(self, name):
        return self.names.index(name) if name in self.names else None

    def calls(self, name) -> int:
        i = self._id(name)
        return 0 if i is None else int(self._calls[i])

    def self_s(self, name) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self._self[i])

    def total_s(self, name) -> float:
        i = self._id(name)
        return 0.0 if i is None else float(self._total[i])

    def self_per_call(self, name) -> float:
        calls = self.calls(name)
        return self.self_s(name) / calls if calls else 0.0

    def child_total_s(self, parents, children) -> float:
        """Summed duration of spans named in ``children`` whose direct parent
        is a span named in ``parents``."""
        pids = [self._id(n) for n in parents if self._id(n) is not None]
        cids = [self._id(n) for n in children if self._id(n) is not None]
        if not pids or not cids:
            return 0.0
        has_parent = self.parent >= 0
        parent_name = np.full(self.parent.size, -1)
        parent_name[has_parent] = self.name_id[self.parent[has_parent]]
        mask = np.isin(self.name_id, cids) & np.isin(parent_name, pids)
        return float(self.duration[mask].sum())
