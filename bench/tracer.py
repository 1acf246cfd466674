"""Outside-in span tracer: wraps callables on modules or objects, records
one span per call, and restores every wrapped attribute afterwards.

A span is (name, level, parent, start, end, count, request): ``parent`` is
the index of the enclosing traced call (-1 at the root), ``count`` an
optional work count taken from the call's arguments, and ``request`` the
identifier shared by all spans of one traced solve or set-up.
"""

import time
from collections import defaultdict
from dataclasses import dataclass

_MISSING = object()


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0


class Tracer:
    """Records spans around wrapped callables; use as a context manager so
    the wrapped attributes are restored however the traced code exits."""

    def __init__(self, request: int = 0):
        self.request = request
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, level=None, count=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``level`` is a fixed level index or a callable of the call's
        positional arguments; ``count`` is a callable of the same arguments
        returning a work count for the span.
        """
        fn = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            lvl = level(args) if callable(level) else level
            n = count(args) if count is not None else 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, lvl, parent, t0, t1, n, self.request)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, own))

    def restore(self):
        """Put back every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)      # bound method came from the class
            else:
                setattr(owner, attr, own)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def stats(self) -> dict:
        """Per (name, level) calls, total, self time and summed counts.

        Self time is a span's duration minus the durations of its direct
        traced children; calls are sequential, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, lvl, parent, t0, t1, n, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(LayerStats)
        for i, (name, lvl, parent, t0, t1, n, _) in enumerate(self.spans):
            st = out[(name, lvl)]
            st.calls += 1
            st.total_s += t1 - t0
            st.self_s += t1 - t0 - child[i]
            st.count += n
        return dict(out)

    def child_calls(self, name: str, parent_name: str) -> int:
        """Number of ``name`` spans whose direct parent is a ``parent_name`` span."""
        return sum(1 for s in self.spans
                   if s[0] == name and s[2] >= 0
                   and self.spans[s[2]][0] == parent_name)

    def write_csv(self, stream, t_origin: float = 0.0):
        stream.write("request,name,level,parent,start_s,end_s,count\n")
        for name, lvl, parent, t0, t1, n, req in self.spans:
            stream.write(f"{req},{name},{'' if lvl is None else lvl},{parent},"
                         f"{t0 - t_origin:.9f},{t1 - t_origin:.9f},{n}\n")
