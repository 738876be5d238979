"""In-memory span tracer that wraps sck's public functions from outside.

A span records a name, start, end, parent span and op id, plus counts taken
from the wrapped call's result.  Spans stay in memory until the run writes
them out.  Nothing inside sck is changed: ``wrap`` replaces a module or
class attribute, so callers that look the name up at call time get the
traced version, and ``unwrap_all`` puts the originals back.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.op = None

    @contextmanager
    def span(self, name: str, op=None):
        """Open a span; a non-None ``op`` starts a new op id for it and below."""
        if op is not None:
            self.op = op
        rec = {
            "id": len(self.spans), "name": name, "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, label=None, counts=None):
        """Trace every call of ``owner.attr``.  ``label(*args, **kwargs)``
        appends a suffix to the span name; ``counts(result)`` returns a dict
        of counts stored on the span."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            full = name if label is None else f"{name}.{label(*args, **kwargs)}"
            with self.span(full) as rec:
                out = orig(*args, **kwargs)
                if counts is not None:
                    rec["counts"].update(counts(out))
                return out

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def unwrap_all(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    # -- analysis -----------------------------------------------------------

    def children(self, sid: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == sid]

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def self_time(self, sid: int) -> float:
        """Duration minus the part of the span its children cover."""
        span = self.spans[sid]
        covered, reach = 0.0, span["start"]
        for c in sorted(self.children(sid), key=lambda s: s["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.duration(span) - covered

    def additivity_errors(self, tol: float = 1e-6) -> list[str]:
        """Spans whose children's durations plus self time miss the span's
        duration, i.e. children that overlap or leave the parent."""
        errors = []
        for span in self.spans:
            kids = self.children(span["id"])
            if not kids:
                continue
            total = sum(self.duration(c) for c in kids) + self.self_time(span["id"])
            if abs(total - self.duration(span)) > tol:
                errors.append(f"span {span['id']} {span['name']}: children + self "
                              f"{total:.9f} s != {self.duration(span):.9f} s")
        return errors

    def total(self, op, prefix: str):
        """Summed duration of the op's spans whose name starts with prefix,
        counting nested same-prefix spans once; None when there are none."""
        out = None
        for s in self.spans:
            if s["op"] != op or not s["name"].startswith(prefix):
                continue
            parent = s["parent"]
            if parent is not None and self.spans[parent]["name"].startswith(prefix):
                continue
            out = (out or 0.0) + self.duration(s)
        return out

    def find(self, op, name: str) -> list[dict]:
        return [s for s in self.spans if s["op"] == op and s["name"] == name]
