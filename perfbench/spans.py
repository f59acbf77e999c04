"""In-memory span tracing from outside the program.

A :class:`Tracer` wraps named callables where their callers bind them
(a class attribute for methods, a module attribute for functions the
caller looks up through its module), records one span per call --
name, start, end, parent, trace id, thread -- into a list, and puts
every original back on :meth:`Tracer.uninstall`.  Nothing inside the
program changes; with no tracer installed the program runs untouched.

Spans nest per thread: a call made while another wrapped call is open
on the same thread becomes its child, and inherits its trace id, so one
request's decode, dispatch and encode share an id.  Self time is a
span's duration minus the part its children cover (``arith.self_time``).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

from arith import self_time


class Tracer:
    def __init__(self) -> None:
        #: Finished spans: (id, name, start, end, parent id or -1,
        #: trace id, thread id).  A root span's trace id is its own id;
        #: its descendants inherit it.
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def wrap(self, target: str, name: str) -> bool:
        """Wrap ``module.path:attr`` or ``module.path:Class.attr``.

        Returns False, wrapping nothing, when the target no longer
        exists: a layer that has been refactored away reports no spans
        rather than stopping the run.
        """
        module_name, _, attr_path = target.partition(":")
        *owners, attr = attr_path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            return False
        if isinstance(original, (staticmethod, classmethod)) \
                or not callable(original):
            raise TypeError("cannot wrap %s: %s" % (target,
                                                    type(original).__name__))
        setattr(owner, attr, self._wrapper(original, name))
        self._patched.append((owner, attr, original))
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrapper(self, function, name: str):
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        thread_id = threading.get_ident

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # next() on a count and list.append are atomic in CPython,
            # so recording takes no lock.
            span_id = next(ids)
            if stack:
                parent, trace_id = stack[-1]
            else:
                parent, trace_id = -1, span_id
            stack.append((span_id, trace_id))
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                spans.append((span_id, name, started, ended, parent,
                              trace_id, thread_id()))

        return traced

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """Span name -> self time in seconds of every finished span.

        A span still open when tracing stopped is left out; its
        finished children keep their own self times.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _id, _name, start, end, parent, _trace, _thread in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        result: dict[str, list[float]] = defaultdict(list)
        for span_id, name, start, end, _parent, _trace, _thread \
                in self.spans:
            result[name].append(
                self_time(start, end, children.get(span_id, ())))
        return result

    def dump(self, path: str) -> int:
        """Write finished spans as JSON lines; returns how many."""
        keys = ("id", "name", "start", "end", "parent", "trace", "thread")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
        return len(self.spans)
