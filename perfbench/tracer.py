"""In-memory span tracer that wraps library functions from outside the library.

Each wrapper records a span (name, start, end, parent span) and a call count.
Wrapping is tolerant of refactors: a name that is missing, or no longer
callable, is skipped and reports zero calls; hooks that read arguments or
results ignore values whose shape they no longer recognise.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []  # -1 for a top-level span
        self.names: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self.recording = True
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._gc_started = 0.0

    def reset(self) -> None:
        """Drop what was recorded so far; wrappers stay installed."""
        self.starts.clear()
        self.ends.clear()
        self.parents.clear()
        self.names.clear()
        self.calls = defaultdict(int, dict.fromkeys(self.calls, 0))
        self.counters.clear()

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        span: bool = True,
        on_call: Callable[["Tracer", tuple, dict], None] | None = None,
        on_result: Callable[["Tracer", Any], None] | None = None,
    ) -> bool:
        """Replace owner.attr with a recording wrapper; False if it is absent.

        With span=False only calls are counted, for functions called too
        often for a span each.
        """
        self.calls.setdefault(name, 0)
        original = getattr(owner, attr, None)
        if not callable(original):
            return False
        tracer = self

        if span:
            def wrapper(*args, **kwargs):
                if not tracer.recording:
                    return original(*args, **kwargs)
                tracer.calls[name] += 1
                if on_call is not None:
                    _quietly(on_call, tracer, args, kwargs)
                idx = tracer._open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(idx)
                if on_result is not None:
                    _quietly(on_result, tracer, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                if tracer.recording:
                    tracer.calls[name] += 1
                return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)
        return True

    def unwrap_all(self) -> None:
        for owner, attr, previous in reversed(self._undo):
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._undo.clear()

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    # -- the runtime pseudo-layer -------------------------------------------

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections[info["generation"]] += 1

    def start_gc(self) -> None:
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        gc.callbacks.append(self._gc_callback)

    def stop_gc(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    # -- summaries -----------------------------------------------------------

    def totals(self) -> dict[str, tuple[float, float]]:
        """Per span name: (inclusive seconds, self seconds)."""
        n = len(self.names)
        child_s = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child_s[p] += self.ends[i] - self.starts[i]
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            out[self.names[i]][0] += dur
            out[self.names[i]][1] += dur - child_s[i]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def top_level_s(self) -> float:
        return sum(self.ends[i] - self.starts[i] for i in range(len(self.names)) if self.parents[i] < 0)

    def spans(self) -> list[dict]:
        return [
            {"id": i, "name": self.names[i], "start": self.starts[i], "end": self.ends[i], "parent": self.parents[i]}
            for i in range(len(self.names))
        ]


_MISSING = object()


def _quietly(hook: Callable, *args) -> None:
    """Run a measurement hook; a hook that no longer fits the code records nothing."""
    try:
        hook(*args)
    except (TypeError, AttributeError, IndexError, KeyError, ValueError):
        pass
