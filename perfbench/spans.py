"""In-memory span tracing for the benchmark's traced run.

A ``Tracer`` swaps timing wrappers onto module and class attributes of
``cuetrack`` and puts the original objects back on ``uninstall``. Each
wrapped call records a span: name, start, end, parent span and the number
of autodiff tape nodes built while it ran. Spans stay in memory until the
benchmark writes them out at the end.
"""

from __future__ import annotations

import functools
import gc
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

# span record layout (lists, for cheap in-place updates while a call runs)
NAME, START, END, PARENT, NODES0, NODES1 = range(6)


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` recorded as span ``name``.

    ``name_arg`` takes the span name from that argument of the call
    instead (the STOG layer prefix). ``observe`` receives the tracer, the
    call's bound arguments and its result, to add counts.
    """
    owner: Any
    attr: str
    name: str
    name_arg: str | None = None
    observe: Callable[["Tracer", dict, Any], None] | None = None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.nodes = 0
        self.counts: dict[str, float] = {}
        self.gc_events: list[tuple[float, float, int]] = []
        self.missing: set[str] = set()
        self._originals: list[tuple[Any, str, Any]] = []
        self._gc_start = 0.0

    # -- recording -------------------------------------------------------

    def add(self, key: str, value: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.nodes, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        rec[NODES1] = self.nodes
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as a run phase."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_events.append((self._gc_start, time.perf_counter(),
                                   info["generation"]))

    # -- installing wrappers ------------------------------------------------

    def install(self, targets: list[Target], node_class: type | None = None) -> None:
        """Wrap every target; count ``node_class`` constructions as nodes."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        if node_class is not None:
            self._swap(node_class, "__init__", self._counting_init)
        for t in targets:
            self._swap(t.owner, t.attr, functools.partial(self._timed, t))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Put back every original object, in reverse order of wrapping."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _swap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = vars(owner).get(attr)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _counting_init(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            tracer.nodes += 1
            original(obj, *args, **kwargs)
        return init

    def _timed(self, target: Target, original: Callable) -> Callable:
        tracer = self
        signature = inspect.signature(original)
        needs_args = target.name_arg is not None or target.observe is not None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if needs_args else {}
            name = target.name
            if target.name_arg is not None:
                name = str(bound.get(target.name_arg, name))
            rec = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(rec)
            if target.observe is not None:
                try:
                    target.observe(tracer, bound, result)
                except Exception as exc:  # a changed signature must not stop the run
                    tracer.missing.add(f"{target.name} counts: {exc!r}")
            return result
        return wrapper


# -- analysis --------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered, reach = 0.0, lo
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append((hi - lo) - covered)
    return out


def contexts(spans: list[list], roots: dict[str, str]) -> list[str | None]:
    """Per span: the context of its nearest enclosing span (itself
    included) whose name is a key of ``roots``, or None. Parents are
    recorded before their children."""
    out: list[str | None] = []
    for rec in spans:
        ctx = roots.get(rec[NAME])
        if ctx is None and rec[PARENT] >= 0:
            ctx = out[rec[PARENT]]
        out.append(ctx)
    return out


class Totals:
    """Per-name sums over the spans ``keep`` selects by index."""

    def __init__(self, tracer: Tracer, keep: Callable[[int], bool],
                 selfs: list[float] | None = None):
        selfs = self_times(tracer.spans) if selfs is None else selfs
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.nodes: dict[str, int] = {}
        self.span_count = 0
        for i, rec in enumerate(tracer.spans):
            if not keep(i):
                continue
            name = rec[NAME]
            self.total_s[name] = self.total_s.get(name, 0.0) + rec[END] - rec[START]
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[i]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.nodes[name] = self.nodes.get(name, 0) + rec[NODES1] - rec[NODES0]
            self.span_count += 1

    def ms(self, *names: str) -> float:
        return 1000.0 * sum(self.total_s.get(n, 0.0) for n in names)

    def self_ms(self, name: str) -> float:
        return 1000.0 * self.self_s.get(name, 0.0)


def within(tracer: Tracer, rec: list) -> Callable[[int], bool]:
    """Selects the spans that lie inside ``rec``'s interval, ``rec`` too."""
    start, end = rec[START], rec[END]
    return lambda i: tracer.spans[i][START] >= start and tracer.spans[i][END] <= end


def gc_in(tracer: Tracer, rec: list) -> tuple[float, int]:
    """Seconds spent in garbage collection inside ``rec``'s interval, and
    the number of generation-2 collections among them."""
    events = [(a, b, g) for a, b, g in tracer.gc_events
              if a >= rec[START] and b <= rec[END]]
    return sum(b - a for a, b, _ in events), sum(1 for *_, g in events if g == 2)
