"""The traced run: wrappers around the program's layers, installed from outside.

Nothing here edits the program.  :func:`install` replaces public
functions and methods of ``repro`` with wrappers that record into a
:class:`SpanStore`; :meth:`Instrumentation.restore` puts the originals
back.

* A span is ``(name, start, end, self_s, request, pid)``.  Its self
  time is its duration minus the time of the wrapped calls nested in
  it; wrappers nest strictly on one thread's call stack, so the
  children never overlap and their union is their sum.
* ``Channel.feedback_for``, ``BatchKernel._process_tick`` and the
  ``ProbeBus`` subscriber callbacks run once per event, too often for a
  span each: they are only counted, and their time stays in the self
  time of the innermost open span.  A ``stop_when`` predicate is timed
  without a span record, so its time is a metric of its own.
* Forked pool workers inherit the wrappers.  After a fork the store
  drops what it inherited and appends each finished root span, with the
  counts made under it, to ``<spool>/spans-<pid>.jsonl``, because
  workers exit without cleanup.  The ``repro serve`` launcher spools
  the same way.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import pathlib
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, float, float, float, int, int]


class SpanStore:
    """Spans, self-time totals and counts of one process."""

    def __init__(self, spool: Optional[pathlib.Path] = None, *,
                 spooling: bool = False) -> None:
        self.spool = spool
        self.spooling = spooling
        #: Request id stamped on spans; run.py sets it before each request.
        self.request = 0
        #: Number each root span as a new request (the daemon's view).
        self.auto_request = spooling
        self.spans: List[Span] = []
        self.totals: Dict[str, List[float]] = {}
        self.counts: collections.Counter = collections.Counter()
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._after_fork)

    def reset(self) -> None:
        """Forget everything recorded so far (in place: wrappers hold these)."""
        self.spans.clear()
        self.totals.clear()
        self.counts.clear()
        self._local = threading.local()

    def _after_fork(self) -> None:
        if self.spool is not None:
            self.reset()
            self.spooling = True

    def stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def close(self, name: str, start: float, end: float, self_s: float,
              root: bool, keep: bool) -> None:
        total = self.totals.get(name)
        if total is None:
            self.totals[name] = [self_s, 1]
        else:
            total[0] += self_s
            total[1] += 1
        if keep:
            self.spans.append(
                (name, start, end, self_s, self.request, os.getpid())
            )
        if root and self.spooling:
            self.flush()

    def flush(self) -> None:
        """Append what this process recorded since the last flush."""
        if not (self.spans or self.totals or self.counts):
            return
        record = {"spans": self.spans, "totals": self.totals,
                  "counts": dict(self.counts)}
        path = self.spool / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
        self.spans.clear()
        self.totals.clear()
        self.counts.clear()

    def merged(self) -> "Recorded":
        """This process's records plus every spool file."""
        out = Recorded(list(self.spans),
                       {k: list(v) for k, v in self.totals.items()},
                       collections.Counter(self.counts))
        if self.spool is not None and self.spool.is_dir():
            for path in sorted(self.spool.glob("spans-*.jsonl")):
                for line in path.read_text(encoding="utf-8").splitlines():
                    record = json.loads(line)
                    out.spans.extend(tuple(span) for span in record["spans"])
                    for name, (self_s, calls) in record["totals"].items():
                        total = out.totals.setdefault(name, [0.0, 0])
                        total[0] += self_s
                        total[1] += calls
                    out.counts.update(record["counts"])
        return out


class Recorded:
    """Everything one traced round recorded, across processes."""

    def __init__(self, spans, totals, counts) -> None:
        self.spans: List[Span] = spans
        self.totals: Dict[str, List[float]] = totals
        self.counts: collections.Counter = counts

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0.0, 0))[0]

    def calls(self, name: str) -> int:
        return int(self.totals.get(name, (0.0, 0))[1])

    def durations(self, name: str) -> List[Tuple[float, float]]:
        return [(s[1], s[2]) for s in self.spans if s[0] == name]


class Instrumentation:
    """Installs wrappers on ``repro`` and removes them again."""

    def __init__(self, store: SpanStore) -> None:
        self.store = store
        #: Targets that this version of the program does not have.
        self.missing: List[str] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- wrapper factories ----------------------------------------------

    def span(self, name: str, fn: Callable, *, keep: bool = True,
             before=None, after=None) -> Callable:
        """``fn`` recording a span; ``before``/``after`` see args and result."""
        store = self.store

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = store.stack()
            if not stack and store.auto_request:
                store.request += 1
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                store.close(name, frame[0], end, duration - frame[1],
                            not stack, keep)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.store.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------

    @staticmethod
    def _module(module: str):
        """The module, or None when this version of the program lacks it."""
        try:
            return importlib.import_module(module)
        except ImportError:
            return None

    def method(self, module: str, cls: str, attr: str, make) -> None:
        owner = getattr(self._module(module), cls, None)
        original = None if owner is None else owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{module}.{cls}.{attr}")
            return
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def subclass_methods(self, module: str, base: str, attr: str,
                         make) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass defining it."""
        root = getattr(self._module(module), base, None)
        if root is None:
            self.missing.append(f"{module}.{base}")
            return
        pending, seen = [root], set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            original = cls.__dict__.get(attr)
            if callable(original):
                setattr(cls, attr, make(original))
                self._undo.append((cls, attr, original))

    def function(self, module: str, attr: str, make) -> None:
        """Wrap a module function wherever ``repro`` imported it by name."""
        original = getattr(self._module(module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class _CountingStream:
    """An artifact stream that counts the lines and bytes written through it."""

    def __init__(self, inner, counts) -> None:
        self._inner = inner
        self._counts = counts

    def write(self, text: str) -> int:
        self._counts["obs.artifacts.lines"] += text.count("\n")
        # Records are ``json.dumps`` output, which escapes to ASCII.
        self._counts["obs.artifacts.bytes"] += len(text)
        return self._inner.write(text)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


def install(store: SpanStore) -> Instrumentation:
    """Wrap every layer the per-layer metrics name."""
    inst = Instrumentation(store)
    counts = store.counts
    span = inst.span

    # scenarios
    def count_stations(args, out):
        counts["scenarios.stations"] += args[0].n

    inst.method("repro.scenarios.spec", "ScenarioSpec", "build_fleet",
                lambda fn: span("scenarios.build_fleet", fn,
                                after=count_stations))
    inst.method("repro.scenarios.spec", "ScenarioSpec", "build",
                lambda fn: span("scenarios.build", fn))

    # core.simulator: events are counted once per outermost run of a sim
    running = set()

    def time_stop_when(args, kwargs):
        if len(args) >= 4 and args[3] is not None:
            args = args[:3] + (span("core.simulator.stop_when", args[3],
                                    keep=False),) + args[4:]
        elif kwargs.get("stop_when") is not None:
            kwargs = dict(kwargs)
            kwargs["stop_when"] = span("core.simulator.stop_when",
                                       kwargs["stop_when"], keep=False)
        return args, kwargs

    def sim_run(fn):
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            if id(self) in running:
                return fn(self, *args, **kwargs)
            running.add(id(self))
            before = self.events_processed
            try:
                return fn(self, *args, **kwargs)
            finally:
                running.discard(id(self))
                counts["core.simulator.events"] += (
                    self.events_processed - before
                )
        return span("core.simulator.run", run, before=time_stop_when)

    inst.method("repro.core.simulator", "Simulator", "__init__",
                lambda fn: span("core.simulator.init", fn))
    inst.method("repro.core.simulator", "Simulator", "run", sim_run)
    inst.method("repro.core.simulator", "Simulator", "run_until_success",
                sim_run)

    # core.batch
    def kernel_run(fn):
        @functools.wraps(fn)
        def run(self, *args, **kwargs):
            before = self.sim.events_processed
            try:
                return fn(self, *args, **kwargs)
            finally:
                counts["core.batch.kernel_calls"] += 1
                counts["core.batch.events"] += (
                    self.sim.events_processed - before
                )
        return span("core.batch.kernel", run)

    inst.method("repro.core.batch", "BatchKernel", "run", kernel_run)
    inst.method("repro.core.batch", "BatchKernel", "_load",
                lambda fn: span("core.batch.program_load", fn))
    inst.method("repro.core.batch", "BatchKernel", "_store",
                lambda fn: span("core.batch.program_store", fn))
    inst.method("repro.core.batch", "BatchKernel", "_process_tick",
                lambda fn: inst.counted("core.batch.ticks", fn))
    inst._module("repro.core.batch_adaptive")  # registers adaptive programs
    inst.subclass_methods("repro.core.batch", "AlgorithmProgram", "step",
                          lambda fn: span("core.batch.program_step", fn))
    inst.subclass_methods("repro.core.batch", "ScheduleProgram", "lengths",
                          lambda fn: span("core.batch.schedule_lengths", fn))

    # core.channel
    inst.method("repro.core.channel", "Channel", "begin_transmission",
                lambda fn: span("core.channel.begin", fn))
    inst.method("repro.core.channel", "Channel", "feedback_for",
                lambda fn: inst.counted("core.channel.feedback_calls", fn))
    inst.method("repro.core.channel", "Channel", "drain_all",
                lambda fn: span("core.channel.drain", fn))

    # analysis
    inst.function("repro.analysis.metrics", "collect_metrics",
                  lambda fn: span("analysis.collect_metrics", fn))
    inst.function("repro.analysis.stability", "assess_stability",
                  lambda fn: span("analysis.assess_stability", fn))
    inst.function("repro.analysis.experiments", "run_grid_report",
                  lambda fn: span("analysis.grid", fn))

    # exec
    inst.function("repro.analysis.experiments", "_execute_cell",
                  lambda fn: span("exec.pool.task", fn))
    inst.function("repro.exec.pool", "run_tasks",
                  lambda fn: span("exec.pool", fn))
    miss = getattr(inst._module("repro.exec.cache"), "MISS", None)

    def count_hit(args, out):
        counts["exec.cache.gets"] += 1
        if out is not miss:
            counts["exec.cache.hits"] += 1

    inst.method("repro.exec.cache", "ResultCache", "get",
                lambda fn: span("exec.cache.get", fn, after=count_hit))
    inst.method("repro.exec.cache", "ResultCache", "put",
                lambda fn: span("exec.cache.put", fn))

    # obs
    inst.function("repro.obs.history", "record_completion",
                  lambda fn: span("obs.history.record", fn))

    def subscribe(fn):
        @functools.wraps(fn)
        def wrapper(self, event, callback):
            return fn(self, event, inst.counted("obs.probes.emits", callback))
        return wrapper

    inst.method("repro.obs.probes", "ProbeBus", "subscribe", subscribe)

    def writer_init(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            if getattr(self, "_stream", None) is not None:
                self._stream = _CountingStream(self._stream, counts)
        return wrapper

    inst.method("repro.obs.artifacts", "JsonlRunWriter", "__init__",
                writer_init)
    inst.method("repro.obs.artifacts", "JsonlRunWriter", "close",
                lambda fn: span("obs.artifacts.close", fn))

    # service
    inst.function("repro.service.runner", "execute",
                  lambda fn: span("service.runner.execute", fn))
    inst.method("repro.service.server", "ServiceHandler", "do_POST",
                lambda fn: span("service.server.request", fn))
    return inst
