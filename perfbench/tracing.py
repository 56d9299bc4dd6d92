"""Span recording for the traced benchmark run.

The benchmark does not change the program to trace it.  Instead,
:class:`Tracer` replaces public methods of each layer's classes with
wrappers that time every call (the call-wrapper idiom), keeps the spans
in memory, and derives each layer's self time when the run ends:

    self time = span duration - the part of its interval its children cover

Spans nest per thread through a thread-local stack of span ids.  Calls
that fan out to other threads (``ClusterService`` handing work to shard
threads) are linked afterwards: a root span on another thread becomes
the child of the fan-out span whose interval encloses it.  That is
exact for the cluster, because one service thread drives every shard
call.

A span is a tuple of plain values, which the garbage collector stops
tracking, so a long traced run does not slow the collector down.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import inspect
import itertools
import json
import threading
import time
import weakref
from collections import defaultdict

_clock = time.perf_counter

# Span layout.
ID, PARENT, LAYER, NAME, THREAD, T0, T1, META = range(8)

#: Layers whose calls hand work to other threads.
FANOUT_LAYERS = ("cluster",)

#: Layers whose spans nest, outermost first.  The gateway's spans are
#: coroutines that overlap each other, so they get no self time; the
#: benchmark's own loop is no layer: its time is what the layers leave.
LAYERS = (
    "cluster", "serve", "cache", "kernels", "tenants", "scheduler",
    "policy", "engine",
)


class Tracer:
    """Records one span per call into the patched methods."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, name: str, fn, meta=None):
        """``fn`` with a span around every call.  ``meta(args, result)``
        may attach a small value (job ids, batch sizes) to the span."""
        record = self.spans.append
        next_id = self._ids.__next__
        stack_of = self._stack
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next_id()
            parent = stack[-1] if stack else None
            stack.append(sid)
            info = None
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                if meta is not None:
                    info = meta(args, result)
                return result
            finally:
                t1 = _clock()
                stack.pop()
                record((sid, parent, layer, name, get_ident(), t0, t1, info))

        return traced

    def wrap_async(self, layer: str, name: str, fn, meta=None):
        """Coroutine twin of :meth:`wrap`.  Coroutines interleave on one
        thread, so their spans take no part in nesting."""
        record = self.spans.append
        next_id = self._ids.__next__
        get_ident = threading.get_ident

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            sid = next_id()
            info = None
            t0 = _clock()
            try:
                result = await fn(*args, **kwargs)
                if meta is not None:
                    info = meta(args, result)
                return result
            finally:
                record((sid, None, layer, name, get_ident(), t0, _clock(),
                        info))

        return traced

    def patch(self, cls, attr: str, layer: str, *, meta=None,
              name: str | None = None, wrapper=None) -> None:
        """Replace ``cls.attr`` by a traced version (undone by
        :meth:`restore`).  ``wrapper(fn)`` pre-wraps the original."""
        original = cls.__dict__.get(attr)
        fn = getattr(cls, attr)
        if wrapper is not None:
            fn = wrapper(fn)
        make = (
            self.wrap_async if inspect.iscoroutinefunction(fn) else self.wrap
        )
        setattr(cls, attr, make(layer, name or attr, fn, meta))
        self._patched.append((cls, attr, original))

    def traced_plan(self, plan):
        """``plan`` with its task bodies wrapped in ``kernels`` spans."""
        approx = plan.approxfun
        return dataclasses.replace(
            plan,
            fn=self.wrap("kernels", "body", plan.fn),
            approxfun=(
                None if approx is None
                else self.wrap("kernels", "body", approx)
            ),
        )

    def restore(self) -> None:
        for cls, attr, original in reversed(self._patched):
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)
        self._patched.clear()

    def write_jsonl(self, path) -> None:
        """All spans as JSON arrays, one per line:
        ``[id, parent, layer, name, thread, t0_us, t1_us, meta]`` with
        times in microseconds from the first span and threads numbered
        in order of appearance."""
        if not self.spans:
            open(path, "w").close()
            return
        origin = min(span[T0] for span in self.spans)
        threads: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                thread = threads.setdefault(span[THREAD], len(threads))
                out.write(json.dumps([
                    span[ID], span[PARENT], span[LAYER], span[NAME], thread,
                    round((span[T0] - origin) * 1e6, 1),
                    round((span[T1] - origin) * 1e6, 1),
                    span[META],
                ]) + "\n")


def install_program_spans(tracer: Tracer) -> None:
    """Patch the public calls into every layer the workloads reach.

    Imports happen here, after the caller has put the program on
    ``sys.path``.
    """
    from repro.cluster.cache import CacheView
    from repro.cluster.service import ClusterService
    from repro.runtime.engine import SimulatedEngine
    from repro.runtime.policies.gtb import GlobalTaskBuffering
    from repro.runtime.policies.lqh import LocalQueueHistory
    from repro.runtime.scheduler import Scheduler
    from repro.serve.cache import ApproxResultCache
    from repro.serve.kernels import (
        DctServable, FluidanimateServable, JacobiServable,
        KmeansServable, MonteCarloPiServable, SobelServable,
    )
    from repro.serve.server import ServeServer, TaskService
    from repro.serve.tenants import TenantState

    def job_of_response(args, result):
        job = result.get("job") if isinstance(result, dict) else None
        return job.get("job_id") if isinstance(job, dict) else None

    def job_of_request(args, result):
        return getattr(args[1], "job_id", None)

    def jobs_of_reports(args, result):
        return tuple(r.job_id for r in result)

    # Services of successive campaigns may reuse one id(); number them.
    service_keys = weakref.WeakKeyDictionary()

    def service_of(args, result):
        return service_keys.setdefault(args[0], len(service_keys))

    tracer.patch(ServeServer, "_dispatch", "gateway", meta=job_of_response,
                 name="dispatch")
    for attr in ("submit", "submit_anytime"):
        tracer.patch(ClusterService, attr, "cluster", meta=job_of_request)
    tracer.patch(ClusterService, "flush", "cluster", meta=jobs_of_reports)
    for attr in ("__init__", "submit", "submit_anytime", "close"):
        tracer.patch(TaskService, attr, "serve")
    tracer.patch(TaskService, "flush", "serve", meta=service_of)
    for cls in (ApproxResultCache, CacheView):
        for attr in ("get", "get_degraded", "put"):
            tracer.patch(cls, attr, "cache",
                         name="put" if attr == "put" else "get")
    plan_bodies = (
        lambda fn: lambda self, *a, **k: tracer.traced_plan(fn(self, *a, **k))
    )
    for cls in (SobelServable, DctServable, MonteCarloPiServable,
                JacobiServable, KmeansServable, FluidanimateServable):
        tracer.patch(cls, "plan", "kernels", wrapper=plan_bodies)
        for attr in ("combine", "reference", "quality"):
            tracer.patch(cls, attr, "kernels")
        if "anytime_plan" in dir(cls):
            tracer.patch(cls, "anytime_plan", "kernels", name="plan",
                         wrapper=plan_bodies)
            tracer.patch(cls, "anytime_update", "kernels", name="combine")
            tracer.patch(cls, "anytime_reference", "kernels",
                         name="reference")
    tracer.patch(TenantState, "steer", "tenants")
    for attr in ("__init__", "init_group", "finish"):
        tracer.patch(Scheduler, attr, "scheduler")
    tracer.patch(Scheduler, "spawn", "scheduler")
    tracer.patch(Scheduler, "spawn_many", "scheduler",
                 meta=lambda args, result: len(result))
    tracer.patch(Scheduler, "taskwait", "scheduler")
    for cls in (GlobalTaskBuffering, LocalQueueHistory):
        for attr in ("on_spawn", "on_spawn_many", "on_barrier", "decide"):
            tracer.patch(cls, attr, "policy")
    for attr in ("enqueue_many", "run_until"):
        tracer.patch(SimulatedEngine, attr, "engine")


# ----------------------------------------------------------------------
# Deriving self times
# ----------------------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def parents(spans: list[tuple]) -> dict[int, int | None]:
    """``span id -> parent id``, with each other-thread root span
    parented under the fan-out span that encloses it."""
    parent = {span[ID]: span[PARENT] for span in spans}
    fan = sorted(
        (span for span in spans if span[LAYER] in FANOUT_LAYERS),
        key=lambda span: span[T0],
    )
    starts = [span[T0] for span in fan]
    for span in spans:
        if span[PARENT] is not None or span[LAYER] in ("gateway",) + (
            FANOUT_LAYERS
        ):
            continue
        # Fan-out calls are serialized on one thread, so the enclosing
        # one (if any) is the latest to start before this span.
        i = bisect.bisect_right(starts, span[T0]) - 1
        if i >= 0:
            cand = fan[i]
            if cand[THREAD] != span[THREAD] and cand[T1] >= span[T1]:
                parent[span[ID]] = cand[ID]
    return parent


def self_times(spans: list[tuple], parent: dict) -> dict[int, float]:
    """``span id -> self seconds``."""
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        up = parent[span[ID]]
        if up is not None:
            children[up].append((span[T0], span[T1]))
    return {
        span[ID]: (span[T1] - span[T0])
        - _union_length(children.get(span[ID], []))
        for span in spans
    }


def layer_self_seconds(spans: list[tuple], own: dict) -> dict[str, float]:
    """Summed self time per nesting layer."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        if span[LAYER] in totals:
            totals[span[LAYER]] += own[span[ID]]
    return totals


def outermost(candidates: list[tuple], parent: dict,
              layer_of: dict) -> list[tuple]:
    """The candidates with no ancestor in their own layer: one span per
    call into the layer, whatever it calls back into itself."""
    out = []
    for span in candidates:
        up = parent[span[ID]]
        while up is not None and layer_of[up] != span[LAYER]:
            up = parent[up]
        if up is None:
            out.append(span)
    return out


def mean_duration(spans: list[tuple]) -> float:
    if not spans:
        return 0.0
    return sum(span[T1] - span[T0] for span in spans) / len(spans)
