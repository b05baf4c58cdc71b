"""Outside-in layer spans for the perf ledger.

The benchmark never edits the program to time it.  Instead
:func:`install` rebinds each layer's public functions — in *every*
``repro`` module that holds a reference to them, since ``from x import
f`` copies the binding — to a wrapper that records a span:
``(id, metric, label, pid, start, end, parent, op, attrs)``.

Spans live in memory.  Pool workers are forked from the traced process,
so they inherit the wrappers and the open span stack (their spans point
at the parent's ``execute_tasks`` span); each worker writes its spans to
``spans-<pid>.jsonl`` in the spool directory when it exits, and
:meth:`Recorder.collect` merges those files back.

A layer's time is *self* time: a span's duration minus the part of it
that its child spans cover, summed over the layer's spans.  Children in
pool workers count as children of the dispatching span, so the
dispatcher's self time is the part of the pass no worker was busy.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: (metric, defining module, qualified name) of every wrapped function.
#: The metric is the layer's self-time name in the ledger's output.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.self_s", "repro.cli", "main"),
    ("api.session_self_s", "repro.api.session", "Session.run"),
    ("api.validate_s", "repro.api.requests", "Request.validate"),
    ("api.lower_s", "repro.api.session", "Session._lower"),
    ("runtime.dispatch_self_s", "repro.runtime.executor", "execute_tasks"),
    ("runtime.evaluate_self_s", "repro.runtime.executor", "evaluate_task"),
    ("runtime.cache_get_s", "repro.runtime.cache", "ResultCache.get"),
    ("runtime.cache_put_s", "repro.runtime.cache", "ResultCache.put"),
    ("runtime.codec_s", "repro.runtime.cache", "encode_result"),
    ("runtime.codec_s", "repro.runtime.cache", "decode_result"),
    ("runtime.registry_s", "repro.runtime.registry", "RunRegistry.record"),
    ("workloads.scenario_s", "repro.workloads.scenario", "scenario_from_model"),
    ("model.estimate_s", "repro.model.scenario", "analytical_scenario"),
    ("experiments.report_self_s", "repro.experiments.report", "full_report"),
    ("simulator.build_s", "repro.simulator.pipeline", "build_scenario_tasks"),
    ("simulator.build_s", "repro.simulator.pipeline", "build_tasks"),
    ("simulator.lower_dram_s", "repro.simulator.engine", "lower_dram"),
    ("simulator.fold_s", "repro.simulator.pipeline", "fold_scenario"),
    ("simulator.schedule_init_s", "repro.simulator.engine", "Simulator.__init__"),
    ("simulator.schedule_unfolded_s", "repro.simulator.engine", "Simulator.run"),
    ("simulator.schedule_folded_s", "repro.simulator.vector", "run_folded"),
    ("cluster.build_s", "repro.cluster.build", "build_cluster_tasks"),
    ("cluster.fold_s", "repro.cluster.build", "fold_cluster"),
    ("cluster.schedule_s", "repro.cluster.build", "schedule_cluster_tasks"),
    ("serving.build_s", "repro.serving.simulator", "build_serving_tasks"),
    ("serving.metrics_s", "repro.serving.simulator", "simulate_serving"),
)

#: Labels (``module:qualname``) of every wrapper, in TARGETS order.
LABELS: Tuple[str, ...] = tuple(f"{module}:{name}" for _, module, name in TARGETS)

#: Self-time metrics summed into ``simulator.schedule_s``.
#: ``Simulator.run`` schedules a whole unfolded graph with whichever
#: engine it was given (``run_vectorized`` is not wrapped on its own:
#: no workload schedules an unfolded graph on the vector engine, so its
#: span would never fire); ``run_folded`` schedules a folded scenario.
SCHEDULE_METRICS = (
    "simulator.schedule_init_s",
    "simulator.schedule_unfolded_s",
    "simulator.schedule_folded_s",
)

#: Layers whose spans each produce one whole task graph.
_GRAPH_BUILDERS = ("simulator.build_s", "cluster.build_s", "serving.build_s")

#: Count and ratio metrics derived from span attributes.
#: ``tasks_built`` counts the tasks of whole graphs (outermost builds);
#: ``tasks_built_unscheduled`` those of whole graphs no scheduler was
#: handed; ``dram_tasks`` the transfers ``lower_dram`` emitted, summed
#: over its calls — the builders lower one template per phase and copy
#: it per instance, so this counts template lowerings, not the
#: transfers of the scheduled graph.
COUNT_METRICS = (
    ("runtime.worker_busy_frac", "ratio"),
    ("runtime.cache_hits", "count"),
    ("runtime.cache_misses", "count"),
    ("runtime.hit_ratio", "ratio"),
    ("simulator.tasks_built", "count"),
    ("simulator.tasks_built_unscheduled", "count"),
    ("simulator.dram_tasks", "count"),
    ("simulator.replayed_ratio", "ratio"),
    ("serving.tasks_per_request", "count"),
)

#: Unit of every metric :func:`layer_metrics` returns.
UNITS: Dict[str, str] = dict(
    {metric: "s" for metric, _, _ in TARGETS},
    **{"simulator.schedule_s": "s", "trace.unattributed_s": "s"},
    **dict(COUNT_METRICS),
)


class Span(NamedTuple):
    """One recorded call of a wrapped function."""

    sid: str
    metric: str
    label: str
    pid: int
    start: float
    end: float
    parent: Optional[str]
    op: Optional[str]
    attrs: Dict[str, Any]


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self, spool: Path) -> None:
        self.spool = spool
        self.enabled = False
        self.op: Optional[str] = None
        self.spans: List[Span] = []
        self._stack: List[str] = []
        self._count = 0
        #: id(task list) -> attrs of the outermost graph build that
        #: returned it; a scheduler that receives the list marks it read.
        self._graphs: Dict[int, Dict[str, Any]] = {}
        self._build_depth = 0
        multiprocessing.util.register_after_fork(self, Recorder._after_fork)

    # -- worker processes --------------------------------------------------

    def _after_fork(self) -> None:
        """In a forked pool worker: keep the inherited span stack (so
        spans point at the dispatching span) but start an empty buffer,
        flushed to the spool when the worker exits."""
        self.spans = []
        multiprocessing.util.Finalize(self, self._flush, exitpriority=10)

    def _flush(self) -> None:
        if not self.spans:
            return
        path = self.spool / f"spans-{os.getpid()}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> List[Span]:
        """This process's spans plus every flushed worker file (which
        are consumed); clears the buffer for the next pass."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            with open(path) as handle:
                spans.extend(Span(*json.loads(line)) for line in handle)
            path.unlink()
        return spans

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: str) -> None:
        """Tag the spans that follow with ``op``."""
        self.op = op
        self._graphs.clear()

    def call(self, metric: str, label: str, fn: Callable, args, kwargs, probe):
        self._count += 1
        sid = f"{os.getpid()}.{self._count}"
        parent = self._stack[-1] if self._stack else None
        attrs: Dict[str, Any] = {}
        if probe is not None:
            args, kwargs = probe.before(self, attrs, args, kwargs)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if probe is not None:
                probe.leave(self)
        if probe is not None:
            probe.after(self, attrs, args, kwargs, result)
        self.spans.append(Span(sid, metric, label, os.getpid(), start, end, parent, self.op, attrs))
        return result


class Probe:
    """Per-function hooks that turn a call into span attributes."""

    def before(self, rec: Recorder, attrs, args, kwargs):
        return args, kwargs

    def leave(self, rec: Recorder) -> None:
        pass

    def after(self, rec: Recorder, attrs, args, kwargs, result) -> None:
        pass


class _Jobs(Probe):
    def after(self, rec, attrs, args, kwargs, result):
        attrs["jobs"] = kwargs.get("jobs", args[1] if len(args) > 1 else 1)


class _Evaluate(Probe):
    def leave(self, rec):
        # One evaluation's task lists are dead once it returns, so their
        # ids may be reused: forget them.
        rec._graphs.clear()


class _CacheGet(Probe):
    def after(self, rec, attrs, args, kwargs, result):
        attrs["hit"] = result is not None


class _Nest(Probe):
    """Folders, builders and the analytical model: a build nested in any
    of them is a per-class template or a one-instance walk, not a whole
    graph."""

    def before(self, rec, attrs, args, kwargs):
        rec._build_depth += 1
        return args, kwargs

    def leave(self, rec):
        rec._build_depth -= 1


class _Build(_Nest):
    """Graph builders: count the tasks an outermost build returns and
    remember the list, so a scheduler reading it can mark it read."""

    def before(self, rec, attrs, args, kwargs):
        attrs["outer"] = rec._build_depth == 0
        return super().before(rec, attrs, args, kwargs)

    def after(self, rec, attrs, args, kwargs, result):
        if not attrs["outer"]:
            return
        tasks = result[0] if isinstance(result, tuple) else result
        attrs["tasks"] = len(tasks)
        attrs["read"] = False
        if isinstance(result, tuple):  # build_serving_tasks: (tasks, plans)
            attrs["requests"] = len(result[1])
        rec._graphs[id(tasks)] = attrs


class _Reads(Probe):
    """Schedulers: mark a built graph read when its list is handed in."""

    def __init__(self, position: int) -> None:
        self.position = position

    def before(self, rec, attrs, args, kwargs):
        tasks = args[self.position] if len(args) > self.position else kwargs.get("tasks")
        graph = rec._graphs.get(id(tasks))
        if graph is not None:
            graph["read"] = True
        return args, kwargs


class _LowerDram(Probe):
    def after(self, rec, attrs, args, kwargs, result):
        attrs["emitted"] = len(result) - len(args[0])


class _Folded(Probe):
    """``run_folded``: pass a stats dict when the caller gave none (the
    counters never change the schedule) and keep the replay counts."""

    def before(self, rec, attrs, args, kwargs):
        if kwargs.get("stats") is None and len(args) < 4:
            kwargs = dict(kwargs, stats={})
        return args, kwargs

    def after(self, rec, attrs, args, kwargs, result):
        stats = kwargs["stats"] if kwargs.get("stats") is not None else args[3]
        attrs["events"] = stats.get("events", 0)
        attrs["replayed"] = stats.get("replayed", 0)


_PROBES: Dict[str, Probe] = {
    "repro.runtime.executor:execute_tasks": _Jobs(),
    "repro.runtime.executor:evaluate_task": _Evaluate(),
    "repro.runtime.cache:ResultCache.get": _CacheGet(),
    "repro.simulator.pipeline:build_scenario_tasks": _Build(),
    "repro.simulator.pipeline:build_tasks": _Build(),
    "repro.cluster.build:build_cluster_tasks": _Build(),
    "repro.serving.simulator:build_serving_tasks": _Build(),
    "repro.simulator.pipeline:fold_scenario": _Nest(),
    "repro.cluster.build:fold_cluster": _Nest(),
    "repro.model.scenario:analytical_scenario": _Nest(),
    "repro.simulator.engine:Simulator.__init__": _Reads(1),
    "repro.simulator.engine:lower_dram": _LowerDram(),
    "repro.simulator.vector:run_folded": _Folded(),
}


def _wrapper(rec: Recorder, metric: str, label: str, fn: Callable) -> Callable:
    probe = _PROBES.get(label)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        return rec.call(metric, label, fn, args, kwargs, probe)

    return traced


def install(rec: Recorder) -> None:
    """Rebind every target in every ``repro`` module (and on its class,
    for methods).  Raises if a target no longer exists, so a renamed
    function fails the traced run instead of reading as zero."""
    for metric, module_name, qualname in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[attr]
        traced = _wrapper(rec, metric, f"{module_name}:{qualname}", original)
        if owner_name:
            setattr(owner, attr, traced)
            continue
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)


# -- reduction -------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: Sequence[Span], wall_s: float, main_pid: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (see the module docstring
    for the self-time rule; COUNT_METRICS for the counters)."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    by_metric: Dict[str, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
        by_metric.setdefault(span.metric, []).append(span)
    metrics: Dict[str, float] = {metric: 0.0 for metric, _, _ in TARGETS}
    for span in spans:
        inside = [
            (max(s, span.start), min(e, span.end))
            for s, e in children.get(span.sid, ())
            if e > span.start and s < span.end
        ]
        metrics[span.metric] += (span.end - span.start) - _covered(inside)
    metrics["simulator.schedule_s"] = sum(metrics[m] for m in SCHEDULE_METRICS)

    def attrs(metric: str) -> List[Dict[str, Any]]:
        return [span.attrs for span in by_metric.get(metric, ())]

    def attr_sum(metric: str, key: str) -> int:
        return sum(a.get(key, 0) for a in attrs(metric))

    evaluations = by_metric.get("runtime.evaluate_self_s", [])
    evaluating = {span.parent for span in evaluations}
    capacity = sum(
        span.attrs["jobs"] * (span.end - span.start)
        for span in by_metric.get("runtime.dispatch_self_s", ())
        if span.sid in evaluating
    )
    busy = sum(span.end - span.start for span in evaluations)
    metrics["runtime.worker_busy_frac"] = busy / capacity if capacity else 0.0

    hits = [a["hit"] for a in attrs("runtime.cache_get_s")]
    metrics["runtime.cache_hits"] = sum(hits)
    metrics["runtime.cache_misses"] = len(hits) - sum(hits)
    metrics["runtime.hit_ratio"] = sum(hits) / len(hits) if hits else 0.0

    graphs = [a for m in _GRAPH_BUILDERS for a in attrs(m) if a["outer"]]
    metrics["simulator.tasks_built"] = sum(g["tasks"] for g in graphs)
    metrics["simulator.tasks_built_unscheduled"] = sum(g["tasks"] for g in graphs if not g["read"])
    metrics["simulator.dram_tasks"] = attr_sum("simulator.lower_dram_s", "emitted")
    events = attr_sum("simulator.schedule_folded_s", "events")
    replayed = attr_sum("simulator.schedule_folded_s", "replayed")
    metrics["simulator.replayed_ratio"] = replayed / (events + replayed) if events + replayed else 0.0
    requests = attr_sum("serving.build_s", "requests")
    served = attr_sum("serving.build_s", "tasks")
    metrics["serving.tasks_per_request"] = served / requests if requests else 0.0

    top = [(s.start, s.end) for s in spans if s.parent is None and s.pid == main_pid]
    metrics["trace.unattributed_s"] = max(0.0, wall_s - _covered(top))
    return metrics


def fired(spans: Sequence[Span]) -> Dict[str, int]:
    """Label -> number of spans recorded."""
    counts = {label: 0 for label in LABELS}
    for span in spans:
        counts[span.label] += 1
    return counts


def chrome_trace(spans: Sequence[Span], origin: float) -> Dict[str, Any]:
    """Chrome Trace Event JSON (complete events, microseconds)."""
    return {
        "traceEvents": [
            {
                "name": label,
                "cat": metric,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": pid,
                "args": dict(attrs, id=sid, parent=parent, op=op),
            }
            for sid, metric, label, pid, start, end, parent, op, attrs in spans
        ],
        "displayTimeUnit": "ms",
    }
