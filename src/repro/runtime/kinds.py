"""The task-kind table: the one place the runtime learns about kinds.

Every runtime task names a kind; :data:`KINDS` maps that name to how a
worker evaluates the task and which dataclass the evaluation returns.
The executor dispatches through the table and the cache codec walks the
fields of its result types, so adding a kind is one entry here plus a
request lowering in :meth:`repro.api.Session._lower`.

Each ``evaluate`` looks its worker function up by module-global name at
call time, so a wrapper rebound on this module (a tracer, a test
double) sees every call.  The entries never leave the process that
calls them: pool workers receive
:func:`~repro.runtime.executor.evaluate_task` and the task, and look
the kind up themselves.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple

from ..cluster import ClusterResult, evaluate_cluster_point
from ..model import evaluate_inference
from ..model.metrics import AttentionResult, InferenceResult
from ..model.pareto import DesignPoint, design_point
from ..model.scenario import evaluate_grid_cell
from ..serving import ServingResult, simulate_serving
from ..simulator.sweep import (
    BindingResult,
    ScenarioGridResult,
    ScenarioResult,
    evaluate_binding_point,
    evaluate_scenario_point,
)


class Kind(NamedTuple):
    """One task kind: ``evaluate(task)`` returns a ``result`` instance."""

    evaluate: Callable[[Any], Any]
    result: type


#: Task kind name -> :class:`Kind`.  Grid kinds carry the accelerator
#: model (or array dim) in ``task.config``; point kinds carry the whole
#: frozen point and pick their scheduling core from ``task.engine``.
KINDS: Dict[str, Kind] = {
    "attention": Kind(lambda t: t.config.evaluate(t.model, t.seq_len, t.batch), AttentionResult),
    "inference": Kind(
        lambda t: evaluate_inference(t.config, t.model, t.seq_len, t.batch), InferenceResult
    ),
    "pareto": Kind(lambda t: design_point(t.model, t.config, t.seq_len, t.batch), DesignPoint),
    "binding": Kind(lambda t: evaluate_binding_point(t.config, engine=t.engine), BindingResult),
    "scenario": Kind(lambda t: evaluate_scenario_point(t.config, engine=t.engine), ScenarioResult),
    "scenario_grid": Kind(
        lambda t: evaluate_grid_cell(t.config, engine=t.engine), ScenarioGridResult
    ),
    "serve": Kind(lambda t: simulate_serving(t.config, engine=t.engine), ServingResult),
    "cluster": Kind(lambda t: evaluate_cluster_point(t.config, engine=t.engine), ClusterResult),
}
