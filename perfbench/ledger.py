"""Workload process of the perf ledger: set up, run passes, check them.

``run.py`` starts this script in a fresh interpreter per measurement::

    python3 perfbench/ledger.py --workload grid-sweep --seed 1 --seconds 30 --trace 0

It imports the workload's front door, builds its inputs, prints
``ready`` (the parent stops its set-up clock there), then runs closed-loop
passes — one client, each op starting when the previous one returned —
until the time budget is spent.  Every pass's outputs are checked outside
the timed region.  The last stdout line is a JSON object of raw samples,
which ``run.py`` reduces to medians.

With ``--trace 1`` the first half of the budget runs untraced and the
second half runs with the layer spans of :mod:`spans` installed, so the
per-layer figures, the tracing overhead and a traced-equals-untraced
output check all come from one process.

``--setup-only`` stops after ``ready``; ``--record-expected`` runs one
pass of every workload at the default seed and rewrites
``expected.json`` (only after an intentional output change).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"
DEFAULT_SEED = 20240722

#: (op name, digest of its output, failure messages) for one op.
OpCheck = Tuple[str, str, List[str]]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _begin(rec, op: str) -> None:
    if rec is not None:
        rec.begin_op(op)


# -- grid-sweep -------------------------------------------------------------

REPORT_ARGV = ("report", "--jobs", "2")
GRID_ARGV = (
    "sweep", "--grid", "--models", "BERT,T5,XLM,TrXL", "--batches", "1,4,16",
    "--heads-list", "4,16", "--decode-list", "0,2", "--chunks", "8",
    "--dram-bw", "425", "--jobs", "2",
)
#: Warm passes per cold pass.  One warm pass takes ~0.1 s, too short to
#: repeat within a tenth on a shared host, so each pass samples it
#: repeatedly and the run reports the median of every sample.
WARM_REPEATS = 5
_SUMMARY = re.compile(r"(\d+) grid cells \(scenario_grid\), jobs=2, cache hits (\d+)/(\d+)\n")
_RECORD = re.compile(r"recorded run \S+ \(digest ([0-9a-f]+), [0-9.]+s\)\n")


class GridSweep:
    """``repro report`` and a 48-cell ``repro sweep --grid`` through
    ``repro.cli.main``: a cold pass on a fresh cache directory, then warm
    passes that read every result back from it."""

    name = "grid-sweep"
    front_door = "repro.cli"
    min_passes = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        import repro.cli

        # Called through the module, so an installed span wrapper is seen.
        self.cli = repro.cli
        self.workdir = workdir
        self.report_sha256 = (ROOT / "tests" / "golden" / "report.sha256").read_text().strip()

    def _cli(self, rec, op: str, argv: Sequence[str]):
        _begin(rec, op)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except (Exception, SystemExit) as error:
            return f"raised {error!r}"
        return code, out.getvalue(), err.getvalue()

    def run_pass(self, rec, index: int) -> Dict[str, Any]:
        cache = self.workdir / f"cache-{index}"
        registry = self.workdir / f"registry-{index}"
        ops = (
            ("report", REPORT_ARGV + ("--cache-dir", str(cache))),
            ("sweep", GRID_ARGV + ("--cache-dir", str(cache), "--registry", str(registry))),
        )
        start = time.perf_counter()
        cold = [self._cli(rec, f"cold-{name}", argv) for name, argv in ops]
        wall = time.perf_counter() - start
        warm, warm_walls = [], []
        for repeat in range(WARM_REPEATS):
            start = time.perf_counter()
            warm.append([self._cli(rec, f"warm{repeat}-{name}", argv) for name, argv in ops])
            warm_walls.append(time.perf_counter() - start)
        return {"wall": wall, "warm": warm_walls, "cold": cold, "warm_outputs": warm,
                "dirs": (cache, registry)}

    def _report(self, output, cold: bool) -> OpCheck:
        if isinstance(output, str):
            return "report", "", [f"report {output}"]
        code, out, err = output
        failures = []
        if code != 0 or err:
            failures.append(f"report exited {code} with stderr {err[:200]!r}")
        # The CLI prints the Session payload plus a newline; the golden
        # hash is of the payload (tests/test_golden_cli.py).
        if _sha256(out[:-1]) != self.report_sha256:
            failures.append(f"{'cold' if cold else 'warm'} report differs from tests/golden/report.sha256")
        return "report", _sha256(out), failures

    def _sweep(self, output, cold: bool) -> Tuple[OpCheck, int]:
        if isinstance(output, str):
            return ("sweep", "", [f"sweep {output}"]), 0
        code, out, err = output
        failures = []
        if code != 0 or err:
            failures.append(f"sweep exited {code} with stderr {err[:200]!r}")
        lines = out.splitlines(keepends=True)
        summary = _SUMMARY.fullmatch(lines[-2]) if len(lines) >= 2 else None
        record = _RECORD.fullmatch(lines[-1]) if lines else None
        if summary is None or record is None:
            return ("sweep", "", failures + ["sweep output lacks its summary/record lines"]), 0
        cells, hits, total = (int(g) for g in summary.groups())
        # The cold pass must miss every lookup, the warm pass hit every one.
        if hits != (0 if cold else cells) or total != cells:
            failures.append(f"{'cold' if cold else 'warm'} sweep reported cache hits {hits}/{total}")
        payload = "".join(lines[:-2])
        header, *rows = payload.splitlines()
        column = header.split().index("n_tasks")
        n_tasks = sum(int(row.split()[column]) for row in rows)
        # Everything but the hit count, run id and duration is byte-equal
        # between cold and warm: the digest covers the table, the cell
        # count and the run registry's result digest.
        digest = f"{_sha256(payload)}:{cells}:{record.group(1)}"
        return ("sweep", digest, failures), n_tasks

    def check(self, outputs: Dict[str, Any]) -> Tuple[List[OpCheck], int]:
        for directory in outputs["dirs"]:
            shutil.rmtree(directory, ignore_errors=True)
        cold_report, cold_sweep = outputs["cold"]
        checks = [self._report(cold_report, cold=True)]
        sweep, n_tasks = self._sweep(cold_sweep, cold=True)
        checks.append(sweep)
        for report, sweep_out in outputs["warm_outputs"]:
            checks.append(self._report(report, cold=False))
            checks.append(self._sweep(sweep_out, cold=False)[0])
        return checks, n_tasks


# -- scenario-large ----------------------------------------------------------


def _results(payload: Any) -> List[Any]:
    return list(payload.values()) if isinstance(payload, dict) else list(payload)


def _busy_failures(label: str, result: Any) -> List[str]:
    """Busy cycles may never exceed the makespan on any resource."""
    return [
        f"{label}: {resource} busy {busy} > makespan {result.makespan}"
        for resource, busy in (("2d", result.busy_2d), ("1d", result.busy_1d),
                               ("io", result.busy_io), ("dram", result.busy_dram))
        if busy > result.makespan
    ]


class ScenarioLarge:
    """Four large single-point requests through ``Session.run``: graph
    build, DRAM lowering, folding and scheduling dominate."""

    name = "scenario-large"
    front_door = "repro.api"
    min_passes = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.api import ClusterRequest, ScenarioRequest, Session
        from repro.runtime import result_digest

        self.digest = result_digest
        self.session = Session(jobs=1, cache=False)
        self.requests = (
            ("bert-b32-event", ScenarioRequest(
                model="BERT", batch=32, heads=16, dram_bw=425, binding="interleaved")),
            ("bert-b16-decode-spill", ScenarioRequest(
                model="BERT", batch=16, heads=16, dram_bw=425, binding="interleaved",
                decode_instances=64, buffer_bytes=24576, qos="decode-first")),
            # The vector engine, so the sharded graph is folded
            # (fold_cluster) as well as built.
            ("cluster-4chip-link64", ClusterRequest(
                model="BERT", batch=32, heads=16, dram_bw=425, chips=(4,),
                link_bws=(64.0,), engine="vector")),
            ("bert-b192-folded", ScenarioRequest(
                model="BERT", batch=192, heads=16, dram_bw=425, binding="interleaved",
                engine="vector")),
        )

    def run_pass(self, rec, index: int) -> Dict[str, Any]:
        payloads = []
        start = time.perf_counter()
        for name, request in self.requests:
            _begin(rec, name)
            try:
                payloads.append(self.session.run(request).payload)
            except Exception as error:
                payloads.append(f"raised {error!r}")
        return {"wall": time.perf_counter() - start, "payloads": payloads}

    def check(self, outputs: Dict[str, Any]) -> Tuple[List[OpCheck], int]:
        checks, n_tasks = [], 0
        for (name, _), payload in zip(self.requests, outputs["payloads"]):
            if isinstance(payload, str):
                checks.append((name, "", [f"{name} {payload}"]))
                continue
            results = _results(payload)
            failures = [f for r in results for f in _busy_failures(name, r)]
            n_tasks += sum(r.n_tasks for r in results)
            checks.append((name, self.digest(results), failures))
        return checks, n_tasks


# -- serve-poisson -----------------------------------------------------------


#: Requests per serving trace: the size of ``poisson_arrivals(0.4,
#: 1_600_000, seed=DEFAULT_SEED)``.
SERVE_REQUESTS = 660


class ServePoisson:
    """One seeded Poisson arrival trace served through ``Session.run``:
    one unfolded graph with a clock chain and admission gating.

    The trace is the first ``SERVE_REQUESTS`` arrivals of a Poisson
    process at 0.4 requests per kilocycle.  At the default seed that is
    exactly ``poisson_arrivals(0.4, 1_600_000)``; fixing the count rather
    than the duration keeps the work the same from seed to seed (a fixed
    duration varies it by about ±4%, which the run-to-run spread of host
    time would show)."""

    name = "serve-poisson"
    front_door = "repro.api"
    min_passes = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.api import ServeRequest, Session
        from repro.runtime import result_digest
        from repro.serving import poisson_arrivals

        self.digest = result_digest
        self.session = Session(jobs=1, cache=False)
        # The seed reaches only this generated trace.  Twice the duration
        # holds ~1280 arrivals on average, so 660 are always there.
        self.trace = poisson_arrivals(0.4, 3_200_000, seed=seed)[:SERVE_REQUESTS]
        if len(self.trace) != SERVE_REQUESTS:
            raise ValueError(f"seed {seed} drew only {len(self.trace)} arrivals")
        self.op = f"serve-seed{seed}"
        self.request = ServeRequest(
            trace=self.trace, dram_bw=425, buffer_bytes=24576, qos="decode-first",
            deadline=20000,
        )

    def run_pass(self, rec, index: int) -> Dict[str, Any]:
        _begin(rec, self.op)
        start = time.perf_counter()
        try:
            payload = self.session.run(self.request).payload
        except Exception as error:
            payload = f"raised {error!r}"
        return {"wall": time.perf_counter() - start, "payload": payload}

    def check(self, outputs: Dict[str, Any]) -> Tuple[List[OpCheck], int]:
        result = outputs["payload"]
        if isinstance(result, str):
            return [(self.op, "", [f"serve {result}"])], 0
        failures = []
        if result.n_requests != len(self.trace):
            failures.append(f"{result.n_requests} requests served, trace has {len(self.trace)}")
        for r in result.requests:
            if not r.admitted <= r.first_token <= r.finish:
                failures.append(
                    f"request {r.index}: admitted {r.admitted}, first token "
                    f"{r.first_token}, finish {r.finish} out of order")
                break
        failures.extend(_busy_failures(self.op, result))
        return [(self.op, self.digest([result]), failures)], result.n_tasks


WORKLOADS = {w.name: w for w in (GridSweep, ScenarioLarge, ServePoisson)}

#: Wrapped functions each workload must reach in a traced run (labels
#: from spans.TARGETS).  The cache and registry wrappers are absent from
#: the two cache-off workloads, the cluster and serving ones from the
#: workloads that never call them.
_COMMON = (
    "repro.api.session:Session.run",
    "repro.api.requests:Request.validate",
    "repro.api.session:Session._lower",
    "repro.runtime.executor:execute_tasks",
    "repro.runtime.executor:evaluate_task",
    "repro.simulator.pipeline:build_tasks",
    "repro.simulator.engine:lower_dram",
    "repro.simulator.engine:Simulator.__init__",
    "repro.simulator.engine:Simulator.run",
)
EXPECTED_SPANS = {
    "grid-sweep": _COMMON + (
        "repro.cli:main",
        "repro.runtime.cache:ResultCache.get",
        "repro.runtime.cache:ResultCache.put",
        "repro.runtime.cache:encode_result",
        "repro.runtime.cache:decode_result",
        "repro.runtime.registry:RunRegistry.record",
        "repro.workloads.scenario:scenario_from_model",
        "repro.model.scenario:analytical_scenario",
        "repro.experiments.report:full_report",
        "repro.simulator.pipeline:build_scenario_tasks",
    ),
    "scenario-large": _COMMON + (
        "repro.workloads.scenario:scenario_from_model",
        "repro.simulator.pipeline:build_scenario_tasks",
        "repro.simulator.pipeline:fold_scenario",
        "repro.simulator.vector:run_folded",
        "repro.cluster.build:build_cluster_tasks",
        "repro.cluster.build:fold_cluster",
        "repro.cluster.build:schedule_cluster_tasks",
    ),
    "serve-poisson": _COMMON + (
        "repro.serving.simulator:build_serving_tasks",
        "repro.serving.simulator:simulate_serving",
    ),
}


# -- measurement loop --------------------------------------------------------


def _peak_rss_mb() -> float:
    """Own peak RSS plus the largest reaped pool child's (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


class Pass(NamedTuple):
    duration: float  # the whole pass, checks excluded
    outputs: Dict[str, Any]
    n_tasks: int
    spans: Optional[list]


class Ledger:
    """Runs passes of one workload and accumulates samples and checks."""

    def __init__(self, workload, expected: Dict[str, str]) -> None:
        self.workload = workload
        self.reference = dict(expected)
        self.attempted = 0
        self.failures: List[str] = []
        self.failed = 0
        self.index = 0

    def one_pass(self, rec) -> Pass:
        if rec is not None:
            rec.enabled = True
        start = time.perf_counter()
        outputs = self.workload.run_pass(rec, self.index)
        duration = time.perf_counter() - start
        if rec is not None:
            rec.enabled = False
        self.index += 1
        checks, n_tasks = self.workload.check(outputs)
        for op, digest, failures in checks:
            self.attempted += 1
            reference = self.reference.setdefault(op, digest)
            if digest != reference and not failures:
                failures = [f"{op}: output digest {digest} != {reference}"]
            if failures:
                self.failed += 1
                self.failures.extend(failures)
        spans = rec.collect() if rec is not None else None
        return Pass(duration, outputs, n_tasks, spans)

    def loop(self, rec, budget_s: float, min_passes: int) -> List[Pass]:
        """Closed-loop passes until ``budget_s`` would be overrun."""
        passes = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            passes.append(self.one_pass(rec))
            elapsed = time.perf_counter() - start
            step = time.perf_counter() - t0
            if len(passes) >= min_passes and elapsed + step > budget_s:
                return passes


def measure(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    t0 = time.perf_counter()
    workload_type = WORKLOADS[name]
    __import__(workload_type.front_door)
    import_s = time.perf_counter() - t0
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workload_type(seed, workdir)
        print("ready", flush=True)
        expected = json.loads(EXPECTED.read_text()).get(name, {})
        ledger = Ledger(workload, expected)
        result: Dict[str, Any] = {"workload": name, "import_s": import_s}
        if not trace:
            passes = ledger.loop(None, seconds, workload.min_passes)
            result["walls"] = [p.outputs["wall"] for p in passes]
            result["warm_walls"] = (
                [w for p in passes for w in p.outputs["warm"]] if "warm" in passes[0].outputs
                else result["walls"][1:]
            )
            result["tasks_per_s"] = [p.n_tasks / p.outputs["wall"] for p in passes]
        else:
            result.update(_traced(ledger, workload, workdir, seconds, import_s))
        result["peak_rss_mb"] = _peak_rss_mb()
        result["attempted"] = ledger.attempted
        result["failed"] = ledger.failed
        result["failures"] = ledger.failures[:20]
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(ledger: Ledger, workload, workdir: Path, seconds: float,
            import_s: float) -> Dict[str, Any]:
    import spans

    untraced = ledger.loop(None, seconds / 2, 1)
    rec = spans.Recorder(workdir)
    spans.install(rec)
    traced = ledger.loop(rec, seconds / 2, 1)
    pid = os.getpid()
    layers = [spans.layer_metrics(p.spans, p.duration, pid) for p in traced]
    units = dict(spans.UNITS, **{"trace.overhead_ratio": "ratio", "cli.import_s": "s"})
    values = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    values["trace.overhead_ratio"] = (
        statistics.median(p.duration for p in traced)
        / statistics.median(p.duration for p in untraced) - 1
    )
    values["cli.import_s"] = import_s
    every = [span for p in traced for span in p.spans]
    fired = spans.fired(every)
    missing = [label for label in EXPECTED_SPANS[workload.name] if not fired[label]]
    # One file per workload, replaced by each traced run.
    trace_path = OUT / f"{workload.name}.trace.json"
    trace_path.write_text(json.dumps(spans.chrome_trace(every, min(s.start for s in every))))
    notes = {key: f"median of {len(traced)} traced pass(es)" for key in values}
    notes["trace.overhead_ratio"] = (
        f"median of {len(traced)} traced / median of {len(untraced)} untraced pass(es) - 1")
    notes["cli.import_s"] = "one import, in this fresh interpreter"
    return {
        "layers": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
        "notes": notes,
        "fired": fired,
        "missing_spans": missing,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def record_expected() -> None:
    """Rewrite expected.json from one untraced pass of each workload."""
    expected = {}
    for name, workload_type in WORKLOADS.items():
        workdir = OUT / f"record-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            workload = workload_type(DEFAULT_SEED, workdir)
            checks, _ = workload.check(workload.run_pass(None, 0))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for op, _, failures in checks:
            if failures:
                raise SystemExit(f"{name}/{op} failed its checks: {failures}")
        expected[name] = {op: digest for op, digest, _ in checks}
    EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        workload_type = WORKLOADS[args.workload]
        __import__(workload_type.front_door)
        workload_type(args.seed, OUT)
        print("ready", flush=True)
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
