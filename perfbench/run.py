"""Perf ledger: one seeded command, three workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload grid-sweep --seed 20240722 --seconds 30 --trace 0

Workloads (see ``ledger.py`` for the ops and why each was chosen):

- ``grid-sweep``: ``repro report`` plus a 48-cell ``repro sweep --grid``
  through ``repro.cli.main``, cold then warm on one cache directory;
- ``scenario-large``: four large single-point requests through
  ``repro.api.Session``;
- ``serve-poisson``: one seeded Poisson serving trace through
  ``Session``.

All load is closed-loop from one client; ``jobs`` is at most 2.  Every
figure is host time or host memory — the simulator's own speed.
Simulated statistics are deterministic, so they are checked for exact
equality (committed digests in ``expected.json``) and never reported.
The model has no hardware reference, so no accuracy figure is given.

With ``--trace 0`` the command prints the end-to-end metrics:

- ``setup_s``: fresh interpreter start until the front door is
  imported, the Session built and the inputs generated (median of
  ``SETUP_SAMPLES`` set-up-only interpreters, half started before and
  half after the measuring one, plus the measuring one);
- ``wall_s``: one pass over the workload's ops (``grid-sweep``: the cold
  pass, every lookup a miss);
- ``warm_wall_s``: ``grid-sweep``: the same commands again on the warm
  cache directory, every lookup a disk hit.  The other two workloads run
  with the cache off as fixed by their requests, so a repeat reuses no
  result: there it is the passes after the first in the process;
- ``sim_tasks_per_s``: simulated tasks in a pass's results ÷ its wall
  time (``grid-sweep``: the ``n_tasks`` column of the grid table; the
  report prints no task counts);
- ``peak_rss_mb``: peak resident memory of the workload process plus
  its largest pool worker.

Failed ops are the JSON's ``failed`` of ``attempted`` (an op that raised
or whose output did not match).  With ``--trace 1`` it prints the
per-layer metrics of ``spans.py`` instead, from a measuring process that
splits its budget between untraced and traced passes.

Each figure is a median; the table above the JSON line gives its
quartiles and sample count.  The last stdout line is the JSON result.

Bytecode is pinned per run: one unmeasured set-up first compiles every
module it imports (standard library, NumPy, ``repro``) into a fresh
``PYTHONPYCACHEPREFIX`` under ``perfbench/out``, and every measured
process then reads that cache and writes none.  ``setup_s`` is thus a
cached import whatever ``__pycache__`` directories the tree holds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEDGER = HERE / "ledger.py"
OUT = HERE / "out"
WORKLOADS = ("grid-sweep", "scenario-large", "serve-poisson")
#: Interpreters started per run to time set-up (the measuring process
#: makes one more sample).
SETUP_SAMPLES = 7
#: Hard limit on one workload process, inside the 180 s a run may take.
PROCESS_LIMIT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_wall_s", "s"),
    ("sim_tasks_per_s", "tasks/s"),
    ("peak_rss_mb", "MB"),
)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _child_env(pycache, write_bytecode=False):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Results never depend on string hashing; pinning it keeps set and
    # dict layouts, and so host time, the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    # A user's shared cache directory would turn cold lookups into hits.
    env.pop("REPRO_CACHE_DIR", None)
    # Bytecode comes from this run's own prefix only (module docstring).
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    if write_bytecode:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(argv, env):
    """Start a ledger process; returns (process, seconds until it printed
    ``ready``, killer timer)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(LEDGER)] + argv,
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    timer = threading.Timer(PROCESS_LIMIT_S, proc.kill)
    timer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        timer.cancel()
        raise SystemExit(f"ledger process failed during set-up (exit {proc.returncode})")
    return proc, ready, timer


def _finish(proc, timer):
    """Wait for a ledger process; returns its last stdout line as JSON
    (None when it printed nothing after ``ready``)."""
    out = proc.stdout.read()
    proc.wait()
    timer.cancel()
    if proc.returncode != 0:
        raise SystemExit(f"ledger process exited {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _summary(unit, values):
    q1, q3 = _quartiles(values)
    return {"value": statistics.median(values), "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def run(workload, seed, seconds, trace):
    """One measurement of ``workload``; returns the raw ledger result and
    each metric's median, unit, quartiles and sample count ``n`` (per-layer
    metrics carry value, unit and a note instead)."""
    common = ["--workload", workload, "--seed", str(seed)]
    pycache = OUT / f"pycache-{os.getpid()}"
    env = _child_env(pycache)
    setup = []

    def setup_samples(count):
        for _ in range(count):
            proc, ready, timer = _spawn(common + ["--setup-only"], env)
            _finish(proc, timer)
            setup.append(ready)

    try:
        proc, _, timer = _spawn(common + ["--setup-only"], _child_env(pycache, True))
        _finish(proc, timer)
        # Set-up is sampled both before and after the measuring process,
        # so its median spans the run as the other figures do.
        if not trace:
            setup_samples(SETUP_SAMPLES // 2)
        proc, ready, timer = _spawn(
            common + ["--seconds", str(seconds), "--trace", str(trace)], env)
        setup.append(ready)
        result = _finish(proc, timer)
        if not trace:
            setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    finally:
        shutil.rmtree(pycache, ignore_errors=True)

    if trace:
        metrics = {name: dict(metric, note=result["notes"][name])
                   for name, metric in sorted(result["layers"].items())}
    else:
        samples = {
            "setup_s": setup,
            "wall_s": result["walls"],
            "warm_wall_s": result["warm_walls"],
            "sim_tasks_per_s": result["tasks_per_s"],
            "peak_rss_mb": [result["peak_rss_mb"]],
        }
        metrics = {name: _summary(unit, samples[name]) for name, unit in END_TO_END}
    return result, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    result, metrics = run(args.workload, args.seed, args.seconds, args.trace)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  nproc {os.cpu_count()}")
    for name, m in metrics.items():
        detail = m["note"] if args.trace else f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}"
        print(f"{name:36s} {m['value']:14.6g} {m['unit']:8s} {detail}")
    if args.trace:
        if result["missing_spans"]:
            print(f"spans that never fired: {', '.join(result['missing_spans'])}")
        print(f"trace written to {result['trace_file']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_ops':36s} {failed / attempted:14.6g} {'ratio':8s} {failed} of {attempted} ops")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    correct = failed == 0 and not result.get("missing_spans")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
