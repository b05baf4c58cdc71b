"""Record the perf ledger's baseline: ten seeds of every workload.

    python3 perfbench/baseline.py

Runs ``run.py``'s measurement once per seed of ``SEEDS`` on every
workload of ``BENCHMARK.json`` at its ``run_seconds``.  For every
end-to-end metric it prints the median of the per-run values, their
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
spread as a share of the median, which is how run-to-run steadiness is
judged against the bounds in ``BENCHMARK.json``.  It rewrites
``baseline.json`` with each run's value and within-run sample count and
the environment (nproc, Python and NumPy versions).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
#: One run per seed; the first is the default, whose outputs are checked
#: against committed digests.
SEEDS = (20240722, 1, 2, 3, 4, 5, 6, 7, 8, 9)


def _numpy_version() -> str:
    proc = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            result, metrics = run.run(workload, seed, bench["run_seconds"], 0)
            if result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops")
            runs.append((result, metrics))
        metrics = {}
        for name, bound in bounds.items():
            values = [m[name]["value"] for _, m in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            metrics[name] = {
                "unit": runs[0][1][name]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "runs": len(values), "values": values,
                "samples_per_run": [m[name]["n"] for _, m in runs],
            }
            flag = "" if spread < bound / 3 else "  <-- above a third of the bound"
            print(f"{workload:15s} {name:16s} median {median:12.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f} (bound {bound}){flag}", flush=True)
        summary[workload] = {
            "seeds": list(SEEDS),
            "attempted": sum(r["attempted"] for r, _ in runs),
            "failed": sum(r["failed"] for r, _ in runs),
            "metrics": metrics,
        }
    record = {
        "run_seconds": bench["run_seconds"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "machine": platform.machine(),
        "bytecode": "cached: read from a per-run PYTHONPYCACHEPREFIX warmed before measuring",
        "workloads": summary,
    }
    BASELINE.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
