"""The benchmark's traced run ends in strict JSON with every per-layer metric finite.

A layer metric that is a ratio of counts reads NaN when its function
leaves the CLI's call path (0/0), and `json.dumps` would print a bare
`NaN`, which strict JSON parsers refuse.  This runs the traced benchmark
at its smoke sizes, as `python3 perfbench/run.py --workload words --seed 1
--seconds 0 --trace 1 --smoke` from the repo root.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_traced_smoke_run_reports_every_layer_metric_finite():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "words", "--seed", "1",
         "--seconds", "0", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1], parse_constant=_refuse_constant)
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    metrics = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    assert not missing
    not_finite = [m["name"] for m in declared if not math.isfinite(metrics[m["name"]]["value"])]
    assert not not_finite
