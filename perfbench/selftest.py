"""Self-tests of the benchmark.  Run from the root of a source checkout:

    python3 perfbench/selftest.py

- peak RSS: a trivial command still reports its own small peak after this
  process has touched a large buffer;
- checkers: each accepts the real output and rejects a perturbed one (a
  probability off by 1e-6, a row dropped, a FAIL line), and the failure is
  counted;
- smoke: every workload at tiny sizes, with and without tracing, prints
  exactly the metrics BENCHMARK.json names, with their units;
- no sources: in a directory holding only BENCHMARK.json and the benchmark,
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

import oracle
import run
import workloads

ROOT = Path.cwd()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MIB = 1024 * 1024


def test_peak_rss_is_the_commands_own() -> None:
    ballast = b"\x01" * (300 * MIB)  # touched pages, unlike a zeroed bytearray
    probe = subprocess.Popen([sys.executable, "-c", "pass"])
    _, _, usage = os.wait4(probe.pid, 0)
    probe.returncode = 0
    result = run.launch(workloads.HELP, workloads.Checks(), run.child_env())
    del ballast
    print(f"    ru_maxrss of a reaped `python -c pass`: {usage.ru_maxrss / 1024:.0f} MiB; "
          f"VmHWM of `walkgrammar --help`: {result.rss_mib:.1f} MiB")
    assert result.failure is None, result.failure
    assert result.rss_mib < 150, f"--help reported {result.rss_mib:.0f} MiB after a 300 MiB driver"


def _outputs(workload: str) -> list[tuple[workloads.Command, str]]:
    """Real smoke-size outputs of the workload's commands."""
    out = []
    for cmd in workloads.commands(workload, seed=5, smoke=True):
        result = run.launch(cmd, workloads.Checks(), run.child_env())
        assert result.failure is None, f"{cmd.argv}: {result.failure}"
        out.append((cmd, (run.WORK / "stdout").read_text()))
    return out


def _expect_counted_failure(cmd: workloads.Command, text: str, what: str) -> None:
    checks = workloads.Checks()
    checks.check(cmd, 0, "perturbed", lambda: io.StringIO(text))
    assert checks.attempted == 1 and len(checks.failures) == 1, f"{what} passed the checker"


def _nudge_probability(line: str, field: int) -> str:
    parts = line.split(",")
    parts[field] = repr(float(parts[field]) + 1e-6)
    return ",".join(parts)


def test_checkers_reject_perturbed_outputs() -> None:
    for workload in workloads.WORKLOADS:
        for cmd, text in _outputs(workload):
            checks = workloads.Checks()
            checks.check(cmd, 0, "real", lambda: io.StringIO(text))
            assert not checks.failures, f"real output rejected: {checks.failures}"
            lines = text.splitlines(keepends=True)
            if cmd.name == "walk_run" and "--format" not in cmd.argv:
                lines[2] = _nudge_probability(lines[2].rstrip("\n"), 1) + "\n"
                _expect_counted_failure(cmd, "".join(lines), "a probability off by 1e-6")
            elif cmd.name == "walk_run":
                payload = json.loads(text)
                payload["cells"][1]["probability"] += 1e-6
                _expect_counted_failure(cmd, json.dumps(payload), "a JSON probability off by 1e-6")
            elif cmd.name == "walk_plot":
                bars = [i for i, line in enumerate(lines) if 'fill="steelblue"' in line]
                lines[bars[1]] = lines[bars[1]].replace('height="', 'height="1')
                _expect_counted_failure(cmd, "".join(lines), "a wrong bar height")
            elif cmd.name == "verify_all":
                lines[0] = lines[0].replace("PASS", "FAIL", 1)
                _expect_counted_failure(cmd, "".join(lines), "a FAIL line")
            else:
                del lines[len(lines) // 2]
                _expect_counted_failure(cmd, "".join(lines), f"{cmd.name} with a row dropped")
    bad_exit = workloads.Checks()
    bad_exit.check(workloads.HELP, 1, "any", lambda: io.StringIO("usage: x\n"))
    assert len(bad_exit.failures) == 1, "a non-zero exit passed"


def test_oracle_counts() -> None:
    assert oracle.necklaces(15) == 2192
    assert sum(oracle.fixed_density_necklaces(15, j) for j in range(16)) == 2192
    probs = oracle.spinor_walk(oracle.HADAMARD, [1, 0], 2)
    assert abs(probs - [0.25, 0.5, 0.25]).max() < 1e-15, probs


def _run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_smoke_emits_every_metric_with_its_unit() -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for workload in workloads.WORKLOADS[: 1 if trace else None]:
            done = _run_benchmark(workload, trace)
            assert done.returncode == 0, done.stderr[-2000:]
            result = json.loads(done.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, set(result)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{workload} trace {trace}: {set(got) ^ set(expected)}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), f"{name}: {m}"


def test_fails_without_sources() -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_benchmark("words", 0, cwd=bare)
    assert done.returncode != 0, "exit code 0 without sources"
    assert '"metrics"' not in done.stdout, "printed a result without sources"


TESTS = [
    test_oracle_counts,
    test_peak_rss_is_the_commands_own,
    test_checkers_reject_perturbed_outputs,
    test_smoke_emits_every_metric_with_its_unit,
    test_fails_without_sources,
]


def main() -> int:
    failed = 0
    run.WORK.mkdir(parents=True, exist_ok=True)
    try:
        for test in TESTS:
            try:
                test()
                print(f"PASS  {test.__name__}")
            except Exception:
                failed += 1
                print(f"FAIL  {test.__name__}\n{traceback.format_exc()}")
    finally:
        run.remove_work()
    print(f"{len(TESTS) - failed}/{len(TESTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
