"""Benchmark of the walkgrammar CLI: end-to-end metrics, or a traced per-layer run.

Run from the root of a source checkout (it uses ./src, not an installed copy):

    python3 perfbench/run.py --workload words --seed 1 --seconds 20 --trace 0

--trace 0 runs the workload's commands through the real CLI, one child
process at a time (a single closed-loop client: the next command starts
after the previous one exits), repeating the list until --seconds have
passed.  Every output is checked against `oracle`.  Before and after
each command it launches `reference`, a fixed load (interpreter start,
`import numpy`, a small walk and word loop) that does not import
walkgrammar.  It reports, per workload,

    wall_rel     for each command, the median over repetitions of its
                 wall time divided by the mean wall time of the two
                 reference launches next to it; summed over the
                 workload's commands
    cpu_rel      the same for the command's user + system CPU time, also
                 divided by the reference's wall time
    peak_rss_mb  largest peak RSS among the commands, each process's own
                 (VmHWM); median over repetitions
    setup_s      set-up time of a command: the median over no-op `--help`
                 launches (interpreter start, `import walkgrammar`,
                 argparse) of their wall time divided by that of the
                 reference launches next to them, times REFERENCE_S, the
                 reference's wall time on an idle host; that is, seconds
                 at that host's speed

The unit `ref` of wall_rel and cpu_rel is one reference launch's wall
time.  The host is shared, and other tenants change its speed by up to
2x over seconds and minutes, so times in seconds drift with their load:
per-run medians of the summed wall time spread over 25% across runs.  A
command and the reference launches next to it slow together, so their
ratio cancels most of the drift: in one set of ten runs, the raw
seconds of `--help` launches spread 35% while wall_rel spread 6%.  The
readable table also gives the times in seconds as measured (wall_s and
cpu_s, summed per round, the reference's, and help_s per launch), with
medians and quartiles, and fail_ratio.

--trace 1 calls the same commands in-process and times the calls into each
module's public functions from outside (see `layers`).  It reports the
per-layer metrics of all three workloads, whichever --workload is named,
so that every layer metric is measured in every traced run.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it name the seed, the generated command lines,
the environment and a readable table including fail_ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
# Scratch files of this process; several benchmark processes may share the parent.
WORK = ROOT / ".perfbench_work" / str(os.getpid())

COMMAND_TIMEOUT_S = 120
SETUP_LAUNCHES_PER_ROUND = 2
MIN_SETUP_LAUNCHES = 12
REFERENCE_WORDS = "3432"  # C(14, 7): the reference load's balanced words of length 14
# The reference launch's median wall time on an idle 2-vCPU, 2 GHz Xeon VM
# (Python 3.11, numpy 2.4): setup_s is in seconds at that speed.
REFERENCE_S = 0.13


@dataclass
class Launch:
    wall_s: float
    cpu_s: float
    rss_mib: float
    failure: str | None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict[str, str]) -> tuple[float, float, int]:
    """Run one child process with stdout and stderr in WORK files, never in this
    process; return its wall time, user + system CPU time and exit code."""
    with open(WORK / "stdout", "wb") as out, open(WORK / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        # A blocking wait4: Popen.wait(timeout) polls in sleeps of up to 50 ms,
        # which would round every wall time up to that grid.
        guard = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            guard.cancel()
        wall = time.perf_counter() - start
    code = proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, code


def launch(cmd: workloads.Command, checks: workloads.Checks, env: dict[str, str]) -> Launch:
    """Run one CLI command in a child process and check its output."""
    out_path, err_path, stats_path = WORK / "stdout", WORK / "stderr", WORK / "vmhwm"
    stats_path.unlink(missing_ok=True)
    wall, cpu, code = run_child(
        [sys.executable, str(HERE / "launch.py"), str(stats_path), *cmd.argv], env
    )
    rss = int(stats_path.read_text()) / 1024 if stats_path.exists() else float("nan")
    with open(out_path, "rb") as fh:
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
    stderr_tail = "".join(err_path.read_text(errors="replace").strip().splitlines()[-1:])
    failure = checks.check(
        cmd, code, digest, lambda: open(out_path, encoding="utf-8"), stderr_tail
    )
    return Launch(wall, cpu, rss, failure)


def launch_reference(env: dict[str, str]) -> float:
    """Run the reference load once; return its wall time.  Its check failing
    means a broken environment, not a failed command."""
    wall, _, code = run_child([sys.executable, str(HERE / "reference.py")], env)
    printed = (WORK / "stdout").read_text().split()
    if code or len(printed) != 2 or printed[0] != REFERENCE_WORDS or abs(float(printed[1]) - 1) > 1e-9:
        raise RuntimeError(f"reference load exited {code} and printed {printed}")
    return wall


def bracketed(
    cmds: list[workloads.Command], checks: workloads.Checks, env: dict[str, str]
) -> list[tuple[float, Launch]]:
    """Launch the commands in turn, with a reference launch before, between and
    after them; pair each command with the mean wall time of the two next to it."""
    pairs, before = [], launch_reference(env)
    for cmd in cmds:
        done = launch(cmd, checks, env)
        after = launch_reference(env)
        pairs.append(((before + after) / 2, done))
        before = after
    return pairs


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:
        pass  # not empty: another benchmark process is using it


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment() -> str:
    return (
        f"git {git_sha()}, Python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {os.cpu_count()}, {platform.machine()}"
    )


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(
    workload: str, seed: int, seconds: float, smoke: bool, checks: workloads.Checks
) -> dict[str, dict]:
    cmds = workloads.commands(workload, seed, smoke)
    for cmd in cmds:
        print("command: walkgrammar " + " ".join(cmd.argv))
    env = child_env()
    warm = workloads.Checks()
    launch(workloads.HELP, warm, env)  # compiles bytecode; not counted
    runs: list[list[tuple[float, Launch]]] = []
    setup: list[tuple[float, Launch]] = []
    for _ in workloads.paced(seconds):
        pairs = bracketed([*cmds, *[workloads.HELP] * SETUP_LAUNCHES_PER_ROUND], checks, env)
        runs.append(pairs[: len(cmds)])
        setup += pairs[len(cmds) :]
    if len(setup) < MIN_SETUP_LAUNCHES:
        setup += bracketed([workloads.HELP] * (MIN_SETUP_LAUNCHES - len(setup)), checks, env)

    # Per command, the median over rounds of its time over its reference's wall
    # time.  Not over the reference's CPU time: numpy's import starts threads
    # whose CPU time varies with what the other core is doing.
    wall_rel, cpu_rel = (
        sum(statistics.median(getattr(c, t) / ref for ref, c in reps) for reps in zip(*runs))
        for t in ("wall_s", "cpu_s")
    )
    peaks = [max(c.rss_mib for _, c in rnd) for rnd in runs]
    metrics = {
        "wall_rel": {"value": wall_rel, "unit": "ref"},
        "cpu_rel": {"value": cpu_rel, "unit": "ref"},
        "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MiB"},
        "setup_s": {
            "value": REFERENCE_S * statistics.median(h.wall_s / ref for ref, h in setup),
            "unit": "s",
        },
    }
    for name, metric in metrics.items():
        print(f"{name:<12} {metric['value']:>10.4f}  {metric['unit']}")
    samples = {
        "wall_s": [sum(c.wall_s for _, c in rnd) for rnd in runs],
        "cpu_s": [sum(c.cpu_s for _, c in rnd) for rnd in runs],
        "ref_wall_s": [sum(ref for ref, _ in rnd) for rnd in runs],
        "peak_rss_mb": peaks,
        "help_s": [h.wall_s for _, h in setup],
    }
    print(f"{'measured':<12} {'median':>10} {'q1':>10} {'q3':>10}  samples, per round or per launch")
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"{name:<12} {med:>10.4f} {q1:>10.4f} {q3:>10.4f}  " + " ".join(f"{v:.4f}" for v in values))
    fail_ratio = len(checks.failures) / checks.attempted
    print(f"{'fail_ratio':<12} {fail_ratio:>10.4f}  1  of {checks.attempted} commands")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "walkgrammar" / "cli.py").is_file():
        print(f"error: no walkgrammar sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, smoke {args.smoke}")
    print(f"environment: {environment()}")
    checks = workloads.Checks()
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            import layers

            metrics = layers.run(args.seed, args.seconds, args.smoke, SRC, checks)
        else:
            metrics = end_to_end(args.workload, args.seed, args.seconds, args.smoke, checks)
    finally:
        remove_work()
    for failure in checks.failures[:10]:
        print(f"FAILED {failure}")
    summary = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
