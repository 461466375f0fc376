"""The exact commands run without numpy, dataclasses or inspect; the numeric ones load numpy
on use, with one BLAS thread, and none loads numpy.random.

Each check runs in a fresh interpreter: the test process itself has long
imported numpy.  The interpreter's environment has no OPENBLAS_NUM_THREADS
unless a test sets it: in-process CLI runs in this process leave it set.
"""

import ast
import os
from pathlib import Path

import pytest

from helpers import run_python

INPUTS = Path(__file__).parent / "golden" / "inputs"

# Runs the CLI on its arguments, then prints one expression over the process's state.
CLI_PROBE_THEN = """
import os, sys
from walkgrammar import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print({})
"""
# The modules of this set that the run loaded.  numpy itself loads inspect.
CLI_PROBE = CLI_PROBE_THEN.format('sorted({"numpy", "dataclasses", "inspect"} & sys.modules.keys())')
THREAD_PROBE = CLI_PROBE_THEN.format('len(os.listdir("/proc/self/task"))')
BLAS_ENV_PROBE = CLI_PROBE_THEN.format('os.environ["OPENBLAS_NUM_THREADS"]')
# numpy.random loads secrets and hashlib with it: 6.4 MiB of peak RSS.
RANDOM_PROBE = CLI_PROBE_THEN.format('sorted({"numpy.random", "secrets", "hashlib"} & sys.modules.keys())')


def probe(code: str, *argv: str, **env: str) -> list[str]:
    done = run_python("-c", code, *argv, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


EXACT_COMMANDS = [
    ["lang", "generate", "--t", "6"],
    ["lang", "generate", "--t", "6", "--vertex", "0"],
    ["orbits", "enumerate", "--t", "6"],
    ["orbits", "read", "--pattern", "abddc"],
    ["orbits", "decompose", "--pattern", "abddc"],
    ["graph", "export", "--de-bruijn", "2", "--extension"],
    ["verify", "axiom", "--axiom", "coassociativity", "--delta", str(INPUTS / "coproduct-e.json")],
    ["--help"],
]


@pytest.mark.parametrize("argv", EXACT_COMMANDS, ids=" ".join)
def test_exact_commands_do_not_load_numpy(argv):
    assert probe(CLI_PROBE, *argv)[-1] == "[]"


def test_walk_run_loads_numpy():
    assert "numpy" in ast.literal_eval(probe(CLI_PROBE, "walk", "run", "--steps", "2")[-1])


def test_importing_the_package_does_not_load_numpy():
    code = (
        "import sys, walkgrammar\n"
        "print('numpy' in sys.modules)\n"
        "import walkgrammar.walk\n"
        "print('numpy' in sys.modules)\n"
    )
    assert probe(code) == ["False", "True"]


NUMPY_COMMANDS = [
    ["walk", "run", "--steps", "20"],
    ["walk", "plot", "--steps", "20"],
    ["coin", "check"],
    ["verify", "all", "--max-t", "3"],
    ["orbits", "verify", "--max-t", "3"],
]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads")
@pytest.mark.parametrize("argv", NUMPY_COMMANDS + EXACT_COMMANDS[:2], ids=" ".join)
def test_every_command_runs_as_one_thread(argv):
    assert probe(THREAD_PROBE, *argv)[-1] == "1"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--max-t", "4"],
        ["orbits", "verify", "--max-t", "4"],
        ["walk", "run", "--steps", "20"],
        ["walk", "plot", "--steps", "20"],
        ["coin", "check"],
    ],
    ids=" ".join,
)
def test_no_command_loads_numpy_random(argv):
    assert probe(RANDOM_PROBE, *argv)[-1] == "[]"


def test_the_callers_blas_thread_count_is_kept():
    assert probe(BLAS_ENV_PROBE, "walk", "run", "--steps", "2", OPENBLAS_NUM_THREADS="2")[-1] == "2"
