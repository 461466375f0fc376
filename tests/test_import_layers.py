"""The exact commands run without numpy; the numeric ones load it on use.

Each check runs in a fresh interpreter: the test process itself has long
imported numpy.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import walkgrammar

SRC = str(Path(walkgrammar.__file__).resolve().parents[1])
INPUTS = Path(__file__).parent / "golden" / "inputs"

# Runs the CLI on its arguments, then prints whether numpy is loaded.
CLI_PROBE = """
import sys
from walkgrammar import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
print("numpy" in sys.modules)
"""


def probe(code: str, *argv: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=60,
    )
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
    assert probe(CLI_PROBE, *argv)[-1] == "False"


def test_walk_run_loads_numpy():
    assert probe(CLI_PROBE, "walk", "run", "--steps", "2")[-1] == "True"


def test_importing_the_package_does_not_load_numpy():
    code = (
        "import sys, walkgrammar\n"
        "print('numpy' in sys.modules)\n"
        "import walkgrammar.walk\n"
        "print('numpy' in sys.modules)\n"
    )
    assert probe(code) == ["False", "True"]
