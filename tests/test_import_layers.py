"""The exact commands run without numpy; the numeric ones load it on use.

Each check runs in a fresh interpreter: the test process itself has long
imported numpy.
"""

import importlib
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
        "walkgrammar.run_numeric\n"
        "print('numpy' in sys.modules)\n"
    )
    assert probe(code) == ["False", "True"]


# The package's export list, by the module that defines each name.
EXPORTS = {
    "coalgebra": [
        "CoproductTable", "CounitTable", "FormalSum", "apply_at", "coproduct_e", "counit_e",
        "iterate_rightmost", "markov_pair", "markov_pair_e", "verify_axiom",
    ],
    "graphs": [
        "DirectedGraph", "StochMatrix", "bernoulli_matrix", "de_bruijn_graph", "extension",
        "ks_entropy", "x_decomposition",
    ],
    "language": ["check_lemma", "contract", "generate", "word_index", "words_at_vertex"],
    "orbits": [
        "Pattern", "canonicalize", "complete", "decompose", "fundamental_orbits", "grow",
        "orbit_count_lower_bound", "orbit_index", "orbits_at_time", "read",
    ],
    "quantize": [
        "CoinPair", "coin_from_angles", "hadamard", "hadamard_coin", "is_unistochastic",
        "jones_generators", "random_unitary", "row_split", "verify_channel",
        "verify_pq_relations",
    ],
    "walk": [
        "NumericState", "SymbolicState", "commutator_check", "distribution", "evaluate",
        "initial_symbolic", "run_numeric", "run_symbolic", "shift_conjugacy_check",
        "step_numeric", "step_symbolic",
    ],
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_exported_name_resolves_to_its_module_object(module):
    defining = importlib.import_module(f"walkgrammar.{module}")
    for name in EXPORTS[module]:
        assert getattr(walkgrammar, name) is getattr(defining, name), name
    assert getattr(walkgrammar, module) is defining


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        walkgrammar.no_such_name
