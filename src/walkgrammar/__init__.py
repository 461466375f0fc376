"""Coin-driven quantum walk on the integers with its path grammar and orbits.

The names of the numeric layer, `quantize` and `walk`, are imported on
first access (PEP 562), so `import walkgrammar` does not import numpy.
"""

import importlib

from .coalgebra import (
    CoproductTable,
    CounitTable,
    FormalSum,
    apply_at,
    coproduct_e,
    counit_e,
    iterate_rightmost,
    markov_pair,
    markov_pair_e,
    verify_axiom,
)
from .graphs import (
    DirectedGraph,
    StochMatrix,
    bernoulli_matrix,
    de_bruijn_graph,
    extension,
    ks_entropy,
    x_decomposition,
)
from .language import check_lemma, contract, generate, word_index, words_at_vertex
from .orbits import (
    Pattern,
    canonicalize,
    complete,
    decompose,
    fundamental_orbits,
    grow,
    orbit_count_lower_bound,
    orbit_index,
    orbits_at_time,
    read,
)

_NUMERIC = {
    "quantize": (
        "CoinPair",
        "coin_from_angles",
        "hadamard",
        "hadamard_coin",
        "is_unistochastic",
        "jones_generators",
        "random_unitary",
        "row_split",
        "verify_channel",
        "verify_pq_relations",
    ),
    "walk": (
        "NumericState",
        "SymbolicState",
        "commutator_check",
        "distribution",
        "evaluate",
        "initial_symbolic",
        "run_numeric",
        "run_symbolic",
        "shift_conjugacy_check",
        "step_numeric",
        "step_symbolic",
    ),
}


def __getattr__(name: str):
    for module, names in _NUMERIC.items():
        if name == module or name in names:
            found = importlib.import_module(f".{module}", __name__)
            return found if name == module else getattr(found, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
