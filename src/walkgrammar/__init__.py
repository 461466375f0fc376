"""Coin-driven quantum walk on the integers with its path grammar and orbits."""

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
    is_unistochastic,
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
from .quantize import (
    CoinPair,
    coin_from_angles,
    hadamard,
    hadamard_coin,
    jones_generators,
    random_unitary,
    row_split,
    verify_channel,
    verify_pq_relations,
)
from .walk import (
    NumericState,
    SymbolicState,
    commutator_check,
    distribution,
    evaluate,
    initial_symbolic,
    run_numeric,
    run_symbolic,
    shift_conjugacy_check,
    step_numeric,
    step_symbolic,
)

__version__ = "0.1.0"
