import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from walkgrammar import graphs, verify
from walkgrammar.coalgebra import extension_coproduct
from walkgrammar.graphs import (
    DirectedGraph,
    StochMatrix,
    bernoulli_matrix,
    de_bruijn_graph,
    extension,
    ks_entropy,
    regular_system_matrix,
    row_split,
)
from walkgrammar.quantize import hadamard
from walkgrammar.verify import is_unistochastic, verify_x_relations

from helpers import ADJACENT, PAIRS, dense_product, random_bistochastic, run_python, x_relation_failures


def test_de_bruijn_two_vertices():
    g = de_bruijn_graph(2)
    assert g.vertices == {"P", "Q"}
    assert g.edges == {("P", "P"), ("P", "Q"), ("Q", "P"), ("Q", "Q")}


def test_de_bruijn_is_complete_with_loops():
    assert len(de_bruijn_graph(3).edges) == 9
    for p in (2, 3, 4):
        g = de_bruijn_graph(p)
        assert len(g.vertices) == p
        assert len(g.edges) == p * p
        assert all((v, v) in g.edges for v in g.vertices)


def test_de_bruijn_rejects_small_p():
    with pytest.raises(ValueError):
        de_bruijn_graph(1)


def test_extension_of_two_letter_de_bruijn_is_the_letter_graph():
    ext = extension(de_bruijn_graph(2))
    to_letter = {f"{PAIRS[l][0]}|{PAIRS[l][1]}": l for l in PAIRS}
    assert set(to_letter) == ext.vertices
    relabeled = {(to_letter[u], to_letter[v]) for u, v in ext.edges}
    assert relabeled == {(x, y) for x in ADJACENT for y in ADJACENT[x]}


def test_extension_sizes():
    for p in (2, 3, 4):
        ext = extension(de_bruijn_graph(p))
        assert len(ext.vertices) == p**2
        assert len(ext.edges) == p**3


@pytest.mark.parametrize("p", range(2, 6))
def test_extension_graph_is_the_extension_coproduct(p):
    """Vertices are the coproduct's alphabet; edges are the words of its summands."""
    ext, table = extension(de_bruijn_graph(p)), extension_coproduct(p)
    assert ext.vertices == set(table.alphabet)
    assert ext.edges == {word for x in table.alphabet for word, _ in table.apply(x)}


def test_extension_fixed_points():
    # The empty graph has no edges, so its line graph is empty too.
    assert extension(DirectedGraph((), ())) == DirectedGraph((), ())
    loop = DirectedGraph(["v"], [("v", "v")])
    ext = extension(loop)
    assert len(ext.vertices) == 1 and len(ext.edges) == 1

    triangle = DirectedGraph("xyz", [("x", "y"), ("y", "z"), ("z", "x")])
    ext = extension(triangle)
    assert len(ext.vertices) == 3
    # Hand enumeration: the three edges chain cyclically and nothing else.
    assert ext.edges == {("x|y", "y|z"), ("y|z", "z|x"), ("z|x", "x|y")}


def test_bernoulli_matrix():
    b = bernoulli_matrix(2)
    assert b.rows == ((Fraction(1, 2),) * 2,) * 2
    assert b.is_bistochastic
    assert all(sum(row) == 1 for row in bernoulli_matrix(3).rows)
    with pytest.raises(ValueError):
        bernoulli_matrix(1)


def test_stoch_matrix_validation():
    with pytest.raises(ValueError, match="row"):
        StochMatrix([[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="square"):
        StochMatrix([[1, 0]])
    with pytest.raises(TypeError):
        StochMatrix([[0.5, 0.5], [0.5, 0.5]])


def test_stoch_matrix_text_entries_are_integers_or_fractions():
    assert StochMatrix([["1/3", "2/3"], [1, "0"]]).rows == (
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(1), Fraction(0)),
    )
    for text in ("0.5", " 1", "1/0"):
        with pytest.raises(ValueError, match="scalar"):
            StochMatrix([[text]])


def test_exponent_entry_is_refused_at_once():
    # Fraction reads "1e10000000" as a ten-million-digit integer, which runs for minutes.
    code = "from walkgrammar.graphs import StochMatrix; StochMatrix([['1e10000000']])"
    done = run_python("-c", code, timeout=10)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == (
        "ValueError: scalar must be an int or a 'p/q' string, got '1e10000000'"
    )


def test_ks_entropy_zero_iff_deterministic():
    assert ks_entropy(regular_system_matrix()) == 0.0
    assert ks_entropy(StochMatrix([[1, 0], [0, 1]])) == 0.0


def test_ks_entropy_of_uniform_matrices():
    # Oracle: -sum_i (1/n) sum_j (1/n) log(1/n) = log n.
    assert ks_entropy(bernoulli_matrix(2)) == pytest.approx(math.log(2), abs=1e-12)
    for n in range(2, 9):
        assert ks_entropy(bernoulli_matrix(n)) == pytest.approx(math.log(n), abs=1e-12)


def test_verify_checks_ks_entropy():
    (check,) = [c for c in verify.quantize_checks() if c.name.startswith("KS entropy")]
    assert check.ok


def test_ks_entropy_rejects_non_bistochastic():
    b = StochMatrix([[1, 0], [Fraction(1, 2), Fraction(1, 2)]])
    assert not b.is_bistochastic
    with pytest.raises(ValueError):
        ks_entropy(b)


def test_x_decomposition_of_uniform_matrix():
    # X_h, the row matrices of B, are the row split of its rows.
    half = Fraction(1, 2)
    x1, x2 = row_split(bernoulli_matrix(2).rows)
    assert x1 == ((half, half), (0, 0))
    assert x2 == ((0, 0), (half, half))
    # X1 X2 = B_12 X2 with the product read in application order (X1 first).
    product = verify._mat_mul_exact(x2, x1)
    assert product == tuple(tuple(half * v for v in row) for row in x2)


def test_x_decomposition_sums_to_b_on_random_matrices():
    rng = np.random.default_rng(5)
    for dim in range(2, 7):
        for _ in range(4):
            b = random_bistochastic(rng, dim)
            entries = row_split(b.rows)
            for i in range(dim):
                for j in range(dim):
                    assert sum(e[i][j] for e in entries) == b.rows[i][j]


def test_x_relations_on_uniform_and_identity():
    for n in range(2, 9):
        assert verify_x_relations(bernoulli_matrix(n))
    assert verify_x_relations(StochMatrix([[1, 0], [0, 1]]))


def test_x_relations_report_failures_on_permutation():
    # The row-product relation needs identical rows; the staircase
    # permutation is a counterexample, and the check must fail on it.
    b = regular_system_matrix()
    assert verify_x_relations(b) is False
    assert x_relation_failures(b.rows)


def test_x_relations_match_the_dense_product_oracle():
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    # Non-uniform: half the identity, a quarter each of two other permutations.
    mixed = StochMatrix(
        [
            [half + quarter, quarter, 0, 0],
            [quarter, half, quarter, 0],
            [0, quarter, half, quarter],
            [0, 0, quarter, half + quarter],
        ]
    )
    assert mixed.is_bistochastic
    matrices = [bernoulli_matrix(n) for n in range(2, 7)] + [
        StochMatrix([[int(i == j) for j in range(4)] for i in range(4)]),
        regular_system_matrix(),
        mixed,
    ]
    for b in matrices:
        assert verify_x_relations(b) == (not x_relation_failures(b.rows))
        # B.B sums several nonzero terms per entry; X products sum at most one.
        for x, y in [(b.rows, b.rows)] + list(itertools.product(row_split(b.rows), repeat=2)):
            assert verify._mat_mul_exact(x, y) == dense_product(x, y)
    assert x_relation_failures(mixed.rows)


def test_is_unistochastic_witness():
    b2 = bernoulli_matrix(2)
    assert is_unistochastic(b2, hadamard())
    assert not is_unistochastic(b2, np.eye(2))
    with pytest.raises(ValueError):
        is_unistochastic(b2, np.eye(3))


def test_dot_export():
    dot = de_bruijn_graph(2).to_dot()
    assert dot.startswith("digraph G {")
    assert '"P" -> "Q";' in dot
    assert dot == de_bruijn_graph(2).to_dot()


def test_csv_uses_exact_fraction_strings():
    assert bernoulli_matrix(3).to_csv() == "1/3,1/3,1/3\n1/3,1/3,1/3\n1/3,1/3,1/3\n"
    assert regular_system_matrix().to_csv() == "0,0,1\n1,0,0\n0,1,0\n"


def test_sizes_past_the_dimension_cap_are_refused():
    assert len(de_bruijn_graph(graphs.DIMENSION_MAX).vertices) == graphs.DIMENSION_MAX
    for build in (de_bruijn_graph, bernoulli_matrix):
        with pytest.raises(ValueError, match="dimension cap"):
            build(graphs.DIMENSION_MAX + 1)
