import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from walkgrammar import coalgebra, graphs, language, verify
from walkgrammar.coalgebra import (
    CoproductTable,
    CounitTable,
    FormalSum,
    apply_at,
    apply_counit_at,
    iterate_rightmost,
    markov_pair,
    verify_axiom,
)

from helpers import path_words

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
lift = FormalSum.lift


def sum_of(*words):
    return FormalSum([(tuple(w), 1) for w in words])


def test_formal_sum_drops_zero_coefficients():
    s = lift("a") - lift("a")
    assert not s
    assert len(s) == 0
    assert s == FormalSum()


def test_formal_sum_arithmetic():
    s = lift("a") + lift("a") + lift("b")
    assert dict(s) == {("a",): 2, ("b",): 1}
    assert s - lift("b") == lift("a").scaled(2)
    assert s.scaled(Fraction(1, 2)) == FormalSum([(("a",), 1), (("b",), Fraction(1, 2))])


def test_formal_sum_rejects_empty_words():
    with pytest.raises(ValueError):
        FormalSum([((), 1)])


def test_apply_at_single_letter():
    delta = coalgebra.coproduct_e()
    assert apply_at(delta, lift("b"), 1) == sum_of("ab", "bd")


def test_apply_at_empty_sum():
    delta = coalgebra.coproduct_e()
    assert apply_at(delta, FormalSum(), 1) == FormalSum()


def test_apply_at_second_slot_markov():
    dm, _ = coalgebra.markov_pair_e()
    assert apply_at(dm, sum_of("ac"), 2) == sum_of("aca", "acb")


def test_apply_at_slot_out_of_range_names_word():
    delta = coalgebra.coproduct_e()
    with pytest.raises(ValueError, match="a⊗b"):
        apply_at(delta, sum_of("ab"), 3)


def test_iterate_rightmost_identity():
    dm, _ = coalgebra.markov_pair_e()
    seed = FormalSum.basis("abcd")
    assert iterate_rightmost(dm, seed, 0) == seed


def test_iterate_rightmost_once():
    delta = coalgebra.coproduct_e()
    assert iterate_rightmost(delta, lift("a"), 1) == sum_of("aa", "bc")


def test_iterate_rightmost_reaches_all_paths():
    # Oracle: all length-3 composable words, each exactly once.
    dm, _ = coalgebra.markov_pair_e()
    result = iterate_rightmost(dm, FormalSum.basis("abcd"), 2)
    expected = FormalSum([(tuple(w), 1) for w in path_words(3)])
    assert len(expected) == 16
    assert result == expected


def test_apply_at_linearity_on_random_sums():
    dm, _ = coalgebra.markov_pair_e()
    words = sorted(path_words(1) | path_words(3) | path_words(6))
    rng = random.Random(3)
    for _ in range(25):
        s1 = FormalSum([(tuple(rng.choice(words)), rng.randint(-3, 3)) for _ in range(5)])
        s2 = FormalSum([(tuple(rng.choice(words)), rng.randint(-3, 3)) for _ in range(5)])
        assert apply_at(dm, s1 + s2, 1) == apply_at(dm, s1, 1) + apply_at(dm, s2, 1)


COEFFS = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


def sums(min_len=1, max_len=4):
    """Random formal sums of words over abcd with small exact coefficients."""
    word = st.text("abcd", min_size=min_len, max_size=max_len).map(tuple)
    return st.lists(st.tuples(word, COEFFS), max_size=6).map(FormalSum)


@given(sums(), sums(), sums())
def test_formal_sum_addition_is_an_abelian_group(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + FormalSum() == a
    assert a - a == FormalSum()


@given(sums(), sums(), COEFFS)
def test_scaled_distributes_over_addition(a, b, k):
    assert (a + b).scaled(k) == a.scaled(k) + b.scaled(k)


@given(sums(min_len=2), sums(min_len=2), COEFFS, st.sampled_from([1, 2]))
def test_apply_at_is_linear(a, b, k, slot):
    delta = coalgebra.coproduct_e()
    expected = apply_at(delta, a, slot).scaled(k) + apply_at(delta, b, slot)
    assert apply_at(delta, a.scaled(k) + b, slot) == expected


@given(
    sums(min_len=2),
    sums(min_len=2),
    COEFFS,
    st.sampled_from([1, 2]),
    st.fixed_dictionaries({x: COEFFS for x in "abcd"}).map(CounitTable),
)
def test_apply_counit_at_is_linear(a, b, k, slot, eps):
    expected = apply_counit_at(eps, a, slot).scaled(k) + apply_counit_at(eps, b, slot)
    assert apply_counit_at(eps, a.scaled(k) + b, slot) == expected


@given(sums(), st.integers(0, 3), st.integers(0, 3))
def test_iterate_rightmost_composes(s, m, n):
    delta = coalgebra.coproduct_e()
    once = iterate_rightmost(delta, s, m + n)
    assert once == iterate_rightmost(delta, iterate_rightmost(delta, s, m), n)


def test_coassociativity_of_four_letter_coproduct():
    assert verify_axiom("coassociativity", coalgebra.coproduct_e())


def test_markov_coproduct_not_coassociative():
    # Expanding both sides on the letter a by hand:
    # (d (x) id) d a = aaa + aba + aab + abb, (id (x) d) d a = aaa + aab + abc + abd.
    dm, _ = coalgebra.markov_pair_e()
    report = verify_axiom("coassociativity", dm)
    assert not report.ok
    assert report.witness == "a"
    assert report.lhs == sum_of("aaa", "aba", "aab", "abb")
    assert report.rhs == sum_of("aaa", "aab", "abc", "abd")


def test_breaking_equation_for_all_markov_fixtures():
    for name, (delta, delta_tilde) in coalgebra.markov_fixtures().items():
        assert verify_axiom("breaking-equation", delta, delta_tilde), name


def test_triangle_fixture_is_the_three_cycle_beside_a_grouplike_unit():
    delta, delta_tilde = coalgebra.markov_fixtures()["triangle"]
    lift = FormalSum.lift
    xs = ("x0", "x1", "x2")
    assert delta.alphabet == delta_tilde.alphabet == ("1",) + xs
    assert delta.rules == {"1": lift("1", "1")} | {x: lift(x, xs[(i + 1) % 3]) for i, x in enumerate(xs)}
    assert delta_tilde.rules == {"1": lift("1", "1")} | {x: lift(xs[i - 1], x) for i, x in enumerate(xs)}


def test_flower_is_not_read_off_a_graph():
    # Read as arrows, d gives 1 -> 1 and p -> 1 alone: no arrow enters a petal,
    # yet dt(p) = 1 (x) p needs the arrow 1 -> p, which d(1) = 1 (x) 1 rules out.
    delta, _ = coalgebra.flower_coproducts()
    arrows = [word for v in delta.alphabet for word, _ in delta.apply(v)]
    with pytest.raises(ValueError, match="'p1' is a source"):
        markov_pair(graphs.DirectedGraph(delta.alphabet, arrows))


def test_coalgebra_suite_builds_the_markov_fixtures_once(monkeypatch):
    read_off_graphs = len(coalgebra.markov_fixtures()) - 1  # all but the flower
    calls = []
    for name in ("markov_fixtures", "markov_pair"):
        real = getattr(coalgebra, name)
        monkeypatch.setattr(coalgebra, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    assert all(verify.coalgebra_checks())
    assert calls.count("markov_fixtures") == 1
    assert calls.count("markov_pair") == read_off_graphs


def test_degenerate_pair_satisfies_breaking_equation():
    delta = coalgebra.coproduct_e()
    assert verify_axiom("breaking-equation", delta, delta)


def test_codialgebra_axioms_for_de_bruijn_pairs():
    for n in range(2, 6):
        delta, delta_tilde = markov_pair(graphs.de_bruijn_graph(n))
        for axiom in ("codialgebra-1", "codialgebra-2", "codialgebra-3", "breaking-equation"):
            assert verify_axiom(axiom, delta, delta_tilde), (n, axiom)


def test_counit_laws_of_four_letter_coproduct():
    delta = coalgebra.coproduct_e()
    eps = coalgebra.counit_e()
    assert verify_axiom("right-counit", delta, counit=eps)
    assert verify_axiom("left-counit", delta, delta, left_counit=eps)


def test_de_bruijn_counit_is_exactly_one_over_n():
    for n in range(2, 6):
        delta, delta_tilde = markov_pair(graphs.de_bruijn_graph(n))
        eps = coalgebra.de_bruijn_counit(n)
        assert eps(coalgebra.de_bruijn_labels(n)[0]) == Fraction(1, n)
        assert verify_axiom("right-counit", delta, counit=eps)
        assert verify_axiom("left-counit", delta, delta_tilde, left_counit=eps)


def test_extension_counit_is_kronecker_delta():
    for n in range(2, 6):
        ext = coalgebra.extension_coproduct(n)
        assert verify_axiom("coassociativity", ext)
        assert verify_axiom("right-counit", ext, counit=coalgebra.extension_counit(n))


def test_counit_axiom_without_counit_errors():
    with pytest.raises(ValueError):
        verify_axiom("right-counit", coalgebra.coproduct_e())


def test_unknown_axiom_errors():
    with pytest.raises(ValueError):
        verify_axiom("bialgebra", coalgebra.coproduct_e())


def test_apply_counit_at_contracts_one_slot():
    eps = coalgebra.counit_e()
    s = sum_of("aa", "bc", "ab")
    assert apply_counit_at(eps, s, 2) == lift("a")
    assert apply_counit_at(eps, s, 1) == lift("a") + lift("b")


def test_markov_pair_rejects_sources_and_sinks():
    graph = graphs.DirectedGraph
    with pytest.raises(ValueError, match="sink"):
        markov_pair(graph("ab", [("a", "b"), ("a", "a")]))
    with pytest.raises(ValueError, match="source"):
        markov_pair(graph("ab", [("a", "a"), ("b", "a")]))
    # A loop is an in-arrow and an out-arrow: b's only in-arrow is b -> b,
    # so b is no source and both tables are total.
    _, delta_tilde = markov_pair(graph("ab", [("a", "a"), ("b", "a"), ("b", "b")]))
    assert delta_tilde.rules["b"] == lift("b", "b")


def test_table_validation():
    with pytest.raises(ValueError, match="not total"):
        CoproductTable(("a", "b"), {"a": lift("a", "b")})
    with pytest.raises(ValueError, match="length-2"):
        CoproductTable(("a",), {"a": lift("a", "a", "a")})
    with pytest.raises(ValueError, match="leaves the alphabet"):
        CoproductTable(("a",), {"a": lift("a", "z")})


def test_json_readers_on_the_committed_inputs():
    def read(name):
        return json.loads((INPUTS / name).read_text(encoding="utf-8"))

    dm, dt = coalgebra.markov_pair_e()
    assert CoproductTable.from_json(read("coproduct-e.json")) == coalgebra.coproduct_e()
    assert CoproductTable.from_json(read("markov-e.json")) == dm
    assert CoproductTable.from_json(read("markov-e-in.json")) == dt
    assert CounitTable.from_json(read("counit-e.json")) == coalgebra.counit_e()
    thirds = {"values": {"1": "1/3", "2": "1/3", "3": "1/3"}}
    assert CounitTable.from_json(thirds) == coalgebra.de_bruijn_counit(3)


def test_json_rejects_float_scalars():
    with pytest.raises(ValueError):
        CounitTable.from_json({"values": {"a": 0.5}})


# The paper's four-letter tables, written out by hand.  The package derives
# them from the extension coproduct; these literals pin the result.
PAPER_COPRODUCT = {"a": ("aa", "bc"), "b": ("ab", "bd"), "c": ("dc", "ca"), "d": ("dd", "cb")}
PAPER_COUNIT = {"a": 1, "b": 0, "c": 0, "d": 1}
PAPER_ARROWS = ("aa", "ab", "bc", "bd", "ca", "cb", "dc", "dd")


def test_four_letter_tables_match_the_paper():
    rules = {x: sum_of(*images) for x, images in PAPER_COPRODUCT.items()}
    assert coalgebra.coproduct_e() == CoproductTable(("a", "b", "c", "d"), rules)
    assert coalgebra.counit_e() == CounitTable(PAPER_COUNIT)
    paper_graph = graphs.DirectedGraph("abcd", [tuple(w) for w in PAPER_ARROWS])
    assert coalgebra.markov_pair_e() == markov_pair(paper_graph)
    dm, dt = coalgebra.markov_pair_e()
    assert dm.rules["c"] == sum_of("ca", "cb")
    assert dt.rules["c"] == sum_of("bc", "dc")
    assert language.WINDOW == {"a": "PP", "b": "PQ", "c": "QP", "d": "QQ"}
    assert language.SUCCESSORS == {"a": "ab", "b": "cd", "c": "ab", "d": "cd"}
    assert {x: sorted(r) for x, r in language.COASSOC_RULES.items()} == {
        x: sorted(images) for x, images in PAPER_COPRODUCT.items()
    }


@pytest.mark.parametrize(
    "blob",
    [
        {"alphabet": 5},
        [1, 2],
        {"alphabet": ["a"], "rules": []},
        {"alphabet": [["a"]], "rules": {}},
        {"alphabet": ["a"], "rules": {"a": 3}},
        {"alphabet": ["a"], "rules": {"a": [["a", "a"]]}},
        {"alphabet": ["a"], "rules": {"a": [[["a"], "a", 1]]}},
        {"alphabet": ["a"], "rules": {"a": [["a", "a", "1/0"]]}},
        # JSON true loads as Python True, an int equal to 1.
        {"alphabet": ["a"], "rules": {"a": [["a", "a", True]]}},
    ],
)
def test_coproduct_json_rejects_wrong_shapes(blob):
    with pytest.raises(ValueError):
        CoproductTable.from_json(blob)


@pytest.mark.parametrize(
    "blob", [[1], {"values": 3}, {"values": {"a": [1]}}, {"a": 1}, {"values": {"a": True}}]
)
def test_counit_json_rejects_wrong_shapes(blob):
    with pytest.raises(ValueError):
        CounitTable.from_json(blob)
