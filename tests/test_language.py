import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkgrammar import coalgebra, language, verify, walk
from walkgrammar.coalgebra import CoproductTable, FormalSum, iterate_rightmost
from walkgrammar.language import (
    contract,
    generate,
    word_index,
    words_at_vertex,
)
from walkgrammar.walk import run_symbolic

from helpers import contract_oracle, index_oracle, path_word_error, path_words


def test_contract_examples():
    assert contract("abc") == "PPQP"
    assert contract("a") == "PP"
    assert contract("bdd") == "PQQQ"
    assert contract("bdd") == contract_oracle("bdd")


def test_contract_rejects_bad_junctions():
    with pytest.raises(ValueError, match="position 0"):
        contract("ba")
    with pytest.raises(ValueError, match="position 1"):
        contract("abb")
    with pytest.raises(ValueError, match="nonempty"):
        contract("")
    with pytest.raises(ValueError, match="unknown"):
        contract("axb")


def test_word_index_examples():
    assert word_index("a") == -2
    assert word_index("ab") == -1
    assert word_index("d") == 2


def test_word_index_matches_contraction_counts():
    for length in range(1, 9):
        for w in path_words(length):
            assert word_index(w) == index_oracle(w)


def test_generate_small_times():
    assert generate(2) == frozenset("abcd")
    assert generate(3) == frozenset({"aa", "ab", "bc", "bd", "ca", "cb", "dc", "dd"})
    with pytest.raises(ValueError):
        generate(1)
    with pytest.raises(ValueError):
        generate(3, "chomsky")


def test_generate_matches_path_enumeration():
    for t in range(2, 11):
        words = generate(t)
        assert words == path_words(t - 1)
        assert len(words) == 2**t


def test_generated_words_stay_composable():
    for grammar in ("markov", "coassoc"):
        for w in generate(6, grammar):
            language.require_path_word(w)


def test_grammar_equivalence():
    for t in range(2, 11):
        assert generate(t, "markov") == generate(t, "coassoc")


def test_generate_sum_has_unit_coefficients():
    # The rightmost iterate of either grammar table on a+b+c+d is the
    # multiset of time-t words, each exactly once.
    for grammar in ("markov", "coassoc"):
        seed = FormalSum.basis(language.LETTERS)
        s = iterate_rightmost(language.grammar_table(grammar), seed, 5 - 2)
        assert all(c == 1 for _, c in s)
        assert {"".join(w) for w in s.words()} == generate(5, grammar)


def test_generate_refuses_times_past_the_cap():
    # Refused before anything is built: at the cap + 1 that is 2^25 words.
    cap = language.WORD_TIME_MAX
    for call in (lambda: generate(cap + 1), lambda: generate(cap + 1, "coassoc"),
                 lambda: words_at_vertex(cap + 1, 1)):
        with pytest.raises(ValueError, match="word-set cap"):
            call()


def test_time4_words_at_minus_two_contract_to_walk_cell():
    words = words_at_vertex(4, -2)
    assert [contract(w) for w in words] == ["PPPQ", "PPQP", "PQPP", "QPPP"]


def test_words_at_vertex_examples():
    assert words_at_vertex(3, -1) == ("ab", "bc", "ca")
    assert words_at_vertex(2, 0) == ("b", "c")
    assert [contract(w) for w in words_at_vertex(2, 0)] == ["PQ", "QP"]
    assert words_at_vertex(4, 4) == ("ddd",)


def test_an_edge_vertex_builds_only_its_word():
    # One word per length: the band of counts is one wide at the edge.
    tracemalloc.start()
    try:
        words = words_at_vertex(24, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words == ("d" * 23,)
    assert peak < 1 << 20


def test_words_at_vertex_parity_and_errors():
    assert words_at_vertex(3, 0) == ()
    assert words_at_vertex(3, 9) == ()
    with pytest.raises(ValueError):
        words_at_vertex(1, 1)


@pytest.mark.parametrize("t", range(2, 13))
def test_words_at_vertex_is_the_filter_of_generate(t):
    words = generate(t)
    for k in range(-t - 1, t + 2):
        assert words_at_vertex(t, k) == tuple(sorted(w for w in words if word_index(w) == k))


def test_pq_cells_are_the_fixed_count_words_in_sorted_order():
    for t in range(9):
        ks = list(language.vertices(t))
        by_count = [
            "+".join(w for w in map("".join, itertools.product("PQ", repeat=t)) if w.count("P") == p)
            for p in range(t + 1)
        ]
        assert list(language.pq_cells(t, ks)) == [by_count[(t - k) // 2] for k in ks]
        # Any vertices, in any order, each cell built alone.
        assert list(language.pq_cells(t, ks[::-2])) == [by_count[(t - k) // 2] for k in ks[::-2]]
        # One vertex builds only the band of counts it grows from.
        for k in ks:
            assert list(language.pq_cells(t, [k])) == [by_count[(t - k) // 2]]


def test_pq_cells_refuse_off_lattice_vertices_and_times_past_the_cap():
    with pytest.raises(ValueError, match="vertex 1 is off the time-4 lattice"):
        language.pq_cells(4, [0, 1])
    with pytest.raises(ValueError, match="word-set cap"):
        language.pq_cells(language.WORD_TIME_MAX + 1, [1])


def test_off_lattice_vertex_past_the_cap_is_refused():
    with pytest.raises(ValueError, match="word-set cap"):
        words_at_vertex(10**9, 1)


# Late breaks come from a path with a tail appended.
WORDS = st.one_of(
    st.text("abcdx", max_size=12),
    st.tuples(st.sampled_from(sorted(path_words(7))), st.text("abcdx", max_size=3)).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(WORDS)
def test_require_path_word_matches_the_letter_scan(word):
    expected = path_word_error(word)
    if expected is None:
        assert language.require_path_word(word) == word
    else:
        with pytest.raises(ValueError) as info:
            language.require_path_word(word)
        assert str(info.value) == expected


def test_bijection_with_symbolic_walk():
    for t in range(2, 13):
        state = run_symbolic(t)
        seen = {}
        for w in generate(t):
            m = contract(w)
            assert m not in seen, "contraction must be injective on generated words"
            seen[m] = w
        for k in language.vertices(state.time):
            assert tuple(map(contract, words_at_vertex(t, k))) == state.cell(k)


LEMMA_NAMES = [
    "lemma-sum-ab",
    "lemma-sum-cd",
    "lemma-contraction-mult",
    "mixed-coassoc",
    "corollary-equality",
    "rightmost iterates of the two grammars agree at every depth",
]


def lemma_holds(name):
    (result,) = [c for c in verify.lemma_checks() if c.name == f"lemma: {name}"]
    return result.ok


def test_lemma_checks_are_the_grammar_lemmas_in_order():
    results = verify.lemma_checks()
    assert [c.name for c in results] == [f"lemma: {name}" for name in LEMMA_NAMES]
    assert all(results)


def test_lemma_sums():
    assert lemma_holds("lemma-sum-ab")
    dm = language.grammar_table("markov")
    dc = language.grammar_table("coassoc")
    expected = dm.apply("a") + dm.apply("b")
    assert dc.apply("a") + dc.apply("b") == expected
    assert sorted("".join(w) for w in expected.words()) == ["aa", "ab", "bc", "bd"]
    assert lemma_holds("lemma-sum-cd")


def test_lemma_contraction_mult():
    assert lemma_holds("lemma-contraction-mult")
    for x in "bd":
        assert contract(x + "c") + "P" == contract(x + "ca")
    assert contract("b") + "P" == contract("bc")
    assert contract("b") + "Q" == contract("bd")


def test_mixed_coassociativity():
    assert lemma_holds("mixed-coassoc")


def test_corollary_equality():
    assert lemma_holds("corollary-equality")


def test_the_corollary_is_enumerated_to_depth_seven(monkeypatch):
    depths = []
    iterate = coalgebra.iterate_rightmost

    def recording(table, seed, n):
        out = iterate(table, seed, n)
        depths.append(len(next(iter(out))[0]) - 1)
        return out

    monkeypatch.setattr(coalgebra, "iterate_rightmost", recording)
    # The depth is fixed: the smallest max_t that `verify all` takes enumerates it too.
    assert all(verify.run_all(3))
    assert depths == [n for n in range(1, verify.COROLLARY_DEPTH_MAX + 1) for _ in range(2)]


def test_the_grammars_agree_at_every_depth_with_reachable_dimension_two():
    (result,) = [c for c in verify.lemma_checks() if c.name == f"lemma: {LEMMA_NAMES[-1]}"]
    assert result.ok and result.detail == "reachable dimension 2"


@pytest.mark.parametrize("letter", language.LETTERS)
def test_the_grammars_part_from_a_single_letter(letter):
    markov, coassoc = language.grammar_table("markov"), language.grammar_table("coassoc")
    agree, _ = verify.rightmost_equivalence(markov, coassoc, FormalSum.basis(letter))
    assert not agree


def _coassoc_moving(source, word, target):
    """The coassociative grammar table with the term `word` moved from source's image to target's."""
    table = language.grammar_table("coassoc")
    term = FormalSum([(tuple(word), 1)])
    rules = {**table.rules, source: table.apply(source) - term, target: table.apply(target) + term}
    return CoproductTable(table.alphabet, rules)


def _first_parting_depth(left, right, depth):
    """The least n <= depth at which the rightmost iterates on a+b+c+d differ, else None."""
    lhs = rhs = FormalSum.basis(language.LETTERS)
    for n in range(1, depth + 1):
        lhs, rhs = iterate_rightmost(left, lhs, 1), iterate_rightmost(right, rhs, 1)
        if lhs != rhs:
            return n
    return None


def test_the_automaton_matches_the_enumeration_on_tables_with_one_term_moved():
    # Moving a term between two images keeps the depth-1 iterate of a+b+c+d.
    markov, coassoc = language.grammar_table("markov"), language.grammar_table("coassoc")
    moves = [
        (x, "".join(w), y)
        for x in coassoc.alphabet
        for w, _ in coassoc.apply(x)
        for y in coassoc.alphabet
        if y != x
    ]
    verdicts = {}
    for move in moves:
        table = _coassoc_moving(*move)
        agree, _ = verify.rightmost_equivalence(markov, table, FormalSum.basis(language.LETTERS))
        parted = _first_parting_depth(markov, table, 8)
        assert agree == (parted is None), move
        assert parted is None or parted >= 2, move
        verdicts[move] = agree
    assert len(verdicts) == 24
    assert list(verdicts.values()).count(False) == 16


def _coassoc_with(symbol, *words):
    """The coassociative grammar table with one rule image replaced."""
    table = language.grammar_table("coassoc")
    image = FormalSum([(tuple(w), 1) for w in words])
    return CoproductTable(table.alphabet, {**table.rules, symbol: image})


def _fault_sum_ab(monkeypatch):
    # a -> aa + bc becomes aa + bd, so a+b no longer matches the Markov side.
    monkeypatch.setitem(language.GRAMMAR_TABLES, "coassoc", _coassoc_with("a", "aa", "bd"))


def _fault_sum_cd(monkeypatch):
    monkeypatch.setitem(language.GRAMMAR_TABLES, "coassoc", _coassoc_with("c", "dc", "cb"))


def _fault_contraction(monkeypatch):
    # Read QP as d and QQ as c: the appended letter no longer appends its symbol.
    monkeypatch.setattr(language, "LETTER", {**language.LETTER, "QP": "d", "QQ": "c"})


def _fault_mixed(monkeypatch):
    # Apply the inner coproduct at the first slot whatever slot is asked for.
    apply_at = coalgebra.apply_at
    monkeypatch.setattr(coalgebra, "apply_at", lambda table, s, slot: apply_at(table, s, 1))


def _fault_every_depth(monkeypatch):
    # a -> aa + bc gives aa to c: the depth-1 iterates agree, the depth-2 ones do not.
    monkeypatch.setitem(language.GRAMMAR_TABLES, "coassoc", _coassoc_moving("a", "aa", "c"))


def _fault_corollary(monkeypatch):
    # Drop one word from every coassociative iteration step.
    iterate = coalgebra.iterate_rightmost
    coassoc = language.grammar_table("coassoc")

    def dropping(table, seed, n):
        out = iterate(table, seed, n)
        return FormalSum(list(out)[1:]) if table is coassoc else out

    monkeypatch.setattr(coalgebra, "iterate_rightmost", dropping)


@pytest.mark.parametrize(
    "name, fault",
    zip(
        LEMMA_NAMES,
        [
            _fault_sum_ab,
            _fault_sum_cd,
            _fault_contraction,
            _fault_mixed,
            _fault_corollary,
            _fault_every_depth,
        ],
    ),
)
def test_each_lemma_check_fails_under_its_fault(monkeypatch, name, fault):
    assert lemma_holds(name)
    fault(monkeypatch)
    assert not lemma_holds(name)


def test_verify_ties_the_grammar_to_the_walk_cells(monkeypatch):
    def check():
        (result,) = [
            c for c in verify.language_checks(6) if c.name.startswith("letter words match walk cells")
        ]
        return result.ok

    assert check()
    full = generate

    def missing_one(t, grammar="markov"):
        return full(t, grammar) - {min(full(t, grammar))}

    monkeypatch.setattr(language, "generate", missing_one)
    assert not check()


def test_language_suite_builds_each_level_once(monkeypatch):
    levels = []

    def recording(t, grammar="markov"):
        levels.append((t, grammar))
        return generate(t, grammar)

    monkeypatch.setattr(language, "generate", recording)
    monkeypatch.setattr(language, "word_index", None)
    assert all(verify.language_checks(6))
    assert levels == [(t, g) for t in range(2, 7) for g in ("markov", "coassoc")]


def test_language_suite_compares_word_sets_to_t_eight(monkeypatch):
    levels = []

    def recording(t, grammar="markov"):
        levels.append((t, grammar))
        return generate(t, grammar)

    monkeypatch.setattr(language, "generate", recording)
    assert all(verify.language_checks(10))
    compared = range(2, verify.GRAMMAR_WORDS_T_MAX + 1)
    assert levels == [(t, g) for t in compared for g in ("markov", "coassoc")] + [(10, "markov")]


@pytest.mark.parametrize("max_t", [0, 1])
def test_language_suite_below_time_two_is_refused_before_any_level(monkeypatch, max_t):
    monkeypatch.setattr(language, "generate", None)
    monkeypatch.setattr(walk, "run_symbolic", None)
    with pytest.raises(ValueError, match=f"need max_t >= 2, got {max_t}"):
        verify.language_checks(max_t)
