"""Self-contained verification suite behind `verify all` and `orbits verify`.

Each check recomputes its expected side from scratch (hard-coded tables
from the source text, or a brute-force enumeration) rather than trusting
the module under test.  Every law the package checks is computed here.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter, deque
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import coalgebra, graphs, language, orbits, quantize, walk

UNITARITY_TOL = 1e-10
COMMUTATOR_TOL = 1e-14
WITNESS_TOL = 1e-12
# `verify all` at max_t holds the 2^max_t words of the walk, language and orbit
# suites' last levels.
RUN_ALL_MAX_T = 20
# Two automata with 8 states in all that agree to depth 7 agree at every depth
# (`rightmost_equivalence`).  So the corollary is enumerated to depth 7 at every
# max_t, and the word sets compared to t = 8, as tests of `iterate_rightmost` and
# `generate`; the automaton check states both identities at every depth.
COROLLARY_DEPTH_MAX = 7
GRAMMAR_WORDS_T_MAX = 8


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


# Non-null walk polynomials for t <= 4.
XI_TABLE = {
    0: {0: {""}},
    1: {-1: {"P"}, 1: {"Q"}},
    2: {-2: {"PP"}, 0: {"PQ", "QP"}, 2: {"QQ"}},
    3: {
        -3: {"PPP"},
        -1: {"QPP", "PQP", "PPQ"},
        1: {"PQQ", "QPQ", "QQP"},
        3: {"QQQ"},
    },
    4: {
        -4: {"PPPP"},
        -2: {"QPPP", "PQPP", "PPQP", "PPPQ"},
        0: {"PPQQ", "PQPQ", "PQQP", "QQPP", "QPQP", "QPPQ"},
        2: {"PQQQ", "QPQQ", "QQPQ", "QQQP"},
        4: {"QQQQ"},
    },
}


def closed_walks(t: int) -> frozenset[orbits.Pattern]:
    """Brute-force enumeration of all closed length-t walks, canonicalized.

    Every closed walk has a rotation that starts at its least letter, so
    the search from letter x steps to no letter below x.  Each walk is
    rotated once into a set of necklaces; each necklace then becomes one
    validated Pattern.
    """
    necklaces: set[str] = set()

    def extend(path: str) -> None:
        if len(path) == t:
            if path[0] in language.SUCCESSORS[path[-1]]:
                necklaces.add(orbits.least_rotation(path))
            return
        for nxt in language.SUCCESSORS[path[-1]]:
            if nxt >= path[0]:
                extend(path + nxt)

    for letter in language.LETTERS:
        extend(letter)
    return frozenset(map(orbits.Pattern, necklaces))


def coalgebra_checks() -> list[CheckResult]:
    results = []
    delta_e = coalgebra.coproduct_e()
    eps_e = coalgebra.counit_e()
    results.append(
        CheckResult(
            "four-letter coproduct is coassociative",
            bool(coalgebra.verify_axiom("coassociativity", delta_e)),
        )
    )
    results.append(
        CheckResult(
            "four-letter counit laws",
            bool(coalgebra.verify_axiom("right-counit", delta_e, counit=eps_e))
            and bool(
                coalgebra.verify_axiom("left-counit", delta_e, delta_e, left_counit=eps_e)
            ),
        )
    )
    fixtures = coalgebra.markov_fixtures()
    dm, _ = fixtures["extension-four-letter"]
    report = coalgebra.verify_axiom("coassociativity", dm)
    results.append(
        CheckResult(
            "markov coproduct of the extension graph breaks coassociativity",
            not report.ok,
            f"witness {report.witness}",
        )
    )
    for name, (delta, delta_tilde) in sorted(fixtures.items()):
        results.append(
            CheckResult(
                f"breaking equation: {name}",
                bool(coalgebra.verify_axiom("breaking-equation", delta, delta_tilde)),
            )
        )
    for n in range(2, 6):
        delta, delta_tilde = fixtures[f"de-bruijn-{n}"]
        ok = all(
            bool(coalgebra.verify_axiom(axiom, delta, delta_tilde))
            for axiom in ("codialgebra-1", "codialgebra-2", "codialgebra-3", "breaking-equation")
        )
        eps = coalgebra.de_bruijn_counit(n)
        ok = ok and bool(coalgebra.verify_axiom("right-counit", delta, counit=eps))
        ok = ok and bool(
            coalgebra.verify_axiom("left-counit", delta, delta_tilde, left_counit=eps)
        )
        results.append(CheckResult(f"co-dialgebra axioms: de-bruijn-{n}", ok))
        ext = coalgebra.extension_coproduct(n)
        ok = bool(coalgebra.verify_axiom("coassociativity", ext)) and bool(
            coalgebra.verify_axiom("right-counit", ext, counit=coalgebra.extension_counit(n))
        )
        results.append(CheckResult(f"extension coproduct coassociative with counit: n={n}", ok))
    return results


def rightmost_equivalence(
    left: coalgebra.CoproductTable, right: coalgebra.CoproductTable, seed: coalgebra.FormalSum
) -> tuple[bool, int]:
    """Whether the rightmost iterates of two tables on `seed` agree at every depth, with
    the dimension of the difference automaton's reachable row space.

    Rightmost iteration rewrites only the last letter, so it is a weighted
    automaton: its states are a table's letters, and reading y from state x
    leads to z with weight c, for each term c y (x) z of T(x).  The depth-n
    iterate of s is the sum over the words u of n letters and the states z of
    (s M_u)_z u z: the last letter is read off the final state.  The
    difference automaton runs the left table from s and the right one from -s
    on one state space; the iterates agree at every depth iff each row vector
    it reaches has weights summing to zero over the two states of every
    letter (Schützenberger 1961; Tzeng 1992).  Breadth-first search with
    exact elimination finds the reachable space: each vector that enlarges
    it is stepped by every letter, so the depths read are below the number
    of states.
    """
    states = [(side, x) for side, table in enumerate((left, right)) for x in table.alphabet]
    index = {state: i for i, state in enumerate(states)}
    moves: dict[str, list[tuple[int, int, coalgebra.Scalar]]] = {}
    for side, x in states:
        for (y, z), c in (left, right)[side].apply(x):
            moves.setdefault(y, []).append((index[side, x], index[side, z], c))
    start = [Fraction(0)] * len(states)
    for (x,), c in seed:
        start[index[0, x]] += c
        start[index[1, x]] -= c
    basis: list[tuple[int, list[Fraction]]] = []  # (pivot, row), zero at earlier pivots
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for pivot, row in basis:
            if f := v[pivot]:
                v = [a - f * b for a, b in zip(v, row)]
        pivot = next((i for i, a in enumerate(v) if a), None)
        if pivot is None:
            continue
        row = [a / v[pivot] for a in v]
        basis.append((pivot, row))
        for terms in moves.values():
            stepped = [Fraction(0)] * len(states)
            for i, j, c in terms:
                stepped[j] += row[i] * c
            queue.append(stepped)
    letters = {x for _, x in states}
    agree = all(
        sum(row[index[side, z]] for side in (0, 1) if (side, z) in index) == 0
        for _, row in basis
        for z in letters
    )
    return agree, len(basis)


def lemma_checks() -> list[CheckResult]:
    """The grammar lemmas, computed as exact identities of the two grammar tables.

    Sums: the coproducts agree on a+b and on c+d.  Contraction: C(xy)s =
    C(xyz) for the letter z that appends the symbol s, and C(x)(P+Q) is the
    contraction of x's Markov image.  Mixed coassociativity, letter by
    letter.  Corollary: the rightmost iterates on a+b+c+d agree at every
    depth, decided by `rightmost_equivalence`; enumerated, the depth-n
    iterates are the same 2^(n+2) words of coefficient 1 for every n up to
    the fixed depth COROLLARY_DEPTH_MAX, whatever max_t `run_all` is given.
    """
    dm = language.grammar_table("markov")
    dc = language.grammar_table("coassoc")
    contract, letters, successors = language.contract, language.LETTERS, language.SUCCESSORS

    def sums_agree(x: str, y: str) -> bool:
        return dm.apply(x) + dm.apply(y) == dc.apply(x) + dc.apply(y)

    contraction_mult = all(
        contract(x + y) + s == contract(x + y + language.LETTER[language.WINDOW[y][1] + s])
        for x in letters for y in successors[x] for s in "PQ"
    ) and all(
        {contract(x) + "P", contract(x) + "Q"} == {contract(x + z) for z in successors[x]}
        for x in letters
    )
    mixed_coassoc = all(
        coalgebra.apply_at(dc, dm.apply(x), 2) == coalgebra.apply_at(dm, dm.apply(x), 2)
        for x in letters
    )
    seed = coalgebra.FormalSum.basis(letters)
    every_depth, dimension = rightmost_equivalence(dm, dc, seed)
    corollary = True
    left = right = seed
    for n in range(1, COROLLARY_DEPTH_MAX + 1):
        left = coalgebra.iterate_rightmost(dm, left, 1)
        right = coalgebra.iterate_rightmost(dc, right, 1)
        if left != right or len(left) != 2 ** (n + 2) or any(c != 1 for _, c in left):
            corollary = False
            break
    return [
        CheckResult("lemma: lemma-sum-ab", sums_agree("a", "b")),
        CheckResult("lemma: lemma-sum-cd", sums_agree("c", "d")),
        CheckResult("lemma: lemma-contraction-mult", contraction_mult),
        CheckResult("lemma: mixed-coassoc", mixed_coassoc),
        CheckResult("lemma: corollary-equality", corollary),
        CheckResult(
            "lemma: rightmost iterates of the two grammars agree at every depth",
            every_depth,
            f"reachable dimension {dimension}",
        ),
    ]


def broken_cell_law(s: walk.SymbolicState) -> str:
    """The first cell law s breaks, rechecked from scratch, as a message; "" if none."""
    n = s.time
    if len(s.cells) != n + 1:
        return "wrong number of cells"
    for k, words in s.items():
        expected = math.comb(n, (n - k) // 2)
        if len(words) != expected:
            return f"cell {k} holds {len(words)} words, expected {expected}"
        if any(v >= w for v, w in zip(words, words[1:])):
            return f"cell {k} is not strictly increasing"
        for w in words:
            if len(w) != n or set(w) - {"P", "Q"}:
                return f"malformed word {w!r} at vertex {k}"
            if language.pq_index(w) != k:
                return f"word {w!r} misplaced at vertex {k}"
    return ""


def commutator_check(coin: quantize.CoinPair) -> CheckResult:
    """The dispersion commutator is right concatenation by QP - PQ.

    Operator words are read in application order: the first term applies
    the up operator, then the down operator.  On a basis element e_k (x) W
    both sides equal e_k (x) (W.QP - W.PQ); the numeric variant evaluates
    the same identity on matrices, within COMMUTATOR_TOL.  It is checked on
    the 63 P/Q words of length at most 5.
    """
    words = ["".join(p) for n in range(6) for p in itertools.product("PQ", repeat=n)]
    symbolic_ok = True
    max_dev = 0.0
    commutator = coin.Q @ coin.P - coin.P @ coin.Q
    for i, w in enumerate(words):
        k = (i % 7) - 3
        x = coalgebra.FormalSum.lift(k, w)
        lhs = walk.dispersion_down(walk.dispersion_up(x)) - walk.dispersion_up(walk.dispersion_down(x))
        symbolic_ok &= lhs == coalgebra.FormalSum([((k, w + "QP"), 1), ((k, w + "PQ"), -1)])
        m = functools.reduce(np.matmul, (getattr(coin, s) for s in w), np.eye(2, dtype=complex))
        numeric_lhs = (m @ coin.Q) @ coin.P - (m @ coin.P) @ coin.Q
        max_dev = max(max_dev, float(np.max(np.abs(numeric_lhs - m @ commutator))))
    return CheckResult(
        "dispersion commutator is right concatenation by QP-PQ",
        symbolic_ok and max_dev <= COMMUTATOR_TOL,
        f"max deviation {max_dev:.2e}",
    )


def walk_checks(max_t: int) -> list[CheckResult]:
    """One pass over t = 0..max(4, max_t) that steps the symbolic walk once: each
    state meets the t <= 4 table, the streamed cells and the laws up to the
    first broken one, and for t <= 9 it evaluates to run_numeric(coin, t).

    run_numeric(t + 1) is one step of run_numeric(t), so agreement at t and
    t + 1 means that evaluation commutes with a step: that is checked at
    every visited t < 9.
    """
    language.require_word_time(max_t, "max_t", 0)
    coin = quantize.hadamard_coin()
    table = in_order = commutes = True
    broken = ""
    state = walk.initial_symbolic()
    for t in range(max(4, max_t) + 1):
        if t:
            state = walk.step_symbolic(state)
        if t <= 4:
            table &= {k: set(v) for k, v in state.items() if v} == XI_TABLE[t]
        # The streamed cells, joined as `walk run --symbolic` prints them.
        in_order &= list(walk.symbolic_cells(t)) == ["+".join(c) for c in state.cells]
        broken = broken or broken_cell_law(state)
        if t <= 9:
            deviation = walk.evaluate(state, coin).amps - walk.run_numeric(coin, t).amps
            commutes &= bool(np.max(np.abs(deviation)) < 1e-12)
    defect = walk.unitarity_defect(walk.run_numeric(coin, 200))
    return [
        CheckResult("symbolic walk reproduces the t<=4 table", table),
        CheckResult("cell-size and word-balance laws", not broken, broken),
        CheckResult("symbolic cells are the fixed-count words, in order", in_order),
        CheckResult("evaluate commutes with stepping", commutes),
        CheckResult("norm preservation at t=200", defect < UNITARITY_TOL, f"defect {defect:.2e}"),
        commutator_check(coin),
    ]


def language_checks(max_t: int) -> list[CheckResult]:
    """Grammar equivalence for t = 2..min(max_t, GRAMMAR_WORDS_T_MAX), then the last
    level's words against the walk.

    The lemma suite's automaton check states the equivalence at every t: the
    corollary pins coefficient 1 on every word, so equal iterates mean equal
    word sets.  At t = max_t, contraction maps the sorted words at each
    vertex onto the walk's sorted cell, every such word is a grammar word,
    and the cells hold as many words as the grammar: so the grammar's words
    are exactly the words at the vertices, each at its own.
    """
    language.require_word_time(max_t, "max_t")
    equivalent = True
    for t in range(2, min(max_t, GRAMMAR_WORDS_T_MAX) + 1):
        words = language.generate(t, "markov")
        equivalent &= words == language.generate(t, "coassoc")
    if max_t > GRAMMAR_WORDS_T_MAX:
        words = language.generate(max_t, "markov")
    state = walk.run_symbolic(max_t)
    ok = sum(map(len, state.cells)) == len(words)
    for k in language.vertices(max_t):
        at_k = language.words_at_vertex(max_t, k)
        ok &= tuple(map(language.contract, at_k)) == state.cell(k) and words.issuperset(at_k)
    return [
        CheckResult("grammar equivalence", equivalent),
        CheckResult("letter words match walk cells under contraction", ok),
    ]


def orbit_checks(max_t: int) -> list[CheckResult]:
    """The orbit suite, one pass over t = 2..max_t: each level is grown once, from the
    level before it, checked once and dropped when the next one is grown.

    `orbits.orbits_at_time`, `closed_walks` and `language.generate` are
    called once per t, in increasing t, through their module attributes:
    the benchmark's layer tracer wraps them there and reads the last
    growth step of each `orbits_at_time` call, here its only one past t = 2.
    """
    language.require_word_time(max_t, "max_t", 3)
    fundamentals = orbits.fundamental_orbits()
    growth = cover = duality = counting = embedded = on_vertex = decomposed = True
    pats = None
    for t in range(2, max_t + 1):
        pats = orbits.orbits_at_time(t, pats)
        growth &= pats == closed_walks(t)
        counts: Counter[int] = Counter()
        read_union: set[str] = set()
        full, points = 2**t - 1, []
        for p in pats:
            k = orbits.orbit_index(p)
            counts[k] += 1
            readings = orbits.read(p)
            read_union |= readings
            # Each word read off p has p's index, and p is its completion.
            cover &= all(language.word_index(w) == k for w in readings)
            duality &= all(orbits.complete(w) == p for w in readings)
            x = orbits.periodic_point(p)
            m = x.numerator * (full // x.denominator)
            # x -> 2^i x mod 1 on numerators; x = 1 is its own fixed point.
            orbit = {(m << i) % full for i in range(t)} if m < full else {m}
            points += orbit
            on_vertex &= {n.bit_count() for n in orbit} == {(t + k) // 2}
            if t <= 12:
                dec = orbits.decompose(p)
                decomposed &= set(dec.fundamentals()) <= fundamentals and all(dec.laws(p).values())
        cover &= read_union == language.generate(t)
        counting &= all(
            counts[k] >= orbits.orbit_count_lower_bound(t, k) for k in language.vertices(t)
        )
        # Disjoint orbits that cover all points m / full: each m in 0..full once.
        embedded &= sorted(points) == list(range(full + 1))

    expected = {orbits.Pattern(s) for s in ("a", "d", "bc", "abc", "bdc", "abdc")}
    return [
        CheckResult("growth reaches exactly the closed walks", growth),
        CheckResult("orbit readings cover the words at every vertex", cover),
        CheckResult("completion/reading duality", duality),
        CheckResult("orbit counting bound", counting),
        CheckResult("patterns are the periodic orbits of x -> 2x mod 1", embedded),
        CheckResult("vertex k holds the orbits with (t + k)/2 ones", on_vertex),
        CheckResult("six fundamental orbits", fundamentals == expected),
        CheckResult("decomposition into fundamentals with exact regluing", decomposed),
    ]


def is_unistochastic(b: graphs.StochMatrix, u: np.ndarray) -> bool:
    """Witness check: does B_ij = |U_ij|^2 hold within WITNESS_TOL for this U?"""
    u = np.asarray(u, dtype=complex)
    if u.shape != (b.dimension, b.dimension):
        raise ValueError("witness has the wrong shape")
    target = np.array([[float(x) for x in row] for row in b.rows])
    return bool(np.max(np.abs(np.abs(u) ** 2 - target)) <= WITNESS_TOL)


def _mat_mul_exact(a, b):
    """Exact product a.b; only products of two nonzero entries are formed."""
    b_terms = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    product = []
    for row in a:
        acc = [Fraction(0)] * len(row)
        for k, x in enumerate(row):
            if x:
                for j, y in b_terms[k]:
                    acc[j] += x * y
        product.append(tuple(acc))
    return tuple(product)


def verify_x_relations(b: graphs.StochMatrix) -> bool:
    """Check X_h X_l = B_hl X_l exactly for every (h, l), words read in application order.

    X_h X_l means X_h acts first, i.e. the matrix product X_l . X_h, and X_h
    is `graphs.row_split`'s matrix h of B, the split that gives a coin's P and
    Q.  The relation holds whenever the rows of B coincide (the 1/n family);
    on a general bistochastic matrix it can fail.
    """
    entries = graphs.row_split(b.rows)
    m = b.dimension
    return all(
        _mat_mul_exact(entries[l], entries[h])
        == tuple(tuple(b.rows[h][l] * x for x in row) for row in entries[l])
        for h in range(m)
        for l in range(m)
    )


def quantize_checks() -> list[CheckResult]:
    results = []
    rng = random.Random(11)
    worst = 0.0
    ok = True
    for i in range(40):
        u = quantize.random_unitary(2 + i % 4, rng)
        report = quantize.verify_channel(graphs.row_split(u))
        worst = max(worst, report.max_deviation)
        ok = ok and report.ok
    results.append(
        CheckResult("row splits are quantum channels", ok, f"max deviation {worst:.2e}")
    )
    coin = quantize.hadamard_coin()
    report = quantize.verify_pq_relations(coin)
    results.append(CheckResult("P/Q entry relations (Hadamard)", report.ok))
    lam = quantize.jones_parameter(coin)
    results.append(
        CheckResult("Jones parameter of the Hadamard coin is -1", bool(abs(lam + 1) < 1e-12))
    )
    b2 = graphs.bernoulli_matrix(2)
    results.append(
        CheckResult(
            "Hadamard witnesses the unistochasticity of the uniform matrix",
            is_unistochastic(b2, quantize.hadamard()),
        )
    )
    results.append(
        CheckResult(
            "row-product relations on uniform matrices",
            all(verify_x_relations(graphs.bernoulli_matrix(n)) for n in range(2, 7)),
        )
    )
    ok = graphs.ks_entropy(graphs.regular_system_matrix()) == 0.0 and all(
        abs(graphs.ks_entropy(graphs.bernoulli_matrix(n)) - math.log(n)) <= 1e-12
        for n in range(2, 7)
    )
    name = "KS entropy is log n on the uniform 1/n matrices (n = 2..6) and 0 on the regular system"
    results.append(CheckResult(name, ok))
    return results


def run_all(max_t: int) -> list[CheckResult]:
    if max_t > RUN_ALL_MAX_T:
        raise ValueError(
            f"max_t = {max_t} exceeds the verify-all cap {RUN_ALL_MAX_T} "
            "(the walk, language and orbit suites hold 2^max_t words)"
        )
    language.require_word_time(max_t, "max_t", 3)
    results = []
    results += coalgebra_checks()
    results += lemma_checks()
    results += walk_checks(max_t)
    results += language_checks(max_t)
    results += orbit_checks(max_t)
    results += quantize_checks()
    return results
