"""The four-letter path language of the walk.

Letters are the extension-graph vertices of `coalgebra.LETTER_OF`, read
as index pairs with P = -1 and Q = +1: a = (-1,-1), b = (-1,+1),
c = (+1,-1), d = (+1,+1).  A word is a path of the extension graph,
meaning consecutive letters agree on their shared index.  Contraction
collapses the overlap into a P/Q word one symbol longer than the letter
word, with -1 read as P and +1 as Q.

Times 0 and 1 have no letter words (their walk cells are the empty word,
P and Q); the language starts at t = 2, where the time-t words are the
letter words of length t - 1.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from . import coalgebra
from .coalgebra import CoproductTable, FormalSum
from .walk import require_word_time

LETTERS = "".join(coalgebra.FOUR_LETTERS)
INDEX = {"P": -1, "Q": 1}
SYMBOL = {i: x for x, i in INDEX.items()}
INDEX_PAIRS = {
    letter: tuple(INDEX[x] for x in edge.split("|")) for edge, letter in coalgebra.LETTER_OF.items()
}
PAIR_TO_LETTER = {pair: letter for letter, pair in INDEX_PAIRS.items()}
# The inverse of contraction, one window at a time: "PQ" -> b, and so on.
_WINDOW_LETTER = {SYMBOL[i] + SYMBOL[j]: letter for (i, j), letter in PAIR_TO_LETTER.items()}
# Each letter's second index as a P/Q symbol, for str.translate.
_SECOND_SYMBOL = str.maketrans({x: SYMBOL[pair[1]] for x, pair in INDEX_PAIRS.items()})


def _images(table: CoproductTable) -> dict[str, tuple[str, ...]]:
    return {x: tuple(sorted("".join(w) for w in table.apply(x).words())) for x in table.alphabet}


# The coproduct tables whose rightmost iteration drives the two grammars,
# and their last-letter rewrite rules.  Applying the Markov rule appends
# one letter along an edge of the extension graph; the coassociative rule
# replaces the last letter by one of its two coproduct terms.
_MARKOV, _MARKOV_IN = coalgebra.markov_pair_e()
GRAMMAR_TABLES = {"markov": _MARKOV, "coassoc": coalgebra.coproduct_e()}
COASSOC_RULES = _images(GRAMMAR_TABLES["coassoc"])

# Out- and in-neighbours in the extension graph: x -> y iff x's second
# index is y's first.
SUCCESSORS = {x: "".join(w[1] for w in images) for x, images in _images(_MARKOV).items()}
PREDECESSORS = {y: "".join(w[0] for w in images) for y, images in _images(_MARKOV_IN).items()}
# A letter outside the alphabet, or a letter followed by a non-successor.  In a
# word over the alphabet, the leftmost match is the word's first break.
_FAULT = re.compile("|".join([f"[^{LETTERS}]"] + [f"{x}[^{SUCCESSORS[x]}]" for x in LETTERS]))


def require_path_word(w: str) -> str:
    if not w:
        raise ValueError("letter words must be nonempty")
    fault = _FAULT.search(w)
    if fault:
        bad = set(w) - set(LETTERS)
        if bad:
            raise ValueError(f"unknown letters {sorted(bad)} in {w!r}")
        x, y = fault.group()
        raise ValueError(f"{w!r} breaks at position {fault.start()}: {x!r} does not compose with {y!r}")
    return w


def contract(w: str) -> str:
    """Collapse overlapping index pairs into the underlying P/Q word."""
    require_path_word(w)
    return SYMBOL[INDEX_PAIRS[w[0]][0]] + w.translate(_SECOND_SYMBOL)


def word_index(w: str) -> int:
    """Sum of the path's vertex indices; the walk vertex of the word."""
    m = contract(w)
    return len(m) - 2 * m.count("P")


def grammar_table(grammar: str) -> CoproductTable:
    """The coproduct table whose rightmost iteration drives the grammar."""
    try:
        return GRAMMAR_TABLES[grammar]
    except KeyError:
        raise ValueError(f"unknown grammar {grammar!r}; pick markov or coassoc") from None


def generate(t: int, grammar: str = "markov") -> frozenset[str]:
    """All time-t words (letter length t - 1), deduplicated.

    Both grammars return the same set: every path of length t - 1 in the
    extension graph, 2^t words in total.  t is capped at
    `walk.SYMBOLIC_MAX_DEFAULT`, the symbolic walk's cap.
    """
    rules = _images(grammar_table(grammar))
    if t < 2:
        raise ValueError(f"the language starts at t = 2, got t = {t}")
    require_word_time(t)
    words = set(LETTERS)
    for _ in range(t - 2):
        words = {w[:-1] + image for w in words for image in rules[w[-1]]}
    return frozenset(words)


def words_at_vertex(t: int, k: int) -> frozenset[str]:
    """Time-t words with index k; empty off the parity lattice.

    Contraction is a bijection from the time-t letter words onto the P/Q
    words of length t: its inverse reads each window of two symbols as a
    letter (_WINDOW_LETTER).  The index of a letter word is the Q-count
    minus the P-count of its contraction, so the words at vertex k are the
    inverses of the P/Q words with (t - k)/2 P's: one word per choice of
    P positions, C(t, (t - k)/2) in all, and nothing else is built.
    """
    if t < 2:
        raise ValueError(f"the language starts at t = 2, got t = {t}")
    require_word_time(t)
    if (t + k) % 2 or abs(k) > t:
        return frozenset()
    return frozenset(
        "".join(map(_WINDOW_LETTER.__getitem__, map(str.__add__, m, m[1:])))
        for m in _pq_words(t, (t - k) // 2)
    )


def _pq_words(t: int, p_count: int):
    """The P/Q words of length t with p_count P's, one per choice of P positions."""
    for positions in itertools.combinations(range(t), p_count):
        symbols = ["Q"] * t
        for i in positions:
            symbols[i] = "P"
        yield "".join(symbols)


LEMMAS = (
    "lemma-sum-ab",
    "lemma-sum-cd",
    "lemma-contraction-mult",
    "mixed-coassoc",
    "corollary-equality",
)


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    ok: bool
    checked: int
    failures: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_lemma(lemma: str, depth: int = 1) -> LemmaReport:
    """Exact checks of the grammar lemmas.

    lemma-sum-ab / lemma-sum-cd: the two coproducts agree on a+b and c+d.
    lemma-contraction-mult: appending P or Q to a contraction equals the
    contraction of the extended word, plus the summed corollary
    C(x)(P+Q) = C(applying the Markov rule to x).
    mixed-coassoc: (id (x) coassoc) after markov = (id (x) markov) after
    markov, letter by letter.
    corollary-equality: rightmost iterates of the two coproducts agree on
    a+b+c+d up to the given depth, as exact formal sums, and the depth-n
    iterate is the multiset of 2^(n+2) words, each with coefficient 1.
    """
    if lemma not in LEMMAS:
        raise ValueError(f"unknown lemma {lemma!r}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dm = grammar_table("markov")
    dc = grammar_table("coassoc")
    failures: list[str] = []
    checked = 0

    if lemma in ("lemma-sum-ab", "lemma-sum-cd"):
        pair = "ab" if lemma == "lemma-sum-ab" else "cd"
        lhs = dm.apply(pair[0]) + dm.apply(pair[1])
        rhs = dc.apply(pair[0]) + dc.apply(pair[1])
        checked = 1
        if lhs != rhs:
            failures.append(f"markov and coassociative coproducts differ on {pair[0]}+{pair[1]}")
    elif lemma == "lemma-contraction-mult":
        closing = {"P": -1, "Q": 1}
        for y in LETTERS:
            for factor, sign in closing.items():
                z = PAIR_TO_LETTER[(INDEX_PAIRS[y][1], sign)]
                for x in PREDECESSORS[y]:
                    checked += 1
                    if contract(x + y) + factor != contract(x + y + z):
                        failures.append(f"C({x}{y}){factor} != C({x}{y}{z})")
        for x in LETTERS:
            checked += 1
            lhs_words = {contract(x) + "P", contract(x) + "Q"}
            rhs_words = {contract(x + z) for z in SUCCESSORS[x]}
            if lhs_words != rhs_words:
                failures.append(f"C({x})(P+Q) misses the Markov image of {x}")
    elif lemma == "mixed-coassoc":
        for x in LETTERS:
            checked += 1
            base = dm.apply(x)
            if coalgebra.apply_at(dc, base, 2) != coalgebra.apply_at(dm, base, 2):
                failures.append(f"mixed coassociativity fails on {x}")
    else:  # corollary-equality
        seed = FormalSum.basis(LETTERS)
        left = right = seed
        for n in range(1, depth + 1):
            left = coalgebra.iterate_rightmost(dm, left, 1)
            right = coalgebra.iterate_rightmost(dc, right, 1)
            checked += 1
            if left != right:
                failures.append(f"iterates differ at depth {n}")
                break
            if len(left) != 2 ** (n + 2) or any(c != 1 for _, c in left):
                failures.append(f"depth-{n} iterate is not {2 ** (n + 2)} words of coefficient 1")
                break
    return LemmaReport(lemma, not failures, checked, tuple(failures))
