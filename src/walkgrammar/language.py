"""The four-letter path language of the walk.

Each letter is a window of two P/Q symbols, an edge of the two-label De
Bruijn graph (`coalgebra.LETTER_OF`): `WINDOW` maps a -> PP, b -> PQ,
c -> QP, d -> QQ, and every other letter table here is derived from it.
A word is a path of the extension graph: each letter's second symbol is
the next letter's first, so consecutive windows overlap by one symbol.
Contraction collapses the overlaps into a P/Q word one symbol longer
than the letter word; its inverse reads each pair of adjacent symbols as
a letter (`LETTER`).  A letter word's index, its walk vertex, is the
Q-count minus the P-count of its contraction (`pq_index`).

The walk's lattice lives here too, so the word and orbit layers need no
numeric code: `vertices(t)` are the vertices a time-t word can end at,
and `require_word_time` caps every word set at WORD_TIME_MAX.

Times 0 and 1 have no letter words (their walk cells are the empty word,
P and Q); the language starts at t = 2, where the time-t words are the
letter words of length t - 1.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from . import coalgebra
from .coalgebra import CoproductTable
from .graphs import EXT_SEP

WORD_TIME_MAX = 24
LETTERS = "".join(coalgebra.FOUR_LETTERS)
WINDOW = {letter: edge.replace(EXT_SEP, "") for edge, letter in coalgebra.LETTER_OF.items()}
LETTER = {window: letter for letter, window in WINDOW.items()}
# Each letter's second symbol, for str.translate.
_SECOND_SYMBOL = str.maketrans({x: window[1] for x, window in WINDOW.items()})


def _images(table: CoproductTable) -> dict[str, tuple[str, ...]]:
    return {x: tuple(sorted("".join(w) for w in table.apply(x).words())) for x in table.alphabet}


# The coproduct tables whose rightmost iteration drives the two grammars,
# and their last-letter rewrite rules.  Applying the Markov rule appends
# one letter along an edge of the extension graph; the coassociative rule
# replaces the last letter by one of its two coproduct terms.
_MARKOV = coalgebra.markov_pair_e()[0]
GRAMMAR_TABLES = {"markov": _MARKOV, "coassoc": coalgebra.coproduct_e()}
COASSOC_RULES = _images(GRAMMAR_TABLES["coassoc"])

# Out-neighbours in the extension graph: x -> y iff x's second symbol is
# y's first.
SUCCESSORS = {x: "".join(w[1] for w in images) for x, images in _images(_MARKOV).items()}
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
    """Collapse overlapping windows into the underlying P/Q word."""
    require_path_word(w)
    return WINDOW[w[0]][0] + w.translate(_SECOND_SYMBOL)


def word_index(w: str) -> int:
    """The walk vertex of the word: the index of its contraction."""
    return pq_index(contract(w))


def vertices(t: int) -> range:
    """The time-t lattice: every k with |k| <= t and k + t even, in increasing order."""
    return range(-t, t + 1, 2)


def pq_index(w: str) -> int:
    """Q-count minus P-count of a P/Q word: the vertex a walk word ends at."""
    return len(w) - 2 * w.count("P")


def require_word_time(t: int, name: str = "t") -> None:
    """Refuse a time past WORD_TIME_MAX before a set of ~2^t words is built."""
    if t > WORD_TIME_MAX:
        raise ValueError(f"{name} = {t} exceeds the word-set cap {WORD_TIME_MAX} (2^{name} words)")


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
    WORD_TIME_MAX, the symbolic walk's cap too.
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
    letter (`LETTER`).  The index of a letter word is the Q-count
    minus the P-count of its contraction, so the words at vertex k are the
    inverses of the P/Q words with (t - k)/2 P's: the one cell `pq_cells`
    gives, C(t, (t - k)/2) words, and no other cell's words are inverted.
    """
    if t < 2:
        raise ValueError(f"the language starts at t = 2, got t = {t}")
    require_word_time(t)
    if k not in vertices(t):
        return frozenset()
    (cell,) = pq_cells(t, [k])
    return frozenset(
        "".join(map(LETTER.__getitem__, map(str.__add__, m, m[1:]))) for m in cell.split("+")
    )


def pq_cells(t: int, ks: Iterable[int]) -> Iterator[str]:
    """The P/Q words of length t at each lattice vertex k of ks, one cell at a time.

    Cell k holds the words with (t - k)/2 P's in sorted order, as one
    '+'-joined text ("" is the empty word, the one word at t = 0).  With
    S(t, p) the words of length t with p P's, the prefix recursion

        S(t, p) = P.S(t - 1, p - 1) ++ Q.S(t - 1, p)

    builds every S(t - 1, p) level by level, each cell by one str.replace
    (prefix every word) and one join, and P < Q keeps each cell sorted with
    no sort.  The length t - 1 cells are built before the first cell is
    returned; then each cell of ks is joined when it is asked for.  So a
    caller holds about 2^(t-1) t characters and one cell, never 2^t word
    objects.
    """
    require_word_time(t)
    lattice = vertices(t)
    counts = []
    for k in ks:
        if k not in lattice:
            raise ValueError(f"vertex {k} is off the time-{t} lattice")
        counts.append((t - k) // 2)
    # From length -1, which has no cells: _extended([], 0) is "", the empty word.
    cells: list[str] = []
    for _ in range(t):
        cells = [_extended(cells, p) for p in range(len(cells) + 1)]
    return (_extended(cells, p) for p in counts)


def _extended(cells: list[str], p: int) -> str:
    """S(s + 1, p) from cells = [S(s, 0), ..., S(s, s)], each a '+'-joined text."""
    parts = []
    if p:
        parts.append("P" + cells[p - 1].replace("+", "+P"))
    if p < len(cells):
        parts.append("Q" + cells[p].replace("+", "+Q"))
    return "+".join(parts)
