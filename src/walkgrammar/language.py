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
and `require_word_time` is the one rule that admits a word-set time, from
its least value up to WORD_TIME_MAX.

Times 0 and 1 have no letter words (their walk cells are the empty word,
P and Q); the language starts at t = 2, where the time-t words are the
letter words of length t - 1.

Contraction preserves order: a < b < c < d as PP < PQ < QP < QQ, and two
letter words first differ where their contractions do.  So the time-t
words at vertex k, in sorted order, spell the sorted P/Q words of length
t with p = (t - k)/2 P's, and one prefix recursion builds both.  Let
S(s, p) be the P/Q words of length s with p P's, kept as two halves, the
words that start with P and with Q, each one '+'-joined text.  Then

    P-half of S(s, p) = P.S(s - 1, p - 1)      Q-half = Q.S(s - 1, p)

and P < Q keeps every half sorted with no sort.  The letter alphabet
prefixes the window instead of the symbol: the halves of S(s - 1, p - 1)
get a and b, those of S(s - 1, p) get c and d.  Each half costs one
str.replace (prefix every word) and one join, and a cell of length t
needs only the counts p - (t - s) .. p at length s.  `pq_cells` reads the
P/Q alphabet and `words_at_vertex` the letters.
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


def require_word_time(t: int, name: str = "t", least: int = 2) -> None:
    """Refuse a time below `least` or past WORD_TIME_MAX before a set of ~2^t words is built.

    Three least values are in use: 2 for the letter words, the orbits and
    the language suite, which start at t = 2; 0 for the walk, its P/Q cells
    and the walk suite, whose time-0 cell is the empty word; 3 for the orbit
    suite and `verify.run_all`, which need a level past t = 2.
    """
    if t < least:
        raise ValueError(f"need {name} >= {least}, got {t}")
    if t > WORD_TIME_MAX:
        raise ValueError(f"{name} = {t} exceeds the word-set cap {WORD_TIME_MAX} (2^{name} words)")


def grammar_table(grammar: str) -> CoproductTable:
    """The coproduct table whose rightmost iteration drives the grammar."""
    try:
        return GRAMMAR_TABLES[grammar]
    except KeyError:
        pick = " or ".join(GRAMMAR_TABLES)
        raise ValueError(f"unknown grammar {grammar!r}; pick {pick}") from None


def generate(t: int, grammar: str = "markov") -> frozenset[str]:
    """All time-t words (letter length t - 1), deduplicated.

    Both grammars return the same set: every path of length t - 1 in the
    extension graph, 2^t words in total.
    """
    rules = _images(grammar_table(grammar))
    require_word_time(t)
    words = set(LETTERS)
    for _ in range(t - 2):
        words = {w[:-1] + image for w in words for image in rules[w[-1]]}
    return frozenset(words)


def words_at_vertex(t: int, k: int) -> tuple[str, ...]:
    """Time-t words with index k, in sorted order; empty off the parity lattice.

    Contraction is an order-preserving bijection from the time-t letter
    words onto the P/Q words of length t, and a word's index is the Q-count
    minus the P-count of its contraction.  So the words at vertex k are the
    letter spellings of the P/Q words with (t - k)/2 P's, in the same order:
    the one cell of the prefix recursion in the letter alphabet (module
    docstring), C(t, (t - k)/2) words, built with no sort and no per-word
    Python, and no word of another vertex is built.
    """
    require_word_time(t)
    if k not in vertices(t):
        return ()
    # The letter words of length 1 are P and Q spelled in letters: no letters yet.
    (cell,) = _cells(t, [k], _LETTER_PREFIXES, 1, {1: ("", None), 0: (None, "")})
    return tuple(cell.split("+"))


def pq_cells(t: int, ks: Iterable[int]) -> Iterator[str]:
    """The P/Q words of length t at each lattice vertex k of ks, one cell at a time.

    Cell k holds the words with (t - k)/2 P's in sorted order, as one
    '+'-joined text ("" is the empty word, the one word at t = 0): the
    prefix recursion of the module docstring in the P/Q alphabet.  A
    caller holds the band of length t - 1 halves and one cell, never 2^t
    word objects.
    """
    require_word_time(t, least=0)
    return _cells(t, ks, _PQ_PREFIXES, 0, {0: ("", None)})


# The prefix that puts the symbol h before a word that starts with f, in the
# order hf = PP, PQ, QP, QQ: h itself, or the letter of the window hf.
_PQ_PREFIXES = "PPQQ"
_LETTER_PREFIXES = "".join(LETTER[h + f] for h in "PQ" for f in "PQ")
_NO_WORDS = (None, None)


def _cells(t: int, ks: Iterable[int], prefixes: str, length: int, level: dict) -> Iterator[str]:
    """The cells S(t, (t - k)/2) of ks, each read as '+'-joined text in the
    alphabet of `prefixes`, grown from `level`, the halves of that length.

    The caller has admitted t; the lattice is checked and the length t - 1
    band is built before the first cell is returned, and each cell is
    joined when it is read.
    """
    lattice = vertices(t)
    counts = []
    for k in ks:
        if k not in lattice:
            raise ValueError(f"vertex {k} is off the time-{t} lattice")
        counts.append((t - k) // 2)
    if t == length:  # the P/Q alphabet at t = 0: the empty word
        return ("" for _ in counts)
    low, high = min(counts, default=0), max(counts, default=0)
    # Level s keeps only the counts that an asked-for cell of length t grows from.
    for s in range(length + 1, t):
        level = {
            p: (_prefixed(prefixes[:2], level.get(p - 1, _NO_WORDS)),
                _prefixed(prefixes[2:], level.get(p, _NO_WORDS)))
            for p in range(max(low - t + s, 0), min(high, s) + 1)
        }
    return (
        _prefixed(prefixes, level.get(p - 1, _NO_WORDS) + level.get(p, _NO_WORDS))
        for p in counts
    )


def _prefixed(prefixes: str, halves: tuple) -> str | None:
    """Each prefix before every word of its half, '+'-joined; None if no half holds a word."""
    pieces = []
    for x, half in zip(prefixes, halves):
        if half is not None:
            pieces += ("+", x, half.replace("+", "+" + x))
    return "".join(pieces[1:]) if pieces else None
