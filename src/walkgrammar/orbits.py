"""Periodic orbits of the extension graph: patterns, reading, growth, decomposition.

A pattern is a closed composable letter cycle taken up to rotation: any
rotation constructs it, and it is its lexicographically least rotation
(a < b < c < d), a `str`.  Reading a length-n pattern yields its n
cyclic windows of length n - 1, deduplicated; completion closes an open
path word with the unique letter that returns to its start; growth
applies the coassociative coproduct at every cyclic position, producing
all patterns one letter longer; decomposition peels a pattern into
simple cycles and regluing splices them back into it.

`Pattern(...)` is the only public constructor and validates its input.
Completion, growth and primitive roots build cycles that are closed by
construction, so they take the least rotation with no second check
(`_necklace`); nothing from outside takes that path.

Patterns are the periodic points of x -> 2x mod 1 (`periodic_point`): a
length-t pattern's first symbols, read as bits with P = 0 and Q = 1, give
m and x = m / (2^t - 1).  Doubling rotates the t bits, so the length-t
patterns are the doubling orbits of the 2^t points m / (2^t - 1), exactly
on [0, 1] with 1 fixed; on the circle a^t (x = 0) and d^t (x = 1) meet.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .language import COASSOC_RULES, LETTER, LETTERS, SUCCESSORS, WINDOW, require_path_word
from .language import pq_index, require_word_time, vertices

# Longest pattern `Pattern` accepts, checked before anything else.  `read`
# prints n windows of n - 1 letters, about 2n^2 bytes: an aperiodic pattern
# at the cap prints 2.1 MB in 0.17 s at 24 MiB peak RSS, against 32 MB,
# 1.2 s and 146 MiB at 4096 letters (2 CPUs).
PATTERN_MAX_LETTERS = 1024

_FIRST_SYMBOL = str.maketrans({x: window[0] for x, window in WINDOW.items()})


def least_rotation(s: str) -> str:
    """Least rotation; only a rotation that starts at the least letter can be it."""
    n, doubled, least = len(s), s + s, min(s)
    best = s
    i = s.find(least)
    while i != -1:
        rotation = doubled[i : i + n]
        if rotation < best:
            best = rotation
        i = s.find(least, i + 1)
    return best


class Pattern(str):
    """Closed composable letter cycle; any rotation is accepted, the least is the value."""

    __slots__ = ()

    def __new__(cls, letters: str) -> Pattern:
        if len(letters) > PATTERN_MAX_LETTERS:
            n = len(letters)
            raise ValueError(f"pattern of {n} letters exceeds the cap {PATTERN_MAX_LETTERS}")
        require_path_word(letters)
        if WINDOW[letters[-1]][1] != WINDOW[letters[0]][0]:
            raise ValueError(f"{letters!r} is an open path, not a cycle")
        return str.__new__(cls, least_rotation(letters))


def _necklace(letters: str) -> Pattern:
    """Pattern of a least rotation that is a cycle by construction; nothing is checked."""
    return str.__new__(Pattern, letters)


def orbit_index(p: Pattern) -> int:
    """Index of the cycle's first symbols, one per letter; rotation invariant."""
    return pq_index(p.translate(_FIRST_SYMBOL))


def periodic_point(p: Pattern) -> Fraction:
    """Point m / (2^t - 1) of the doubling map; m reads p's first symbols as bits, P = 0, Q = 1."""
    bits = p.translate(_FIRST_SYMBOL).replace("P", "0").replace("Q", "1")
    return Fraction(int(bits, 2), 2 ** len(p) - 1)


def primitive_root(p: Pattern) -> tuple[Pattern, int]:
    """Smallest cycle whose repetition gives p, with its multiplicity."""
    # p is its rotation by d iff p occurs in pp at offset d; the least such d
    # divides len(p) (Lothaire 1983), and that prefix is its own least rotation.
    period = (p + p).find(p, 1)
    return _necklace(p[:period]), len(p) // period


def read(p: Pattern) -> frozenset[str]:
    """Distinct cyclic windows one letter shorter than the pattern."""
    n = len(p)
    if n < 2:
        raise ValueError("reading a length-1 pattern would yield the empty word")
    doubled = p * 2
    return frozenset(doubled[k : k + n - 1] for k in range(n))


def complete(w: str) -> Pattern:
    """Close an open path word with the unique returning letter."""
    require_path_word(w)
    closing = LETTER[WINDOW[w[-1]][1] + WINDOW[w[0]][0]]
    return _necklace(least_rotation(w + closing))


def grow(p: Pattern) -> list[str]:
    """Apply the coassociative coproduct at every position, one word per position and split.

    A split keeps the cycle closed, so each word is a rotation of a cycle
    one letter longer; the words are neither rotated nor deduplicated.
    """
    return [p[:i] + split + p[i + 1 :] for i, x in enumerate(p) for split in COASSOC_RULES[x]]


def orbits_at_time(t: int, shorter: frozenset[Pattern] | None = None) -> frozenset[Pattern]:
    """All length-t patterns, grown one letter at a time.

    With `shorter`, the length t - 1 patterns, one growth step builds the
    level from it; without, every level is grown from the completions of the
    time-2 words.  ValueError if `shorter` holds anything but a length t - 1
    pattern.
    """
    require_word_time(t)
    if shorter is None:
        pats, steps = frozenset(complete(x) for x in LETTERS), t - 2
    elif all(isinstance(p, Pattern) and len(p) == t - 1 for p in shorter):
        pats, steps = shorter, 1
    else:
        raise ValueError(f"the level grown to time {t} must hold only length-{t - 1} patterns")
    for _ in range(steps):
        candidates: set[str] = set()
        for p in pats:
            candidates.update(grow(p))
        del pats  # release the previous level before the next one is built
        pats = frozenset(map(_necklace, set(map(least_rotation, candidates))))
    return pats


def orbits_at_vertex(t: int, k: int) -> frozenset[Pattern]:
    """Length-t patterns with orbit index k; off the parity lattice none is built."""
    require_word_time(t)
    if k not in vertices(t):
        return frozenset()
    return frozenset(p for p in orbits_at_time(t) if orbit_index(p) == k)


def orbit_count_lower_bound(t: int, k: int) -> int:
    """Ceiling of binom(t, (t-k)/2) / t, in exact integer arithmetic."""
    if k not in vertices(t):
        raise ValueError(f"vertex {k} is off the time-{t} lattice")
    return -(-math.comb(t, (t - k) // 2) // t)


def fundamental_orbits() -> frozenset[Pattern]:
    """The vertex-simple directed cycles of the extension graph."""
    cycles: set[Pattern] = set()

    def search(start: str, current: str, visited: frozenset[str], path: str) -> None:
        for succ in SUCCESSORS[current]:
            if succ == start:
                cycles.add(Pattern(path))
            elif succ > start and succ not in visited:
                search(start, succ, visited | {succ}, path + succ)

    for letter in LETTERS:
        search(letter, letter, frozenset(letter), letter)
    return frozenset(cycles)


class Decomposition(NamedTuple):
    """Peeling of a closed walk into simple cycles of the extension graph.

    `peeled` lists the extracted cycles innermost first, each anchored at
    its splice letter, together with the index at which it re-inserts into
    the reduced walk; `base` is the simple cycle left on the stack.
    Replaying the insertions in reverse rebuilds the decomposed pattern.
    """

    peeled: tuple[tuple[str, int], ...]
    base: str

    def fundamentals(self) -> tuple[Pattern, ...]:
        """Canonical pieces in emission order, base last."""
        return tuple(Pattern(c) for c, _ in self.peeled) + (Pattern(self.base),)

    def reglue(self) -> Pattern:
        walk = list(self.base)
        for cycle, idx in reversed(self.peeled):
            walk[idx:idx] = cycle
        return Pattern("".join(walk))

    def laws(self, p: Pattern) -> dict[str, bool]:
        """Whether the pieces hold p's letters, and whether regluing gives p."""
        return {
            "letters_conserved": sorted("".join(self.fundamentals())) == sorted(p),
            "reglue_ok": self.reglue() == p,
        }


def decompose(p: Pattern) -> Decomposition:
    """Peel a pattern into simple cycles by stacking its vertex visits.

    Scanning the canonical letters, a repeat of a stacked letter closes a
    simple cycle: emit it, drop it from the stack and keep scanning.  The
    leftover stack is itself a simple cycle because the walk is closed.
    """
    stack: list[str] = []
    position: dict[str, int] = {}
    peeled: list[tuple[str, int]] = []
    for letter in p:
        if letter in position:
            start = position[letter]
            cycle = "".join(stack[start:])
            peeled.append((cycle, start))
            for gone in stack[start:]:
                del position[gone]
            del stack[start:]
        position[letter] = len(stack)
        stack.append(letter)
    return Decomposition(tuple(peeled), "".join(stack))
