"""Directed graphs, De Bruijn constructions, exact stochastic matrices and the row split.

`row_split` serves both sides of the paper's quantisation: it gives B's row
matrices X_h and a unitary coin's P and Q alike.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from typing import Iterable

EXT_SEP = "|"
# The largest De Bruijn label count and uniform-matrix size: the extension
# of the 64-label graph is 262 144 edges, 6 MB of DOT.
DIMENSION_MAX = 64


class DirectedGraph(namedtuple("DirectedGraph", "vertices edges")):
    """`vertices` (frozenset[str]) and the arrows between them (frozenset[tuple[str, str]])."""

    __slots__ = ()

    def __new__(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        vertices, edges = frozenset(vertices), frozenset(tuple(e) for e in edges)
        for u, v in edges:
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge ({u!r}, {v!r}) leaves the vertex set")
        return super().__new__(cls, vertices, edges)

    def to_dot(self) -> str:
        lines = ["digraph G {"]
        for v in sorted(self.vertices):
            lines.append(f'    "{v}";')
        for u, v in sorted(self.edges):
            lines.append(f'    "{u}" -> "{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _require_dimension(name: str, n: int) -> None:
    """Refuse a size below 2 or past DIMENSION_MAX before its n^2 entries are built."""
    if n < 2:
        raise ValueError(f"need {name} >= 2, got {n}")
    if n > DIMENSION_MAX:
        raise ValueError(f"{name} = {n} exceeds the dimension cap {DIMENSION_MAX}")


def de_bruijn_labels(p: int) -> tuple[str, ...]:
    _require_dimension("p", p)
    if p == 2:
        return ("P", "Q")
    return tuple(str(i) for i in range(1, p + 1))


def de_bruijn_graph(p: int) -> DirectedGraph:
    """Complete directed graph on p vertices with a loop at each vertex."""
    labels = de_bruijn_labels(p)
    return DirectedGraph(labels, [(u, v) for u in labels for v in labels])


def extension(g: DirectedGraph) -> DirectedGraph:
    """Line graph: one vertex u|v per edge, joined where head meets tail."""
    names = {edge: f"{edge[0]}{EXT_SEP}{edge[1]}" for edge in g.edges}
    new_edges = [
        (names[(u, v)], names[(x, y)])
        for (u, v) in g.edges
        for (x, y) in g.edges
        if v == x
    ]
    return DirectedGraph(names.values(), new_edges)


# Exact scalars as text.  Fraction also parses exponents and decimals, and
# "1e10000000" builds a ten-million-digit integer before anything can refuse it.
_SCALAR_TEXT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def scalar_from_text(text: str) -> Fraction:
    """An integer or 'p/q' string as a Fraction; any other text is refused unparsed."""
    if not _SCALAR_TEXT.fullmatch(text):
        raise ValueError(f"scalar must be an int or a 'p/q' string, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"scalar {text!r} has a zero denominator") from None


class StochMatrix(namedtuple("StochMatrix", "rows")):
    """Square matrix `rows` (tuple[tuple[Fraction, ...], ...]) of nonnegative rationals with
    unit row sums; each entry is given as a Fraction, an int or a 'p/q' string, never a float."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Iterable]):
        rows = tuple(map(tuple, rows))
        if any(isinstance(x, float) for row in rows for x in row):
            raise TypeError("stochastic matrices are exact; pass Fraction, int or 'p/q'")
        rows = tuple(
            tuple(scalar_from_text(x) if isinstance(x, str) else Fraction(x) for x in row)
            for row in rows
        )
        for row in rows:
            if len(row) != len(rows):
                raise ValueError("matrix must be square")
            if any(x < 0 for x in row):
                raise ValueError("entries must be nonnegative")
            if sum(row) != 1:
                raise ValueError("every row must sum to 1")
        return super().__new__(cls, rows)

    @property
    def dimension(self) -> int:
        return len(self.rows)

    @property
    def is_bistochastic(self) -> bool:
        m = self.dimension
        return all(sum(self.rows[i][j] for i in range(m)) == 1 for j in range(m))

    def to_csv(self) -> str:
        lines = [",".join(map(str, row)) for row in self.rows]
        return "\n".join(lines) + "\n"


def bernoulli_matrix(n: int) -> StochMatrix:
    """The n-by-n matrix with every entry 1/n (uniform full shift)."""
    _require_dimension("n", n)
    row = tuple(Fraction(1, n) for _ in range(n))
    return StochMatrix(tuple(row for _ in range(n)))


def regular_system_matrix() -> StochMatrix:
    """3x3 permutation fixture of the zero-entropy staircase map."""
    return StochMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])


def ks_entropy(b: StochMatrix) -> float:
    """Kolmogorov-Sinai entropy -sum_i p_i sum_j B_ij log B_ij in nats.

    Restricted to bistochastic matrices, where the stationary vector is
    uniform.  Exactly 0.0 iff every entry is 0 or 1.
    """
    if not b.is_bistochastic:
        raise ValueError("ks_entropy needs a bistochastic matrix")
    if all(x in (0, 1) for row in b.rows for x in row):
        return 0.0
    m = b.dimension
    return -sum(float(x) * math.log(float(x)) for row in b.rows for x in row if x) / m


def row_split(rows) -> list[tuple]:
    """One matrix per row h of the square matrix `rows`: row h is kept and every
    other row is int zeros, which keep Fraction arithmetic exact and read as +0
    in a complex array."""
    zero = (0,) * len(rows)
    return [tuple(row if i == h else zero for i, row in enumerate(rows)) for h in range(len(rows))]
