"""Formal tensor-word sums, coproduct tables and coalgebra axiom checks.

Everything in this module is exact: coefficients are Python integers or
`fractions.Fraction`, never floats, so an identity either holds or fails
with a concrete witness symbol.

A coproduct table maps each alphabet symbol to a sum of length-2 tensor
words.  Reading every summand x (x) y as a directed arrow x -> y turns a
table into a directed graph; conversely `markov_pair` builds the two
out-edge/in-edge coproducts of any directed graph without sources or sinks.
A source has no in-arrow and a sink has no out-arrow; a loop v -> v counts
as both, so a vertex whose only in-arrow is its own loop is not a source.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .graphs import de_bruijn_labels

Scalar = Union[int, Fraction]
Word = tuple[str, ...]

AXIOMS = (
    "coassociativity",
    "breaking-equation",
    "codialgebra-1",
    "codialgebra-2",
    "codialgebra-3",
    "right-counit",
    "left-counit",
)


def format_word(word: Word) -> str:
    return "⊗".join(map(str, word))


class FormalSum:
    """Finite linear combination of tensor words with exact coefficients.

    Zero coefficients are never stored; two sums are equal iff they carry
    the same words with the same coefficients.  Instances are immutable.
    The constructor is the one place where terms are added up; a word's
    factors are symbols, or (k, W) for the walk's basis term e_k (x) W.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, Scalar] | Iterable[tuple[Word, Scalar]] = ()):
        acc: dict[Word, Scalar] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for word, coeff in items:
            word = tuple(word)
            if not word:
                raise ValueError("tensor words must have length >= 1")
            total = acc.get(word, 0) + coeff
            if total:
                acc[word] = total
            else:
                acc.pop(word, None)
        self._terms = acc

    @classmethod
    def lift(cls, *symbols: str) -> "FormalSum":
        """The single word built from `symbols`, with coefficient 1."""
        return cls([(tuple(symbols), 1)])

    @classmethod
    def basis(cls, symbols: Iterable[str]) -> "FormalSum":
        """Sum of the length-1 words over `symbols` (e.g. a+b+c+d)."""
        return cls([((s,), 1) for s in symbols])

    @property
    def terms(self) -> Mapping[Word, Scalar]:
        return MappingProxyType(self._terms)

    def words(self) -> set[Word]:
        return set(self._terms)

    def __iter__(self):
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSum):
            return NotImplemented
        return self._terms == other._terms

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(chain(self, other))

    def __neg__(self) -> "FormalSum":
        return self.scaled(-1)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + (-other)

    def scaled(self, factor: Scalar) -> "FormalSum":
        return FormalSum((w, c * factor) for w, c in self)

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for word in sorted(self._terms):
            coeff = self._terms[word]
            if coeff == 1:
                parts.append(format_word(word))
            else:
                parts.append(f"{coeff}·{format_word(word)}")
        return " + ".join(parts)


@dataclass(frozen=True, eq=True)
class CoproductTable:
    """Total map symbol -> sum of length-2 words over one alphabet."""

    alphabet: tuple[str, ...]
    rules: dict[str, FormalSum]

    def __post_init__(self):
        symbols = set(self.alphabet)
        if len(symbols) != len(self.alphabet):
            raise ValueError("alphabet symbols must be distinct")
        missing = symbols - set(self.rules)
        if missing:
            raise ValueError(f"coproduct table is not total: missing {sorted(missing)}")
        extra = set(self.rules) - symbols
        if extra:
            raise ValueError(f"rules for symbols outside the alphabet: {sorted(extra)}")
        for symbol, image in self.rules.items():
            if not image:
                raise ValueError(f"empty coproduct image for {symbol!r} (sink vertex)")
            for word, _ in image:
                if len(word) != 2:
                    raise ValueError(
                        f"rule image of {symbol!r} contains {format_word(word)}, "
                        "expected length-2 words"
                    )
                if not set(word) <= symbols:
                    raise ValueError(f"rule image of {symbol!r} leaves the alphabet")

    def apply(self, symbol: str) -> FormalSum:
        return self.rules[symbol]

    def to_json(self) -> dict:
        rules = {}
        for symbol in self.alphabet:
            rules[symbol] = [
                [w[0], w[1], _scalar_to_json(c)]
                for w, c in sorted(self.rules[symbol].terms.items())
            ]
        return {"alphabet": list(self.alphabet), "rules": rules}

    @classmethod
    def from_json(cls, obj) -> "CoproductTable":
        """Inverse of `to_json`; ValueError on any other JSON shape."""
        entries_of = obj.get("rules") if isinstance(obj, dict) else None
        if not (isinstance(entries_of, dict) and _strings(obj.get("alphabet"))):
            raise ValueError(
                'coproduct JSON must be {"alphabet": [symbols], "rules": {symbol: [[x, y, coeff]]}}'
            )
        rules = {}
        for symbol, entries in entries_of.items():
            if not (
                isinstance(entries, list)
                and all(isinstance(e, list) and len(e) == 3 and _strings(e[:2]) for e in entries)
            ):
                raise ValueError(f"rule of {symbol!r} is not a list of [x, y, coeff] triples")
            rules[symbol] = FormalSum(
                [((w1, w2), _scalar_from_json(coeff)) for w1, w2, coeff in entries]
            )
        return cls(tuple(obj["alphabet"]), rules)


@dataclass(frozen=True, eq=True)
class CounitTable:
    """Total scalar map on an alphabet."""

    values: dict[str, Scalar]

    def __call__(self, symbol: str) -> Scalar:
        return self.values[symbol]

    def to_json(self) -> dict:
        return {"values": {s: _scalar_to_json(c) for s, c in sorted(self.values.items())}}

    @classmethod
    def from_json(cls, obj) -> "CounitTable":
        """Inverse of `to_json`; ValueError on any other JSON shape."""
        if not isinstance(obj, dict) or not isinstance(obj.get("values"), dict):
            raise ValueError('counit JSON must be {"values": {symbol: scalar, ..}}')
        return cls({s: _scalar_from_json(c) for s, c in obj["values"].items()})


def _strings(xs) -> bool:
    return isinstance(xs, list) and all(isinstance(x, str) for x in xs)


def _scalar_to_json(c: Scalar):
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return int(c)


def _scalar_from_json(c) -> Scalar:
    if isinstance(c, str):
        try:
            return Fraction(c)
        except ZeroDivisionError:
            raise ValueError(f"scalar {c!r} has a zero denominator") from None
    if isinstance(c, int):
        return c
    raise ValueError(f"scalar must be an int or a 'p/q' string, got {c!r}")


def apply_at(table: CoproductTable, s: FormalSum, slot: int) -> FormalSum:
    """Apply the coproduct at 1-based position `slot` of every word in `s`.

    Each word grows by one letter; the result is linear in `s`.
    """
    if slot < 1:
        raise ValueError(f"slot must be >= 1, got {slot}")
    for word, _ in s:
        if len(word) < slot:
            raise ValueError(f"slot {slot} out of range for word {format_word(word)}")
    return FormalSum(
        (word[: slot - 1] + pair + word[slot:], coeff * imgcoeff)
        for word, coeff in s
        for pair, imgcoeff in table.apply(word[slot - 1])
    )


def iterate_rightmost(table: CoproductTable, seed: FormalSum, n: int) -> FormalSum:
    """Apply the coproduct n times, always at the last slot of each word."""
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    current = seed
    for _ in range(n):
        current = FormalSum(
            (word[:-1] + pair, coeff * imgcoeff)
            for word, coeff in current
            for pair, imgcoeff in table.apply(word[-1])
        )
    return current


def apply_counit_at(counit: CounitTable, s: FormalSum, slot: int) -> FormalSum:
    """Contract 1-based position `slot` of every word with the counit."""
    for word, _ in s:
        if len(word) < slot or slot < 1:
            raise ValueError(f"slot {slot} out of range for word {format_word(word)}")
        if len(word) == 1:
            raise ValueError("contracting a length-1 word would leave a bare scalar")
    return FormalSum(
        (word[: slot - 1] + word[slot:], coeff * counit(word[slot - 1])) for word, coeff in s
    )


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check, with the first counterexample on failure."""

    axiom: str
    ok: bool
    witness: str | None = None
    lhs: FormalSum | None = None
    rhs: FormalSum | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_axiom(
    axiom: str,
    delta: CoproductTable,
    delta_tilde: CoproductTable | None = None,
    counit: CounitTable | None = None,
    left_counit: CounitTable | None = None,
) -> AxiomReport:
    """Check one coalgebra identity on every alphabet symbol.

    Checking on symbols suffices: both sides of every identity are linear.
    Axiom names: coassociativity, breaking-equation, codialgebra-1/2/3,
    right-counit, left-counit.  The breaking equation is the co-dialgebra
    axiom (dt (x) id) d = (id (x) d) dt; codialgebra-1 asks both coproducts
    to be coassociative, codialgebra-2 is (id (x) d) d = (id (x) dt) d and
    codialgebra-3 is (dt (x) id) dt = (d (x) id) dt.  The left counit law
    reads dt, or d when no second table is given.
    """
    if axiom not in AXIOMS:
        raise ValueError(f"unknown axiom {axiom!r}")
    if delta_tilde is None and axiom not in ("coassociativity", "right-counit", "left-counit"):
        raise ValueError(f"axiom {axiom!r} needs a second coproduct table")
    if delta_tilde is not None and delta_tilde.alphabet != delta.alphabet:
        raise ValueError("coproduct tables must share one alphabet")
    d = delta
    dt = delta if delta_tilde is None else delta_tilde
    eps = counit if axiom == "right-counit" else left_counit
    if axiom.endswith("counit"):
        if eps is None:
            raise ValueError(f"{axiom} check needs a counit table")
        missing = [s for s in d.alphabet if s not in eps.values]
        if missing:
            raise ValueError(f"{axiom} check: counit table has no value for {missing[0]!r}")

    def coassociative(t: CoproductTable):
        return (lambda s: apply_at(t, t.apply(s), 1), lambda s: apply_at(t, t.apply(s), 2))

    # Each axiom is a list of identities lhs(s) == rhs(s), checked in order.
    identities = {
        "coassociativity": [coassociative(d)],
        "breaking-equation": [
            (lambda s: apply_at(dt, d.apply(s), 1), lambda s: apply_at(d, dt.apply(s), 2))
        ],
        "codialgebra-1": [coassociative(d), coassociative(dt)],
        "codialgebra-2": [
            (lambda s: apply_at(d, d.apply(s), 2), lambda s: apply_at(dt, d.apply(s), 2))
        ],
        "codialgebra-3": [
            (lambda s: apply_at(dt, dt.apply(s), 1), lambda s: apply_at(d, dt.apply(s), 1))
        ],
        "right-counit": [(lambda s: apply_counit_at(eps, d.apply(s), 2), FormalSum.lift)],
        "left-counit": [(lambda s: apply_counit_at(eps, dt.apply(s), 1), FormalSum.lift)],
    }
    for lhs_of, rhs_of in identities[axiom]:
        for symbol in d.alphabet:
            lhs, rhs = lhs_of(symbol), rhs_of(symbol)
            if lhs != rhs:
                return AxiomReport(axiom, False, symbol, lhs, rhs)
    return AxiomReport(axiom, True)


# ---------------------------------------------------------------------------
# Constructors and fixtures
# ---------------------------------------------------------------------------

def markov_pair(
    vertices: Iterable[str], edges: Iterable[tuple[str, str]]
) -> tuple[CoproductTable, CoproductTable]:
    """Out-edge and in-edge coproducts of a directed graph.

    d v = sum of v (x) w over arrows v -> w and dt v = sum of u (x) v over
    arrows u -> v, one unit of weight per arrow.  Graphs with a source or a
    sink are rejected: their tables would not be total.  A source has no
    in-arrow and a sink has no out-arrow; a loop counts as both.
    """
    vertices = tuple(vertices)
    edge_set = set(edges)
    out_rules: dict[str, list[tuple[Word, Scalar]]] = {v: [] for v in vertices}
    in_rules: dict[str, list[tuple[Word, Scalar]]] = {v: [] for v in vertices}
    for u, w in sorted(edge_set):
        out_rules[u].append(((u, w), 1))
        in_rules[w].append(((u, w), 1))
    for v in vertices:
        if not out_rules[v]:
            raise ValueError(f"vertex {v!r} is a sink; Markov coproducts need none")
        if not in_rules[v]:
            raise ValueError(f"vertex {v!r} is a source; Markov coproducts need none")
    delta = CoproductTable(vertices, {v: FormalSum(out_rules[v]) for v in vertices})
    delta_tilde = CoproductTable(vertices, {v: FormalSum(in_rules[v]) for v in vertices})
    return delta, delta_tilde


def de_bruijn_markov_pair(p: int) -> tuple[CoproductTable, CoproductTable]:
    """Markov coproducts of the complete loop-at-each-vertex graph on p labels."""
    labels = de_bruijn_labels(p)
    return markov_pair(labels, [(u, v) for u in labels for v in labels])


def de_bruijn_counit(p: int) -> CounitTable:
    """v -> 1/p; right counit for the unweighted De Bruijn Markov coproduct."""
    return CounitTable({v: Fraction(1, p) for v in de_bruijn_labels(p)})


def extension_coproduct(p: int) -> CoproductTable:
    """Coassociative coproduct on edge symbols i|j of the p-label De Bruijn graph."""
    labels = de_bruijn_labels(p)
    alphabet = tuple(f"{i}|{j}" for i in labels for j in labels)
    rules = {
        f"{i}|{j}": FormalSum([((f"{i}|{l}", f"{l}|{j}"), 1) for l in labels])
        for i in labels
        for j in labels
    }
    return CoproductTable(alphabet, rules)


def extension_counit(p: int) -> CounitTable:
    labels = de_bruijn_labels(p)
    return CounitTable({f"{i}|{j}": int(i == j) for i in labels for j in labels})


# The four letters name the vertices of the extension of the two-label De
# Bruijn graph, i.e. its edges: a = P|P, b = P|Q, c = Q|P, d = Q|Q.
LETTER_OF = {"P|P": "a", "P|Q": "b", "Q|P": "c", "Q|Q": "d"}
FOUR_LETTERS = tuple(LETTER_OF.values())


def coproduct_e() -> CoproductTable:
    """The coassociative coproduct on a, b, c, d (the Sl_q(2) rule table).

    It is `extension_coproduct(2)` with its symbols renamed by LETTER_OF.
    """
    return CoproductTable(
        FOUR_LETTERS,
        {
            LETTER_OF[s]: FormalSum([(tuple(LETTER_OF[x] for x in w), c) for w, c in image])
            for s, image in extension_coproduct(2).rules.items()
        },
    )


def counit_e() -> CounitTable:
    return CounitTable({LETTER_OF[s]: c for s, c in extension_counit(2).values.items()})


def markov_pair_e() -> tuple[CoproductTable, CoproductTable]:
    """Markov pair of the four-letter graph, whose arrows are the summands of `coproduct_e`."""
    arrows = [word for image in coproduct_e().rules.values() for word in image.words()]
    return markov_pair(FOUR_LETTERS, arrows)


def triangle_coproducts() -> tuple[CoproductTable, CoproductTable]:
    """Directed-triangle Markov pair on x0, x1, x2 with a grouplike unit."""
    xs = ("x0", "x1", "x2")
    alphabet = ("1",) + xs
    lift = FormalSum.lift
    delta = {"1": lift("1", "1")}
    delta_tilde = {"1": lift("1", "1")}
    for alpha in range(3):
        delta[xs[alpha]] = lift(xs[alpha], xs[(alpha + 1) % 3])
        delta_tilde[xs[alpha]] = lift(xs[(alpha - 1) % 3], xs[alpha])
    return CoproductTable(alphabet, delta), CoproductTable(alphabet, delta_tilde)


def flower_coproducts(petals: int = 3) -> tuple[CoproductTable, CoproductTable]:
    """Flower-graph pair: every petal maps to petal (x) 1 and 1 (x) petal."""
    if petals < 1:
        raise ValueError("need at least one petal")
    names = tuple(f"p{i}" for i in range(1, petals + 1))
    alphabet = ("1",) + names
    lift = FormalSum.lift
    delta = {"1": lift("1", "1")}
    delta_tilde = {"1": lift("1", "1")}
    for name in names:
        delta[name] = lift(name, "1")
        delta_tilde[name] = lift("1", name)
    return CoproductTable(alphabet, delta), CoproductTable(alphabet, delta_tilde)


def markov_fixtures(max_de_bruijn: int = 5) -> dict[str, tuple[CoproductTable, CoproductTable]]:
    """Every Markov L-coalgebra pair shipped with the package."""
    fixtures = {
        "extension-four-letter": markov_pair_e(),
        "triangle": triangle_coproducts(),
        "flower-3": flower_coproducts(3),
    }
    for p in range(2, max_de_bruijn + 1):
        fixtures[f"de-bruijn-{p}"] = de_bruijn_markov_pair(p)
    return fixtures
