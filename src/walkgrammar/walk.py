"""Quantum walk over the integers, in symbolic and numeric form.

One step sends the content of vertex k to its neighbours by appending a
letter on the right:

    cell'(k) = cell(k+1).P + cell(k-1).Q

so the word attached to vertex k at time n has length n and k equals its
Q-count minus its P-count.  Symbolic states carry the words themselves;
numeric states carry the summed 2x2 matrix per vertex.

States store occupied vertices contiguously: index i holds vertex 2i - n.

The numeric stepper uses that P and Q are rows of the coin: P has a zero
second row and Q a zero first row (`CoinPair` enforces both), so for any
2x2 cell M

    M.P = outer(M[:, 0], P[0])      M.Q = outer(M[:, 1], Q[1]).

The full product also adds M[:, 1] P[1] and M[:, 0] Q[0], which are
products with exact zeros, and adding a zero leaves a double unchanged.
So every cell keeps the value the matrix products give, to the last bit;
only the sign of an entry that is exactly zero may differ (the matrix
products start each entry from +0).  The sign of a zero never changes a
nonzero sum or product, so printed probabilities do not change.

One kernel, `_advance`, writes the two outer products into preallocated
buffers; `run_numeric` swaps two of them from step to step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .coalgebra import FormalSum
from .quantize import CoinPair

PROB_TOL = 1e-10
UNITARITY_TOL = 1e-10
COMMUTATOR_TOL = 1e-14
SYMBOLIC_MAX_DEFAULT = 24
# Three (steps + 1, 2, 2) complex buffers: ~19 MB at the cap.
NUMERIC_MAX_STEPS = 100_000


@dataclass(frozen=True)
class SymbolicState:
    """Word sets per occupied vertex at a fixed time."""

    time: int
    cells: tuple[frozenset[str], ...]

    def vertices(self) -> range:
        return range(-self.time, self.time + 1, 2)

    def cell(self, k: int) -> frozenset[str]:
        if (k + self.time) % 2 or abs(k) > self.time:
            return frozenset()
        return self.cells[(k + self.time) // 2]

    def items(self):
        for i, words in enumerate(self.cells):
            yield 2 * i - self.time, words

    def total_words(self) -> int:
        return sum(len(words) for words in self.cells)

    def validate(self) -> None:
        """Recheck the parity, balance and cell-size laws from scratch."""
        n = self.time
        if len(self.cells) != n + 1:
            raise AssertionError("wrong number of cells")
        for k, words in self.items():
            expected = math.comb(n, (n - k) // 2)
            if len(words) != expected:
                raise AssertionError(f"cell {k} holds {len(words)} words, expected {expected}")
            for w in words:
                if len(w) != n or set(w) - {"P", "Q"}:
                    raise AssertionError(f"malformed word {w!r} at vertex {k}")
                if w.count("Q") - w.count("P") != k:
                    raise AssertionError(f"word {w!r} misplaced at vertex {k}")


def initial_symbolic() -> SymbolicState:
    return SymbolicState(0, (frozenset({""}),))


def step_symbolic(s: SymbolicState) -> SymbolicState:
    n = s.time
    cells: list[frozenset[str]] = []
    for j in range(n + 2):
        from_right = {w + "P" for w in s.cells[j]} if j <= n else set()
        from_left = {w + "Q" for w in s.cells[j - 1]} if j >= 1 else set()
        # Disjoint: from_right ends in P, from_left in Q; validate() rechecks cell sizes.
        cells.append(frozenset(from_right | from_left))
    return SymbolicState(n + 1, tuple(cells))


def run_symbolic(steps: int, symbolic_max: int = SYMBOLIC_MAX_DEFAULT) -> SymbolicState:
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps > symbolic_max:
        raise ValueError(
            f"symbolic walk capped at {symbolic_max} steps (2^n words); "
            "raise symbolic_max to override"
        )
    s = initial_symbolic()
    for _ in range(steps):
        s = step_symbolic(s)
    return s


@dataclass(frozen=True)
class NumericState:
    """Summed word matrices per occupied vertex; amps[i] belongs to vertex 2i - n."""

    time: int
    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex)
        if a.shape != (self.time + 1, 2, 2):
            raise ValueError(f"expected shape {(self.time + 1, 2, 2)}, got {a.shape}")
        object.__setattr__(self, "amps", a)
        a.setflags(write=False)

    def vertices(self) -> range:
        return range(-self.time, self.time + 1, 2)

    def cell(self, k: int) -> np.ndarray:
        if (k + self.time) % 2 or abs(k) > self.time:
            return np.zeros((2, 2), dtype=complex)
        return self.amps[(k + self.time) // 2]

    def items(self):
        for i in range(self.time + 1):
            yield 2 * i - self.time, self.amps[i]


def initial_numeric() -> NumericState:
    return NumericState(0, np.eye(2, dtype=complex)[None, :, :])


def _advance(src: np.ndarray, dst: np.ndarray, tmp: np.ndarray, coin: CoinPair) -> None:
    """Write the m + 1 cells after src's m cells into dst[:m + 1]; tmp holds m cells."""
    m = len(src)
    np.multiply(src[:, :, 0, None], coin.P[0], out=dst[:m])
    dst[m] = 0
    np.multiply(src[:, :, 1, None], coin.Q[1], out=tmp[:m])
    dst[1 : m + 1] += tmp[:m]


def step_numeric(s: NumericState, coin: CoinPair) -> NumericState:
    n = s.time
    amps = np.empty((n + 2, 2, 2), dtype=complex)
    _advance(s.amps, amps, np.empty_like(s.amps), coin)
    return NumericState(n + 1, amps)


def run_numeric(coin: CoinPair, steps: int) -> NumericState:
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if steps > NUMERIC_MAX_STEPS:
        raise ValueError(f"numeric walk capped at {NUMERIC_MAX_STEPS} steps, got {steps}")
    cur, nxt, tmp = (np.empty((steps + 1, 2, 2), dtype=complex) for _ in range(3))
    cur[0] = np.eye(2)
    for n in range(steps):
        _advance(cur[: n + 1], nxt, tmp, coin)
        cur, nxt = nxt, cur
    return NumericState(steps, cur)


def word_matrix(word: str, coin: CoinPair) -> np.ndarray:
    m = np.eye(2, dtype=complex)
    for letter in word:
        m = m @ (coin.P if letter == "P" else coin.Q)
    return m


def evaluate(s: SymbolicState, coin: CoinPair) -> NumericState:
    """Map every word set to its summed matrix; shared prefixes are cached."""
    cache: dict[str, np.ndarray] = {"": np.eye(2, dtype=complex)}

    def product(word: str) -> np.ndarray:
        m = cache.get(word)
        if m is None:
            m = product(word[:-1]) @ (coin.P if word[-1] == "P" else coin.Q)
            cache[word] = m
        return m

    amps = np.zeros((s.time + 1, 2, 2), dtype=complex)
    for i, words in enumerate(s.cells):
        for w in words:
            amps[i] += product(w)
    return NumericState(s.time, amps)


def unitarity_defect(s: NumericState) -> float:
    """Max deviation of sum_k cell(k)+ cell(k) from the identity."""
    gram = np.einsum("kij,kil->jl", s.amps.conj(), s.amps)
    return float(np.max(np.abs(gram - np.eye(2))))


def distribution(s: NumericState, psi: Sequence[complex]) -> dict[int, float]:
    """Probability per vertex for initial spinor psi: ||cell(k) psi||^2."""
    psi = np.asarray(psi, dtype=complex).reshape(2)
    if not abs(np.linalg.norm(psi) - 1.0) <= PROB_TOL:
        raise ValueError("initial spinor must have unit norm")
    vectors = s.amps @ psi
    probs = np.sum(np.abs(vectors) ** 2, axis=1)
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= PROB_TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return {2 * i - s.time: float(p) for i, p in enumerate(probs)}


def mixed_distribution(
    components: Iterable[tuple[float, Sequence[complex]]],
    coin: CoinPair,
    steps: int,
) -> dict[int, float]:
    """Weighted mixture of per-spinor walk distributions.

    Callers supply the spectral decomposition (p_i, psi_i) themselves; no
    eigendecomposition happens here.
    """
    components = list(components)
    weights = [float(p) for p, _ in components]
    if not abs(sum(weights) - 1.0) <= PROB_TOL:
        raise ValueError("mixture weights must sum to 1")
    state = run_numeric(coin, steps)
    out: dict[int, float] = {k: 0.0 for k in state.vertices()}
    for weight, psi in components:
        for k, p in distribution(state, psi).items():
            out[k] += weight * p
    return out


def classical_distribution(n: int) -> dict[int, Fraction]:
    """Binomial law of the +-1 coin-flip walk on the parity lattice."""
    if n < 0:
        raise ValueError("time must be >= 0")
    return {k: Fraction(math.comb(n, (n - k) // 2), 2**n) for k in range(-n, n + 1, 2)}


@dataclass(frozen=True)
class ConjugacyReport:
    """Truncated check that the bit shift maps to doubling mod 1."""

    phi: Fraction
    doubled: Fraction
    phi_shifted: Fraction
    residual: Fraction
    bound: Fraction
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


def shift_conjugacy_check(bits: Sequence[int]) -> ConjugacyReport:
    """Compare Phi(shifted bits) with 2 Phi(bits) mod 1, exactly.

    Phi truncates the binary expansion at the given length, so the two
    sides may differ by at most 2^-(L-1).
    """
    bits = [int(b) for b in bits]
    if len(bits) < 2:
        raise ValueError("need at least two bits")
    if set(bits) - {0, 1}:
        raise ValueError("bits must be 0 or 1")
    length = len(bits)
    phi = sum(Fraction(b, 2 ** (i + 1)) for i, b in enumerate(bits))
    doubled = (2 * phi) % 1
    phi_shifted = sum(Fraction(b, 2 ** (i + 1)) for i, b in enumerate(bits[1:]))
    residual = abs(phi_shifted - doubled)
    bound = Fraction(1, 2 ** (length - 1))
    return ConjugacyReport(phi, doubled, phi_shifted, residual, bound, residual <= bound)


# ---------------------------------------------------------------------------
# Dispersion operators and their commutator
# ---------------------------------------------------------------------------

def dispersion_down(x: FormalSum) -> FormalSum:
    """Move every basis term e_k (x) W, the word (k, W), one vertex down, appending P."""
    return FormalSum(((k - 1, w + "P"), c) for (k, w), c in x)


def dispersion_up(x: FormalSum) -> FormalSum:
    """Move every basis term e_k (x) W, the word (k, W), one vertex up, appending Q."""
    return FormalSum(((k + 1, w + "Q"), c) for (k, w), c in x)


def _default_commutator_words(max_len: int = 5) -> list[str]:
    return ["".join(p) for n in range(max_len + 1) for p in itertools.product("PQ", repeat=n)]


@dataclass(frozen=True)
class CommutatorReport:
    symbolic_ok: bool
    numeric_ok: bool
    max_deviation: float
    words_checked: int

    def __bool__(self) -> bool:
        return self.symbolic_ok and self.numeric_ok


def commutator_check(
    coin: CoinPair,
    words: Iterable[str] | None = None,
    tol: float = COMMUTATOR_TOL,
) -> CommutatorReport:
    """Verify that the dispersion commutator is right concatenation by QP - PQ.

    Operator words are read in application order: the first term applies
    the up operator, then the down operator.  On a basis element e_k (x) W
    both sides equal e_k (x) (W.QP - W.PQ); the numeric variant evaluates
    the same identity on matrices.
    """
    if words is None:
        words = _default_commutator_words()
    words = list(words)
    symbolic_ok = True
    max_dev = 0.0
    commutator = coin.Q @ coin.P - coin.P @ coin.Q
    for i, w in enumerate(words):
        k = (i % 7) - 3
        x = FormalSum.lift(k, w)
        lhs = dispersion_down(dispersion_up(x)) - dispersion_up(dispersion_down(x))
        if lhs != FormalSum([((k, w + "QP"), 1), ((k, w + "PQ"), -1)]):
            symbolic_ok = False
        m = word_matrix(w, coin)
        numeric_lhs = (m @ coin.Q) @ coin.P - (m @ coin.P) @ coin.Q
        dev = float(np.max(np.abs(numeric_lhs - m @ commutator)))
        max_dev = max(max_dev, dev)
    return CommutatorReport(symbolic_ok, max_dev <= tol, max_dev, len(words))
