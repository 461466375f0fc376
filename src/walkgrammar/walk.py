"""Quantum walk over the integers, in symbolic and numeric form.

One step sends the content of vertex k to its neighbours by appending a
letter on the right:

    cell'(k) = cell(k+1).P + cell(k-1).Q

so the word attached to vertex k at time n has length n and k equals its
Q-count minus its P-count.  Symbolic states carry the words themselves,
each cell a sorted tuple: appending one letter keeps a sorted cell
sorted, so a new cell merges two sorted runs (ending in P and in Q, so
disjoint), which `sorted` does in linear time.  Numeric states carry the
summed 2x2 matrix per vertex.

`run_symbolic` is that appending construction, the paper's, and it is the
reference.  The cell at vertex k is exactly the set of P/Q words of length
n with (n - k)/2 P's, so `symbolic_cells` reads the same cells, in the same
order, off `language.pq_cells`, one '+'-joined text at a time, without
holding 2^n word objects; `walk run --symbolic` prints those, and `verify`
checks them against `run_symbolic` cell by cell.

The cells at time n are the coefficients of one Laurent polynomial.  With
the one-step transfer matrix M(z) = z^-1 P + z Q, the generating function
C_n(z) = sum_k cell(n, k) z^k obeys C_{n+1}(z) = C_n(z) M(z), so
C_n(z) = M(z)^n.  Substituting w = z^2 gives C_n(z) = z^-n (P + w Q)^n: the
cell at vertex 2j - n is the w^j coefficient of a matrix polynomial of
degree n.  `fourier_distribution` evaluates (P + w Q)^n psi at the
2^b > n roots of unity w by binary powering and reads the coefficients back
with one FFT, in O(n log n) time and O(n) memory.  Its error is absolute:
like the stepper's, it grows as about n eps times the largest cell (both
are within 1e-14 of the exact Hadamard probabilities at 2000 steps), but
cells far below that are noise: at 600 steps the far tails are off by a
factor of 1e150.  That suits `walk plot`, whose bars round to 0.01 px of
a 330 px peak.  `walk run` prints 15 significant digits of every cell, so
it keeps the O(n^2) stepper below, whose tail cells keep their relative
accuracy (at 1000 steps its largest relative error is 2e-13).

States store occupied vertices contiguously, in the order of
`vertices(n)`: the time-n lattice -n, -n + 2, ..., n.  The lattice and
`require_word_time`, the rule that admits a symbolic time (from step 0 up
to the word-set cap), come from `language`, which needs no numpy; the
laws the states obey are checked in `verify`.

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
column planes, complex buffers of shape (2, 2 cells): entry (r, c) of cell
j sits at [c, 2j + r], so plane c holds column c of every cell with the
cell's two rows side by side.  One step is three numpy calls covering both
rows: column 0 times P[0] into the new cells, column 1 times Q[1] into a
scratch plane, and one `+=` shifted by a cell.  As a cell's rows are
adjacent, every operand is a slice of the planes' own dtype with a
contiguous last axis (the coin row broadcasts as (2, 1)), so numpy needs
no cast, copy or iterator buffer and the calls allocate nothing.  Each
entry still gets the same two products and the same one addition, so the
planes hold the same bytes.  The buffers start as zeros, and step n
writes a buffer only below index 2n + 4: the last new cell, which has no
P term, is its Q term added to zeros no earlier step wrote.
Past about 2000 steps the walk's tails hold subnormal doubles, whose
arithmetic is slow on many x86 CPUs; no layout that keeps the bytes
avoids that cost.  `run_numeric` swaps two planes from step to step, and
`NumericState` copies the last one into its (cells, 2, 2) layout.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .coalgebra import FormalSum
from .language import pq_cells, require_word_time, vertices
from .quantize import CoinPair

PROB_TOL = 1e-10
# run_numeric holds three (2, 2 steps + 2) complex column planes: 6.4 MB each, 19.2 MB at the cap.
NUMERIC_MAX_STEPS = 100_000


class SymbolicState(NamedTuple):
    """Words per occupied vertex at a fixed time, each cell a strictly increasing tuple."""

    time: int
    cells: tuple[tuple[str, ...], ...]

    def cell(self, k: int) -> tuple[str, ...]:
        lattice = vertices(self.time)
        return self.cells[lattice.index(k)] if k in lattice else ()

    def items(self):
        return zip(vertices(self.time), self.cells)

    def total_words(self) -> int:
        return sum(len(words) for words in self.cells)


def initial_symbolic() -> SymbolicState:
    return SymbolicState(0, (("",),))


def step_symbolic(s: SymbolicState) -> SymbolicState:
    n = s.time
    cells: list[tuple[str, ...]] = []
    for j in range(n + 2):
        from_right = [w + "P" for w in s.cells[j]] if j <= n else []
        from_left = [w + "Q" for w in s.cells[j - 1]] if j >= 1 else []
        # verify.broken_cell_law rechecks order and sizes.
        cells.append(tuple(sorted(from_right + from_left)))
    return SymbolicState(n + 1, tuple(cells))


def run_symbolic(steps: int) -> SymbolicState:
    require_word_time(steps, "steps", 0)
    s = initial_symbolic()
    for _ in range(steps):
        s = step_symbolic(s)
    return s


def symbolic_cells(steps: int) -> Iterator[str]:
    """The cells of run_symbolic(steps) in the order of `vertices(steps)`, each
    one '+'-joined text, built one cell at a time from the fixed-count words."""
    require_word_time(steps, "steps", 0)
    return pq_cells(steps, vertices(steps))


class NumericState(namedtuple("NumericState", "time amps")):
    """Summed word matrices `amps`, a read-only complex np.ndarray of shape (time + 1, 2, 2):
    one per occupied vertex at the int `time`, in the order of `vertices(time)`."""

    __slots__ = ()

    def __new__(cls, time: int, amps: np.ndarray):
        a = np.array(amps, dtype=complex, order="C")  # a copy: the caller's array stays its own
        if a.shape != (time + 1, 2, 2):
            raise ValueError(f"expected shape {(time + 1, 2, 2)}, got {a.shape}")
        a.setflags(write=False)
        return super().__new__(cls, time, a)


def _advance(src: np.ndarray, dst: np.ndarray, tmp: np.ndarray, coin: CoinPair) -> None:
    """Write the m + 1 cells after src's m cells into dst[:, :2m + 2]; tmp holds m cells.

    All three are column planes (module docstring).  dst[:, 2m:2m + 2] must be
    zeros: the last new cell is only its Q term, added there.
    """
    w = src.shape[1]
    np.multiply(src[0], coin.P[0][:, None], out=dst[:, :w])
    np.multiply(src[1], coin.Q[1][:, None], out=tmp[:, :w])
    dst[:, 2 : w + 2] += tmp[:, :w]


def _require_numeric_steps(steps: int) -> None:
    if steps < 0:
        raise ValueError(f"need steps >= 0, got {steps}")
    if steps > NUMERIC_MAX_STEPS:
        raise ValueError(f"numeric walk capped at {NUMERIC_MAX_STEPS} steps, got {steps}")


def run_numeric(coin: CoinPair, steps: int) -> NumericState:
    _require_numeric_steps(steps)
    # Zeros: step n writes a plane only below index 2n + 4 (module docstring).
    cur, nxt, tmp = (np.zeros((2, 2 * steps + 2), dtype=complex) for _ in range(3))
    cur[:, :2] = np.eye(2)
    for n in range(steps):
        _advance(cur[:, : 2 * n + 2], nxt, tmp, coin)
        cur, nxt = nxt, cur
    del nxt, tmp  # before NumericState copies cur: three planes stay the peak
    return NumericState(steps, cur.reshape(2, steps + 1, 2).transpose(1, 2, 0))


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


def unit_spinor(psi: Sequence[complex]) -> np.ndarray:
    """psi as a complex 2-vector, refused unless its norm is 1 within PROB_TOL."""
    psi = np.asarray(psi, dtype=complex).reshape(2)
    # hypot neither overflows nor warns; NaN and inf fail the tolerance.
    if not abs(math.hypot(*psi.real, *psi.imag) - 1.0) <= PROB_TOL:
        raise ValueError("initial spinor must have unit norm")
    return psi


def _probabilities(time: int, spinors: np.ndarray) -> dict[int, float]:
    """||v_k||^2 per vertex of the (2, time + 1) cell spinors v_k, checked to sum to 1."""
    probs = np.sum(np.abs(spinors) ** 2, axis=0)
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= PROB_TOL:
        raise ValueError(f"probabilities sum to {total!r}, expected 1")
    return {k: float(p) for k, p in zip(vertices(time), probs)}


def distribution(s: NumericState, psi: Sequence[complex]) -> dict[int, float]:
    """Probability per vertex for initial spinor psi: ||cell(k) psi||^2."""
    return _probabilities(s.time, (s.amps @ unit_spinor(psi)).T)


def fourier_distribution(coin: CoinPair, steps: int, psi: Sequence[complex]) -> dict[int, float]:
    """distribution(run_numeric(coin, steps), psi) to absolute accuracy, in O(n log n).

    The w^j coefficient of (P + w Q)^n psi is cell(n, 2j - n) psi (module
    docstring); it is evaluated at `size` > n roots of unity, so the FFT
    reads every coefficient back without aliasing.
    """
    _require_numeric_steps(steps)
    v = unit_spinor(psi)
    size = 1 << steps.bit_length()
    w = np.exp(2j * np.pi * np.arange(size) / size)
    # Entry planes of M = P + w Q = [[a, b], [c, d]]; each squaring replaces M by M^2.
    a, b = np.full(size, coin.P[0, 0]), np.full(size, coin.P[0, 1])
    c, d = w * coin.Q[1, 0], w * coin.Q[1, 1]
    v0, v1 = np.full(size, v[0]), np.full(size, v[1])
    n = steps
    while n:
        if n & 1:
            v0, v1 = a * v0 + b * v1, c * v0 + d * v1
        n >>= 1
        if n:
            bc, trace = b * c, a + d
            a, b, c, d = a * a + bc, b * trace, c * trace, d * d + bc
    spinors = np.fft.fft(np.stack([v0, v1]), axis=1)[:, : steps + 1] / size
    return _probabilities(steps, spinors)


# ---------------------------------------------------------------------------
# Dispersion operators
# ---------------------------------------------------------------------------

def dispersion_down(x: FormalSum) -> FormalSum:
    """Move every basis term e_k (x) W, the word (k, W), one vertex down, appending P."""
    return FormalSum(((k - 1, w + "P"), c) for (k, w), c in x)


def dispersion_up(x: FormalSum) -> FormalSum:
    """Move every basis term e_k (x) W, the word (k, W), one vertex up, appending Q."""
    return FormalSum(((k + 1, w + "Q"), c) for (k, w), c in x)
