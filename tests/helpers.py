"""Independent oracles for the test suite.

Everything here is rebuilt from first principles (letters as overlapping
P/Q windows, walks as spinor fields, cycles by DFS) so that the tests
check the package against a second route, not against itself.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Letters as two-symbol windows over {P, Q}.
PAIRS = {"a": "PP", "b": "PQ", "c": "QP", "d": "QQ"}
ADJACENT = {x: [y for y in PAIRS if PAIRS[x][1] == PAIRS[y][0]] for x in PAIRS}


def contract_oracle(word: str) -> str:
    out = PAIRS[word[0]]
    for prev, cur in zip(word, word[1:]):
        assert PAIRS[prev][1] == PAIRS[cur][0], f"{word} is not a path"
        out += PAIRS[cur][1]
    return out


def index_oracle(word: str) -> int:
    m = contract_oracle(word)
    return m.count("Q") - m.count("P")


def path_words(length: int) -> set[str]:
    """All composable letter words of the given length, by DFS."""
    words = set(PAIRS)
    for _ in range(length - 1):
        words = {w + y for w in words for y in ADJACENT[w[-1]]}
    return words


def min_rotation(s: str) -> str:
    return min(s[i:] + s[:i] for i in range(len(s)))


def closed_cycles(length: int) -> set[str]:
    """Canonical rotations of all closed composable cycles of the given length."""
    return {
        min_rotation(w)
        for w in path_words(length)
        if w[0] in ADJACENT[w[-1]]
    }


def simple_cycles_networkx() -> set[str]:
    """Vertex-simple directed cycles of the letter graph, via Johnson's algorithm."""
    import networkx as nx

    g = nx.DiGraph((x, y) for x in PAIRS for y in ADJACENT[x])
    return {min_rotation("".join(cycle)) for cycle in nx.simple_cycles(g)}


def spinor_walk_distribution(u: np.ndarray, psi, steps: int) -> dict[int, float]:
    """Left-action coin walk: psi'_k = P psi_{k+1} + Q psi_{k-1}.

    The cell polynomials are closed under word reversal, so this evolution
    reproduces the same per-vertex amplitudes as the right-multiplication
    recursion it cross-checks.
    """
    u = np.asarray(u, dtype=complex)
    p = np.array([[u[0, 0], u[0, 1]], [0, 0]])
    q = np.array([[0, 0], [u[1, 0], u[1, 1]]])
    field = {0: np.asarray(psi, dtype=complex)}
    for _ in range(steps):
        new: dict[int, np.ndarray] = {}
        for k, vec in field.items():
            new[k - 1] = new.get(k - 1, 0) + p @ vec
            new[k + 1] = new.get(k + 1, 0) + q @ vec
        field = new
    return {k: float(np.sum(np.abs(v) ** 2)) for k, v in field.items()}


def matmul_walk(coin, steps: int) -> np.ndarray:
    """Cells after `steps` steps by the definitional recurrence, full 2x2 products.

    cell'(k) = cell(k+1) @ P + cell(k-1) @ Q, each step into fresh zeros.
    """
    amps = np.eye(2, dtype=complex)[None, :, :]
    for _ in range(steps):
        new = np.zeros((len(amps) + 1, 2, 2), dtype=complex)
        new[:-1] += amps @ coin.P
        new[1:] += amps @ coin.Q
        amps = new
    return amps


def random_bistochastic(rng: np.random.Generator, dim: int):
    """Exact rational bistochastic matrix: convex mix of permutations."""
    from walkgrammar.graphs import StochMatrix

    n_terms = int(rng.integers(2, 5))
    weights = [int(w) for w in rng.integers(1, 9, size=n_terms)]
    total = sum(weights)
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for w in weights:
        perm = rng.permutation(dim)
        for i in range(dim):
            rows[i][perm[i]] += Fraction(w, total)
    return StochMatrix(tuple(tuple(row) for row in rows))
