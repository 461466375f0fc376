"""Independent oracles for the test suite.

Everything here is rebuilt from first principles (letters as overlapping
P/Q windows, walks as spinor fields, cycles by DFS) so that the tests
check the package against a second route, not against itself.
`run_python` is the one way the tests start a fresh interpreter.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import walkgrammar

SRC = str(Path(walkgrammar.__file__).resolve().parents[1])
CLI = ("-m", "walkgrammar.cli")


def _limit_memory() -> None:
    # 1 GiB of address space: a regression that builds the 2^N words fails
    # with MemoryError instead of exhausting the machine.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def run_python(*args: str, env=None, memory_cap: bool = False, **kwargs) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on `args` (`*CLI, ...` for the CLI) with the package on its path.

    The child's environment is this process's without OPENBLAS_NUM_THREADS,
    which in-process CLI runs leave set, plus `env`.  `memory_cap` limits its
    address space to 1 GiB.  Output is captured as text unless `kwargs` say
    otherwise; they go to `subprocess.run`.
    """
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("stderr", subprocess.PIPE)
    kwargs.setdefault("text", True)
    return subprocess.run(
        [sys.executable, *args],
        env=dict(inherited, PYTHONPATH=SRC, **(env or {})),
        preexec_fn=_limit_memory if memory_cap else None,
        **kwargs,
    )

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


def path_word_error(word: str) -> str | None:
    """The package's diagnostic for a non-path word, by a letter-by-letter scan; None for a path."""
    if not word:
        return "letter words must be nonempty"
    bad = set(word) - set(PAIRS)
    if bad:
        return f"unknown letters {sorted(bad)} in {word!r}"
    for i, (x, y) in enumerate(zip(word, word[1:])):
        if y not in ADJACENT[x]:
            return f"{word!r} breaks at position {i}: {x!r} does not compose with {y!r}"
    return None


def min_rotation(s: str) -> str:
    return min(s[i:] + s[:i] for i in range(len(s)))


def primitive_root_oracle(s: str) -> tuple[str, int]:
    """Shortest prefix whose repetition gives s, with its count, by scanning the divisors of len(s)."""
    n = len(s)
    d = next(d for d in range(1, n + 1) if n % d == 0 and s[:d] * (n // d) == s)
    return s[:d], n // d


def grow_oracle(letters: str) -> frozenset[str]:
    """Growth by its definition, as least rotations.

    The letter with window uv splits into the windows us, sv for s in
    {P, Q}; each of the 2 len(letters) candidates is rotated on its own.
    """
    letter = {pair: x for x, pair in PAIRS.items()}
    return frozenset(
        min_rotation(letters[:i] + letter[u + s] + letter[s + v] + letters[i + 1 :])
        for i, (u, v) in enumerate(map(PAIRS.get, letters))
        for s in "PQ"
    )


def fixed_density_necklaces(t: int, j: int) -> int:
    """Binary necklaces of length t with j ones (Ruskey & Sawada, SIAM J. Comput. 1999).

    N(t, j) = (1/t) sum over d | gcd(t, j) of phi(d) C(t/d, j/d).
    """
    g = math.gcd(t, j)
    divisors = [d for d in range(1, g + 1) if g % d == 0]
    phi = {d: sum(math.gcd(d, i) == 1 for i in range(1, d + 1)) for d in divisors}
    return sum(phi[d] * math.comb(t // d, j // d) for d in divisors) // t


def symbolic_cells(steps: int) -> list[frozenset[str]]:
    """Walk cells by the append recurrence on sets; index i holds vertex 2i - steps."""
    cells = [frozenset({""})]
    for n in range(steps):
        cells = [
            frozenset({w + "P" for w in (cells[j] if j <= n else ())})
            | frozenset({w + "Q" for w in (cells[j - 1] if j >= 1 else ())})
            for j in range(n + 2)
        ]
    return cells


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


def dense_product(a, b) -> tuple[tuple[Fraction, ...], ...]:
    """Exact matrix product a.b over every entry, zeros included."""
    m = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(m)), Fraction(0)) for j in range(m))
        for i in range(m)
    )


def x_relation_failures(rows) -> list[tuple[int, int]]:
    """Pairs (h, l) with X_h X_l != B_hl X_l, X_h acting first, by dense products."""
    m = len(rows)
    x = [tuple(tuple(rows[i]) if i == h else (Fraction(0),) * m for i in range(m)) for h in range(m)]
    return [
        (h, l)
        for h in range(m)
        for l in range(m)
        if dense_product(x[l], x[h]) != tuple(tuple(rows[h][l] * v for v in row) for row in x[l])
    ]
