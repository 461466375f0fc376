"""Independent references for the benchmark's output checks.

Nothing here imports `walkgrammar` or the repository's tests: each
expected value is rebuilt from the paper's definitions.  Checkers read the
CLI output line by line, parse the numbers and compare them with the
reference; they never compare bytes, so a change of float formatting
(``0.2499999999999999`` against ``0.25``) is not a failure.  A checker
raises `Mismatch` with a one-line reason on the first disagreement.
"""

from __future__ import annotations

import json
import math
import re
from typing import Iterable, Iterator

import numpy as np

PROB_TOL = 1e-10

# Letters of the four-letter language and their index pairs (P = -1, Q = +1).
INDEX_PAIRS = {"a": (-1, -1), "b": (-1, 1), "c": (1, -1), "d": (1, 1)}
SYMBOL = {-1: "P", 1: "Q"}


class Mismatch(Exception):
    """The output disagrees with the reference."""


def coin_from_angles(theta: float, phi1: float, phi2: float) -> np.ndarray:
    """The three-angle 2x2 coin family that `--coin custom` takes."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [c, np.exp(1j * phi1) * s],
            [np.exp(1j * phi2) * s, -np.exp(1j * (phi1 + phi2)) * c],
        ]
    )


HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def spinor_walk(coin: np.ndarray, psi, n: int) -> np.ndarray:
    """Probabilities at k = -n, -n+2, ..., n after n steps of the spinor field.

    psi'_k = P psi_{k+1} + Q psi_{k-1}, where P keeps the coin's first row
    and Q its second.  The field lives on the whole lattice -n-1..n+1 (the
    outer sites stay zero), so the update is two shifted matrix products.
    """
    p = np.zeros((2, 2), dtype=complex)
    q = np.zeros((2, 2), dtype=complex)
    p[0] = coin[0]
    q[1] = coin[1]
    field = np.zeros((2 * n + 3, 2), dtype=complex)
    field[n + 1] = np.asarray(psi, dtype=complex)
    for _ in range(n):
        nxt = np.zeros_like(field)
        nxt[1:-1] = field[2:] @ p.T + field[:-2] @ q.T
        field = nxt
    probs = np.sum(np.abs(field) ** 2, axis=1)
    return probs[1:-1:2]


def necklaces(t: int) -> int:
    """Moreau's count of binary necklaces of length t."""
    return sum(_phi(d) * 2 ** (t // d) for d in _divisors(t)) // t


def fixed_density_necklaces(t: int, j: int) -> int:
    """Binary necklaces of length t with exactly j ones."""
    g = math.gcd(t, j)
    return sum(_phi(d) * math.comb(t // d, j // d) for d in _divisors(g)) // t


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _phi(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


def _parse_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise Mismatch(f"{what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise Mismatch(f"{what}: {text!r} is not finite")
    return value


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise Mismatch(f"{what}: {text!r} is not an integer") from None


def _stripped(lines: Iterable[str]) -> Iterator[str]:
    for line in lines:
        yield line.rstrip("\n")


def _header(lines: Iterator[str], expected: str) -> None:
    first = next(lines, None)
    if first != expected:
        raise Mismatch(f"header {first!r}, expected {expected!r}")


def _compare_probs(ks: list[int], ps: list[float], n: int, probs: np.ndarray) -> None:
    if ks != list(range(-n, n + 1, 2)):
        raise Mismatch(f"vertices are not -{n}..{n} in steps of 2")
    err = float(np.max(np.abs(np.asarray(ps) - probs)))
    if not err <= PROB_TOL:
        raise Mismatch(f"probability off by {err:.3e} from the spinor walk")
    total = math.fsum(ps)
    if not abs(total - 1.0) <= PROB_TOL:
        raise Mismatch(f"probabilities sum to {total!r}")


def _check_cell_words(field: str, n: int, k: int) -> None:
    words = field.split("+")
    expected = math.comb(n, (n - k) // 2)
    if len(words) != expected:
        raise Mismatch(f"cell {k} holds {len(words)} words, expected C({n},{(n - k) // 2}) = {expected}")
    if len(set(words)) != len(words):
        raise Mismatch(f"cell {k} repeats a word")
    for w in words:
        if len(w) != n or w.strip("PQ"):
            raise Mismatch(f"malformed word {w!r} in cell {k}")
        if w.count("Q") - w.count("P") != k:
            raise Mismatch(f"word {w!r} has Q-P != {k}")


def check_walk_csv(lines: Iterable[str], n: int, probs: np.ndarray, symbolic: bool = False) -> None:
    """`walk run` CSV: probabilities, and for --symbolic the binomial word cells."""
    rows = _stripped(lines)
    _header(rows, "k,probability,words" if symbolic else "k,probability")
    ks, ps = [], []
    for row in rows:
        fields = row.split(",")
        if len(fields) != (3 if symbolic else 2):
            raise Mismatch(f"row {row[:60]!r} has {len(fields)} fields")
        k = _parse_int(fields[0], "k")
        ks.append(k)
        ps.append(_parse_float(fields[1], f"probability at {k}"))
        if symbolic:
            _check_cell_words(fields[2], n, k)
    _compare_probs(ks, ps, n, probs)


def check_walk_json(lines: Iterable[str], n: int, probs: np.ndarray) -> None:
    """`walk run --format json`: {"time": n, "cells": [{"k", "probability"}]}."""
    try:
        payload = json.loads("".join(lines))
        cells = payload["cells"]
        time = payload["time"]
        ks = [int(c["k"]) for c in cells]
        ps = [float(c["probability"]) for c in cells]
    except (ValueError, KeyError, TypeError) as exc:
        raise Mismatch(f"unreadable walk JSON: {exc}") from None
    if time != n:
        raise Mismatch(f"time {time!r}, expected {n}")
    _compare_probs(ks, ps, n, probs)


_BAR = re.compile(r'<rect x="[^"]*" y="[^"]*" width="[^"]*" height="([^"]*)" fill="steelblue"/>')
_PEAK = re.compile(r'text-anchor="end"[^>]*>([^<]*)</text>')


def check_walk_svg(lines: Iterable[str], n: int, probs: np.ndarray) -> None:
    """`walk plot`: one bar per vertex, heights proportional to the probabilities.

    Heights are printed to 0.01 and the peak label to 1e-4, so the
    tolerances are those roundings.
    """
    heights: list[float] = []
    peak_labels: list[float] = []
    title_ok = False
    for line in _stripped(lines):
        bar = _BAR.search(line)
        if bar:
            heights.append(_parse_float(bar.group(1), "bar height"))
        peak = _PEAK.search(line)
        if peak:
            peak_labels.append(_parse_float(peak.group(1), "peak label"))
        title_ok = title_ok or f"{n} steps</text>" in line
    if not title_ok:
        raise Mismatch(f"no title naming {n} steps")
    if len(heights) != n + 1:
        raise Mismatch(f"{len(heights)} bars, expected {n + 1}")
    if len(peak_labels) != 1:
        raise Mismatch(f"{len(peak_labels)} peak labels, expected 1")
    pmax = float(np.max(probs))
    if not abs(peak_labels[0] - pmax) <= 5.1e-5:
        raise Mismatch(f"peak label {peak_labels[0]} against peak probability {pmax:.6f}")
    tallest = max(heights)
    err = float(np.max(np.abs(np.asarray(heights) - probs / pmax * tallest)))
    if not err <= 0.011:
        raise Mismatch(f"bar height off by {err:.4f} from the spinor walk")


def contraction(word: str) -> str:
    """The P/Q word of a letter word: first index of the first letter, then every second index."""
    return SYMBOL[INDEX_PAIRS[word[0]][0]] + "".join(SYMBOL[INDEX_PAIRS[x][1]] for x in word)


def _require_path(word: str, closed: bool) -> None:
    if not word or word.strip("abcd"):
        raise Mismatch(f"malformed letter word {word!r}")
    pairs = zip(word, word[1:] + word[0]) if closed else zip(word, word[1:])
    for x, y in pairs:
        if INDEX_PAIRS[x][1] != INDEX_PAIRS[y][0]:
            raise Mismatch(f"{word!r}: {x!r} does not compose with {y!r}")


def check_words_csv(lines: Iterable[str], t: int, k: int) -> None:
    """`lang generate --vertex k`: the C(t, (t-k)/2) paths of length t-1 at vertex k."""
    rows = _stripped(lines)
    _header(rows, "word,index,contraction")
    seen: set[str] = set()
    for row in rows:
        fields = row.split(",")
        if len(fields) != 3:
            raise Mismatch(f"row {row!r} has {len(fields)} fields")
        word, index, contracted = fields
        if len(word) != t - 1:
            raise Mismatch(f"word {word!r} is not of length {t - 1}")
        _require_path(word, closed=False)
        if _parse_int(index, f"index of {word}") != k:
            raise Mismatch(f"word {word!r} listed at index {index}, expected {k}")
        if contracted != contraction(word):
            raise Mismatch(f"contraction of {word!r} is {contraction(word)!r}, not {contracted!r}")
        if contracted.count("Q") - contracted.count("P") != k:
            raise Mismatch(f"word {word!r} does not balance to Q-P = {k}")
        seen.add(word)
    expected = math.comb(t, (t - k) // 2)
    if len(seen) != expected:
        raise Mismatch(f"{len(seen)} distinct words, expected C({t},{(t - k) // 2}) = {expected}")


def check_orbits_csv(lines: Iterable[str], t: int) -> None:
    """`orbits enumerate`: every binary necklace of length t, once, with its root."""
    rows = _stripped(lines)
    _header(rows, "pattern,index,root,multiplicity")
    seen: set[str] = set()
    per_vertex: dict[int, int] = {}
    for row in rows:
        fields = row.split(",")
        if len(fields) != 4:
            raise Mismatch(f"row {row!r} has {len(fields)} fields")
        pattern, index, root, mult = fields
        if len(pattern) != t:
            raise Mismatch(f"pattern {pattern!r} is not of length {t}")
        _require_path(pattern, closed=True)
        if pattern != min(pattern[i:] + pattern[:i] for i in range(t)):
            raise Mismatch(f"pattern {pattern!r} is not its least rotation")
        k = sum(INDEX_PAIRS[x][0] for x in pattern)
        if _parse_int(index, f"index of {pattern}") != k:
            raise Mismatch(f"pattern {pattern!r} listed at index {index}, expected {k}")
        period = min(d for d in _divisors(t) if pattern[:d] * (t // d) == pattern)
        if root != pattern[:period] or _parse_int(mult, "multiplicity") != t // period:
            raise Mismatch(f"pattern {pattern!r} has root {pattern[:period]!r}^{t // period}")
        if pattern in seen:
            raise Mismatch(f"pattern {pattern!r} listed twice")
        seen.add(pattern)
        per_vertex[k] = per_vertex.get(k, 0) + 1
    if len(seen) != necklaces(t):
        raise Mismatch(f"{len(seen)} patterns, expected {necklaces(t)} necklaces")
    expected = {k: fixed_density_necklaces(t, (t - k) // 2) for k in range(-t, t + 1, 2)}
    if per_vertex != expected:
        wrong = sorted(k for k in expected if per_vertex.get(k, 0) != expected[k])
        raise Mismatch(f"per-vertex pattern counts differ from the fixed-density counts at {wrong}")


_SUMMARY = re.compile(r"(\d+)/(\d+) checks passed")


def check_verify(lines: Iterable[str]) -> None:
    """`verify all`: every check line PASS and an all-passed summary line."""
    checks = 0
    summary = None
    for line in _stripped(lines):
        if summary is not None:
            raise Mismatch(f"output continues after the summary: {line!r}")
        match = _SUMMARY.fullmatch(line)
        if match:
            summary = (int(match.group(1)), int(match.group(2)))
        elif line.startswith("PASS  "):
            checks += 1
        else:
            raise Mismatch(f"not a passing check: {line!r}")
    if summary is None:
        raise Mismatch("no summary line")
    if checks == 0 or summary != (checks, checks):
        raise Mismatch(f"summary {summary[0]}/{summary[1]} after {checks} passing checks")


def check_help(lines: Iterable[str]) -> None:
    first = next(iter(lines), "")
    if not first.startswith("usage:"):
        raise Mismatch(f"help text starts with {first[:40]!r}")
