"""Unitary coins, their row split (`graphs.row_split`), channel checks and Jones relations.

Algebraic relations are stated in terms of the raw matrix entries u_ij,
with any overall normalisation absorbed into the entries: for a 2x2 coin
split into P (row one) and Q (row two),

    P^2 = u11 P,  Q^2 = u22 Q,  PQP = u12 u21 P,  QPQ = u12 u21 Q,

where juxtaposition is the ordinary matrix product.
"""

from __future__ import annotations

import cmath
import random
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from . import graphs

MATRIX_TOL = 1e-12


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def coin_from_angles(theta: float, phi1: float, phi2: float) -> np.ndarray:
    """Three-angle family of 2x2 coins; theta = pi/4, phi = 0 is Hadamard."""
    if not np.all(np.isfinite([theta, phi1, phi2])):
        raise ValueError(f"coin angles must be finite, got {theta}, {phi1}, {phi2}")
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [
            [c, np.exp(1j * phi1) * s],
            [np.exp(1j * phi2) * s, -np.exp(1j * (phi1 + phi2)) * c],
        ]
    )


def random_unitary(n: int, rng: random.Random) -> np.ndarray:
    """Haar-distributed unitary via QR with phase-fixed diagonal.

    The complex Gaussian entries come from the standard library's
    `rng.gauss`, so a draw does not load `numpy.random` (6.4 MiB of peak
    RSS with what it loads).  Their scale does not change Q.
    """
    z = np.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)] for _ in range(n)])
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class CoinPair(namedtuple("CoinPair", "P Q")):
    """P, row one, and Q, row two, of any 2x2 matrix, each a read-only complex (2, 2)
    np.ndarray: the split of the stochastic B steps the classical walk.  `from_unitary`
    is the one door that checks a coin is unitary."""

    __slots__ = ()

    def __new__(cls, P: np.ndarray, Q: np.ndarray):
        # Copies: freezing an array the caller holds would not keep the caller from thawing it.
        P, Q = (np.array(m, dtype=complex, order="C") for m in (P, Q))
        for name, m in (("P", P), ("Q", Q)):
            if m.shape != (2, 2):
                raise ValueError(f"{name} must be 2x2")
            m.setflags(write=False)
        if np.any(P[1] != 0) or np.any(Q[0] != 0):
            raise ValueError("P must have a zero second row and Q a zero first row")
        return super().__new__(cls, P, Q)

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "CoinPair":
        # The shape first: the unitarity check's n x n product grows as n^3.  The row
        # split keeps row h of U bit for bit and zeroes the other as +0.
        if np.shape(u) != (2, 2):
            raise ValueError("coin unitaries are 2x2")
        u = np.asarray(u, dtype=complex)
        if not np.all(np.isfinite(u)):
            raise ValueError("matrix is not unitary (non-finite entry)")
        # Huge finite entries overflow to inf and NaN; the tolerance refuses both.
        with np.errstate(all="ignore"):
            defect = np.max(np.abs(u @ u.conj().T - np.eye(2)))
        if not defect <= MATRIX_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
        return cls(*graphs.row_split(u))


def hadamard_coin() -> CoinPair:
    return CoinPair.from_unitary(hadamard())


class ChannelReport(NamedTuple):
    right_identity: bool
    left_identity: bool
    orthogonal: bool
    max_deviation: float

    @property
    def ok(self) -> bool:
        return self.right_identity and self.left_identity and self.orthogonal


def verify_channel(entries) -> ChannelReport:
    """Kraus-family checks: sum QQ+ = I, sum Q+Q = I, and Q_l Q_h+ = 0 for l != h."""
    mats = [np.asarray(e, dtype=complex) for e in entries]
    if not mats:
        raise ValueError("need at least one Kraus operator")
    n = mats[0].shape[0]
    eye = np.eye(n)
    dev_right = np.max(np.abs(sum(m @ m.conj().T for m in mats) - eye))
    dev_left = np.max(np.abs(sum(m.conj().T @ m for m in mats) - eye))
    dev_orth = 0.0
    for l, ml in enumerate(mats):
        for h, mh in enumerate(mats):
            if l != h:
                dev_orth = max(dev_orth, float(np.max(np.abs(ml @ mh.conj().T))))
    return ChannelReport(
        right_identity=bool(dev_right <= MATRIX_TOL),
        left_identity=bool(dev_left <= MATRIX_TOL),
        orthogonal=bool(dev_orth <= MATRIX_TOL),
        max_deviation=float(max(dev_right, dev_left, dev_orth)),
    )


class PQRelationsReport(NamedTuple):
    ok: bool
    max_deviation: float


def verify_pq_relations(coin: CoinPair) -> PQRelationsReport:
    """Check P^2 = u11 P, Q^2 = u22 Q, PQP = u12 u21 P, QPQ = u12 u21 Q."""
    p, q = coin.P, coin.Q
    cross = p[0, 1] * q[1, 0]
    with np.errstate(all="ignore"):
        residuals = (
            p @ p - p[0, 0] * p, q @ q - q[1, 1] * q, p @ q @ p - cross * p, q @ p @ q - cross * q
        )
        # np.max keeps a NaN residual, which fails the comparison; Python's max may drop it.
        worst = float(np.max(np.abs(residuals)))
    return PQRelationsReport(ok=worst <= MATRIX_TOL, max_deviation=worst)


def jones_parameter(coin: CoinPair) -> complex:
    """The Jones parameter lambda = u12 u21 / (u11 u22) of the coin.

    The normalised idempotents e1 = P/u11 and e2 = Q/u22 are checked to
    satisfy e1^2 = e1, e2^2 = e2, e1 e2 e1 = lambda e1 and e2 e1 e2 =
    lambda e2 within MATRIX_TOL; a non-finite lambda or deviation is refused.
    """
    # Entries of P + Q: a row split's zeros are +0, so the sum turns any -0 part into +0;
    # `coin check` prints the signs of lambda's zero parts, which follow these.
    (u11, u12), (u21, u22) = coin.P + coin.Q
    if u11 == 0 or u22 == 0:
        raise ValueError("Jones generators undefined (zero diagonal entry)")
    # Tiny diagonal entries overflow to inf and NaN; refuse those instead of warning.
    with np.errstate(all="ignore"):
        e1 = coin.P / u11
        e2 = coin.Q / u22
        lam = complex(u12 * u21 / (u11 * u22))
        residuals = (e1 @ e1 - e1, e2 @ e2 - e2, e1 @ e2 @ e1 - lam * e1, e2 @ e1 @ e2 - lam * e2)
        worst = float(np.max(np.abs(residuals)))
    if not cmath.isfinite(lam):
        raise ValueError("Jones generators undefined (non-finite Jones parameter)")
    if not worst <= MATRIX_TOL:
        raise ValueError(f"Jones generators undefined (relations violated, deviation {worst:.3e})")
    return lam


def _number_block(block) -> np.ndarray:
    """A nested list of JSON numbers as a float array; TypeError on any other entry.

    Each entry is checked itself: JSON true loads as a bool, which is an int, numpy
    reads the string "1" as 1.0, and an array's dtype shows neither.
    """
    stack = [block]
    while stack:
        x = stack.pop()
        if isinstance(x, list):
            stack.extend(x)
        elif type(x) not in (int, float):
            raise TypeError("not a number")
    return np.asarray(block, dtype=float)


def coin_from_json(obj) -> np.ndarray:
    """Parse {re: [[..]], im: [[..]]} into a complex matrix; ValueError on other shapes."""
    if not isinstance(obj, dict) or not {"re", "im"} <= obj.keys():
        raise ValueError("coin JSON must be an object {re: [[..]], im: [[..]]}")
    try:
        re, im = (_number_block(obj[key]) for key in ("re", "im"))
    except (TypeError, ValueError, OverflowError):
        raise ValueError("coin JSON blocks re and im must be matrices of numbers") from None
    if re.shape != im.shape:
        raise ValueError("re and im blocks must have the same shape")
    return re + 1j * im
