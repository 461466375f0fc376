import random

import numpy as np
import pytest

from walkgrammar.graphs import bernoulli_matrix, row_split
from walkgrammar.quantize import (
    CoinPair,
    coin_from_angles,
    coin_from_json,
    hadamard,
    hadamard_coin,
    jones_parameter,
    random_unitary,
    verify_channel,
    verify_pq_relations,
)

RT2 = 1 / np.sqrt(2)


def split(u) -> list[np.ndarray]:
    """The row split of a matrix, each part as the complex array a coin reads it as."""
    return [np.array(m, dtype=complex) for m in row_split(np.asarray(u, dtype=complex))]


def test_row_split_of_hadamard():
    p, q = split(hadamard())
    np.testing.assert_allclose(p, RT2 * np.array([[1, 1], [0, 0]]), atol=1e-15)
    np.testing.assert_allclose(q, RT2 * np.array([[0, 0], [1, -1]]), atol=1e-15)
    # The zeroed rows are +0 in both parts, so P + Q reproduces U bit for bit.
    assert not np.signbit(p[1].view(float)).any() and not np.signbit(q[0].view(float)).any()


def test_row_split_partitions_entries_exactly():
    rng = random.Random(0)
    for dim in (2, 3, 4):
        u = random_unitary(dim, rng)
        parts = split(u)
        assert np.array_equal(sum(parts), u)


def test_row_split_of_identity():
    parts = split(np.eye(3))
    for h, ph in enumerate(parts):
        for l, pl in enumerate(parts):
            target = pl if h == l else np.zeros((3, 3))
            np.testing.assert_allclose(ph @ pl, target, atol=1e-15)


def test_row_split_rejects_non_unitary():
    # A coin is split only once it is checked unitary.
    with pytest.raises(ValueError, match="unitary"):
        CoinPair.from_unitary(np.array([[1, 1], [0, 1]]))


def test_random_unitary_channel():
    rng = random.Random(1)
    u = random_unitary(3, rng)
    report = verify_channel(split(u))
    assert report.ok and report.max_deviation < 1e-12


def test_pointwise_link_to_x_decomposition():
    # |Q_h|^2 entrywise equals the classical row decomposition of B_2: one split serves both.
    xs = row_split(bernoulli_matrix(2).rows)
    qs = split(hadamard())
    for x, q in zip(xs, qs):
        np.testing.assert_allclose(np.abs(q) ** 2, np.array(x, dtype=float), atol=1e-12)


def test_the_split_of_hadamard_is_the_hadamard_coin_bit_for_bit():
    bits = np.uint64
    for part, coin_part in zip(split(hadamard()), hadamard_coin()):
        assert np.array_equal(part.view(bits), coin_part.view(bits))


def test_coin_pair_invariants():
    coin = hadamard_coin()
    assert np.array_equal(coin.P + coin.Q, hadamard())
    assert np.all(coin.P[1] == 0) and np.all(coin.Q[0] == 0)
    with pytest.raises(ValueError):
        CoinPair(np.ones((2, 2)), np.zeros((2, 2)))


def test_verify_channel_cases():
    assert verify_channel(split(hadamard())).max_deviation < 1e-15
    assert verify_channel([np.eye(2)]).ok
    coin = hadamard_coin()
    duplicated = verify_channel([coin.P, coin.P])
    assert not duplicated.right_identity
    with pytest.raises(ValueError):
        verify_channel([])


def test_pq_relations_hadamard():
    report = verify_pq_relations(hadamard_coin())
    assert report.ok and report.max_deviation < 1e-15
    # P^2 = u11 P with u11 = 1/sqrt(2), checked directly.
    coin = hadamard_coin()
    np.testing.assert_allclose(coin.P @ coin.P, RT2 * coin.P, atol=1e-15)


def test_pq_relations_diagonal_and_antidiagonal():
    coin = CoinPair.from_unitary(np.diag([np.exp(0.3j), np.exp(-1.1j)]))
    assert verify_pq_relations(coin).ok
    np.testing.assert_allclose(coin.P @ coin.Q @ coin.P, np.zeros((2, 2)), atol=1e-15)

    coin = CoinPair.from_unitary(np.array([[0, 1], [1, 0]], dtype=complex))
    assert verify_pq_relations(coin).ok
    np.testing.assert_allclose(coin.P @ coin.P, np.zeros((2, 2)), atol=1e-15)


def test_pq_relations_fail_on_a_nan_entry():
    # The relations hold for any P and Q of one nonzero row each, so only a
    # non-finite entry fails them; the worst residual keeps the NaN.
    report = verify_pq_relations(CoinPair(np.array([[np.nan, 0], [0, 0]]), np.diag([0, 1])))
    assert not report.ok


def test_jones_parameter_hadamard():
    coin = hadamard_coin()
    lam = jones_parameter(coin)
    # lambda = (u12 u21) / (u11 u22) = (1/2) / (-1/2) = -1.
    assert lam == pytest.approx(-1)
    e1, e2 = coin.P / coin.P[0, 0], coin.Q / coin.Q[1, 1]
    np.testing.assert_allclose(e1 @ e2 @ e1, lam * e1, atol=1e-12)
    np.testing.assert_allclose(e1 @ e1, e1, atol=1e-12)


def test_jones_parameter_identity_and_antidiagonal():
    assert jones_parameter(CoinPair.from_unitary(np.eye(2))) == 0
    swap = CoinPair.from_unitary(np.array([[0, 1], [1, 0]], dtype=complex))
    with pytest.raises(ValueError, match="undefined"):
        jones_parameter(swap)


def test_coin_from_angles_covers_hadamard():
    np.testing.assert_allclose(coin_from_angles(np.pi / 4, 0.0, 0.0), hadamard(), atol=1e-15)
    rng = np.random.default_rng(2)
    for _ in range(20):
        theta, phi1, phi2 = rng.uniform(0, 2 * np.pi, size=3)
        CoinPair.from_unitary(coin_from_angles(theta, phi1, phi2))


def test_row_amplitudes_match_induced_bistochastic_row():
    rng = random.Random(3)
    for _ in range(20):
        u = random_unitary(2, rng)
        coin = CoinPair.from_unitary(u)
        assert abs(u[0, 0]) ** 2 + abs(u[0, 1]) ** 2 == pytest.approx(1, abs=1e-12)
        np.testing.assert_allclose(
            np.abs(coin.P[0]) ** 2, np.abs(u[0]) ** 2, atol=1e-15
        )


def test_coin_from_json():
    u = coin_from_json({"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]})
    assert np.array_equal(u, np.eye(2))
    with pytest.raises(ValueError):
        coin_from_json({"re": [[1, 0]], "im": [[0, 0], [0, 0]]})


@pytest.mark.parametrize(
    "blob",
    [
        [1, 2],
        {"re": [[1, 0], [0, 1]]},
        {"re": [[1, 0], [0, 1]], "im": {"a": 1}},
        {"re": [[1, 0], [0, 1]], "im": [[0, 0], [0]]},
        # Entries that are not JSON numbers, which np.asarray would read as 1.0 or 0.0.
        {"re": [[True, False], [False, True]], "im": [[0, 0], [0, 0]]},
        # One int beside the bool: the array would be int and hide the bool.
        {"re": [[True, 1], [0, 1]], "im": [[0, 0], [0, 0]]},
        {"re": [["1", "0"], ["0", "1"]], "im": [[0, 0], [0, 0]]},
        {"re": [[1, 0], [0, 1]], "im": [["0", 0], [0, 0]]},
    ],
)
def test_coin_from_json_rejects_wrong_shapes(blob):
    with pytest.raises(ValueError):
        coin_from_json(blob)


def test_nan_is_not_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        CoinPair.from_unitary(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError, match="finite"):
        coin_from_angles(np.nan, 0.0, 0.0)
