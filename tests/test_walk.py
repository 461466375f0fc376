import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkgrammar import walk
from walkgrammar.coalgebra import FormalSum
from walkgrammar.quantize import (
    CoinPair,
    coin_from_angles,
    hadamard,
    hadamard_coin,
    random_unitary,
)
from walkgrammar.walk import (
    NUMERIC_MAX_STEPS,
    PROB_TOL,
    classical_distribution,
    commutator_check,
    distribution,
    evaluate,
    initial_symbolic,
    run_numeric,
    run_symbolic,
    shift_conjugacy_check,
    step_numeric,
    step_symbolic,
    unitarity_defect,
)

from helpers import matmul_walk, spinor_walk_distribution

XI_TABLE = {
    0: {0: {""}},
    1: {-1: {"P"}, 1: {"Q"}},
    2: {-2: {"PP"}, 0: {"PQ", "QP"}, 2: {"QQ"}},
    3: {
        -3: {"PPP"},
        -1: {"QPP", "PQP", "PPQ"},
        1: {"PQQ", "QPQ", "QQP"},
        3: {"QQQ"},
    },
    4: {
        -4: {"PPPP"},
        -2: {"QPPP", "PQPP", "PPQP", "PPPQ"},
        0: {"PPQQ", "PQPQ", "PQQP", "QQPP", "QPQP", "QPPQ"},
        2: {"PQQQ", "QPQQ", "QQPQ", "QQQP"},
        4: {"QQQQ"},
    },
}


def test_symbolic_walk_reproduces_table():
    state = initial_symbolic()
    for t in range(5):
        assert {k: set(v) for k, v in state.items()} == XI_TABLE[t]
        state = step_symbolic(state)


def test_first_steps():
    s1 = step_symbolic(initial_symbolic())
    assert s1.cell(-1) == {"P"} and s1.cell(1) == {"Q"}
    s2 = step_symbolic(s1)
    assert s2.cell(0) == {"PQ", "QP"}
    s4 = step_symbolic(step_symbolic(s2))
    assert s4.cell(-2) == {"QPPP", "PQPP", "PPQP", "PPPQ"}


def test_cell_size_and_balance_laws():
    state = initial_symbolic()
    for _ in range(16):
        state = step_symbolic(state)
    state.validate()
    assert state.total_words() == 2**16
    for k, words in state.items():
        assert len(words) == math.comb(16, (16 - k) // 2)


def test_off_lattice_cells_are_empty():
    state = run_symbolic(3)
    assert state.cell(0) == frozenset()
    assert state.cell(5) == frozenset()


def test_symbolic_cap():
    with pytest.raises(ValueError, match="capped"):
        run_symbolic(5, symbolic_max=4)
    assert run_symbolic(5, symbolic_max=5).time == 5


def test_step_numeric_first_step():
    coin = hadamard_coin()
    s1 = step_numeric(walk.initial_numeric(), coin)
    np.testing.assert_allclose(s1.cell(-1), coin.P, atol=1e-15)
    np.testing.assert_allclose(s1.cell(1), coin.Q, atol=1e-15)


def test_run_numeric_equals_the_matmul_recurrence_for_hadamard():
    coin = hadamard_coin()
    for steps in (0, 1, 2, 5, 50, 300):
        assert np.array_equal(run_numeric(coin, steps).amps, matmul_walk(coin, steps))


ANGLE = st.floats(-math.pi, math.pi, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(theta=ANGLE, phi1=ANGLE, phi2=ANGLE, steps=st.integers(0, 300))
def test_run_numeric_equals_the_matmul_recurrence(theta, phi1, phi2, steps):
    coin = CoinPair.from_unitary(coin_from_angles(theta, phi1, phi2))
    assert np.array_equal(run_numeric(coin, steps).amps, matmul_walk(coin, steps))


@settings(max_examples=30, deadline=None)
@given(theta=ANGLE, phi1=ANGLE, phi2=ANGLE, steps=st.integers(0, 300))
def test_step_numeric_continues_run_numeric(theta, phi1, phi2, steps):
    coin = CoinPair.from_unitary(coin_from_angles(theta, phi1, phi2))
    stepped = step_numeric(run_numeric(coin, steps), coin)
    assert stepped.time == steps + 1
    assert np.array_equal(stepped.amps, run_numeric(coin, steps + 1).amps)


def test_distribution_at_400_steps_against_spinor_oracle():
    u = coin_from_angles(0.7, 0.3, -1.1)
    psi = np.array([0.6, 0.8j])
    got = distribution(run_numeric(CoinPair.from_unitary(u), 400), psi)
    assert got == pytest.approx(spinor_walk_distribution(u, psi, 400), abs=PROB_TOL)


def test_run_numeric_step_cap():
    with pytest.raises(ValueError, match=f"capped at {NUMERIC_MAX_STEPS} steps"):
        run_numeric(hadamard_coin(), NUMERIC_MAX_STEPS + 1)
    with pytest.raises(ValueError, match=">= 0"):
        run_numeric(hadamard_coin(), -1)


def test_hadamard_two_step_distribution():
    # Oracle: independent spinor-field evolution.
    psi = (1, 0)
    oracle = spinor_walk_distribution(hadamard(), psi, 2)
    assert oracle == pytest.approx({-2: 0.25, 0: 0.5, 2: 0.25}, abs=1e-12)
    dist = distribution(run_numeric(hadamard_coin(), 2), psi)
    assert dist == pytest.approx(oracle, abs=1e-12)


def test_distribution_against_oracle_for_random_coins():
    rng = np.random.default_rng(9)
    for steps in (1, 3, 7, 12):
        u = random_unitary(2, rng)
        coin = CoinPair.from_unitary(u)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = psi / np.linalg.norm(psi)
        expected = spinor_walk_distribution(u, psi, steps)
        got = distribution(run_numeric(coin, steps), psi)
        assert got == pytest.approx(expected, abs=1e-10)


def test_single_step_distribution_is_the_coin_row_algebra():
    rng = np.random.default_rng(4)
    u = random_unitary(2, rng)
    coin = CoinPair.from_unitary(u)
    psi = np.array([0.6, 0.8j])
    dist = distribution(run_numeric(coin, 1), psi)
    assert dist[-1] == pytest.approx(abs(u[0, 0] * 0.6 + u[0, 1] * 0.8j) ** 2, abs=1e-12)
    assert dist[1] == pytest.approx(abs(u[1, 0] * 0.6 + u[1, 1] * 0.8j) ** 2, abs=1e-12)


def test_distribution_requires_unit_spinor():
    with pytest.raises(ValueError, match="unit norm"):
        distribution(run_numeric(hadamard_coin(), 1), (1, 1))


def test_symmetric_initial_state_stays_symmetric():
    psi = np.array([1, 1j]) / np.sqrt(2)
    state = run_numeric(hadamard_coin(), 60)
    dist = distribution(state, psi)
    oracle = spinor_walk_distribution(hadamard(), psi, 60)
    assert dist == pytest.approx(oracle, abs=1e-10)
    for k in state.vertices():
        assert dist[k] == pytest.approx(dist[-k], abs=1e-9)


def test_evaluate_identity_and_word_sums():
    coin = hadamard_coin()
    assert np.array_equal(evaluate(initial_symbolic(), coin).cell(0), np.eye(2))
    s2 = run_symbolic(2)
    expected = coin.P @ coin.Q + coin.Q @ coin.P
    np.testing.assert_allclose(evaluate(s2, coin).cell(0), expected, atol=1e-15)


def test_evaluate_commutes_with_stepping():
    rng = np.random.default_rng(6)
    for t in (0, 1, 4, 8):
        coin = CoinPair.from_unitary(random_unitary(2, rng))
        sym = run_symbolic(t)
        lhs = evaluate(step_symbolic(sym), coin)
        rhs = step_numeric(evaluate(sym, coin), coin)
        np.testing.assert_allclose(lhs.amps, rhs.amps, atol=1e-12)


def test_evaluate_matches_numeric_run_at_t4():
    coin = hadamard_coin()
    sym = evaluate(run_symbolic(4), coin)
    num = run_numeric(coin, 4)
    np.testing.assert_allclose(sym.amps, num.amps, atol=1e-13)


def test_unitarity_at_long_times():
    assert unitarity_defect(run_numeric(hadamard_coin(), 200)) < 1e-10


def test_classical_distribution():
    assert classical_distribution(0) == {0: Fraction(1)}
    assert classical_distribution(2) == {
        -2: Fraction(1, 4),
        0: Fraction(1, 2),
        2: Fraction(1, 4),
    }
    assert classical_distribution(4)[0] == Fraction(3, 8)
    assert sum(classical_distribution(9).values()) == 1


def test_classical_distribution_matches_amplitude_squaring():
    # Oracle: push exact probabilities through the walk stencil.
    probs = {0: Fraction(1)}
    for _ in range(8):
        new = {}
        for k, p in probs.items():
            new[k - 1] = new.get(k - 1, 0) + p / 2
            new[k + 1] = new.get(k + 1, 0) + p / 2
        probs = new
    assert classical_distribution(8) == probs


def test_shift_conjugacy_exact_case():
    report = shift_conjugacy_check([1, 0, 0, 0, 0, 0, 0, 0])
    assert report.phi == Fraction(1, 2)
    assert report.doubled == 0
    assert report.phi_shifted == 0
    assert report.residual == 0


def test_shift_conjugacy_alternating_bits():
    bits = [0, 1] * 10
    report = shift_conjugacy_check(bits)
    assert abs(report.phi - Fraction(1, 3)) < Fraction(1, 2**19)
    assert report.ok


def test_shift_conjugacy_random_bits():
    rng = np.random.default_rng(8)
    for _ in range(50):
        bits = [int(b) for b in rng.integers(0, 2, size=20)]
        assert shift_conjugacy_check(bits).ok


def test_shift_conjugacy_input_validation():
    with pytest.raises(ValueError):
        shift_conjugacy_check([1])
    with pytest.raises(ValueError):
        shift_conjugacy_check([0, 2])


def test_commutator_identity_on_basis_element():
    x = FormalSum.lift(0, "")
    lhs = walk.dispersion_down(walk.dispersion_up(x)) - walk.dispersion_up(walk.dispersion_down(x))
    assert lhs == FormalSum([((0, "QP"), 1), ((0, "PQ"), -1)])


def test_commutator_hadamard_matrix():
    coin = hadamard_coin()
    commutator = coin.Q @ coin.P - coin.P @ coin.Q
    np.testing.assert_allclose(commutator, 0.5 * np.array([[-1, 1], [1, 1]]), atol=1e-15)
    report = commutator_check(coin)
    assert report.symbolic_ok and report.numeric_ok


def test_commutator_random_coin():
    rng = np.random.default_rng(10)
    coin = CoinPair.from_unitary(random_unitary(2, rng))
    report = commutator_check(coin)
    assert report
    assert report.max_deviation < 1e-14


def test_mixed_distribution_averages_components():
    coin = hadamard_coin()
    e0, e1 = (1, 0), (0, 1)
    mixed = walk.mixed_distribution([(0.5, e0), (0.5, e1)], coin, 6)
    state = run_numeric(coin, 6)
    d0, d1 = distribution(state, e0), distribution(state, e1)
    for k in mixed:
        assert mixed[k] == pytest.approx(0.5 * d0[k] + 0.5 * d1[k], abs=1e-12)
    with pytest.raises(ValueError, match="sum to 1"):
        walk.mixed_distribution([(0.7, e0)], coin, 2)


def test_distribution_rejects_nan():
    state = run_numeric(hadamard_coin(), 2)
    with pytest.raises(ValueError, match="unit norm"):
        distribution(state, [np.nan, 0])
    broken = walk.NumericState(1, np.full((2, 2, 2), np.nan))
    with pytest.raises(ValueError, match="sum to"):
        distribution(broken, [1, 0])
