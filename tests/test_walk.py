import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkgrammar import language, verify, walk
from walkgrammar.coalgebra import FormalSum
from walkgrammar.graphs import bernoulli_matrix, row_split
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
    distribution,
    evaluate,
    fourier_distribution,
    initial_symbolic,
    run_numeric,
    run_symbolic,
    step_symbolic,
    symbolic_cells as streamed_cells,
    unitarity_defect,
)

from helpers import matmul_walk, spinor_walk_distribution, symbolic_cells

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
    assert s1.cell(-1) == ("P",) and s1.cell(1) == ("Q",)
    s2 = step_symbolic(s1)
    assert s2.cell(0) == ("PQ", "QP")
    s4 = step_symbolic(step_symbolic(s2))
    assert s4.cell(-2) == ("PPPQ", "PPQP", "PQPP", "QPPP")


def test_cell_size_and_balance_laws():
    state = initial_symbolic()
    for _ in range(16):
        state = step_symbolic(state)
    assert verify.broken_cell_law(state) == ""
    assert state.total_words() == 2**16
    for k, words in state.items():
        assert len(words) == math.comb(16, (16 - k) // 2)


@pytest.mark.parametrize("n", range(15))
def test_symbolic_cells_are_the_sorted_set_recurrence(n):
    assert run_symbolic(n).cells == tuple(tuple(sorted(c)) for c in symbolic_cells(n))


@pytest.mark.parametrize("n", range(15))
def test_streamed_cells_are_the_symbolic_walk_in_order(n):
    # Same words, same order, cell by cell: the texts `walk run --symbolic` prints.
    assert [text.split("+") for text in streamed_cells(n)] == [list(c) for c in run_symbolic(n).cells]


def test_streamed_cells_check_steps_before_building():
    with pytest.raises(ValueError, match="need steps >= 0, got -1"):
        streamed_cells(-1)
    with pytest.raises(ValueError, match="steps = 25 exceeds the word-set cap"):
        streamed_cells(25)


# One state per cell law, each at t = 2 (cells PP | PQ, QP | QQ) and breaking only that law.
BROKEN_CELL_LAWS = {
    "wrong-count": ((("PP",), ("PQ", "QP")), "wrong number of cells"),
    "cell-size": ((("PP",), ("PQ",), ("QQ",)), "cell 0 holds 1 words, expected 2"),
    "unsorted": ((("PP",), ("QP", "PQ"), ("QQ",)), "cell 0 is not strictly increasing"),
    "repeated-word": ((("PP",), ("PQ", "PQ"), ("QQ",)), "cell 0 is not strictly increasing"),
    "malformed": ((("PP",), ("PQ", "PX"), ("QQ",)), "malformed word 'PX' at vertex 0"),
    "misplaced": ((("PQ",), ("PQ", "QP"), ("QQ",)), "word 'PQ' misplaced at vertex -2"),
}


@pytest.mark.parametrize("law", BROKEN_CELL_LAWS)
def test_each_broken_cell_law_is_reported(monkeypatch, law):
    cells, message = BROKEN_CELL_LAWS[law]
    broken = walk.SymbolicState(2, cells)
    assert verify.broken_cell_law(broken) == message
    # The walk suite meets the broken state at t = 2 and reports its message.
    real = [initial_symbolic()]
    for _ in range(8):
        real.append(step_symbolic(real[-1]))
    monkeypatch.setattr(walk, "step_symbolic", lambda s: broken if s.time == 1 else real[s.time + 1])
    (laws,) = [c for c in verify.walk_checks(6) if c.name == LAWS]
    assert (laws.ok, laws.detail) == (False, message)


def test_off_lattice_cells_are_empty():
    state = run_symbolic(3)
    assert state.cell(0) == ()
    assert state.cell(5) == ()


def test_symbolic_cap():
    with pytest.raises(ValueError, match="word-set cap"):
        run_symbolic(25)


def test_run_numeric_equals_the_matmul_recurrence_for_hadamard():
    coin = hadamard_coin()
    for steps in (0, 1, 2, 5, 50, 300):
        assert np.array_equal(run_numeric(coin, steps).amps, matmul_walk(coin, steps))


def test_run_numeric_equals_the_matmul_recurrence_for_a_complex_coin_at_2000_steps():
    # The second coin's tails go subnormal by 2000 steps (893 subnormal doubles).
    for angles in ((0.7, 0.3, -1.1), (1.0, 2.6, 2.9)):
        coin = CoinPair.from_unitary(coin_from_angles(*angles))
        amps = run_numeric(coin, 2000).amps
        assert amps.shape == (2001, 2, 2) and amps.flags.c_contiguous
        assert np.array_equal(amps, matmul_walk(coin, 2000)), angles


ANGLE = st.floats(-math.pi, math.pi, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(theta=ANGLE, phi1=ANGLE, phi2=ANGLE, steps=st.integers(0, 300))
def test_run_numeric_equals_the_matmul_recurrence(theta, phi1, phi2, steps):
    coin = CoinPair.from_unitary(coin_from_angles(theta, phi1, phi2))
    assert np.array_equal(run_numeric(coin, steps).amps, matmul_walk(coin, steps))


def test_the_row_split_of_the_uniform_matrix_walks_the_binomial_law():
    # The classical walk is the quantum walk's stepper on B's row matrices, not U's.
    coin = CoinPair(*row_split(bernoulli_matrix(2).rows))
    # p_n(k) = 1^T cell(n, k) q.
    q = np.array([0.5, 0.5])
    probs = np.einsum("kij,j->k", run_numeric(coin, 30).amps, q).real
    # Cells are in the order of vertices(30): vertex 2j - 30 holds the words with j Q's.
    expected = np.array([math.comb(30, j) / 2**30 for j in range(31)])
    assert np.max(np.abs(probs - expected)) == 0.0


def test_run_numeric_holds_three_column_planes_at_its_peak():
    # The memory claim beside NUMERIC_MAX_STEPS: three planes, no per-step temporaries.
    steps = 3000
    plane = 2 * (2 * steps + 2) * np.dtype(complex).itemsize
    coin = hadamard_coin()
    tracemalloc.start()
    try:
        run_numeric(coin, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * plane * 1.1


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
    rng, unitaries = np.random.default_rng(9), random.Random(9)
    for steps in (1, 3, 7, 12):
        u = random_unitary(2, unitaries)
        coin = CoinPair.from_unitary(u)
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = psi / np.linalg.norm(psi)
        expected = spinor_walk_distribution(u, psi, steps)
        got = distribution(run_numeric(coin, steps), psi)
        assert got == pytest.approx(expected, abs=1e-10)


def test_single_step_distribution_is_the_coin_row_algebra():
    rng = random.Random(4)
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
    for k in language.vertices(state.time):
        assert dist[k] == pytest.approx(dist[-k], abs=1e-9)


def test_evaluate_identity_and_word_sums():
    coin = hadamard_coin()
    assert np.array_equal(evaluate(initial_symbolic(), coin).amps[0], np.eye(2))
    s2 = run_symbolic(2)
    expected = coin.P @ coin.Q + coin.Q @ coin.P
    # Vertex 0 is the middle of vertices(2) = -2, 0, 2.
    np.testing.assert_allclose(evaluate(s2, coin).amps[1], expected, atol=1e-15)


def test_evaluate_commutes_with_stepping():
    rng = random.Random(6)
    # run_numeric(t + 1) is one step of run_numeric(t), so agreement at t and t + 1 commutes.
    for t in (0, 1, 4, 8):
        coin = CoinPair.from_unitary(random_unitary(2, rng))
        for steps in (t, t + 1):
            lhs = evaluate(run_symbolic(steps), coin)
            np.testing.assert_allclose(lhs.amps, run_numeric(coin, steps).amps, atol=1e-12)


def test_evaluate_matches_numeric_run_at_t4():
    coin = hadamard_coin()
    sym = evaluate(run_symbolic(4), coin)
    num = run_numeric(coin, 4)
    np.testing.assert_allclose(sym.amps, num.amps, atol=1e-13)


def test_unitarity_at_long_times():
    assert unitarity_defect(run_numeric(hadamard_coin(), 200)) < 1e-10


def test_commutator_identity_on_basis_element():
    x = FormalSum.lift(0, "")
    lhs = walk.dispersion_down(walk.dispersion_up(x)) - walk.dispersion_up(walk.dispersion_down(x))
    assert lhs == FormalSum([((0, "QP"), 1), ((0, "PQ"), -1)])


def test_commutator_hadamard_matrix():
    coin = hadamard_coin()
    commutator = coin.Q @ coin.P - coin.P @ coin.Q
    np.testing.assert_allclose(commutator, 0.5 * np.array([[-1, 1], [1, 1]]), atol=1e-15)
    assert verify.commutator_check(coin).ok


def test_commutator_random_coin():
    rng = random.Random(10)
    coin = CoinPair.from_unitary(random_unitary(2, rng))
    check = verify.commutator_check(coin)
    assert check.ok and verify.COMMUTATOR_TOL == 1e-14
    assert float(check.detail.removeprefix("max deviation ")) < 1e-14


def test_commutator_check_fails_when_the_up_operator_appends_the_wrong_letter(monkeypatch):
    monkeypatch.setattr(
        walk, "dispersion_up", lambda x: FormalSum(((k + 1, w + "P"), c) for (k, w), c in x)
    )
    check = verify.commutator_check(hadamard_coin())
    assert not check.ok
    # The matrices are untouched, so only the symbolic side fails.
    assert float(check.detail.removeprefix("max deviation ")) < 1e-14


def test_distribution_rejects_nan():
    state = run_numeric(hadamard_coin(), 2)
    with pytest.raises(ValueError, match="unit norm"):
        distribution(state, [np.nan, 0])
    broken = walk.NumericState(1, np.full((2, 2, 2), np.nan))
    with pytest.raises(ValueError, match="sum to"):
        distribution(broken, [1, 0])


# ---------------------------------------------------------------------------
# The FFT engine: tied to the stepper, to Konno's limit law and to the reflection
# ---------------------------------------------------------------------------

def _unit_spinor(parts) -> np.ndarray:
    v = np.array(parts, dtype=float)
    v = v / np.linalg.norm(v)
    return np.array([v[0] + 1j * v[1], v[2] + 1j * v[3]])


SPINOR = st.lists(st.floats(-1, 1, allow_nan=False), min_size=4, max_size=4).filter(
    lambda parts: math.fsum(x * x for x in parts) > 0.01
)


def _assert_close(got: dict, expected: dict, tol: float) -> None:
    assert list(got) == list(expected)
    assert max(abs(got[k] - expected[k]) for k in expected) <= tol


@pytest.mark.parametrize("steps", [0, 1, 2, 5, 40, 1023, 1024, 3000])
def test_fourier_distribution_is_the_stepper_distribution_for_hadamard(steps):
    coin = hadamard_coin()
    for psi in ([1, 0], [0, 1], np.array([1, 1j]) / math.sqrt(2)):
        expected = distribution(run_numeric(coin, steps), psi)
        _assert_close(fourier_distribution(coin, steps, psi), expected, 1e-12)


@settings(max_examples=20, deadline=None)
@given(theta=ANGLE, phi1=ANGLE, phi2=ANGLE, parts=SPINOR, steps=st.integers(0, 3000))
def test_fourier_distribution_is_the_stepper_distribution(theta, phi1, phi2, parts, steps):
    coin = CoinPair.from_unitary(coin_from_angles(theta, phi1, phi2))
    psi = _unit_spinor(parts)
    expected = distribution(run_numeric(coin, steps), psi)
    _assert_close(fourier_distribution(coin, steps, psi), expected, 1e-12)


def test_fourier_distribution_refuses_bad_requests_with_the_stepper_messages():
    coin = hadamard_coin()
    for steps in (-1, NUMERIC_MAX_STEPS + 1, 10**12):
        with pytest.raises(ValueError) as stepper:
            run_numeric(coin, steps)
        with pytest.raises(ValueError) as engine:
            fourier_distribution(coin, steps, [1, 0])
        assert str(engine.value) == str(stepper.value)
    for psi in ((1, 1), (np.nan, 0), (1e200, 0)):
        with pytest.raises(ValueError, match="^initial spinor must have unit norm$"):
            fourier_distribution(coin, 3, psi)


KONNO_SPINORS = ([1, 0], [0, 1j], np.array([0.6, 0.8j]))


def _second_moment(dist: dict[int, float], steps: int) -> float:
    return math.fsum(p * (k / steps) ** 2 for k, p in dist.items())


@pytest.mark.parametrize("theta", [math.pi / 4, 0.7, 1.2, 0.3])
def test_second_moment_tends_to_konnos_limit(theta):
    # Konno's weak limit law for X_n / n: E[(X_n / n)^2] -> 1 - |u12|, and
    # |u12| = sin(theta) for coin_from_angles.  The gap closes like 1 / n^2.
    coin = CoinPair.from_unitary(coin_from_angles(theta, 0.4, -1.3))
    limit = 1 - math.sin(theta)
    state = run_numeric(coin, 2000)
    for psi in KONNO_SPINORS:
        assert abs(_second_moment(fourier_distribution(coin, 20000, psi), 20000) - limit) <= 1e-7
        assert abs(_second_moment(distribution(state, psi), 2000) - limit) <= 1e-6


def _reflected(u: np.ndarray) -> np.ndarray:
    """sigma_x u sigma_x: rows and columns swapped, so P and Q trade places."""
    return u[::-1, ::-1]


def test_reflected_coin_mirrors_the_stepper_cells_exactly_at_2000_steps():
    # cell_{U'}(n, k) = sigma_x cell_U(n, -k) sigma_x, double for double (only
    # the sign of an exact zero may differ).
    u = coin_from_angles(0.7, 0.3, -1.1)
    amps = run_numeric(CoinPair.from_unitary(u), 2000).amps
    mirrored = run_numeric(CoinPair.from_unitary(_reflected(u)), 2000).amps
    assert np.array_equal(mirrored, amps[::-1, ::-1, ::-1])


@settings(max_examples=20, deadline=None)
@given(theta=ANGLE, phi1=ANGLE, phi2=ANGLE, steps=st.integers(0, 300))
def test_reflected_coin_mirrors_the_stepper_cells_exactly(theta, phi1, phi2, steps):
    u = coin_from_angles(theta, phi1, phi2)
    amps = run_numeric(CoinPair.from_unitary(u), steps).amps
    mirrored = run_numeric(CoinPair.from_unitary(_reflected(u)), steps).amps
    assert np.array_equal(mirrored, amps[::-1, ::-1, ::-1])


@settings(max_examples=20, deadline=None)
@given(theta=ANGLE, phi1=ANGLE, phi2=ANGLE, parts=SPINOR, steps=st.integers(0, 2000))
def test_reflected_coin_mirrors_the_fourier_distribution(theta, phi1, phi2, parts, steps):
    # p_{U'}(k, sigma_x psi) = p_U(-k, psi).  The two sides round differently,
    # and a cell's rounding grows like n eps times its size: at theta = 0 the
    # walk is ballistic, one cell holds everything, and at 338 steps the sides
    # differ by 1.02e-14.
    u = coin_from_angles(theta, phi1, phi2)
    psi = _unit_spinor(parts)
    dist = fourier_distribution(CoinPair.from_unitary(u), steps, psi)
    mirrored = fourier_distribution(CoinPair.from_unitary(_reflected(u)), steps, psi[::-1])
    eps = np.finfo(float).eps
    for k in dist:
        assert abs(mirrored[k] - dist[-k]) <= 1e-14 + 2 * steps * eps * dist[-k]


def test_walk_suite_steps_the_symbolic_walk_once(monkeypatch):
    steps = []
    step = walk.step_symbolic

    def recording(s):
        steps.append(s.time)
        return step(s)

    monkeypatch.setattr(walk, "step_symbolic", recording)
    monkeypatch.setattr(walk, "run_symbolic", None)
    assert all(verify.walk_checks(6))
    # t = 1..6 once each: the commutation check compares each state with run_numeric.
    assert steps == [0, 1, 2, 3, 4, 5]


def test_walk_suite_refuses_a_time_past_the_cap_rather_than_clamping_it(monkeypatch):
    monkeypatch.setattr(walk, "step_symbolic", None)
    with pytest.raises(ValueError, match="max_t = 25 exceeds the word-set cap 24"):
        verify.walk_checks(language.WORD_TIME_MAX + 1)
    with pytest.raises(ValueError, match="need max_t >= 0, got -1"):
        verify.walk_checks(-1)


TABLE = "symbolic walk reproduces the t<=4 table"
LAWS = "cell-size and word-balance laws"
IN_ORDER = "symbolic cells are the fixed-count words, in order"
COMMUTES = "evaluate commutes with stepping"


def _fault_dropped_word(monkeypatch):
    # Stepping to t = 3 loses a word of cell -1, the second cell of vertices(3).
    step = walk.step_symbolic

    def dropping(s):
        out = step(s)
        if out.time != 3:
            return out
        cells = list(out.cells)
        cells[1] = cells[1][1:]
        return walk.SymbolicState(3, tuple(cells))

    monkeypatch.setattr(walk, "step_symbolic", dropping)


def _fault_reversed_cell(monkeypatch):
    cells = walk.symbolic_cells

    def reversing(steps):
        out = list(cells(steps))
        if steps == 6:
            out[3] = "+".join(reversed(out[3].split("+")))
        return iter(out)

    monkeypatch.setattr(walk, "symbolic_cells", reversing)


def _fault_numeric_offset(monkeypatch):
    evaluate = walk.evaluate
    monkeypatch.setattr(
        walk, "evaluate", lambda s, coin: walk.NumericState(s.time, evaluate(s, coin).amps + 1e-9)
    )


@pytest.mark.parametrize(
    "fault, failing",
    [
        # The streamed cells and run_numeric keep the dropped word, so the order and
        # commutation checks fail too.
        (
            _fault_dropped_word,
            {TABLE: "", LAWS: "cell -1 holds 2 words, expected 3", IN_ORDER: "", COMMUTES: ""},
        ),
        (_fault_reversed_cell, {IN_ORDER: ""}),
        (_fault_numeric_offset, {COMMUTES: ""}),
    ],
)
def test_each_walk_check_fails_under_its_fault(monkeypatch, fault, failing):
    assert all(verify.walk_checks(6))
    fault(monkeypatch)
    assert {c.name: c.detail for c in verify.walk_checks(6) if not c.ok} == failing
