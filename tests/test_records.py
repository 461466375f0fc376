"""The validated records are immutable: no field can be set, and no array they hold can be written."""

import re

import numpy as np
import pytest

from walkgrammar import coalgebra, graphs, quantize, walk

RECORDS = [
    graphs.de_bruijn_graph(2),
    graphs.bernoulli_matrix(2),
    coalgebra.coproduct_e(),
    quantize.CoinPair([[1, 0], [0, 0]], [[0, 0], [0, 1]]),
    walk.NumericState(1, np.zeros((2, 2, 2))),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_a_validated_record_is_immutable(record):
    for field, value in zip(record._fields, record):
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0


def test_a_record_copies_the_complex_array_it_is_given():
    # np.asarray returns a complex array itself, so freezing it would freeze the
    # caller's array, which the caller may thaw and then write through the record.
    p = np.array([[1, 0], [0, 0]], dtype=complex)
    amps = np.zeros((1, 2, 2), dtype=complex)
    coin = quantize.CoinPair(p, [[0, 0], [0, 1]])
    state = walk.NumericState(0, amps)
    assert p.flags.writeable and amps.flags.writeable
    p[0, 0] = amps[0, 0, 0] = 7
    assert coin.P[0, 0] == 1 and state.amps[0, 0, 0] == 0


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: quantize.CoinPair(np.eye(3), [[0, 0], [0, 1]]), "P must be 2x2"),
        (lambda: walk.NumericState(1, np.zeros((1, 2, 2))), "expected shape (2, 2, 2), got (1, 2, 2)"),
        (lambda: graphs.DirectedGraph(["u"], [("u", "v")]), "edge ('u', 'v') leaves the vertex set"),
        (lambda: graphs.StochMatrix([[2, -1], [0, 1]]), "entries must be nonnegative"),
    ],
    ids=["CoinPair", "NumericState", "DirectedGraph", "StochMatrix"],
)
def test_a_record_refuses_an_input_that_breaks_its_invariant(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()
