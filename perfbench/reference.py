"""A fixed load that gauges how fast the shared host runs at the moment.

Usage: python reference.py

The benchmark launches this, in the same way as a command, before and
after each walkgrammar command, and divides the command's time by the
mean time of those two launches.  Other tenants on the host change its
speed by up to 2x over seconds and minutes; the command and the launches
next to it slow together, so the ratio cancels most of that drift.  It
imports numpy and the standard library only, never walkgrammar, so a
change to the program leaves it unchanged.

Its mix follows the commands': interpreter start and the numpy import, a
walk stepped on small complex arrays, and binary words grown and filtered
as Python strings.  Of the loads tried as the reference, this one's
ratios spread least across runs; interpreter start and `import numpy`
alone tracked the numeric commands as well but the word-set ones worse.

It prints the number of balanced words and the walk's total probability;
the benchmark checks both.
"""

import numpy as np

STEPS = 300
WORD_LENGTH = 14


def walk_probability() -> float:
    coin = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    amps = np.zeros((2 * STEPS + 1, 2), dtype=complex)
    amps[STEPS, 0] = 1
    for _ in range(STEPS):
        tossed = amps @ coin.T
        amps = np.zeros_like(amps)
        amps[:-1, 0] = tossed[1:, 0]
        amps[1:, 1] = tossed[:-1, 1]
    return float(np.sum(np.abs(amps) ** 2))


def balanced_words() -> int:
    words = [""]
    for _ in range(WORD_LENGTH):
        words = [w + c for w in words for c in "PQ"]
    return len({w for w in words if w.count("P") == WORD_LENGTH // 2})


if __name__ == "__main__":
    print(balanced_words(), repr(walk_probability()))
