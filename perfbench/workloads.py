"""The benchmark's workloads: CLI command lines drawn from a seed, each with its checker.

A workload is a fixed list of `walkgrammar` commands.  The seed draws the
custom-coin angles and the initial unit spinor; the CLI receives only the
generated arguments.  Sizes are fixed per workload, so a lower wall time
means more work per second.

Why these three:

- numeric_walk: the only workload dominated by the numeric stepper
  (`walk.run_numeric`); no word sets are built.
- words: each exponential word-set layer (symbolic walk and `evaluate`,
  `language.words_at_vertex`, `orbits.orbits_at_time`) runs once at a
  large size, and `walk run --symbolic` writes about 5 MB of stdout.
- verify: the same layers through many small calls (`verify all`), the
  small-size side of any fast path that pays a fixed cost or gives up
  caching.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, TextIO

import numpy as np

import oracle


@dataclass(frozen=True)
class Command:
    """One CLI invocation, its checker, and the reference it is checked against."""

    argv: tuple[str, ...]
    check: Callable[[Iterable[str]], None]
    coin: np.ndarray | None = None
    steps: int | None = None
    probs: np.ndarray | None = None

    @property
    def name(self) -> str:
        """`walk run` -> `walk_run`: the command's name in metric names."""
        return "_".join(self.argv[:2])


# Full sizes, and the tiny sizes of --smoke.
SIZES = {
    "numeric_walk": {"steps": (2000, 12)},
    "words": {"symbolic": (18, 6), "lang_t": (16, 6), "orbits_t": (15, 6)},
    "verify": {"max_t": (12, 4)},
}
WORKLOADS = tuple(SIZES)


def _size(workload: str, key: str, smoke: bool) -> int:
    full, tiny = SIZES[workload][key]
    return tiny if smoke else full


def _draw_coin(rng: random.Random) -> tuple[list[str], np.ndarray]:
    theta = rng.uniform(0.0, math.pi)
    phi1 = rng.uniform(0.0, 2 * math.pi)
    phi2 = rng.uniform(0.0, 2 * math.pi)
    args = ["--coin", "custom", f"--theta={theta!r}", f"--phi1={phi1!r}", f"--phi2={phi2!r}"]
    return args, oracle.coin_from_angles(theta, phi1, phi2)


def _draw_psi(rng: random.Random) -> tuple[str, np.ndarray]:
    parts = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(math.fsum(x * x for x in parts))
    parts = [x / norm for x in parts]
    psi = np.array([parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]])
    return "--psi=" + ",".join(repr(x) for x in parts), psi


def _walk_command(argv: list[str], coin: np.ndarray, psi, n: int, checker) -> Command:
    probs = oracle.spinor_walk(coin, psi, n)
    return Command(tuple(argv), functools.partial(checker, n=n, probs=probs), coin, n, probs)


def commands(workload: str, seed: int, smoke: bool = False) -> list[Command]:
    """The workload's command list for this seed; references are computed here, untimed."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "numeric_walk":
        n = _size(workload, "steps", smoke)
        steps = ["--steps", str(n)]
        coin_args, coin = _draw_coin(rng)
        psi_arg, psi = _draw_psi(rng)
        plot_args, plot_coin = _draw_coin(rng)
        return [
            _walk_command(
                ["walk", "run", *steps], oracle.HADAMARD, [1, 0], n, oracle.check_walk_csv
            ),
            _walk_command(
                ["walk", "run", *coin_args, psi_arg, *steps, "--format", "json"],
                coin,
                psi,
                n,
                oracle.check_walk_json,
            ),
            _walk_command(
                ["walk", "plot", *plot_args, *steps], plot_coin, [1, 0], n, oracle.check_walk_svg
            ),
        ]
    if workload == "words":
        n = _size(workload, "symbolic", smoke)
        lang_t = _size(workload, "lang_t", smoke)
        orbits_t = _size(workload, "orbits_t", smoke)
        coin_args, coin = _draw_coin(rng)
        return [
            _walk_command(
                ["walk", "run", "--symbolic", "--steps", str(n), *coin_args],
                coin,
                [1, 0],
                n,
                functools.partial(oracle.check_walk_csv, symbolic=True),
            ),
            Command(
                ("lang", "generate", "--t", str(lang_t), "--vertex", "0"),
                functools.partial(oracle.check_words_csv, t=lang_t, k=0),
            ),
            Command(
                ("orbits", "enumerate", "--t", str(orbits_t)),
                functools.partial(oracle.check_orbits_csv, t=orbits_t),
            ),
        ]
    if workload == "verify":
        max_t = _size(workload, "max_t", smoke)
        return [Command(("verify", "all", "--max-t", str(max_t)), oracle.check_verify)]
    raise ValueError(f"unknown workload {workload!r}; pick one of {', '.join(WORKLOADS)}")


HELP = Command(("--help",), oracle.check_help)


def paced(seconds: float):
    """Yield round numbers for about `seconds`: at least one round, and no round
    that is expected to end more than half a round past the deadline."""
    start = time.perf_counter()
    done = 0
    while done == 0 or (time.perf_counter() - start) * (1 + 0.5 / done) < seconds:
        yield done
        done += 1


@dataclass
class Checks:
    """Commands attempted and failed.

    An output whose digest equals one already verified for the same
    command line is not parsed again: it is byte-identical to a checked one.
    """

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    verified: set[tuple[tuple[str, ...], str]] = field(default_factory=set)

    def check(
        self,
        cmd: Command,
        code: int,
        digest: str,
        open_text: Callable[[], TextIO],
        stderr_tail: str = "",
    ) -> str | None:
        """Count one attempt; return the failure, if any, and record it."""
        self.attempted += 1
        failure = None
        if code:
            failure = f"exit code {code}" + (f" ({stderr_tail})" if stderr_tail else "")
        if failure is None and (cmd.argv, digest) not in self.verified:
            try:
                with open_text() as fh:
                    cmd.check(fh)
                self.verified.add((cmd.argv, digest))
            except oracle.Mismatch as exc:
                failure = str(exc)
        if failure:
            self.failures.append(f"{' '.join(cmd.argv)}: {failure}")
        return failure
