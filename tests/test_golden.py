"""Golden stdout corpus: every CLI command's current stdout and exit code, byte for byte.

The runs that exit 1 also pin their stderr, the one `error:` line, with
`{inputs}` standing for the inputs directory.

The corpus pins what the CLI prints today, not the exact values of the
objects it prints.  In particular it keeps the printed-digit defect:
`walk run --steps 12` prints rounding noise in the 15th digit where the
exact dyadic probability is shorter.  A refactor must leave every file
under `tests/golden/` as it is; a change that means to alter output
regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

from __future__ import annotations

import contextlib
import io
import shlex
from pathlib import Path

import pytest

from walkgrammar.cli import main

from helpers import CLI, run_python

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
STDOUT = GOLDEN / "stdout"
STDERR = GOLDEN / "stderr"
EXIT_CODES = GOLDEN / "exit_codes.txt"


def _cases() -> dict[str, list[str]]:
    cases = {}
    for line in (GOLDEN / "argv.txt").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            name, _, args = line.partition(":")
            cases[name] = shlex.split(args.replace("{inputs}", str(INPUTS)))
    return cases


CASES = _cases()


def _run_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _exit_codes() -> dict[str, int]:
    lines = EXIT_CODES.read_text(encoding="utf-8").splitlines()
    return {name: int(code) for name, code in map(str.split, lines)}


def _expected(name: str) -> tuple[int, bytes]:
    return _exit_codes()[name], (STDOUT / f"{name}.txt").read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_the_golden_corpus(name):
    code, out, _ = _run_in_process(CASES[name])
    assert (code, out.encode("utf-8")) == _expected(name)


ERROR_CASES = sorted(name for name, code in _exit_codes().items() if code == 1)


@pytest.mark.parametrize("name", ERROR_CASES)
def test_cli_error_lines_match_the_golden_corpus(name):
    code, _, err = _run_in_process(CASES[name])
    expected = (STDERR / f"{name}.txt").read_text(encoding="utf-8")
    assert (code, err) == (1, expected.replace("{inputs}", str(INPUTS)))


# Commands whose output passes through sets, checks or errors, numeric ones,
# which an in-process run makes with the BLAS this process loaded, and a JSON
# table, whose streamed rows then also run under -O and two hash seeds.
SUBPROCESS_CASES = [
    "walk-run-custom-n2000",
    "walk-plot-n2000",
    "coin-custom",
    "walk-run-symbolic-custom",
    "walk-run-symbolic-json-n8",
    "lang-t7-k-3-coassoc",
    "orbits-enum-t8",
    "orbits-enum-t12",
    "verify-all-4",
    "walk-run-psi-nan",
    "lang-grammar-bad",
    "coin-huge",
]


@pytest.mark.parametrize("seed", ["1", "2"])
def test_golden_subset_under_optimize_and_hash_seeds(seed):
    # The CLI sets its own OPENBLAS_NUM_THREADS, which run_python drops from the inherited one.
    env = {"PYTHONHASHSEED": seed, "PYTHONIOENCODING": "utf-8"}
    for name in SUBPROCESS_CASES:
        done = run_python("-O", *CLI, *CASES[name], env=env, text=False, timeout=120)
        assert (done.returncode, done.stdout) == _expected(name), name
        if done.returncode == 1:
            # A console run shows warnings that an in-process run may not.
            expected = (STDERR / f"{name}.txt").read_text(encoding="utf-8")
            assert done.stderr.decode("utf-8") == expected.replace("{inputs}", str(INPUTS)), name


def regenerate() -> None:
    STDOUT.mkdir(exist_ok=True)
    STDERR.mkdir(exist_ok=True)
    codes = []
    for name, argv in CASES.items():
        code, out, err = _run_in_process(argv)
        (STDOUT / f"{name}.txt").write_bytes(out.encode("utf-8"))
        if code == 1:
            err = err.replace(str(INPUTS), "{inputs}")
            (STDERR / f"{name}.txt").write_bytes(err.encode("utf-8"))
        codes.append(f"{name} {code}\n")
    EXIT_CODES.write_text("".join(codes), encoding="utf-8")


if __name__ == "__main__":
    regenerate()
