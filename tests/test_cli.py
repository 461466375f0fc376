import contextlib
import io
import json
import os
import subprocess
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkgrammar import coalgebra, graphs, language, orbits, quantize, walk
from walkgrammar.cli import JSON_BATCH_TOKENS, _Rows, main

from helpers import CLI, PAIRS, run_python, spinor_walk_distribution
import numpy as np


INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_tokens(rows) -> int:
    """Tokens `json`'s encoder makes of `rows` at indent 2, the stream the CLI writes in batches."""
    return sum(1 for _ in json.JSONEncoder(indent=2).iterencode(rows))


def test_walk_run_hadamard_two_steps(capsys):
    code, out, _ = run_cli(
        capsys, "walk", "run", "--coin", "hadamard", "--steps", "2", "--psi", "1,0,0,0"
    )
    assert code == 0
    assert out.splitlines() == ["k,probability", "-2,0.25", "0,0.5", "2,0.25"]
    code, out, _ = run_cli(capsys, "walk", "run", "--steps", "2", "--format", "json")
    assert code == 0
    cells = json.loads(out)["cells"]
    assert [(c["k"], c["probability"]) for c in cells] == [(-2, 0.25), (0, 0.5), (2, 0.25)]


def test_walk_run_keeps_small_tail_digits(capsys):
    code, out, _ = run_cli(capsys, "walk", "run", "--steps", "50")
    assert code == 0
    # 2**-50 is below 1e-15: rounding to decimal places would print 1e-15.
    assert out.splitlines()[1] == "-50,8.88178419700118e-16"


def test_walk_run_matches_oracle_for_custom_coin(capsys):
    theta, phi1, phi2 = 0.7, 0.3, -1.1
    code, out, _ = run_cli(
        capsys,
        "walk", "run", "--coin", "custom",
        "--theta", str(theta), "--phi1", str(phi1), "--phi2", str(phi2),
        "--steps", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    c, s = np.cos(theta), np.sin(theta)
    u = np.array(
        [[c, np.exp(1j * phi1) * s], [np.exp(1j * phi2) * s, -np.exp(1j * (phi1 + phi2)) * c]]
    )
    oracle = spinor_walk_distribution(u, (1, 0), 5)
    got = {row["k"]: row["probability"] for row in payload["cells"]}
    assert got == pytest.approx(oracle, abs=1e-10)


def test_walk_run_symbolic_words(capsys):
    code, out, _ = run_cli(capsys, "walk", "run", "--steps", "2", "--symbolic")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,probability,words"
    assert lines[2] == "0,0.5,PQ+QP"


def test_walk_run_deterministic(capsys):
    args = ("walk", "run", "--steps", "7", "--psi", "0.6,0,0,0.8")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_walk_run_symbolic_cap_is_a_domain_error(capsys):
    code, _, err = run_cli(capsys, "walk", "run", "--steps", "25", "--symbolic")
    assert code == 1
    assert err.startswith("error:")


def test_walk_plot_svg(capsys, tmp_path):
    target = tmp_path / "dist.svg"
    code, _, _ = run_cli(
        capsys, "walk", "plot", "--steps", "12", "--out", str(target), "--quiet"
    )
    assert code == 0
    svg = target.read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") > 6


def test_walk_plot_does_not_run_the_stepper(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("walk plot ran the O(n^2) stepper")

    monkeypatch.setattr(walk, "run_numeric", refuse)
    code, out, _ = run_cli(capsys, "walk", "plot", "--steps", "40")
    assert code == 0 and out.count('<rect x="') == 41


def test_walk_run_refuses_a_bad_spinor_before_it_steps(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("walk run stepped before it checked --psi")

    monkeypatch.setattr(walk, "run_numeric", refuse)
    code, out, err = run_cli(capsys, "walk", "run", "--steps", "5", "--psi", "2,0,0,0")
    assert_one_line_error(code, out, err)
    assert err == "error: initial spinor must have unit norm\n"


@pytest.mark.parametrize("command", ["run", "plot"])
@pytest.mark.parametrize("psi", ["1,0,x,0", "1,0,0,0j", "1,,0,0"])
def test_a_psi_entry_that_is_not_a_number_is_refused_with_the_options_line(capsys, command, psi):
    assert run_cli(capsys, "walk", command, "--steps", "2", "--psi", psi) == (
        1, "", "error: --psi expects four comma-separated numbers: re,im,re,im\n"
    )


def test_walk_plot_at_the_step_cap_fits_in_a_gibibyte():
    # The stepper took minutes here; the FFT engine takes well under a second.
    done = run_python(*CLI, "walk", "plot", "--steps", "100000", timeout=30, memory_cap=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.count('<rect x="') == 100001


def test_lang_generate(capsys):
    code, out, _ = run_cli(capsys, "lang", "generate", "--t", "3", "--vertex", "-1")
    assert code == 0
    assert out.splitlines() == [
        "word,index,contraction",
        "ab,-1,PPQ",
        "bc,-1,PQP",
        "ca,-1,QPP",
    ]


def test_lang_generate_at_a_vertex_prints_the_same_for_both_grammars(capsys):
    for t in range(2, 11):
        for k in range(-t - 1, t + 2):
            argv = ("lang", "generate", "--t", str(t), "--vertex", str(k))
            assert run_cli(capsys, *argv, "--grammar", "coassoc") == run_cli(capsys, *argv)


def test_lang_generate_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "lang", "generate", "--t", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 16
    assert {"word", "index", "contraction"} <= set(rows[0])


def test_lang_generate_json_is_the_definitional_rows(capsys):
    # 8192 rows, whose tokens fill more than one batch of JSON_BATCH_TOKENS.
    code, out, _ = run_cli(capsys, "lang", "generate", "--t", "13", "--format", "json")
    assert code == 0
    rows = [
        {"word": w, "index": language.word_index(w), "contraction": language.contract(w)}
        for w in sorted(language.generate(13))
    ]
    assert json_tokens(rows) > JSON_BATCH_TOKENS
    assert out == json.dumps(rows, indent=2) + "\n"


def test_lang_generate_vertex_json_is_the_definitional_rows(capsys):
    # 6435 rows, whose tokens fill more than one batch of JSON_BATCH_TOKENS.
    argv = ("lang", "generate", "--t", "15", "--vertex", "1", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    words = sorted(w for w in language.generate(15) if language.word_index(w) == 1)
    rows = [{"word": w, "index": 1, "contraction": language.contract(w)} for w in words]
    assert json_tokens(rows) > JSON_BATCH_TOKENS
    assert out == json.dumps(rows, indent=2) + "\n"


def test_the_json_writer_refuses_what_json_refuses():
    with pytest.raises(TypeError) as refused:
        json.dumps({"cells": {1}})
    with pytest.raises(TypeError, match=f"^{refused.value}$"):
        "".join(json.JSONEncoder(indent=2, default=_Rows).iterencode({"cells": {1}}))
    encoded = json.JSONEncoder(indent=2, default=_Rows).iterencode({"cells": iter(())})
    assert "".join(encoded) == json.dumps({"cells": []}, indent=2)


def test_orbits_enumerate_t3(capsys):
    code, out, _ = run_cli(capsys, "orbits", "enumerate", "--t", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pattern,index,root,multiplicity"
    assert len(lines) == 5
    assert "aaa,-3,a,3" in lines
    assert "abc,-1,abc,1" in lines


def test_orbits_enumerate_json_is_the_definitional_rows(capsys):
    # 7712 rows, whose tokens fill more than one batch of JSON_BATCH_TOKENS.
    code, out, _ = run_cli(capsys, "orbits", "enumerate", "--t", "17", "--format", "json")
    assert code == 0
    rows = []
    for s in sorted(orbits.orbits_at_time(17)):
        d = min(d for d in range(1, 18) if s[:d] * (17 // d) == s)
        index = sum(1 if PAIRS[x][0] == "Q" else -1 for x in s)
        rows.append({"pattern": s, "index": index, "root": s[:d], "multiplicity": 17 // d})
    assert json_tokens(rows) > JSON_BATCH_TOKENS
    assert out == json.dumps(rows, indent=2) + "\n"


def test_orbits_enumerate_off_the_lattice_grows_no_orbit(capsys, monkeypatch):
    def refuse(p):
        raise AssertionError("grew an orbit off the lattice")

    monkeypatch.setattr(orbits, "grow", refuse)
    assert run_cli(capsys, "orbits", "enumerate", "--t", "16", "--vertex", "1") == (
        0, "pattern,index,root,multiplicity\n", ""
    )
    # The time checks still come first, with the messages of the whole-time path.
    for t, message in (("1", "need t >= 2, got 1"), ("25", "word-set cap 24")):
        code, out, err = run_cli(capsys, "orbits", "enumerate", "--t", t, "--vertex", "1")
        assert_one_line_error(code, out, err)
        assert message in err


def test_orbits_read(capsys):
    code, out, _ = run_cli(capsys, "orbits", "read", "--pattern", "bca")
    assert code == 0
    assert out.splitlines()[1:] == ["ab,-1,PPQ", "bc,-1,PQP", "ca,-1,QPP"]


def test_orbits_decompose(capsys):
    code, out, _ = run_cli(capsys, "orbits", "decompose", "--pattern", "abddc", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["pieces"]) == ["abdc", "d"]
    assert payload["letters_conserved"] and payload["reglue_ok"]


def test_orbits_verify(capsys):
    code, out, _ = run_cli(capsys, "orbits", "verify", "--max-t", "6")
    assert code == 0
    assert "FAIL" not in out


def test_orbits_verify_below_time_three_is_a_domain_error(capsys):
    # At max_t 2 the readings check has no time to run over.
    assert_one_line_error(*run_cli(capsys, "orbits", "verify", "--max-t", "2"))


@pytest.mark.parametrize(
    "argv",
    [
        ("lang", "generate", "--t", "4", "--vertex", "0"),
        ("orbits", "enumerate", "--t", "5"),
        ("orbits", "read", "--pattern", "abddc"),
    ],
)
def test_table_csv_and_json_carry_the_same_rows(capsys, argv):
    _, csv_text, _ = run_cli(capsys, *argv)
    _, json_text, _ = run_cli(capsys, *argv, "--format", "json")
    header, *lines = csv_text.splitlines()
    rows = json.loads(json_text)
    assert lines and [",".join(str(r[c]) for c in header.split(",")) for r in rows] == lines


def test_orbits_decompose_csv_lists_the_pieces(capsys):
    code, out, _ = run_cli(capsys, "orbits", "decompose", "--pattern", "abddc")
    assert code == 0
    header, *pieces = out.splitlines()
    assert header == "piece" and sorted(pieces) == ["abdc", "d"]


@pytest.mark.parametrize(
    "argv",
    [
        ("walk", "plot", "--steps", "5", "--format", "json"),
        ("graph", "export", "--de-bruijn", "2", "--format", "csv"),
        ("walk", "run", "--steps", "5", "--symbolic", "--symbolic-max", "30"),
    ],
)
def test_options_a_command_does_not_read_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_graph_export_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "export", "--de-bruijn", "2")
    assert code == 0
    assert out.startswith("digraph G {")
    code, out, _ = run_cli(capsys, "graph", "export", "--de-bruijn", "2", "--extension")
    assert code == 0
    assert '"P|Q" -> "Q|P";' in out


def test_graph_export_bernoulli_csv(capsys):
    code, out, _ = run_cli(capsys, "graph", "export", "--bernoulli", "3")
    assert code == 0
    assert out == "1/3,1/3,1/3\n1/3,1/3,1/3\n1/3,1/3,1/3\n"


def test_graph_export_requires_one_source(capsys):
    code, _, err = run_cli(capsys, "graph", "export")
    assert code == 1
    assert "error:" in err


def test_coin_check(capsys):
    code, out, _ = run_cli(capsys, "coin", "check")
    assert code == 0
    assert "jones parameter" in out


def test_coin_check_from_file(capsys, tmp_path):
    coin_file = tmp_path / "coin.json"
    coin_file.write_text(json.dumps({"re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}))
    code, out, _ = run_cli(capsys, "coin", "check", "--coin-file", str(coin_file))
    assert code == 0
    assert "undefined" in out


@pytest.mark.parametrize(
    "coin_options",
    [
        [],
        ["--coin", "custom", "--theta", "0.7", "--phi1", "0.3"],
        ["--coin-file", str(INPUTS / "coin.json")],
    ],
    ids=["hadamard", "custom", "coin-file"],
)
def test_coin_check_validates_and_splits_its_coin_once(capsys, monkeypatch, coin_options):
    calls = {}
    from_unitary = quantize.CoinPair.from_unitary.__func__

    def counted_from_unitary(cls, u):
        calls["from_unitary"] = calls.get("from_unitary", 0) + 1
        return from_unitary(cls, u)

    def counted_row_split(u, split=graphs.row_split):
        calls["row_split"] = calls.get("row_split", 0) + 1
        return split(u)

    monkeypatch.setattr(quantize.CoinPair, "from_unitary", classmethod(counted_from_unitary))
    monkeypatch.setattr(graphs, "row_split", counted_row_split)
    code, _, _ = run_cli(capsys, "coin", "check", *coin_options)
    assert code == 0
    assert calls == {"from_unitary": 1, "row_split": 1}


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-t", "4")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_axiom_from_json_tables(capsys):
    delta_file = INPUTS / "coproduct-e.json"
    code, out, _ = run_cli(
        capsys, "verify", "axiom", "--axiom", "coassociativity", "--delta", str(delta_file)
    )
    assert code == 0 and out.startswith("PASS")

    markov_file = INPUTS / "markov-e.json"
    code, out, _ = run_cli(
        capsys, "verify", "axiom", "--axiom", "coassociativity", "--delta", str(markov_file)
    )
    assert code == 1 and out.startswith("FAIL")

    counit_file = INPUTS / "counit-e.json"
    code, out, _ = run_cli(
        capsys,
        "verify", "axiom", "--axiom", "right-counit",
        "--delta", str(delta_file), "--counit", str(counit_file),
    )
    assert code == 0 and out.startswith("PASS")


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["walk", "run", "--steps"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_domain_error_exits_one(capsys):
    code, _, err = run_cli(capsys, "lang", "generate", "--t", "1")
    assert code == 1
    assert err.startswith("error:")
    code, _, err = run_cli(capsys, "walk", "run", "--steps", "2", "--psi", "1,0")
    assert code == 1


SYMBOLIC_CUSTOM = (
    "walk", "run", "--symbolic", "--steps", "12",
    "--coin", "custom", "--theta", "0.7", "--phi1", "0.3", "--phi2", "-1.1",
)


def test_walk_run_symbolic_is_independent_of_hash_seed():
    outputs = []
    for seed in ("1", "2"):
        done = run_python(*CLI, *SYMBOLIC_CUSTOM, env={"PYTHONHASHSEED": seed}, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_walk_run_symbolic_probabilities_equal_walk_run(capsys):
    _, symbolic, _ = run_cli(capsys, *SYMBOLIC_CUSTOM)
    _, plain, _ = run_cli(capsys, *(a for a in SYMBOLIC_CUSTOM if a != "--symbolic"))
    rows = [line.split(",")[:2] for line in symbolic.splitlines()[1:]]
    assert rows == [line.split(",") for line in plain.splitlines()[1:]]
    assert len(rows) == 13


def assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


# One case per command and option, each below its least value; the value is argv[3].
BELOW_LEAST = [
    (("walk", "run", "--steps", "-1"), "steps", 0),
    (("walk", "run", "--steps", "-1", "--symbolic"), "steps", 0),
    (("walk", "plot", "--steps", "-1"), "steps", 0),
    (("lang", "generate", "--t", "1"), "t", 2),
    (("lang", "generate", "--t", "1", "--vertex", "1"), "t", 2),
    (("orbits", "enumerate", "--t", "1"), "t", 2),
    (("orbits", "enumerate", "--t", "1", "--vertex", "1"), "t", 2),
    (("orbits", "verify", "--max-t", "2"), "max_t", 3),
    (("verify", "all", "--max-t", "2"), "max_t", 3),
    (("graph", "export", "--bernoulli", "1"), "n", 2),
    (("graph", "export", "--de-bruijn", "1"), "p", 2),
]


@pytest.mark.parametrize(
    "argv, name, least", BELOW_LEAST, ids=[" ".join(argv) for argv, _, _ in BELOW_LEAST]
)
def test_a_value_below_its_least_is_refused_with_one_wording(capsys, argv, name, least):
    assert run_cli(capsys, *argv) == (1, "", f"error: need {name} >= {least}, got {argv[3]}\n")


@pytest.mark.parametrize("max_t", ["21", "24", "25", "1000000"])
def test_verify_all_refuses_every_max_t_past_its_cap_with_its_own_line(capsys, max_t):
    line = (
        f"error: max_t = {max_t} exceeds the verify-all cap 20 "
        "(the walk, language and orbit suites hold 2^max_t words)\n"
    )
    assert run_cli(capsys, "verify", "all", "--max-t", max_t) == (1, "", line)


@pytest.mark.parametrize(
    "extra",
    [
        ("--coin", "custom", "--theta", "nan"),
        ("--coin", "custom", "--theta", "0.7", "--phi2", "inf"),
        ("--psi", "nan,0,0,0"),
        ("--psi", "1,0,nan,0"),
    ],
)
def test_walk_run_rejects_nan(capsys, extra):
    assert_one_line_error(*run_cli(capsys, "walk", "run", "--steps", "3", *extra))


def test_coin_file_with_nan_entry_is_rejected(capsys, tmp_path):
    coin_file = tmp_path / "coin.json"
    coin_file.write_text('{"re": [[NaN, 0], [0, 1]], "im": [[0, 0], [0, 0]]}')
    assert_one_line_error(
        *run_cli(capsys, "walk", "run", "--steps", "3", "--coin-file", str(coin_file))
    )


HUGE_INT = "1" + "0" * 400

HUGE_COIN_ERRORS = {
    # JSON reads 1e999 as inf.
    "1e999": "error: matrix is not unitary (non-finite entry)\n",
    # Finite, but U U^+ overflows to inf and NaN.
    "1e308": "error: matrix is not unitary (defect inf)\n",
    # A Python int too large for a double.
    HUGE_INT: "error: coin JSON blocks re and im must be matrices of numbers\n",
}


def test_coin_file_with_infinite_entry_is_one_line_error(tmp_path):
    # In a console run a numpy warning would add stderr lines before the error.
    for entry, error in HUGE_COIN_ERRORS.items():
        coin_file = tmp_path / "coin.json"
        coin_file.write_text(f'{{"re": [[{entry}, 0], [0, 1]], "im": [[0, 0], [0, 0]]}}')
        done = run_python(*CLI, "coin", "check", "--coin-file", str(coin_file), timeout=60)
        assert_one_line_error(done.returncode, done.stdout, done.stderr)
        assert done.stderr == error, entry[:10]


def test_exponent_coefficient_is_refused_at_once(tmp_path):
    # Fraction reads "1e10000000" as a ten-million-digit integer, which runs for minutes.
    delta_file = tmp_path / "delta.json"
    delta_file.write_text('{"alphabet": ["a"], "rules": {"a": [["a", "a", "1e10000000"]]}}')
    done = run_python(
        *CLI, "verify", "axiom", "--axiom", "coassociativity", "--delta", str(delta_file), timeout=10
    )
    assert_one_line_error(done.returncode, done.stdout, done.stderr)
    assert done.stderr == "error: scalar must be an int or a 'p/q' string, got '1e10000000'\n"


@pytest.mark.parametrize("command", ["run", "plot"])
def test_huge_spinor_is_one_line_error(command):
    # In-process runs show a numpy warning once per process, so only a fresh
    # interpreter shows whether the norm check warns.
    done = run_python(*CLI, "walk", command, "--steps", "3", "--psi", "1e200,0,0,0", timeout=60)
    assert_one_line_error(done.returncode, done.stdout, done.stderr)
    assert done.stderr == "error: initial spinor must have unit norm\n"


def test_coin_file_of_wrong_shape_is_rejected(capsys, tmp_path):
    coin_file = tmp_path / "coin.json"
    coin_file.write_text("[1, 2]")
    assert_one_line_error(
        *run_cli(capsys, "walk", "run", "--steps", "2", "--coin-file", str(coin_file))
    )


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no VmHWM to read")
def test_large_coin_file_is_refused_before_any_product(tmp_path):
    # The row split of a 300x300 unitary holds 300 matrices of 300x300: 412 MiB.
    # The child reports its own peak RSS (VmHWM): the ru_maxrss that wait4
    # gives a parent carries over the high-water mark of the forking pytest.
    coin_file = tmp_path / "coin.json"
    n = 300
    coin_file.write_text(json.dumps({"re": np.eye(n).tolist(), "im": np.zeros((n, n)).tolist()}))
    code = (
        "import sys\n"
        "from walkgrammar import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(next(l for l in open('/proc/self/status') if l.startswith('VmHWM:')).split()[1])\n"
        "sys.exit(code)\n"
    )
    done = run_python("-c", code, "coin", "check", "--coin-file", str(coin_file), timeout=60)
    assert (done.returncode, done.stderr) == (1, "error: coin unitaries are 2x2\n")
    assert int(done.stdout) < 100 * 1024, f"peak RSS {int(done.stdout) // 1024} MiB"


@pytest.mark.parametrize("command", ["run", "plot"])
def test_walk_steps_beyond_the_cap_fail_fast(command):
    # A subprocess with a timeout: without the cap the stepper runs for hours.
    done = run_python(*CLI, "walk", command, "--steps", "1000000000000", timeout=60)
    assert_one_line_error(done.returncode, done.stdout, done.stderr)
    assert "capped at 100000 steps" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["lang", "generate", "--t", "1000000"],
        ["lang", "generate", "--t", "1000000", "--vertex", "0"],
        ["orbits", "enumerate", "--t", "1000000"],
        ["orbits", "enumerate", "--t", "1000000", "--vertex", "1"],
        ["verify", "all", "--max-t", "1000000"],
        ["orbits", "verify", "--max-t", "1000000"],
    ],
)
def test_word_set_sizes_beyond_the_cap_fail_fast(argv):
    done = run_python(*CLI, *argv, timeout=60, memory_cap=True)
    assert_one_line_error(done.returncode, done.stdout, done.stderr)
    # `verify all` states its own, lower cap, and only that one.
    cap = "verify-all cap 20" if argv[:2] == ["verify", "all"] else "word-set cap 24"
    assert f"exceeds the {cap}" in done.stderr


def test_verify_all_past_its_cap_is_refused_before_any_suite():
    # Refused before any suite: the 2^21 words the walk, language and orbit suites hold
    # at max_t = 21 do not fit in 1 GiB of address space.
    done = run_python(*CLI, "verify", "all", "--max-t", "21", timeout=60, memory_cap=True)
    assert_one_line_error(done.returncode, done.stdout, done.stderr)
    assert "exceeds the verify-all cap 20" in done.stderr


def test_running_out_of_memory_is_a_one_line_error():
    # The 2^24 words of `lang generate --t 24` do not fit in 1 GiB of address space.
    done = run_python(*CLI, "lang", "generate", "--t", "24", timeout=120, memory_cap=True)
    assert_one_line_error(done.returncode, done.stdout, done.stderr)
    assert done.stderr == "error: out of memory\n"


JSON_FILE_COMMANDS = [
    ["coin", "check", "--coin-file"],
    ["verify", "axiom", "--axiom", "coassociativity", "--delta"],
]


@pytest.mark.parametrize("argv", JSON_FILE_COMMANDS)
def test_deeply_nested_json_is_a_one_line_error(tmp_path, argv):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    done = run_python(*CLI, *argv, str(deep), timeout=60, memory_cap=True)
    assert_one_line_error(done.returncode, done.stdout, done.stderr)
    assert "nests its JSON too deeply" in done.stderr


@pytest.mark.parametrize("argv", JSON_FILE_COMMANDS)
def test_an_endless_json_file_is_read_up_to_the_cap(argv):
    # /dev/zero never ends: only the cap stops the read.
    done = run_python(*CLI, *argv, "/dev/zero", timeout=60, memory_cap=True)
    assert_one_line_error(done.returncode, done.stdout, done.stderr)
    assert done.stderr == "error: /dev/zero exceeds the input cap of 1048576 bytes\n"


def test_symbolic_walk_at_the_word_cap_fits_in_a_gibibyte():
    # Rows are written a cell at a time: the 2^24 words are never held as objects.
    done = run_python(
        *CLI, "walk", "run", "--steps", "24", "--symbolic",
        stdout=subprocess.DEVNULL, timeout=120, memory_cap=True,
    )
    assert (done.returncode, done.stderr) == (0, "")


def test_lang_generate_at_the_word_cap_fits_in_a_gibibyte(tmp_path):
    # The C(24, 12) words of vertex 0 are built as text and written a row at a time.
    target = tmp_path / "words.csv"
    argv = ["lang", "generate", "--t", "24", "--vertex", "0", "--out", str(target), "--quiet"]
    done = run_python(*CLI, *argv, timeout=120, memory_cap=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    with target.open(encoding="utf-8") as fh:
        assert fh.readline() == "word,index,contraction\n"
        assert fh.readline() == "a" * 11 + "b" + "d" * 11 + ",0," + "P" * 12 + "Q" * 12 + "\n"
        assert sum(1 for _ in fh) == 2704156 - 1
    target.unlink()


@pytest.mark.parametrize("fmt, bound_mib", [("csv", 8), ("json", 16)])
def test_symbolic_walk_streams_its_rows(tmp_path, fmt, bound_mib):
    # The whole walk at 18 steps is 2^18 words; one cell of it is under 1 MiB of text.
    # Held at once as str objects the words take about 19 MiB, past either bound.
    target = str(tmp_path / f"walk.{fmt}")
    out = ["--format", fmt, "--out", target, "--quiet"]
    # numpy and the walk modules load untraced.
    assert main(["walk", "run", "--symbolic", "--steps", "2", *out]) == 0
    tracemalloc.start()
    try:
        code = main(["walk", "run", "--symbolic", "--steps", "18", *out])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < bound_mib * 2**20
    with open(target, encoding="utf-8") as fh:
        if fmt == "csv":
            words = sum(row.count("+") + 1 for row in list(fh)[1:])
        else:
            words = sum(len(cell["words"]) for cell in json.load(fh)["cells"])
    assert words == 2**18


def test_off_lattice_vertex_past_the_cap_is_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "lang", "generate", "--t", "1000000000", "--vertex", "1")
    assert_one_line_error(code, out, err)
    assert "exceeds the word-set cap 24" in err


def test_coin_check_refuses_a_non_finite_jones_parameter(tmp_path):
    # Diagonal entries of 1e-200: their product underflows to zero, so lambda is inf/NaN.
    coin_file = tmp_path / "coin.json"
    coin_file.write_text(json.dumps({"re": [[1e-200, 1], [1, -1e-200]], "im": [[0, 0], [0, 0]]}))
    done = run_python(*CLI, "coin", "check", "--coin-file", str(coin_file), timeout=60)
    jones = [line for line in done.stdout.splitlines() if line.startswith("jones parameter:")]
    assert jones == ["jones parameter: undefined (non-finite Jones parameter)"]
    assert "RuntimeWarning" not in done.stderr


@pytest.mark.parametrize(
    "option, blob",
    [
        ("--delta", {"alphabet": 5}),
        ("--delta", [1, 2]),
        ("--delta", {"alphabet": ["a"], "rules": {"a": [["a", "a"]]}}),
        ("--counit", [1]),
        ("--counit", {"values": 3}),
    ],
)
def test_verify_axiom_rejects_malformed_json(capsys, tmp_path, option, blob):
    delta_file = INPUTS / "coproduct-e.json"
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(blob))
    # A repeated option takes its last value, so `option` reads the bad file.
    argv = ["verify", "axiom", "--axiom", "right-counit", "--delta", str(delta_file)]
    assert_one_line_error(*run_cli(capsys, *argv, option, str(bad_file)))


def test_verify_axiom_refuses_a_boolean_counit(capsys, tmp_path):
    # The four-letter counit with true for 1 and false for 0 passed as that counit.
    delta_file = INPUTS / "coproduct-e.json"
    counit_file = tmp_path / "counit.json"
    counit_file.write_text(json.dumps({"values": {"a": True, "b": False, "c": False, "d": True}}))
    argv = ["verify", "axiom", "--axiom", "right-counit", "--delta", str(delta_file)]
    code, out, err = run_cli(capsys, *argv, "--counit", str(counit_file))
    assert_one_line_error(code, out, err)
    assert err == "error: scalar must be an int or a 'p/q' string, got True\n"


def test_verify_axiom_names_the_symbol_a_counit_misses(capsys, tmp_path):
    delta_file = INPUTS / "coproduct-e.json"
    counit_file = tmp_path / "counit.json"
    counit_file.write_text(json.dumps({"values": {"a": 1}}))
    argv = ["verify", "axiom", "--delta", str(delta_file)]
    for axiom, option in (("right-counit", "--counit"), ("left-counit", "--left-counit")):
        code, out, err = run_cli(capsys, *argv, "--axiom", axiom, option, str(counit_file))
        assert_one_line_error(code, out, err)
        assert "counit" in err and "'b'" in err


@pytest.mark.parametrize("axiom", ["coassociativity", "right-counit"])
def test_verify_axiom_rejects_a_second_table_on_another_alphabet(capsys, tmp_path, axiom):
    delta_file = INPUTS / "coproduct-e.json"
    argv = ["verify", "axiom", "--axiom", axiom, "--delta", str(delta_file)]
    argv += ["--counit", str(INPUTS / "counit-e.json")]
    other_file = tmp_path / "other.json"
    # The out-edge coproduct of the three-label De Bruijn graph: v -> v (x) w for every w.
    labels = ["1", "2", "3"]
    other = {"alphabet": labels, "rules": {v: [[v, w, 1] for w in labels] for v in labels}}
    other_file.write_text(json.dumps(other))
    code, out, err = run_cli(capsys, *argv, "--delta-tilde", str(other_file))
    assert_one_line_error(code, out, err)
    assert err == "error: coproduct tables must share one alphabet\n"
    code, out, _ = run_cli(capsys, *argv, "--delta-tilde", str(delta_file))
    assert code == 0 and out == f"PASS  {axiom}\n"


# Exit-code contract under hostile arguments: 0, 1 or 2; an exit of 1 is one
# `error:` line on stderr; never a traceback.  A warning would add stderr
# lines in a console run, so warnings are raised as errors here.  Valid sizes
# stay small enough to run in well under a second (`--max-t 12` runs the
# verify suites for ~2 s).
BAD_VALUES = ["x", "", "nan", "inf", "-1", str(language.WORD_TIME_MAX + 1), str(10**9)]
SIZE = st.sampled_from(BAD_VALUES + [str(n) for n in range(13)])
MAX_T = st.sampled_from(BAD_VALUES + [str(n) for n in range(9)])
ANGLE = st.sampled_from(BAD_VALUES + ["0", "0.7"])
PSI = st.sampled_from(BAD_VALUES + ["1,0", "nan,0,0,0", "inf,0,0,0", "2,0,0,0", "0.6,0,0,0.8"])
PATTERN = st.sampled_from(BAD_VALUES + ["a", "ab", "abc", "abddc"])

FUZZ_FILES = {
    "truncated.json": "{",
    "list.json": "[1, 2]",
    "ragged-coin.json": '{"re": [[1, 0], [0]], "im": [[0, 0], [0, 0]]}',
    "scalar-coin.json": '{"re": 5, "im": 5}',
    "nan-coin.json": '{"re": [[NaN, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
    "infinite-coin.json": '{"re": [[1e999, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
    "huge-coin.json": '{"re": [[1e308, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
    "huge-int-coin.json": f'{{"re": [[{HUGE_INT}, 0], [0, 1]], "im": [[0, 0], [0, 0]]}}',
    "row-coin.json": '{"re": [[1, 0, 0]], "im": [[0, 0, 0]]}',
    "coin-3x3.json": '{"re": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}',
    "identity-coin.json": '{"re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}',
    "float-coefficient.json": '{"alphabet": ["a"], "rules": {"a": [["a", "a", 1.5]]}}',
    "zero-denominator.json": '{"alphabet": ["a"], "rules": {"a": [["a", "a", "1/0"]]}}',
    "partial-table.json": '{"alphabet": ["a", "b"], "rules": {"a": [["a", "a", 1]]}}',
    "coproduct-e.json": (INPUTS / "coproduct-e.json").read_text(encoding="utf-8"),
    "counit-text-value.json": '{"values": {"a": "x"}}',
    "counit-e.json": (INPUTS / "counit-e.json").read_text(encoding="utf-8"),
    "missing.json": None,
}
FILE = st.sampled_from(sorted(FUZZ_FILES))


def _command(*parts):
    return st.tuples(*(st.just(p) if isinstance(p, str) else p for p in parts))


# Coin options that conflict: an angle without --coin custom, or a coin file
# beside --coin custom or an angle.
COIN_COMMAND = st.sampled_from(
    [("walk", "run", "--steps", "3"), ("walk", "plot", "--steps", "3"), ("coin", "check")]
)
ANGLE_OPTION = _command(st.sampled_from(["--theta", "--phi1", "--phi2"]), ANGLE)
CONFLICTING_COIN = st.one_of(
    st.tuples(COIN_COMMAND, ANGLE_OPTION),
    st.tuples(
        COIN_COMMAND,
        _command("--coin-file", FILE),
        st.one_of(st.just(("--coin", "custom")), ANGLE_OPTION),
    ),
).map(lambda parts: sum(parts, ()))


FUZZ_ARGV = st.one_of(
    _command("walk", st.sampled_from(["run", "plot"]), "--steps", SIZE),
    _command("walk", "run", "--symbolic", "--steps", SIZE, "--format", st.sampled_from(["json", "x"])),
    _command("walk", "run", "--steps", "3", "--coin", "custom", "--theta", ANGLE, "--phi2", ANGLE),
    _command("walk", "run", "--steps", "3", "--psi", PSI),
    _command("walk", st.sampled_from(["run", "plot"]), "--steps", "3", "--coin-file", FILE),
    _command("coin", "check", "--coin-file", FILE),
    _command("coin", "check", "--coin", "custom", "--theta", ANGLE),
    _command("lang", "generate", "--t", SIZE, "--vertex", SIZE),
    _command("lang", "generate", "--t", SIZE, "--grammar", "coassoc"),
    _command("orbits", "enumerate", "--t", SIZE, "--vertex", SIZE),
    _command("orbits", st.sampled_from(["read", "decompose"]), "--pattern", PATTERN),
    _command("orbits", "verify", "--max-t", MAX_T),
    _command("verify", "all", "--max-t", MAX_T),
    _command("graph", "export", st.sampled_from(["--de-bruijn", "--bernoulli"]), SIZE),
    _command("graph", "export", "--extension", "--de-bruijn", SIZE),
    _command("graph", "export", "--extension", "--bernoulli", SIZE),
    _command(
        "verify", "axiom", "--axiom", st.sampled_from(coalgebra.AXIOMS), "--delta", FILE,
        "--delta-tilde", FILE, "--counit", FILE,
    ),
    CONFLICTING_COIN,
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        if text is not None:
            (root / name).write_text(text)
    return root


def _run_hostile(fuzz_dir, argv) -> int:
    """Run the CLI on fuzzed arguments, check the exit-code contract and return the code."""
    argv = [str(fuzz_dir / a) if a in FUZZ_FILES else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, argv
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code


@settings(max_examples=60, deadline=None)
@given(argv=FUZZ_ARGV)
def test_cli_exit_codes_under_hostile_arguments(fuzz_dir, argv):
    _run_hostile(fuzz_dir, argv)


@settings(max_examples=30, deadline=None)
@given(argv=CONFLICTING_COIN)
def test_conflicting_coin_options_never_run(fuzz_dir, argv):
    assert _run_hostile(fuzz_dir, argv) != 0, argv
