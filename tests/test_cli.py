import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import walkgrammar
from walkgrammar.cli import main

from helpers import spinor_walk_distribution
import numpy as np


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, _, err = run_cli(
        capsys, "walk", "run", "--steps", "9", "--symbolic", "--symbolic-max", "8"
    )
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


def test_lang_generate(capsys):
    code, out, _ = run_cli(capsys, "lang", "generate", "--t", "3", "--vertex", "-1")
    assert code == 0
    assert out.splitlines() == [
        "word,index,contraction",
        "ab,-1,PPQ",
        "bc,-1,PQP",
        "ca,-1,QPP",
    ]


def test_lang_generate_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "lang", "generate", "--t", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 16
    assert {"word", "index", "contraction"} <= set(rows[0])


def test_orbits_enumerate_t3(capsys):
    code, out, _ = run_cli(capsys, "orbits", "enumerate", "--t", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pattern,index,root,multiplicity"
    assert len(lines) == 5
    assert "aaa,-3,a,3" in lines
    assert "abc,-1,abc,1" in lines


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


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-t", "4")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_verify_axiom_from_json_tables(capsys, tmp_path):
    from walkgrammar import coalgebra

    delta_file = tmp_path / "delta.json"
    delta_file.write_text(json.dumps(coalgebra.coproduct_e().to_json()))
    code, out, _ = run_cli(
        capsys, "verify", "axiom", "--axiom", "coassociativity", "--delta", str(delta_file)
    )
    assert code == 0 and out.startswith("PASS")

    markov_file = tmp_path / "markov.json"
    markov_file.write_text(json.dumps(coalgebra.markov_pair_e()[0].to_json()))
    code, out, _ = run_cli(
        capsys, "verify", "axiom", "--axiom", "coassociativity", "--delta", str(markov_file)
    )
    assert code == 1 and out.startswith("FAIL")

    counit_file = tmp_path / "counit.json"
    counit_file.write_text(json.dumps(coalgebra.counit_e().to_json()))
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
    src = str(Path(walkgrammar.__file__).resolve().parents[1])
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "walkgrammar.cli", *SYMBOLIC_CUSTOM],
            env=env, capture_output=True, text=True, check=True,
        )
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


def test_coin_file_of_wrong_shape_is_rejected(capsys, tmp_path):
    coin_file = tmp_path / "coin.json"
    coin_file.write_text("[1, 2]")
    assert_one_line_error(
        *run_cli(capsys, "walk", "run", "--steps", "2", "--coin-file", str(coin_file))
    )


@pytest.mark.parametrize("command", ["run", "plot"])
def test_walk_steps_beyond_the_cap_fail_fast(command):
    # A subprocess with a timeout: without the cap the stepper runs for hours.
    src = str(Path(walkgrammar.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "walkgrammar.cli", "walk", command, "--steps", "1000000000000"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert_one_line_error(done.returncode, done.stdout, done.stderr)
    assert "capped at 100000 steps" in done.stderr


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
    from walkgrammar import coalgebra

    delta_file = tmp_path / "delta.json"
    delta_file.write_text(json.dumps(coalgebra.coproduct_e().to_json()))
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(blob))
    # A repeated option takes its last value, so `option` reads the bad file.
    argv = ["verify", "axiom", "--axiom", "right-counit", "--delta", str(delta_file)]
    assert_one_line_error(*run_cli(capsys, *argv, option, str(bad_file)))


def test_verify_axiom_names_the_symbol_a_counit_misses(capsys, tmp_path):
    from walkgrammar import coalgebra

    delta_file = tmp_path / "delta.json"
    delta_file.write_text(json.dumps(coalgebra.coproduct_e().to_json()))
    counit_file = tmp_path / "counit.json"
    counit_file.write_text(json.dumps({"values": {"a": 1}}))
    argv = ["verify", "axiom", "--delta", str(delta_file)]
    for axiom, option in (("right-counit", "--counit"), ("left-counit", "--left-counit")):
        code, out, err = run_cli(capsys, *argv, "--axiom", axiom, option, str(counit_file))
        assert_one_line_error(code, out, err)
        assert "counit" in err and "'b'" in err


@pytest.mark.parametrize("axiom", ["coassociativity", "right-counit"])
def test_verify_axiom_rejects_a_second_table_on_another_alphabet(capsys, tmp_path, axiom):
    from walkgrammar import coalgebra

    delta_file = tmp_path / "delta.json"
    delta_file.write_text(json.dumps(coalgebra.coproduct_e().to_json()))
    counit_file = tmp_path / "counit.json"
    counit_file.write_text(json.dumps(coalgebra.counit_e().to_json()))
    argv = ["verify", "axiom", "--axiom", axiom, "--delta", str(delta_file)]
    argv += ["--counit", str(counit_file)]
    other_file = tmp_path / "other.json"
    other_file.write_text(json.dumps(coalgebra.de_bruijn_markov_pair(3)[0].to_json()))
    code, out, err = run_cli(capsys, *argv, "--delta-tilde", str(other_file))
    assert_one_line_error(code, out, err)
    assert err == "error: coproduct tables must share one alphabet\n"
    code, out, _ = run_cli(capsys, *argv, "--delta-tilde", str(delta_file))
    assert code == 0 and out == f"PASS  {axiom}\n"
