"""Command-line front end.

Exit codes: 0 on success, 1 on a domain error or a MemoryError (one-line
diagnostic on stderr) or a failed check (FAIL on stdout), 2 on usage
errors.  Data output is deterministic: identical arguments produce
byte-identical output.

`walk run` prints each probability rounded to 15 significant digits, in CSV
and JSON alike, so that rounding noise from the coin entries (1/sqrt(2) is
not a double) is not printed as data: the Hadamard walk at two steps prints
0.25, 0.5, 0.25.  Error that accumulates over many steps can still reach the
15th digit (0.0800781249999999 at ten steps); values are not promised to be
exact dyadic fractions.  `walk run --symbolic` takes its probabilities from
the same numeric stepper, so they equal those of `walk run` digit for digit.
Its word column holds, at vertex k, the P/Q words with (n - k)/2 P's in
sorted order (`walk.symbolic_cells`): the cells of the symbolic walk, which
`verify all` checks.  Every check on the arguments runs first; then the
rows, in CSV and JSON alike, are written one cell at a time, so the walk's
2^n words are never held at once.

JSON tables come from `json`'s pure-Python encoder, since `indent` rules
out the C one, and they cost three to four times the CSV for the same rows
(10 ms against 3.3 ms of row text for the 2001 rows of `walk run --steps
2000`, best of 10 on 2 CPUs).

`lang generate --vertex k` prints its words sorted with no sort: contraction
preserves order, so `language.words_at_vertex` gives the letter words in
the order of the P/Q cell that `language.pq_cells` gives, and row i pairs
word i with contraction i.  Each row is made as it is written, but the
cell's words and their contractions are held whole, as a tuple and a list:
at t = 24 the two hold 2.7 M strings each, about 390 MB of the 536 MiB
peak RSS.  `lang generate` without `--vertex` and `orbits read` sort their
words first and then make each row as it is written, too.

`walk plot` draws the same distribution from one FFT of the walk's transfer
matrix (`walk.fourier_distribution`), in O(n log n) time where the stepper
takes O(n^2).  Its bar heights are accurate in absolute terms, as the
stepper's are (within 1e-14 of the exact Hadamard probabilities at 2000
steps), not to a number of significant digits: cells far below the peak are
noise.  The SVG rounds every bar to 0.01 px.

Only `walk run`, `walk plot`, `coin check`, `verify all` and `orbits verify`
import numpy, with `quantize`, `walk` and `verify`, inside the command.  The
first four need complex coin entries or the walk's amplitudes; the orbit
suite needs neither, and loads numpy only because `verify` does.  The word,
orbit, graph and coalgebra commands are exact string and rational
arithmetic, and they skip the numpy import, which takes longer than the
interpreter's own start.  `verify all` draws its test unitaries from the
standard library's `random`, so no command loads `numpy.random`: with the
`secrets` and `hashlib` it brings, it would add 6.4 MiB to the peak RSS.
Every matrix product these commands make is small: 2x2 cells, and at most
5x5 in `verify`.  So `main` sets OPENBLAS_NUM_THREADS to 1 before numpy
loads and each command runs as one thread.  Otherwise OpenBLAS starts one
worker per further CPU at import, which never gets a job but spins before
it sleeps: about 0.1 s of CPU time per launch on a 2-CPU host.  A value of
OPENBLAS_NUM_THREADS that the caller has set is kept.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Iterable, Iterator

from . import coalgebra, graphs, language, orbits


def _coin_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("coin")
    group.add_argument("--coin", choices=("hadamard", "custom"), default="hadamard")
    group.add_argument("--theta", type=float, help="rotation angle for --coin custom")
    group.add_argument("--phi1", type=float, help="phase for --coin custom (default 0)")
    group.add_argument("--phi2", type=float, help="phase for --coin custom (default 0)")
    group.add_argument("--coin-file", help="JSON file {re: [[..]], im: [[..]]}")


def _output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--quiet", action="store_true", help="suppress non-data messages")


def _table_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    _output_arguments(parser)


# Largest JSON file read; a divided-power coproduct table on 300 symbols is 0.9 MB.
INPUT_MAX_BYTES = 1 << 20


def _read_json(path: str):
    """Parse a JSON file of at most INPUT_MAX_BYTES, refusing a larger or too deeply nested one."""
    with open(path, "rb") as fh:
        data = fh.read(INPUT_MAX_BYTES + 1)
    if len(data) > INPUT_MAX_BYTES:
        raise ValueError(f"{path} exceeds the input cap of {INPUT_MAX_BYTES} bytes")
    try:
        return json.loads(data.decode("utf-8"))
    except RecursionError:
        raise ValueError(f"{path} nests its JSON too deeply") from None


def _resolve_coin(args):
    from . import quantize
    angles = (args.theta, args.phi1, args.phi2)
    angle_given = angles != (None, None, None)
    if args.coin_file:
        if args.coin == "custom" or angle_given:
            raise ValueError("--coin-file takes no --coin custom and no --theta/--phi1/--phi2")
        u = quantize.coin_from_json(_read_json(args.coin_file))
        return quantize.CoinPair.from_unitary(u)
    if args.coin == "hadamard":
        if angle_given:
            raise ValueError("--theta, --phi1 and --phi2 need --coin custom")
        return quantize.hadamard_coin()
    if args.theta is None:
        raise ValueError("--coin custom needs --theta (and optionally --phi1/--phi2)")
    theta, phi1, phi2 = (0.0 if a is None else a for a in angles)
    return quantize.CoinPair.from_unitary(quantize.coin_from_angles(theta, phi1, phi2))


def _parse_psi(text: str):
    """The unit spinor --psi names, refused before any walk runs."""
    from . import walk
    try:
        # A count other than four fails the unpacking, an entry float cannot read the map.
        re0, im0, re1, im1 = map(float, text.split(","))
    except ValueError:
        raise ValueError("--psi expects four comma-separated numbers: re,im,re,im") from None
    return walk.unit_spinor([re0 + 1j * im0, re1 + 1j * im1])


def _emit(chunks: Iterable[str], args) -> None:
    """Write the chunks, in order, to --out or stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        if not args.quiet:
            print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.writelines(chunks)


def _emit_table(columns: list[str], rows: Iterable[dict], args, payload=None) -> None:
    """CSV of `rows` under `columns`, or JSON of `payload`, default `rows`.

    Rows that come from an iterator, in `rows` or as a value of `payload`,
    are formatted as they are written: CSV a row at a time, JSON a batch of
    JSON_BATCH_TOKENS encoder tokens at a time.
    """
    if args.format == "json":
        tokens = json.JSONEncoder(indent=2, default=_Rows).iterencode(
            rows if payload is None else payload
        )
        batches = iter(lambda: tuple(itertools.islice(tokens, JSON_BATCH_TOKENS)), ())
        chunks = itertools.chain(map("".join, batches), ["\n"])
    else:
        # "{word},{index},{contraction}\n": format() of a value with no spec is its str().
        line = ",".join(f"{{{c}}}" for c in columns) + "\n"
        chunks = itertools.chain([",".join(columns) + "\n"], map(line.format_map, rows))
    _emit(chunks, args)


# One write per token more than doubles the JSON time of `walk run --symbolic
# --steps 18` (0.27 s against 0.12 s); 256 to 4096 tokens a write all take 0.12 s.
JSON_BATCH_TOKENS = 4096


class _Rows(list):
    """A row iterator as the list that `json`'s pure-Python encoder streams.

    `_emit_table` passes the class as the encoder's `default` hook, so the
    encoder makes one of each iterator it meets; anything else is refused
    with the TypeError `json` raises.  The encoder tests a list for
    emptiness and then iterates it: the list holds the iterator's first row,
    so an empty iterator prints `[]`, and `__iter__` yields that row and
    then streams the rest.  `iterencode` with an indent never takes the C
    encoder, which would read only the stored row: that path needs
    `_one_shot` and no indent.
    """

    def __init__(self, rows):
        if not isinstance(rows, Iterator):
            raise TypeError(f"Object of type {type(rows).__name__} is not JSON serializable")
        super().__init__(itertools.islice(rows, 1))
        self._rest = rows

    def __iter__(self):
        yield from super().__iter__()
        yield from self._rest


PROBABILITY_DIGITS = 15


def _probability(p: float) -> float:
    """Round to PROBABILITY_DIGITS significant digits; small tails keep theirs."""
    return float(format(p, f".{PROBABILITY_DIGITS}g"))


def cmd_walk_run(args) -> int:
    from . import walk
    coin = _resolve_coin(args)
    psi = _parse_psi(args.psi)
    cells = walk.symbolic_cells(args.steps) if args.symbolic else None
    dist = walk.distribution(walk.run_numeric(coin, args.steps), psi)

    def cell_row(k: int) -> dict:
        row = {"k": k, "probability": _probability(dist[k])}
        if cells is not None:
            words = next(cells)
            row["words"] = words if args.format == "csv" else words.split("+")
        return row

    # Every check has run; the rows, and each cell's words, are made as they are written.
    rows = map(cell_row, sorted(dist))
    columns = ["k", "probability", "words"] if args.symbolic else ["k", "probability"]
    _emit_table(columns, rows, args, {"time": args.steps, "cells": rows})
    return 0


def _distribution_svg(dist: dict[int, float], title: str) -> str:
    width, height, margin = 800, 420, 45
    ks = sorted(dist)
    peak = max(dist.values()) or 1.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    bar_w = plot_w / max(len(ks), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for i, k in enumerate(ks):
        h = dist[k] / peak * plot_h
        x = margin + i * bar_w
        y = height - margin - h
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w * 0.85:.2f}" height="{h:.2f}" '
            'fill="steelblue"/>'
        )
        if len(ks) <= 40 or i % (len(ks) // 20 + 1) == 0:
            parts.append(
                f'<text x="{x + bar_w * 0.42:.2f}" y="{height - margin + 16}" '
                f'text-anchor="middle" font-family="monospace" font-size="9">{k}</text>'
            )
    parts.append(
        f'<text x="{margin - 8}" y="{margin}" text-anchor="end" font-family="monospace" '
        f'font-size="10">{peak:.4f}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_walk_plot(args) -> int:
    from . import walk
    coin = _resolve_coin(args)
    psi = _parse_psi(args.psi)
    dist = walk.fourier_distribution(coin, args.steps, psi)
    title = f"walk distribution, {args.steps} steps"
    _emit([_distribution_svg(dist, title)], args)
    return 0


def _word_rows(words) -> Iterator[dict]:
    """The rows of the sorted words, each made as it is written; the sort runs at once."""
    return (
        {"word": w, "index": language.pq_index(m), "contraction": m}
        for w in sorted(words)
        for m in [language.contract(w)]
    )


WORD_COLUMNS = ["word", "index", "contraction"]


def cmd_lang_generate(args) -> int:
    if args.vertex is None:
        rows = _word_rows(language.generate(args.t, args.grammar))
    else:
        k = args.vertex
        words = language.words_at_vertex(args.t, k)
        # Contraction keeps the order, so the P/Q cell lists the words' contractions.
        contractions = next(language.pq_cells(args.t, [k])).split("+") if words else ()
        rows = ({"word": w, "index": k, "contraction": m} for w, m in zip(words, contractions))
    _emit_table(WORD_COLUMNS, rows, args)
    return 0


def cmd_orbits_enumerate(args) -> int:
    if args.vertex is None:
        pats = orbits.orbits_at_time(args.t)
    else:
        pats = orbits.orbits_at_vertex(args.t, args.vertex)

    def row(p: orbits.Pattern) -> dict:
        root, mult = orbits.primitive_root(p)
        return {
            "pattern": p,
            "index": orbits.orbit_index(p),
            "root": root,
            "multiplicity": mult,
        }

    _emit_table(["pattern", "index", "root", "multiplicity"], map(row, sorted(pats)), args)
    return 0


def cmd_orbits_read(args) -> int:
    pattern = orbits.Pattern(args.pattern)
    _emit_table(WORD_COLUMNS, _word_rows(orbits.read(pattern)), args)
    return 0


def cmd_orbits_decompose(args) -> int:
    pattern = orbits.Pattern(args.pattern)
    dec = orbits.decompose(pattern)
    pieces = dec.fundamentals()
    payload = {"pattern": pattern, "pieces": pieces, **dec.laws(pattern)}
    _emit_table(["piece"], [{"piece": p} for p in pieces], args, payload)
    return 0


def _print_checks(results, quiet: bool) -> int:
    failed = [r for r in results if not r.ok]
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        detail = f"  ({r.detail})" if r.detail and not quiet else ""
        print(f"{status}  {r.name}{detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_orbits_verify(args) -> int:
    from . import verify
    return _print_checks(verify.orbit_checks(args.max_t), args.quiet)


def cmd_graph_export(args) -> int:
    if (args.de_bruijn is None) == (args.bernoulli is None):
        raise ValueError("pick exactly one of --de-bruijn or --bernoulli")
    if args.extension and args.de_bruijn is None:
        raise ValueError("--extension needs --de-bruijn")
    if args.de_bruijn is not None:
        g = graphs.de_bruijn_graph(args.de_bruijn)
        if args.extension:
            g = graphs.extension(g)
        _emit([g.to_dot()], args)
    else:
        _emit([graphs.bernoulli_matrix(args.bernoulli).to_csv()], args)
    return 0


def cmd_coin_check(args) -> int:
    from . import quantize
    coin = _resolve_coin(args)
    channel = quantize.verify_channel((coin.P, coin.Q))
    relations = quantize.verify_pq_relations(coin)
    print(f"unitary: {'ok' if channel.ok else 'FAIL'} (max deviation {channel.max_deviation:.2e})")
    print(f"trace preserving (both sides): {channel.right_identity and channel.left_identity}")
    print(f"row orthogonality: {channel.orthogonal}")
    print(f"entry relations: {'ok' if relations.ok else 'FAIL'} "
          f"(max deviation {relations.max_deviation:.2e})")
    try:
        lam = quantize.jones_parameter(coin)
        print(f"jones parameter: {lam.real!r}{lam.imag:+}j")
    except ValueError as exc:
        print(f"jones parameter: {str(exc).removeprefix('Jones generators ')}")
    return 0 if channel.ok and relations.ok else 1


def cmd_verify_all(args) -> int:
    from . import verify
    return _print_checks(verify.run_all(args.max_t), args.quiet)


def cmd_verify_axiom(args) -> int:
    def load(path, table_class):
        return None if path is None else table_class.from_json(_read_json(path))

    report = coalgebra.verify_axiom(
        args.axiom,
        load(args.delta, coalgebra.CoproductTable),
        load(args.delta_tilde, coalgebra.CoproductTable),
        load(args.counit, coalgebra.CounitTable),
        load(args.left_counit, coalgebra.CounitTable),
    )
    if report.ok:
        print(f"PASS  {args.axiom}")
        return 0
    print(f"FAIL  {args.axiom} on {report.witness}: {report.lhs} != {report.rhs}")
    return 1


PATTERN_HELP = f"a closed letter cycle of at most {orbits.PATTERN_MAX_LETTERS} letters"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkgrammar",
        description="Coin walk on the integers with its path grammar and periodic orbits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_walk = sub.add_parser("walk", help="run or plot the walk")
    walk_sub = p_walk.add_subparsers(dest="subcommand", required=True)
    p_run = walk_sub.add_parser(
        "run",
        help="distribution after N steps",
        description="Print the position distribution after N steps. Probabilities "
        f"are rounded to {PROBABILITY_DIGITS} significant digits in CSV and JSON.",
    )
    _coin_arguments(p_run)
    p_run.add_argument("--steps", type=int, required=True)
    p_run.add_argument("--psi", default="1,0,0,0", help="initial spinor re,im,re,im")
    p_run.add_argument("--symbolic", action="store_true", help="carry the word sets along")
    _table_arguments(p_run)
    p_run.set_defaults(func=cmd_walk_run)

    p_plot = walk_sub.add_parser(
        "plot",
        help="SVG bar chart of the distribution",
        description="Write an SVG bar chart of the position distribution after N steps. "
        "Bar heights are accurate in absolute terms, not to significant digits, and are "
        "rounded to 0.01 px.",
    )
    _coin_arguments(p_plot)
    p_plot.add_argument("--steps", type=int, required=True)
    p_plot.add_argument("--psi", default="1,0,0,0")
    _output_arguments(p_plot)
    p_plot.set_defaults(func=cmd_walk_plot)

    p_lang = sub.add_parser("lang", help="the four-letter language")
    lang_sub = p_lang.add_subparsers(dest="subcommand", required=True)
    p_gen = lang_sub.add_parser("generate", help="words at time t")
    p_gen.add_argument("--t", type=int, required=True)
    p_gen.add_argument("--vertex", type=int)
    p_gen.add_argument(
        "--grammar", choices=tuple(language.GRAMMAR_TABLES), default="markov",
        help="both give the same words; with --vertex both take one path that builds only its words",
    )
    _table_arguments(p_gen)
    p_gen.set_defaults(func=cmd_lang_generate)

    p_orbits = sub.add_parser("orbits", help="periodic orbits")
    orbits_sub = p_orbits.add_subparsers(dest="subcommand", required=True)
    p_enum = orbits_sub.add_parser("enumerate", help="orbits at time t")
    p_enum.add_argument("--t", type=int, required=True)
    p_enum.add_argument("--vertex", type=int)
    _table_arguments(p_enum)
    p_enum.set_defaults(func=cmd_orbits_enumerate)
    p_read = orbits_sub.add_parser("read", help="cyclic windows of a pattern")
    p_read.add_argument("--pattern", required=True, help=PATTERN_HELP)
    _table_arguments(p_read)
    p_read.set_defaults(func=cmd_orbits_read)
    p_dec = orbits_sub.add_parser("decompose", help="peel into fundamental orbits")
    p_dec.add_argument("--pattern", required=True, help=PATTERN_HELP)
    _table_arguments(p_dec)
    p_dec.set_defaults(func=cmd_orbits_decompose)
    p_over = orbits_sub.add_parser("verify", help="run the orbit invariant suite")
    p_over.add_argument("--max-t", type=int, default=11)
    p_over.add_argument("--quiet", action="store_true")
    p_over.set_defaults(func=cmd_orbits_verify)

    p_graph = sub.add_parser("graph", help="graph and matrix exports")
    graph_sub = p_graph.add_subparsers(dest="subcommand", required=True)
    p_exp = graph_sub.add_parser("export", help="DOT for graphs, CSV for matrices")
    p_exp.add_argument("--de-bruijn", type=int, help="p-vertex complete graph with loops")
    p_exp.add_argument("--extension", action="store_true", help="take the line graph first")
    p_exp.add_argument("--bernoulli", type=int, help="uniform 1/n matrix as exact CSV")
    _output_arguments(p_exp)
    p_exp.set_defaults(func=cmd_graph_export)

    p_coin = sub.add_parser("coin", help="coin diagnostics")
    coin_sub = p_coin.add_subparsers(dest="subcommand", required=True)
    p_check = coin_sub.add_parser("check", help="channel, entry and Jones relations")
    _coin_arguments(p_check)
    p_check.set_defaults(func=cmd_coin_check)

    p_verify = sub.add_parser("verify", help="verification suites")
    verify_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    p_all = verify_sub.add_parser("all", help="every lemma, theorem and invariant check")
    p_all.add_argument("--max-t", type=int, default=8)
    p_all.add_argument("--quiet", action="store_true")
    p_all.set_defaults(func=cmd_verify_all)
    p_axiom = verify_sub.add_parser("axiom", help="check one axiom on JSON tables")
    p_axiom.add_argument("--axiom", choices=coalgebra.AXIOMS, required=True)
    p_axiom.add_argument("--delta", required=True, help="coproduct table JSON")
    p_axiom.add_argument("--delta-tilde", help="second coproduct table JSON")
    p_axiom.add_argument("--counit", help="right counit JSON")
    p_axiom.add_argument("--left-counit", help="left counit JSON")
    p_axiom.set_defaults(func=cmd_verify_axiom)

    return parser


def main(argv=None) -> int:
    # Read by OpenBLAS when numpy loads, which no import above does.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
