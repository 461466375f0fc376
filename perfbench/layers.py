"""Traced run: per-layer time, counts and allocation, measured from outside the program.

The workloads' commands are called in-process through `cli.main`.  Public
functions of the package modules are wrapped at their module attributes,
so calls made through `module.function` or a module-level name both pass
through the wrapper; nothing under src/ is edited.  Each wrapped call
records a span (name, start, end, parent).  A span's self time is its
duration minus that of the child spans it contains.

Besides `setup.interpreter_s` and `setup.import_s` (medians over child
launches), every metric is named `<workload>.<layer>.<function>.<what>`:

    .s                 summed self time of the function's spans (seconds)
    cli.<cmd>.s        inclusive time of the CLI call, beside .self_s (the
                       CLI's own parsing, formatting and emission) and
                       .stdout_bytes
    counts             exact, taken from return values and arguments
    bytes_computed     computed from array sizes, not measured
    alloc_peak_mb      tracemalloc peak around that call alone, in a pass
                       of its own so that its cost is not in any .s
    trace.overhead_ratio  traced / untraced in-process wall time of the
                       workload's commands

All three workloads are traced in every traced run, so every metric has a
measured value whichever workload the driver names.  `quantize` and
`graphs` get no metric of their own: no function of theirs is a measurable
share of any workload (the coin set-up of a walk command is microseconds).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import workloads

MIB = 1024 * 1024
SETUP_PROBES = 5


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None"
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    """Spans in memory; `wrap` patches a module attribute until `restore`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.kept: list[tuple[str, object]] = []
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        s = Span(name, time.perf_counter(), parent)
        if parent is not None:
            parent.children.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            self.spans.append(s)

    def wrap(self, module, attr: str, counts=None, keep: bool = False) -> None:
        """Trace `module.attr`; `counts(args, result)` adds counts, `keep` keeps the result."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = original(*args, **kwargs)
            if counts is not None:
                s.counts.update(counts(args, kwargs, result))
            if keep:
                self.kept.append((name, result))
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _numeric_counts(args, kwargs, state) -> dict[str, float]:
    # Step s reads the time-s state (s+1 cells) and writes the time-(s+1) state.
    n = state.time
    cell_bytes = state.amps.itemsize * 4
    return {"cell_steps": n * (n + 1) // 2, "bytes_computed": cell_bytes * (n * n + 2 * n)}


def _words_at_vertex_counts(args, kwargs, words) -> dict[str, float]:
    t, k = _arg(args, kwargs, 0, "t"), _arg(args, kwargs, 1, "k")
    generated = 2**t if (t + k) % 2 == 0 and abs(k) <= t else 0
    return {"returned": len(words), "generated": generated}


VERIFY_SUITES = (
    "coalgebra_checks",
    "lemma_checks",
    "walk_checks",
    "language_checks",
    "orbit_checks",
    "quantize_checks",
)


def install(tracer: Tracer, program: SimpleNamespace) -> None:
    tracer.wrap(program.walk, "run_numeric", _numeric_counts, keep=True)
    tracer.wrap(program.walk, "distribution", keep=True)
    tracer.wrap(program.walk, "run_symbolic", lambda a, kw, r: {"words": r.total_words()})
    tracer.wrap(program.walk, "evaluate", keep=True)
    tracer.wrap(program.language, "generate", lambda a, kw, r: {"words": len(r)})
    tracer.wrap(program.language, "words_at_vertex", _words_at_vertex_counts)
    tracer.wrap(
        program.orbits,
        "orbits_at_time",
        lambda a, kw, r: {"patterns": len(r), "t": _arg(a, kw, 0, "t")},
    )
    tracer.wrap(program.orbits, "grow", lambda a, kw, r: {"parent_len": len(_arg(a, kw, 0, "p"))})
    tracer.wrap(program.coalgebra, "verify_axiom")
    tracer.wrap(program.coalgebra, "iterate_rightmost", lambda a, kw, r: {"terms": len(r)})
    for suite in VERIFY_SUITES:
        tracer.wrap(program.verify, suite)
    tracer.wrap(program.verify, "closed_walks")
    tracer.wrap(
        program.verify,
        "run_all",
        lambda a, kw, r: {"checks_run": len(r), "checks_passed": sum(bool(c) for c in r)},
    )


def import_program(src: Path) -> SimpleNamespace:
    """Import walkgrammar from src, refusing any other copy."""
    sys.path.insert(0, str(src))
    import walkgrammar
    from walkgrammar import cli, coalgebra, language, orbits, quantize, verify, walk

    if not Path(walkgrammar.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"walkgrammar imported from {walkgrammar.__file__}, not {src}")
    return SimpleNamespace(
        cli=cli,
        coalgebra=coalgebra,
        language=language,
        orbits=orbits,
        quantize=quantize,
        verify=verify,
        walk=walk,
    )


def call_cli(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, buf.getvalue()


def check_text(checks: workloads.Checks, cmd: workloads.Command, code: int, text: str) -> None:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    checks.check(cmd, code, digest, lambda: io.StringIO(text))


@dataclass
class Accuracy:
    """Worst invariant residuals of the walk layer over a workload's commands."""

    unitarity_defect: float = 0.0
    prob_sum_defect: float = 0.0
    max_prob_err: float = 0.0

    def update(self, cmd: workloads.Command, kept: list[tuple[str, object]]) -> None:
        for name, result in kept:
            if name in ("walk.run_numeric", "walk.evaluate"):
                gram = np.einsum("kij,kil->jl", result.amps.conj(), result.amps)
                defect = float(np.max(np.abs(gram - np.eye(2))))
                self.unitarity_defect = max(self.unitarity_defect, defect)
            elif name == "walk.distribution" and cmd.probs is not None:
                ks = sorted(result)
                ps = np.array([result[k] for k in ks])
                self.prob_sum_defect = max(self.prob_sum_defect, abs(math.fsum(ps) - 1.0))
                self.max_prob_err = max(self.max_prob_err, float(np.max(np.abs(ps - cmd.probs))))


class Aggregate:
    """Spans grouped by name."""

    def __init__(self, spans: list[Span]):
        self.by_name: dict[str, list[Span]] = {}
        for s in spans:
            self.by_name.setdefault(s.name, []).append(s)

    def spans(self, name: str) -> list[Span]:
        return self.by_name.get(name, [])

    def self_s(self, name: str) -> float:
        return sum(s.self_time for s in self.spans(name))

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.spans(name))

    def calls(self, name: str) -> int:
        return len(self.spans(name))

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.spans(name))


def _grow_useful_ratio(agg: Aggregate) -> float:
    """New patterns / canonicalisations in the last growth step of each orbits_at_time call.

    grow(p) canonicalises 2 len(p) candidates; the step that produces the
    length-t patterns has parents of length t - 1.
    """
    found = attempts = 0
    for s in agg.spans("orbits.orbits_at_time"):
        t = s.counts["t"]
        last = [c for c in s.children if c.name == "orbits.grow" and c.counts["parent_len"] == t - 1]
        if last:
            found += s.counts["patterns"]
            attempts += 2 * (t - 1) * len(last)
    return _ratio(found, attempts)


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


# Which layer groups each workload exercises, hence which metrics it reports.
GROUPS = {
    "numeric_walk": ("walk_numeric", "walk_distribution", "walk_accuracy", "cli"),
    "words": (
        "walk_symbolic",
        "walk_alloc",
        "walk_distribution",
        "walk_accuracy",
        "language",
        "orbits",
        "cli",
    ),
    "verify": ("walk_numeric", "walk_symbolic", "language", "orbits", "coalgebra", "verify", "cli"),
}


def layer_metrics(
    workload: str,
    cmds: list[workloads.Command],
    agg: Aggregate,
    accuracy: Accuracy,
    alloc: dict[str, float],
) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[f"{workload}.{name}"] = (value, unit)

    groups = GROUPS[workload]
    if "walk_numeric" in groups:
        put("walk.run_numeric.s", agg.self_s("walk.run_numeric"), "s")
        put("walk.run_numeric.cell_steps", agg.count("walk.run_numeric", "cell_steps"), "count")
        put("walk.run_numeric.bytes_computed", agg.count("walk.run_numeric", "bytes_computed"), "B")
    if "walk_distribution" in groups:
        put("walk.distribution.s", agg.self_s("walk.distribution"), "s")
    if "walk_accuracy" in groups:
        put("walk.unitarity_defect", accuracy.unitarity_defect, "1")
        put("walk.prob_sum_defect", accuracy.prob_sum_defect, "1")
        put("walk.max_prob_err", accuracy.max_prob_err, "1")
    if "walk_symbolic" in groups:
        put("walk.run_symbolic.s", agg.self_s("walk.run_symbolic"), "s")
        put("walk.run_symbolic.words", agg.count("walk.run_symbolic", "words"), "count")
        put("walk.evaluate.s", agg.self_s("walk.evaluate"), "s")
    if "walk_alloc" in groups:
        put("walk.run_symbolic.alloc_peak_mb", alloc["walk.run_symbolic"], "MiB")
        put("walk.evaluate.alloc_peak_mb", alloc["walk.evaluate"], "MiB")
    if "language" in groups:
        put("language.generate.s", agg.self_s("language.generate"), "s")
        put("language.generate.words", agg.count("language.generate", "words"), "count")
        wav = "language.words_at_vertex"
        put("language.words_at_vertex.s", agg.self_s(wav), "s")
        put("language.words_at_vertex.calls", agg.calls(wav), "count")
        useful = _ratio(agg.count(wav, "returned"), agg.count(wav, "generated"))
        put("language.words_at_vertex.useful_ratio", useful, "1")
    if "orbits" in groups:
        put("orbits.orbits_at_time.s", agg.self_s("orbits.orbits_at_time"), "s")
        put("orbits.orbits_at_time.calls", agg.calls("orbits.orbits_at_time"), "count")
        put("orbits.orbits_at_time.patterns", agg.count("orbits.orbits_at_time", "patterns"), "count")
        put("orbits.grow.s", agg.self_s("orbits.grow"), "s")
        put("orbits.grow.calls", agg.calls("orbits.grow"), "count")
        put("orbits.grow.useful_ratio", _grow_useful_ratio(agg), "1")
    if "coalgebra" in groups:
        put("coalgebra.verify_axiom.s", agg.self_s("coalgebra.verify_axiom"), "s")
        put("coalgebra.verify_axiom.calls", agg.calls("coalgebra.verify_axiom"), "count")
        put("coalgebra.iterate_rightmost.s", agg.self_s("coalgebra.iterate_rightmost"), "s")
        put("coalgebra.iterate_rightmost.terms", agg.count("coalgebra.iterate_rightmost", "terms"), "count")
    if "verify" in groups:
        for suite in VERIFY_SUITES:
            put(f"verify.{suite}.s", agg.self_s(f"verify.{suite}"), "s")
        put("verify.closed_walks.s", agg.self_s("verify.closed_walks"), "s")
        put("verify.checks_run", agg.count("verify.run_all", "checks_run"), "count")
        put("verify.checks_passed", agg.count("verify.run_all", "checks_passed"), "count")
    if "cli" in groups:
        for name in dict.fromkeys(cmd.name for cmd in cmds):
            span = f"cli.{name}"
            put(f"{span}.s", agg.total_s(span), "s")
            put(f"{span}.self_s", agg.self_s(span), "s")
            put(f"{span}.stdout_bytes", agg.count(span, "stdout_bytes"), "B")
    return out


def alloc_peaks(program: SimpleNamespace, cmd: workloads.Command) -> dict[str, float]:
    """tracemalloc peaks of run_symbolic and evaluate at the command's size and coin, in MiB."""
    walk = program.walk
    coin = program.quantize.CoinPair.from_unitary(cmd.coin)
    peaks = {}
    tracemalloc.start()
    try:
        sym = walk.run_symbolic(cmd.steps)
        peaks["walk.run_symbolic"] = tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        walk.evaluate(sym, coin)
        peaks["walk.evaluate"] = tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()
    return peaks


def trace_workload(
    program: SimpleNamespace, workload: str, seed: int, smoke: bool, checks: workloads.Checks
) -> dict[str, tuple[float, str]]:
    cmds = workloads.commands(workload, seed, smoke)
    outputs = []
    start = time.perf_counter()
    for cmd in cmds:
        outputs.append((cmd, *call_cli(program.cli, cmd.argv)))
    untraced = time.perf_counter() - start

    tracer = Tracer()
    accuracy = Accuracy()
    install(tracer, program)
    traced_calls = []
    try:
        start = time.perf_counter()
        for cmd in cmds:
            with tracer.span(f"cli.{cmd.name}") as span:
                code, text = call_cli(program.cli, cmd.argv)
            traced_calls.append((cmd, span, text, tracer.kept))
            tracer.kept = []
            outputs.append((cmd, code, text))
        traced = time.perf_counter() - start
    finally:
        tracer.restore()
    for cmd, span, text, kept in traced_calls:
        span.counts["stdout_bytes"] = len(text.encode("utf-8"))
        accuracy.update(cmd, kept)
    for cmd, code, text in outputs:
        check_text(checks, cmd, code, text)

    alloc = alloc_peaks(program, cmds[0]) if "walk_alloc" in GROUPS[workload] else {}
    metrics = layer_metrics(workload, cmds, Aggregate(tracer.spans), accuracy, alloc)
    metrics[f"{workload}.trace.overhead_ratio"] = (traced / untraced, "1")
    return metrics


def setup_metrics(src: Path) -> dict[str, tuple[float, str]]:
    """Median interpreter start (`python -c pass`) and `import walkgrammar` time, in children."""
    probe = "import time; t = time.perf_counter(); import walkgrammar; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(src))
    interpreter, imports = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env)
        interpreter.append(time.perf_counter() - start)
        done = subprocess.run(
            [sys.executable, "-c", probe], check=True, env=env, capture_output=True, text=True
        )
        imports.append(float(done.stdout))
    return {
        "setup.interpreter_s": (statistics.median(interpreter), "s"),
        "setup.import_s": (statistics.median(imports), "s"),
    }


def run(seed: int, seconds: float, smoke: bool, src: Path, checks: workloads.Checks) -> dict:
    """Trace every workload, repeating until `seconds` have passed; report medians."""
    program = import_program(src)
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, seed, smoke):
            print(f"command ({workload}): walkgrammar " + " ".join(cmd.argv))
    # First calls pay one-off costs (lazy imports, allocator growth); pay them untimed.
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, seed, smoke=True):
            call_cli(program.cli, cmd.argv)
    rounds: list[dict[str, tuple[float, str]]] = []
    for _ in workloads.paced(seconds):
        metrics = setup_metrics(src)
        for workload in workloads.WORKLOADS:
            metrics.update(trace_workload(program, workload, seed, smoke, checks))
        rounds.append(metrics)
    metrics = {
        name: {"value": statistics.median(r[name][0] for r in rounds), "unit": unit}
        for name, (_, unit) in rounds[0].items()
    }
    for name, m in metrics.items():
        print(f"{name:<58} {m['value']:>14.6g} {m['unit']}")
    print(f"{len(rounds)} traced round(s); fail_ratio {len(checks.failures) / checks.attempted:.4f}")
    return metrics
