"""Checks of the benchmark itself.

    python3 bench/selftest.py

1. Self-time arithmetic of ``tracer.Tracer`` on a synthetic nest of spans with
   a fake clock, including recursion and an exception.
2. ``tracer.install`` leaves no module name or class attribute bound to an
   original callable, so imports such as ``from .wreath import equals`` are
   traced too.
3. Metric names and units agree with ``BENCHMARK.json``.
4. One short traced run per workload: correct, with every listed span fired
   and every per-layer metric reported.
5. A wrong program: an invocation that fails its pin is counted and named,
   its output is not parsed, and the result reads ``correct`` false.
6. In a tree holding only ``BENCHMARK.json`` and ``bench/``, ``run.py`` exits
   non-zero without printing a result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run
import tracer

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def synthetic_nest() -> None:
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 2

    def mid():
        clock.now += 1
        traced_leaf()
        clock.now += 1
        traced_leaf()

    def top(depth):
        clock.now += 3
        traced_mid()
        if depth:
            traced_top(depth - 1)

    def boom():
        clock.now += 5
        raise ValueError

    traced_leaf = tr.wrap("leaf", leaf)
    traced_mid = tr.wrap("mid", mid)
    traced_top = tr.wrap("top", top)
    traced_top(1)
    # top(1) = 3 + mid 6 + top(0) 9 = 18; each mid = 1 + 2 + 1 + 2 = 6
    snap = tr.snapshot()
    check(snap["calls"] == {"leaf": 4, "mid": 2, "top": 2}, "synthetic: call counts")
    check(snap["self_s"] == {"leaf": 8.0, "mid": 4.0, "top": 6.0},
          "synthetic: self time is duration minus children")
    check(snap["outer_s"] == {"leaf": 8.0, "mid": 12.0, "top": 18.0},
          "synthetic: outermost time counts a recursive span once")
    check(sum(snap["self_s"].values()) == 18.0, "synthetic: self times sum to the root span")
    by_id = {sid: (name, start, end, parent) for sid, name, start, end, parent in tr.spans}
    roots = [s for s in by_id.values() if s[3] == 0]
    nested = all(by_id[p][1] <= start and end <= by_id[p][2]
                 for _, start, end, p in by_id.values() if p)
    check(len(by_id) == 8 and len(roots) == 1 and nested,
          "synthetic: 8 spans, one root, each inside its parent")
    with contextlib.suppress(ValueError):
        tr.wrap("boom", boom)()
    check(tr.stats["boom"].self_s == 5.0 and not tr._stack,
          "synthetic: a span closes when its call raises")


def rebound_names() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from wilson import cli, fano, growth, wreath

    tr = tracer.Tracer()
    replaced = tracer.install(tr)
    left = tracer.unwrapped_names(replaced)
    check(not left, f"install: no name still bound to an original {left or ''}")
    check(growth.equals is wreath.equals and cli.closure is fano.closure,
          "install: rebound names share the wrapper")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["growth", "--genset", "S:1", "--radius", "3"])
    fired = {name for name, stat in tr.stats.items() if stat.calls}
    check({"fano.perm_mul", "wreath.decompose", "growth.find", "catalog.genset_build"} <= fired,
          "install: a small growth run fires the traced spans")


def benchmark_json() -> dict:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    check(e2e == run.E2E_UNITS, "BENCHMARK.json: end-to-end names and units")
    zero = {part: {} for part in ("calls", "self_s", "outer_s", "counters", "engine")}
    produced = {name: unit for name, (_, unit) in tracer.layer_metrics(zero).items()}
    produced["trace.overhead_ratio"] = "ratio"
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    check(layer == produced, "BENCHMARK.json: per-layer names and units")
    check([w["name"] for w in doc["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json: workload names")
    spans = {span for w in run.WORKLOADS.values() for span in w.layers}
    check(spans <= {span for span, _, _ in tracer.WRAPPED},
          "run.py: every expected span is wrapped")
    return layer


def traced_runs(layer: dict) -> None:
    for name in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
             "--seed", "1", "--seconds", "1", "--trace", "1"],
            stdout=subprocess.PIPE, text=True, timeout=180)
        result = json.loads(proc.stdout.splitlines()[-1])
        check(proc.returncode == 0 and result["correct"] and result["failed"] == 0
              and set(result["metrics"]) == set(layer),
              f"traced run of {name}: correct, spans fired, all per-layer metrics")


def failing_invocation() -> None:
    # local-iso finds no level here: exit 1 and "min_n": null, which the
    # partition workload's element count could not parse.
    partition = run.WORKLOADS["partition"]
    (pinned,) = partition.invocations
    argv = ("local-iso", "--radius", "4", "--max-n", "1")
    run.WORKLOADS["broken"] = dataclasses.replace(
        partition, invocations=(dataclasses.replace(pinned, argv=argv),))
    try:
        for trace in ("0", "1"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run.main(["--workload", "broken", "--seed", "1", "--seconds", "1",
                                 "--trace", trace])
            result = json.loads(out.getvalue().splitlines()[-1])
            check(code == 0 and not result["correct"]
                  and result["failed"] == result["attempted"] >= 1
                  and f"{' '.join(argv)}: exit 1 (want 0)" in err.getvalue(),
                  f"failing invocation, --trace {trace}: counted, named, correct false")
    finally:
        del run.WORKLOADS["broken"]


def bare_tree() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=180)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "tree without src/: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    synthetic_nest()
    rebound_names()
    layer = benchmark_json()
    traced_runs(layer)
    failing_invocation()
    bare_tree()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
