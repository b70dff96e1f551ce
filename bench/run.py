"""Benchmark of the ``wilson`` CLI, end to end and layer by layer.

    python3 bench/run.py --workload tilde-growth --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the program is taken from its ``src``.
Each CLI invocation is a fresh ``child.py`` process, which calls the
``wilson.cli:main`` entry point; invocations run one at a time.  Each one's
exit code and stdout sha256 must match the values pinned below (the seed
commit's).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run (see ``tracer.py``) and
its overhead against an untraced run of the same invocations.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

DEADLINE_S = 170.0  # a run ends well inside 180 s, whatever --seconds says
SETUP_PROBES = 15


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    exit_code: int
    sha256: str


@dataclass(frozen=True)
class Workload:
    invocations: tuple[Invocation, ...]
    setup: str  # run after ``import wilson.cli as c`` to build the generating sets
    elements: Callable[[dict[str, bytes]], int]  # stdout by command -> element count
    layers: tuple[str, ...]  # spans the traced run must see


def _ball_size(outs: dict[str, bytes]) -> int:
    (out,) = outs.values()
    return int(out.splitlines()[-1].split(b",")[1])


def _partition_words(outs: dict[str, bytes]) -> int:
    doc = json.loads(outs["local-iso"])
    reduced = 1 + 3 * (2 ** doc["radius"] - 1)  # reduced words of length <= radius
    return (1 + doc["min_n"]) * reduced  # the tilde partition plus one per level tried


def _csv_rows(out: bytes) -> int:
    return sum(1 for line in out.splitlines() if not line.startswith(b"#")) - 1


def _certify_records(outs: dict[str, bytes]) -> int:
    claims = len(json.loads(outs["verify-all"])["claims"])
    return claims + _csv_rows(outs["lemma30"]) + _csv_rows(outs["lambda"])


WORKLOADS = {
    "tilde-growth": Workload(
        (Invocation(("growth", "--genset", "tilde", "--radius", "16", "--force"), 0,
                    "6ffa50551c12b47630e689a0bac2e6792f7f10783e56ee6d30f219b24f539654"),),
        "c.make_tilde()",
        _ball_size,
        ("fano.perm_mul", "wreath.decompose", "wreath.element_mul", "wreath.signature",
         "wreath.is_identity", "growth.find", "growth.add", "catalog.genset_build"),
    ),
    "s1-ball": Workload(
        (Invocation(("ball", "--genset", "S:1", "--radius", "12"), 0,
                    "0ddbd241494f5c5fb64692f6920bc3f10b820cb8802b5e84247472d9b252111e"),),
        "c.make_S(1)",
        _ball_size,
        ("fano.perm_mul", "wreath.decompose", "wreath.element_mul", "wreath.equals",
         "wreath.signature", "growth.find", "growth.add", "catalog.genset_build"),
    ),
    "partition": Workload(
        (Invocation(("local-iso", "--radius", "12", "--max-n", "6", "--force"), 0,
                    "e1cd73c5dae079135b8a97ae8176ca77a2662de751bfd3441189e6e823de9f81"),),
        "c.make_tilde(); c.make_S(2)",
        _partition_words,
        ("fano.perm_mul", "wreath.decompose", "wreath.element_mul", "wreath.is_identity",
         "wreath.equals", "wreath.signature", "growth.find", "growth.add",
         "catalog.genset_build"),
    ),
    "certify": Workload(
        (Invocation(("verify-all",), 0,
                    "1398ac5f4295e622ddce3c4b7e1dca82f486b053dd0c240b4f4774d3ccf88261"),
         Invocation(("lemma30", "--max-n", "120"), 0,
                    "0b7777e6504fbfc35f4b927ab1f30746e31f54c0469230b57b9be7c85aeae9ef"),
         Invocation(("lambda", "--steps", "2000"), 0,
                    "f8799337e5075b2aabccde6d313bd35c2726b07a3d4dac7bf3f30f61b54c37e0")),
        "c.psl32(); c.make_tilde(); c.make_S(1); c.make_free_quadruple()",
        _certify_records,
        ("fano.perm_mul", "fano.perm_inverse", "fano.closure", "wreath.decompose",
         "wreath.is_identity", "growth.find", "growth.rebuild", "catalog.genset_build",
         "catalog.identity_catalog", "words.count_delta_free", "bounds.solve_crossing"),
    ),
}

E2E_UNITS = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s", "kb_per_element": "KiB"}


@dataclass
class Exit:
    code: int | None  # None when killed at the deadline
    stdout: bytes
    wall_s: float
    report: dict  # the child's own: peak_kib, and setup_s for a set-up probe


def spawn(mode: str, args: list[str], timeout: float) -> Exit:
    """Run one ``child.py`` process to completion, or kill it at ``timeout``."""
    read_end, write_end = os.pipe()
    cmd = [sys.executable, str(BENCH / "child.py"), str(write_end), mode, *args]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, pass_fds=(write_end,),
                              timeout=max(timeout, 1e-3))
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired as exc:
        code, out = None, exc.stdout or b""
    finally:
        wall = time.perf_counter() - start
        os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        report = fh.read()
    return Exit(code, out, wall, json.loads(report) if report else {})


class Run:
    def __init__(self, name: str, seed: int, seconds: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def setup(self) -> tuple[float, int] | None:
        """One set-up probe: its (setup_s, peak_kib), or None if it failed."""
        res = spawn("setup", [self.workload.setup], self.remaining())
        if res.code != 0:
            self.problems.append(f"set-up probe {self.workload.setup!r}: exit {res.code}")
            return None
        return res.report["setup_s"], res.report["peak_kib"]

    def rep(self, traced: bool) -> tuple[float, int, dict[str, bytes], list[dict]] | None:
        """One pass over the workload's invocations, in a seeded order.

        Returns the summed wall time, the largest peak (KiB), each command's
        stdout and, when traced, each process's trace; or None if an
        invocation failed its pin, whose stdout and trace are then not read.
        """
        order = list(enumerate(self.workload.invocations))
        self.rng.shuffle(order)
        wall, peak, outs, docs, ok = 0.0, 0, {}, [], True
        for i, inv in order:
            path = OUT / f"{self.name}-{i}.trace.json"
            if traced:
                path.unlink(missing_ok=True)
                res = spawn("trace", [str(path), *inv.argv], self.remaining())
            else:
                res = spawn("cli", list(inv.argv), self.remaining())
            self.attempted += 1
            digest = hashlib.sha256(res.stdout).hexdigest()
            if res.code != inv.exit_code or digest != inv.sha256:
                self.failed += 1
                ok = False
                self.problems.append(
                    f"{' '.join(inv.argv)}{' (traced)' if traced else ''}: exit {res.code} "
                    f"(want {inv.exit_code}), stdout sha256 {digest} (want {inv.sha256})")
                if res.code is None:
                    break  # the run's deadline has passed
                continue
            wall += res.wall_s
            peak = max(peak, res.report["peak_kib"])
            outs[inv.argv[0]] = res.stdout
            if traced:
                docs.append(json.loads(path.read_text()))
        return (wall, peak, outs, docs) if ok else None

    def repeat(self, body: Callable[[], None]) -> None:
        """Call ``body`` until ``--seconds`` is used up, stopping where the
        run ends nearest to it; at least once."""
        start = time.perf_counter()
        calls = 0
        while True:
            body()
            calls += 1
            spent = time.perf_counter() - start
            guess = spent / calls
            if spent + guess / 2 >= self.seconds or guess * 1.5 >= self.remaining():
                return

    def end_to_end(self) -> dict[str, tuple[list[float], str]]:
        """Samples of each end-to-end metric, with its unit.

        The set-up probes are spread evenly over the run, between
        repetitions, so that their median covers the same stretch of time
        as the other metrics.
        """
        self.setup()  # compiles bytecode; not counted
        start = time.perf_counter()
        probes, walls, peaks, elements = [], [], [], []

        def probe(until: float) -> None:
            while (len(probes) < SETUP_PROBES and not self.problems
                   and len(probes) * self.seconds / SETUP_PROBES <= until):
                if (result := self.setup()) is not None:
                    probes.append(result)

        def body():
            probe(time.perf_counter() - start)
            if (result := self.rep(traced=False)) is None:
                return
            wall, peak, outs, _ = result
            walls.append(wall)
            peaks.append(peak)
            elements.append(self.workload.elements(outs))

        self.repeat(body)
        probe(float("inf"))
        samples = {
            "wall_s": walls,
            "peak_rss_mb": [peak / 1024 for peak in peaks],
            "setup_s": [setup_s for setup_s, _ in probes],
        }
        if probes:
            setup_peak = statistics.median(peak for _, peak in probes)
            samples["kb_per_element"] = [
                (peak - setup_peak) / n for peak, n in zip(peaks, elements)]
        return {name: (values, E2E_UNITS[name]) for name, values in samples.items()}

    def per_layer(self) -> dict[str, tuple[list[float], str]]:
        """Samples of each per-layer metric, one per traced repetition."""
        OUT.mkdir(exist_ok=True)
        samples: dict[str, tuple[list[float], str]] = {}

        def body():
            untraced = self.rep(traced=False)
            traced = self.rep(traced=True)
            if untraced is None or traced is None:
                return
            raw = tracer.merge(traced[3])
            metrics = tracer.layer_metrics(raw)
            metrics["trace.overhead_ratio"] = (traced[0] / untraced[0], "ratio")
            for name, (value, unit) in metrics.items():
                samples.setdefault(name, ([], unit))[0].append(value)
            for span in self.workload.layers:
                if not raw["calls"].get(span):
                    self.problems.append(f"traced span {span} never fired on {self.name}")

        self.repeat(body)
        return samples


def context(args) -> dict:
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()[0]
    ctx = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "python": platform.python_version(), "nproc": nproc,
           "loadavg_1m": load}
    if load > nproc:
        ctx["warning"] = f"load average {load:.2f} exceeds nproc {nproc}; timings are suspect"
        print(f"warning: {ctx['warning']}", file=sys.stderr)
    return ctx


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "wilson" / "cli.py").is_file():
        print(f"no wilson source under {ROOT / 'src'}; run inside a checkout",
              file=sys.stderr)
        return 2

    print("# context " + json.dumps(context(args), sort_keys=True))
    run = Run(args.workload, args.seed, args.seconds)
    samples = run.per_layer() if args.trace else run.end_to_end()
    metrics = {}
    for name, (values, unit) in samples.items():
        if not values:  # every repetition failed; the result is not correct
            continue
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"# {name} = {metrics[name]['value']:.6g} {unit} (median of {len(values)}; "
              f"min {min(values):.6g}, max {max(values):.6g})")
    print(f"# fail_ratio = {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} invocations)")
    for problem in run.problems:
        print(f"FAIL {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
