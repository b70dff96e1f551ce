"""Span tracing of the wilson engine from outside its source.

``install`` replaces the layer-boundary functions of ``fano``, ``wreath``,
``catalog``, ``words``, ``growth`` and ``bounds`` with timing wrappers.  A
function imported into another module (``from .wreath import equals``) is the
same object under a second name, so every module attribute that is the
original is rebound; methods are replaced on their class.

Each call is a span (name, start, end, parent).  Spans are aggregated as they
close, into call counts, self time (duration minus the time covered by child
spans) and outermost time (duration of spans not nested in a span of the same
name).  Only spans of at least ``KEEP_SPAN_S`` are kept whole, so a run of
millions of calls stays small in memory; a kept span's parent is longer still,
so the kept spans form a tree.

``main`` runs one ``wilson`` command under tracing (``child.py FD trace``).
The command's stdout and exit code are the CLI's own; the aggregates, engine
counters and kept spans go to a JSON file.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from itertools import count

KEEP_SPAN_S = 1e-3
KEEP_MAX = 50_000

# (span name, module, attribute path) of each wrapped callable
WRAPPED = (
    ("fano.perm_mul", "wilson.fano", "Perm.__mul__"),
    ("fano.perm_inverse", "wilson.fano", "Perm.inverse"),
    ("fano.closure", "wilson.fano", "closure"),
    ("wreath.decompose", "wilson.wreath", "decompose"),
    ("wreath.element_mul", "wilson.wreath", "Element.__mul__"),
    ("wreath.is_identity", "wilson.wreath", "is_identity"),
    ("wreath.equals", "wilson.wreath", "equals"),
    ("wreath.signature", "wilson.wreath", "signature"),
    ("growth.find", "wilson.growth", "Deduper.find"),
    ("growth.add", "wilson.growth", "Deduper.add"),
    ("growth.rebuild", "wilson.growth", "Deduper._rebuild"),
    ("catalog.genset_build", "wilson.catalog", "make_base"),
    ("catalog.genset_build", "wilson.catalog", "make_S"),
    ("catalog.genset_build", "wilson.catalog", "make_tilde"),
    ("catalog.genset_build", "wilson.catalog", "make_free_quadruple"),
    ("catalog.identity_catalog", "wilson.catalog", "run_identity_catalog"),
    ("words.count_delta_free", "wilson.words", "count_delta_free"),
    ("bounds.solve_crossing", "wilson.bounds", "solve_crossing"),
)

ENGINE_MODULES = ("fano", "wreath", "catalog", "words", "growth", "bounds", "cli")


class Stat:
    """Aggregates of one span name."""

    __slots__ = ("calls", "self_s", "outer_s", "open")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.outer_s = 0.0
        self.open = 0  # spans of this name now open; 0 on close = outermost


class Tracer:
    """Span aggregates, counters and kept spans of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self._stack: list[list] = []  # open spans: [id, start, child_s]
        self._ids = count(1)

    def stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def bump(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def wrap(self, name: str, fn):
        """``fn`` with each call recorded as a span called ``name``."""
        stat = self.stat(name)
        stack, clock, spans, ids = self._stack, self.clock, self.spans, self._ids

        def traced(*args, **kwargs):
            frame = [next(ids), clock(), 0.0]
            stat.open += 1
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                stat.calls += 1
                stat.self_s += dur - frame[2]
                stat.open -= 1
                if not stat.open:
                    stat.outer_s += dur
                if stack:
                    stack[-1][2] += dur
                if dur >= KEEP_SPAN_S:
                    if len(spans) < KEEP_MAX:
                        spans.append((frame[0], name, frame[1], end,
                                      stack[-1][0] if stack else 0))
                    else:
                        self.dropped += 1

        return traced

    def snapshot(self) -> dict:
        return {
            "calls": {n: s.calls for n, s in self.stats.items()},
            "self_s": {n: s.self_s for n, s in self.stats.items()},
            "outer_s": {n: s.outer_s for n, s in self.stats.items()},
            "counters": dict(self.counters),
        }


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def engine_modules():
    package = importlib.import_module("wilson")
    return [package] + [importlib.import_module(f"wilson.{m}") for m in ENGINE_MODULES]


def install(tracer: Tracer) -> set[int]:
    """Wrap every callable in ``WRAPPED`` under all its module-level names.

    Returns the ids of the originals, for ``unwrapped_names``.
    """
    modules = engine_modules()
    closures = tracer.stat("wreath.is_identity")
    replaced = set()
    for name, module, path in WRAPPED:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(name, original)
        if name == "wreath.equals":
            wrapper = _observe_equals(tracer, closures, wrapper)
        elif name == "growth.find":
            wrapper = _observe_find(tracer, closures, wrapper)
        replaced.add(id(original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return replaced


def _observe_equals(tracer: Tracer, closures: Stat, traced):
    """Count equality tests settled by word equality, with no closure."""

    def equals(g, h):
        before = closures.calls
        result = traced(g, h)
        if closures.calls == before:
            tracer.bump("equals.word_equal")
        return result

    return equals


def _observe_find(tracer: Tracer, closures: Stat, traced):
    """Count lookup hits, and the hits that needed an exact identity test."""

    def find(self, e):
        before = closures.calls
        result = traced(self, e)
        if result is not None:
            tracer.bump("find.hits")
            if closures.calls != before:
                tracer.bump("find.exact_fallbacks")
        return result

    return find


def unwrapped_names(replaced: set[int]) -> list[str]:
    """Names that still refer to an original wrapped callable."""
    left = []
    for _, module, path in WRAPPED:
        owner, attr = _resolve(module, path)
        if id(owner.__dict__[attr]) in replaced:
            left.append(f"{module}.{path}")
    for mod in engine_modules():
        left += [f"{mod.__name__}.{key}" for key, value in vars(mod).items()
                 if id(value) in replaced]
    return left


COUNTED = (
    "fano.perm_mul", "fano.perm_inverse", "wreath.decompose", "wreath.element_mul",
    "wreath.is_identity", "wreath.equals", "wreath.signature", "growth.find",
    "growth.add", "words.count_delta_free", "bounds.solve_crossing",
)
SELF_TIMED = (
    "fano.perm_mul", "fano.closure", "wreath.decompose", "wreath.element_mul",
    "wreath.is_identity", "wreath.signature", "growth.find",
    "words.count_delta_free", "bounds.solve_crossing",
)
CACHES = ("signature_cache", "identity_cache", "decompose_cache")


def merge(docs: list[dict]) -> dict:
    """Sum the aggregates of several traced processes."""
    total: dict = {}
    for doc in docs:
        for part in ("calls", "self_s", "outer_s", "counters", "engine"):
            into = total.setdefault(part, {})
            for key, value in doc[part].items():
                into[key] = into.get(key, 0) + value
        total["wall_s"] = total.get("wall_s", 0.0) + doc["wall_s"]
    return total


def layer_metrics(raw: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), from merged trace aggregates.

    A ratio whose base is 0 reads 0.0; its base is the matching ``.calls``.
    """
    def calls(name):
        return raw["calls"].get(name, 0)

    def counter(name):
        return raw["counters"].get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {f"{n}.calls": (calls(n), "count") for n in COUNTED}
    out.update({f"{n}.self_s": (raw["self_s"].get(n, 0.0), "s") for n in SELF_TIMED})
    out.update({f"wreath.{c}.entries": (raw["engine"].get(c, 0), "count") for c in CACHES})
    decomposed = calls("wreath.decompose")
    out["wreath.decompose.hit_ratio"] = (
        ratio(decomposed - raw["engine"].get("decompose_cache", 0), decomposed), "ratio")
    out["wreath.equals.word_equal_ratio"] = (
        ratio(counter("equals.word_equal"), calls("wreath.equals")), "ratio")
    out["growth.find.hit_ratio"] = (ratio(counter("find.hits"), calls("growth.find")), "ratio")
    out["growth.exact_fallbacks"] = (counter("find.exact_fallbacks"), "count")
    out["growth.sig_depth_rises"] = (calls("growth.rebuild"), "count")
    for n in ("catalog.genset_build", "catalog.identity_catalog"):
        out[f"{n}.s"] = (raw["outer_s"].get(n, 0.0), "s")
    return out


def main(argv: list[str]) -> int:
    """``argv`` is the output path, then the CLI arguments."""
    out_path, cli_args = argv[0], argv[1:]
    from wilson import cli, wreath

    tracer = Tracer()
    install(tracer)
    entry = tracer.wrap("cli.main", cli.main)
    before = wreath.engine_stats()
    start = time.perf_counter()
    try:
        code = entry(cli_args)
    finally:
        wall = time.perf_counter() - start
        after = wreath.engine_stats()
        sys.stdout.flush()
        doc = tracer.snapshot()
        doc["wall_s"] = wall
        doc["engine"] = {k: after[k] - before.get(k, 0) for k in after}
        doc["spans"] = tracer.spans
        doc["spans_dropped"] = tracer.dropped
        with open(out_path, "w") as fh:
            json.dump(doc, fh)
    return code
