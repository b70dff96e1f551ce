"""Command-line verification suites and data exports.

Exit codes: 0 verdict pass, 1 verdict fail, 2 usage error, 3 engine resource
error.  A usage error names what was wrong on stderr; besides argparse's own,
that covers a bad generating set, a radius over the desk-scale cap, a bad
state budget and every argument the engine rejects with ``ValueError`` (a
radius, length or step count out of range, a point outside 1..7).  All
outputs are deterministic: identical configuration gives identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import __version__
from .bounds import curve_rows, lambda_sequence
from .catalog import (
    make_S,
    make_base,
    make_free_quadruple,
    make_tilde,
    run_identity_catalog,
    swapper_pairs,
)
from .fano import X, Y, Z, closure, is_perfect, is_simple, is_two_transitive, psl32
from .growth import (
    ball_sizes,
    ball_sizes_exact_convention,
    check_submultiplicative,
    enumerate_ball,
    export_dot,
    find_min_n_local_iso,
    free_monoid_check,
    sizes_csv_rows,
)
from .words import verify_lemma30
from .wreath import StateBudgetExceeded, act, set_state_budget

MAX_BALL_RADIUS = 12
MAX_PARTITION_RADIUS = 8


@dataclass
class RunConfig:
    command: str
    options: dict = field(default_factory=dict)

    def header_lines(self) -> list[str]:
        opts = " ".join(f"{k}={v}" for k, v in sorted(self.options.items()))
        return [
            f"# wilson-growth {__version__}",
            f"# config: command={self.command} {opts}".rstrip(),
        ]

    def as_json(self) -> dict:
        return {"command": self.command, **{k: v for k, v in sorted(self.options.items())}}


def _parse_genset(selector: str, allow_free: bool = False):
    if selector == "base":
        return make_base()
    if selector == "tilde":
        return make_tilde()
    if selector.startswith("S:"):
        level = selector[2:]
        if level.isdecimal() and int(level) >= 1:
            return make_S(int(level))
        print(f"bad generating set {selector!r}: the level n of S:n must be an "
              "integer >= 1", file=sys.stderr)
        raise SystemExit(2)
    if selector == "free" and allow_free:
        q = make_free_quadruple()
        from .catalog import GeneratingSet

        return GeneratingSet(
            "free", (("a", q.a), ("b", q.b), ("c", q.c), ("d", q.d))
        )
    print(f"unknown generating set {selector!r}", file=sys.stderr)
    raise SystemExit(2)


def _emit(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(config: RunConfig, header: list[str], rows) -> str:
    lines = config.header_lines()
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_doc(config: RunConfig, payload: dict) -> str:
    doc = {
        "artifact": f"wilson-growth {__version__}",
        "config": config.as_json(),
        **payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_verify_all(args) -> int:
    config = RunConfig("verify-all")
    claims: list[dict] = []

    def claim(cid: str, statement: str, verdict: bool):
        claims.append({"id": cid, "statement": statement, "verdict": bool(verdict)})

    group = psl32()
    claim("A-order", "|<x,y,z>| = 168", group.size == 168)
    claim("A-perfect", "<x,y,z> is perfect", is_perfect(group))
    claim("A-simple", "<x,y,z> is simple", is_simple(group))
    claim("A-2transitive", "<x,y,z> acts 2-transitively", is_two_transitive(group))
    claim(
        "A-alt-generators",
        "<xy,yz,zx> = <x,y,z>",
        closure({X * Y, Y * Z, Z * X}).elements == group.elements,
    )

    for item in run_identity_catalog()["claims"]:
        claim(f"identity/{item['id']}", item["statement"], item["verdict"])

    lem = verify_lemma30(40)
    claim("lemma30-bound", "pattern-free reduced word counts <= 30 up to n=40",
          lem["all_at_most_30"])
    claim("lemma30-small", "pattern-free counts for n=1,2,3 are 3,6,9",
          lem["counts"][1:4] == [3, 6, 9])

    fm = free_monoid_check(8)
    claim("free-monoid", "511 distinct {a,d}-words of length <= 8, with the "
          "(b->a, d->c) refinement", fm["all_ok"])

    for radius in (1, 2, 3):
        n = find_min_n_local_iso(radius, 4)
        claim(
            f"local-iso-R{radius}",
            f"some level n <= 4 matches the self-similar ball of radius {radius}",
            n is not None,
        )

    seq = lambda_sequence(200)
    claim("lambda-start", "the sequence starts at 2", seq[0].lambda_n == 2.0)
    claim(
        "lambda-decreasing",
        "1 < lambda_{n+1} < lambda_n along the sequence",
        all(1.0 < s.lambda_next < s.lambda_n for s in seq),
    )
    claim("lambda-residuals", "all crossing residuals <= 1e-12",
          max(s.residual for s in seq) <= 1e-12)
    claim("lambda-eta1", "eta_1 in (0.08, 0.10)", 0.08 < seq[0].eta_n < 0.10)
    claim("lambda-next", "lambda_2 in (1.85, 1.90)",
          1.85 < seq[0].lambda_next < 1.90)
    claim("lambda-to-one", "lambda_n < 1.05 within 200 steps",
          any(s.lambda_next < 1.05 for s in seq))

    ok = all(c["verdict"] for c in claims)
    _emit(_json_doc(config, {"claims": claims, "all_pass": ok}), args.output)
    return 0 if ok else 1


def cmd_ball(args) -> int:
    _check_radius(args.radius, MAX_BALL_RADIUS, args.force)
    genset = _parse_genset(args.genset)
    config = RunConfig("ball", {"genset": genset.name, "radius": args.radius,
                                "format": args.format})
    ball = enumerate_ball(genset, args.radius, with_edges=(args.format == "dot"))
    if args.format == "dot":
        text = "\n".join(config.header_lines()) + "\n" + export_dot(ball)
    else:
        text = _csv(
            config,
            ["radius", "ball_size", "sphere_size", "estimate_root", "estimate_ratio"],
            sizes_csv_rows(ball.sizes),
        )
    _emit(text, args.output)
    return 0


def cmd_growth(args) -> int:
    _check_radius(args.radius, MAX_BALL_RADIUS, args.force)
    genset = _parse_genset(args.genset)
    config = RunConfig(
        "growth",
        {"genset": genset.name, "radius": args.radius,
         "convention": args.convention},
    )
    if args.convention == "exact":
        sizes = ball_sizes_exact_convention(genset, args.radius)
    else:
        sizes = ball_sizes(genset, args.radius)
    rows = sizes_csv_rows(sizes)
    text = _csv(
        config,
        ["radius", "ball_size", "sphere_size", "estimate_root", "estimate_ratio"],
        rows,
    )
    _emit(text, args.output)
    return 0 if check_submultiplicative(sizes) else 1


def cmd_lemma30(args) -> int:
    config = RunConfig("lemma30", {"max_n": args.max_n})
    rep = verify_lemma30(args.max_n)
    text = _csv(config, ["n", "delta_free_count"], enumerate(rep["counts"]))
    _emit(text, args.output)
    return 0 if rep["all_at_most_30"] else 1


def cmd_lambda(args) -> int:
    config = RunConfig("lambda", {"steps": args.steps, "tol": args.tol})
    seq = lambda_sequence(args.steps, args.tol)
    rows = [
        (s.n, f"{s.lambda_n:.15f}", f"{s.eta_n:.15f}", f"{s.residual:.3e}")
        for s in seq
    ]
    _emit(_csv(config, ["n", "lambda_n", "eta_n", "residual"], rows), args.output)
    return 0


def cmd_free_monoid(args) -> int:
    config = RunConfig("free-monoid", {"length": args.length,
                                       "all_pairs": args.all_pairs})
    if args.all_pairs:
        reports = [free_monoid_check(args.length, pair=p) for p in swapper_pairs()]
        ok = all(r["all_ok"] for r in reports)
        payload = {"reports": reports, "all_ok": ok}
    else:
        rep = free_monoid_check(args.length)
        ok = rep["all_ok"]
        payload = {"report": rep, "all_ok": ok}
    _emit(_json_doc(config, payload), args.output)
    return 0 if ok else 1


def cmd_local_iso(args) -> int:
    _check_radius(args.radius, MAX_PARTITION_RADIUS, args.force)
    config = RunConfig("local-iso", {"radius": args.radius, "max_n": args.max_n})
    n = find_min_n_local_iso(args.radius, args.max_n)
    payload = {
        "radius": args.radius,
        "max_n": args.max_n,
        "min_n": n,
        "found": n is not None,
    }
    _emit(_json_doc(config, payload), args.output)
    return 0 if n is not None else 1


def cmd_act(args) -> int:
    genset = _parse_genset(args.genset, allow_free=True)
    table = dict(genset.symbols)
    e = None
    for token in args.word.split():
        if token not in table:
            print(f"unknown symbol {token!r} in {genset.name}", file=sys.stderr)
            return 2
        e = table[token] if e is None else e * table[token]
    if e is None:
        from .wreath import Element

        e = Element()
    _emit(act(e, args.string) + "\n", args.output)
    return 0


def cmd_curves(args) -> int:
    config = RunConfig("curves", {"lam": args.lam})
    rows = [
        (f"{eta:.2f}", f"{p:.12f}", f"{g:.12f}") for eta, p, g in curve_rows(args.lam)
    ]
    _emit(_csv(config, ["eta", "pow_curve", "g_curve"], rows), args.output)
    return 0


def _check_radius(radius: int, cap: int, force: bool) -> None:
    if radius > cap and not force:
        print(f"radius {radius} exceeds desk-scale cap {cap}; pass --force to override",
              file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wilson",
        description="verification suites and data exports for the "
        "wreath-recursion growth construction",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--state-budget", type=int, default=None,
                        help="override the identity-test state budget (>= 1)")
    common.add_argument("-o", "--output", default=None,
                        help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    p = add_parser("verify-all", help="run every finitely checkable claim")
    p.set_defaults(func=cmd_verify_all)

    p = add_parser("ball", help="enumerate a Cayley ball")
    p.add_argument("--genset", default="S:1")
    p.add_argument("--radius", type=int, default=6)
    p.add_argument("--format", choices=("csv", "dot"), default="csv")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_ball)

    p = add_parser("growth", help="ball sizes and growth estimates")
    p.add_argument("--genset", default="S:1")
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--convention", choices=("atmost", "exact"), default="atmost")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_growth)

    p = add_parser("lemma30", help="pattern-free reduced word counts")
    p.add_argument("--max-n", type=int, default=40)
    p.set_defaults(func=cmd_lemma30)

    p = add_parser("lambda", help="the decreasing growth-bound sequence")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_lambda)

    p = add_parser("free-monoid", help="free-monoid witness checks")
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--all-pairs", action="store_true")
    p.set_defaults(func=cmd_free_monoid)

    p = add_parser("local-iso", help="least level matching the self-similar ball")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_local_iso)

    p = add_parser("act", help="apply a word to a string over the alphabet")
    p.add_argument("--genset", default="S:1")
    p.add_argument("--word", required=True, help='e.g. "a b a"')
    p.add_argument("--string", required=True, help="digits over 1..7")
    p.set_defaults(func=cmd_act)

    p = add_parser("curves", help="the two crossing curves as CSV")
    p.add_argument("--lam", type=float, default=2.0)
    p.set_defaults(func=cmd_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        set_state_budget(args.state_budget)
        return args.func(args)
    except ValueError as exc:
        print(f"wilson {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except StateBudgetExceeded as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    finally:
        set_state_budget(None)


if __name__ == "__main__":
    sys.exit(main())
