"""Command-line verification suites and data exports.

Each ``cmd_*`` function maps parsed arguments to its output text and exit code;
``main`` alone checks the desk-scale caps, reports errors and writes the text.
A command imports the layers it runs (``growth``, ``words``, ``bounds``) when it
runs, so ``import wilson.cli`` loads only ``fano``, ``wreath`` and ``catalog``.
Exit codes: 0 verdict pass, 1 verdict fail, 2 usage error, 3 engine resource
error.  A usage error prints one line, ``wilson <command>: error: <message>``,
on stderr; besides argparse's own, that covers a bad generating set, an unknown
``act`` symbol, a radius or word length over its desk-scale cap, an ``-o`` path
that cannot be written and every argument the engine rejects with
``ValueError`` (a radius, length or step count out of range, a point outside
1..7).  All outputs are deterministic: identical configuration gives identical
bytes.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import __version__
from .catalog import (
    GeneratingSet,
    make_S,
    make_base,
    make_free_quadruple,
    make_tilde,
    run_identity_catalog,
    swapper_pairs,
)
from .fano import X, Y, Z, closure, is_perfect, is_simple, is_two_transitive, psl32
from .wreath import Element, StateBudgetExceeded, act

# the desk-scale cap of each command that has one: (option, largest value
# allowed without --force)
CAPS = {
    "ball": ("radius", 12),
    "growth": ("radius", 12),
    "local-iso": ("radius", 12),
    "free-monoid": ("length", 12),
}

SIZE_COLUMNS = ["radius", "ball_size", "sphere_size", "estimate_root", "estimate_ratio"]


def _parse_genset(selector: str):
    if selector == "base":
        return make_base()
    if selector == "tilde":
        return make_tilde()
    if selector.startswith("S:"):
        level = selector[2:]
        if level.isascii() and level.isdecimal() and int(level) >= 1:
            return make_S(int(level))
        raise ValueError(f"bad generating set {selector!r}: the level n of S:n must "
                         "be an integer >= 1")
    raise ValueError(f"unknown generating set {selector!r}")


def _header(command: str, options: dict) -> str:
    config = " ".join([f"command={command}",
                       *(f"{k}={v}" for k, v in sorted(options.items()))])
    return f"# wilson-growth {__version__}\n# config: {config}\n"


def _csv(command: str, options: dict, columns: list[str], rows) -> str:
    lines = [",".join(columns), *(",".join(str(v) for v in row) for row in rows)]
    return _header(command, options) + "\n".join(lines) + "\n"


def _json_doc(command: str, options: dict, payload: dict) -> str:
    import json

    doc = {
        "artifact": f"wilson-growth {__version__}",
        "config": {"command": command, **options},
        **payload,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_verify_all(args) -> tuple[str, int]:
    from .bounds import lambda_sequence
    from .growth import find_min_n_local_iso, free_monoid_check
    from .words import verify_lemma30

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
    return _json_doc(args.command, {}, {"claims": claims, "all_pass": ok}), 0 if ok else 1


def cmd_ball(args) -> tuple[str, int]:
    from .growth import enumerate_ball, export_dot, sizes_csv_rows

    genset = _parse_genset(args.genset)
    options = {"genset": genset.name, "radius": args.radius, "format": args.format}
    if args.format == "dot":
        return _header(args.command, options) + export_dot(genset, args.radius), 0
    rows = sizes_csv_rows(enumerate_ball(genset, args.radius).sizes)
    return _csv(args.command, options, SIZE_COLUMNS, rows), 0


def cmd_growth(args) -> tuple[str, int]:
    from .growth import (ball_sizes, ball_sizes_exact_convention,
                         check_submultiplicative, sizes_csv_rows)

    genset = _parse_genset(args.genset)
    options = {"genset": genset.name, "radius": args.radius,
               "convention": args.convention}
    if args.convention == "exact":
        sizes = ball_sizes_exact_convention(genset, args.radius)
    else:
        sizes = ball_sizes(genset, args.radius)
    text = _csv(args.command, options, SIZE_COLUMNS, sizes_csv_rows(sizes))
    return text, 0 if check_submultiplicative(sizes) else 1


def cmd_lemma30(args) -> tuple[str, int]:
    from .words import verify_lemma30

    rep = verify_lemma30(args.max_n)
    text = _csv(args.command, {"max_n": args.max_n}, ["n", "delta_free_count"],
                enumerate(rep["counts"]))
    return text, 0 if rep["all_at_most_30"] else 1


def cmd_lambda(args) -> tuple[str, int]:
    from .bounds import RESIDUAL_TOL, lambda_sequence

    rows = [
        (s.n, f"{s.lambda_n:.15f}", f"{s.eta_n:.15f}", f"{s.residual:.3e}")
        for s in lambda_sequence(args.steps)
    ]
    # the header's tol is the bound every residual was checked against
    options = {"steps": args.steps, "tol": RESIDUAL_TOL}
    return _csv(args.command, options, ["n", "lambda_n", "eta_n", "residual"], rows), 0


def cmd_free_monoid(args) -> tuple[str, int]:
    from .growth import free_monoid_check

    if args.all_pairs:
        reports = [free_monoid_check(args.length, pair=p) for p in swapper_pairs()]
        ok = all(r["all_ok"] for r in reports)
        payload = {"reports": reports, "all_ok": ok}
    else:
        rep = free_monoid_check(args.length)
        ok = rep["all_ok"]
        payload = {"report": rep, "all_ok": ok}
    options = {"length": args.length, "all_pairs": args.all_pairs}
    return _json_doc(args.command, options, payload), 0 if ok else 1


def cmd_local_iso(args) -> tuple[str, int]:
    from .growth import find_min_n_local_iso

    n = find_min_n_local_iso(args.radius, args.max_n)
    options = {"radius": args.radius, "max_n": args.max_n}
    payload = {**options, "min_n": n, "found": n is not None}
    return _json_doc(args.command, options, payload), 0 if n is not None else 1


def cmd_act(args) -> tuple[str, int]:
    if args.genset == "free":
        q = make_free_quadruple()
        genset = GeneratingSet("free", (("a", q.a), ("b", q.b), ("c", q.c), ("d", q.d)))
    else:
        genset = _parse_genset(args.genset)
    table = dict(genset.symbols)
    e = Element()
    for token in args.word.split():
        if token not in table:
            raise ValueError(f"unknown symbol {token!r} in {genset.name}")
        e = e * table[token]
    return act(e, args.string) + "\n", 0


def cmd_curves(args) -> tuple[str, int]:
    from .bounds import curve_rows

    rows = [
        (f"{eta:.2f}", f"{p:.12f}", f"{g:.12f}") for eta, p, g in curve_rows(args.lam)
    ]
    return _csv(args.command, {"lam": args.lam}, ["eta", "pow_curve", "g_curve"], rows), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wilson",
        description="verification suites and data exports for the "
        "wreath-recursion growth construction",
    )
    common = argparse.ArgumentParser(add_help=False)
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
    p.set_defaults(func=cmd_ball)

    p = add_parser("growth", help="ball sizes and growth estimates")
    p.add_argument("--genset", default="S:1")
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--convention", choices=("atmost", "exact"), default="atmost")
    p.set_defaults(func=cmd_growth)

    p = add_parser("lemma30", help="pattern-free reduced word counts")
    p.add_argument("--max-n", type=int, default=40)
    p.set_defaults(func=cmd_lemma30)

    p = add_parser("lambda", help="the decreasing growth-bound sequence")
    p.add_argument("--steps", type=int, default=50)
    p.set_defaults(func=cmd_lambda)

    p = add_parser("free-monoid", help="free-monoid witness checks")
    p.add_argument("--length", type=int, default=8)
    p.add_argument("--all-pairs", action="store_true")
    p.set_defaults(func=cmd_free_monoid)

    p = add_parser("local-iso", help="least level matching the self-similar ball")
    p.add_argument("--radius", type=int, default=2)
    p.add_argument("--max-n", type=int, default=4)
    p.set_defaults(func=cmd_local_iso)

    p = add_parser("act", help="apply a word to a string over the alphabet")
    p.add_argument("--genset", default="S:1")
    p.add_argument("--word", required=True, help='e.g. "a b a"')
    p.add_argument("--string", required=True, help="digits over 1..7")
    p.set_defaults(func=cmd_act)

    p = add_parser("curves", help="the two crossing curves as CSV")
    p.add_argument("--lam", type=float, default=2.0)
    p.set_defaults(func=cmd_curves)

    for name, (option, cap) in CAPS.items():
        sub.choices[name].add_argument("--force", action="store_true",
                                       help=f"allow a {option} above {cap}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    error = f"wilson {args.command}: error:"
    # The collector is off while a command runs: the engine makes no cyclic
    # garbage, so its collections would only walk the growing element graph.
    # A command leaves about 250-390 cyclic objects, mostly argparse's, however
    # large its radius.  The freeze comes before the collector is turned back
    # on, so that neither a later collection nor the one at interpreter exit
    # walks the element graph.  An in-process caller (the tests, the CI smoke
    # run) has every object it holds frozen when main returns.
    enabled = gc.isenabled()
    gc.disable()
    try:
        if args.command in CAPS:
            option, cap = CAPS[args.command]
            value = getattr(args, option)
            if value > cap and not args.force:
                raise ValueError(f"{option} {value} exceeds desk-scale cap {cap}; "
                                 "pass --force to override")
        text, code = args.func(args)
    except ValueError as exc:
        print(error, exc, file=sys.stderr)
        return 2
    except StateBudgetExceeded as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    finally:
        gc.freeze()
        if enabled:
            gc.enable()
    try:
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(error, f"cannot write {args.output or 'stdout'}: {exc.strerror}",
              file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
