"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the lines
even when everything passes).  Heavy ball enumerations are shared through
module-scoped fixtures so the whole suite stays inside its time budgets.
"""

import itertools
import time

import numpy as np
import pytest

from wilson.bounds import eval_growth_bound, lambda_sequence
from wilson.catalog import (
    abar_act_prefix,
    make_S,
    make_abar,
    make_free_quadruple,
    make_tilde,
    run_identity_catalog,
    swapper_pairs,
)
from wilson.fano import X, Y, Z, closure, is_perfect, is_simple, is_two_transitive, psl32
from wilson.growth import (
    ball_sizes,
    check_submultiplicative,
    enumerate_ball,
    find_min_n_local_iso,
    free_monoid_check,
)
from wilson.words import count_delta_free, geodesic_delta_stats
from wilson.wreath import act, decompose

from partition_oracle import least_levels, pairwise_ball_sizes
from words_oracle import count_delta_free_naive


def report(criterion: str, ok: bool, started: float, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    elapsed = time.perf_counter() - started
    suffix = f" -- {detail}" if detail else ""
    print(f"[{criterion}] {verdict} ({elapsed:.2f}s){suffix}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def ball_s2_r10():
    return enumerate_ball(make_S(2), 10)


def test_criterion_01_finite_group(capsys):
    t0 = time.perf_counter()
    group = psl32()
    ok = (
        group.size == 168
        and is_perfect(group)
        and is_simple(group)
        and is_two_transitive(group)
        and closure({X * Y, Y * Z, Z * X}).elements == group.elements
    )
    with capsys.disabled():
        report("criterion-01 finite-group facts", ok, t0,
               f"order={group.size}")


def test_criterion_02_identity_catalog(capsys):
    t0 = time.perf_counter()
    rep = run_identity_catalog()
    failed = [c["id"] for c in rep["claims"] if not c["verdict"]]
    nontrivial = {c["id"] for c in rep["claims"] if c["relation"] == "not-identity"}
    ok = rep["all_pass"] and len(rep["claims"]) >= 9 and len(nontrivial) >= 2
    with capsys.disabled():
        report("criterion-02 identity catalog", ok, t0,
               f"{len(rep['claims'])} claims, failed={failed}")


def test_criterion_03_abar_oracle(capsys):
    t0 = time.perf_counter()
    strings = [""]
    for k in range(1, 5):
        strings.extend(
            "".join(t) for t in itertools.product("1234567", repeat=k)
        )
    mismatches = 0
    for a in psl32().sorted_elements():
        e = make_abar(a)
        for s in strings:
            if act(e, s) != abar_act_prefix(s, a):
                mismatches += 1
    ok = mismatches == 0
    with capsys.disabled():
        report("criterion-03 recursive-permutation oracle", ok, t0,
               f"168x{len(strings)} cases, mismatches={mismatches}")


def test_criterion_04_pattern_free_counts(capsys):
    t0 = time.perf_counter()
    counts = [count_delta_free(n) for n in range(41)]
    ok = (
        max(counts) <= 30
        and counts[1:4] == [3, 6, 9]
        and all(count_delta_free_naive(n) == counts[n] for n in range(16))
    )
    with capsys.disabled():
        report("criterion-04 pattern-free word counts", ok, t0,
               f"max={max(counts)}, plateau={counts[-1]}")


def test_criterion_05_free_monoid(capsys):
    t0 = time.perf_counter()
    reports = [free_monoid_check(8, pair=p) for p in swapper_pairs()]
    ok = all(r["all_ok"] and r["distinct"] == 511 for r in reports)
    with capsys.disabled():
        report("criterion-05 free monoid witness", ok, t0,
               f"{len(reports)} swapper pairs, distinct="
               f"{sorted({r['distinct'] for r in reports})}")


def test_criterion_06_quadruple_decompositions(capsys):
    t0 = time.perf_counter()
    q = make_free_quadruple()
    roots = {name: decompose(getattr(q, name)).root for name in "abcd"}
    ok = (
        all(r.apply(1) == 2 and r.apply(2) == 1 for r in roots.values())
        and roots["a"] == roots["c"] == q.u
        and roots["b"] == roots["d"] == q.v
        and q.u != q.v
    )
    with capsys.disabled():
        report("criterion-06 quadruple decompositions", ok, t0,
               f"u={q.u.cycles()}, v={q.v.cycles()}")


def test_criterion_07_local_isomorphism(capsys):
    t0 = time.perf_counter()
    results = {radius: find_min_n_local_iso(radius, 4) for radius in (1, 2, 3)}
    oracle = dict(zip((1, 2, 3), least_levels(3, 4)))
    ok = results == oracle and None not in results.values()
    with capsys.disabled():
        report("criterion-07 local isomorphism", ok, t0, f"min n per radius {results}")


def test_criterion_08_ball_bookkeeping(capsys, ball_s2_r10):
    t0 = time.perf_counter()
    sizes = {
        "S:1": ball_sizes(make_S(1), 10),
        "S:2": ball_s2_r10.sizes,
        "tilde": ball_sizes(make_tilde(), 10),
    }
    ok = all(check_submultiplicative(s) for s in sizes.values())
    for name, gs in (("S:1", make_S(1)), ("S:2", make_S(2)), ("tilde", make_tilde())):
        ok = ok and sizes[name][:7] == pairwise_ball_sizes(gs, 6)
    with capsys.disabled():
        report("criterion-08 ball bookkeeping", ok, t0,
               f"sizes at R=10: { {k: v[-1] for k, v in sizes.items()} }")


def _grid_scan_bound(lam: float, points: int = 10**5) -> float:
    """Independent oracle: minimize max(lam^(1-eta), g(eta)) on a grid, then
    refine around the argmin with a second grid of the same size."""
    log30 = np.log(30.0)

    def values(etas):
        log_g = etas * log30 - etas * np.log(etas) - (1 - etas) * np.log1p(-etas)
        return np.maximum(lam ** (1.0 - etas), np.exp(log_g))

    lo, hi = 1e-9, 1.0 - 1e-9
    for _ in range(3):
        etas = np.linspace(lo, hi, points)
        vals = values(etas)
        i = int(np.argmin(vals))
        step = (hi - lo) / (points - 1)
        lo = max(1e-12, etas[i] - step)
        hi = min(1.0 - 1e-12, etas[i] + step)
    return float(vals[i])


def test_criterion_09_bound_solver(capsys):
    t0 = time.perf_counter()
    seq = lambda_sequence(500)
    ok = (
        seq[0].lambda_n == 2.0
        and all(1.0 < s.lambda_next < s.lambda_n for s in seq)
        and max(s.residual for s in seq) <= 1e-12
        and 0.08 < seq[0].eta_n < 0.10
        and 1.85 < seq[0].lambda_next < 1.90
        and any(s.lambda_next < 1.05 for s in seq)
    )
    deviations = {}
    for lam in (1.5, 2.0, 4.0):
        dev = abs(eval_growth_bound(lam) - _grid_scan_bound(lam))
        deviations[lam] = dev
        ok = ok and dev <= 1e-6
    with capsys.disabled():
        report("criterion-09 bound solver", ok, t0,
               f"eta1={seq[0].eta_n:.5f}, lambda2={seq[0].lambda_next:.5f}, "
               f"grid deviations={ {k: f'{v:.1e}' for k, v in deviations.items()} }")


def test_criterion_10_geodesic_pattern_bound(capsys, ball_s2_r10):
    t0 = time.perf_counter()
    ok = True
    tightest = None
    for eta in (0.1, 0.2, 0.3):
        for row in geodesic_delta_stats(ball_s2_r10, eta):
            ok = ok and row["within_bound"]
            margin = row["bound"] - row["count_below"]
            if tightest is None or margin < tightest[0]:
                tightest = (margin, eta, row["n"])
    with capsys.disabled():
        report("criterion-10 geodesic pattern bound", ok, t0,
               f"tightest margin {tightest[0]:.0f} at eta={tightest[1]}, "
               f"n={tightest[2]}")


def test_criterion_11_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    from wilson.cli import main

    outputs = []
    for i in range(3):
        path = tmp_path / f"run{i}.json"
        code = main(["verify-all", "-o", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    with capsys.disabled():
        report("criterion-11 deterministic output", ok, t0,
               f"{len(outputs[0])} bytes per run")
