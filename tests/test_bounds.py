import math
import random

import pytest
from hypothesis import given, strategies as st

from wilson.bounds import (
    ETA_HI,
    ETA_LO,
    LAMBDA_MIN,
    MAX_BISECTIONS,
    RESIDUAL_TOL,
    EtaStep,
    curve_rows,
    eval_growth_bound,
    g_eta,
    lambda_sequence,
    log_g_eta,
    solve_crossing,
)


def test_g_eta_values():
    assert g_eta(0.5) == pytest.approx(2.0 * math.sqrt(30.0), rel=1e-14)
    assert log_g_eta(0.5) == pytest.approx(math.log(2.0 * math.sqrt(30.0)), rel=1e-14)
    with pytest.raises(ValueError):
        g_eta(0.0)
    with pytest.raises(ValueError):
        g_eta(1.0)


def test_g_eta_monotone_below_cap():
    samples = [0.01 * k for k in range(1, 97)]
    vals = [g_eta(s) for s in samples if s < ETA_HI]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_solve_crossing_for_two():
    step = solve_crossing(2.0)
    assert 0.08 < step.eta_n < 0.10
    assert 1.85 < step.lambda_next < 1.90
    assert step.residual <= RESIDUAL_TOL
    # the crossing equation holds at the root
    assert step.lambda_next == pytest.approx(g_eta(step.eta_n), abs=1e-10)


def test_solve_crossing_rejects_bad_lambda():
    with pytest.raises(ValueError):
        solve_crossing(1.0)
    with pytest.raises(ValueError):
        solve_crossing(40.0)


def test_lambda_below_the_least_bracketable_is_rejected():
    """Below LAMBDA_MIN (about 1 + 3.2e-11) the crossing lies under ETA_LO:
    ``solve_crossing`` rejects lambda as a usage error naming LAMBDA_MIN, and
    ``eval_growth_bound`` returns 1."""
    assert 1.0 + 3.1e-11 < LAMBDA_MIN < 1.0 + 3.3e-11
    for lam in (1.0 + 2e-11, math.nextafter(LAMBDA_MIN, 1.0)):
        with pytest.raises(ValueError, match=rf"lambda must lie in \[{LAMBDA_MIN!r}, 31\]"):
            solve_crossing(lam)
        assert eval_growth_bound(lam) == 1.0
    for lam in (LAMBDA_MIN, 1.0 + 4e-11):
        step = solve_crossing(lam)
        assert ETA_LO < step.eta_n < 2 * ETA_LO and 1.0 < step.lambda_next <= lam
        assert step.residual <= RESIDUAL_TOL
        assert eval_growth_bound(lam) == step.lambda_next


def test_nan_lambda_is_rejected():
    with pytest.raises(ValueError, match="got nan"):
        solve_crossing(math.nan)
    with pytest.raises(ValueError, match="got nan"):
        eval_growth_bound(math.nan)


def solve_crossing_reference(lam, n):
    """The bisection of ``solve_crossing`` with its inner function built on
    ``log_g_eta``, for inputs that pass its checks."""
    log_lam = math.log(lam)

    def h(eta):
        return log_g_eta(eta) - (1.0 - eta) * log_lam

    lo, hi = ETA_LO, ETA_HI
    for _ in range(MAX_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    eta = 0.5 * (lo + hi)
    lambda_next = lam ** (1.0 - eta)
    return EtaStep(n, lam, eta, lambda_next, abs(lambda_next - g_eta(eta)))


def test_solve_crossing_is_bit_identical_to_reference():
    for step in lambda_sequence(200):
        assert step == solve_crossing_reference(step.lambda_n, step.n)
    rng = random.Random(30)
    lams = [2.0, 31.0, 1.0 + 1e-9] + [rng.uniform(1.0, 31.0) for _ in range(50)]
    for lam in lams:
        assert solve_crossing(lam) == solve_crossing_reference(lam, 0)


@given(st.floats(min_value=1.0 + 1e-9, max_value=31.0))
def test_residual_stays_within_float_floor(lam):
    # the residual is rounding error: over 27,000 sampled lambdas in (1, 31]
    # it stayed within 6 ulps of lambda
    assert solve_crossing(lam).residual <= 16 * math.ulp(lam)


def test_lambda_sequence():
    steps = lambda_sequence(200)
    assert steps[0].lambda_n == 2.0
    lams = [s.lambda_n for s in steps] + [steps[-1].lambda_next]
    assert all(a > b for a, b in zip(lams, lams[1:]))
    assert all(1.0 < lam <= 2.0 for lam in lams)
    assert max(s.residual for s in steps) <= RESIDUAL_TOL
    # the first step whose output drops below 1.05 is step 168
    first = next(s.n for s in steps if s.lambda_next < 1.05)
    assert first == 168


def test_eval_growth_bound():
    assert eval_growth_bound(1.0) == 1.0
    assert eval_growth_bound(1.0 + 1e-13) == 1.0
    assert eval_growth_bound(2.0) == pytest.approx(solve_crossing(2.0).lambda_next)


@given(st.floats(min_value=1.01, max_value=30.0))
def test_bound_is_strict_improvement(lam):
    val = eval_growth_bound(lam)
    assert 1.0 < val < lam


def test_curve_rows():
    rows = curve_rows(2.0)
    assert len(rows) == 99
    assert rows[0][0] == 0.01
    eta, decay, growth = rows[49]
    assert eta == 0.5
    assert decay == pytest.approx(2.0**0.5)
    assert growth == pytest.approx(g_eta(0.5))
