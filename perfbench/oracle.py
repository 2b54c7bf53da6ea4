"""Exact references for the certified rates, computed without the program.

P = ceil( L (b+1) / (eps * eta(b+1, eps / (L (b+1)))) ),
gamma0 = gamma(eps / (8 b)),  phi = theta(P + gamma0 + 1 + N0),
delta(k) = theta(P + k + N0).

Rational moduli are evaluated in Fraction arithmetic on the exact values of
the float inputs.  EtaHilbert, 1 - sqrt(1 - eps^2/4), is evaluated with
mpmath at 256 bits.  Descriptors are the plain dicts the config files hold.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

HILBERT_BITS = 256
# A P above the exact ceiling is sound; the EtaHilbert float path may land
# there by its rounding error, which stays below this share of P for the
# eps values the benchmark uses (eps >= 1e-3).
HILBERT_P_SLACK = 1e-6


def theta(desc: dict, n: int) -> int:
    """ThetaLinear: ceil(a n + b)."""
    if desc["kind"] != "ThetaLinear":
        raise ValueError(f"no reference for theta kind {desc['kind']!r}")
    value = Fraction(desc["a"]) * n + Fraction(desc["b"])
    return max(0, math.ceil(value))


def _ceil_neg_log2(q: Fraction) -> int:
    """Least integer m with 2^-m <= q, for q = n/d > 0."""
    n, d = q.numerator, q.denominator

    def holds(m: int) -> bool:  # 2^-m <= n/d, i.e. d <= n 2^m
        return d <= (n << m) if m >= 0 else (d << -m) <= n

    m = d.bit_length() - n.bit_length()
    while holds(m - 1):
        m -= 1
    while not holds(m):
        m += 1
    return m


def gamma(desc: dict, delta: Fraction) -> int:
    kind = desc["kind"]
    if kind == "GammaZero":
        return 0
    if kind == "GammaDyadicShift":
        return max(0, max(0, _ceil_neg_log2(delta)) + int(desc["c"]))
    if kind == "GammaGeometricTail":
        # least N with c (1 - lambda_min) q^(N+1) / (1 - q) <= delta
        c, q, lam = Fraction(desc["c"]), Fraction(desc["q"]), Fraction(desc["lambda_min"])
        n = 0
        while c * (1 - lam) * q ** (n + 1) / (1 - q) > delta:
            n += 1
        return n
    raise ValueError(f"no reference for gamma kind {kind!r}")


def p_bounds(eta: dict, eps: float, b: float, L: int) -> tuple[int, int]:
    """(exact ceiling, largest accepted P).  Equal for rational moduli."""
    e, b1 = Fraction(eps), Fraction(b) + 1
    arg = e / (L * b1)
    if eta["kind"] == "EtaQuadratic":
        value = arg * arg / int(eta["denominator"])
        p = math.ceil(L * b1 / (e * value))
        return p, p
    if eta["kind"] == "EtaHilbert":
        with mpmath.workprec(HILBERT_BITS):
            a = mpmath.mpf(arg.numerator) / arg.denominator
            value = 1 - mpmath.sqrt(1 - a * a / 4)
            quotient = (L * mpmath.mpf(b1.numerator) / b1.denominator) / (
                mpmath.mpf(e.numerator) / e.denominator * value)
            p = int(mpmath.ceil(quotient))
        return p, p + math.ceil(p * HILBERT_P_SLACK)
    raise ValueError(f"no reference for eta kind {eta['kind']!r}")


def rates(eta: dict, schedule: dict, eps: float, b: float, ks=()) -> dict:
    """Reference P range, gamma0, phi and delta(k) for one eps."""
    p_lo, p_hi = p_bounds(eta, eps, b, schedule["L"])
    g0 = gamma(schedule["gamma"], Fraction(eps) / (8 * Fraction(b)))
    n0 = schedule["N0"]
    th = schedule["theta"]
    return {
        "P": p_lo, "P_max": p_hi, "gamma0": g0,
        "phi": theta(th, p_lo + g0 + 1 + n0),
        "deltas": {k: theta(th, p_lo + k + n0) for k in ks},
    }


def phi_for(schedule: dict, p: int, gamma0: int) -> int:
    return theta(schedule["theta"], p + gamma0 + 1 + schedule["N0"])


def delta_for(schedule: dict, p: int, k: int) -> int:
    return theta(schedule["theta"], p + k + schedule["N0"])
