"""Oracles and fixture builders that only the tests use."""

import math
from fractions import Fraction

import asymreg as ar
from asymreg import moduli
from asymreg.moduli import as_fraction, seq_parts


def eval_eta(desc, r: float, eps: float) -> float:
    """eta(r, eps) of an eta-family descriptor, as the float nearest
    eval_eta_lower."""
    return float(ar.eval_eta_lower(desc, r, as_fraction(eps)))


def seq_value(seq, n: int) -> Fraction:
    """Term n of an averaging sequence, exactly."""
    head, a, r = seq_parts(seq)
    return head[n] if n < len(head) else a * r ** (n - len(head))


def tail_sum(schedule, m: int):
    """A(m) = sum_{k >= m} s_k (1 - lambda_k) exactly, or math.inf when it
    diverges: term by term up to the end of both tables, then a closed form
    for each pair of tail kinds, s_k = v or c q^k and lambda_k = w or d u^k."""
    s, lam = schedule.s_seq, schedule.lambda_seq
    start = max([m, *(len(x.param("values")) for x in (s, lam) if x.kind == "Tabulated")])
    head = sum(seq_value(s, k) * (1 - seq_value(lam, k)) for k in range(m, start))

    def tail(seq):
        if seq.kind == "Geometric":
            return seq.param("c"), seq.param("q")
        return seq.param("value" if seq.kind == "Constant" else "tail"), None
    (v, q), (w, u) = tail(s), tail(lam)
    if q is None:                       # s_k = v: each term is v (1 - lambda_k)
        return head if v == 0 or (u is None and w == 1) else math.inf
    if u is None:
        return head + v * (1 - w) * q**start / (1 - q)
    return head + v * q**start / (1 - q) - v * w * (q * u)**start / (1 - q * u)


def partial_mass(lam, t: int) -> Fraction:
    """S(t) = sum_{k=0..t} lambda_k (1 - lambda_k) exactly: term by term over
    a table, then a closed form for a constant tail w or for c q^k."""
    if lam.kind == "Geometric":
        c, q = lam.param("c"), lam.param("q")
        u = q ** (t + 1)
        return c * (1 - u) / (1 - q) - c * c * (1 - u * u) / (1 - q * q)
    head = lam.param("values") if lam.kind == "Tabulated" else ()
    w = lam.param("tail" if lam.kind == "Tabulated" else "value")
    return sum(v * (1 - v) for v in head[:t + 1]) + max(0, t + 1 - len(head)) * w * (1 - w)


def theta_for_constant_lambda(lam):
    """Divergence witness for lambda_n = lam constant: theta(n) =
    ceil(n / (lam (1 - lam))).  Then (theta(n) + 1) lam (1 - lam) >= n
    holds exactly in rational arithmetic."""
    lam = as_fraction(lam)
    return ar.theta_linear(1 / (lam * (1 - lam)), 0)


def gamma_for_geometric_s(c, q, lambda_seq):
    """Cauchy modulus for s_n = c q^n: the tail past index N of
    sum s_n (1 - lambda_n) is at most c (1 - lambda_min) q^(N+1) / (1 - q),
    so gamma(delta) is the least N making that bound <= delta."""
    head, a, r = seq_parts(lambda_seq)
    lambda_min = min((*head, a if r == 1 else Fraction(0)))
    return ar.gamma_geometric_tail(as_fraction(c), as_fraction(q), lambda_min)


def verify_theta_loop(schedule, n_max: int) -> ar.CheckReport:
    """The theta check as a plain loop over every n <= n_max: the oracle of
    moduli.verify_theta, which decides every n."""
    report = ar.CheckReport("theta-witness")
    try:
        thetas = [ar.eval_nat(schedule.theta, n) for n in range(n_max + 1)]
    except (ar.DescriptorError, ar.DescriptorDomainError) as exc:
        report.fail({"error": str(exc)}, 0.0, 0.0, 0.0)
        return report
    mass = moduli.seq_mass(schedule.lambda_seq)
    report.samples = n_max + 1
    for n, t in enumerate(thetas):
        num, den = mass(t)
        if num < n * den:
            report.fail({"n": n, "theta_n": t}, num / den, float(n), 0.0)
            break
    return report
