"""Serializable witness descriptors and the iteration schedule they certify.

Every modulus used by the rate machinery is a closed-form descriptor (a
tagged record) rather than an opaque callable, so experiment configurations
round-trip through files.  The families:

- eta(r, eps): uniform-convexity modulus of a space model, valued in (0, 1],
  nonincreasing in the radius r, defined for eps in (0, 2].
- eta1(r, k), eta2(r, k), eta3(q, k): dyadic counterparts of eta (the
  precision eps = 2^-k), natural-valued, with conversions between all shapes.
- theta(n): rate of divergence witness for sum lambda_k (1 - lambda_k),
  meaning sum_{k=0..theta(n)} lambda_k (1 - lambda_k) >= n.
- gamma(delta): Cauchy modulus for the partial sums alpha_n of
  s_k (1 - lambda_k), meaning alpha_{gamma(delta)+n} - alpha_{gamma(delta)}
  <= delta for every n.
- omega(n): majorization modulus of a self-map T at a base point x,
  d(x, y) <= n implies d(x, Ty) <= omega(n).

The averaging sequences lambda_n and s_n are descriptors of the same
record type, with their own kinds: Constant, Geometric c q^n, or Tabulated
values followed by a constant tail.  seq_parts, the one place that tells
the kinds apart, reads each as (head, a, r): a table, then a r^j for the
j-th term past it, with r = 1 or an empty head; every reader works on that.

Constructors for theta and gamma work in exact rational arithmetic via
fractions.Fraction.  Every eta form evaluates to a rational never above
eta (eval_eta_lower): exactly for the rational closed forms, and for
EtaHilbert through an integer square root rounded up, so a bound built on
it never rounds down.  verify_theta checks its defining inequality in
integer arithmetic, exactly or (for geometric lambda) through a lower bound
that is never too high; floats only enter in verify_gamma, which samples
its windows with a 1e-9 slack.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .report import CheckReport

# The tolerance of every float check in the library: witness windows here,
# the mapping domain and witness checks, and the verification samplers.
SLACK = 1e-9

# Descriptor kinds.  The strings double as the tags used in config files.
ETA_QUADRATIC = "EtaQuadratic"
ETA_HILBERT = "EtaHilbert"
ETA_CONSTANT = "EtaConstant"
ETA_FROM_ETA1 = "EtaFromEta1"
ETA1_FROM_ETA = "Eta1FromEta"
ETA1_AFFINE = "Eta1Affine"
ETA1_SHIFT = "Eta1Shift"
ETA2_FROM_ETA3 = "Eta2FromEta3"
ETA3_K_PLUS_CEIL = "Eta3KPlusCeil"
ETA3_AFFINE = "Eta3Affine"
THETA_LINEAR = "ThetaLinear"
GAMMA_ZERO = "GammaZero"
GAMMA_DYADIC_SHIFT = "GammaDyadicShift"
GAMMA_GEOMETRIC_TAIL = "GammaGeometricTail"
GAMMA_FROM_DYADIC = "GammaFromDyadic"
GAMMA_SHIFTED = "GammaShifted"
OMEGA_AFFINE = "OmegaAffine"
TABULATED = "Tabulated"

SEQ_CONSTANT = "Constant"
SEQ_GEOMETRIC = "Geometric"
SEQ_TABULATED = "Tabulated"


class DescriptorError(ValueError):
    """Malformed descriptor or a parameter outside its admissible range."""


class DescriptorDomainError(ValueError):
    """Descriptor evaluated outside its domain."""


class ScheduleError(ValueError):
    """Schedule violates one of its structural hypotheses."""


def as_fraction(value) -> Fraction:
    """Coerce int, float, str 'p/q', or Fraction to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise DescriptorError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DescriptorError(f"non-finite value {value!r}")
        return Fraction(value)
    raise DescriptorError(f"cannot interpret {value!r} as a rational")


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _pow2_ge(m: int, num: int, den: int) -> bool:
    # 2**m >= num/den, exact integer comparison
    if m >= 0:
        return (den << m) >= num
    return den >= (num << (-m))


def ceil_log2_frac(num: int, den: int) -> int:
    """Smallest integer m with 2**m >= num/den (num, den positive)."""
    if num <= 0 or den <= 0:
        raise DescriptorError("ceil_log2_frac needs a positive rational")
    m = num.bit_length() - den.bit_length()
    while _pow2_ge(m - 1, num, den):
        m -= 1
    while not _pow2_ge(m, num, den):
        m += 1
    return m


def ceil_neg_log2(q: Fraction) -> int:
    """Smallest integer m with 2**-m <= q, i.e. ceil(-log2 q)."""
    q = as_fraction(q)
    if q <= 0:
        raise DescriptorDomainError("ceil_neg_log2 needs a positive argument")
    return ceil_log2_frac(q.denominator, q.numerator)


@dataclass(frozen=True)
class ModulusDescriptor:
    """Tagged closed form of a modulus or an averaging sequence; params is
    an ordered tuple of (name, value)."""

    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def param(self, name: str):
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


def _desc(kind: str, **params) -> ModulusDescriptor:
    return ModulusDescriptor(kind, tuple(params.items()))


# ---------------------------------------------------------------------------
# descriptor constructors

def eta_quadratic(denominator: int = 8) -> ModulusDescriptor:
    """eta(r, eps) = eps^2 / denominator, independent of r."""
    denominator = int(denominator)
    if denominator <= 0:
        raise DescriptorError("denominator must be positive")
    return _desc(ETA_QUADRATIC, denominator=denominator)


def eta_hilbert() -> ModulusDescriptor:
    """eta(r, eps) = 1 - sqrt(1 - eps^2/4), the inner-product-space modulus."""
    return _desc(ETA_HILBERT)


def eta_constant(value) -> ModulusDescriptor:
    value = as_fraction(value)
    if not 0 < value <= 1:
        raise DescriptorError("constant eta must lie in (0, 1]")
    return _desc(ETA_CONSTANT, value=value)


def eta1_affine(a: int, b: int) -> ModulusDescriptor:
    """eta1(r, k) = a*k + b, independent of r."""
    a, b = int(a), int(b)
    if a < 0 or b < 0:
        raise DescriptorError("eta1 coefficients must be naturals")
    return _desc(ETA1_AFFINE, a=a, b=b)


def eta3_k_plus_ceil() -> ModulusDescriptor:
    """eta3(q, k) = k + ceil(q) on positive rationals q."""
    return _desc(ETA3_K_PLUS_CEIL)


def eta3_affine(a: int, b: int) -> ModulusDescriptor:
    """eta3(q, k) = a*k + b, independent of q."""
    return _desc(ETA3_AFFINE, a=int(a), b=int(b))


def theta_linear(a, b=0) -> ModulusDescriptor:
    """theta(n) = ceil(a*n + b) with rational a, b >= 0."""
    a, b = as_fraction(a), as_fraction(b)
    if a < 0 or b < 0:
        raise DescriptorError("theta coefficients must be nonnegative")
    return _desc(THETA_LINEAR, a=a, b=b)


def gamma_zero() -> ModulusDescriptor:
    return _desc(GAMMA_ZERO)


def gamma_dyadic_shift(c: int) -> ModulusDescriptor:
    """gamma(delta) = max(0, max(0, ceil(-log2 delta)) + c)."""
    return _desc(GAMMA_DYADIC_SHIFT, c=int(c))


def gamma_geometric_tail(c, q, lambda_min) -> ModulusDescriptor:
    c, q, lambda_min = as_fraction(c), as_fraction(q), as_fraction(lambda_min)
    if not 0 < q < 1:
        raise DescriptorError("geometric ratio q must lie in (0, 1)")
    if c < 0 or not 0 <= lambda_min <= 1:
        raise DescriptorError("need c >= 0 and lambda_min in [0, 1]")
    return _desc(GAMMA_GEOMETRIC_TAIL, c=c, q=q, lambda_min=lambda_min)


def gamma_from_dyadic(dyadic: ModulusDescriptor) -> ModulusDescriptor:
    """Adapt a dyadic modulus p -> gamma_d(p) to real arguments:
    gamma(delta) = gamma_d(max(0, ceil(-log2 delta)))."""
    return _desc(GAMMA_FROM_DYADIC, inner=dyadic)


def gamma_shifted(inner: ModulusDescriptor, shift: int) -> ModulusDescriptor:
    """gamma(delta) = max(0, inner(delta) + shift).  Used for fault injection."""
    return _desc(GAMMA_SHIFTED, inner=inner, shift=int(shift))


def omega_affine(slope: int, shift: int) -> ModulusDescriptor:
    """omega(n) = slope*n + shift on naturals (also serves as a generic
    natural -> natural affine map, e.g. the inner form of a dyadic gamma)."""
    return _desc(OMEGA_AFFINE, slope=int(slope), shift=int(shift))


def tabulated(points: Iterable[tuple[int, int]]) -> ModulusDescriptor:
    pts = tuple(sorted((int(k), int(v)) for k, v in points))
    if len({k for k, _ in pts}) != len(pts):
        raise DescriptorError("tabulated arguments must be distinct")
    return _desc(TABULATED, points=pts)


# ---------------------------------------------------------------------------
# conversions between the eta shapes

def eta_to_eta1(eta: ModulusDescriptor) -> ModulusDescriptor:
    """eta1(r, k) = ceil(-log2 eta(r, 2^-k)).

    Simplifies eagerly for the closed forms whose dyadic evaluation is exact.
    """
    if eta.kind == ETA_QUADRATIC:
        # eta(r, 2^-k) = 2^(-2k) / den, so eta1 = 2k + ceil(log2 den)
        den = eta.param("denominator")
        return eta1_affine(2, ceil_log2_frac(den, 1))
    if eta.kind == ETA_CONSTANT:
        return eta1_affine(0, max(0, ceil_neg_log2(eta.param("value"))))
    return _desc(ETA1_FROM_ETA, inner=eta)


def eta1_to_eta(eta1: ModulusDescriptor) -> ModulusDescriptor:
    """eta(r, eps) = 2^(-eta1(r, max(0, ceil(-log2 eps)))).

    The clamp keeps the dyadic precision index a natural when eps > 1; the
    resulting modulus is pointwise smaller, hence still valid.
    """
    return _desc(ETA_FROM_ETA1, inner=eta1)


def eta2_to_eta1(eta2: ModulusDescriptor) -> ModulusDescriptor:
    """eta1(r, k) = eta2(r, k + 1)."""
    if eta2.kind == ETA1_AFFINE:
        a, b = eta2.param("a"), eta2.param("b")
        return eta1_affine(a, a + b)
    if eta2.kind == TABULATED:
        pts = [(k - 1, v) for k, v in eta2.param("points") if k >= 1]
        return tabulated(pts)
    return _desc(ETA1_SHIFT, inner=eta2, shift=1)


def eta3_to_eta2(eta3: ModulusDescriptor) -> ModulusDescriptor:
    """eta2(r, k) = eta3(q_r, k) where q_r is the exact rational value of r.

    Machine radii are dyadic rationals, so the evaluation is exact; for the
    shipped eta3 forms it is bounded by eta3(ceil(r), k) by monotonicity.
    """
    return _desc(ETA2_FROM_ETA3, inner=eta3)


# ---------------------------------------------------------------------------
# theta / gamma / omega constructors

def theta_for_constant_lambda(lam) -> ModulusDescriptor:
    """Divergence witness for lambda_n = lam constant: theta(n) =
    ceil(n / (lam (1 - lam))).  Then (theta(n) + 1) lam (1 - lam) >= n
    holds exactly in rational arithmetic."""
    lam = as_fraction(lam)
    if not 0 < lam < 1:
        raise DescriptorError("constant lambda must lie strictly in (0, 1)")
    return theta_linear(1 / (lam * (1 - lam)), 0)


def gamma_for_geometric_s(c, q, lambda_seq: ModulusDescriptor) -> ModulusDescriptor:
    """Cauchy modulus for s_n = c q^n: the tail past index N of
    sum s_n (1 - lambda_n) is at most c (1 - lambda_min) q^(N+1) / (1 - q),
    so gamma(delta) is the least N making that bound <= delta."""
    c, q = as_fraction(c), as_fraction(q)
    if c == 0:
        return gamma_zero()
    if not 0 < q < 1:
        raise DescriptorError("geometric ratio q must lie in (0, 1)")
    if c < 0 or c > 1:
        raise DescriptorError("need s_0 = c in [0, 1]")
    return gamma_geometric_tail(c, q, sequence_lower_bound(lambda_seq))


def omega_for_nonexpansive(b: int) -> ModulusDescriptor:
    """d(x, Tx) <= b and T nonexpansive give d(x, Ty) <= n + b."""
    if b < 0:
        raise DescriptorError("b must be a nonnegative natural")
    return omega_affine(1, int(b))


def omega_for_lipschitz(lstar: int, b: int) -> ModulusDescriptor:
    """T Lipschitz with constant at most L* and d(x, Tx) <= b:
    omega(n) = n + L* b."""
    if lstar < 1 or b < 0:
        raise DescriptorError("need L* >= 1 and b >= 0")
    return omega_affine(1, int(lstar) * int(b))


def omega_for_uniformly_continuous(alpha_t: ModulusDescriptor, b: int) -> ModulusDescriptor:
    """T uniformly continuous with modulus alpha_T (dyadic: d(x,y) <= 2^-alpha_T(k)
    gives d(Tx,Ty) <= 2^-k) and d(x, Tx) <= b: omega(n) = n 2^alpha_T(0) + 1 + b."""
    if b < 0:
        raise DescriptorError("b must be a nonnegative natural")
    slope = 2 ** eval_nat(alpha_t, 0)
    return omega_affine(slope, 1 + int(b))


def omega_for_bounded_space(diameter) -> ModulusDescriptor:
    """Bounded space: omega(n) = ceil(diameter), constant."""
    d = as_fraction(diameter)
    if d < 0:
        raise DescriptorError("diameter must be nonnegative")
    return omega_affine(0, ceil_frac(d))


# ---------------------------------------------------------------------------
# evaluation

def eval_eta(desc: ModulusDescriptor, r: float, eps: float) -> float:
    """Evaluate an eta-family descriptor at radius r > 0 and eps in (0, 2]:
    eval_eta_lower rounded to the nearest float.

    Returns the raw closed-form value; codomain validity is the harness's
    concern (deliberately broken moduli are used for fault injection)."""
    if not r > 0:
        raise DescriptorDomainError("radius r must be positive")
    if not 0 < eps <= 2:
        raise DescriptorDomainError("eps must lie in (0, 2]")
    return float(eval_eta_lower(desc, r, as_fraction(eps)))


def eval_eta_lower(desc: ModulusDescriptor, r, eps: Fraction) -> Fraction:
    """A rational never above eta(r, eps), for a radius r (a float or a
    rational) and a rational eps.  It is the exact value for the
    rational closed forms.  For EtaHilbert it is u / (1 + s), with
    u = eps^2/4 = p / q and s >= sqrt(1 - u) an integer square root rounded
    up at 128 bits more than q; so it falls short of
    1 - sqrt(1 - u) = u / (1 + sqrt(1 - u)) by a relative 2^-128 at most."""
    if desc.kind == ETA_QUADRATIC:
        return eps * eps / desc.param("denominator")
    if desc.kind == ETA_HILBERT:
        p, q = eps.numerator ** 2, 4 * eps.denominator ** 2     # u = p / q
        bits = 128 + q.bit_length()
        scaled = ((q - p) * q) << 2 * bits        # (1 - u) (q 2^bits)^2
        root = math.isqrt(scaled)
        root += root * root < scaled              # s = root / (q 2^bits)
        return Fraction(p << bits, (q << bits) + root)
    if desc.kind == ETA_CONSTANT:
        return desc.param("value")
    if desc.kind == ETA_FROM_ETA1:
        k = max(0, ceil_neg_log2(eps))
        m = eval_eta1(desc.param("inner"), float(r), k)
        return Fraction(1, 2 ** m)
    raise DescriptorError(f"{desc.kind!r} is not an eta descriptor")


def eval_eta1(desc: ModulusDescriptor, r: float, k: int) -> int:
    """Evaluate an eta1/eta2-family descriptor at radius r and precision k."""
    if k < 0:
        raise DescriptorDomainError("precision index k must be a natural")
    if desc.kind == ETA1_AFFINE:
        return desc.param("a") * k + desc.param("b")
    if desc.kind == TABULATED:
        return _table_fn(desc)(k)
    if desc.kind == ETA1_SHIFT:
        return eval_eta1(desc.param("inner"), r, k + desc.param("shift"))
    if desc.kind == ETA2_FROM_ETA3:
        return eval_eta3(desc.param("inner"), as_fraction(r), k)
    if desc.kind == ETA1_FROM_ETA:
        eta = eval_eta_lower(desc.param("inner"), r, Fraction(1, 2 ** k))
        return max(0, ceil_neg_log2(eta))
    raise DescriptorError(f"{desc.kind!r} is not an eta1 descriptor")


def eval_eta3(desc: ModulusDescriptor, q: Fraction, k: int) -> int:
    if q <= 0:
        raise DescriptorDomainError("eta3 takes a positive rational radius")
    if desc.kind == ETA3_K_PLUS_CEIL:
        return k + ceil_frac(as_fraction(q))
    if desc.kind == ETA3_AFFINE:
        return desc.param("a") * k + desc.param("b")
    if desc.kind == TABULATED:
        return _table_fn(desc)(k)
    raise DescriptorError(f"{desc.kind!r} is not an eta3 descriptor")


def eval_nat(desc: ModulusDescriptor, n: int) -> int:
    """Evaluate a natural -> natural descriptor (theta, omega, tables)."""
    if n < 0:
        raise DescriptorDomainError("argument must be a natural")
    return _nat_fn(desc)(n)


def nat_values(desc: ModulusDescriptor, n_max: int) -> list[int]:
    """eval_nat at n = 0 .. n_max, with the descriptor's parameters read once."""
    return list(map(_nat_fn(desc), range(n_max + 1)))


def _nat_fn(desc: ModulusDescriptor) -> Callable[[int], int]:
    if desc.kind == THETA_LINEAR:
        # ceil((p/q) n + r/s) = ceil((p s n + r q) / (q s))
        a, b = desc.param("a"), desc.param("b")
        step, base = a.numerator * b.denominator, b.numerator * a.denominator
        den = a.denominator * b.denominator
        return lambda n: max(0, -(-(step * n + base) // den))
    if desc.kind == OMEGA_AFFINE:
        slope, shift = desc.param("slope"), desc.param("shift")
        return lambda n: max(0, slope * n + shift)
    if desc.kind == TABULATED:
        if any(v < 0 for _, v in desc.param("points")):
            raise DescriptorDomainError("a natural-valued table holds a negative value")
        return _table_fn(desc)
    raise DescriptorError(f"{desc.kind!r} is not a natural-valued descriptor")


def eval_gamma(desc: ModulusDescriptor, delta) -> int:
    """Evaluate a gamma-family descriptor at precision delta > 0."""
    delta = as_fraction(delta)
    if delta <= 0:
        raise DescriptorDomainError("delta must be positive")
    if desc.kind == GAMMA_ZERO:
        return 0
    if desc.kind == GAMMA_DYADIC_SHIFT:
        return max(0, max(0, ceil_neg_log2(delta)) + desc.param("c"))
    if desc.kind == GAMMA_FROM_DYADIC:
        return eval_nat(desc.param("inner"), max(0, ceil_neg_log2(delta)))
    if desc.kind == GAMMA_GEOMETRIC_TAIL:
        c, q = desc.param("c"), desc.param("q")
        tail = c * (1 - desc.param("lambda_min")) * q / (1 - q)  # tail past N=0
        # the least n with tail q^n <= delta, in (lo, hi]: geometric_exceeds
        # is monotone in n, so double hi past it, then bisect
        lo, hi = -1, 1
        while geometric_exceeds(tail, q, delta, hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if geometric_exceeds(tail, q, delta, mid) else (lo, mid)
        return hi
    if desc.kind == GAMMA_SHIFTED:
        return max(0, eval_gamma(desc.param("inner"), delta) + desc.param("shift"))
    raise DescriptorError(f"{desc.kind!r} is not a gamma descriptor")


def _table_fn(desc: ModulusDescriptor) -> Callable[[int], int]:
    table = dict(desc.param("points"))

    def lookup(arg: int) -> int:
        try:
            return table[arg]
        except KeyError:
            raise DescriptorDomainError(f"argument {arg} outside the table") from None
    return lookup


def declared_monotonicity(desc: ModulusDescriptor) -> dict[str, str]:
    """Monotonicity flags per argument, spot-checkable by sampling."""
    kind = desc.kind
    if kind in (ETA_QUADRATIC, ETA_HILBERT, ETA_CONSTANT, ETA_FROM_ETA1):
        return {"r": "nonincreasing", "eps": "nondecreasing"}
    if kind in (ETA1_AFFINE, ETA1_FROM_ETA, ETA1_SHIFT, ETA2_FROM_ETA3):
        return {"r": "nondecreasing", "k": "nondecreasing"}
    if kind in (ETA3_K_PLUS_CEIL, ETA3_AFFINE):
        return {"q": "nondecreasing", "k": "nondecreasing"}
    if kind == THETA_LINEAR:
        return {"n": "nondecreasing"}
    if kind in (GAMMA_ZERO, GAMMA_DYADIC_SHIFT, GAMMA_GEOMETRIC_TAIL,
                GAMMA_FROM_DYADIC, GAMMA_SHIFTED):
        return {"delta": "nonincreasing"}
    if kind == OMEGA_AFFINE:
        return {"n": "nondecreasing"}
    if kind == TABULATED:
        return {"n": "nondecreasing"}
    raise DescriptorError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# averaging sequences and the schedule

def seq_constant(value) -> ModulusDescriptor:
    value = as_fraction(value)
    if not 0 <= value <= 1:
        raise DescriptorError("sequence values must lie in [0, 1]")
    return _desc(SEQ_CONSTANT, value=value)


def seq_geometric(c, q) -> ModulusDescriptor:
    c, q = as_fraction(c), as_fraction(q)
    if not 0 <= c <= 1:
        raise DescriptorError("leading coefficient c must lie in [0, 1]")
    if not 0 < q < 1:
        raise DescriptorError("ratio q must lie in (0, 1)")
    return _desc(SEQ_GEOMETRIC, c=c, q=q)


def seq_tabulated(values: Sequence, tail) -> ModulusDescriptor:
    vals = tuple(as_fraction(v) for v in values)
    tail = as_fraction(tail)
    for v in list(vals) + [tail]:
        if not 0 <= v <= 1:
            raise DescriptorError("sequence values must lie in [0, 1]")
    return _desc(SEQ_TABULATED, values=vals, tail=tail)


def seq_parts(seq: ModulusDescriptor) -> tuple[tuple[Fraction, ...], Fraction, Fraction]:
    """The normal form (head, a, r) of an averaging sequence: term n is
    head[n] for n < len(head) and a r^(n - len(head)) from there on, with
    0 <= a <= 1, 0 < r <= 1, and r = 1 or an empty head.  A Constant is
    ((), value, 1), a Geometric ((), c, q) and a Tabulated (values, tail, 1)."""
    if seq.kind == SEQ_CONSTANT:
        return (), seq.param("value"), Fraction(1)
    if seq.kind == SEQ_GEOMETRIC:
        return (), seq.param("c"), seq.param("q")
    if seq.kind == SEQ_TABULATED:
        return seq.param("values"), seq.param("tail"), Fraction(1)
    raise DescriptorError(f"unknown sequence kind {seq.kind!r}")


def seq_value(seq: ModulusDescriptor, n: int) -> Fraction:
    if n < 0:
        raise DescriptorDomainError("sequence index must be a natural")
    head, a, r = seq_parts(seq)
    return head[n] if n < len(head) else a * r ** (n - len(head))


def sequence_lower_bound(seq: ModulusDescriptor) -> Fraction:
    """The infimum of the sequence: a tail a r^j with r < 1 tends to 0."""
    head, a, r = seq_parts(seq)
    return min((*head, a if r == 1 else Fraction(0)))


def seq_values_float(seq: ModulusDescriptor, count: int, start: int = 0) -> np.ndarray:
    """Terms start .. start+count-1 as float64, without exact big-denominator
    blowup: the table entries as floats, then float(a) * float(r)**j for
    the j-th tail term, which is float(a) itself when r = 1."""
    head, a, r = seq_parts(seq)
    table = [float(v) for v in head[start:start + count]]
    out = np.full(count, float(a))
    out[:len(table)] = table
    if r < 1:                   # for r = 1, np.power(1.0, j) would cost 20 ns a term
        first = max(start, len(head)) - len(head)
        j = np.arange(first, first + count - len(table), dtype=np.float64)
        with np.errstate(under="ignore"):
            out[len(table):] *= np.power(float(r), j)
    return out


def seq_float_plan(seq: ModulusDescriptor, limit: int) -> tuple[array, float, int]:
    """(head, tail, const_from), the floats an orbit runs on: the value at
    index n is head[n] for n < const_from and tail from there on.  head is
    the table as floats, then the running product v_{j+1} = v_j * r from
    v_0 = a, rounded at every step (so not a * r**j), up to the first v_j
    with v_j * r == v_j (r = 1, or a product that has underflowed to 0.0 or
    stuck at a subnormal) or to `limit` terms."""
    table, a, r = seq_parts(seq)
    head, v, q = array("d", map(float, table)), float(a), float(r)
    while len(head) < limit and v * q != v:
        head.append(v)
        v *= q
    return head, v, len(head)


def geometric_exceeds(c: Fraction, q: Fraction, bound: Fraction, n: int) -> bool:
    """Whether c q^n > bound, for 0 < q <= 1.  An outward-rounded enclosure
    lo <= q^n 2^bits <= hi, from O(log n) products of about bits bits,
    settles it unless c q^n and bound differ by at most 2^-127 over the
    product of their denominators, as at an exact tie.  Then it squares q
    until c q^(2^i) <= bound, which settles it if 2^i <= n, or until
    2^i > n, which puts n below twice the least m with c q^m <= bound: its
    numbers grow with that m, never with n alone."""
    if c <= bound or bound <= 0:
        return c > bound                    # for bound <= 0: c q^n > 0
    # c q^m <= bound  <=>  a p^m <= b d^m: integers, no gcd per product
    a, b = c.numerator * bound.denominator, c.denominator * bound.numerator
    p, d = q.numerator, q.denominator
    # every rounded product adds at most one unit 2^-bits, so lo and hi
    # stay within 2 n units of q^n 2^bits: 2^-127 / a at most for these bits
    bits = 128 + a.bit_length() + n.bit_length()
    scaled = b << bits
    if a * _pow_bound(p, d, n, bits, up=False) > scaled:
        return True
    if a * _pow_bound(p, d, n, bits, up=True) <= scaled:
        return False
    k, pk, dk = 1, p, d                     # q^k = pk / dk for k = 2^i
    while k <= n:
        if a * pk <= b * dk:
            return False
        k, pk, dk = 2 * k, pk * pk, dk * dk
    return a * p**n > b * d**n


def seq_mass(seq: ModulusDescriptor) -> Callable[[int], tuple[int, int]]:
    """t -> (num, den) with num / den <= S(t) = sum_{k=0..t} lambda_k (1 - lambda_k),
    for t >= -1.  Equal to S(t) when r = 1 in seq_parts.  For r < 1 a lower
    bound from an outward-rounded q^(t+1): it never exceeds S(t), and errs
    by about 2^-100 or less.  Neither its time nor its memory grows with t."""
    head, c, q = seq_parts(seq)
    if q == 1:
        # den S(t) = prefix[j] + (t + 1 - j) per_tail, j = min(t + 1, len(head))
        terms = [v * (1 - v) for v in head]
        tail_term = c * (1 - c)
        den = math.lcm(tail_term.denominator, *(x.denominator for x in terms))
        prefix = [int(x * den) for x in accumulate(terms, initial=Fraction(0))]
        last, per_tail = len(head), int(tail_term * den)

        def exact(t: int) -> tuple[int, int]:
            j = t + 1 if t < last else last
            return prefix[j] + (t + 1 - j) * per_tail, den
        return exact
    # The head is empty: lambda_k = c q^k.  S(t) = (a - b) - (a u - b u^2)
    # with u = q^(t+1), a = c / (1 - q), b = c^2 / (1 - q^2).  a u - b u^2
    # grows with u up to (1 + q) / (2 c), which is at least q + 1 / (2 d)
    # for q = p / d.  So an upper bound u <= hi / 2^bits <= q + 2^-bits
    # bounds S(t) from below.
    a, b = c / (1 - q), c * c / (1 - q * q)
    den = math.lcm(a.denominator, b.denominator)
    an, bn = int(a * den), int(b * den)
    p, d = q.numerator, q.denominator
    bits = 128 + 2 * d.bit_length() + math.ceil(a).bit_length()

    def lower(t: int) -> tuple[int, int]:
        hi = _pow_bound(p, d, t + 1, bits, up=True)
        num = ((an - bn) << 2 * bits) - ((an * hi) << bits) + bn * hi * hi
        return max(0, num), den << 2 * bits
    return lower


def _pow_bound(p: int, d: int, k: int, bits: int, up: bool) -> int:
    """For 0 <= p <= d, by squaring with every product rounded up: an integer
    hi >= (p/d)^k 2^bits, and hi <= ceil(p 2^bits / d) when k >= 1.  With
    up false, every product is rounded down: an integer lo <= (p/d)^k 2^bits."""
    carry = (1 << bits) - 1 if up else 0            # added before a shift, a ceil
    base, acc = ((p << bits) + (d - 1 if up else 0)) // d, 1 << bits
    while k > 0:
        if k & 1:
            acc = (acc * base + carry) >> bits
        base = (base * base + carry) >> bits
        k >>= 1
    return acc


@dataclass(frozen=True)
class Schedule:
    """The data certifying an iteration run: the averaging sequences
    lambda_n and s_n, the divergence witness theta for lambda, the pair
    (L, N0) bounding s away from 1, and the Cauchy modulus gamma for the
    partial sums of s_n (1 - lambda_n)."""

    lambda_seq: ModulusDescriptor
    s_seq: ModulusDescriptor
    theta: ModulusDescriptor
    L: int
    N0: int
    gamma: ModulusDescriptor

    def lambda_at(self, n: int) -> Fraction:
        return seq_value(self.lambda_seq, n)

    def s_at(self, n: int) -> Fraction:
        return seq_value(self.s_seq, n)

    def theta_at(self, n: int) -> int:
        return eval_nat(self.theta, n)

    def gamma_at(self, delta) -> int:
        return eval_gamma(self.gamma, delta)


def validate_schedule(schedule: Schedule) -> None:
    """Raise ScheduleError naming the violated hypothesis, if any."""
    if schedule.L < 1:
        raise ScheduleError("L must be >= 1")
    if schedule.N0 < 0:
        raise ScheduleError("N0 must be a natural")
    head, a, r = seq_parts(schedule.s_seq)
    n0, bound = schedule.N0, 1 - Fraction(1, schedule.L)
    # the tail a r^j is nonincreasing from j = m on, and for r < 1 its sup
    # a r^m is too big to build for a large N0
    m = max(0, n0 - len(head))
    sup_s = max((*head[n0:], a)) if r == 1 else f"{a} * ({r})^{m}"
    if any(v > bound for v in head[n0:]) or geometric_exceeds(a, r, bound, m):
        raise ScheduleError(
            f"s_n <= 1 - 1/L fails for n >= N0: sup s_n = {sup_s} > {bound}"
        )
    mono = declared_monotonicity(schedule.theta)
    if mono.get("n") != "nondecreasing":
        raise ScheduleError("theta must be nondecreasing")
    declared = declared_monotonicity(schedule.gamma)
    if declared.get("delta") != "nonincreasing":
        raise ScheduleError("gamma must be antitone in the precision")


def alpha_terms_float(schedule: Schedule, count: int, start: int = 0) -> np.ndarray:
    """s_k (1 - lambda_k) for k = start .. start+count-1, as float64."""
    lam = seq_values_float(schedule.lambda_seq, count, start)
    s = seq_values_float(schedule.s_seq, count, start)
    return s * (1.0 - lam)


# ---------------------------------------------------------------------------
# witness verification: theta in integers, gamma in floats with a 1e-9 slack

def verify_theta(schedule: Schedule, n_max: int = 10_000) -> CheckReport:
    """Check sum_{k=0..theta(n)} lambda_k (1 - lambda_k) >= n for n <= n_max
    with seq_mass, in memory O(n_max) whatever theta(n_max) is.  The check is
    exact for Constant and Tabulated lambda; for Geometric lambda it never
    passes a witness that misses, and fails one that clears n by less than
    about 2^-100."""
    report = CheckReport("theta-witness")
    if n_max < 1:
        raise DescriptorDomainError("n_max must be >= 1")
    try:
        thetas = nat_values(schedule.theta, n_max)
    except (DescriptorError, DescriptorDomainError) as exc:
        report.fail({"error": str(exc)}, 0.0, 0.0, 0.0)
        return report
    mass = seq_mass(schedule.lambda_seq)
    report.samples = n_max + 1
    for n, t in enumerate(thetas):
        num, den = mass(t)
        if num < n * den:
            report.fail({"n": n, "theta_n": t}, num / den, float(n), 0.0)
            break
    return report


def verify_gamma(schedule: Schedule, deltas: Sequence, n_max: int = 10_000) -> CheckReport:
    """Check alpha_{gamma(delta)+n} - alpha_{gamma(delta)} <= delta for
    n <= n_max over each requested delta (alpha_n = partial sums of
    s_k (1 - lambda_k))."""
    report = CheckReport("gamma-witness")
    if n_max < 1:
        raise DescriptorDomainError("n_max must be >= 1")
    try:
        gammas = [schedule.gamma_at(d) for d in deltas]
    except (DescriptorError, DescriptorDomainError) as exc:
        report.fail({"error": str(exc)}, 0.0, 0.0, SLACK)
        return report
    report.samples = len(gammas) * (n_max + 1)
    for delta, g in zip(deltas, gammas):
        # alpha_{g+n} - alpha_g sums the terms at g+1 .. g+n
        terms = alpha_terms_float(schedule, n_max + 1, start=g)
        terms[0] = 0.0
        window = np.cumsum(terms)
        worst = int(np.argmax(window))
        if window[worst] > float(delta) + SLACK:
            report.fail({"delta": float(delta), "gamma": g, "n": worst},
                        float(window[worst]), float(delta), SLACK)
    return report


# ---------------------------------------------------------------------------
# serialization to/from plain tagged dicts (the config file format)

def descriptor_to_dict(value):
    """The config file form of a descriptor, a sequence among them: a dict
    of its kind and params, with Fractions as strings and tuples as lists,
    recursively."""
    if isinstance(value, ModulusDescriptor):
        return {"kind": value.kind,
                **{key: descriptor_to_dict(v) for key, v in value.params}}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [descriptor_to_dict(v) for v in value]
    return value


# kind -> (builder, fields, nested).  A builder of None keeps the fields as
# ints, apart from the nested ones, which name descriptors.
_DESCRIPTOR_BUILDERS = {
    ETA_QUADRATIC: (eta_quadratic, ("denominator",), ()),
    ETA_HILBERT: (eta_hilbert, (), ()),
    ETA_CONSTANT: (eta_constant, ("value",), ()),
    ETA1_AFFINE: (eta1_affine, ("a", "b"), ()),
    ETA3_K_PLUS_CEIL: (eta3_k_plus_ceil, (), ()),
    ETA3_AFFINE: (eta3_affine, ("a", "b"), ()),
    THETA_LINEAR: (theta_linear, ("a", "b"), ()),
    GAMMA_ZERO: (gamma_zero, (), ()),
    GAMMA_DYADIC_SHIFT: (gamma_dyadic_shift, ("c",), ()),
    GAMMA_GEOMETRIC_TAIL: (gamma_geometric_tail, ("c", "q", "lambda_min"), ()),
    OMEGA_AFFINE: (omega_affine, ("slope", "shift"), ()),
    TABULATED: (tabulated, ("points",), ()),
    # wrapper kinds: fields naming nested descriptors
    ETA_FROM_ETA1: (None, ("inner",), ("inner",)),
    ETA1_FROM_ETA: (None, ("inner",), ("inner",)),
    ETA1_SHIFT: (None, ("inner", "shift"), ("inner",)),
    ETA2_FROM_ETA3: (None, ("inner",), ("inner",)),
    GAMMA_FROM_DYADIC: (None, ("inner",), ("inner",)),
    GAMMA_SHIFTED: (None, ("inner", "shift"), ("inner",)),
}

# Separate from the modulus table, as "Tabulated" names a kind of both.
_SEQUENCE_BUILDERS = {
    SEQ_CONSTANT: (seq_constant, ("value",), ()),
    SEQ_GEOMETRIC: (seq_geometric, ("c", "q"), ()),
    SEQ_TABULATED: (seq_tabulated, ("values", "tail"), ()),
}


def _from_dict(data, builders: dict, what: str) -> ModulusDescriptor:
    if not isinstance(data, dict) or not isinstance(data.get("kind"), str):
        raise DescriptorError(f"{what} must be a dict with a string 'kind' tag")
    kind = data["kind"]
    if kind not in builders:
        raise DescriptorError(f"unknown {what} kind {kind!r}")
    builder, fields, nested = builders[kind]
    extra = set(data) - {"kind"} - set(fields)
    if extra:
        raise DescriptorError(f"{kind}: unknown field(s) {sorted(extra)}")
    values = {}
    for name in fields:
        if name not in data:
            raise DescriptorError(f"{kind}: missing field {name!r}")
        raw = data[name]
        if name in nested:
            values[name] = descriptor_from_dict(raw)
        elif name == "points":
            values[name] = tuple((int(k), int(v)) for k, v in raw)
        else:
            values[name] = raw
    if builder is not None:
        return builder(**values)
    params = tuple((name, values[name] if name in nested else int(values[name]))
                   for name in fields)
    return ModulusDescriptor(kind, params)


def descriptor_from_dict(data: dict) -> ModulusDescriptor:
    return _from_dict(data, _DESCRIPTOR_BUILDERS, "descriptor")


def sequence_from_dict(data: dict) -> ModulusDescriptor:
    return _from_dict(data, _SEQUENCE_BUILDERS, "sequence")
