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

Each kind has one constructor, which checks its fields (integers through
as_int), and one row in the builder table, which names the roles it plays:
eta, eta1 (also eta2), eta3, natural (theta, a dyadic gamma's inner) or
gamma.  A wrapper's constructor checks the role of its inner, the config
loader that of space.modulus, schedule.theta and schedule.gamma.

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
that is never too high.  For an affine theta over a Constant or Tabulated
lambda it needs no loop up to n_max: past lambda's table both sides are
affine in n up to theta's ceiling, which one integer inequality settles, or
else a scan of one period of that ceiling.  verify_gamma decides its
tail sum exactly, for every n, from alpha_tail's closed form: no witness
check touches a float.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .report import CheckReport

# numpy is imported inside the functions that make arrays, so that a process
# that makes none, such as `rate`, never loads it.
if TYPE_CHECKING:
    import numpy as np

# The tolerance of every float check in the library: the mapping domain and
# approximate-fixed-point checks, and the verification samplers.
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

# Descriptor roles, what a kind can stand for (see _DESCRIPTOR_BUILDERS).
ROLE_ETA = "eta"
ROLE_ETA1 = "eta1"          # eta1 and eta2, (r, k) -> natural
ROLE_ETA3 = "eta3"
ROLE_NATURAL = "natural"    # theta, the inner of a dyadic gamma
ROLE_GAMMA = "gamma"

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
    """Coerce int, float, str 'p/q', or Fraction (not a bool) to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise DescriptorError(f"zero denominator in {value!r}") from None
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DescriptorError(f"non-finite value {value!r}")
        return Fraction(value)
    raise DescriptorError(f"cannot interpret {value!r} as a rational")


def as_int(value, name: str, minimum: int | None = None) -> int:
    """The integer field name: an int (no bool, float or str), >= minimum."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DescriptorError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise DescriptorError(f"{name} must be >= {minimum}, got {value}")
    return value


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
    return _desc(ETA_QUADRATIC, denominator=as_int(denominator, "denominator", 1))


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
    return _desc(ETA1_AFFINE, a=as_int(a, "a", 0), b=as_int(b, "b", 0))


def eta3_k_plus_ceil() -> ModulusDescriptor:
    """eta3(q, k) = k + ceil(q) on positive rationals q."""
    return _desc(ETA3_K_PLUS_CEIL)


def eta3_affine(a: int, b: int) -> ModulusDescriptor:
    """eta3(q, k) = a*k + b, independent of q."""
    return _desc(ETA3_AFFINE, a=as_int(a, "a", 0), b=as_int(b, "b", 0))


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
    return _desc(GAMMA_DYADIC_SHIFT, c=as_int(c, "c"))


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
    return _desc(GAMMA_FROM_DYADIC, inner=require_role(dyadic, ROLE_NATURAL))


def gamma_shifted(inner: ModulusDescriptor, shift: int) -> ModulusDescriptor:
    """gamma(delta) = max(0, inner(delta) + shift).  Used for fault injection."""
    return _desc(GAMMA_SHIFTED, inner=require_role(inner, ROLE_GAMMA),
                 shift=as_int(shift, "shift"))


def omega_affine(slope: int, shift: int) -> ModulusDescriptor:
    """n -> slope*n + shift on naturals, clamped at 0: a natural -> natural
    affine map, e.g. the inner form of a dyadic gamma."""
    return _desc(OMEGA_AFFINE, slope=as_int(slope, "slope"), shift=as_int(shift, "shift"))


def tabulated(points: Iterable[tuple[int, int]]) -> ModulusDescriptor:
    """A table k -> v of naturals, defined at its arguments k only."""
    pts = tuple(sorted((as_int(k, "table argument"), as_int(v, "table value", 0))
                       for k, v in points))
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
    return eta1_from_eta(eta)


def eta1_from_eta(eta: ModulusDescriptor) -> ModulusDescriptor:
    """eta1(r, k) = ceil(-log2 eta(r, 2^-k)) as a wrapper, unsimplified."""
    return _desc(ETA1_FROM_ETA, inner=require_role(eta, ROLE_ETA))


def eta1_to_eta(eta1: ModulusDescriptor) -> ModulusDescriptor:
    """eta(r, eps) = 2^(-eta1(r, max(0, ceil(-log2 eps)))).

    The clamp keeps the dyadic precision index a natural when eps > 1; the
    resulting modulus is pointwise smaller, hence still valid.
    """
    return _desc(ETA_FROM_ETA1, inner=require_role(eta1, ROLE_ETA1))


def eta2_to_eta1(eta2: ModulusDescriptor) -> ModulusDescriptor:
    """eta1(r, k) = eta2(r, k + 1)."""
    if eta2.kind == ETA1_AFFINE:
        a, b = eta2.param("a"), eta2.param("b")
        return eta1_affine(a, a + b)
    if eta2.kind == TABULATED:
        pts = [(k - 1, v) for k, v in eta2.param("points") if k >= 1]
        return tabulated(pts)
    return eta1_shift(eta2, 1)


def eta1_shift(eta2: ModulusDescriptor, shift: int) -> ModulusDescriptor:
    """eta1(r, k) = eta2(r, k + shift) as a wrapper, unsimplified."""
    return _desc(ETA1_SHIFT, inner=require_role(eta2, ROLE_ETA1),
                 shift=as_int(shift, "shift", 0))


def eta3_to_eta2(eta3: ModulusDescriptor) -> ModulusDescriptor:
    """eta2(r, k) = eta3(q_r, k) where q_r is the exact rational value of r.

    Machine radii are dyadic rationals, so the evaluation is exact; for the
    shipped eta3 forms it is bounded by eta3(ceil(r), k) by monotonicity.
    """
    return _desc(ETA2_FROM_ETA3, inner=require_role(eta3, ROLE_ETA3))


# ---------------------------------------------------------------------------
# evaluation

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


# 1 + 8u for u = 2^-53: lifts a float formula that errs by a few u at most
# (EtaHilbert's by about 4.3u) above the correctly rounded value.
_ROUND_UP = 1.0 + 2.0 ** -50


def eval_eta_array(desc: ModulusDescriptor, r: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """eta at each (r[i], eps[i]) as floats, for r > 0 and eps in (0, 2]
    with eps^2 in the normal float range: never below eval_eta_lower
    rounded to the nearest float, and at most a few ulp above.  The closed
    forms are evaluated in floats and rounded up; the forms built on eta1
    take eval_eta1_array."""
    import numpy as np
    if desc.kind == ETA_QUADRATIC:
        return eps * eps / desc.param("denominator") * _ROUND_UP
    if desc.kind == ETA_HILBERT:
        # u / (1 + sqrt(1 - u)) for u = eps^2/4, with 1 - u = (2 - eps)(2 + eps)/4,
        # which keeps its relative error small as eps nears 2
        root = np.sqrt((2.0 - eps) * (2.0 + eps) * 0.25)
        return eps * eps * 0.25 / (1.0 + root) * _ROUND_UP
    if desc.kind == ETA_CONSTANT:
        return np.full(np.shape(eps), float(desc.param("value")))
    if desc.kind == ETA_FROM_ETA1:
        # ceil(-log2 eps) = 1 - e for eps = f 2^e, f in [1/2, 1)
        k = np.maximum(0, 1 - np.frexp(eps)[1])
        return 2.0 ** -eval_eta1_array(desc.param("inner"), r, k)
    raise DescriptorError(f"{desc.kind!r} is not an eta descriptor")


def eval_eta1_array(desc: ModulusDescriptor, r: np.ndarray, k: np.ndarray) -> np.ndarray:
    """eval_eta1 at each (r[i], k[i]), as floats.  Of all kinds only
    Eta3KPlusCeil reads r; a kind with no closed form here ignores r, and
    eval_eta1 is called once per distinct k."""
    import numpy as np
    if desc.kind == ETA1_SHIFT:
        return eval_eta1_array(desc.param("inner"), r, k + desc.param("shift"))
    if desc.kind == ETA2_FROM_ETA3 and desc.param("inner").kind == ETA3_K_PLUS_CEIL:
        return k + np.ceil(r)
    if desc.kind == ETA1_FROM_ETA and desc.param("inner").kind == ETA_FROM_ETA1:
        # eta(r, 2^-k) = 2^-eta1'(r, k), so eta1 = max(0, eta1'(r, k))
        return np.maximum(0.0, eval_eta1_array(desc.param("inner").param("inner"), r, k))
    # a table over 0..max(k), filled at the k present (np.unique would page
    # in about 1.5 MB of numpy's code)
    present = np.flatnonzero(np.bincount(k))
    table = np.zeros(present[-1] + 1)
    table[present] = [eval_eta1(desc, 1.0, int(j)) for j in present]
    return table[k]


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
    """Evaluate a natural -> natural descriptor (theta, OmegaAffine, tables)."""
    if n < 0:
        raise DescriptorDomainError("argument must be a natural")
    return _nat_fn(desc)(n)


def nat_values(desc: ModulusDescriptor, n_max: int) -> list[int]:
    """eval_nat at n = 0 .. n_max, with the descriptor's parameters read once."""
    return list(map(_nat_fn(desc), range(n_max + 1)))


def _affine_parts(desc: ModulusDescriptor) -> tuple[int, int, int] | None:
    """(step, base, d) with desc(n) = max(0, ceil((step n + base) / d)) for
    ThetaLinear and OmegaAffine; None for any other kind."""
    if desc.kind == THETA_LINEAR:
        # ceil((p/q) n + r/s) = ceil((p s n + r q) / (q s))
        a, b = desc.param("a"), desc.param("b")
        return (a.numerator * b.denominator, b.numerator * a.denominator,
                a.denominator * b.denominator)
    if desc.kind == OMEGA_AFFINE:
        return desc.param("slope"), desc.param("shift"), 1
    return None


def _nat_fn(desc: ModulusDescriptor) -> Callable[[int], int]:
    if (affine := _affine_parts(desc)) is not None:
        step, base, den = affine
        return lambda n: max(0, -(-(step * n + base) // den))
    if desc.kind == TABULATED:
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
        while geometric_exceeds([(tail, q)], delta, hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if geometric_exceeds([(tail, q)], delta, mid) else (lo, mid)
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


def geometric_exceeds(terms: Sequence[tuple[Fraction, Fraction]], bound: Fraction,
                      n: int) -> bool:
    """Whether f(n) > bound, f(n) the sum of c q^n over the (c, q) of terms,
    c of either sign and 0 < q <= 1, where f is nonincreasing in n and
    positive wherever f(0) is (as one term with c >= 0, or alpha_tail's).
    An outward-rounded enclosure of each q^n 2^bits, from O(log n) products
    of about bits bits, settles it unless f(n) and bound differ by at most
    2^-127 over their common denominator, as at an exact tie.  Then it
    evaluates f(2^i) exactly for 2^i <= n: one at or below bound settles it,
    and if none is, n is below twice the least m with f(m) <= bound, so the
    exact f(n) costs numbers that grow with that m, never with n alone."""
    # in integers: f(m) den = the sum of a q^m, with a = c den, against b = bound den
    den = math.lcm(bound.denominator, *(c.denominator for c, _ in terms))
    ints = [(c.numerator * (den // c.denominator), q.numerator, q.denominator)
            for c, q in terms]
    b = bound.numerator * (den // bound.denominator)
    top = sum(a for a, _, _ in ints)        # f(0) den, and f(n) <= f(0)
    if top <= b or b <= 0:
        return top > b                      # for bound <= 0: f(n) > 0 iff f(0) > 0
    # every rounded product adds at most one unit 2^-bits, so a power stays
    # within 2 n units of q^n 2^bits: 2^-127 at most for these bits
    bits = 128 + sum(abs(a) for a, _, _ in ints).bit_length() + n.bit_length()

    def enclosure(lower: bool) -> int:     # f(n) den 2^bits, rounded down or up
        return sum(a * _pow_bound(p, d, n, bits, (a > 0) != lower) for a, p, d in ints)
    if enclosure(True) > b << bits:
        return True
    if enclosure(False) <= b << bits:
        return False
    k = 1
    while k <= n and sum(c * q**k for c, q in terms) > bound:
        k *= 2
    return k > n and sum(c * q**n for c, q in terms) > bound


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
    if any(v > bound for v in head[n0:]) or geometric_exceeds([(a, r)], bound, m):
        raise ScheduleError(
            f"s_n <= 1 - 1/L fails for n >= N0: sup s_n = {sup_s} > {bound}"
        )
    try:
        require_role(schedule.theta, ROLE_NATURAL, "theta")
        require_role(schedule.gamma, ROLE_GAMMA, "gamma")
    except DescriptorError as exc:
        raise ScheduleError(str(exc)) from None


def alpha_tail(schedule: Schedule
               ) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]] | None]:
    """(head, terms): A(m) = sum_{k >= m} s_k (1 - lambda_k) is sum(head[m:])
    plus the sum of c q^j over the (c, q) of terms, each q < 1, for
    j = max(0, m - len(head)); terms is None when A diverges.  Past both
    tables of seq_parts s_k = e r^j and lambda_k = l u^j, so the terms are
    e r^j - e l (r u)^j, two geometric series, or e (1 - l) r^j if u = 1."""
    def at(parts, k):
        head, a, r = parts
        return head[k] if k < len(head) else a * r ** (k - len(head))
    s, lam = seq_parts(schedule.s_seq), seq_parts(schedule.lambda_seq)
    h = max(len(s[0]), len(lam[0]))
    head = [at(s, k) * (1 - at(lam, k)) for k in range(h)]
    (e, r), (l, u) = (at(s, h), s[2]), (at(lam, h), lam[2])
    terms = [(e * (1 - l), r)] if u == 1 else [(e, r), (-e * l, r * u)]
    if r == 1 and terms[0][0] > 0:          # terms that tend to e (1 - l) or e
        return head, None
    return head, [(c / (1 - q), q) for c, q in terms if c]


# ---------------------------------------------------------------------------
# witness verification, in integers and Fractions

def verify_theta(schedule: Schedule, n_max: int = 10_000) -> CheckReport:
    """Check S(theta(n)) >= n for n <= n_max, S(t) = sum_{k=0..t}
    lambda_k (1 - lambda_k), and report the least n that fails.  It checks
    n = 0, 1, ... with seq_mass, up to that n or to _theta_scan_end, past
    which no n <= n_max can be the least to fail: for an affine theta over a
    Constant or Tabulated lambda, that bound is closed-form and takes no loop
    up to n_max.  The check is exact for Constant and Tabulated lambda; for
    Geometric lambda it never passes a witness that misses, and fails one
    that clears n by less than about 2^-100.  Only a Tabulated theta is
    listed in full, which takes memory O(n_max)."""
    report = CheckReport("theta-witness")
    if n_max < 1:
        raise DescriptorDomainError("n_max must be >= 1")
    theta = schedule.theta
    try:
        # a table may miss an argument, which fails the check as a whole
        theta_at = (nat_values(theta, n_max).__getitem__ if theta.kind == TABULATED
                    else _nat_fn(theta))
    except (DescriptorError, DescriptorDomainError) as exc:
        report.fail({"error": str(exc)}, 0.0, 0.0, 0.0)
        return report
    mass = seq_mass(schedule.lambda_seq)
    report.samples = n_max + 1
    for n in range(_theta_scan_end(theta, schedule.lambda_seq, mass, n_max) + 1):
        t = theta_at(n)
        num, den = mass(t)
        if num < n * den:
            report.fail({"n": n, "theta_n": t}, num / den, float(n), 0.0)
            break
    return report


def _theta_scan_end(theta: ModulusDescriptor, lambda_seq: ModulusDescriptor,
                    mass: Callable[[int], tuple[int, int]], n_max: int) -> int:
    """The last n that verify_theta checks term by term: the least n <= n_max
    with S(theta(n)) < n, if there is one, lies at or below it.

    n_max unless theta(n) = max(0, ceil((step n + base) / d)) (_affine_parts)
    and lambda has r = 1 in seq_parts, so that den S(t) = P_L + (t + 1 - h) T
    for t >= h - 1, with h = len(head), P_L = den S(h - 1) and
    T = den a (1 - a).  From n_h, the least n with theta(n) >= max(0, h - 1),
        d (den S(theta(n)) - n den) = A n + C + T r_n,
    A = step T - d den,  C = d P_L + base T + (1 - h) T d,
    r_n = -(step n + base) mod d, which repeats with period d / g,
    g = gcd(step, d), and reaches its least value rho = -base mod g in every
    period.  For A < 0 this settles nothing.  For A >= 0 each class of n
    modulo d / g is nondecreasing: if A n_h + C + T rho >= 0 no n >= n_h
    fails, else the least n >= n_h that fails lies in n_h .. n_h + d/g - 1.
    Below n_h, S(theta(n)) <= max(1, h - 1) / 4, so the term-by-term check
    fails there within about h / 4 steps."""
    head, _, r = seq_parts(lambda_seq)
    affine = _affine_parts(theta)
    if affine is None or r != 1:
        return n_max
    step, base, d = affine
    h = len(head)
    p_l, den = mass(h - 1)
    t_mass = mass(h)[0] - p_l
    slope = step * t_mass - d * den
    if slope < 0:
        return n_max
    # slope >= 0 puts step > 0: theta(n) >= m from
    # n = ceil(((m - 1) d + 1 - base) / step) on
    n_h = max(0, -((base - 1 - (max(0, h - 1) - 1) * d) // step))
    c = d * p_l + base * t_mass + (1 - h) * t_mass * d
    g = math.gcd(step, d)
    if slope * n_h + c + t_mass * (-base % g) >= 0:
        return min(n_h, n_max + 1) - 1
    return min(n_max, n_h + d // g - 1)


def verify_gamma(schedule: Schedule, deltas: Sequence) -> CheckReport:
    """Check alpha_{gamma(delta)+n} - alpha_{gamma(delta)} <= delta for every
    n, one sample per delta (alpha_n = partial sums of s_k (1 - lambda_k)):
    exactly, as A(gamma(delta) + 1) <= delta for alpha_tail's A."""
    report = CheckReport("gamma-witness")
    try:
        deltas = [as_fraction(d) for d in deltas]
        gammas = [eval_gamma(schedule.gamma, d) for d in deltas]
    except (DescriptorError, DescriptorDomainError) as exc:
        report.fail({"error": str(exc)}, 0.0, 0.0, 0.0)
        return report
    head, terms = alpha_tail(schedule)
    report.samples = len(gammas)
    for delta, g in zip(deltas, gammas):
        m = g + 1
        part, j = sum(head[m:]), max(0, m - len(head))
        if terms is None or geometric_exceeds(terms, delta - part, j):
            tail = math.inf if terms is None else part + sum(c * q**j for c, q in terms)
            report.fail({"delta": float(delta), "gamma": g}, float(tail), float(delta), 0.0)
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


# kind -> (builder, fields, roles).  The builder takes the fields in order
# and checks them; a field "inner" names a nested descriptor, whose role the
# builder checks too.
_DESCRIPTOR_BUILDERS = {
    ETA_QUADRATIC: (eta_quadratic, ("denominator",), (ROLE_ETA,)),
    ETA_HILBERT: (eta_hilbert, (), (ROLE_ETA,)),
    ETA_CONSTANT: (eta_constant, ("value",), (ROLE_ETA,)),
    ETA_FROM_ETA1: (eta1_to_eta, ("inner",), (ROLE_ETA,)),
    ETA1_AFFINE: (eta1_affine, ("a", "b"), (ROLE_ETA1,)),
    ETA1_FROM_ETA: (eta1_from_eta, ("inner",), (ROLE_ETA1,)),
    ETA1_SHIFT: (eta1_shift, ("inner", "shift"), (ROLE_ETA1,)),
    ETA2_FROM_ETA3: (eta3_to_eta2, ("inner",), (ROLE_ETA1,)),
    ETA3_K_PLUS_CEIL: (eta3_k_plus_ceil, (), (ROLE_ETA3,)),
    ETA3_AFFINE: (eta3_affine, ("a", "b"), (ROLE_ETA3,)),
    THETA_LINEAR: (theta_linear, ("a", "b"), (ROLE_NATURAL,)),
    OMEGA_AFFINE: (omega_affine, ("slope", "shift"), (ROLE_NATURAL,)),
    TABULATED: (tabulated, ("points",), (ROLE_ETA1, ROLE_ETA3, ROLE_NATURAL)),
    GAMMA_ZERO: (gamma_zero, (), (ROLE_GAMMA,)),
    GAMMA_DYADIC_SHIFT: (gamma_dyadic_shift, ("c",), (ROLE_GAMMA,)),
    GAMMA_GEOMETRIC_TAIL: (gamma_geometric_tail, ("c", "q", "lambda_min"), (ROLE_GAMMA,)),
    GAMMA_FROM_DYADIC: (gamma_from_dyadic, ("inner",), (ROLE_GAMMA,)),
    GAMMA_SHIFTED: (gamma_shifted, ("inner", "shift"), (ROLE_GAMMA,)),
}

# Separate from the modulus table, as "Tabulated" names a kind of both;
# kind -> (builder, fields).
_SEQUENCE_BUILDERS = {
    SEQ_CONSTANT: (seq_constant, ("value",)),
    SEQ_GEOMETRIC: (seq_geometric, ("c", "q")),
    SEQ_TABULATED: (seq_tabulated, ("values", "tail")),
}


def require_role(desc, role: str, what: str = "inner") -> ModulusDescriptor:
    """desc, once checked to be a modulus of a kind that plays role (by its
    fields, a table is no Tabulated sequence)."""
    row = _DESCRIPTOR_BUILDERS.get(getattr(desc, "kind", None))
    # next(zip(*params), ()) is the tuple of the field names
    if row is None or role not in row[2] or next(zip(*desc.params), ()) != row[1]:
        raise DescriptorError(f"{what} {getattr(desc, 'kind', desc)!r} "
                              f"does not play the role {role!r}")
    return desc


def _from_dict(data, builders: dict, what: str) -> ModulusDescriptor:
    if not isinstance(data, dict) or not isinstance(data.get("kind"), str):
        raise DescriptorError(f"{what} must be a dict with a string 'kind' tag")
    kind = data["kind"]
    if kind not in builders:
        raise DescriptorError(f"unknown {what} kind {kind!r}")
    builder, fields = builders[kind][:2]
    if set(data) != {"kind", *fields}:
        raise DescriptorError(f"{kind}: fields {sorted(set(data) - {'kind'})}, "
                              f"expected {list(fields)}")
    try:
        return builder(*[descriptor_from_dict(data[name]) if name == "inner" else data[name]
                         for name in fields])
    except DescriptorError as exc:
        raise DescriptorError(f"{kind}: {exc}") from None


def descriptor_from_dict(data: dict, role: str | None = None) -> ModulusDescriptor:
    """The modulus descriptor of a config dict, checked to play role if one
    is given."""
    desc = _from_dict(data, _DESCRIPTOR_BUILDERS, "descriptor")
    return desc if role is None else require_role(desc, role, "kind")


def sequence_from_dict(data: dict) -> ModulusDescriptor:
    return _from_dict(data, _SEQUENCE_BUILDERS, "sequence")
