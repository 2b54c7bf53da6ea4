"""Certified rates of asymptotic regularity for the two-stage averaged
iteration of a nonexpansive map with approximate fixed points.

Given a target eps, a uniform-convexity modulus eta, a bound b on the
distance from the start to the (approximate) fixed points, the divergence
witness theta for lambda_n (1 - lambda_n), the pair (L, N0) with
s_n <= 1 - 1/L for n >= N0, and the Cauchy modulus gamma of the partial sums
of s_n (1 - lambda_n), the rate

    phi = theta(P + gamma0 + 1 + N0),
    P = ceil( L (b+1) / (eps * eta(b+1, eps / (L (b+1)))) ),
    gamma0 = gamma(eps / (8 b)),

guarantees d(x_n, T x_n) < eps for every n >= phi, and

    delta(k) = theta(P + k + N0)

guarantees some N in [k, delta(k)] with d(x_N, T x_N) < eps.

The quotient defining P is evaluated in exact rational arithmetic on a
rational never above eta (moduli.eval_eta_lower), so P never rounds down,
for every modulus.  _CERTIFICATES lists the certificates: the shortcut
eps > 2b, then these rates.  verification.certify, its one reader, applies
the first that applies to a config, and adds the step cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .moduli import (
    DescriptorDomainError,
    DescriptorError,
    ModulusDescriptor,
    Schedule,
    as_fraction,
    ceil_frac,
    eval_eta_lower,
    eval_gamma,
    eval_nat,
)


class RateError(ValueError):
    pass


class EtaDomainError(RateError):
    """eps / (L (b+1)) fell outside (0, 2]; route through epsilon_shortcut."""


@dataclass(frozen=True)
class RateInputs:
    eps: float
    eta: ModulusDescriptor
    b: float
    N0: int
    L: int
    theta: ModulusDescriptor
    gamma: ModulusDescriptor

    def __post_init__(self):
        if not self.eps > 0:
            raise RateError("eps must be positive")
        if not self.b > 0:
            raise RateError("b must be positive")
        if self.L < 1:
            raise RateError("L must be >= 1")
        if self.N0 < 0:
            raise RateError("N0 must be a natural")


def inputs_for(eps: float, eta: ModulusDescriptor, b: float,
               schedule: Schedule) -> RateInputs:
    return RateInputs(eps=float(eps), eta=eta, b=float(b),
                      N0=schedule.N0, L=schedule.L,
                      theta=schedule.theta, gamma=schedule.gamma)


@dataclass
class RateReport:
    """The certified rates for one eps, as a row of _CERTIFICATES gives them:
    the indices, delta(k) or the RateError of each k, and a note.  certify
    adds the row's name, the eps, the step cap and the end of the soundness
    window [phi, window_end]; those stay out of the JSON."""

    INDICES = ("P", "gamma0", "phi")   # the index fields, in print order
    P: int
    gamma0: int
    phi: int
    deltas: dict[int, int] = field(default_factory=dict)
    empirical_first_hit: int | None = None
    tightness_ratio: float | None = None
    eps: float | None = None
    step_cap: int | None = None
    window_end: int | None = None
    note: str | None = None
    delta_errors: dict[int, RateError] = field(default_factory=dict)
    certificate: str | None = None

    def indices(self) -> dict[str, int]:
        return {key: getattr(self, key) for key in self.INDICES}

    def to_json_dict(self) -> dict:
        return {
            **self.indices(),
            "deltas": {str(k): v for k, v in sorted(self.deltas.items())},
            "empirical_first_hit": self.empirical_first_hit,
            "tightness_ratio": self.tightness_ratio,
        }


def evaluated(field_name: str, fn, *args):
    """fn(*args), with a descriptor evaluated outside its domain (or
    malformed) raised as a RateError that names the config field."""
    try:
        return fn(*args)
    except (DescriptorError, DescriptorDomainError) as exc:
        raise RateError(f"{field_name}: {exc}") from exc


def epsilon_shortcut(inputs: RateInputs, ks=()) -> RateReport | None:
    """All residuals are capped by 2b, so eps > 2b is witnessed at every
    index: phi = 0 and delta(k) = k.  None when eps <= 2b."""
    if inputs.eps > 2.0 * inputs.b:
        return RateReport(P=0, gamma0=0, phi=0, deltas={k: k for k in ks},
                          note="eps exceeds the residual cap 2b")
    return None


def _eta_argument(inputs: RateInputs) -> Fraction:
    eps = as_fraction(inputs.eps)
    b = as_fraction(inputs.b)
    arg = eps / (inputs.L * (b + 1))
    if arg > 2:     # then eps > 2 L (b+1) > 2b
        raise EtaDomainError(
            "eps / (L (b+1)) > 2 with eps > 2b; use epsilon_shortcut")
    return arg


def compute_p(inputs: RateInputs) -> int:
    """P = ceil( L (b+1) / (eps * eta(b+1, eps / (L (b+1)))) )."""
    arg = _eta_argument(inputs)
    eps = as_fraction(inputs.eps)
    b1 = as_fraction(inputs.b) + 1
    eta = evaluated("space.modulus", eval_eta_lower, inputs.eta, b1, arg)
    if eta <= 0:
        raise RateError("eta evaluated to a nonpositive value")
    return ceil_frac(inputs.L * b1 / (eps * eta))


def compute_gamma0(inputs: RateInputs) -> int:
    """gamma0 = gamma(eps / (8 b)), evaluated at the exact rational."""
    delta = as_fraction(inputs.eps) / (8 * as_fraction(inputs.b))
    return evaluated("schedule.gamma", eval_gamma, inputs.gamma, delta)


def compute_phi(inputs: RateInputs, ks=()) -> RateReport:
    """The rate phi = theta(P + gamma0 + 1 + N0), and compute_delta from the
    same P for each k in ks, or the RateError it raised.  Reads nothing but
    its arguments, so configs sharing them get bit-identical reports."""
    p = compute_p(inputs)
    gamma0 = compute_gamma0(inputs)
    phi = evaluated("schedule.theta", eval_nat, inputs.theta, p + gamma0 + 1 + inputs.N0)
    rr = RateReport(P=p, gamma0=gamma0, phi=phi)
    for k in ks:
        try:
            rr.deltas[k] = compute_delta(inputs, k, p)
        except RateError as exc:
            rr.delta_errors[k] = exc
    return rr


def compute_delta(inputs: RateInputs, k: int, p: int) -> int:
    """delta = theta(P + k + N0), for p = compute_p(inputs): some index in
    [k, delta] has residual below eps."""
    if k < 0:
        raise RateError("k must be a natural")
    delta = evaluated("schedule.theta", eval_nat, inputs.theta, p + k + inputs.N0)
    if delta < k:
        raise RateError(f"theta({p + k + inputs.N0}) = {delta} < k = {k}; "
                        "theta is not a divergence witness")
    return delta


# certificate -> (the hypotheses H1-H6 of the paper's theorem it rests on,
# its rates).  The rates function of (RateInputs, ks), ks the naturals k to
# bound delta(k) for, gives a RateReport, or None where the certificate does
# not apply.  certify takes the first row that applies; paper always does.
_CERTIFICATES = {
    "shortcut": (("H2", "H3"), epsilon_shortcut),
    "paper": (("H1", "H2", "H3", "H4", "H5", "H6"), compute_phi),
}
