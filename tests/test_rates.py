import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import asymreg as ar
from asymreg.moduli import eval_eta_lower

from helpers import gamma_for_geometric_s

Q8 = ar.eta_quadratic()


def km_schedule():
    return ar.Schedule(ar.seq_constant(Fraction(1, 2)), ar.seq_constant(0),
                       ar.theta_linear(4), 1, 0, ar.gamma_zero())


def ishikawa_schedule():
    lam = ar.seq_constant(Fraction(1, 2))
    return ar.Schedule(lam, ar.seq_geometric(Fraction(1, 2), Fraction(1, 2)),
                       ar.theta_linear(4), 2, 0,
                       gamma_for_geometric_s(Fraction(1, 2), Fraction(1, 2), lam))


# ---------------------------------------------------------------------------
# the quotient P and the rate phi

def test_km_reference_case_exact():
    # eps = 1/2, b = 1, L = 1: eta argument is 1/4, eta = 1/128,
    # P = ceil(2 / (1/2 * 1/128)) = 512, phi = theta(513) = 2052.
    ri = ar.inputs_for(0.5, Q8, 1, km_schedule())
    rr = ar.compute_phi(ri)
    assert (rr.P, rr.gamma0, rr.phi) == (512, 0, 2052)
    assert ar.compute_delta(ri, 0, rr.P) == 2048
    assert ar.compute_delta(ri, 100, rr.P) == 2448


def test_km_grid_frozen():
    # P = ceil(64 / eps^3) for this schedule
    expect = {0.5: (512, 2052), 0.25: (4096, 16388),
              0.125: (32768, 131076), 0.0625: (262144, 1048580)}
    for eps, (p, phi) in expect.items():
        rr = ar.compute_phi(ar.inputs_for(eps, Q8, 1, km_schedule()))
        assert (rr.P, rr.gamma0, rr.phi) == (p, 0, phi)


def test_ishikawa_grid_frozen():
    # L = 2 doubles the eta argument denominator: P = ceil(512 / eps^3)
    expect = {0.5: (4096, 2, 16396), 0.25: (32768, 3, 131088),
              0.125: (262144, 4, 1048596), 0.0625: (2097152, 5, 8388632)}
    for eps, (p, g0, phi) in expect.items():
        rr = ar.compute_phi(ar.inputs_for(eps, Q8, 1, ishikawa_schedule()))
        assert (rr.P, rr.gamma0, rr.phi) == (p, g0, phi)


def test_small_eps_exact_rational_arithmetic():
    # 0.1 is not a dyadic float; the exact path must still give 64000
    ri = ar.inputs_for(0.1, Q8, 1, km_schedule())
    rr = ar.compute_phi(ri)
    assert (rr.P, rr.phi) == (64000, 256004)
    ri = ar.inputs_for(Fraction(1, 10), Q8, 1, km_schedule())
    assert ar.compute_p(ri) == 64000


def test_eps_two_boundary():
    ri = ar.inputs_for(2.0, Q8, 1, km_schedule())
    assert ar.compute_p(ri) == 8
    assert ar.compute_phi(ri).phi == 36


def hilbert_p_oracle(eps: float, b: float, L: int, bits: int = 400) -> int:
    """ceil(L (b+1) / (eps eta)) with eta = 1 - sqrt(1 - a^2/4) at the
    eta argument a = eps / (L (b+1)), in mpmath at `bits` bits."""
    e, b1 = Fraction(eps), Fraction(b) + 1
    with mpmath.workprec(bits):
        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator
        a = mp(e) / (L * mp(b1))
        eta = 1 - mpmath.sqrt(1 - a * a / 4)
        return int(mpmath.ceil(L * mp(b1) / (mp(e) * eta)))


def hilbert_inputs(eps, b=1.0, L=1):
    sched = km_schedule()
    return ar.RateInputs(eps=eps, eta=ar.eta_hilbert(), b=b, N0=0, L=L,
                         theta=sched.theta, gamma=sched.gamma)


def test_hilbert_modulus_p():
    # eta argument eps/(L(b+1)) = 1/4, eta = 1 - sqrt(1 - 1/64)
    assert ar.compute_p(hilbert_inputs(0.5)) == 510 == hilbert_p_oracle(0.5, 1.0, 1)


@pytest.mark.parametrize("b, p", [
    # eta(r, eps) = 2^-(k + ceil(r)), k = ceil(-log2 eps): for b just above 1,
    # r = b + 1 = 2 + 2^-52 has ceil(r) = 3, which r rounded to the float 2.0
    # turned into 2 (P = 129)
    (math.nextafter(1.0, 2.0), 257), (1.0, 64), (0.3, 42), (2.2, 820)])
def test_p_reads_the_radius_unrounded(b, p):
    eta = ar.eta1_to_eta(ar.eta3_to_eta2(ar.eta3_k_plus_ceil()))
    sched = km_schedule()
    ri = ar.RateInputs(eps=0.5, eta=eta, b=b, N0=0, L=1, theta=sched.theta, gamma=sched.gamma)
    assert ar.compute_p(ri) == p


@pytest.mark.parametrize("eps, p", [
    # the float form 1 - sqrt(1 - eps^2/4) cancelled: 22,538,901,891 here
    (0.0014160624357568707, 22_538_901_909),
    # 63,880,845,778,304,917,504 from the float form, 0.19 % low
    (1e-6, 63_999_999_999_999_008_689),
    # the float form evaluated eta to 0 and raised RateError
    (1e-8, 63_999_999_999_999_995_882_868_321),
])
def test_hilbert_p_is_the_exact_ceiling(eps, p):
    assert ar.compute_p(hilbert_inputs(eps)) == p == hilbert_p_oracle(eps, 1.0, 1)


@settings(max_examples=300)
@given(st.floats(1e-12, 4.0), st.floats(1e-3, 1e3), st.integers(1, 1000))
def test_hilbert_p_never_rounds_down(eps, b, L):
    assume(eps <= 2 * L * (b + 1))     # the eta argument lies in (0, 2]
    p = ar.compute_p(hilbert_inputs(eps, b, L))
    exact = hilbert_p_oracle(eps, b, L)
    assert exact <= p <= exact + 1


@settings(max_examples=200)
@given(st.fractions(Fraction(1, 10**12), 2, max_denominator=10**15))
def test_hilbert_eta_lower_bound(eps):
    lower = eval_eta_lower(ar.eta_hilbert(), Fraction(1), eps)
    with mpmath.workprec(500):
        a = mpmath.mpf(eps.numerator) / eps.denominator
        eta = 1 - mpmath.sqrt(1 - a * a / 4)
        gap = (eta - mpmath.mpf(lower.numerator) / lower.denominator) / eta
    assert -mpmath.mpf(2) ** -400 <= gap <= mpmath.mpf(2) ** -128


def test_epsilon_shortcut():
    sched = km_schedule()
    assert ar.epsilon_shortcut(ar.inputs_for(2.5, Q8, 1, sched)) == 0
    assert ar.epsilon_shortcut(ar.inputs_for(2.0, Q8, 1, sched)) is None
    assert ar.epsilon_shortcut(ar.inputs_for(0.5, Q8, 1, sched)) is None


def test_eta_argument_domain_error():
    # eps = 5, b = 1, L = 1: the eta argument 5/2 leaves (0, 2] and the
    # shortcut (eps > 2b) is the only sound answer
    ri = ar.inputs_for(5.0, Q8, 1, km_schedule())
    assert ar.epsilon_shortcut(ri) == 0
    with pytest.raises(ar.EtaDomainError):
        ar.compute_p(ri)


def test_gamma0_pinned():
    sched = ishikawa_schedule()
    for eps, g0 in ((0.5, 2), (0.25, 3), (0.125, 4), (0.0625, 5)):
        assert ar.compute_gamma0(ar.inputs_for(eps, Q8, 1, sched)) == g0


def test_delta_definition_and_failure():
    ri = ar.inputs_for(0.5, Q8, 1, km_schedule())
    # delta(k) = theta(P + k + N0)
    for k in (0, 10, 100):
        assert ar.compute_delta(ri, k, 512) == 4 * (512 + k)
    # a theta too flat to dominate k raises rather than certifying nonsense
    flat = ar.Schedule(ar.seq_constant(Fraction(1, 2)), ar.seq_constant(0),
                       ar.theta_linear(Fraction(1, 100)), 1, 0, ar.gamma_zero())
    ri = ar.RateInputs(eps=0.5, eta=Q8, b=1.0, N0=0, L=1,
                       theta=flat.theta, gamma=flat.gamma)
    with pytest.raises(ar.RateError):
        ar.compute_delta(ri, 1000, ar.compute_p(ri))


def test_rate_inputs_validation():
    sched = km_schedule()
    with pytest.raises(ar.RateError):
        ar.inputs_for(0.0, Q8, 1, sched)
    with pytest.raises(ar.RateError):
        ar.inputs_for(0.5, Q8, 0, sched)
    with pytest.raises(ar.RateError):
        ar.RateInputs(eps=0.5, eta=Q8, b=1.0, N0=-1, L=1,
                      theta=sched.theta, gamma=sched.gamma)
    with pytest.raises(ar.RateError):
        ar.RateInputs(eps=0.5, eta=Q8, b=1.0, N0=0, L=0,
                      theta=sched.theta, gamma=sched.gamma)


def test_rate_report_json_shape():
    rr = ar.compute_phi(ar.inputs_for(0.5, Q8, 1, km_schedule()))
    doc = rr.to_json_dict()
    assert set(doc) == {"P", "gamma0", "phi", "deltas", "empirical_first_hit",
                        "tightness_ratio"}
    assert json.dumps(doc, sort_keys=True) == json.dumps(doc, sort_keys=True)


@given(st.floats(0.01, 2.0), st.floats(0.01, 2.0))
def test_p_antitone_in_eps(e1, e2):
    lo, hi = sorted((e1, e2))
    sched = km_schedule()
    p_lo = ar.compute_p(ar.inputs_for(lo, Q8, 1, sched))
    p_hi = ar.compute_p(ar.inputs_for(hi, Q8, 1, sched))
    assert p_lo >= p_hi


@given(st.integers(0, 2000))
def test_delta_dominates_k(k):
    ri = ar.inputs_for(0.5, Q8, 1, km_schedule())
    assert ar.compute_delta(ri, k, ar.compute_p(ri)) >= k


def test_phi_uses_only_the_inputs_tuple():
    # bit-identical results for equal inputs built from different contexts
    a = ar.inputs_for(0.25, Q8, 1, km_schedule())
    b = ar.inputs_for(0.25, ar.eta_quadratic(8), 1.0, km_schedule())
    assert a == b
    ra, rb = ar.compute_phi(a), ar.compute_phi(b)
    assert ra == rb
    assert json.dumps(ra.to_json_dict(), sort_keys=True) == \
        json.dumps(rb.to_json_dict(), sort_keys=True)
