import math
import time
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymreg as ar
from asymreg.moduli import (
    geometric_exceeds,
    ceil_frac,
    ceil_log2_frac,
    ceil_neg_log2,
    eval_eta_lower,
    nat_values,
    seq_mass,
    seq_parts,
    sequence_lower_bound,
)


# ---------------------------------------------------------------------------
# integer log helpers (oracle: brute-force search over exponents)

def oracle_ceil_log2(q: Fraction) -> int:
    m = -2000
    while Fraction(2) ** m < q:
        m += 1
    return m


def test_ceil_frac():
    assert ceil_frac(Fraction(7, 2)) == 4
    assert ceil_frac(Fraction(-7, 2)) == -3
    assert ceil_frac(Fraction(6, 2)) == 3
    assert ceil_frac(Fraction(0)) == 0


def test_ceil_log2_frozen():
    assert ceil_log2_frac(8, 1) == 3
    assert ceil_log2_frac(9, 1) == 4
    assert ceil_log2_frac(1, 1) == 0
    assert ceil_log2_frac(1, 2) == -1
    assert ceil_log2_frac(3, 4) == 0
    assert ceil_neg_log2(Fraction(1, 128)) == 7
    assert ceil_neg_log2(Fraction(1, 100)) == 7
    assert ceil_neg_log2(Fraction(1)) == 0
    assert ceil_neg_log2(Fraction(3, 4)) == 1


@given(st.integers(1, 10**9), st.integers(1, 10**9))
def test_ceil_log2_matches_oracle(num, den):
    m = ceil_log2_frac(num, den)
    q = Fraction(num, den)
    assert Fraction(2) ** m >= q
    assert Fraction(2) ** (m - 1) < q
    assert m == oracle_ceil_log2(q)


# ---------------------------------------------------------------------------
# eta evaluation

def test_eta_quadratic_frozen():
    q8 = ar.eta_quadratic()
    assert ar.eval_eta(q8, 2.0, 0.25) == pytest.approx(1 / 128, abs=0)
    assert eval_eta_lower(q8, Fraction(2), Fraction(1, 4)) == Fraction(1, 128)
    assert ar.eval_eta(ar.eta_quadratic(2), 1.0, 1.0) == 0.5


def test_eta_hilbert_matches_oracle():
    h = ar.eta_hilbert()
    for eps in (0.1, 0.5, 1.0, 1.7, 2.0):
        assert ar.eval_eta(h, 3.0, eps) == pytest.approx(
            1.0 - math.sqrt(1.0 - eps * eps / 4.0), abs=1e-15)
    assert ar.eval_eta(h, 1.0, 2.0) == 1.0


def test_eta_constant():
    c = ar.eta_constant(Fraction(1, 3))
    assert ar.eval_eta(c, 5.0, 0.01) == pytest.approx(1 / 3)
    with pytest.raises(ar.DescriptorError):
        ar.eta_constant(0)
    with pytest.raises(ar.DescriptorError):
        ar.eta_constant(Fraction(3, 2))


def test_eta_domain_errors():
    q8 = ar.eta_quadratic()
    with pytest.raises(ar.DescriptorDomainError):
        ar.eval_eta(q8, 0.0, 0.5)
    with pytest.raises(ar.DescriptorDomainError):
        ar.eval_eta(q8, 1.0, 0.0)
    with pytest.raises(ar.DescriptorDomainError):
        ar.eval_eta(q8, 1.0, 2.5)


@given(st.floats(0.01, 100.0), st.floats(0.001, 2.0), st.floats(0.001, 2.0))
def test_eta_nondecreasing_in_eps(r, eps1, eps2):
    lo, hi = sorted((eps1, eps2))
    for desc in (ar.eta_quadratic(), ar.eta_hilbert()):
        assert ar.eval_eta(desc, r, lo) <= ar.eval_eta(desc, r, hi) + 1e-15


# ---------------------------------------------------------------------------
# conversions between the modulus shapes

def test_eta_to_eta1_quadratic_is_affine():
    e1 = ar.eta_to_eta1(ar.eta_quadratic())
    assert e1 == ar.eta1_affine(2, 3)
    # oracle: ceil(-log2(2^-2k / 8)) = 2k + 3
    for k in range(6):
        assert ar.eval_eta1(e1, 7.0, k) == 2 * k + 3


def test_eta_to_eta1_constant():
    e1 = ar.eta_to_eta1(ar.eta_constant(Fraction(1, 3)))
    assert e1 == ar.eta1_affine(0, 2)


def test_eta_to_eta1_hilbert_wrapper():
    e1 = ar.eta_to_eta1(ar.eta_hilbert())
    # eta(r, 1) = 1 - sqrt(3)/4... = 0.1339746, -log2 = 2.90 -> 3
    assert ar.eval_eta1(e1, 2.0, 0) == 3
    # eta(r, 1/2) = 0.0317542, -log2 = 4.977 -> 5
    assert ar.eval_eta1(e1, 2.0, 1) == 5
    # defining property 2^-m <= eta(r, 2^-k)
    for k in range(8):
        m = ar.eval_eta1(e1, 2.0, k)
        assert 2.0 ** (-m) <= ar.eval_eta(ar.eta_hilbert(), 2.0, 2.0 ** (-k))


@pytest.mark.parametrize("k", range(26, 31))
def test_eta_to_eta1_hilbert_small_precision(k):
    # eta(r, 2^-k) = 2^-2k / (4 (1 + sqrt(1 - 2^-2k/4))) lies just above
    # 2^-(2k+3); the float form raised DescriptorDomainError from k = 26 on
    assert ar.eval_eta1(ar.eta_to_eta1(ar.eta_hilbert()), 1.0, k) == 2 * k + 3


def test_eta1_to_eta_round_trip_frozen():
    back = ar.eta1_to_eta(ar.eta_to_eta1(ar.eta_quadratic()))
    assert ar.eval_eta(back, 1.0, 0.25) == pytest.approx(2.0 ** -7, abs=0)
    assert ar.eval_eta(back, 1.0, 0.3) == pytest.approx(2.0 ** -7, abs=0)
    # eps > 1 clamps the dyadic index at 0
    assert ar.eval_eta(back, 1.0, 1.5) == pytest.approx(2.0 ** -3, abs=0)


@given(st.floats(0.01, 50.0), st.floats(0.001, 2.0))
def test_eta1_round_trip_is_valid_smaller_modulus(r, eps):
    q8 = ar.eta_quadratic()
    back = ar.eta1_to_eta(ar.eta_to_eta1(q8))
    v = ar.eval_eta(back, r, eps)
    assert 0.0 < v <= ar.eval_eta(q8, r, eps) + 1e-15


def test_eta2_to_eta1():
    assert ar.eta2_to_eta1(ar.eta1_affine(2, 1)) == ar.eta1_affine(2, 3)
    tab = ar.tabulated([(0, 1), (1, 3), (2, 5)])
    assert ar.eta2_to_eta1(tab) == ar.tabulated([(0, 3), (1, 5)])
    for k in range(4):
        # the shift semantics: eta1(r, k) = eta2(r, k + 1)
        conv = ar.eta2_to_eta1(ar.eta3_to_eta2(ar.eta3_affine(2, 3)))
        assert ar.eval_eta1(conv, 1.0, k) == 2 * (k + 1) + 3


def test_eta3_to_eta2_exact_radius():
    conv = ar.eta3_to_eta2(ar.eta3_k_plus_ceil())
    assert ar.eval_eta1(conv, 2.0, 3) == 3 + 2   # ceil(2) = 2, exactly
    assert ar.eval_eta1(conv, 2.5, 3) == 3 + 3
    assert ar.eval_eta1(conv, 0.5, 3) == 3 + 1
    assert ar.eval_eta3(ar.eta3_k_plus_ceil(), Fraction(7, 2), 0) == 4


def test_eval_eta1_rejects_negative_k():
    with pytest.raises(ar.DescriptorDomainError):
        ar.eval_eta1(ar.eta1_affine(2, 3), 1.0, -1)


# ---------------------------------------------------------------------------
# theta

def test_theta_linear_frozen():
    t4 = ar.theta_linear(4)
    assert [ar.eval_nat(t4, n) for n in (0, 1, 2, 513)] == [0, 4, 8, 2052]
    t = ar.theta_for_constant_lambda(Fraction(1, 2))
    assert t == ar.theta_linear(4)
    t = ar.theta_for_constant_lambda(Fraction(1, 4))
    assert ar.eval_nat(t, 1) == 6     # ceil(16/3)
    assert ar.eval_nat(t, 3) == 16


def test_theta_constructor_validation():
    with pytest.raises(ar.DescriptorError):
        ar.theta_linear(-1)
    with pytest.raises(ar.DescriptorError):
        ar.theta_for_constant_lambda(1)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_theta_linear_monotone(n1, n2):
    lo, hi = sorted((n1, n2))
    t = ar.theta_linear(Fraction(16, 3), Fraction(1, 7))
    assert ar.eval_nat(t, lo) <= ar.eval_nat(t, hi)


# ---------------------------------------------------------------------------
# gamma

def oracle_geometric_gamma(c, q, lam_min, delta):
    # least N with sum_{i >= N+1} c q^i (1 - lam_min) <= delta
    n = 0
    while c * (1 - lam_min) * q ** (n + 1) / (1 - q) > delta:
        n += 1
    return n


def test_gamma_frozen_values():
    assert ar.eval_gamma(ar.gamma_zero(), Fraction(1, 10**9)) == 0
    d3 = ar.gamma_dyadic_shift(3)
    assert ar.eval_gamma(d3, Fraction(1, 10)) == 7
    assert ar.eval_gamma(d3, 1) == 3
    assert ar.eval_gamma(d3, 2) == 3
    assert ar.eval_gamma(ar.gamma_dyadic_shift(-5), Fraction(1, 2)) == 0

    geo = ar.gamma_geometric_tail(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert ar.eval_gamma(geo, Fraction(1, 16)) == 2
    assert ar.eval_gamma(geo, Fraction(1, 8)) == 1
    assert ar.eval_gamma(geo, Fraction(1, 4)) == 0
    assert ar.eval_gamma(geo, Fraction(1, 2**20)) == 18

    dy = ar.gamma_from_dyadic(ar.omega_affine(1, -2))
    assert ar.eval_gamma(dy, Fraction(1, 16)) == 2
    assert ar.eval_gamma(ar.gamma_shifted(geo, -1), Fraction(1, 16)) == 1
    assert ar.eval_gamma(ar.gamma_shifted(geo, -10), Fraction(1, 16)) == 0


@given(st.fractions(min_value=Fraction(1, 10**7), max_value=Fraction(1, 1)))
def test_gamma_geometric_matches_oracle(delta):
    c, q, lam = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
    geo = ar.gamma_geometric_tail(c, q, lam)
    assert ar.eval_gamma(geo, delta) == oracle_geometric_gamma(c, q, lam, delta)


def exact_loop_gamma(c, q, lam_min, delta):
    # the tail c (1 - lam_min) q^(n+1) / (1 - q), one exact product per index
    tail, n = c * (1 - lam_min) * q / (1 - q), 0
    while tail > delta:
        tail *= q
        n += 1
    return n


@pytest.mark.parametrize("c, q, lam, delta", [
    (Fraction(1, 2), Fraction(9, 10), Fraction(1, 2), Fraction(1, 1000)),
    (1, Fraction(99, 100), 0, Fraction(1, 3)),
    (Fraction(3, 2), Fraction(1, 7), Fraction(1, 4), Fraction(1, 10**12)),
    (1, Fraction(99, 100), 1, Fraction(1, 2)),           # a zero tail
    (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),  # tail 1/2: N = 0
    (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 4)),  # a tie at N = 1
])
def test_gamma_geometric_search_matches_the_oracle(c, q, lam, delta):
    geo = ar.gamma_geometric_tail(c, q, lam)
    assert ar.eval_gamma(geo, delta) == oracle_geometric_gamma(c, q, lam, delta)


def test_gamma_geometric_search_matches_the_exact_loop():
    q = Fraction(999, 1000)
    for delta in (Fraction(1, 2), Fraction(1, 1024)):
        geo = ar.gamma_geometric_tail(1, q, Fraction(1, 2))
        assert ar.eval_gamma(geo, delta) == exact_loop_gamma(1, q, Fraction(1, 2), delta)


def test_gamma_geometric_is_fast_for_a_ratio_near_one():
    # the exact loop had not returned after 10 s here
    c, q, lam, delta = 1, Fraction(99999, 100000), Fraction(1, 2), Fraction(1, 2)
    start = time.perf_counter()
    n = ar.eval_gamma(ar.gamma_geometric_tail(c, q, lam), delta)
    assert time.perf_counter() - start < 1.0
    tail = c * (1 - lam) * q / (1 - q)
    assert geometric_exceeds(tail, q, delta, n - 1)
    assert not geometric_exceeds(tail, q, delta, n)


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(1, 1)),
       st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(1, 1)))
def test_gamma_antitone(d1, d2):
    lo, hi = sorted((d1, d2))
    for g in (ar.gamma_dyadic_shift(2),
              ar.gamma_geometric_tail(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
              ar.gamma_from_dyadic(ar.omega_affine(1, 0))):
        assert ar.eval_gamma(g, lo) >= ar.eval_gamma(g, hi)


def test_gamma_rejects_bad_domain():
    with pytest.raises(ar.DescriptorDomainError):
        ar.eval_gamma(ar.gamma_zero(), 0)
    with pytest.raises(ar.DescriptorError):
        ar.gamma_geometric_tail(1, 1, Fraction(1, 2))


# ---------------------------------------------------------------------------
# omega catalog

def test_omega_catalog_frozen():
    assert ar.eval_nat(ar.omega_for_nonexpansive(3), 5) == 8
    assert ar.eval_nat(ar.omega_for_lipschitz(3, 2), 1) == 7
    omega = ar.omega_for_uniformly_continuous(ar.omega_affine(1, 2), 1)
    assert omega == ar.omega_affine(4, 2)          # n 2^alpha(0) + 1 + b
    assert ar.eval_nat(ar.omega_for_bounded_space(Fraction(7, 2)), 100) == 4
    assert ar.eval_nat(ar.omega_affine(0, 4), 0) == 4


# ---------------------------------------------------------------------------
# sequences

def test_sequences_exact_and_float():
    geo = ar.seq_geometric(Fraction(1, 2), Fraction(1, 2))
    assert ar.seq_value(geo, 3) == Fraction(1, 16)
    np.testing.assert_allclose(ar.seq_values_float(geo, 4),
                               [0.5, 0.25, 0.125, 0.0625], rtol=0, atol=0)
    tab = ar.seq_tabulated([Fraction(1, 2), Fraction(1, 4)], 0)
    assert [ar.seq_value(tab, n) for n in (0, 1, 2, 9)] == \
        [Fraction(1, 2), Fraction(1, 4), 0, 0]
    const = ar.seq_constant(Fraction(1, 3))
    vals = ar.seq_values_float(const, 3)
    assert vals.tolist() == [1 / 3] * 3


def test_sequence_bounds():
    geo = ar.seq_geometric(Fraction(1, 2), Fraction(1, 2))
    tab = ar.seq_tabulated([Fraction(3, 4), Fraction(1, 4)], Fraction(1, 8))
    assert sequence_lower_bound(ar.seq_constant(Fraction(1, 2))) == Fraction(1, 2)
    assert sequence_lower_bound(geo) == 0
    assert sequence_lower_bound(tab) == Fraction(1, 8)


BOUNDARY_SEQS = {
    "constant": ar.seq_constant(Fraction(1, 3)),
    "geometric": ar.seq_geometric(Fraction(2, 3), Fraction(9, 10)),
    "tabulated": ar.seq_tabulated([Fraction(1, 2), Fraction(1, 7), 0, Fraction(5, 6)],
                                  Fraction(2, 7)),
}


@pytest.mark.parametrize("start", [0, 2, 4, 9])
@pytest.mark.parametrize("name", sorted(BOUNDARY_SEQS))
def test_seq_values_float_across_the_table_end(name, start):
    # start before, at and past the end of the table, as verify_gamma reads
    # it from gamma(delta) on; compared to the bit with a per-kind formula
    seq, count = BOUNDARY_SEQS[name], 5
    head, a, r = seq_parts(seq)
    assert 0 <= a <= 1 and 0 < r <= 1 and (r == 1 or not head)
    got = ar.seq_values_float(seq, count, start)
    if name == "geometric":
        c, q = float(seq.param("c")), float(seq.param("q"))
        want = [c * np.power(q, float(n)) for n in range(start, start + count)]
    else:
        want = [float(ar.seq_value(seq, n)) for n in range(start, start + count)]
    assert got.dtype == np.float64
    assert got.tobytes() == np.array(want).tobytes()


@given(st.integers(0, 50))
def test_seq_float_matches_exact(n):
    geo = ar.seq_geometric(Fraction(1, 2), Fraction(3, 4))
    vals = ar.seq_values_float(geo, n + 1)
    assert vals[n] == pytest.approx(float(ar.seq_value(geo, n)), rel=1e-12)


# ---------------------------------------------------------------------------
# schedules and witness verification

def km_schedule():
    return ar.Schedule(ar.seq_constant(Fraction(1, 2)), ar.seq_constant(0),
                       ar.theta_linear(4), 1, 0, ar.gamma_zero())


def geometric_schedule():
    lam = ar.seq_constant(Fraction(1, 2))
    return ar.Schedule(lam, ar.seq_geometric(Fraction(1, 2), Fraction(1, 2)),
                       ar.theta_linear(4), 2, 0,
                       ar.gamma_for_geometric_s(Fraction(1, 2), Fraction(1, 2), lam))


def test_validate_schedule_accepts_golden():
    ar.validate_schedule(km_schedule())
    ar.validate_schedule(geometric_schedule())


def test_validate_schedule_rejects_large_s():
    bad = ar.Schedule(ar.seq_constant(Fraction(1, 2)),
                      ar.seq_constant(Fraction(3, 5)),
                      ar.theta_linear(4), 2, 0, ar.gamma_zero())
    with pytest.raises(ar.ScheduleError, match="sup s_n"):
        ar.validate_schedule(bad)


@settings(max_examples=200)
@given(st.integers(0, 97), st.integers(1, 97), st.integers(-97, 97), st.integers(0, 200))
def test_geometric_exceeds_matches_the_exact_power(c, q, bound, n):
    c, q, bound = Fraction(c, 97), Fraction(q, 97), Fraction(bound, 97)
    assert geometric_exceeds(c, q, bound, n) == (c * q**n > bound)
    # at an exact tie c q^n == bound the enclosure straddles the bound
    assert not geometric_exceeds(c, q, c * q**n, n)
    if n > 0 and c > 0 and q < 1:
        assert geometric_exceeds(c, q, c * q**n, n - 1)


def test_geometric_exceeds_is_fast_for_a_ratio_near_one():
    # c = 1, q = 1 - 10^-6: q^n crosses 1/2 between n = 693,146 and 693,147,
    # where the exact powers have millions of bits
    q, half = Fraction(999_999, 1_000_000), Fraction(1, 2)
    ns = (693_146, 693_147, 693_150, 10**9, 10**40)
    start = time.perf_counter()
    got = [geometric_exceeds(Fraction(1), q, half, n) for n in ns]
    assert time.perf_counter() - start < 1.0
    with mpmath.workprec(256):
        exact = [mpmath.power(mpmath.mpf(999_999) / 1_000_000, n) > 0.5 for n in ns]
    assert got == exact == [True, False, False, False, False]


def test_validate_schedule_geometric_s_from_a_large_n0():
    # s_n = 3/4 (1/2)^n drops to 1/2 at n = 1, so N0 = 1 admits L = 2
    s = ar.seq_geometric(Fraction(3, 4), Fraction(1, 2))
    lam = ar.seq_constant(Fraction(1, 2))
    for n0 in (1, 10**40):
        ar.validate_schedule(ar.Schedule(lam, s, ar.theta_linear(4), 2, n0, ar.gamma_zero()))
    with pytest.raises(ar.ScheduleError, match=r"sup s_n = 3/4 \* \(1/2\)\^0"):
        ar.validate_schedule(ar.Schedule(lam, s, ar.theta_linear(4), 2, 0, ar.gamma_zero()))
    with pytest.raises(ar.ScheduleError, match="sup s_n"):      # L = 1: no n
        ar.validate_schedule(ar.Schedule(lam, s, ar.theta_linear(4), 1, 10**40,
                                         ar.gamma_zero()))


def test_validate_schedule_n0_window():
    # s_n = 3/5 for n < 2 only; N0 = 2 makes it admissible with L = 2
    s = ar.seq_tabulated([Fraction(3, 5), Fraction(3, 5)], Fraction(1, 4))
    sched = ar.Schedule(ar.seq_constant(Fraction(1, 2)), s,
                        ar.theta_linear(4), 2, 2, ar.gamma_zero())
    ar.validate_schedule(sched)
    with pytest.raises(ar.ScheduleError):
        ar.validate_schedule(ar.Schedule(sched.lambda_seq, s, sched.theta,
                                         2, 0, sched.gamma))


def test_verify_theta_passes_and_fails():
    assert ar.verify_theta(km_schedule(), n_max=200).passed
    bad = ar.Schedule(ar.seq_constant(Fraction(1, 2)), ar.seq_constant(0),
                      ar.theta_linear(Fraction(1, 2)), 1, 0, ar.gamma_zero())
    rep = ar.verify_theta(bad, n_max=200)
    assert not rep.passed


def test_verify_gamma_passes_and_fails():
    sched = geometric_schedule()
    deltas = [Fraction(1, 2) ** k for k in range(1, 21)]
    assert ar.verify_gamma(sched, deltas, n_max=500).passed
    bad = ar.Schedule(sched.lambda_seq, sched.s_seq, sched.theta, sched.L,
                      sched.N0, ar.gamma_shifted(sched.gamma, -1))
    rep = ar.verify_gamma(bad, deltas, n_max=500)
    assert not rep.passed


# ---------------------------------------------------------------------------
# the exact theta check: its parts, a float reference, and its memory

@settings(max_examples=50)
@given(st.integers(0, 10**6), st.integers(1, 10**6), st.integers(0, 10**6),
       st.integers(1, 10**6))
def test_nat_values_match_eval_nat_for_theta_linear(p, q, r, s):
    desc = ar.theta_linear(Fraction(p, q), Fraction(r, s))
    assert nat_values(desc, 300) == [ar.eval_nat(desc, n) for n in range(301)]


def test_nat_values_match_eval_nat():
    for desc in (ar.theta_linear(4), ar.theta_linear(0, Fraction(5, 2)),
                 ar.omega_affine(3, -7), ar.omega_affine(0, 2),
                 ar.tabulated([(2, 9), (0, 1), (1, 4)])):
        assert nat_values(desc, 2) == [ar.eval_nat(desc, n) for n in range(3)]
    table = ar.tabulated([(0, 1), (1, 4), (3, 9)])
    with pytest.raises(ar.DescriptorDomainError, match="argument 2 outside"):
        nat_values(table, 5)
    with pytest.raises(ar.DescriptorError):
        nat_values(ar.gamma_zero(), 5)


MASS_SEQUENCES = [
    ar.seq_constant(Fraction(1, 3)),
    ar.seq_constant(0),
    ar.seq_tabulated([Fraction(1, 2), Fraction(1, 5), 0, Fraction(9, 10)],
                     Fraction(1, 7)),
    ar.seq_tabulated([Fraction(1, 2)], 0),
    ar.seq_tabulated([Fraction(1, 2)] * 30 + [Fraction(1, 3)] * 10, 0),
    ar.seq_geometric(Fraction(1, 2), Fraction(1, 2)),
    ar.seq_geometric(1, Fraction(9, 10)),
    ar.seq_geometric(Fraction(3, 4), Fraction(19, 20)),
    ar.seq_geometric(Fraction(4, 5), Fraction(3, 5)),  # S_inf = 1 exactly
    ar.seq_geometric(0, Fraction(1, 2)),
]


@pytest.mark.parametrize("seq", MASS_SEQUENCES, ids=lambda q: q.kind)
def test_seq_mass_matches_exact_partial_sums(seq):
    mass = seq_mass(seq)
    assert mass(-1)[0] == 0
    total = Fraction(0)
    for t in range(200):
        lam = ar.seq_value(seq, t)
        total += lam * (1 - lam)
        got = Fraction(*mass(t))
        if seq.kind == "Geometric":
            assert 0 <= total - got < Fraction(1, 2**100), t
        else:
            assert got == total, t


def test_geometric_mass_is_a_tight_lower_bound_far_out():
    c, q = Fraction(1, 2), Fraction(2999, 3000)
    mass = seq_mass(ar.seq_geometric(c, q))
    for t in (1000, 7454, 7455, 20_000):
        u = q ** (t + 1)
        exact = c * (1 - u) / (1 - q) - c * c * (1 - u * u) / (1 - q * q)
        assert 0 <= exact - Fraction(*mass(t)) < Fraction(1, 2**100), t


def test_geometric_mass_stays_below_the_limit_at_huge_t():
    # S_inf = c (1 + q - c) / (1 - q^2) = 90/19 for c = 1, q = 9/10
    mass = seq_mass(ar.seq_geometric(1, Fraction(9, 10)))
    for t in (10**6, 10**12, 10**100):
        got = Fraction(*mass(t))
        assert Fraction(90, 19) - Fraction(1, 2**100) < got < Fraction(90, 19)


def test_verify_theta_geometric_cost_does_not_grow_with_the_exponent():
    # S_inf = 1124.9..., and theta(n) = 8n clears every n <= 1000; an exact
    # q^(theta(1000) + 1) would have about 10^5 bits
    sched = ar.Schedule(ar.seq_geometric(Fraction(1, 2), Fraction(2999, 3000)),
                        ar.seq_constant(0), ar.theta_linear(8), 1, 0, ar.gamma_zero())
    assert ar.verify_theta(sched, n_max=1000).passed
    assert not ar.verify_theta(sched, n_max=1125).passed


def test_verify_theta_geometric_passes_n_zero_at_a_zero_mass():
    # lambda_0 = c = 1 gives S(0) = 0 exactly, which clears n = 0
    sched = ar.Schedule(ar.seq_geometric(1, Fraction(9, 10)), ar.seq_constant(0),
                        ar.tabulated([(0, 0), (1, 50)]), 1, 0, ar.gamma_zero())
    assert ar.verify_theta(sched, n_max=1).passed


def test_negative_table_theta_fails_the_witness_check():
    # theta(1) = -5 must not read S(-5) from the end of the prefix table
    lam = ar.seq_tabulated([Fraction(1, 2)] * 8, Fraction(1, 2))
    theta = ar.descriptor_from_dict({"kind": "Tabulated", "points": [[0, 0], [1, -5]]})
    sched = ar.Schedule(lam, ar.seq_constant(0), theta, 1, 0, ar.gamma_zero())
    rep = ar.verify_theta(sched, n_max=1)
    assert not rep.passed
    assert "negative" in dict(rep.failures[0].inputs)["error"]
    with pytest.raises(ar.DescriptorDomainError, match="negative"):
        ar.eval_nat(theta, 0)


def float_verify_theta(schedule, n_max):
    """The float check verify_theta replaced: a cumsum of theta(n_max) + 1
    terms and a 1e-9 slack.  Returns the first failing n (None for a pass)
    and the first n whose float margin |csum - n| is 1e-6 or less."""
    thetas = [ar.eval_nat(schedule.theta, n) for n in range(n_max + 1)]
    lam = ar.seq_values_float(schedule.lambda_seq, max(thetas) + 1)
    csum = np.cumsum(lam * (1.0 - lam))
    close = next((n for n, t in enumerate(thetas) if abs(csum[t] - n) <= 1e-6), None)
    failing = next((n for n, t in enumerate(thetas) if csum[t] < n - 1e-9), None)
    return failing, close


DIFF_LAMBDAS = [
    ar.seq_constant(Fraction(1, 2)),
    ar.seq_constant(Fraction(1, 3)),
    ar.seq_constant(Fraction(3, 7)),
    ar.seq_constant(Fraction(1, 50)),
    ar.seq_tabulated([Fraction(1, 10), Fraction(9, 10), Fraction(1, 2), 0],
                     Fraction(1, 4)),
    ar.seq_tabulated([Fraction(1, 2)] * 5, Fraction(1, 20)),
    ar.seq_geometric(1, Fraction(9, 10)),
    ar.seq_geometric(Fraction(1, 2), Fraction(1, 2)),
]
DIFF_THETAS = [
    ar.theta_linear(4),
    ar.theta_linear(Fraction(9, 2)),
    ar.theta_linear(Fraction(9, 2), Fraction(1, 3)),
    ar.theta_linear(Fraction(7, 2), 3),
    ar.theta_linear(Fraction(49, 12)),
    ar.theta_linear(40),
    ar.theta_linear(55, 10),
    ar.theta_linear(Fraction(1, 2)),
    ar.tabulated([(n, 4 * n + n % 3) for n in range(201)]),
    ar.tabulated([(n, 60 * n * n) for n in range(201)]),
]


def test_verify_theta_matches_the_float_check():
    compared = 0
    for lam in DIFF_LAMBDAS:
        for theta in DIFF_THETAS:
            sched = ar.Schedule(lam, ar.seq_constant(0), theta, 1, 0, ar.gamma_zero())
            failing, close = float_verify_theta(sched, 200)
            rep = ar.verify_theta(sched, n_max=200)
            got = dict(rep.failures[0].inputs)["n"] if rep.failures else None
            assert rep.samples == 201
            if close is None or (failing is not None and failing < close):
                # every float margin up to the verdict exceeds 1e-6
                compared += 1
                assert got == failing, (lam, theta)
                if failing is not None:
                    failure = rep.failures[0]
                    assert dict(failure.inputs)["theta_n"] == ar.eval_nat(theta, failing)
                    assert failure.rhs == failing
            elif got is not None:
                assert got >= close, (lam, theta)
    assert compared >= 60


def test_verify_theta_rejects_a_witness_the_float_slack_let_through():
    # (theta(1) + 1) lam (1 - lam) = 4 (1/4 - 10^-12) = 1 - 4 10^-12 < 1
    lam = ar.seq_constant(Fraction(1, 2) - Fraction(1, 10**6))
    sched = ar.Schedule(lam, ar.seq_constant(0), ar.tabulated([(0, 0), (1, 3)]),
                        1, 0, ar.gamma_zero())
    assert float_verify_theta(sched, 1)[0] is None
    rep = ar.verify_theta(sched, n_max=1)
    assert not rep.passed
    failure = rep.failures[0]
    assert dict(failure.inputs) == {"n": 1, "theta_n": 3}
    assert failure.lhs == pytest.approx(1 - 4e-12, abs=1e-15)
    assert failure.lhs < 1.0


def test_verify_theta_passes_a_witness_that_meets_n_exactly():
    # S(4n - 1) = 4n (1/2)(1/2) = n: equality is enough
    lam = ar.seq_tabulated([Fraction(1, 2)] * 3, Fraction(1, 2))
    exact = ar.tabulated([(n, max(0, 4 * n - 1)) for n in range(51)])
    short = ar.tabulated([(n, max(0, 4 * n - 2)) for n in range(51)])
    for seq in (ar.seq_constant(Fraction(1, 2)), lam):
        sched = ar.Schedule(seq, ar.seq_constant(0), exact, 1, 0, ar.gamma_zero())
        assert ar.verify_theta(sched, n_max=50).passed
        sched = ar.Schedule(seq, ar.seq_constant(0), short, 1, 0, ar.gamma_zero())
        assert dict(ar.verify_theta(sched, n_max=50).failures[0].inputs)["n"] == 1


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_theta_memory_does_not_grow_with_theta():
    # theta(1000) = 1,001,001: the float check held that many terms (16 MB)
    lam = Fraction(1, 1000)
    sched = ar.Schedule(ar.seq_constant(lam), ar.seq_constant(0),
                        ar.theta_for_constant_lambda(lam), 1, 0, ar.gamma_zero())
    rep, peak = traced_peak(ar.verify_theta, sched, n_max=1000)
    assert rep.passed
    assert peak < 1 << 20


def test_verify_gamma_memory_does_not_grow_with_gamma():
    # gamma + 10^6 is a valid, wasteful modulus; its windows start past 10^6
    sched = geometric_schedule()
    late = ar.Schedule(sched.lambda_seq, sched.s_seq, sched.theta, sched.L,
                       sched.N0, ar.gamma_shifted(sched.gamma, 10**6))
    deltas = [Fraction(1, 2) ** k for k in range(1, 6)]
    rep, peak = traced_peak(ar.verify_gamma, late, deltas, n_max=1000)
    assert rep.passed
    assert rep.samples == 5 * 1001
    assert peak < 1 << 20


def test_gamma_witness_minimality():
    # gamma(1/16) = 2 is minimal: the window starting at 1 still exceeds 1/16
    sched = geometric_schedule()
    alpha = [ar.partial_sums_alpha(sched, n) for n in range(40)]
    assert ar.eval_gamma(sched.gamma, Fraction(1, 16)) == 2
    assert max(a - alpha[2] for a in alpha[2:]) <= Fraction(1, 16)
    assert max(a - alpha[1] for a in alpha[1:]) > Fraction(1, 16)


# ---------------------------------------------------------------------------
# serialization

ALL_DESCRIPTORS = [
    ar.eta_quadratic(),
    ar.eta_quadratic(2),
    ar.eta_hilbert(),
    ar.eta_constant(Fraction(1, 3)),
    ar.eta1_affine(2, 3),
    ar.eta3_k_plus_ceil(),
    ar.eta3_affine(2, 3),
    ar.eta_to_eta1(ar.eta_hilbert()),
    ar.eta1_to_eta(ar.eta1_affine(2, 3)),
    ar.eta2_to_eta1(ar.eta3_to_eta2(ar.eta3_k_plus_ceil())),
    ar.eta3_to_eta2(ar.eta3_affine(2, 3)),
    ar.theta_linear(4),
    ar.theta_linear(Fraction(16, 3), Fraction(1, 7)),
    ar.gamma_zero(),
    ar.gamma_dyadic_shift(3),
    ar.gamma_geometric_tail(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    ar.gamma_from_dyadic(ar.omega_affine(1, -2)),
    ar.gamma_shifted(ar.gamma_dyadic_shift(3), -1),
    ar.omega_affine(1, 3),
    ar.tabulated([(0, 1), (1, 3)]),
]


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS, ids=lambda d: d.kind)
def test_descriptor_round_trip(desc):
    data = ar.descriptor_to_dict(desc)
    assert ar.descriptor_from_dict(data) == desc


def test_descriptor_from_dict_rejects_garbage():
    with pytest.raises(ar.DescriptorError):
        ar.descriptor_from_dict({"kind": "NoSuchThing"})
    with pytest.raises(ar.DescriptorError):
        ar.descriptor_from_dict({"kind": "EtaQuadratic"})  # missing field
    with pytest.raises(ar.DescriptorError):
        ar.descriptor_from_dict({"kind": "EtaQuadratic", "denominator": 8,
                                 "bogus": 1})


def test_sequence_round_trip():
    for seq in (ar.seq_constant(Fraction(1, 2)),
                ar.seq_geometric(Fraction(1, 2), Fraction(1, 2)),
                ar.seq_tabulated([Fraction(1, 2)], 0)):
        assert ar.sequence_from_dict(ar.descriptor_to_dict(seq)) == seq


@settings(max_examples=25)
@given(st.integers(1, 100), st.integers(0, 100))
def test_round_trip_preserves_evaluation(a, b):
    desc = ar.theta_linear(Fraction(a, 7), Fraction(b, 3))
    back = ar.descriptor_from_dict(ar.descriptor_to_dict(desc))
    for n in (0, 1, 17):
        assert ar.eval_nat(back, n) == ar.eval_nat(desc, n)
