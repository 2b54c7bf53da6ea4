"""The modulus toolbox: convexity moduli, their dyadic forms, and the
schedule witnesses theta and gamma.

Everything a rate certificate consumes is a small symbolic descriptor that
can be evaluated exactly (over rationals), serialized to JSON, and verified
numerically.  This demo walks through each family.
"""

from fractions import Fraction

import asymreg as ar

# ---------------------------------------------------------------------------
print("Convexity moduli eta(r, eps)")
quad = ar.eta_quadratic()          # eps^2 / 8, valid in any CAT(0) model
hilb = ar.eta_hilbert()            # 1 - sqrt(1 - eps^2/4), the inner-product modulus
# eval_eta_lower is exact for the closed forms and never above eta otherwise
for label, desc in (("quadratic", quad), ("hilbert  ", hilb)):
    print(f"  {label}  eta(1, 1/2) = {float(ar.eval_eta_lower(desc, 1, Fraction(1, 2))):.6f}")
print("  (the Hilbert modulus is larger, so it certifies a faster rate)")

# ---------------------------------------------------------------------------
print("\nDyadic ladder: eta -> eta1 -> eta (round trip)")
# eta1(r, k) answers: how close (as 1 - 2^-m) may the midpoint sit to the
# ball boundary before x and y are forced within 2^-k r of each other?
eta1 = ar.eta_to_eta1(quad)
print(f"  eta1 from quadratic: m(k) = 2k + 3;  m(0) = {ar.eval_eta1(eta1, 1.0, 0)},"
      f" m(2) = {ar.eval_eta1(eta1, 1.0, 2)}")
rt = ar.eta1_to_eta(eta1)
print(f"  back to eta: eta(1, 0.3) = {float(ar.eval_eta_lower(rt, 1, Fraction(3, 10))):.6g}"
      f"  (a step function sitting below eps^2/8 = {0.3**2/8:.6g})")

print("\nWeaker dyadic forms convert upward the same way:")
eta2 = ar.eta3_to_eta2(ar.eta3_affine(2, 3))
eta1b = ar.eta2_to_eta1(eta2)
for k in range(4):
    print(f"  k={k}:  eta2 -> m={ar.eval_eta1(eta2, 1.0, k)},"
          f"  eta1 from it -> m={ar.eval_eta1(eta1b, 1.0, k)}")

# ---------------------------------------------------------------------------
print("\nDivergence witness theta: sum of lambda_k (1 - lambda_k) for")
print("k <= theta(n) must reach n.")
sched = ar.Schedule(ar.seq_constant(Fraction(1, 2)), ar.seq_constant(0),
                    ar.theta_linear(4), 1, 0, ar.gamma_zero())
print(f"  lambda = 1/2 constant, theta(n) = 4n:"
      f"  {ar.verify_theta(sched).summary_line()}")
slow = ar.Schedule(sched.lambda_seq, sched.s_seq, ar.theta_linear(Fraction(1, 2)),
                   1, 0, sched.gamma)
print(f"  theta(n) = n/2 is too slow:       "
      f"  {ar.verify_theta(slow).summary_line()}")

# ---------------------------------------------------------------------------
print("\nCauchy modulus gamma: the partial sums of s_n (1 - lambda_n) must")
print("move by at most delta past index gamma(delta).")
half = Fraction(1, 2)
geo = ar.Schedule(ar.seq_constant(half), ar.seq_geometric(half, half),
                  ar.theta_linear(4), 2, 0,
                  ar.gamma_geometric_tail(half, half, half))
deltas = [Fraction(1, 2 ** j) for j in range(8)]
print(f"  s_n = 2^-(n+1):  gamma(1/16) = {ar.eval_gamma(geo.gamma, Fraction(1, 16))}")
print(f"  {ar.verify_gamma(geo, deltas).summary_line()}")
eager = ar.Schedule(geo.lambda_seq, geo.s_seq, geo.theta, 2, 0,
                    ar.gamma_shifted(geo.gamma, -1))
print(f"  gamma - 1 fails: {ar.verify_gamma(eager, deltas).summary_line()}")

# ---------------------------------------------------------------------------
print("\nEvery descriptor serializes to a tagged dict (the config format):")
for desc in (quad, eta1, ar.theta_linear(4), geo.gamma):
    print(f"  {ar.descriptor_to_dict(desc)}")
