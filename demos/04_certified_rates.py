"""Computing certified rates of asymptotic regularity.

Given a target eps, a convexity modulus eta, a bound b on the distance to an
approximate fixed point, and the schedule witnesses (theta, gamma, L, N0),
the library returns an index phi with the guarantee

    d(x_n, T x_n) <= eps     for every n >= phi,

valid for ANY nonexpansive mapping and ANY orbit matching those inputs --
the rate never looks at the space, the mapping, or the trajectory.  It also
returns delta(k) = theta(P + k + N0), a window bound ensuring some index in
[k, delta(k)] already has a small residual.
"""

import json
from fractions import Fraction
from pathlib import Path

import asymreg as ar

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# ---------------------------------------------------------------------------
print("The reference configuration: lambda = 1/2, s = 0, theta(n) = 4n,")
print("gamma = 0, b = 1, L = 1, eps = 1/2, quadratic modulus eps^2/8.")
sched = ar.Schedule(ar.seq_constant("1/2"), ar.seq_constant(0),
                    ar.theta_linear(4), 1, 0, ar.gamma_zero())
ri = ar.inputs_for(0.5, ar.eta_quadratic(), 1.0, sched)
rr = ar.compute_phi(ri)
print(f"  P      = {rr.P}     (ceil of L(b+1) / (eps eta(b+1, eps/L(b+1))))")
print(f"  gamma0 = {rr.gamma0}")
print(f"  phi    = {rr.phi}   = theta(P + gamma0 + 1 + N0) = 4 * 513")
for k in (0, 10, 100):
    print(f"  delta({k:3d}) = {ar.compute_delta(ri, k)}")

# ---------------------------------------------------------------------------
print("\nThe same computation runs over exact rationals when eps is rational:")
ri_exact = ar.inputs_for(Fraction(1, 10), ar.eta_quadratic(), 1.0, sched)
rr_exact = ar.compute_phi(ri_exact)
print(f"  eps = 1/10  ->  P = {rr_exact.P}, phi = {rr_exact.phi}")

# ---------------------------------------------------------------------------
print("\nA larger modulus certifies a smaller P (here: the Hilbert modulus):")
ri_h = ar.inputs_for(0.5, ar.eta_hilbert(), 1.0, sched)
print(f"  quadratic: P = {rr.P};  hilbert: P = {ar.compute_phi(ri_h).P}")
print("The Hilbert modulus 1 - sqrt(1 - eps^2/4) is irrational, and in floats")
print("it cancels for small eps.  P is computed on u / (1 + s), u = eps^2/4,")
print("with s >= sqrt(1 - u) from an integer square root, so it is the exact")
print("ceiling or one above it, never below:")
for eps in (1e-3, 1e-6, 1e-8):
    ri_small = ar.inputs_for(eps, ar.eta_hilbert(), 1.0, sched)
    print(f"  eps = {eps:g}:  P = {ar.compute_p(ri_small):,}")

# ---------------------------------------------------------------------------
print("\nFrom a config, certify() is the one entry point: it applies the")
print("shortcut eps > 2b, computes phi and delta(k), and bounds the soundness")
print("window [phi, phi + 1000] by the step cap.")
cfg = ar.load_config(CONFIGS / "rotation_half_pi_euclidean.json")
for eps in (3.0, 0.5):
    c = ar.certify(cfg, eps, ks=[0, 100])
    print(f"  eps = {eps:<4}  phi = {c.phi:>5}  deltas = {c.deltas}  "
          f"window end = {c.window_end}  cap = {c.step_cap:,}"
          + (f"  ({c.note})" if c.note else ""))

# ---------------------------------------------------------------------------
print("\nSoundness at desk scale: simulate an orbit matching the inputs and")
print("verify the residual really is below eps on the window [phi, phi+1000].")
for eps in (0.5, 0.25, 0.125):
    rrate, rep = ar.check_phi_soundness(cfg, eps)
    hit = rrate.empirical_first_hit
    print(f"  eps = {eps:<6}  phi = {rrate.phi:>7}  first residual < eps at"
          f" n = {hit}  [{rep.verdict.upper()}]")
print("  phi is a worst-case certificate over every mapping with these")
print("  inputs, so it can sit far above the first hit of one easy orbit.")

# ---------------------------------------------------------------------------
print("\nThe full rate report serializes to JSON:")
rrate, _ = ar.check_phi_soundness(cfg, 0.5)
print("  " + json.dumps(rrate.to_json_dict(), sort_keys=True))
