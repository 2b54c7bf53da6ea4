"""The whole verification battery on one configuration, end to end.

This is what `asymreg run` and `asymreg verify-space` do under the hood:
every claim that enters a rate certificate is re-checked numerically, and
every check emits a structured report with recorded counterexamples on
failure.  The same battery is what the acceptance tests run at full scale.
"""

import dataclasses
from pathlib import Path

import asymreg as ar

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

cfg = ar.load_config(CONFIGS / "ishikawa_geometric_s_euclidean.json")
print("Configuration: Ishikawa iteration, rotation by pi in the plane,")
print("lambda = 1/2, s_n = 2^-(n+1), theta(n) = 4n, geometric-tail gamma.\n")

# ---------------------------------------------------------------------------
print("1. The space model satisfies the axioms and its convexity modulus:")
print(f"   {ar.check_space_axioms(cfg.space, samples=2_000, seed=cfg.seed).summary_line()}")
print(f"   {ar.check_uc_implication(cfg.space, samples=2_000, seed=cfg.seed).summary_line()}")

# ---------------------------------------------------------------------------
print("\n2. The mapping is nonexpansive (sampled):")
print(f"   {ar.check_nonexpansive(cfg.space, cfg.mapping, samples=1_000, seed=cfg.seed).summary_line()}")

# ---------------------------------------------------------------------------
print("\n3. The schedule witnesses check out:")
print(f"   {ar.verify_theta(cfg.schedule, n_max=2_000).summary_line()}")
deltas = [2.0 ** -j for j in range(12)]
print(f"   {ar.verify_gamma(cfg.schedule, deltas, n_max=2_000).summary_line()}")

# ---------------------------------------------------------------------------
print("\n4. Every step inequality of the averaging lemma holds on the orbit:")
traj = ar.trajectory_for(cfg, 5_000, dense=True, record_ref=True)
print(f"   {ar.check_lemma_inequalities(traj).summary_line()}")

# ---------------------------------------------------------------------------
print("\n5. The certified rates are sound on the eps grid:")
# one orbit long enough for every soundness window and delta(100)
horizon = max(max(c.window_end, c.deltas[100])
              for c in (ar.certify(cfg, eps, ks=[100]) for eps in cfg.eps_grid))
shared = ar.trajectory_for(cfg, horizon)
for eps in cfg.eps_grid:
    rr, rep = ar.check_phi_soundness(cfg, eps, trajectory=shared)
    dd, drep = ar.check_delta_witness(cfg, eps, [0, 100], trajectory=shared)
    print(f"   eps = {eps:<7} phi = {rr.phi:>8}  {rep.verdict:<6}"
          f"  delta(0) = {dd[0]:>8}  {drep.verdict}")

# ---------------------------------------------------------------------------
print("\n6. Fault injection: the battery is not a rubber stamp.  Raising one")
print("   recorded residual above the derived cap 2b is caught immediately.")
print("   The orbit repeats from step 46, so step 1500 is stored at fold(1500):")
bad = ar.trajectory_for(cfg, 2_000, dense=True, record_ref=True)
bad.residuals[bad.fold(1500)] = 2.0 * cfg.afp.b + 0.5
rep = ar.check_lemma_inequalities(bad)
print(f"   {rep.summary_line()}")
for f in rep.failures[:2]:
    print(f"     violated: {dict(f.inputs)}  lhs = {f.lhs:.6g}  rhs = {f.rhs:.6g}")

print("\n7. And a config claiming a too-small step cap downgrades honestly:")
capped = dataclasses.replace(cfg, caps=ar.Caps(max_steps=10_000))
rr, rep = ar.check_phi_soundness(capped, cfg.eps_grid[-1])
print(f"   {rep.summary_line()}")
print("   (exit code 0 with a warning, never a silent pass)")
