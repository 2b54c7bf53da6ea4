"""End-to-end acceptance checks.

Each test below is one certified claim of the library, exercised at full
scale and at the stated tolerance.  Run with ``pytest -v`` to get one
pass/fail line per criterion.  Expensive trajectories are simulated once
per module and shared between the rate-soundness, witness and residual
checks; the simulation time is charged against the rate criterion's
runtime budget.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

import asymreg as ar

from helpers import gamma_for_geometric_s, theta_for_constant_lambda

SLACK = 1e-9
EPS_GRID = (0.5, 0.25, 0.125, 0.0625)
KM_NAMES = ("rotation_pi_euclidean", "rotation_half_pi_euclidean",
            "rotation_poincare")


def _horizon(config) -> int:
    """Steps needed to cover the soundness window of every eps and
    delta(eps, k=100)."""
    need = 0
    for eps in EPS_GRID:
        rr = ar.certify(config, eps, [100])
        if rr.note is None:
            need = max(need, rr.window_end, rr.deltas[100])
    return need


@pytest.fixture(scope="module")
def audit_trajectories(golden_configs):
    start = time.perf_counter()
    trajs = {name: ar.trajectory_for(cfg, 10_000, record_ref=True)
             for name, cfg in golden_configs.items()}
    return trajs, time.perf_counter() - start


@pytest.fixture(scope="module")
def soundness_trajectories(golden_configs):
    start = time.perf_counter()
    trajs = {name: ar.trajectory_for(cfg, _horizon(cfg))
             for name, cfg in golden_configs.items()}
    return trajs, time.perf_counter() - start


# ---------------------------------------------------------------------------
# criterion 1: the space models satisfy the hyperbolic-space axioms

def test_criterion_1_space_axioms():
    start = time.perf_counter()
    for space in (ar.euclidean(2), ar.euclidean(5), ar.poincare_disk()):
        rep = ar.check_space_axioms(space, samples=10_000, seed=0)
        assert rep.passed and rep.verdict == ar.PASS, rep.to_json_dict()
        assert rep.samples == 10_000
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"axiom checks took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 2: the quadratic modulus certifies uniform convexity, and the
# checker is sharp enough to reject an overclaimed modulus

def test_criterion_2_uc_implication():
    start = time.perf_counter()
    for space in (ar.euclidean(2), ar.poincare_disk()):
        rep = ar.check_uc_implication(space, samples=10_000, seed=0)
        assert rep.passed, rep.to_json_dict()
    bad = ar.check_uc_implication(ar.euclidean(2, ar.eta_quadratic(2)),
                                  samples=10_000, seed=0)
    assert not bad.passed
    assert len(bad.failures) + bad.suppressed_failures >= 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"uc checks took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 3: every step inequality of the averaging lemma holds along
# all four golden orbits

def test_criterion_3_lemma_audit(audit_trajectories):
    trajs, _ = audit_trajectories
    assert len(trajs) >= 4
    for name, traj in trajs.items():
        assert traj.steps == 10_000
        rep = ar.check_lemma_inequalities(traj)
        assert rep.passed, f"{name}: {rep.to_json_dict()}"


# ---------------------------------------------------------------------------
# criterion 4: the certified rate phi is sound on the whole eps grid, and
# the reference configuration pins the exact closed-form values

def test_criterion_4_phi_soundness(golden_configs, soundness_trajectories):
    trajs, sim_time = soundness_trajectories
    start = time.perf_counter()
    for name, cfg in golden_configs.items():
        for eps in EPS_GRID:
            rr, rep = ar.check_phi_soundness(cfg, ar.certify(cfg, eps),
                                             trajectory=trajs[name])
            assert rep.verdict == ar.PASS, f"{name} eps={eps}: {rep.to_json_dict()}"
    ref = golden_configs["rotation_pi_euclidean"]
    ri = ar.inputs_for(0.5, ref.space.modulus, ref.afp.b, ref.schedule)
    assert (ri.b, ri.L, ri.N0) == (1.0, 1, 0)
    assert ar.eval_nat(ref.schedule.theta, 7) == 28          # theta(n) = 4n
    assert ar.eval_gamma(ref.schedule.gamma, Fraction(1, 16)) == 0
    rr = ar.compute_phi(ri)
    assert rr.P == 512 and rr.phi == 2052
    elapsed = time.perf_counter() - start
    assert sim_time + elapsed < 60.0, (
        f"rate soundness took {sim_time:.1f}s sim + {elapsed:.1f}s checks")


# ---------------------------------------------------------------------------
# criterion 5: every window [k, theta(P + k + N0)] contains a small-residual
# index, i.e. the liminf bound delta is witnessed

def test_criterion_5_delta_witness(golden_configs, soundness_trajectories):
    trajs, _ = soundness_trajectories
    for name, cfg in golden_configs.items():
        for eps in EPS_GRID:
            deltas, rep = ar.check_delta_witness(ar.certify(cfg, eps, [0, 10, 100]),
                                                 trajectory=trajs[name])
            assert rep.verdict == ar.PASS, f"{name} eps={eps}: {rep.to_json_dict()}"
            ri = ar.inputs_for(eps, cfg.space.modulus, cfg.afp.b, cfg.schedule)
            for k in (0, 10, 100):
                assert deltas[k] == ar.compute_delta(ri, k, ar.compute_p(ri))
                assert deltas[k] >= k
    ref = golden_configs["rotation_pi_euclidean"]
    ri = ar.inputs_for(0.5, ref.space.modulus, ref.afp.b, ref.schedule)
    assert ar.compute_delta(ri, 0, ar.compute_p(ri)) == 2048


# ---------------------------------------------------------------------------
# criterion 6: the divergence witness theta and the Cauchy modulus gamma
# validate for every shipped constructor, and fault injection is caught

def test_criterion_6_witness_validators():
    half = Fraction(1, 2)
    lam_half = ar.seq_constant(half)
    lam_quarter = ar.seq_constant(Fraction(1, 4))
    s_zero = ar.seq_constant(0)
    s_geo = ar.seq_geometric(half, half)
    deltas = [Fraction(1, 2 ** j) for j in range(21)]

    def sched(lam, s, theta, L, gamma):
        out = ar.Schedule(lam, s, theta, L, 0, gamma)
        ar.validate_schedule(out)
        return out

    geo_gamma = ar.gamma_geometric_tail(half, half, half)
    good = [
        # the shipped theta constructor, also as the helper builds it for a
        # constant lambda, on a matching lambda sequence
        sched(lam_half, s_zero, ar.theta_linear(4), 1, ar.gamma_zero()),
        sched(lam_half, s_zero, ar.theta_linear(4, 8), 1, ar.gamma_zero()),
        sched(lam_half, s_zero, theta_for_constant_lambda(half), 1,
              ar.gamma_zero()),
        sched(lam_quarter, s_zero, theta_for_constant_lambda(Fraction(1, 4)),
              1, ar.gamma_zero()),
        # every shipped gamma constructor, on a matching s sequence
        sched(lam_half, s_geo, ar.theta_linear(4), 2, geo_gamma),
        sched(lam_half, s_geo, ar.theta_linear(4), 2,
              gamma_for_geometric_s(half, half, lam_half)),
        sched(lam_half, s_geo, ar.theta_linear(4), 2, ar.gamma_dyadic_shift(0)),
        sched(lam_half, s_geo, ar.theta_linear(4), 2,
              ar.gamma_from_dyadic(ar.omega_affine(1, 0))),
        sched(lam_half, s_geo, ar.theta_linear(4), 2,
              ar.gamma_shifted(geo_gamma, 1)),
    ]
    for schedule in good:
        rep = ar.verify_theta(schedule, n_max=10_000)
        assert rep.passed, rep.to_json_dict()
        rep = ar.verify_gamma(schedule, deltas)
        assert rep.passed, rep.to_json_dict()

    # fault injection: theta divided by 8 no longer witnesses divergence
    slow = ar.Schedule(lam_half, s_zero, ar.theta_linear(half), 1, 0,
                       ar.gamma_zero())
    assert not ar.verify_theta(slow, n_max=10_000).passed
    # fault injection: gamma lowered by 1 admits a too-early window
    eager = ar.Schedule(lam_half, s_geo, ar.theta_linear(4), 2, 0,
                        ar.gamma_shifted(geo_gamma, -1))
    assert not ar.verify_gamma(eager, deltas).passed


# ---------------------------------------------------------------------------
# criterion 7: the modulus conversions produce objects that still satisfy
# their defining implications on fresh random data

def test_criterion_7_modulus_conversions():
    # eta -> eta1 -> eta round trip is still a valid convexity modulus
    round_trip = ar.eta1_to_eta(ar.eta_to_eta1(ar.eta_quadratic()))
    for space in (ar.euclidean(2, round_trip), ar.poincare_disk(round_trip)):
        rep = ar.check_uc_implication(space, samples=10_000, seed=0)
        assert rep.passed, rep.to_json_dict()

    eta2 = ar.eta3_to_eta2(ar.eta3_affine(2, 3))
    rep = ar.check_dyadic_uc_implication(ar.euclidean(2), eta2,
                                         conclusion_strict=False,
                                         samples=10_000, seed=0)
    assert rep.passed, rep.to_json_dict()

    eta1 = ar.eta2_to_eta1(eta2)
    rep = ar.check_dyadic_uc_implication(ar.euclidean(2), eta1,
                                         conclusion_strict=True,
                                         samples=10_000, seed=1)
    assert rep.passed, rep.to_json_dict()


# ---------------------------------------------------------------------------
# criterion 8: the certified rate depends only on the numeric inputs
# (eps, eta, b, N0, L, theta, gamma), never on the space or mapping

def test_criterion_8_uniformity(golden_configs):
    for eps in EPS_GRID:
        inputs, reports, blobs = [], [], []
        for name in KM_NAMES:
            cfg = golden_configs[name]
            inputs.append(ar.inputs_for(eps, cfg.space.modulus, cfg.afp.b,
                                        cfg.schedule))
            rr = ar.certify(cfg, eps, (0, 10, 100))
            assert not rr.delta_errors and len(rr.deltas) == 3
            reports.append(rr)
            blobs.append(json.dumps(rr.to_json_dict(), sort_keys=True))
        assert inputs[0] == inputs[1] == inputs[2]
        assert reports[0] == reports[1] == reports[2]
        assert blobs[0] == blobs[1] == blobs[2]


# ---------------------------------------------------------------------------
# criterion 9: along every certified trajectory the residual never exceeds
# the derived bound 2b

def test_criterion_9_residual_cap(audit_trajectories, soundness_trajectories):
    checked = 0
    for trajs, _ in (audit_trajectories, soundness_trajectories):
        for name, traj in trajs.items():
            assert traj.afp is not None
            cap = 2.0 * traj.afp.b + SLACK
            worst = float(np.max(traj.residuals))
            assert worst <= cap, f"{name}: residual {worst} exceeds {cap}"
            checked += traj.steps + 1
    assert checked > 8_000_000
