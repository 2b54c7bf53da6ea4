import dataclasses

import numpy as np
import pytest

import asymreg as ar
from asymreg.geometry import raw_ops

E2 = ar.euclidean(2)
E5 = ar.euclidean(5)
D = ar.poincare_disk()


# ---------------------------------------------------------------------------
# axioms

def test_space_axioms_pass_all_models():
    for space in (E2, E5, D):
        rep = ar.check_space_axioms(space, samples=600, seed=1)
        assert rep.passed and rep.verdict == ar.PASS, rep.to_json()


def test_space_axioms_catch_broken_combine():
    combine_fn = raw_ops(E2)[1]

    def bad(x, y, lam):
        return combine_fn(x, y, lam * lam)
    rep = ar.check_space_axioms(E2, samples=300, seed=3, combine_override=bad)
    assert not rep.passed
    axioms = {dict(f.inputs)["axiom"] for f in rep.failures}
    assert "W2" in axioms


def test_space_axioms_deterministic():
    a = ar.check_space_axioms(D, samples=200, seed=42)
    b = ar.check_space_axioms(D, samples=200, seed=42)
    assert a.to_json() == b.to_json()


# ---------------------------------------------------------------------------
# uniform convexity

def test_uc_implication_passes_both_models():
    for space in (E2, D):
        rep = ar.check_uc_implication(space, samples=800, seed=2)
        assert rep.passed, rep.to_json()
        assert rep.samples > 700


def test_uc_implication_rejects_optimistic_modulus():
    rep = ar.check_uc_implication(E2, samples=2000, seed=7,
                                  eta=ar.eta_quadratic(2))
    assert not rep.passed
    assert len(rep.failures) >= 1


def test_uc_implication_hilbert_modulus_on_disk():
    # the inner-product modulus is valid on the disk as well
    rep = ar.check_uc_implication(D, samples=800, seed=5, eta=ar.eta_hilbert())
    assert rep.passed, rep.to_json()


def test_dyadic_implication_strict_and_weak():
    strict = ar.check_dyadic_uc_implication(
        E2, ar.eta_to_eta1(ar.eta_quadratic()), conclusion_strict=True,
        samples=1000, seed=0)
    assert strict.passed, strict.to_json()
    weak = ar.check_dyadic_uc_implication(
        E2, ar.eta3_to_eta2(ar.eta3_affine(2, 3)), conclusion_strict=False,
        samples=1000, seed=1)
    assert weak.passed, weak.to_json()
    # constructed half of the samples must activate the premise
    assert any("activations" in n for n in strict.notes)
    acts = int(strict.notes[0].split()[2])
    assert acts >= 500


def test_dyadic_implication_needs_euclidean():
    with pytest.raises(ValueError):
        ar.check_dyadic_uc_implication(D, ar.eta1_affine(2, 3), True)


def test_dyadic_implication_rejects_optimistic_eta1():
    # eta1 = 1 claims far too much contraction
    rep = ar.check_dyadic_uc_implication(E2, ar.eta1_affine(0, 1),
                                         conclusion_strict=True,
                                         samples=1000, seed=2)
    assert not rep.passed


# ---------------------------------------------------------------------------
# mapping checks

def test_nonexpansive_catalog():
    cases = [(E2, ar.euclidean_rotation((0.0, 0.0), 2.0)),
             (E2, ar.euclidean_reflection_average((1.0, 0.0))),
             (E2, ar.metric_projection((0.0, 0.0), 1.0)),
             (D, ar.poincare_rotation((0.2, 0.1), 1.0)),
             (D, ar.metric_projection((0.0, 0.0), 0.5))]
    for space, m in cases:
        rep = ar.check_nonexpansive(space, m, samples=300, seed=0)
        assert rep.passed, (m.kind, rep.to_json())


def test_omega_majorization_pass_and_fail():
    m = ar.euclidean_rotation((0.0, 0.0), 2.0)
    x = ar.make_point(E2, (0.25, -0.5))
    good = ar.check_omega_majorization(E2, m, x, ar.omega_for_nonexpansive(3),
                                       samples=300, seed=1)
    assert good.passed
    bad = ar.check_omega_majorization(E2, m, x, ar.omega_affine(0, 0),
                                      samples=300, seed=1)
    assert not bad.passed


# ---------------------------------------------------------------------------
# orbit audits

def test_lemma_inequalities_dense_and_fallback(disk_config):
    dense = ar.trajectory_for(disk_config, 1500, record_ref=True)
    rep = ar.check_lemma_inequalities(dense)
    assert rep.passed, rep.to_json()
    # without reference distances the audit checks (a), (b) and the cap only
    bare = ar.trajectory_for(disk_config, 1500)
    assert bare.ref_point is None and bare.ref_distances is None
    rep = ar.check_lemma_inequalities(bare)
    assert rep.passed, rep.to_json()


def test_lemma_inequalities_catch_doctored_orbit(km_config):
    traj = ar.trajectory_for(km_config, 500, record_ref=True)
    assert traj.fold(100) == 20    # x_n is fixed from 20 on
    traj.residuals[traj.fold(100)] = 10.0   # breaks (b) at n=19 and the 2b cap
    rep = ar.check_lemma_inequalities(traj)
    assert not rep.passed
    kinds = {dict(f.inputs)["inequality"] for f in rep.failures}
    assert "b" in kinds and "residual-cap" in kinds


def test_lemma_inequalities_catch_bad_reference_distances(km_config):
    traj = ar.trajectory_for(km_config, 300, record_ref=True)
    k = traj.fold(200)             # 20, where x_n is fixed from
    traj.ref_distances[k] = traj.ref_distances[k - 1] + 1.0
    rep = ar.check_lemma_inequalities(traj)
    kinds = {dict(f.inputs)["inequality"] for f in rep.failures}
    assert "c-step" in kinds


# ---------------------------------------------------------------------------
# rate soundness

def test_phi_soundness_small_case(km_config):
    rr, rep = ar.check_phi_soundness(km_config, 0.5)
    assert rep.passed and rep.verdict == ar.PASS
    assert (rr.P, rr.phi) == (512, 2052)
    assert rr.empirical_first_hit is not None
    assert rr.tightness_ratio == rr.phi / max(1, rr.empirical_first_hit)


def test_phi_soundness_shortcut(km_config):
    rr, rep = ar.check_phi_soundness(km_config, 3.0)
    assert rep.passed
    assert rr.phi == 0


def test_phi_soundness_unverified_at_scale(km_config):
    small = dataclasses.replace(km_config, caps=ar.Caps(max_steps=1000))
    rr, rep = ar.check_phi_soundness(small, 0.5)
    assert rep.verdict == ar.UNVERIFIED_AT_SCALE
    assert rep.passed                      # warn, not fail
    assert rr.phi == 2052


def test_phi_soundness_rejects_doctored_orbit(km_config):
    traj = ar.trajectory_for(km_config, 3052)
    # x_n is fixed from 20 on, so index 20 holds every index of the window
    # [phi, phi + 1000] = [2052, 3052]
    traj.residuals[traj.fold(2500)] = 1.0
    rr, rep = ar.check_phi_soundness(km_config, 0.5, trajectory=traj)
    assert not rep.passed
    assert dict(rep.failures[0].inputs)["n"] == 2052
    assert len(rep.failures) + rep.suppressed_failures == 1001


def test_phi_soundness_fails_on_broken_theta(km_config):
    sched = km_config.schedule
    bad = dataclasses.replace(
        km_config,
        schedule=ar.Schedule(sched.lambda_seq, sched.s_seq,
                             ar.theta_linear("1/2"),
                             sched.L, sched.N0, sched.gamma))
    rr, rep = ar.check_phi_soundness(bad, 0.5)
    assert not rep.passed


def test_delta_witness_small_case(km_config):
    deltas, rep = ar.check_delta_witness(km_config, 0.5, [0, 10, 100])
    assert rep.passed
    assert deltas == {0: 2048, 10: 2088, 100: 2448}
    assert len(rep.notes) == 3


def test_delta_witness_unverified_at_scale(km_config):
    small = dataclasses.replace(km_config, caps=ar.Caps(max_steps=1000))
    deltas, rep = ar.check_delta_witness(small, 0.5, [0])
    assert rep.verdict == ar.UNVERIFIED_AT_SCALE
    assert deltas == {0: 2048}


def test_delta_witness_rejects_flat_orbit(disk_config):
    deltas, _ = ar.check_delta_witness(disk_config, 0.25, [0])
    traj = ar.trajectory_for(disk_config, deltas[0])
    traj.residuals[:] = 1.0
    _, rep = ar.check_delta_witness(disk_config, 0.25, [0], trajectory=traj)
    assert not rep.passed


def test_delta_witness_reports_a_failing_k_and_checks_the_rest(km_config):
    # theta = 0: delta(0) = 0 is a window of one index, delta(10) = 0 < 10
    sched = dataclasses.replace(km_config.schedule, theta=ar.theta_linear(0))
    flat = dataclasses.replace(km_config, schedule=sched)
    deltas, rep = ar.check_delta_witness(flat, 0.5, [0, 10])
    assert deltas == {0: 0}
    assert rep.samples == 1
    errors = [dict(f.inputs) for f in rep.failures if "error" in dict(f.inputs)]
    assert len(errors) == 1 and errors[0]["k"] == 10
    assert "theta is not a divergence witness" in errors[0]["error"]
    # x_0 is far from the centre: the window [0, 0] misses eps
    assert [dict(f.inputs) for f in rep.failures if "error" not in dict(f.inputs)] \
        == [{"k": 0, "delta": 0}]


def test_certify_main_formula(km_config):
    rr = ar.certify(km_config, 0.5, [100, 0, 10, 10])
    assert (rr.P, rr.gamma0, rr.phi) == (512, 0, 2052)
    assert rr.deltas == {0: 2048, 10: 2088, 100: 2448}
    assert rr.step_cap == ar.HARD_STEP_CAP
    assert rr.window_end == 2052 + ar.SOUNDNESS_WINDOW
    assert rr.note is None and rr.delta_errors == {}


def test_certify_shortcut(km_config):
    # b = 1: every residual is at most 2 < eps
    rr = ar.certify(km_config, 3.0, [0, 7])
    assert (rr.P, rr.gamma0, rr.phi) == (0, 0, 0)
    assert rr.deltas == {0: 0, 7: 7}
    assert rr.note == "eps exceeds the residual cap 2b"
    assert rr.window_end == ar.SOUNDNESS_WINDOW


@pytest.mark.parametrize("eps", [3.0, 0.5])
def test_certify_rejects_a_negative_k_before_the_shortcut(km_config, eps):
    rr = ar.certify(km_config, eps, [-5, 0])
    assert list(rr.deltas) == [0]
    assert {k: str(exc) for k, exc in rr.delta_errors.items()} == \
        {-5: "k must be a natural"}


def test_certify_caps_the_window(km_config):
    small = dataclasses.replace(km_config, caps=ar.Caps(max_steps=2500))
    rr = ar.certify(small, 0.5)
    assert (rr.phi, rr.step_cap, rr.window_end) == (2052, 2500, 2500)
    huge = dataclasses.replace(km_config, caps=ar.Caps(max_steps=10 * ar.HARD_STEP_CAP))
    assert ar.certify(huge, 0.5).step_cap == ar.HARD_STEP_CAP


def test_certify_reads_no_orbit(golden_configs):
    # the rates depend on (eps, eta, b, L, N0, theta, gamma) alone
    cfg = golden_configs["rotation_pi_euclidean"]
    other = dataclasses.replace(golden_configs["rotation_poincare"],
                                caps=cfg.caps)
    assert ar.certify(cfg, 0.125, [5]) == ar.certify(other, 0.125, [5])


def test_reports_are_deterministic_json(km_config):
    _, a = ar.check_phi_soundness(km_config, 0.5)
    _, b = ar.check_phi_soundness(km_config, 0.5)
    assert a.to_json() == b.to_json()


def test_sample_point_targets_regions():
    rng_pts = [ar.sample_point(E5, __import__("random").Random(f"{i}")) for i in range(50)]
    assert all(sum(c * c for c in p.coords) <= 100.0 + 1e-9 for p in rng_pts)
    origin = ar.make_point(D, (0.0, 0.0))
    for i in range(50):
        p = ar.sample_point(D, __import__("random").Random(i))
        assert ar.dist(D, origin, p) <= 5.0 + 1e-9
    x = ar.make_point(D, (0.3, 0.2))
    for i in range(50):
        y = ar.sample_point_near(D, __import__("random").Random(i), x, 2.0)
        assert ar.dist(D, x, y) <= 2.0 + 1e-9
