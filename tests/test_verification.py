import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import asymreg as ar
from asymreg import cli, iteration, verification
from asymreg.geometry import array_ops, raw_ops, raw_points
from asymreg.verification import _draw_block

from helpers import eval_eta

E2 = ar.euclidean(2)
E5 = ar.euclidean(5)
D = ar.poincare_disk()


# ---------------------------------------------------------------------------
# axioms

def test_space_axioms_pass_all_models():
    for space in (E2, E5, D):
        rep = ar.check_space_axioms(space, samples=600, seed=1)
        assert rep.passed and rep.verdict == ar.PASS, rep.to_json_dict()


def test_space_axioms_catch_broken_combine():
    combine_fn = array_ops(E2)[1]

    def bad(x, y, lam):
        return combine_fn(x, y, lam * lam)
    rep = ar.check_space_axioms(E2, samples=300, seed=3, combine_override=bad)
    assert not rep.passed
    axioms = {dict(f.inputs)["axiom"] for f in rep.failures}
    assert "W2" in axioms


def test_space_axioms_deterministic():
    a = ar.check_space_axioms(D, samples=200, seed=42)
    b = ar.check_space_axioms(D, samples=200, seed=42)
    assert a.to_json_dict() == b.to_json_dict()
    draws = [_draw_block(D, verification._rng(seed, "space-axioms"), (5,), 1.0)
             for seed in (42, 43)]
    assert not np.array_equal(*draws)


# ---------------------------------------------------------------------------
# uniform convexity

def test_uc_implication_passes_both_models():
    for space in (E2, D):
        rep = ar.check_uc_implication(space, samples=800, seed=2)
        assert rep.passed, rep.to_json_dict()
        assert rep.samples > 700


def test_uc_implication_rejects_optimistic_modulus():
    rep = ar.check_uc_implication(ar.euclidean(2, ar.eta_quadratic(2)), samples=2000, seed=7)
    assert not rep.passed
    assert len(rep.failures) >= 1


def test_uc_implication_hilbert_modulus_on_disk():
    # the inner-product modulus is valid on the disk as well
    rep = ar.check_uc_implication(ar.poincare_disk(ar.eta_hilbert()), samples=800, seed=5)
    assert rep.passed, rep.to_json_dict()


def test_dyadic_implication_strict_and_weak():
    strict = ar.check_dyadic_uc_implication(
        E2, ar.eta_to_eta1(ar.eta_quadratic()), conclusion_strict=True,
        samples=1000, seed=0)
    assert strict.passed, strict.to_json_dict()
    weak = ar.check_dyadic_uc_implication(
        E2, ar.eta3_to_eta2(ar.eta3_affine(2, 3)), conclusion_strict=False,
        samples=1000, seed=1)
    assert weak.passed, weak.to_json_dict()
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
             (D, ar.metric_projection((0.0, 0.0), 0.5)),
             # a ClosedBall domain: the pairs are drawn inside it
             (E2, ar.euclidean_rotation((0.0, 0.0), 1.0, ar.closed_ball((0.0, 0.0), 1.0))),
             (D, ar.metric_projection((0.0, 0.0), 0.5, ar.closed_ball((0.0, 0.0), 2.0)))]
    for space, m in cases:
        rep = ar.check_nonexpansive(space, m, samples=300, seed=0)
        assert rep.passed, (m.kind, rep.to_json_dict())


@pytest.mark.parametrize("space, center", [(E2, (3.0, -1.0)), (D, (0.4, -0.3))],
                         ids=["E2", "disk"])
def test_nonexpansive_draws_its_pairs_inside_the_domain_ball(monkeypatch, space, center):
    seen = []
    monkeypatch.setattr(verification, "raw_apply_fn",
                        lambda space, m: lambda z: seen.append(z) or z)
    m = ar.identity(ar.closed_ball(center, 0.5))
    assert ar.check_nonexpansive(space, m, samples=100, seed=0).passed
    assert len(seen) == 200
    assert all(ar.in_domain(space, m, ar.Point(space.kind, z)) for z in seen)


def test_nonexpansive_fails_a_map_that_leaves_its_domain_ball():
    # the rotation about the origin moves the ball about (3, -1) off itself
    m = ar.euclidean_rotation((0.0, 0.0), 1.0, ar.closed_ball((3.0, -1.0), 0.5))
    rep = ar.check_nonexpansive(E2, m, samples=1000, seed=0)
    assert rep.verdict == ar.FAIL
    assert {dict(f.inputs)["inequality"] for f in rep.failures} == {"self-map"}
    assert len(rep.failures) + rep.suppressed_failures == 1000


def test_nonexpansive_fails_an_expanding_map(monkeypatch):
    monkeypatch.setattr(verification, "raw_apply_fn", lambda space, m: lambda z: 2.0 * z)
    rep = ar.check_nonexpansive(E2, ar.identity(), samples=50, seed=0)
    assert rep.verdict == ar.FAIL and rep.failures


# ---------------------------------------------------------------------------
# orbit audits

def test_lemma_inequalities_dense_and_fallback(disk_config):
    dense = ar.trajectory_for(disk_config, 1500, record_ref=True)
    rep = ar.check_lemma_inequalities(dense)
    assert rep.passed, rep.to_json_dict()
    # without reference distances the audit checks (a), (b) and the cap only
    bare = ar.trajectory_for(disk_config, 1500)
    assert bare.ref_point is None and bare.ref_distances is None
    rep = ar.check_lemma_inequalities(bare)
    assert rep.passed, rep.to_json_dict()


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

def _phi_soundness(config, eps):
    """check_phi_soundness on an orbit that covers the soundness window."""
    rr = ar.certify(config, eps)
    return ar.check_phi_soundness(config, rr, ar.trajectory_for(config, rr.window_end))


def _delta_witness(config, eps, ks):
    """certify's deltas and check_delta_witness on an orbit that covers
    every delta(k)."""
    rr = ar.certify(config, eps, ks)
    return ar.check_delta_witness(rr, ar.trajectory_for(config, max(rr.deltas.values())))


def test_phi_soundness_small_case(km_config):
    rr, rep = _phi_soundness(km_config, 0.5)
    assert rep.passed and rep.verdict == ar.PASS
    assert (rr.P, rr.phi) == (512, 2052)
    assert rr.empirical_first_hit is not None
    assert rr.tightness_ratio == rr.phi / max(1, rr.empirical_first_hit)


def test_phi_soundness_shortcut(km_config):
    rr, rep = _phi_soundness(km_config, 3.0)
    assert rep.passed
    assert rr.phi == 0


def test_phi_soundness_unverified_at_scale(km_config):
    small = dataclasses.replace(km_config, caps=ar.Caps(max_steps=1000))
    rr, rep = ar.check_phi_soundness(small, ar.certify(small, 0.5), None)
    assert rep.verdict == ar.UNVERIFIED_AT_SCALE
    assert rep.passed                      # warn, not fail
    assert rr.phi == 2052


def test_phi_soundness_rejects_doctored_orbit(km_config):
    traj = ar.trajectory_for(km_config, 3052)
    # x_n is fixed from 20 on, so index 20 holds every index of the window
    # [phi, phi + 1000] = [2052, 3052]
    traj.residuals[traj.fold(2500)] = 1.0
    rr, rep = ar.check_phi_soundness(km_config, ar.certify(km_config, 0.5),
                                     trajectory=traj)
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
    rr, rep = ar.check_phi_soundness(bad, ar.certify(bad, 0.5), None)
    assert not rep.passed


def test_delta_witness_small_case(km_config):
    deltas, rep = _delta_witness(km_config, 0.5, [0, 10, 100])
    assert rep.passed
    assert deltas == {0: 2048, 10: 2088, 100: 2448}
    assert len(rep.notes) == 3


def test_delta_witness_unverified_at_scale(km_config):
    small = dataclasses.replace(km_config, caps=ar.Caps(max_steps=1000))
    deltas, rep = ar.check_delta_witness(ar.certify(small, 0.5, [0]), None)
    assert rep.verdict == ar.UNVERIFIED_AT_SCALE
    assert deltas == {0: 2048}


def test_delta_witness_rejects_flat_orbit(disk_config):
    rr = ar.certify(disk_config, 0.25, [0])
    traj = ar.trajectory_for(disk_config, rr.deltas[0])
    traj.residuals[:] = 1.0
    _, rep = ar.check_delta_witness(rr, trajectory=traj)
    assert not rep.passed


def test_delta_witness_reports_a_failing_k_and_checks_the_rest(km_config):
    # theta = 0: delta(0) = 0 is a window of one index, delta(10) = 0 < 10
    sched = dataclasses.replace(km_config.schedule, theta=ar.theta_linear(0))
    flat = dataclasses.replace(km_config, schedule=sched)
    deltas, rep = _delta_witness(flat, 0.5, [0, 10])
    assert deltas == {0: 0}
    assert rep.samples == 1
    errors = [dict(f.inputs) for f in rep.failures if "error" in dict(f.inputs)]
    assert len(errors) == 1 and errors[0]["k"] == 10
    assert "theta is not a divergence witness" in errors[0]["error"]
    # x_0 is far from the centre: the window [0, 0] misses eps
    assert [dict(f.inputs) for f in rep.failures if "error" not in dict(f.inputs)] \
        == [{"k": 0, "delta": 0}]


def test_the_rate_checks_only_read_the_orbit_and_rates_they_are_given(km_config, monkeypatch):
    rr = ar.certify(km_config, 0.5, [0, 10, 100])
    traj = ar.trajectory_for(km_config, rr.window_end)     # 3052 >= delta(100) = 2448

    def forbidden(*args, **kwargs):
        raise AssertionError("a check simulated or certified")
    for module, name in ((verification, "run_trajectory"), (iteration, "run_trajectory"),
                         (verification, "trajectory_for"), (verification, "certify"),
                         (ar, "certify")):
        monkeypatch.setattr(module, name, forbidden)
    rr, rep = ar.check_phi_soundness(km_config, rr, traj)
    assert rep.verdict == ar.PASS and rr.empirical_first_hit is not None
    deltas, rep = ar.check_delta_witness(rr, traj)
    assert rep.verdict == ar.PASS and len(rep.notes) == 3
    assert deltas == {0: 2048, 10: 2088, 100: 2448}


def test_the_rate_checks_refuse_an_orbit_that_ends_before_their_window(km_config):
    rr = ar.certify(km_config, 0.5, [0])
    for orbit in (ar.trajectory_for(km_config, rr.window_end - 1), None):
        with pytest.raises(ValueError, match="soundness window reads step 3052"):
            ar.check_phi_soundness(km_config, rr, orbit)
    for orbit in (ar.trajectory_for(km_config, rr.deltas[0] - 1), None):
        with pytest.raises(ValueError, match="delta witness reads step 2048"):
            ar.check_delta_witness(rr, orbit)


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
    _, a = _phi_soundness(km_config, 0.5)
    _, b = _phi_soundness(km_config, 0.5)
    assert a.to_json_dict() == b.to_json_dict()


@pytest.mark.parametrize("space", [E5, D], ids=["E5", "disk"])
def test_draw_targets_regions(space):
    d = raw_ops(space)[0]
    origin = ar.make_point(space, (0.0,) * space.dim)
    center = ar.make_point(space, (0.3, 0.2) + (0.0,) * (space.dim - 2))
    for c, radius in ((None, verification._SAMPLE_RADIUS[space.kind]), (center, 2.0)):
        block = _draw_block(space, verification._rng(7, "draw"), (50,), radius, c)
        dists = [d((origin if c is None else c).raw, z) for z in raw_points(space, block)]
        assert max(dists) <= radius + 1e-9
        assert max(dists) > radius / 2


# ---------------------------------------------------------------------------
# the batched engine against the scalar kernels

U = 2.0 ** -53
# Two sampled points lie at most 2 R apart, R the sampling radius.  On the
# disk d = 2 artanh |w| for the Mobius translate w, and an ulp of |w| moves d
# by up to 2u cosh^2(d/2): the batch and the scalar kernels round |w|
# differently, so they agree to that, not to a few ulp of d.
SCALE = {ar.EUCLIDEAN: 2 * verification.EUCLID_SAMPLE_RADIUS,
         ar.POINCARE_DISK: 2 * math.cosh(verification.DISK_SAMPLE_RADIUS) ** 2}


def assert_close(space, batch, scalar):
    """batch within 8 ulp of scalar, or within 8u SCALE; NaN where scalar is."""
    batch, scalar = np.broadcast_arrays(batch, np.asarray(scalar, dtype=float))
    assert np.array_equal(np.isnan(batch), np.isnan(scalar))
    batch, scalar = batch[~np.isnan(scalar)], scalar[~np.isnan(scalar)]
    tol = 8 * np.spacing(np.abs(scalar)) + 8 * U * SCALE[space.kind]
    worst = np.max(np.abs(batch - scalar) - tol)
    assert worst <= 0.0, worst


def _capture(monkeypatch):
    """Record every block the checks draw and every comparison they make."""
    draws, terms = [], {}
    for name in ("_draw_block", "_near_threshold_block"):
        fn = getattr(verification, name)
        monkeypatch.setattr(verification, name, lambda *args, _fn=fn:
                            draws.append(_fn(*args)) or draws[-1])
    bulk_fail = verification._bulk_fail

    def capture(report, label, lhs, rhs, slack, *args, **drawn):
        terms[tuple(label.values())] = lhs, rhs, drawn
        bulk_fail(report, label, lhs, rhs, slack, *args, **drawn)
    monkeypatch.setattr(verification, "_bulk_fail", capture)
    return draws, terms


@pytest.mark.parametrize("space", [E2, E5, D], ids=["E2", "E5", "disk"])
def test_batch_terms_match_the_scalar_kernels(monkeypatch, space):
    n = 2000
    d, dist_combine = raw_ops(space)
    draws, terms = _capture(monkeypatch)

    def comb(x, y, t):
        return dist_combine(x, y, t)[1]

    assert ar.check_space_axioms(space, samples=n, seed=11).passed
    x, y, z, w = (raw_points(space, block) for block in draws[0])
    lam, lam2 = terms[("W2",)][2]["lam"], terms[("W2",)][2]["lam2"]
    scalar = {key: [] for key in terms}
    for i in range(n):
        dxy, dxz, dyz = d(x[i], y[i]), d(x[i], z[i]), d(y[i], z[i])
        l, l2 = lam[i], lam2[i]
        w_l, w_l2 = comb(x[i], y[i], l), comb(x[i], y[i], l2)
        for key, pair in (
                ("nonnegative", (0.0, dxy)),
                ("identity", (d(x[i], x[i]), 0.0)),
                ("symmetry", (d(y[i], x[i]), dxy)),
                ("triangle", (dxz, dxy + dyz)),
                ("W1", (d(z[i], w_l), (1 - l) * dxz + l * dyz)),
                ("W2", (d(w_l, w_l2), abs(l - l2) * dxy)),
                ("W3", (d(w_l, comb(y[i], x[i], 1 - l)), 0.0)),
                ("W4", (d(comb(x[i], z[i], l), comb(y[i], w[i], l)),
                        (1 - l) * dxy + l * d(z[i], w[i])))):
            scalar[(key,)].append(pair)
    for key, (lhs, rhs, _) in terms.items():
        assert_close(space, lhs, [p[0] for p in scalar[key]])
        assert_close(space, rhs, [p[1] for p in scalar[key]])

    draws.clear()
    terms.clear()
    assert ar.check_uc_implication(space, samples=n, seed=11).passed
    # the check moved the even x and y onto the sphere of radius r about a
    # in the drawn block itself
    a, x, y = (raw_points(space, block) for block in draws[0])
    lhs, bound, drawn = terms[("midpoint",)]
    r, eps = drawn["r"], drawn["eps"]
    even = range(0, n, 2)
    assert_close(space, r[::2], [d(x[i], a[i]) for i in even])
    assert_close(space, r[::2], [d(y[i], a[i]) for i in even])
    assert_close(space, eps[::2], [d(x[i], y[i]) / r[i] for i in even])
    assert all(r[i] >= max(d(x[i], a[i]), d(y[i], a[i])) and eps[i] <= d(x[i], y[i]) / r[i]
               for i in range(1, n, 2))
    assert_close(space, lhs, [d(comb(x[i], y[i], 0.5), a[i]) for i in range(n)])
    assert_close(space, bound, [(1 - eval_eta(space.modulus, r, e)) * r
                                for r, e in zip(drawn["r"], drawn["eps"])])
    lhs, bound, drawn = terms[("general-lambda",)]
    assert_close(space, lhs, [d(comb(x[i], y[i], drawn["lam"][i]), a[i]) for i in range(n)])
    assert_close(space, bound, [(1 - 2 * l * (1 - l) * eval_eta(space.modulus, s, e)) * r
                                for r, s, e, l in zip(drawn["r"], drawn["s"], drawn["eps"],
                                                      drawn["lam"])])

    if space.kind != ar.EUCLIDEAN:
        return
    draws.clear()
    terms.clear()
    eta1 = ar.eta_to_eta1(space.modulus)
    assert ar.check_dyadic_uc_implication(space, eta1, True, samples=n, seed=11).passed
    random_triples = [raw_points(space, block) for block in draws[0]]
    near_triples = [raw_points(space, block) for block in draws[2][:3]]
    # random triples at the even indices, near-threshold ones at the odd
    a, x, y = ([p for pair in zip(even, odd) for p in pair]
               for even, odd in zip(random_triples, near_triples))
    lhs, rhs, drawn = terms[()]
    k, r = drawn["k"], drawn["r"]
    active = [d(comb(x[i], y[i], 0.5), a[i]) > (1 - 2.0 ** -ar.eval_eta1(eta1, r[i], k[i])) * r[i]
              for i in range(n)]
    assert sum(active) >= n // 2           # every near-threshold triple
    assert_close(space, lhs, [d(x[i], y[i]) if active[i] else math.nan for i in range(n)])
    assert_close(space, rhs, [2.0 ** -int(k[i]) * r[i] for i in range(n)])


# perfbench's certify workload: verify-space at 100 samples (20 in its tiny
# self-test round) on these space/modulus pairs, and its injected fault,
# eta = eps^2 on the disk.  eps^2/7 overclaims the plane's exact modulus
# 1 - sqrt(1 - eps^2/4) for eps < 1.51, by less than eps^2/56: of 500
# seeds at 20 samples, random triples alone miss it at over 450.
FAULT_SEEDS = range(500)
VALID_PAIRS = [(ar.euclidean(2), ar.eta_quadratic()), (ar.euclidean(5), ar.eta_hilbert()),
               (D, ar.eta_quadratic()), (D, ar.eta_hilbert())]


@pytest.mark.parametrize("samples", [20, 100])
@pytest.mark.parametrize("space", [ar.poincare_disk(ar.eta_quadratic(1)),
                                   ar.euclidean(2, ar.eta_quadratic(7))],
                         ids=["disk-eps2", "E2-eps2/7"])
def test_an_overclaimed_eta_fails_at_every_seed(space, samples):
    missed = [seed for seed in FAULT_SEEDS
              if ar.check_uc_implication(space, samples=samples, seed=seed).passed]
    assert missed == []


@pytest.mark.parametrize("samples", [20, 100])
@pytest.mark.parametrize("space, eta", VALID_PAIRS,
                         ids=["E2-quadratic", "E5-hilbert", "disk-quadratic", "disk-hilbert"])
def test_the_valid_pairs_pass_at_every_seed(space, eta, samples):
    space = dataclasses.replace(space, modulus=eta)
    failed = [seed for seed in FAULT_SEEDS
              if not all(r.passed for r in cli._space_checks(space, samples, seed))]
    assert failed == []


def test_a_run_of_two_blocks_counts_and_indexes_across_them():
    n = verification.BLOCK + 1
    combine_fn = array_ops(E2)[1]

    def broken_in_a_block_of_one(x, y, t):
        out = combine_fn(x, y, t)           # points of shape (..., n, 2)
        return out + 100.0 if out.shape[-2] == 1 else out
    rep = ar.check_space_axioms(E2, samples=n, seed=0, combine_override=broken_in_a_block_of_one)
    assert rep.samples == n and rep.failures
    assert {dict(f.inputs)["i"] for f in rep.failures} == {verification.BLOCK}
    assert ar.check_space_axioms(E2, samples=n, seed=0).passed
    rep = ar.check_uc_implication(E2, samples=n, seed=0)
    assert rep.passed and rep.samples == n and rep.notes == [f"effective samples: {n} of {n}"]
    rep = ar.check_dyadic_uc_implication(E2, ar.eta_to_eta1(E2.modulus), True, samples=n)
    assert rep.passed and rep.samples == n


def test_the_peak_memory_of_a_check_does_not_grow_with_the_sample_count():
    peaks = []
    for blocks in (1, 4):
        tracemalloc.start()
        try:
            ar.check_space_axioms(E5, samples=blocks * verification.BLOCK, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0], peaks
