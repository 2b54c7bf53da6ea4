"""Numerical verification harness.

Every structural claim the library relies on is sampled here with explicit
tolerances: the metric and convexity axioms of the space models, the uniform
convexity implication in both its real-valued and dyadic forms, the step
inequalities of the averaged iteration, the residual cap 2b, and finally the
soundness of the certified rates phi and delta against simulated orbits.

Orbit checks read a trajectory as its runner recorded it, a prefix plus a
cycle: the audit checks the recorded indices [0, c+p), which cover every
step (c = tail_from, p = len(cycle)), and the soundness windows read each
index n at `Trajectory.fold(n)`.

Checks are deterministic: each owns an RNG stream derived from (seed, check
name), and reports serialize to stable JSON.  Rates whose verification window
exceeds the step cap are reported as unverified-at-scale, a warning rather
than a failure.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .config import HARD_STEP_CAP, ExperimentConfig
from .geometry import (
    EUCLIDEAN,
    POINCARE_DISK,
    Point,
    SpaceModel,
    check_point,
    dist,
    raw_ops,
    raw_point,
)
# Unused here; perfbench/spans._COUNTED still wraps this name in this module.
from .geometry import combine  # noqa: F401
from .iteration import Trajectory, run_trajectory
from .mappings import MappingSpec, apply_map, declared_fixed_point
from .moduli import (
    SLACK,
    ModulusDescriptor,
    as_fraction,
    eval_eta,
    eval_eta1,
    eval_nat,
    verify_gamma,
    verify_theta,
)
from .rates import RateError, RateReport, compute_delta, compute_phi, epsilon_shortcut, inputs_for
from .report import CheckReport

EUCLID_SAMPLE_RADIUS = 10.0
DISK_SAMPLE_RADIUS = 5.0  # hyperbolic distance to the origin
_SAMPLE_RADIUS = {EUCLIDEAN: EUCLID_SAMPLE_RADIUS, POINCARE_DISK: DISK_SAMPLE_RADIUS}
# The soundness window [phi, phi + SOUNDNESS_WINDOW] is simulated and read.
SOUNDNESS_WINDOW = 1000


def _rng(seed: int, name: str) -> random.Random:
    # string seeding hashes stably (sha512), unlike tuple hashing
    return random.Random(f"{seed}:{name}")


def sample_point(space: SpaceModel, rng: random.Random) -> Point:
    """Euclidean: uniform in the ball of radius 10.  Disk: uniform direction
    with hyperbolic distance to the origin uniform in [0, 5]."""
    return Point(space.kind, _draw(space, rng, _SAMPLE_RADIUS[space.kind]))


def sample_point_near(space: SpaceModel, rng: random.Random,
                      x: Point, max_dist: float) -> Point:
    """A point y with d(x, y) <= max_dist."""
    return Point(space.kind, _draw(space, rng, max_dist, check_point(space, x)))


def _draw(space: SpaceModel, rng: random.Random, radius: float, center=None):
    """A raw point within distance radius of the raw point center (of the
    origin when None), drawn as sample_point draws it."""
    if space.kind == POINCARE_DISK:
        t = rng.random() * radius
        phi = rng.random() * 2.0 * math.pi
        r = math.tanh(t / 2.0)
        w = complex(r * math.cos(phi), r * math.sin(phi))
        return w if center is None else (center + w) / (1.0 + center.conjugate() * w)
    vec = [rng.gauss(0.0, 1.0) for _ in range(space.dim)]
    norm = math.sqrt(sum(v * v for v in vec)) or 1.0
    scale = radius * rng.random() ** (1.0 / space.dim) / norm
    if center is None:
        return raw_point(space, [v * scale for v in vec])
    c = Point(space.kind, center).coords
    return raw_point(space, [a + v * scale for a, v in zip(c, vec)])


# ---------------------------------------------------------------------------
# space axioms

def check_space_axioms(space: SpaceModel, samples: int = 10_000, seed: int = 0,
                       combine_override=None) -> CheckReport:
    """Metric axioms plus the four convexity identities of the combination
    map: (W1) point-to-segment convexity, (W2) constant-speed
    parameterization, (W3) endpoint symmetry, (W4) joint convexity.
    combine_override, a raw (x, y, t) combine, replaces the model's."""
    report = CheckReport("space-axioms", samples=samples)
    d, comb, _ = raw_ops(space)
    comb = combine_override or comb
    radius = _SAMPLE_RADIUS[space.kind]
    rng = _rng(seed, f"space-axioms:{space.kind}:{space.dim}")
    for i in range(samples):
        x, y, z, w = (_draw(space, rng, radius) for _ in range(4))
        lam, lam2 = rng.random(), rng.random()

        dxy = d(x, y)
        tol_rel = SLACK * (1.0 + dxy)
        if dxy < 0:
            report.fail({"axiom": "nonnegative", "i": i}, dxy, 0.0, 0.0)
        if d(x, x) > 1e-12:
            report.fail({"axiom": "identity", "i": i}, d(x, x), 0.0, 1e-12)
        if abs(dxy - d(y, x)) > tol_rel:
            report.fail({"axiom": "symmetry", "i": i}, d(y, x), dxy, tol_rel)
        dxz, dyz = d(x, z), d(y, z)
        tol_tri = SLACK * (1.0 + dxy + dyz)
        if dxz > dxy + dyz + tol_tri:
            report.fail({"axiom": "triangle", "i": i}, dxz, dxy + dyz, tol_tri)

        w_lam = comb(x, y, lam)
        w_lam2 = comb(x, y, lam2)
        lhs = d(z, w_lam)
        rhs = (1.0 - lam) * dxz + lam * dyz
        if lhs > rhs + SLACK:
            report.fail({"axiom": "W1", "i": i, "lam": lam}, lhs, rhs, SLACK)
        lhs = abs(d(w_lam, w_lam2) - abs(lam - lam2) * dxy)
        if lhs > tol_rel:
            report.fail({"axiom": "W2", "i": i, "lam": lam, "lam2": lam2},
                        d(w_lam, w_lam2), abs(lam - lam2) * dxy, tol_rel)
        lhs = d(w_lam, comb(y, x, 1.0 - lam))
        if lhs > SLACK:
            report.fail({"axiom": "W3", "i": i, "lam": lam}, lhs, 0.0, SLACK)
        lhs = d(comb(x, z, lam), comb(y, w, lam))
        rhs = (1.0 - lam) * dxy + lam * d(z, w)
        if lhs > rhs + SLACK:
            report.fail({"axiom": "W4", "i": i, "lam": lam}, lhs, rhs, SLACK)
    return report


# ---------------------------------------------------------------------------
# uniform convexity

def check_uc_implication(space: SpaceModel, samples: int = 10_000, seed: int = 0,
                         eta: ModulusDescriptor | None = None) -> CheckReport:
    """From d(x, a) <= r, d(y, a) <= r, d(x, y) >= eps r the modulus must
    push the midpoint inward, d(mid, a) <= (1 - eta(r, eps)) r, and for any
    lam and any s >= r the combination obeys
    d((1-lam) x (+) lam y, a) <= (1 - 2 lam (1 - lam) eta(s, eps)) r."""
    desc = eta or space.modulus
    report = CheckReport("uc-implication")
    d, comb, _ = raw_ops(space)
    radius = _SAMPLE_RADIUS[space.kind]
    rng = _rng(seed, f"uc-implication:{space.kind}")
    effective = 0
    for i in range(samples):
        a, x, y = (_draw(space, rng, radius) for _ in range(3))
        rmax = max(d(x, a), d(y, a))
        if rmax == 0.0:
            continue
        r = rmax * (1.0 + rng.random())
        dxy = d(x, y)
        eps = min(2.0, dxy / r)
        if i % 2 == 1:
            eps *= rng.random()
        if eps <= 0.0:
            continue
        effective += 1

        mid = comb(x, y, 0.5)
        bound = (1.0 - eval_eta(desc, r, eps)) * r
        lhs = d(mid, a)
        if lhs > bound + SLACK:
            report.fail({"form": "midpoint", "i": i, "r": r, "eps": eps},
                        lhs, bound, SLACK)

        lam = rng.random()
        s = r * (1.0 + 2.0 * rng.random())
        bound = (1.0 - 2.0 * lam * (1.0 - lam) * eval_eta(desc, s, eps)) * r
        lhs = d(comb(x, y, lam), a)
        if lhs > bound + SLACK:
            report.fail({"form": "general-lambda", "i": i, "r": r, "s": s,
                         "eps": eps, "lam": lam}, lhs, bound, SLACK)
    report.samples = effective
    report.note(f"effective samples: {effective} of {samples}")
    return report


def check_dyadic_uc_implication(space: SpaceModel, desc: ModulusDescriptor,
                                conclusion_strict: bool,
                                samples: int = 10_000, seed: int = 0) -> CheckReport:
    """The dyadic-form contrapositive on Euclidean triples: whenever
    d(x, a) <= r, d(y, a) <= r and the midpoint stays outside
    (1 - 2^-eta1(r, k)) r, the endpoints must be 2^-k r close
    (strictly for the eta1 form, weakly for the eta2 form).

    Half the samples are random triples, half are constructed near-threshold
    configurations so the premise actually activates."""
    if space.kind != EUCLIDEAN:
        raise ValueError("dyadic implication check runs on a Euclidean model")
    name = "uc-implication-dyadic-" + ("strict" if conclusion_strict else "weak")
    report = CheckReport(name, samples=samples)
    d, comb, _ = raw_ops(space)
    rng = _rng(seed, f"{name}:{space.dim}")
    activations = 0
    for i in range(samples):
        k = rng.randrange(0, 4)
        if i % 2 == 0:
            a, x, y = (_draw(space, rng, EUCLID_SAMPLE_RADIUS) for _ in range(3))
            rmax = max(d(x, a), d(y, a))
            if rmax == 0.0:
                continue
            r = rmax * (1.0 + 0.001 + rng.random())
        else:
            a, x, y, r = _near_threshold_triple(space, rng, k)
        m = eval_eta1(desc, r, k)
        threshold = (1.0 - 2.0 ** (-m)) * r
        if d(comb(x, y, 0.5), a) <= threshold:
            continue
        activations += 1
        dxy = d(x, y)
        bound = 2.0 ** (-k) * r
        tol = SLACK * (1.0 + r)
        ok = dxy < bound + tol if conclusion_strict else dxy <= bound + tol
        if not ok:
            report.fail({"i": i, "k": k, "r": r}, dxy, bound, tol)
    report.note(f"premise activations: {activations} of {samples}")
    if activations == 0:
        report.fail({"error": "premise never activated"}, 0.0, 1.0, 0.0)
    return report


def _near_threshold_triple(space: SpaceModel, rng: random.Random, k: int):
    """Raw x, y near the sphere of radius r about a raw a, separated by
    2^-(k+2) r, so the midpoint premise of the dyadic implication activates."""
    a = _draw(space, rng, EUCLID_SAMPLE_RADIUS)
    e1 = [rng.gauss(0.0, 1.0) for _ in range(space.dim)]
    n1 = math.sqrt(sum(v * v for v in e1)) or 1.0
    e1 = [v / n1 for v in e1]
    e2 = [rng.gauss(0.0, 1.0) for _ in range(space.dim)]
    proj = sum(u * v for u, v in zip(e1, e2))
    e2 = [v - proj * u for u, v in zip(e1, e2)]
    n2 = math.sqrt(sum(v * v for v in e2)) or 1.0
    e2 = [v / n2 for v in e2]
    r = 0.5 + 9.5 * rng.random()
    w = 2.0 ** (-2 * k - 9)
    d_ax = r * (1.0 - w)
    sep = 2.0 ** (-k - 2) * r
    h = math.sqrt(d_ax * d_ax - sep * sep / 4.0)
    ac = Point(space.kind, a).coords
    x = raw_point(space, [c + h * u + 0.5 * sep * v for c, u, v in zip(ac, e1, e2)])
    y = raw_point(space, [c + h * u - 0.5 * sep * v for c, u, v in zip(ac, e1, e2)])
    return a, x, y, r


# ---------------------------------------------------------------------------
# mapping-level sampling

def check_nonexpansive(space: SpaceModel, m: MappingSpec,
                       samples: int = 1_000, seed: int = 0) -> CheckReport:
    report = CheckReport(f"nonexpansive:{m.kind}", samples=samples)
    rng = _rng(seed, f"nonexpansive:{m.kind}")
    for i in range(samples):
        x, y = sample_point(space, rng), sample_point(space, rng)
        lhs = dist(space, apply_map(space, m, x), apply_map(space, m, y))
        rhs = dist(space, x, y)
        if lhs > rhs + SLACK * (1.0 + rhs):
            report.fail({"i": i}, lhs, rhs, SLACK * (1.0 + rhs))
    return report


def check_omega_majorization(space: SpaceModel, m: MappingSpec, x: Point,
                             omega: ModulusDescriptor,
                             samples: int = 1_000, seed: int = 0,
                             n_values=(0, 1, 2, 3, 5, 8)) -> CheckReport:
    """d(x, y) <= n must give d(x, Ty) <= omega(n)."""
    report = CheckReport(f"omega-majorization:{m.kind}", samples=samples)
    rng = _rng(seed, f"omega:{m.kind}")
    for i in range(samples):
        n = n_values[i % len(n_values)]
        y = sample_point_near(space, rng, x, float(n))
        lhs = dist(space, x, apply_map(space, m, y))
        rhs = float(eval_nat(omega, n))
        if lhs > rhs + SLACK:
            report.fail({"i": i, "n": n}, lhs, rhs, SLACK)
    return report


# ---------------------------------------------------------------------------
# iteration audit

def check_lemma_inequalities(traj: Trajectory) -> CheckReport:
    """Audit the step inequalities along a recorded orbit:

    (a) (1 - s_n) d(x_n, T x_n) <= d(x_n, T y_n),
    (b) d(x_{n+1}, T x_{n+1}) <= (1 + 2 s_n (1 - lambda_n)) d(x_n, T x_n),
    (c) with the reference point z the distances were recorded for:
        d(y_n, z) <= d(x_n, z) + d(z, Tz),                  (c-inner)
        d(T y_n, z) <= d(x_n, z) + 2 d(z, Tz),              (c-image)
        d(x_{n+1}, z) <= d(x_n, z) + 2 lambda_n d(z, Tz),   (c-step)
        d(x_n, z) <= d(x_0, z) + 2 n d(z, Tz),              (c-drift)
    plus the residual cap d(x_n, T x_n) <= 2b when fixed-point data rides
    along, with the lambda_n and s_n floats the orbit was stepped with.

    It checks the recorded indices, [0, c+p) after a cut, reading n + 1 at
    fold(n + 1).  Every later n repeats fold(n): in (a), (b), the cap and
    c-inner/image/step with the same floats, since lambda_n and s_n are
    constant from c on, or else T x_c == x_c and every term from c on reads
    0 <= rhs or d <= d + 2 lambda_n d(z, Tz); in c-drift with the lhs of
    fold(n) <= n, as rd[0] + 2.0*n*d(z, Tz) does not decrease in n."""
    space, m = traj.space, traj.mapping
    report = CheckReport("lemma-inequalities", samples=traj.steps + 1)
    res = traj.residuals
    last = len(traj.inner_residuals)        # the steps n < last are recorded
    after = traj.fold(np.arange(1, last + 1))
    lam, s = traj.schedule_floats(last)
    _bulk_fail(report, "a", (1.0 - s) * res[:last], traj.inner_residuals, SLACK)
    _bulk_fail(report, "b", res[after], (1.0 + 2.0 * s * (1.0 - lam)) * res[:last], SLACK)

    if traj.afp is not None:
        cap = 2.0 * traj.afp.b
        _bulk_fail(report, "residual-cap", res, np.full(len(res), cap), SLACK)

    rd, z = traj.ref_distances, traj.ref_point
    if rd is None:
        return report
    d_z_tz = dist(space, z, apply_map(space, m, z))
    _bulk_fail(report, "c-inner", traj.inner_ref_distances, rd[:last] + d_z_tz, SLACK)
    _bulk_fail(report, "c-image", traj.t_inner_ref_distances,
               rd[:last] + 2.0 * d_z_tz, SLACK)
    _bulk_fail(report, "c-step", rd[after], rd[:last] + 2.0 * lam * d_z_tz, SLACK)
    _bulk_fail(report, "c-drift", rd, rd[0] + 2.0 * np.arange(len(rd)) * d_z_tz, SLACK)
    return report


def _bulk_fail(report: CheckReport, name: str, lhs: np.ndarray,
               rhs: np.ndarray, slack: float, offset: int = 0) -> None:
    """Fail the first ten n with lhs[n] > rhs[n] + slack, reported at index
    offset + n, and count the rest as suppressed."""
    bad = np.nonzero(lhs > rhs + slack)[0]
    for n in bad[:10]:
        report.fail({"inequality": name, "n": offset + int(n)},
                    float(lhs[n]), float(rhs[n]), slack)
    if len(bad) > 10:
        report.suppressed_failures += len(bad) - 10


# ---------------------------------------------------------------------------
# rate soundness

def reference_point(config: ExperimentConfig) -> Point | None:
    if config.afp.fixed_point is not None:
        return config.afp.fixed_point
    return declared_fixed_point(config.space, config.mapping)


def trajectory_for(config: ExperimentConfig, steps: int, *,
                   record_ref: bool = False) -> Trajectory:
    """The orbit of a config; with record_ref, its reference distances too."""
    return run_trajectory(
        config.space, config.mapping, config.start, config.schedule, steps,
        afp=config.afp,
        ref_point=reference_point(config) if record_ref else None,
    )


def step_cap(config: ExperimentConfig) -> int:
    """The most steps any orbit of config runs."""
    return min(HARD_STEP_CAP, config.caps.max_steps)


def certify(config: ExperimentConfig, eps: float, ks=()) -> RateReport:
    """The certified rates of config at eps: P, gamma0, phi and delta(k) for
    each k in ks, the step cap and the end of the soundness window
    [phi, phi + SOUNDNESS_WINDOW] within it.  Residuals never exceed 2b, so
    eps > 2b is certified at once, with phi = 0 and delta(k) = k.  A k whose
    delta(k) raises RateError lands in delta_errors, not in deltas, and so
    does a negative k on either branch."""
    ri = inputs_for(eps, config.space.modulus, config.afp.b, config.schedule)
    ks = sorted(set(int(k) for k in ks))
    errors = {k: RateError("k must be a natural") for k in ks if k < 0}
    ks = [k for k in ks if k >= 0]
    if epsilon_shortcut(ri) == 0:
        rr = RateReport(P=0, gamma0=0, phi=0, deltas={k: k for k in ks},
                        note="eps exceeds the residual cap 2b")
    else:
        rr = compute_phi(ri)
        for k in ks:
            try:
                rr.deltas[k] = compute_delta(ri, k)
            except RateError as exc:
                errors[k] = exc
    rr.delta_errors = errors
    rr.step_cap = step_cap(config)
    rr.window_end = min(rr.phi + SOUNDNESS_WINDOW, rr.step_cap)
    return rr


def _covering_trajectory(config: ExperimentConfig, steps: int,
                         trajectory: Trajectory | None) -> Trajectory:
    if trajectory is not None and trajectory.steps >= steps:
        return trajectory
    return trajectory_for(config, steps)


def check_phi_soundness(config: ExperimentConfig, eps: float,
                        trajectory: Trajectory | None = None
                        ) -> tuple[RateReport, CheckReport]:
    """Verify the schedule witnesses, certify phi, then confirm on a simulated
    orbit that every residual on [phi, window_end] falls below
    eps (1 + 1e-9).  Also records the first index whose residual drops below
    eps and the ratio phi / first_hit."""
    report = CheckReport(f"phi-soundness(eps={eps:g})")
    schedule, b = config.schedule, config.afp.b
    report.merge(verify_theta(schedule, n_max=1_000))
    delta0 = as_fraction(eps) / (8 * as_fraction(b))
    report.merge(verify_gamma(schedule, [delta0], n_max=1_000))
    if not report.passed:
        return RateReport(P=0, gamma0=0, phi=0), report

    rr = certify(config, eps)
    if rr.note:
        report.note(f"{rr.note}; phi = 0")
    if rr.phi > rr.step_cap:
        report.mark_unverified(f"phi = {rr.phi} exceeds the step cap "
                               f"{rr.step_cap}; soundness not simulated")
        return rr, report
    end = rr.window_end
    traj = _covering_trajectory(config, end, trajectory)
    res = traj.residuals

    window = res[traj.fold(np.arange(rr.phi, end + 1))]
    report.samples += len(window)
    _bulk_fail(report, "residual", window, np.full(len(window), eps), SLACK * eps,
               offset=rr.phi)
    boundary = int(np.count_nonzero(np.abs(window - eps) <= SLACK * eps))
    if boundary:
        report.note(f"{boundary} residual(s) within 1e-9 of the eps boundary")

    # an index past the recorded ones repeats a recorded one at or below it
    hits = np.nonzero(res[:end + 1] < eps)[0]
    if len(hits):
        rr.empirical_first_hit = int(hits[0])
        rr.tightness_ratio = rr.phi / max(1, rr.empirical_first_hit)
    return rr, report


def check_delta_witness(config: ExperimentConfig, eps: float, k_list,
                        trajectory: Trajectory | None = None
                        ) -> tuple[dict[int, int], CheckReport]:
    """For each k, compute delta(k) and confirm some index in [k, delta(k)]
    has residual below eps (1 + 1e-9)."""
    report = CheckReport(f"delta-witness(eps={eps:g})")
    rr = certify(config, eps, k_list)
    for k, exc in rr.delta_errors.items():
        report.fail({"k": k, "error": str(exc)}, 0.0, 0.0, 0.0)
    deltas = rr.deltas
    if not deltas:
        return deltas, report

    checkable = {k: d for k, d in deltas.items() if d <= rr.step_cap}
    for k in sorted(set(deltas) - set(checkable)):
        report.mark_unverified(
            f"delta({k}) = {deltas[k]} exceeds the step cap {rr.step_cap}")
    if not checkable:
        return deltas, report

    horizon = max(checkable.values())
    traj = _covering_trajectory(config, horizon, trajectory)
    res = traj.residuals
    tol = eps * (1.0 + SLACK)
    for k, d in sorted(checkable.items()):
        window = res[traj.fold(np.arange(k, d + 1))]
        report.samples += len(window)
        hits = np.nonzero(window < tol)[0]
        if len(hits) == 0:
            report.fail({"k": k, "delta": d}, float(window.min()), tol, SLACK * eps)
        else:
            report.note(f"k={k}: delta={d}, witness at n={k + int(hits[0])}")
    return deltas, report
