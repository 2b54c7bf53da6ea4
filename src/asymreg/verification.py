"""Numerical verification harness.

Every structural claim the library relies on is sampled here with explicit
tolerances: the metric and convexity axioms of the space models, the uniform
convexity implication in both its real-valued and dyadic forms, the step
inequalities of the averaged iteration, the residual cap 2b, and finally the
soundness of the certified rates phi and delta against simulated orbits.

Orbit checks read the trajectory they are given and never simulate: the
audit checks the recorded prefix-plus-cycle indices [0, c+p), which cover
every step (c = tail_from, p = len(cycle)), and the rate checks read index
n at `Trajectory.fold(n)`, against the rates that certify gave them.

The sampled checks are batched.  Each owns one random stream seeded from
(seed, check name), draws its samples as arrays, at most BLOCK at a time,
and evaluates every inequality on a whole block through _bulk_fail, the
comparison the orbit checks use too.  So checks are deterministic, and
reports serialize to stable JSON.  Rates whose verification window
exceeds the step cap are reported as unverified-at-scale, a warning rather
than a failure.
"""

from __future__ import annotations

import math
import random
import sys
from typing import TYPE_CHECKING

from .config import HARD_STEP_CAP, ExperimentConfig
from .geometry import (
    EUCLIDEAN,
    POINCARE_DISK,
    Point,
    SpaceModel,
    array_ops,
    dist,
    make_point,
    raw_ops,
    raw_points,
)
# Unused here; perfbench/spans._COUNTED and _SPANNED still wrap these names in this module.
from .geometry import combine  # noqa: F401
from .rates import compute_delta, compute_phi, epsilon_shortcut  # noqa: F401
from .iteration import Trajectory, run_trajectory
from .mappings import WHOLE_SPACE, MappingSpec, apply_map, ball_member, raw_apply_fn
from .moduli import (
    SLACK,
    ModulusDescriptor,
    as_fraction,
    eval_eta1_array,
    eval_eta_array,
    verify_gamma,
    verify_theta,
)
from .rates import _CERTIFICATES, RateError, RateReport, inputs_for
from .report import CheckReport

# numpy is imported inside the functions that make arrays, so that a process
# that makes none, such as `rate`, never loads it.
if TYPE_CHECKING:
    import numpy as np

EUCLID_SAMPLE_RADIUS = 10.0
DISK_SAMPLE_RADIUS = 5.0  # hyperbolic distance to the origin
_SAMPLE_RADIUS = {EUCLIDEAN: EUCLID_SAMPLE_RADIUS, POINCARE_DISK: DISK_SAMPLE_RADIUS}
# The soundness window [phi, phi + SOUNDNESS_WINDOW] is simulated and read.
SOUNDNESS_WINDOW = 1000


# At most BLOCK samples are drawn and checked at a time, so that memory does
# not grow with the sample count.  It is even, so a sample's index and its
# position in its block have the same parity.
BLOCK = 2 ** 14


def _rng(seed: int, name: str) -> random.Random:
    # string seeding hashes stably (sha512), unlike tuple hashing
    return random.Random(f"{seed}:{name}")


# The samplers draw their arrays from random.Random, not numpy.random, whose
# import alone adds about 6 MB to the resident set of a process.

def _uniform(rng: random.Random, shape: tuple) -> np.ndarray:
    """Floats uniform in [0, 1) of the given shape, 53 random bits each,
    from one getrandbits."""
    import numpy as np
    size = math.prod(shape)
    words = np.frombuffer(rng.getrandbits(64 * size).to_bytes(8 * size, "little"), np.uint64)
    return (words >> 11).reshape(shape) * 2.0 ** -53


def _normal(rng: random.Random, shape: tuple) -> np.ndarray:
    """Standard normal floats: the real and imaginary parts of Box-Muller's
    sqrt(-2 log(1 - u)) exp(2 pi i v) are two independent ones."""
    import numpy as np
    size = math.prod(shape)
    u, v = _uniform(rng, (2, (size + 1) // 2))
    pairs = np.sqrt(-2.0 * np.log1p(-u)) * np.exp(2j * math.pi * v)
    return pairs.view(float)[:size].reshape(shape)


def _blocks(samples: int):
    """(offset, size) of each block of samples."""
    return ((start, min(BLOCK, samples - start)) for start in range(0, samples, BLOCK))


def _unit(vec: np.ndarray) -> np.ndarray:
    """Each vector of vec (along its last axis) scaled to norm 1; a zero
    vector stays zero."""
    import numpy as np
    norm = np.sqrt(np.square(vec).sum(axis=-1, keepdims=True))
    return vec / np.where(norm == 0.0, 1.0, norm)


def _draw_block(space: SpaceModel, rng: random.Random, shape: tuple, radius: float,
                center: Point | None = None) -> np.ndarray:
    """An array of points of the given shape, each within distance radius
    of center (of the origin when None), in the form of geometry.array_ops:
    (m, n) draws m blocks of n points.  Euclidean: uniform in that ball.
    Disk: uniform direction, with hyperbolic distance to the center uniform
    in [0, radius]."""
    import numpy as np
    if space.kind == POINCARE_DISK:
        dist_to_center, turn = _uniform(rng, (2, *shape))
        w = np.tanh(dist_to_center * (radius / 2.0)) * np.exp(2j * math.pi * turn)
        if center is None:
            return w
        c = center.raw
        return (c + w) / (1.0 + c.conjugate() * w)
    vec = _unit(_normal(rng, (*shape, space.dim)))
    block = vec * (radius * _uniform(rng, shape) ** (1.0 / space.dim))[..., None]
    return block if center is None else block + center.coords


# ---------------------------------------------------------------------------
# space axioms

def check_space_axioms(space: SpaceModel, samples: int = 10_000, seed: int = 0,
                       combine_override=None) -> CheckReport:
    """Metric axioms plus the four convexity identities of the combination
    map: (W1) point-to-segment convexity, (W2) constant-speed
    parameterization, (W3) endpoint symmetry, (W4) joint convexity.
    combine_override, an array (x, y, t) combine as geometry.array_ops
    gives, replaces the model's."""
    import numpy as np
    report = CheckReport("space-axioms", samples=samples)
    d, comb = array_ops(space)
    comb = combine_override or comb
    radius = _SAMPLE_RADIUS[space.kind]
    rng = _rng(seed, f"space-axioms:{space.kind}:{space.dim}")
    for start, n in _blocks(samples):
        x, y, z, w = _draw_block(space, rng, (4, n), radius)
        lam, lam2 = _uniform(rng, (2, n))

        def fail(axiom, lhs, rhs, slack, **drawn):
            _bulk_fail(report, {"axiom": axiom}, lhs, rhs, slack, "i", start, **drawn)

        # the kernels broadcast: one call evaluates several pairs per sample
        dxy, dxz, dyz, dzw, dxx, dyx = d(np.array((x, x, y, z, x, y)),
                                         np.array((y, z, z, w, x, x)))
        tol_rel = SLACK * (1.0 + dxy)
        fail("nonnegative", 0.0, dxy, 0.0)
        fail("identity", dxx, 0.0, 1e-12)
        fail("symmetry", dyx, dxy, tol_rel, two_sided=True)
        fail("triangle", dxz, dxy + dyz, SLACK * (1.0 + dxy + dyz))

        w_lam, w_lam2, w_rev = comb(np.array((x, x, y)), np.array((y, y, x)),
                                    np.array((lam, lam2, 1.0 - lam)))
        d_w1, d_w2, d_w3 = d(np.array((z, w_lam, w_lam)), np.array((w_lam, w_lam2, w_rev)))
        fail("W1", d_w1, (1.0 - lam) * dxz + lam * dyz, SLACK, lam=lam)
        fail("W2", d_w2, np.abs(lam - lam2) * dxy, tol_rel, two_sided=True, lam=lam, lam2=lam2)
        fail("W3", d_w3, 0.0, SLACK, lam=lam)
        fail("W4", d(*comb(np.array((x, y)), np.array((z, w)), lam)),
             (1.0 - lam) * dxy + lam * dzw, SLACK, lam=lam)
    return report


# ---------------------------------------------------------------------------
# uniform convexity

def check_uc_implication(space: SpaceModel, samples: int = 10_000, seed: int = 0) -> CheckReport:
    """From d(x, a) <= r, d(y, a) <= r, d(x, y) >= eps r the modulus must
    push the midpoint inward, d(mid, a) <= (1 - eta(r, eps)) r, and for any
    lam and any s >= r the combination obeys
    d((1-lam) x (+) lam y, a) <= (1 - 2 lam (1 - lam) eta(s, eps)) r.

    At the even indices x and y lie on one sphere about a, of radius r, and
    eps is d(x, y) / r: the extremal case, where an overclaimed eta shows.
    At the odd indices r is the larger distance grown by up to 2x,
    and eps shrunk below d(x, y) / r."""
    import numpy as np
    report = CheckReport("uc-implication")
    d, comb = array_ops(space)
    radius = _SAMPLE_RADIUS[space.kind]
    rng = _rng(seed, f"uc-implication:{space.kind}")
    effective = 0
    for start, n in _blocks(samples):
        a, x, y = _draw_block(space, rng, (3, n), radius)
        grow, shrink, lam, stretch = _uniform(rng, (4, n))
        with np.errstate(divide="ignore", invalid="ignore"):
            # the even x and y move along their geodesics from a to the
            # sphere of the nearer one
            ends = np.array((x[::2], y[::2]))
            to_a = d(ends, a[::2])
            x[::2], y[::2] = comb(a[::2], ends, np.min(to_a, axis=0) / to_a)
            dxa, dya, dxy = d(np.array((x, y, x)), np.array((a, a, y)))
            r = np.maximum(dxa, dya)
            r[1::2] *= 1.0 + grow[1::2]
            eps = np.minimum(2.0, dxy / r)
        eps[1::2] *= shrink[1::2]
        s = r * (1.0 + 2.0 * stretch)
        # a sample with eps <= 0, or NaN from r == 0, is skipped: its NaN
        # lhs fails no comparison
        kept = eps > 0.0
        effective += int(np.count_nonzero(kept))

        lhs = np.where(kept, d(comb(x, y, np.array((np.full(n, 0.5), lam))), a), np.nan)
        bound = (1.0 - eval_eta_array(space.modulus, r, eps)) * r
        _bulk_fail(report, {"form": "midpoint"}, lhs[0], bound, SLACK, "i", start,
                   r=r, eps=eps)
        bound = (1.0 - 2.0 * lam * (1.0 - lam) * eval_eta_array(space.modulus, s, eps)) * r
        _bulk_fail(report, {"form": "general-lambda"}, lhs[1], bound, SLACK, "i", start,
                   r=r, s=s, eps=eps, lam=lam)
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

    The samples at even indices are random triples, those at odd indices
    constructed near-threshold configurations, so the premise actually
    activates."""
    import numpy as np
    if space.kind != EUCLIDEAN:
        raise ValueError("dyadic implication check runs on a Euclidean model")
    name = "uc-implication-dyadic-" + ("strict" if conclusion_strict else "weak")
    report = CheckReport(name, samples=samples)
    d, comb = array_ops(space)
    rng = _rng(seed, f"{name}:{space.dim}")
    activations = 0
    for start, n in _blocks(samples):
        k = (4.0 * _uniform(rng, (n,))).astype(int)
        a, x, y = (np.empty((n, space.dim)) for _ in range(3))
        r = np.empty(n)
        even = (n + 1) // 2
        a[::2], x[::2], y[::2] = _draw_block(space, rng, (3, even), EUCLID_SAMPLE_RADIUS)
        r[::2] = (np.max(d(np.array((x[::2], y[::2])), a[::2]), axis=0)
                  * (1.0 + 0.001 + _uniform(rng, (even,))))
        a[1::2], x[1::2], y[1::2], r[1::2] = _near_threshold_block(space, rng, k[1::2])

        # r == 0 (x == y == a) leaves the premise inactive: 0 > 0 is false
        threshold = (1.0 - 2.0 ** -eval_eta1_array(desc, r, k)) * r
        d_mid, dxy = d(np.array((comb(x, y, 0.5), x)), np.array((a, y)))
        active = d_mid > threshold
        activations += int(np.count_nonzero(active))
        _bulk_fail(report, {}, np.where(active, dxy, np.nan), 2.0 ** -k * r,
                   SLACK * (1.0 + r), "i", start, strict=conclusion_strict, k=k, r=r)
    report.note(f"premise activations: {activations} of {samples}")
    if activations == 0:
        report.fail({"error": "premise never activated"}, 0.0, 1.0, 0.0)
    return report


def _near_threshold_block(space: SpaceModel, rng: random.Random, k: np.ndarray):
    """Points a, x, y and radii r, one per entry of k: x and y near the
    sphere of radius r about a, separated by 2^-(k+2) r, so the midpoint
    premise of the dyadic implication activates."""
    import numpy as np
    n = len(k)
    a = _draw_block(space, rng, (n,), EUCLID_SAMPLE_RADIUS)
    e1, e2 = _normal(rng, (2, n, space.dim))
    e1 = _unit(e1)
    e2 = _unit(e2 - (e1 * e2).sum(axis=1, keepdims=True) * e1)
    r = 0.5 + 9.5 * _uniform(rng, (n,))
    d_ax = r * (1.0 - 2.0 ** (-2 * k - 9))
    sep = 2.0 ** (-k - 2) * r
    h = np.sqrt(d_ax * d_ax - sep * sep / 4.0)
    mid = a + h[:, None] * e1
    half = (0.5 * sep)[:, None] * e2
    return a, mid + half, mid - half, r


# ---------------------------------------------------------------------------
# mapping-level sampling

def check_nonexpansive(space: SpaceModel, m: MappingSpec,
                       samples: int = 1_000, seed: int = 0) -> CheckReport:
    """d(Tx, Ty) <= d(x, y) on pairs drawn from the mapping's domain ball,
    or from the sampling ball about the origin on the whole space.  On a
    ball C, also the self-map check: T x and T y pass mappings.ball_member.
    Mappings have no array form, so T and the distances are evaluated point
    by point."""
    import numpy as np
    report = CheckReport(f"nonexpansive:{m.kind}", samples=samples)
    d, t, inside = raw_ops(space)[0], raw_apply_fn(space, m), ball_member(space, m.domain)
    if m.domain.kind == WHOLE_SPACE:
        radius, center = _SAMPLE_RADIUS[space.kind], None
    else:
        radius, center = m.domain.radius, make_point(space, m.domain.center)
    rng = _rng(seed, f"nonexpansive:{m.kind}")
    for start, n in _blocks(samples):
        x, y = (raw_points(space, block)
                for block in _draw_block(space, rng, (2, n), radius, center))
        tx, ty = [t(p) for p in x], [t(q) for q in y]
        lhs, rhs = np.array([(d(tp, tq), d(p, q))
                             for p, q, tp, tq in zip(x, y, tx, ty)]).T
        _bulk_fail(report, {"inequality": "nonexpansive"}, lhs, rhs, SLACK * (1.0 + rhs),
                   "i", start)
        if inside is not None:
            escaped = np.array([not (inside(p) and inside(q)) for p, q in zip(tx, ty)])
            _bulk_fail(report, {"inequality": "self-map"}, escaped, 0.0, 0.0, "i", start)
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
    import numpy as np
    space, m = traj.space, traj.mapping
    report = CheckReport("lemma-inequalities", samples=traj.steps + 1)
    res = traj.residuals
    last = len(traj.inner_residuals)        # the steps n < last are recorded
    after = traj.fold(np.arange(1, last + 1))
    lam, s = traj.schedule_floats(last)
    _bulk_fail(report, {"inequality": "a"}, (1.0 - s) * res[:last], traj.inner_residuals,
               SLACK)
    _bulk_fail(report, {"inequality": "b"}, res[after],
               (1.0 + 2.0 * s * (1.0 - lam)) * res[:last], SLACK)

    if traj.afp is not None:
        cap = 2.0 * traj.afp.b
        _bulk_fail(report, {"inequality": "residual-cap"}, res, np.full(len(res), cap), SLACK)

    rd, z = traj.ref_distances, traj.ref_point
    if rd is None:
        return report
    d_z_tz = dist(space, z, apply_map(space, m, z))
    _bulk_fail(report, {"inequality": "c-inner"}, traj.inner_ref_distances,
               rd[:last] + d_z_tz, SLACK)
    _bulk_fail(report, {"inequality": "c-image"}, traj.t_inner_ref_distances,
               rd[:last] + 2.0 * d_z_tz, SLACK)
    _bulk_fail(report, {"inequality": "c-step"}, rd[after], rd[:last] + 2.0 * lam * d_z_tz,
               SLACK)
    _bulk_fail(report, {"inequality": "c-drift"}, rd,
               rd[0] + 2.0 * np.arange(len(rd)) * d_z_tz, SLACK)
    return report


def _bulk_fail(report: CheckReport, label: dict, lhs, rhs, slack, index: str = "n",
               offset: int = 0, strict: bool = False, two_sided: bool = False,
               **drawn) -> None:
    """Fail the first ten j with lhs[j] > rhs[j] + slack[j] (>= when
    strict, |lhs[j] - rhs[j]| > slack[j] when two_sided), each with the
    inputs label, index = offset + j and the drawn value at j of each array
    in drawn, and count the rest as suppressed.  lhs, rhs and slack
    broadcast together to one axis; a NaN in lhs fails nothing."""
    import numpy as np
    if two_sided:
        over = np.abs(lhs - rhs) > slack
    else:
        bound = rhs + slack
        over = lhs >= bound if strict else lhs > bound
    bad = np.nonzero(over)[0]
    if len(bad) == 0:
        return
    first = bad[:10]
    sides = [np.broadcast_to(v, over.shape)[first].tolist() for v in (lhs, rhs, slack)]
    values = {key: value[first].tolist() for key, value in drawn.items()}
    for i, j in enumerate(first.tolist()):
        inputs = {**label, index: offset + j, **{key: v[i] for key, v in values.items()}}
        report.fail(inputs, *(side[i] for side in sides))
    report.suppressed_failures += len(bad) - len(first)


# ---------------------------------------------------------------------------
# rate soundness

def reference_point(config: ExperimentConfig) -> Point:
    return config.afp.fixed_point


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
    """The certified rates of config at eps, from the first row of
    rates._CERTIFICATES that applies: its indices and delta(k) for each k in
    ks, its name as rr.certificate, the step cap and the end of the
    soundness window [phi, phi + SOUNDNESS_WINDOW] within it.  A negative k,
    or one whose delta(k) raises, lands in delta_errors; a rate with more
    digits than str() converts raises RateError."""
    ri = inputs_for(eps, config.space.modulus, config.afp.b, config.schedule)
    ks = sorted(set(int(k) for k in ks))
    errors = {k: RateError("k must be a natural") for k in ks if k < 0}
    ks = [k for k in ks if k >= 0]
    for name, (_hypotheses, rates) in _CERTIFICATES.items():
        if (rr := rates(ri, ks)) is not None:
            break
    rr.certificate = name
    top = max([*rr.indices().values(), *rr.deltas.values()])
    limit = sys.get_int_max_str_digits()   # 0: no limit; 10^limit has over 3 limit bits
    if limit and top.bit_length() > 3 * limit and top >= 10 ** limit:
        raise RateError(f"eps = {eps:g}: a rate of {top.bit_length()} bits has more "
                        f"than {limit} decimal digits")
    rr.delta_errors = {**errors, **rr.delta_errors}
    rr.eps = eps
    rr.step_cap = step_cap(config)
    rr.window_end = min(rr.phi + SOUNDNESS_WINDOW, rr.step_cap)
    return rr


def check_phi_soundness(config: ExperimentConfig, rr: RateReport,
                        trajectory: Trajectory | None
                        ) -> tuple[RateReport, CheckReport]:
    """For rr = certify(config, eps): verify the schedule witnesses, then
    confirm that every residual of the given orbit on [phi, window_end]
    falls below eps (1 + 1e-9).  It reads rr and the orbit and simulates
    nothing: an orbit shorter than window_end raises ValueError.  Also
    records in rr the first index whose residual drops below eps and the
    ratio phi / first_hit.  When a witness fails, its rates are all 0."""
    eps = rr.eps
    report = CheckReport(f"phi-soundness(eps={eps:g})")
    schedule, b = config.schedule, config.afp.b
    report.merge(verify_theta(schedule))
    delta0 = as_fraction(eps) / (8 * as_fraction(b))
    report.merge(verify_gamma(schedule, [delta0]))
    if not report.passed:
        return RateReport(P=0, gamma0=0, phi=0), report

    if rr.note:
        report.note(f"{rr.note}; phi = 0")
    if rr.phi > rr.step_cap:
        report.mark_unverified(f"phi = {rr.phi} exceeds the step cap "
                               f"{rr.step_cap}; soundness not simulated")
        return rr, report
    end = rr.window_end
    if trajectory is None or trajectory.steps < end:
        raise ValueError(f"the soundness window reads step {end}, past the given orbit")
    import numpy as np
    res = trajectory.residuals

    window = res[trajectory.fold(np.arange(rr.phi, end + 1))]
    report.samples += len(window)
    _bulk_fail(report, {"inequality": "residual"}, window, np.full(len(window), eps), SLACK * eps,
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


def check_delta_witness(rr: RateReport, trajectory: Trajectory | None
                        ) -> tuple[dict[int, int], CheckReport]:
    """For rr = certify(config, eps, ks): confirm that each [k, delta(k)] of
    the given orbit holds a residual below eps (1 + 1e-9).  It reads rr and
    the orbit and simulates nothing, as check_phi_soundness."""
    import numpy as np
    eps, deltas = rr.eps, rr.deltas
    report = CheckReport(f"delta-witness(eps={eps:g})")
    for k, exc in rr.delta_errors.items():
        report.fail({"k": k, "error": str(exc)}, 0.0, 0.0, 0.0)
    checkable = {k: d for k, d in deltas.items() if d <= rr.step_cap}
    for k in sorted(set(deltas) - set(checkable)):
        report.mark_unverified(f"delta({k}) = {deltas[k]} exceeds the step cap {rr.step_cap}")
    if not checkable:
        return deltas, report

    horizon = max(checkable.values())
    if trajectory is None or trajectory.steps < horizon:
        raise ValueError(f"the delta witness reads step {horizon}, past the given orbit")
    res = trajectory.residuals
    tol = eps * (1.0 + SLACK)
    for k, d in sorted(checkable.items()):
        window = res[trajectory.fold(np.arange(k, d + 1))]
        report.samples += len(window)
        hits = np.nonzero(window < tol)[0]
        if len(hits) == 0:
            report.fail({"k": k, "delta": d}, float(window.min()), tol, SLACK * eps)
        else:
            report.note(f"k={k}: delta={d}, witness at n={k + int(hits[0])}")
    return deltas, report
