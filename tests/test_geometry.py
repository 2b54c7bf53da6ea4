import cmath
import math
import random
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import asymreg as ar
from asymreg.geometry import (
    _ATANH_GUARD,
    DISK_MARGIN,
    raw_ops,
)

from helpers import eval_eta, theta_for_constant_lambda

E2 = ar.euclidean(2)
E3 = ar.euclidean(3)
E1 = ar.euclidean(1)
D = ar.poincare_disk()


def disk_dist_oracle(x, y):
    """Independent distance formula: acosh(1 + q), q = 2|x-y|^2 / ((1-|x|^2)(1-|y|^2)),
    evaluated as log1p(q + sqrt(q (q + 2))) so that 1 + q does not round q away."""
    dx = (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2
    nx = 1.0 - (x[0] ** 2 + x[1] ** 2)
    ny = 1.0 - (y[0] ** 2 + y[1] ** 2)
    q = 2.0 * dx / (nx * ny)
    return math.log1p(q + math.sqrt(q * (q + 2.0)))


disk_coords = st.builds(
    lambda t, phi: (math.tanh(t / 2) * math.cos(phi), math.tanh(t / 2) * math.sin(phi)),
    st.floats(0.0, 8.0), st.floats(0.0, 2 * math.pi))


def test_euclidean_dist_frozen():
    x = ar.make_point(E2, (0.0, 0.0))
    y = ar.make_point(E2, (3.0, 4.0))
    assert ar.dist(E2, x, y) == 5.0
    z = ar.make_point(E3, (1.0, 2.0, 2.0))
    assert ar.dist(E3, ar.make_point(E3, (0, 0, 0)), z) == 3.0
    assert ar.dist(E1, ar.make_point(E1, (2.0,)), ar.make_point(E1, (-1.0,))) == 3.0


def test_euclidean_combine_is_lerp():
    x = ar.make_point(E2, (1.0, 0.0))
    y = ar.make_point(E2, (0.0, 2.0))
    m = ar.combine(E2, x, y, 0.25)
    assert m.coords == pytest.approx((0.75, 0.5), abs=1e-15)
    x3 = ar.make_point(E3, (1.0, 0.0, -2.0))
    y3 = ar.make_point(E3, (0.0, 2.0, 4.0))
    assert ar.combine(E3, x3, y3, 0.5).coords == pytest.approx(
        (0.5, 1.0, 1.0), abs=1e-15)


def test_disk_dist_frozen():
    o = ar.make_point(D, (0.0, 0.0))
    p = ar.make_point(D, (math.tanh(0.5), 0.0))
    assert ar.dist(D, o, p) == pytest.approx(1.0, abs=1e-14)
    x = ar.make_point(D, (0.3, 0.0))
    y = ar.make_point(D, (-0.3, 0.0))
    assert ar.dist(D, x, y) == pytest.approx(disk_dist_oracle((0.3, 0), (-0.3, 0)),
                                             abs=1e-12)
    assert ar.dist(D, x, y) == pytest.approx(2 * math.atanh(0.6 / 1.09), abs=1e-12)


@given(disk_coords, disk_coords)
def test_disk_dist_matches_acosh_oracle(cx, cy):
    x, y = ar.make_point(D, cx), ar.make_point(D, cy)
    d = ar.dist(D, x, y)
    assert d == pytest.approx(disk_dist_oracle(cx, cy), rel=1e-9, abs=1e-9)


def test_combine_endpoints_exact():
    for space, a, b in ((E2, (1.0, 2.0), (-0.5, 0.25)),
                        (D, (0.3, 0.1), (-0.2, 0.4))):
        x, y = ar.make_point(space, a), ar.make_point(space, b)
        assert ar.combine(space, x, y, 0.0).coords == x.coords
        assert ar.combine(space, x, y, 1.0).coords == y.coords
        assert ar.combine(space, x, x, 0.7).coords == x.coords


@given(disk_coords, disk_coords, st.floats(0.0, 1.0))
def test_disk_combine_is_constant_speed(cx, cy, t):
    x, y = ar.make_point(D, cx), ar.make_point(D, cy)
    m = ar.combine(D, x, y, t)
    d = ar.dist(D, x, y)
    assert ar.dist(D, x, m) == pytest.approx(t * d, rel=1e-9, abs=1e-9)
    assert ar.dist(D, m, y) == pytest.approx((1 - t) * d, rel=1e-9, abs=1e-9)


def _bits(coords) -> bytes:
    return struct.pack(f"{len(coords)}d", *coords)


# (1 - t) x + t x rounds away from x for some of these coordinates at every t
# but 0.999, e.g. 0.3 at t = 0.1, 0.1 at t = 0.3 and 1/3 at t = 1/3.
DEGENERATE_T = (0.1, 0.3, 1 / 3, 0.999)
DEGENERATE_COORDS = ((0.3, 0.1), (1 / 3, -0.45), (0.2, 0.6), (-0.8, 2 / 3))


@pytest.mark.parametrize("t", DEGENERATE_T)
def test_degenerate_combine_returns_x_bitwise(t):
    for a, b in DEGENERATE_COORDS:
        z = complex(a, b)
        out = raw_ops(E2)[1](z, complex(a, b), t)[1]
        assert _bits((out.real, out.imag)) == _bits((a, b))
        tup = (a, b, a * b, b, a)
        assert _bits(raw_ops(ar.euclidean(5))[1](tup, tuple(tup), t)[1]) == _bits(tup)
        w = complex(a / 2, b / 2)
        out = raw_ops(D)[1](w, complex(a / 2, b / 2), t)[1]
        assert _bits((out.real, out.imag)) == _bits((w.real, w.imag))
        for space, coords in ((E2, (a, b)), (ar.euclidean(5), tup),
                              (D, (a / 2, b / 2))):
            x = ar.make_point(space, coords)
            out = ar.combine(space, x, ar.make_point(space, coords), t)
            assert _bits(out.coords) == _bits(x.coords)


def test_disk_combine_frozen():
    # midpoint of +-tanh(1/2) along the axis is the origin
    r = math.tanh(0.5)
    x, y = ar.make_point(D, (r, 0.0)), ar.make_point(D, (-r, 0.0))
    m = ar.combine(D, x, y, 0.5)
    assert m.coords == pytest.approx((0.0, 0.0), abs=1e-15)
    # quarter point from the origin toward tanh(1/2): hyperbolic distance 1/4
    q = ar.combine(D, ar.make_point(D, (0.0, 0.0)), x, 0.25)
    assert q.coords == pytest.approx((math.tanh(0.125), 0.0), abs=1e-14)


def test_make_point_validation():
    with pytest.raises(ar.DimensionMismatchError):
        ar.make_point(E2, (1.0, 2.0, 3.0))
    with pytest.raises(ar.PointOutsideModelError):
        ar.make_point(E2, (float("nan"), 0.0))
    with pytest.raises(ar.PointOutsideModelError):
        ar.make_point(D, (1.0, 0.0))
    with pytest.raises(ar.PointOutsideModelError):
        ar.make_point(D, (1.0 - 4e-13, 0.0))
    inside = ar.make_point(D, (1.0 - 1e-6, 0.0))
    assert inside.coords[0] < 1.0


def test_model_mismatch_rejected():
    p = ar.make_point(E2, (0.0, 0.0))
    with pytest.raises(ar.DimensionMismatchError):
        ar.dist(D, p, p)
    with pytest.raises(ar.DimensionMismatchError, match="expected 3 coordinates, got 2"):
        ar.dist(E3, p, p)
    p3 = ar.make_point(E3, (1.0, 2.0, 3.0))
    with pytest.raises(ar.DimensionMismatchError, match="expected 5 coordinates, got 3"):
        ar.combine(ar.euclidean(5), p3, p3, 0.5)
    q = ar.make_point(D, (0.5, 0.0))
    with pytest.raises(ar.DimensionMismatchError, match="model"):
        ar.dist(E2, q, q)


def test_combine_rejects_out_of_range_lambda():
    x, y = ar.make_point(E2, (0.0, 0.0)), ar.make_point(E2, (1.0, 0.0))
    for t in (-0.1, 1.1, float("nan")):
        with pytest.raises(ar.ParameterRangeError):
            ar.combine(E2, x, y, t)


def test_combine_near_boundary_stays_interior():
    r = 1.0 - 2e-12
    x = ar.make_point(D, (r * math.cos(0.1), r * math.sin(0.1)))
    y = ar.make_point(D, (r * math.cos(0.2), r * math.sin(0.2)))
    m = ar.combine(D, x, y, 0.5)
    assert m.coords[0] ** 2 + m.coords[1] ** 2 < 1.0 - DISK_MARGIN / 2


def test_point_holds_the_raw_kernel_value():
    for space, coords in ((E2, (1.5, -0.0)), (D, (-0.0, 0.25)),
                          (E3, (1.0, -0.0, 3.0))):
        p = ar.make_point(space, coords)
        assert type(p.raw) is (complex if space.dim == 2 else tuple)
        assert _bits(p.coords) == _bits(coords)


def test_space_constructors():
    assert E2.modulus == ar.eta_quadratic()
    custom = ar.euclidean(2, ar.eta_hilbert())
    assert custom.modulus == ar.eta_hilbert()
    assert ar.poincare_disk().dim == 2
    with pytest.raises(ar.DimensionMismatchError):
        ar.euclidean(0)
    assert eval_eta(E2.modulus, 2.0, 0.25) == pytest.approx(1 / 128, abs=0)


# What a config may not name, the constructors do not build either.
@pytest.mark.parametrize("build,error,message", [
    (lambda: ar.euclidean(2, ar.eta1_affine(2, 3)), ar.GeometryError,
     "modulus 'Eta1Affine' does not play the role 'eta'"),
    (lambda: ar.poincare_disk(ar.gamma_zero()), ar.GeometryError,
     "modulus 'GammaZero' does not play the role 'eta'"),
    (lambda: ar.euclidean(2.5), ar.DimensionMismatchError, "dim must be an integer, got 2.5"),
    (lambda: ar.euclidean(True), ar.DimensionMismatchError, "dim must be an integer, got True"),
], ids=["euclidean-eta1-modulus", "disk-gamma-modulus", "euclidean-float-dim",
        "euclidean-bool-dim"])
def test_space_constructors_check_their_fields(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(0, 1))
def test_euclidean_w2_property(ax, ay, bx, by, t):
    x, y = ar.make_point(E2, (ax, ay)), ar.make_point(E2, (bx, by))
    m = ar.combine(E2, x, y, t)
    d = ar.dist(E2, x, y)
    assert ar.dist(E2, x, m) == pytest.approx(t * d, abs=1e-9)


# ---------------------------------------------------------------------------
# fused dist_combine kernels against the separate formulas they replace

def _ref_clamp_disk(z):
    n2 = z.real * z.real + z.imag * z.imag
    if n2 >= 1.0 - DISK_MARGIN:
        return z * math.sqrt((1.0 - 2.0 * DISK_MARGIN) / n2)
    return z


def _ref_p_dist(x, y):
    w = (y - x) / (1.0 - x.conjugate() * y)
    return 2.0 * math.atanh(min(abs(w), _ATANH_GUARD))


def _ref_p_combine(x, y, t):
    if t == 0.0 or x == y:
        return x
    if t == 1.0:
        return y
    u = (y - x) / (1.0 - x.conjugate() * y)
    ru = abs(u)
    if ru == 0.0:
        return x
    m = u * (math.tanh(t * math.atanh(min(ru, _ATANH_GUARD))) / ru)
    return _ref_clamp_disk((x + m) / (1.0 + x.conjugate() * m))


def _ref_p_clamps(x, y, t):
    """Whether _ref_p_combine(x, y, t) goes through the clamp."""
    if t == 0.0 or t == 1.0 or x == y:
        return False
    u = (y - x) / (1.0 - x.conjugate() * y)
    ru = abs(u)
    m = u * (math.tanh(t * math.atanh(min(ru, _ATANH_GUARD))) / ru)
    z = (x + m) / (1.0 + x.conjugate() * m)
    return z.real * z.real + z.imag * z.imag >= 1.0 - DISK_MARGIN


def _ref_e_combine_c(x, y, t):
    if x == y:
        return x
    return (1.0 - t) * x + t * y


def _ref_e_combine_t(x, y, t):
    if x == y:
        return x
    s = 1.0 - t
    return tuple(s * a + t * b for a, b in zip(x, y))


REF_OPS = {
    "disk": (D, _ref_p_dist, _ref_p_combine),
    "plane": (E2, lambda x, y: abs(x - y), _ref_e_combine_c),
    "R5": (ar.euclidean(5), math.dist, _ref_e_combine_t),
}
KERNEL_T = (0.0, 1.0, 0.5, 1 / 3, 1e-300)


def _raw_bits(v) -> bytes:
    if isinstance(v, complex):
        return _bits((v.real, v.imag))
    if isinstance(v, tuple):
        return _bits(v)
    return _bits((v,))


def _disk_pair(rng, near_margin=False):
    def point():
        if near_margin:
            r = math.sqrt(1.0 - DISK_MARGIN - rng.uniform(0.0, 1e-13))
        else:
            r = math.tanh(rng.uniform(0.0, 8.0) / 2)
        return r, rng.uniform(0.0, 2 * math.pi)
    (r1, a1), (r2, _) = point(), point()
    gap = rng.choice((1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0)) if near_margin \
        else rng.uniform(0.0, 2 * math.pi)
    return cmath.rect(r1, a1), cmath.rect(r2, a1 + gap)


def _kernel_cases(name, rng):
    """(x, y, t) triples: seeded pairs at the listed and at random t, x == y,
    and on the disk pairs at the margin, pairs past the atanh guard and NaN
    pairs."""
    pairs = []
    for _ in range(150):
        if name == "disk":
            pairs.append(_disk_pair(rng))
        elif name == "plane":
            pairs.append((complex(rng.uniform(-5, 5), rng.uniform(-5, 5)),
                          complex(rng.uniform(-5, 5), rng.uniform(-5, 5))))
        else:
            pairs.append((tuple(rng.uniform(-5, 5) for _ in range(5)),
                          tuple(rng.uniform(-5, 5) for _ in range(5))))
    pairs += [(x, tuple(list(x)) if isinstance(x, tuple) else complex(x.real, x.imag))
              for x, _ in pairs[:30]]                       # x == y, not x is y
    if name == "disk":
        pairs += [_disk_pair(rng, near_margin=True) for _ in range(300)]
        r = math.sqrt(1.0 - DISK_MARGIN - 1e-14)
        for a in (0.0, 0.3, 2.0):                           # |u| rounds to 1
            pairs += [(cmath.rect(r, a), cmath.rect(r, a + math.pi)),
                      (cmath.rect(r, a), cmath.rect(r, a + math.pi / 2))]
        # a NaN translate passes the atanh guard, as min lets it through
        pairs += [(complex(math.nan, 0.0), 0.5 + 0.0j), (0.5 + 0.0j, complex(0.0, math.nan))]
    for x, y in pairs:
        for t in KERNEL_T + (rng.random(),):
            yield x, y, t


@pytest.mark.parametrize("name", sorted(REF_OPS))
def test_dist_combine_matches_separate_formulas_bitwise(name):
    space, ref_dist, ref_combine = REF_OPS[name]
    dist_fn, fused = raw_ops(space)
    clamped = guarded = equal = 0
    for x, y, t in _kernel_cases(name, random.Random(2024)):
        d, z = fused(x, y, t)
        want = (_raw_bits(ref_dist(x, y)), _raw_bits(ref_combine(x, y, t)))
        assert (_raw_bits(d), _raw_bits(z)) == want, (x, y, t)
        assert (_raw_bits(dist_fn(x, y)),
                _raw_bits(fused(x, y, t)[1])) == want, (x, y, t)
        equal += x == y
        if name == "disk":
            clamped += _ref_p_clamps(x, y, t)
            guarded += abs((y - x) / (1.0 - x.conjugate() * y)) >= _ATANH_GUARD
    assert equal > 0
    if name == "disk":
        assert clamped > 0 and guarded > 0


def test_dist_combine_t0_returns_x_itself():
    # At t = 0 every kernel returns x; (1 - 0) x + 0 y differs from x only in
    # the sign of a zero coordinate, which the formula turns into +0.0.
    for space, x, y in ((E2, complex(-0.0, 1.5), complex(2.0, -1.0)),
                        (ar.euclidean(5), (-0.0, 1.0, 2.0, 3.0, 4.0),
                         (1.0, 1.0, 1.0, 1.0, 1.0))):
        d, z = raw_ops(space)[1](x, y, 0.0)
        assert z is x
        assert d == raw_ops(space)[0](x, y)


def test_public_dist_matches_the_orbit_residuals_bitwise():
    # On the plane the runner measures abs(x - y); the public dist must give
    # the same float, which math.dist does not always do.
    m = ar.euclidean_rotation((0.3, -0.2), 1.0)
    sched = ar.Schedule(ar.seq_constant("1/100"), ar.seq_constant(0),
                        theta_for_constant_lambda("1/100"), 1, 0, ar.gamma_zero())
    x = ar.make_point(E2, (4.1, 2.7))
    traj = ar.run_trajectory(E2, m, x, sched, 5000)
    res = traj.residuals[traj.fold(range(5001))]
    got = []
    for _ in range(5001):                   # x_n, stepped as the runner does
        got.append(ar.dist(E2, x, ar.apply_map(E2, m, x)))
        x, _ = ar.ishikawa_step(E2, m, x, 0.01, 0.0)
    assert np.array_equal(np.array(got), res)

