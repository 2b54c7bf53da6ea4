import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

import asymreg as ar
from asymreg.geometry import (
    DISK_MARGIN,
    _e_combine_c,
    _e_combine_t,
    _p_combine,
    from_raw,
    to_raw,
    uses_complex,
)

E2 = ar.euclidean(2)
E3 = ar.euclidean(3)
E1 = ar.euclidean(1)
D = ar.poincare_disk()


def disk_dist_oracle(x, y):
    """Independent distance formula: acosh(1 + 2|x-y|^2 / ((1-|x|^2)(1-|y|^2)))."""
    dx = (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2
    nx = 1.0 - (x[0] ** 2 + x[1] ** 2)
    ny = 1.0 - (y[0] ** 2 + y[1] ** 2)
    return math.acosh(1.0 + 2.0 * dx / (nx * ny))


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
        out = _e_combine_c(z, complex(a, b), t)
        assert _bits((out.real, out.imag)) == _bits((a, b))
        tup = (a, b, a * b, b, a)
        assert _bits(_e_combine_t(tup, tuple(tup), t)) == _bits(tup)
        w = complex(a / 2, b / 2)
        out = _p_combine(w, complex(a / 2, b / 2), t)
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


def test_raw_representation_round_trip():
    assert uses_complex(E2) and uses_complex(D) and not uses_complex(E3)
    p = ar.make_point(E2, (1.5, -2.5))
    assert to_raw(E2, p) == complex(1.5, -2.5)
    assert from_raw(E2, to_raw(E2, p)).coords == p.coords
    p3 = ar.make_point(E3, (1.0, 2.0, 3.0))
    assert from_raw(E3, to_raw(E3, p3)).coords == p3.coords


def test_space_constructors():
    assert E2.modulus == ar.eta_quadratic()
    custom = ar.euclidean(2, ar.eta_hilbert())
    assert custom.modulus == ar.eta_hilbert()
    assert ar.poincare_disk().dim == 2
    with pytest.raises(ar.DimensionMismatchError):
        ar.euclidean(0)
    assert ar.uc_modulus_eval(E2, 2.0, 0.25) == pytest.approx(1 / 128, abs=0)


@given(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5),
       st.floats(0, 1))
def test_euclidean_w2_property(ax, ay, bx, by, t):
    x, y = ar.make_point(E2, (ax, ay)), ar.make_point(E2, (bx, by))
    m = ar.combine(E2, x, y, t)
    d = ar.dist(E2, x, y)
    assert ar.dist(E2, x, m) == pytest.approx(t * d, abs=1e-9)
