import math
import random

import pytest

import asymreg as ar
from asymreg.mappings import raw_apply_fn

E2 = ar.euclidean(2)
E3 = ar.euclidean(3)
D = ar.poincare_disk()


def close(p, coords, tol=1e-12):
    assert p.coords == pytest.approx(coords, abs=tol)


# ---------------------------------------------------------------------------
# rotations

def test_euclidean_rotation_frozen():
    m = ar.euclidean_rotation((0.0, 0.0), math.pi / 2)
    close(ar.apply_map(E2, m, ar.make_point(E2, (1.0, 0.0))), (0.0, 1.0))
    m = ar.euclidean_rotation((1.0, 1.0), math.pi / 2)
    close(ar.apply_map(E2, m, ar.make_point(E2, (2.0, 1.0))), (1.0, 2.0))
    close(ar.apply_map(E2, m, ar.make_point(E2, (1.0, 1.0))), (1.0, 1.0))


def test_euclidean_rotation_dim3_rotates_first_plane():
    m = ar.euclidean_rotation((0.0, 0.0, 0.0), math.pi / 2)
    close(ar.apply_map(E3, m, ar.make_point(E3, (1.0, 0.0, 5.0))), (0.0, 1.0, 5.0))


def test_euclidean_rotation_is_isometry():
    m = ar.euclidean_rotation((0.3, -0.7), 1.234)
    rng = random.Random(5)
    for _ in range(50):
        x = ar.make_point(E2, (rng.uniform(-5, 5), rng.uniform(-5, 5)))
        y = ar.make_point(E2, (rng.uniform(-5, 5), rng.uniform(-5, 5)))
        tx, ty = ar.apply_map(E2, m, x), ar.apply_map(E2, m, y)
        assert ar.dist(E2, tx, ty) == pytest.approx(ar.dist(E2, x, y), abs=1e-12)


def test_poincare_rotation_about_origin():
    m = ar.poincare_rotation((0.0, 0.0), math.pi / 2)
    close(ar.apply_map(D, m, ar.make_point(D, (0.5, 0.0))), (0.0, 0.5))
    close(ar.apply_map(D, m, ar.make_point(D, (0.0, 0.0))), (0.0, 0.0))


def test_poincare_rotation_off_center_fixes_center_and_preserves_distance():
    c = (0.3, -0.1)
    m = ar.poincare_rotation(c, 2.0)
    center = ar.make_point(D, c)
    close(ar.apply_map(D, m, center), c)
    rng = random.Random(9)
    for _ in range(50):
        t, phi = rng.uniform(0, 4), rng.uniform(0, 2 * math.pi)
        r = math.tanh(t / 2)
        x = ar.make_point(D, (r * math.cos(phi), r * math.sin(phi)))
        tx = ar.apply_map(D, m, x)
        assert ar.dist(D, center, tx) == pytest.approx(
            ar.dist(D, center, x), rel=1e-9, abs=1e-9)
        y = ar.make_point(D, (0.2 * math.cos(t), 0.2 * math.sin(t)))
        assert ar.dist(D, ar.apply_map(D, m, y), tx) == pytest.approx(
            ar.dist(D, y, x), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# reflection average and projection

def test_reflection_average_is_constant_center():
    m = ar.euclidean_reflection_average((1.0, -2.0))
    for coords in ((0.0, 0.0), (5.0, 5.0), (1.0, -2.0)):
        close(ar.apply_map(E2, m, ar.make_point(E2, coords)), (1.0, -2.0), tol=0)


def test_metric_projection_euclidean():
    m = ar.metric_projection((0.0, 0.0), 1.0)
    close(ar.apply_map(E2, m, ar.make_point(E2, (3.0, 4.0))), (0.6, 0.8))
    inside = ar.make_point(E2, (0.1, -0.2))
    assert ar.apply_map(E2, m, inside).coords == inside.coords
    boundary = ar.make_point(E2, (1.0, 0.0))
    close(ar.apply_map(E2, m, boundary), (1.0, 0.0))


def test_metric_projection_disk_frozen():
    m = ar.metric_projection((0.0, 0.0), 0.5)
    x = ar.make_point(D, (math.tanh(0.5), 0.0))     # hyperbolic distance 1
    close(ar.apply_map(D, m, x), (math.tanh(0.25), 0.0), tol=1e-14)
    center = ar.make_point(D, (0.0, 0.0))
    tx = ar.apply_map(D, m, x)
    assert ar.dist(D, center, tx) == pytest.approx(0.5, abs=1e-12)


def test_metric_projection_clips_distance():
    m = ar.metric_projection((1.0, 0.0), 2.0)
    c = ar.make_point(E2, (1.0, 0.0))
    rng = random.Random(4)
    for _ in range(50):
        x = ar.make_point(E2, (rng.uniform(-8, 8), rng.uniform(-8, 8)))
        tx = ar.apply_map(E2, m, x)
        assert ar.dist(E2, c, tx) == pytest.approx(
            min(2.0, ar.dist(E2, c, x)), abs=1e-12)


def test_identity():
    m = ar.identity()
    p = ar.make_point(E2, (1.0, 2.0))
    assert ar.apply_map(E2, m, p).coords == p.coords
    assert ar.declared_fixed_point(E2, m) is None


# ---------------------------------------------------------------------------
# domains

def test_closed_ball_domain():
    dom = ar.closed_ball((0.0, 0.0), 1.0)
    m = ar.identity(domain=dom)
    assert ar.in_domain(E2, m, ar.make_point(E2, (1.0, 0.0)))
    assert ar.in_domain(E2, m, ar.make_point(E2, (1.0 + 1e-10, 0.0)))
    assert not ar.in_domain(E2, m, ar.make_point(E2, (1.1, 0.0)))
    with pytest.raises(ar.DomainError):
        ar.apply_map(E2, m, ar.make_point(E2, (2.0, 0.0)))
    with pytest.raises(ar.MappingError):
        ar.closed_ball((0.0, 0.0), 0.0)


@pytest.mark.parametrize("space,inside,outside", [
    (E2, 0.6 - 0.8j, 1.1 + 0.0j),
    (E3, (0.6, -0.8, 0.0), (0.0, 0.0, 1.1)),
    (D, 0.3 + 0.0j, -0.6 + 0.0j),
], ids=["plane", "R3", "disk"])
def test_raw_apply_fn_is_t_on_its_domain_ball_only(space, inside, outside):
    # T is defined on C only: raw_apply_fn raises outside the ball and gives
    # the whole-space map's value, bitwise, inside it (on its edge included)
    center = (0.0,) * space.dim
    rotation = ar.poincare_rotation if space is D else ar.euclidean_rotation
    bare = raw_apply_fn(space, rotation(center, math.pi / 2))
    radius = ar.dist(space, ar.make_point(space, center), ar.Point(space.kind, inside))
    t = raw_apply_fn(space, rotation(center, math.pi / 2, ar.closed_ball(center, radius)))
    assert t(inside) == bare(inside)
    with pytest.raises(ar.DomainError, match=r"^point outside the mapping's domain$"):
        t(outside)
    bare(outside)       # the whole-space map takes the point the ball's T rejects


def test_raw_apply_fn_on_the_whole_space_is_the_bare_map():
    z = 0.3 + 2.0j
    assert raw_apply_fn(E2, ar.identity())(z) is z


# What a config may not name, the constructors do not build either; each
# message starts with the field's name, where config reports it.
@pytest.mark.parametrize("build,message", [
    (lambda: ar.closed_ball((0.0, 0.0), math.nan), "radius must be positive and finite, got nan"),
    (lambda: ar.closed_ball((0.0, 0.0), math.inf), "radius must be positive and finite, got inf"),
    (lambda: ar.metric_projection((0.0, 0.0), math.nan),
     "radius must be positive and finite, got nan"),
    (lambda: ar.metric_projection((0.0, 0.0), -1), "radius must be positive and finite, got -1.0"),
    (lambda: ar.euclidean_rotation((0.0, 0.0), math.inf), "angle must be finite, got inf"),
    (lambda: ar.poincare_rotation((0.0, 0.0), math.nan), "angle must be finite, got nan"),
], ids=["ball-nan-radius", "ball-inf-radius", "projection-nan-radius",
        "projection-negative-radius", "rotation-inf-angle", "disk-rotation-nan-angle"])
def test_mapping_constructors_check_their_fields(build, message):
    with pytest.raises(ar.MappingError, match=f"^{message}$"):
        build()


def test_declared_fixed_points_are_fixed():
    cases = [
        (E2, ar.euclidean_rotation((0.5, 0.5), 1.0)),
        (E2, ar.euclidean_reflection_average((0.5, 0.5))),
        (E2, ar.metric_projection((0.5, 0.5), 1.0)),
        (D, ar.poincare_rotation((0.2, 0.1), 1.0)),
        (D, ar.metric_projection((0.2, 0.1), 0.5)),
    ]
    for space, m in cases:
        fp = ar.declared_fixed_point(space, m)
        assert ar.dist(space, fp, ar.apply_map(space, m, fp)) < 1e-12


# ---------------------------------------------------------------------------
# approximate fixed-point data

# validate_afp takes T as raw_apply_fn builds it
ROTATE_PI = raw_apply_fn(E2, ar.euclidean_rotation((0.0, 0.0), math.pi))


def test_validate_afp_accepts_exact_fixed_point():
    x = ar.make_point(E2, (1.0, 0.0))
    ar.validate_afp(E2, ROTATE_PI, ar.ApproxFixedPointSpec(x, 1.0, ar.make_point(E2, (0.0, 0.0))))


def test_validate_afp_names_the_first_delta_a_fixed_point_misses():
    # z = (1e-4, 0) is 2e-4 from its image under the rotation by pi
    x = ar.make_point(E2, (1.0, 0.0))
    afp = ar.ApproxFixedPointSpec(x, 1.0, ar.make_point(E2, (1e-4, 0.0)))
    with pytest.raises(ar.WitnessError, match=r"delta=0\.0001 has residual 0\.0002"):
        ar.validate_afp(E2, ROTATE_PI, afp)


def test_validate_afp_rejects_small_b():
    x = ar.make_point(E2, (1.0, 0.0))
    afp = ar.ApproxFixedPointSpec(x, 0.5, ar.make_point(E2, (0.0, 0.0)))
    with pytest.raises(ar.WitnessError, match="beyond b"):
        ar.validate_afp(E2, ROTATE_PI, afp)


def test_mapping_requires_center():
    m = ar.MappingSpec("EuclideanRotation", None, 1.0)
    with pytest.raises(ar.MappingError):
        ar.apply_map(E2, m, ar.make_point(E2, (0.0, 0.0)))
