import math
import random

import pytest

import asymreg as ar

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

def test_validate_afp_accepts_exact_fixed_point():
    m = ar.euclidean_rotation((0.0, 0.0), math.pi)
    x = ar.make_point(E2, (1.0, 0.0))
    afp = ar.ApproxFixedPointSpec(x, 1.0, ar.make_point(E2, (0.0, 0.0)))
    ar.validate_afp(E2, m, afp)
    assert ar.derived_bound(E2, m, afp) == 2.0


def test_validate_afp_measures_a_fixed_point_once(monkeypatch):
    m = ar.euclidean_rotation((0.0, 0.0), math.pi)
    x = ar.make_point(E2, (1.0, 0.0))
    calls = []
    real = ar.mappings.apply_map

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ar.mappings, "apply_map", counted)
    ar.validate_afp(E2, m, ar.ApproxFixedPointSpec(x, 1.0, ar.make_point(E2, (0.0, 0.0))))
    assert len(calls) == 1
    # a witness map still answers each of the ten deltas
    ar.validate_afp(E2, m, ar.ApproxFixedPointSpec(
        x, 1.0, witness=lambda delta: ar.make_point(E2, (0.0, 0.0))))
    assert len(calls) == 11


def test_validate_afp_names_the_first_delta_a_fixed_point_misses():
    # z = (1e-4, 0) is 2e-4 from its image under the rotation by pi
    m = ar.euclidean_rotation((0.0, 0.0), math.pi)
    x = ar.make_point(E2, (1.0, 0.0))
    afp = ar.ApproxFixedPointSpec(x, 1.0, ar.make_point(E2, (1e-4, 0.0)))
    with pytest.raises(ar.WitnessError, match=r"delta=0\.0001 has residual 0\.0002"):
        ar.validate_afp(E2, m, afp)


def test_validate_afp_rejects_small_b():
    m = ar.euclidean_rotation((0.0, 0.0), math.pi)
    x = ar.make_point(E2, (1.0, 0.0))
    afp = ar.ApproxFixedPointSpec(x, 0.5, ar.make_point(E2, (0.0, 0.0)))
    with pytest.raises(ar.WitnessError, match="beyond b"):
        ar.validate_afp(E2, m, afp)


def test_validate_afp_rejects_bad_witness_residual():
    m = ar.euclidean_rotation((0.0, 0.0), math.pi)
    x = ar.make_point(E2, (1.0, 0.0))
    # claims the start itself is a delta-fixed point, but d(x, Tx) = 2
    afp = ar.ApproxFixedPointSpec(x, 1.0, witness=lambda delta: x)
    with pytest.raises(ar.WitnessError, match="residual"):
        ar.validate_afp(E2, m, afp)


def test_witness_point_precedence():
    x = ar.make_point(E2, (1.0, 0.0))
    fp = ar.make_point(E2, (0.0, 0.0))
    afp = ar.ApproxFixedPointSpec(x, 1.0, fixed_point=fp)
    assert ar.witness_point(afp, 0.5) is fp
    afp = ar.ApproxFixedPointSpec(x, 1.0, witness=lambda d: x)
    assert ar.witness_point(afp, 0.5) is x
    with pytest.raises(ar.WitnessError):
        ar.witness_point(ar.ApproxFixedPointSpec(x, 1.0), 0.5)


def test_mapping_requires_center():
    m = ar.MappingSpec("EuclideanRotation", None, 1.0)
    with pytest.raises(ar.MappingError):
        ar.apply_map(E2, m, ar.make_point(E2, (0.0, 0.0)))
