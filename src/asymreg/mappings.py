"""Catalog of nonexpansive self-maps on the space models, plus approximate
fixed-point data.

Shipped kinds: the identity, Euclidean rotation about a center (acting in the
first two coordinates), the map averaging a point with its reflection through
a center (which collapses to the constant map onto that center), rotation of
the Poincare disk about an interior center (a Mobius conjugate of a Euclidean
rotation, hence an isometry), and the metric projection onto a closed ball.
Each mapping and domain (whole space or closed ball) kind is built by its one
constructor, from Python and from a config alike; it checks that an angle is
finite and a radius positive and finite.  `ball_member` is the one test of
membership in a ClosedBall domain, within r (1 + SLACK) + SLACK.

An ApproxFixedPointSpec records a start point x, a bound b, and an exact
fixed point z with d(x, z) <= b.  Then the residual at the start obeys
d(x, Tx) <= 2b, the cap the rate machinery and the lemma audit use.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .geometry import (
    EUCLIDEAN,
    POINCARE_DISK,
    Point,
    SpaceModel,
    check_point,
    dist,
    make_point,
    raw_ops,
)
from .moduli import SLACK

IDENTITY = "Identity"
EUCLIDEAN_ROTATION = "EuclideanRotation"
EUCLIDEAN_REFLECTION_AVERAGE = "EuclideanReflectionAverage"
POINCARE_ROTATION = "PoincareRotation"
METRIC_PROJECTION = "MetricProjection"

WHOLE_SPACE = "WholeSpace"
CLOSED_BALL = "ClosedBall"


class MappingError(ValueError):
    pass


class DomainError(MappingError):
    pass


class WitnessError(MappingError):
    pass


@dataclass(frozen=True)
class DomainSpec:
    kind: str = WHOLE_SPACE
    center: tuple[float, ...] | None = None
    radius: float | None = None


def _finite(value, name: str, positive: bool = False) -> float:
    """value as a float, once finite (and positive if asked); the message starts with name."""
    value = float(value)
    if not math.isfinite(value) or positive and value <= 0:
        raise MappingError(f"{name} must be {'positive and ' * positive}finite, got {value!r}")
    return value


def whole_space() -> DomainSpec:
    return DomainSpec(WHOLE_SPACE)


def closed_ball(center, radius: float) -> DomainSpec:
    return DomainSpec(CLOSED_BALL, tuple(map(float, center)),
                      _finite(radius, "radius", positive=True))


@dataclass(frozen=True)
class MappingSpec:
    kind: str
    center: tuple[float, ...] | None = None
    angle: float | None = None
    radius: float | None = None
    domain: DomainSpec = DomainSpec()


def identity(domain: DomainSpec | None = None) -> MappingSpec:
    return MappingSpec(IDENTITY, domain=domain or whole_space())


def euclidean_rotation(center, angle: float, domain: DomainSpec | None = None) -> MappingSpec:
    return MappingSpec(EUCLIDEAN_ROTATION, tuple(map(float, center)),
                       _finite(angle, "angle"), domain=domain or whole_space())


def euclidean_reflection_average(center, domain: DomainSpec | None = None) -> MappingSpec:
    return MappingSpec(EUCLIDEAN_REFLECTION_AVERAGE, tuple(map(float, center)),
                       domain=domain or whole_space())


def poincare_rotation(center, angle: float, domain: DomainSpec | None = None) -> MappingSpec:
    return MappingSpec(POINCARE_ROTATION, tuple(map(float, center)),
                       _finite(angle, "angle"), domain=domain or whole_space())


def metric_projection(center, radius: float, domain: DomainSpec | None = None) -> MappingSpec:
    return MappingSpec(METRIC_PROJECTION, tuple(map(float, center)),
                       radius=_finite(radius, "radius", positive=True),
                       domain=domain or whole_space())


def _require_center(space: SpaceModel, m: MappingSpec):
    """The raw value of m's center in space."""
    if m.center is None:
        raise MappingError(f"{m.kind} needs a center")
    return make_point(space, m.center).raw


def raw_apply_fn(space: SpaceModel, m: MappingSpec) -> Callable:
    """Specialized T on the raw representation of the model."""
    kind = m.kind
    if kind == IDENTITY:
        return lambda z: z

    if kind == EUCLIDEAN_ROTATION:
        if space.kind != EUCLIDEAN or space.dim < 2:
            raise MappingError("rotation needs a Euclidean model of dim >= 2")
        c = _require_center(space, m)
        rot = cmath.exp(1j * m.angle)
        if space.dim == 2:
            return lambda z: c + (z - c) * rot
        c0, c1 = c[0], c[1]

        def rotate_first_two(p: tuple) -> tuple:
            w = complex(p[0] - c0, p[1] - c1) * rot
            return (c0 + w.real, c1 + w.imag) + p[2:]

        return rotate_first_two

    if kind == EUCLIDEAN_REFLECTION_AVERAGE:
        if space.kind != EUCLIDEAN:
            raise MappingError("reflection average needs a Euclidean model")
        # midpoint of z and its reflection 2c - z is c for every z
        c = _require_center(space, m)
        return lambda z: c

    if kind == POINCARE_ROTATION:
        if space.kind != POINCARE_DISK:
            raise MappingError("disk rotation needs the Poincare model")
        c = _require_center(space, m)
        rot = cmath.exp(1j * m.angle)
        if c == 0:
            return lambda z: z * rot
        cc = c.conjugate()

        def rotate_about(z: complex) -> complex:
            u = (z - c) / (1.0 - cc * z)
            v = u * rot
            return (c + v) / (1.0 + cc * v)

        return rotate_about

    if kind == METRIC_PROJECTION:
        c = _require_center(space, m)
        radius = m.radius
        dist_fn, combine_fn, _ = raw_ops(space)

        def project(z):
            d = dist_fn(c, z)
            if d <= radius:
                return z
            return combine_fn(c, z, radius / d)

        return project

    raise MappingError(f"unknown mapping kind {kind!r}")


def ball_member(space: SpaceModel, domain: DomainSpec) -> Callable | None:
    """On a ClosedBall domain, the test whether a raw point z lies in it,
    d(z, center) <= r (1 + SLACK) + SLACK; None on the whole space."""
    if domain.kind == WHOLE_SPACE:
        return None
    d = raw_ops(space)[0]
    center = make_point(space, domain.center).raw
    bound = domain.radius * (1.0 + SLACK) + SLACK
    return lambda z: d(z, center) <= bound


def in_domain(space: SpaceModel, m: MappingSpec, x: Point) -> bool:
    inside = ball_member(space, m.domain)
    return inside is None or inside(check_point(space, x))


def apply_map(space: SpaceModel, m: MappingSpec, x: Point) -> Point:
    xr = check_point(space, x)
    if not in_domain(space, m, x):
        raise DomainError("point outside the mapping's domain")
    return Point(space.kind, raw_apply_fn(space, m)(xr))


def declared_fixed_point(space: SpaceModel, m: MappingSpec) -> Point | None:
    """The map's center, which every kind that has one fixes by construction."""
    return None if m.center is None else make_point(space, m.center)


# ---------------------------------------------------------------------------
# approximate fixed-point data

@dataclass(frozen=True)
class ApproxFixedPointSpec:
    """Start point x, bound b, and an exact fixed point z with d(x, z) <= b."""

    x: Point
    b: float
    fixed_point: Point


def validate_afp(space: SpaceModel, t: Callable, afp: ApproxFixedPointSpec) -> None:
    """Check that the fixed point z lies within b of the start and is a
    delta-fixed point of T for delta = 1, 1e-1, ..., 1e-9: that d(z, Tz),
    measured once with t = raw_apply_fn of the mapping, falls below 1e-9.
    That z lies in the mapping's domain is the caller's to check."""
    check_point(space, afp.x)
    if not afp.b > 0:
        raise WitnessError("the bound b must be positive")
    z = afp.fixed_point
    d_xz = dist(space, afp.x, z)
    if d_xz > afp.b * (1.0 + SLACK) + 1e-12:
        raise WitnessError(
            f"witness at delta=1 lies {d_xz!r} from the start, beyond b={afp.b!r}")
    res = raw_ops(space)[0](z.raw, t(z.raw))
    for k in range(10):
        delta = 10.0 ** (-k)
        if not res < delta:
            raise WitnessError(
                f"witness at delta={delta:g} has residual {res!r}, not below delta")
