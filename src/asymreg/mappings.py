"""Catalog of nonexpansive self-maps on the space models, plus approximate
fixed-point data.

Shipped kinds: the identity, Euclidean rotation about a center (acting in the
first two coordinates), the map averaging a point with its reflection through
a center (which collapses to the constant map onto that center), rotation of
the Poincare disk about an interior center (a Mobius conjugate of a Euclidean
rotation, hence an isometry), and the metric projection onto a closed ball.
Each mapping and domain (whole space or closed ball) kind is built by its one
constructor, from Python and from a config alike; it checks that an angle is
finite and a radius positive and finite.

An ApproxFixedPointSpec records a start point x, a bound b, and a witness:
either an exact fixed point z with d(x, z) <= b or a map delta -> y_delta
producing delta-approximate fixed points within b of x.  Either way the
residual at the start obeys d(x, Tx) <= 2b, the derived bound used by the
rate machinery.
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


def in_domain(space: SpaceModel, m: MappingSpec, x: Point) -> bool:
    if m.domain.kind == WHOLE_SPACE:
        return True
    center = make_point(space, m.domain.center)
    r = m.domain.radius
    return dist(space, x, center) <= r * (1.0 + SLACK) + SLACK


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
    """Start point, bound b, and a fixed-point witness.

    Exactly one of `fixed_point` (an exact fixed point z with d(x, z) <= b)
    and `witness` (delta -> y_delta with d(x, y_delta) <= b and
    d(y_delta, T y_delta) < delta) should be supplied."""

    x: Point
    b: float
    fixed_point: Point | None = None
    witness: Callable[[float], Point] | None = None


def witness_point(afp: ApproxFixedPointSpec, delta: float) -> Point:
    if afp.fixed_point is not None:
        return afp.fixed_point
    if afp.witness is not None:
        return afp.witness(delta)
    raise WitnessError("no fixed-point witness supplied")


def validate_afp(space: SpaceModel, m: MappingSpec, afp: ApproxFixedPointSpec) -> None:
    """Sample the witness at delta = 1, 1e-1, ..., 1e-9.  An exact fixed
    point is the witness at every delta, so it is measured once."""
    check_point(space, afp.x)
    if not afp.b > 0:
        raise WitnessError("the bound b must be positive")
    y = None
    for k in range(10):
        delta = 10.0 ** (-k)
        if y is None or afp.fixed_point is None:
            y = witness_point(afp, delta)
            d_xy, res = dist(space, afp.x, y), dist(space, y, apply_map(space, m, y))
        if d_xy > afp.b * (1.0 + SLACK) + 1e-12:
            raise WitnessError(
                f"witness at delta={delta:g} lies {d_xy!r} from the start, beyond b={afp.b!r}")
        if not res < delta:
            raise WitnessError(
                f"witness at delta={delta:g} has residual {res!r}, not below delta")


def derived_bound(space: SpaceModel, m: MappingSpec, afp: ApproxFixedPointSpec) -> float:
    """The residual cap 2b: from d(x, y_delta) <= b and d(y_delta, T y_delta) < delta,
    nonexpansiveness gives d(x, Tx) <= 2b.  Validates the witness and checks
    the cap at the start point."""
    validate_afp(space, m, afp)
    cap = 2.0 * afp.b
    res = dist(space, afp.x, apply_map(space, m, afp.x))
    if res > cap + SLACK:
        raise WitnessError(
            f"start residual {res!r} exceeds the derived bound 2b = {cap!r}")
    return cap
