"""Catalog of nonexpansive self-maps on the space models, plus approximate
fixed-point data.

Shipped kinds: the identity, Euclidean rotation about a center (acting in the
first two coordinates), the map averaging a point with its reflection through
a center (which collapses to the constant map onto that center), rotation of
the Poincare disk about an interior center (a Mobius conjugate of a Euclidean
rotation, hence an isometry), and the metric projection onto a closed ball.

An ApproxFixedPointSpec records a start point x, a bound b, and a witness:
either an exact fixed point z with d(x, z) <= b or a map delta -> y_delta
producing delta-approximate fixed points within b of x.  Either way the
residual at the start obeys d(x, Tx) <= 2b, the derived bound used by the
rate machinery.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable

from .geometry import (
    EUCLIDEAN,
    POINCARE_DISK,
    Point,
    SpaceModel,
    check_point,
    dist,
    from_raw,
    make_point,
    raw_ops,
    to_raw,
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


def whole_space() -> DomainSpec:
    return DomainSpec(WHOLE_SPACE)


def closed_ball(center, radius: float) -> DomainSpec:
    if radius <= 0:
        raise MappingError("ball radius must be positive")
    return DomainSpec(CLOSED_BALL, tuple(float(c) for c in center), float(radius))


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
    return MappingSpec(EUCLIDEAN_ROTATION, tuple(float(c) for c in center),
                       float(angle), domain=domain or whole_space())


def euclidean_reflection_average(center, domain: DomainSpec | None = None) -> MappingSpec:
    return MappingSpec(EUCLIDEAN_REFLECTION_AVERAGE,
                       tuple(float(c) for c in center),
                       domain=domain or whole_space())


def poincare_rotation(center, angle: float, domain: DomainSpec | None = None) -> MappingSpec:
    return MappingSpec(POINCARE_ROTATION, tuple(float(c) for c in center),
                       float(angle), domain=domain or whole_space())


def metric_projection(center, radius: float, domain: DomainSpec | None = None) -> MappingSpec:
    if radius <= 0:
        raise MappingError("projection ball radius must be positive")
    return MappingSpec(METRIC_PROJECTION, tuple(float(c) for c in center),
                       radius=float(radius), domain=domain or whole_space())


def _require_center(space: SpaceModel, m: MappingSpec) -> Point:
    if m.center is None:
        raise MappingError(f"{m.kind} needs a center")
    return make_point(space, m.center)


def raw_apply_fn(space: SpaceModel, m: MappingSpec) -> Callable:
    """Specialized T on the raw representation of the model."""
    kind = m.kind
    if kind == IDENTITY:
        return lambda z: z

    if kind == EUCLIDEAN_ROTATION:
        if space.kind != EUCLIDEAN or space.dim < 2:
            raise MappingError("rotation needs a Euclidean model of dim >= 2")
        center = _require_center(space, m)
        rot = cmath.exp(1j * m.angle)
        if space.dim == 2:
            c = complex(*center.coords)
            return lambda z: c + (z - c) * rot
        c0, c1 = center.coords[0], center.coords[1]

        def rotate_first_two(p: tuple) -> tuple:
            w = complex(p[0] - c0, p[1] - c1) * rot
            return (c0 + w.real, c1 + w.imag) + p[2:]

        return rotate_first_two

    if kind == EUCLIDEAN_REFLECTION_AVERAGE:
        if space.kind != EUCLIDEAN:
            raise MappingError("reflection average needs a Euclidean model")
        center = _require_center(space, m)
        # midpoint of z and its reflection 2c - z is c for every z
        c_raw = to_raw(space, center)
        return lambda z: c_raw

    if kind == POINCARE_ROTATION:
        if space.kind != POINCARE_DISK:
            raise MappingError("disk rotation needs the Poincare model")
        center = _require_center(space, m)
        rot = cmath.exp(1j * m.angle)
        c = complex(*center.coords)
        if c == 0:
            return lambda z: z * rot
        cc = c.conjugate()

        def rotate_about(z: complex) -> complex:
            u = (z - c) / (1.0 - cc * z)
            v = u * rot
            return (c + v) / (1.0 + cc * v)

        return rotate_about

    if kind == METRIC_PROJECTION:
        center = _require_center(space, m)
        radius = m.radius
        c_raw = to_raw(space, center)
        dist_fn, combine_fn = raw_ops(space)

        def project(z):
            d = dist_fn(c_raw, z)
            if d <= radius:
                return z
            return combine_fn(c_raw, z, radius / d)

        return project

    raise MappingError(f"unknown mapping kind {kind!r}")


def in_domain(space: SpaceModel, m: MappingSpec, x: Point) -> bool:
    if m.domain.kind == WHOLE_SPACE:
        return True
    center = make_point(space, m.domain.center)
    r = m.domain.radius
    return dist(space, x, center) <= r * (1.0 + SLACK) + SLACK


def apply_map(space: SpaceModel, m: MappingSpec, x: Point) -> Point:
    check_point(space, x)
    if not in_domain(space, m, x):
        raise DomainError("point outside the mapping's domain")
    return from_raw(space, raw_apply_fn(space, m)(to_raw(space, x)))


def declared_fixed_point(space: SpaceModel, m: MappingSpec) -> Point | None:
    """A point the map fixes by construction, when the kind determines one."""
    if m.kind in (EUCLIDEAN_ROTATION, EUCLIDEAN_REFLECTION_AVERAGE,
                  POINCARE_ROTATION, METRIC_PROJECTION):
        return make_point(space, m.center)
    return None


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
    """Sample the witness at delta = 1, 1e-1, ..., 1e-9."""
    check_point(space, afp.x)
    if not afp.b > 0:
        raise WitnessError("the bound b must be positive")
    for k in range(10):
        delta = 10.0 ** (-k)
        y = witness_point(afp, delta)
        d_xy = dist(space, afp.x, y)
        if d_xy > afp.b * (1.0 + SLACK) + 1e-12:
            raise WitnessError(
                f"witness at delta={delta:g} lies {d_xy!r} from the start, beyond b={afp.b!r}")
        res = dist(space, y, apply_map(space, m, y))
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
