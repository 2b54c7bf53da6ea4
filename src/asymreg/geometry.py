"""Geodesic space models with an explicit convex-combination map.

Two models ship: Euclidean n-space and the Poincare unit disk (curvature -1).
Both expose the same primitives: the metric `dist`, the geodesic convex
combination `combine(space, x, y, t)` returning the point a fraction t of the
way from x to y, and an attached uniform-convexity modulus descriptor.

Each model is built by its one constructor, from Python and from a config
alike; it checks that dim is an integer >= 1 and the modulus an eta descriptor.

Disk conventions, in complex notation: points z with |z|^2 < 1 - margin,
distance d(x, y) = 2 artanh |(y - x) / (1 - conj(x) y)|, and geodesics
computed by the Mobius translation taking x to the origin, a radial move,
and the inverse translation.  The distance from the origin to z is
2 artanh |z|, so the point at distance t*d(x, y) from x toward y sits at
radius tanh(t * artanh |u|) along the translated direction u.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .moduli import (ROLE_ETA, DescriptorError, ModulusDescriptor, as_int, eta_quadratic,
                     require_role)

# numpy is imported inside the functions that make arrays, so that a process
# that makes none, such as `rate`, never loads it.
if TYPE_CHECKING:
    import numpy as np

EUCLIDEAN = "Euclidean"
POINCARE_DISK = "PoincareDisk"

# Interior margin for disk points: |z|^2 < 1 - DISK_MARGIN.
DISK_MARGIN = 1e-12
# atanh argument guard; caps representable distances, far beyond sampling range.
_ATANH_GUARD = 1.0 - 1e-15
_TINY = sys.float_info.min
# A combine result with |z|^2 >= _DISK_EDGE is scaled back to |z|^2 = 1 - 2 margin.
_DISK_EDGE = 1.0 - DISK_MARGIN
_DISK_INNER = 1.0 - 2.0 * DISK_MARGIN


class GeometryError(ValueError):
    pass


class DimensionMismatchError(GeometryError):
    pass


class PointOutsideModelError(GeometryError):
    pass


class ParameterRangeError(GeometryError):
    pass


@dataclass(frozen=True)
class SpaceModel:
    kind: str
    dim: int
    modulus: ModulusDescriptor


@dataclass(frozen=True)
class Point:
    """A point of a model, held as the value its raw kernels take: a complex
    on the disk and the plane, a tuple of floats in every other dimension."""

    model: str
    raw: complex | tuple[float, ...]

    @property
    def coords(self) -> tuple[float, ...]:
        raw = self.raw
        return (raw.real, raw.imag) if type(raw) is complex else raw


def euclidean(dim: int = 2, modulus: ModulusDescriptor | None = None) -> SpaceModel:
    try:
        return SpaceModel(EUCLIDEAN, as_int(dim, "dim", 1), _eta(modulus))
    except DescriptorError as exc:
        raise DimensionMismatchError(str(exc)) from None


def poincare_disk(modulus: ModulusDescriptor | None = None) -> SpaceModel:
    return SpaceModel(POINCARE_DISK, 2, _eta(modulus))


def _eta(modulus: ModulusDescriptor | None) -> ModulusDescriptor:
    """The modulus of a model: eps^2/8 when none is given, else an eta descriptor."""
    try:
        return eta_quadratic() if modulus is None else require_role(modulus, ROLE_ETA, "modulus")
    except DescriptorError as exc:
        raise GeometryError(str(exc)) from None


def make_point(space: SpaceModel, coords) -> Point:
    coords = tuple(float(c) for c in coords)
    if len(coords) != space.dim:
        raise DimensionMismatchError(
            f"expected {space.dim} coordinates, got {len(coords)}")
    for c in coords:
        if not math.isfinite(c):
            raise PointOutsideModelError("coordinates must be finite")
    if space.kind == POINCARE_DISK:
        n2 = coords[0] * coords[0] + coords[1] * coords[1]
        if n2 >= 1.0 - DISK_MARGIN:
            raise PointOutsideModelError(
                f"point with |z|^2 = {n2!r} is not interior to the disk")
    return Point(space.kind, complex(*coords) if space.dim == 2 else coords)


def check_point(space: SpaceModel, p: Point):
    """p.raw, once p is a point of space's model and dimension."""
    if p.model != space.kind:
        raise DimensionMismatchError(
            f"point of model {p.model!r} used in {space.kind!r}")
    raw = p.raw
    n = 2 if type(raw) is complex else len(raw)
    if n != space.dim:
        raise DimensionMismatchError(f"expected {space.dim} coordinates, got {n}")
    return raw


# ---------------------------------------------------------------------------
# raw kernels.  The disk and the Euclidean plane use complex numbers, other
# Euclidean dimensions use plain tuples, as Point.raw holds them; the
# iteration loop and check_nonexpansive call these kernels directly.
# Each model has two: dist, and dist_combine, which returns d(x, y) with the
# point (1 - t) x (+) t y (on the disk from one Mobius translation); every
# caller that needs W alone takes its second half.  It returns x itself when
# t == 0 or x == y: a degenerate geodesic is its endpoint, bitwise, which the
# iteration's stationarity cut-off and its lambda_n = 0 steps rely on.

def _p_dist(x: complex, y: complex) -> float:
    w = abs((y - x) / (1.0 - x.conjugate() * y))
    # min's own rule, without its call: a NaN passes through
    return 2.0 * math.atanh(_ATANH_GUARD if _ATANH_GUARD < w else w)


def _p_dist_combine(x: complex, y: complex, t: float) -> tuple[float, complex]:
    """(d(x, y), (1 - t) x (+) t y) from one Mobius translation u of y."""
    xc = x.conjugate()
    u = (y - x) / (1.0 - xc * y)
    ru = abs(u)
    a = math.atanh(_ATANH_GUARD if _ATANH_GUARD < ru else ru)
    d = 2.0 * a
    if t == 0.0 or x == y:
        return d, x
    if t == 1.0:
        return d, y
    if ru == 0.0:
        return d, x
    m = u * (math.tanh(t * a) / ru)
    z = (x + m) / (1.0 + xc * m)
    n2 = z.real * z.real + z.imag * z.imag
    if n2 >= _DISK_EDGE:
        return d, z * math.sqrt(_DISK_INNER / n2)
    return d, z


def _e_dist_c(x: complex, y: complex) -> float:
    return abs(x - y)


def _e_dist_combine_c(x: complex, y: complex, t: float) -> tuple[float, complex]:
    if t == 0.0 or x == y:
        return abs(x - y), x
    return abs(x - y), (1.0 - t) * x + t * y


def _e_dist_t(x: tuple, y: tuple) -> float:
    return math.dist(x, y)


def _e_dist_combine_t(x: tuple, y: tuple, t: float) -> tuple[float, tuple]:
    if t == 0.0 or x == y:
        return math.dist(x, y), x
    s = 1.0 - t
    return math.dist(x, y), tuple([s * a + t * b for a, b in zip(x, y)])


def raw_ops(space: SpaceModel):
    """(dist, dist_combine) on the raw representation of the model:
    dist_combine(x, y, t) is (d(x, y), (1 - t) x (+) t y), the model's one
    convexity map W with the distance it shares its work with, and
    dist_combine(x, y, t)[1] is W alone."""
    if space.kind == POINCARE_DISK:
        return _p_dist, _p_dist_combine
    if space.dim == 2:
        return _e_dist_c, _e_dist_combine_c
    return _e_dist_t, _e_dist_combine_t


# ---------------------------------------------------------------------------
# array kernels: the raw kernels on arrays of points at once, for the
# samplers.  An array of disk points of shape s is a complex array of shape
# s, one of Euclidean points a float array of shape (*s, dim), the plane
# included; t is a float or a float array of shape s.  Shapes broadcast, so
# (2, n) points against (n,) points make 2 blocks of n pairs in one call.
# The kernels agree with the raw kernels to a few ulp, not bitwise (on the
# disk, to a few ulp of the translate |w|, see tests/test_verification.py).

def _p_dist_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    import numpy as np
    w = (y - x) / (1.0 - x.conj() * y)
    return 2.0 * np.arctanh(np.minimum(np.abs(w), _ATANH_GUARD))


def _p_combine_array(x: np.ndarray, y: np.ndarray, t) -> np.ndarray:
    import numpy as np
    u = (y - x) / (1.0 - x.conj() * y)
    ru = np.abs(u)
    a = np.arctanh(np.minimum(ru, _ATANH_GUARD))
    # u == 0 where x == y: then m == 0, and the result is x
    m = u * (np.tanh(t * a) / np.maximum(ru, _TINY))
    z = (x + m) / (1.0 + x.conj() * m)
    n2 = z.real * z.real + z.imag * z.imag
    over = n2 >= _DISK_EDGE
    z[over] *= np.sqrt(_DISK_INNER / n2[over])
    return z


def _e_dist_array(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    import numpy as np
    return np.sqrt(np.square(x - y).sum(axis=-1))


def _e_combine_array(x: np.ndarray, y: np.ndarray, t) -> np.ndarray:
    import numpy as np
    t = np.asarray(t)[..., None]
    return (1.0 - t) * x + t * y


def array_ops(space: SpaceModel):
    """(dist, combine) on blocks of points of the model."""
    if space.kind == POINCARE_DISK:
        return _p_dist_array, _p_combine_array
    return _e_dist_array, _e_combine_array


def raw_points(space: SpaceModel, block: np.ndarray) -> list:
    """The raw values of a block's points, as the raw kernels take them."""
    if space.kind == POINCARE_DISK:
        return block.tolist()
    if space.dim == 2:
        return (block[:, 0] + 1j * block[:, 1]).tolist()
    return list(map(tuple, block.tolist()))


# ---------------------------------------------------------------------------
# public operations: the raw kernels of raw_ops, so that they agree with the
# orbit runner bitwise

def dist(space: SpaceModel, x: Point, y: Point) -> float:
    return raw_ops(space)[0](check_point(space, x), check_point(space, y))


def combine(space: SpaceModel, x: Point, y: Point, lam: float) -> Point:
    """The point (1 - lam) x (+) lam y on the geodesic from x to y."""
    xr, yr = check_point(space, x), check_point(space, y)
    if not 0.0 <= lam <= 1.0:
        raise ParameterRangeError(f"lambda = {lam!r} outside [0, 1]")
    return Point(space.kind, raw_ops(space)[1](xr, yr, lam)[1])
