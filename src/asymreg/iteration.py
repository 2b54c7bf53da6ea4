"""Two-stage averaged iteration of a self-map T:

    y_n     = (1 - s_n) x_n (+) s_n T x_n
    x_{n+1} = (1 - lambda_n) x_n (+) lambda_n T y_n

with s_n = 0 giving the one-stage averaged scheme as a special case.  The
runner records the residuals d(x_n, T x_n) densely for every step, the inner
residuals d(x_n, T y_n) one per step, and the points themselves at a
configurable stride (dense storage of long orbits is the memory hog, the
residual arrays are cheap).  Each step takes d(x_n, T y_n) and x_{n+1} from
one fused dist_combine call, which on the disk is one Mobius translation.
Stored points are kept as raw coordinates, one float64 array per list,
up to the cut-off below; `Trajectory.points` and `inner_points` build Point
objects on first access.

The runner stops at the first step n where T x_n == x_n bitwise.  Every raw
combine returns x when both endpoints are equal, so every later step
repeats step n exactly; the rest of each array is filled with its constant
value, and the stored points past n are the same Point object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .geometry import (
    Point,
    SpaceModel,
    check_point,
    from_raw,
    raw_dist_combine,
    raw_ops,
    to_raw,
    uses_complex,
)
from .mappings import ApproxFixedPointSpec, MappingSpec, raw_apply_fn
from .moduli import (
    SEQ_CONSTANT,
    SEQ_GEOMETRIC,
    Schedule,
    seq_value,
)

# Orbits longer than this stride their stored points automatically.
_DENSE_POINT_LIMIT = 100_000
# trajectory_to_csv builds and writes this many rows at a time, which keeps
# its memory small next to the orbit arrays.
_CSV_CHUNK_ROWS = 1 << 12


class IterationError(ValueError):
    pass


@dataclass
class Trajectory:
    """A recorded orbit.  The state is constant from index stop on, where
    stop is stationary_from or, when the cut-off never fired, steps; the
    stored points from stop on are all final_point."""

    space: SpaceModel
    mapping: MappingSpec
    schedule: Schedule
    start: Point
    residuals: np.ndarray               # d(x_n, T x_n), n = 0 .. steps
    inner_residuals: np.ndarray         # d(x_n, T y_n), n = 0 .. steps-1
    stored_indices: np.ndarray          # indices n whose points were kept
    point_coords: np.ndarray            # x_n at the stored n < stop, a row each
    inner_point_coords: np.ndarray      # y_n at the same n
    final_point: Point                  # x_n, and y_n, at the stored n >= stop
    afp: ApproxFixedPointSpec | None = None
    ref_point: Point | None = None
    ref_distances: np.ndarray | None = None        # d(x_n, z), dense
    inner_ref_distances: np.ndarray | None = None  # d(y_n, z), dense
    t_inner_ref_distances: np.ndarray | None = None  # d(T y_n, z), dense
    store_every: int = 1
    stationary_from: int | None = None  # first n < steps with T x_n == x_n

    @property
    def steps(self) -> int:
        return len(self.residuals) - 1

    @cached_property
    def points(self) -> list[Point]:
        """x_n at stored_indices."""
        return self._points(self.point_coords, len(self.stored_indices))

    @cached_property
    def inner_points(self) -> list[Point]:
        """y_n at the stored indices below steps."""
        return self._points(self.inner_point_coords, len(self.stored_indices) - 1)

    def _points(self, coords: np.ndarray, count: int) -> list[Point]:
        kind = self.space.kind
        out = [Point(kind, tuple(row)) for row in coords.tolist()]
        return out + [self.final_point] * (count - len(out))


def ishikawa_step(space: SpaceModel, m: MappingSpec, x: Point,
                  lam: float, s: float) -> tuple[Point, Point]:
    """One update: returns (x_next, y)."""
    check_point(space, x)
    if not 0.0 <= lam <= 1.0:
        raise IterationError(f"lambda = {lam!r} outside [0, 1]")
    if not 0.0 <= s <= 1.0:
        raise IterationError(f"s = {s!r} outside [0, 1]")
    f = raw_apply_fn(space, m)
    _, combine_fn = raw_ops(space)
    xr = to_raw(space, x)
    y = combine_fn(xr, f(xr), s)
    x_next = combine_fn(xr, f(y), lam)
    return from_raw(space, x_next), from_raw(space, y)


def _seq_scalar_plan(seq):
    """(constant_value, geometric_pair, fallback) for fast in-loop evaluation."""
    if seq.kind == SEQ_CONSTANT:
        return float(seq.param("value")), None, None
    if seq.kind == SEQ_GEOMETRIC:
        return None, (float(seq.param("c")), float(seq.param("q"))), None
    return None, None, lambda n: float(seq_value(seq, n))


def run_trajectory(space: SpaceModel, m: MappingSpec, x0: Point,
                   schedule: Schedule, steps: int, *,
                   store_every: int | None = None,
                   afp: ApproxFixedPointSpec | None = None,
                   ref_point: Point | None = None,
                   record_ref_distances: bool = False) -> Trajectory:
    """Run `steps` updates from x0, recording residuals densely.

    With `record_ref_distances` and a reference point z, also records
    d(x_n, z), d(y_n, z) and d(T y_n, z) densely, which lets the audit checks
    work on downsampled orbits.  The loop stops at the first bitwise fixed
    point x_n (recorded as `stationary_from`) and fills the constant tail.
    """
    check_point(space, x0)
    if steps < 0:
        raise IterationError("steps must be a natural")
    if store_every is None:
        store_every = 1 if steps <= _DENSE_POINT_LIMIT else steps // _DENSE_POINT_LIMIT + 1
    if store_every < 1:
        raise IterationError("store_every must be >= 1")

    dist_fn, combine_fn = raw_ops(space)
    dist_combine = raw_dist_combine(space)
    f = raw_apply_fn(space, m)

    lam_const, lam_geo, lam_fn = _seq_scalar_plan(schedule.lambda_seq)
    s_const, s_geo, s_fn = _seq_scalar_plan(schedule.s_seq)
    lam_run, lam_ratio = lam_geo if lam_geo else (0.0, 0.0)
    s_run, s_ratio = s_geo if s_geo else (0.0, 0.0)

    residuals = np.empty(steps + 1)
    inner = np.empty(steps)
    record = record_ref_distances and ref_point is not None
    if record:
        z = to_raw(space, ref_point)
        ref_d = np.empty(steps + 1)
        y_ref_d = np.empty(steps)
        ty_ref_d = np.empty(steps)
    else:
        ref_d = y_ref_d = ty_ref_d = None

    stored: list[int] = []
    xs: list = []           # raw x_n at the stored n < stop
    ys: list = []           # raw y_n at the same indices

    x = to_raw(space, x0)
    stop = steps
    for n in range(steps):
        if s_const is not None:
            s = s_const
        elif s_fn is None:
            s = s_run
            s_run *= s_ratio
        else:
            s = s_fn(n)
        if lam_const is not None:
            lam = lam_const
        elif lam_fn is None:
            lam = lam_run
            lam_run *= lam_ratio
        else:
            lam = lam_fn(n)

        tx = f(x)
        if s == 0.0:
            r, x_next = dist_combine(x, tx, lam)
            y = x
            ty = tx
            inner[n] = r
        else:
            r = dist_fn(x, tx)
            y = combine_fn(x, tx, s)
            ty = f(y)
            inner[n], x_next = dist_combine(x, ty, lam)
        if r == 0.0 and tx == x:
            stop = n
            break
        residuals[n] = r

        if record:
            ref_d[n] = dist_fn(x, z)
            y_ref_d[n] = dist_fn(y, z)
            ty_ref_d[n] = dist_fn(ty, z)
        if n % store_every == 0:
            stored.append(n)
            xs.append(x)
            ys.append(y)
        x = x_next

    # From `stop` on, x_n = y_n = x and T y_n = tx; without a cut-off these
    # slices hold only the final index.
    tx = f(x)
    r = dist_fn(x, tx)
    residuals[stop:] = r
    inner[stop:] = r
    if record:
        ref_d[stop:] = y_ref_d[stop:] = dist_fn(x, z)
        ty_ref_d[stop:] = dist_fn(tx, z)
    stored.extend(range(-(-stop // store_every) * store_every, steps, store_every))
    if not stored or stored[-1] != steps:
        stored.append(steps)

    return Trajectory(
        space=space, mapping=m, schedule=schedule, start=x0,
        residuals=residuals, inner_residuals=inner,
        stored_indices=np.asarray(stored, dtype=np.int64),
        point_coords=_coords(space, xs), inner_point_coords=_coords(space, ys),
        final_point=from_raw(space, x),
        afp=afp, ref_point=ref_point,
        ref_distances=ref_d, inner_ref_distances=y_ref_d,
        t_inner_ref_distances=ty_ref_d,
        store_every=store_every,
        stationary_from=stop if stop < steps else None,
    )


def _coords(space: SpaceModel, raws: list) -> np.ndarray:
    """Raw points as a (len(raws), dim) float64 array."""
    if uses_complex(space):
        return np.array(raws, dtype=np.complex128).view(np.float64).reshape(-1, 2)
    flat = np.fromiter(chain.from_iterable(raws), dtype=np.float64,
                       count=len(raws) * space.dim)
    return flat.reshape(-1, space.dim)


def partial_sums_alpha(schedule: Schedule, n: int):
    """alpha_n = sum_{i=0..n} s_i (1 - lambda_i), exact Fraction."""
    if n < 0:
        raise IterationError("n must be a natural")
    total = 0
    for i in range(n + 1):
        total += schedule.s_at(i) * (1 - schedule.lambda_at(i))
    return total


def trajectory_to_csv(traj: Trajectory, target, report_every: int = 1) -> None:
    """Write rows n, residual, inner_residual (blank on the final row) and,
    when reference distances were recorded, dist_to_ref, in the csv
    module's default dialect (CRLF line ends)."""
    if report_every < 1:
        raise IterationError("report_every must be >= 1")
    header = ["n", "residual", "inner_residual"]
    columns = [traj.residuals, traj.inner_residuals]
    if traj.ref_distances is not None:
        header.append("dist_to_ref")
        columns.append(traj.ref_distances)
    rows = range(0, traj.steps + 1, report_every)
    # The rows from the cut-off up to the final one differ only in n; the
    # final row has a blank inner_residual and takes the general path.
    stop = traj.stationary_from
    split = len(rows) if stop is None else -(-stop // report_every)
    tail, last = rows[split:-1], rows[split:][-1:]
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    handle = open(target, "w", newline="") if own else target
    try:
        handle.write(",".join(header) + "\r\n")
        for lo in range(0, split, _CSV_CHUNK_ROWS):
            _write_rows(handle, rows[lo:min(lo + _CSV_CHUNK_ROWS, split)], columns)
        if tail:
            suffix = "".join("," + repr(col[stop].item()) for col in columns) + "\r\n"
            for lo in range(0, len(tail), _CSV_CHUNK_ROWS):
                handle.write(suffix.join(map(str, tail[lo:lo + _CSV_CHUNK_ROWS])) + suffix)
        if last:
            _write_rows(handle, last, columns)
    finally:
        if own:
            handle.close()


def _write_rows(handle, part: range, columns: list[np.ndarray]) -> None:
    # zip stops at the n column; the "" fills inner_residual on the final
    # row, which has no inner residual
    fields = [map(str, part)] + [
        chain(map(repr, col[part.start:part.stop:part.step].tolist()), ("",))
        for col in columns]
    handle.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")
