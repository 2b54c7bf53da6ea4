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

The runner stops at the first detected bitwise repeat of the orbit state.
Once lambda_n and s_n are constant, a step is a fixed function of x_n, so
x_{c+p} == x_c bitwise makes every recorded value repeat the block [c, c+p)
from c+p on.  In floating point the residual of a converging orbit often
stalls near 1e-323 while x_n runs through a short cycle of subnormal states
with T x_n != x_n.  Each step compares x_{n+1} with x_n, which finds period
1 at its exact index, and with one checkpoint state that moves to the
current index after windows of 2, 4, 8, ... steps, which finds any period p
once the window reaches p (R. P. Brent, BIT 20, 1980).  Before the schedule
is constant the runner stops only where T x_n == x_n: every raw combine
returns x when both endpoints are equal, so that state is fixed whatever
the schedule does next.  The arrays are filled from the block, and the
stored points from c on share the p Points of `Trajectory.cycle`.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, cycle, islice

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
    SEQ_TABULATED,
    DescriptorError,
    Schedule,
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
    """A recorded orbit.  From index tail_from on, the state runs through
    `cycle`: x_n = cycle[(n - tail_from) % len(cycle)], and y_n likewise
    through `inner_cycle`.  tail_from is period_from when the cut-off fired;
    otherwise it is steps, `cycle` holds x_steps alone and `inner_cycle` is
    empty."""

    space: SpaceModel
    mapping: MappingSpec
    schedule: Schedule
    start: Point
    residuals: np.ndarray               # d(x_n, T x_n), n = 0 .. steps
    inner_residuals: np.ndarray         # d(x_n, T y_n), n = 0 .. steps-1
    stored_indices: np.ndarray          # indices n whose points were kept
    point_coords: np.ndarray            # x_n at the stored n < tail_from, a row each
    inner_point_coords: np.ndarray      # y_n at the same n
    cycle: tuple[Point, ...]            # x_n, n = tail_from .. tail_from+p-1
    inner_cycle: tuple[Point, ...]      # y_n at the same n
    afp: ApproxFixedPointSpec | None = None
    ref_point: Point | None = None
    ref_distances: np.ndarray | None = None        # d(x_n, z), dense
    inner_ref_distances: np.ndarray | None = None  # d(y_n, z), dense
    t_inner_ref_distances: np.ndarray | None = None  # d(T y_n, z), dense
    store_every: int = 1
    # The cut-off: x_{c+p} == x_c bitwise for c = period_from, p = period,
    # with c + p <= steps.  For p = 1, c is the first n with T x_n == x_n, or
    # once lambda_n and s_n are constant, the first n with x_{n+1} == x_n.
    # For p > 1, c is where the checkpoint caught the repeat, which can lie
    # past the first index of the cycle.  None when no repeat was found.
    period_from: int | None = None
    period: int | None = None

    @property
    def steps(self) -> int:
        return len(self.residuals) - 1

    @property
    def stationary_from(self) -> int | None:
        """period_from when the period is 1: x_n is constant from there on."""
        return self.period_from if self.period == 1 else None

    @property
    def tail_from(self) -> int:
        return self.steps if self.period_from is None else self.period_from

    @cached_property
    def points(self) -> list[Point]:
        """x_n at stored_indices."""
        return self._points(self.point_coords, len(self.stored_indices), self.cycle)

    @cached_property
    def inner_points(self) -> list[Point]:
        """y_n at the stored indices below steps."""
        return self._points(self.inner_point_coords, len(self.stored_indices) - 1,
                            self.inner_cycle)

    def _points(self, coords: np.ndarray, count: int,
                ring: tuple[Point, ...]) -> list[Point]:
        kind = self.space.kind
        out = [Point(kind, tuple(row)) for row in coords.tolist()]
        tail = self.stored_indices[len(out):count] - self.tail_from
        return out + [ring[k] for k in (tail % len(ring)).tolist()]


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


def _seq_scalar_plan(seq, limit: int):
    """(head, tail, const_from): the float value at step n is head[n] for
    n < const_from and tail from there on.  A Constant has no head and a
    Tabulated one its table.  A Geometric is the running product
    v_{n+1} = v_n * q from v_0 = c, rounded at every step (so not c * q**n),
    up to the first v_n with v_n * q == v_n (it has underflowed to 0.0 or
    stuck at a subnormal) or to `limit` terms."""
    if seq.kind == SEQ_CONSTANT:
        return array("d"), float(seq.param("value")), 0
    if seq.kind == SEQ_TABULATED:
        head = array("d", map(float, seq.param("values")))
        return head, float(seq.param("tail")), len(head)
    if seq.kind == SEQ_GEOMETRIC:
        head, v, q = array("d"), float(seq.param("c")), float(seq.param("q"))
        while len(head) < limit and v * q != v:
            head.append(v)
            v *= q
        return head, v, len(head)
    raise DescriptorError(f"unknown sequence kind {seq.kind!r}")


def _same_bits(a, b) -> bool:
    """Whether a and b, already ==, are equal to the bit: == takes -0.0 for
    0.0, repr does not, and a float's repr round-trips exactly."""
    return repr(a) == repr(b)


def run_trajectory(space: SpaceModel, m: MappingSpec, x0: Point,
                   schedule: Schedule, steps: int, *,
                   store_every: int | None = None,
                   afp: ApproxFixedPointSpec | None = None,
                   ref_point: Point | None = None,
                   record_ref_distances: bool = False) -> Trajectory:
    """Run `steps` updates from x0, recording residuals densely.

    With `record_ref_distances` and a reference point z, also records
    d(x_n, z), d(y_n, z) and d(T y_n, z) densely, which lets the audit checks
    work on downsampled orbits.  The loop stops at the first detected bitwise
    repeat x_{c+p} == x_c (recorded as `period_from` and `period`) and fills
    the rest of the orbit from the block [c, c+p).
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

    lam_head, lam_tail, lam_k = _seq_scalar_plan(schedule.lambda_seq, steps)
    s_head, s_tail, s_k = _seq_scalar_plan(schedule.s_seq, steps)
    const_from = max(lam_k, s_k)        # a step is a fixed map of x_n from here

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

    xs: list = []           # raw x_n at the stored n
    ys: list = []           # raw y_n at the same indices

    x = to_raw(space, x0)
    period_from = period = None
    # The checkpoint x_{mark_at}: set to x_n at n = const_from, and moved to
    # x_n whenever n reaches move_at, after windows of 2, 4, 8, ... steps.
    mark = mark_at = None
    window, move_at = 1, const_from
    for n in range(steps):
        if n == move_at:
            mark, mark_at, window = x, n, 2 * window
            move_at = n + window
        lam = lam_head[n] if n < lam_k else lam_tail
        s = s_head[n] if n < s_k else s_tail

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
        residuals[n] = r

        if record:
            ref_d[n] = dist_fn(x, z)
            y_ref_d[n] = dist_fn(y, z)
            ty_ref_d[n] = dist_fn(ty, z)
        if n % store_every == 0:
            xs.append(x)
            ys.append(y)

        # Before const_from only a fixed point, T x_n == x_n, is a repeat
        # whose block the later steps reproduce.
        if x_next == x and (n >= const_from or tx == x) and _same_bits(x_next, x):
            period_from, period, mark = n, 1, x
            break
        if x_next == mark and _same_bits(x_next, mark):
            period_from, period = mark_at, n + 1 - mark_at
            break
        x = x_next

    if period is None:
        # no repeat: only the final index is left, and x_steps is the tail
        residuals[steps] = dist_fn(x, f(x))
        if record:
            ref_d[steps] = dist_fn(x, z)
        tail_from, ring, inner_ring = steps, [x], []
    else:
        for arr in (residuals, inner, ref_d, y_ref_d, ty_ref_d):
            if arr is not None:
                _repeat(arr, period_from, period)
        # p steps from the checkpoint x_c give the cycle's states
        tail_from, ring, inner_ring, x = period_from, [], [], mark
        for _ in range(period):
            y = combine_fn(x, f(x), s_tail)
            ring.append(x)
            inner_ring.append(y)
            x = combine_fn(x, f(y), lam_tail)
    kept = -(-tail_from // store_every)     # the stored n < tail_from
    del xs[kept:], ys[kept:]

    return Trajectory(
        space=space, mapping=m, schedule=schedule, start=x0,
        residuals=residuals, inner_residuals=inner,
        stored_indices=np.append(np.arange(0, steps, store_every), steps),
        point_coords=_coords(space, xs), inner_point_coords=_coords(space, ys),
        cycle=tuple(from_raw(space, v) for v in ring),
        inner_cycle=tuple(from_raw(space, v) for v in inner_ring),
        afp=afp, ref_point=ref_point,
        ref_distances=ref_d, inner_ref_distances=y_ref_d,
        t_inner_ref_distances=ty_ref_d,
        store_every=store_every,
        period_from=period_from, period=period,
    )


def _repeat(arr: np.ndarray, c: int, p: int) -> None:
    """Fill arr from index c + p on with the block arr[c:c+p], repeated, by
    copies that double in length and allocate nothing."""
    k = c + p
    while k < len(arr):
        width = min(k - c, len(arr) - k)       # arr[c:k] is whole blocks
        arr[k:k + width] = arr[c:c + width]
        k += width


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
    # From the cut-off c up to the final row, row n repeats the fields of
    # row c + (n - c) % p; the final row has a blank inner_residual and takes
    # the general path.
    c, p = traj.tail_from, len(traj.cycle)
    split = -(-c // report_every)
    tail, last = rows[split:-1], rows[split:][-1:]
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    handle = open(target, "w", newline="") if own else target
    try:
        handle.write(",".join(header) + "\r\n")
        for lo in range(0, split, _CSV_CHUNK_ROWS):
            _write_rows(handle, rows[lo:min(lo + _CSV_CHUNK_ROWS, split)], columns)
        if tail:
            suffixes = ["".join("," + repr(col[c + j].item()) for col in columns) + "\r\n"
                        for j in range(p)]
            for lo in range(0, len(tail), _CSV_CHUNK_ROWS):
                part = tail[lo:lo + _CSV_CHUNK_ROWS]
                text = [""] * (2 * len(part))
                text[::2] = map(str, part)
                # the suffixes of p rows in a row repeat: p is a multiple
                # of their period p / gcd(p, report_every)
                text[1::2] = islice(cycle([suffixes[(n - c) % p] for n in part[:p]]),
                                    len(part))
                handle.write("".join(text))
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
