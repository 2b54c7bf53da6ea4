"""Two-stage averaged iteration of a self-map T:

    y_n     = (1 - s_n) x_n (+) s_n T x_n
    x_{n+1} = (1 - lambda_n) x_n (+) lambda_n T y_n

with s_n = 0 giving the one-stage averaged scheme as a special case.  The
runner records the residuals d(x_n, T x_n), the inner residuals
d(x_n, T y_n) and, given a reference point z, the distances d(x_n, z),
d(y_n, z) and d(T y_n, z) at every step.  Of the iterates x_n and y_n it
keeps only the cycle below; `ishikawa_step` recomputes any other.  A step
takes d(x_n, T x_n) with y_n, and d(x_n, T y_n) with x_{n+1}, from fused
dist_combine calls (one when s_n = 0), each on the disk one Mobius
translation.

The runner stops at the first detected bitwise repeat of the orbit state.
Once lambda_n and s_n are constant, a step is a fixed function of x_n, so
x_{c+p} == x_c bitwise makes every recorded value repeat the block [c, c+p)
from c+p on.  In floating point the residual of a converging orbit often
stalls near 1e-323 while x_n runs through a short cycle of subnormal states
with T x_n != x_n.  Each step compares x_{n+1} with x_n, which finds period
1 at its exact index, and with one checkpoint state that moves to the
current index after windows of a sixteenth of the steps since const_from,
which finds any period p once a window reaches p (after R. P. Brent, BIT
20, 1980).  Before the schedule is constant the runner stops only where
T x_n == x_n: every raw combine returns x when both endpoints are equal,
so that state is fixed whatever the schedule does next.  So a trajectory
is a prefix plus a cycle: each recorded array keeps [0, c+p), and
`Trajectory.fold` reads any index.

`trajectory_to_csv` writes the same split.  Prefix rows go out in chunks,
with one repr per distinct float64 bit pattern of a chunk.  Tail rows share
their p field strings, and are written in decade blocks of row numbers that
share their high digits, so no tail row costs a str(n) of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .geometry import Point, SpaceModel, check_point, raw_ops
from .mappings import ApproxFixedPointSpec, DomainError, MappingSpec, ball_member, raw_apply_fn
from .moduli import Schedule, seq_float_plan

# numpy is imported inside the functions that make arrays, so that a process
# that makes none, such as `rate`, never loads it.
if TYPE_CHECKING:
    import numpy as np

# trajectory_to_csv builds and writes this many rows at a time, which keeps
# its memory small next to the orbit arrays.
_CSV_CHUNK_ROWS = 1 << 12
# _tail_blocks caches at most this many rows of the repeating decade blocks.
_CSV_CACHE_ROWS = 1 << 14


class IterationError(ValueError):
    pass


@dataclass
class Trajectory:
    """A recorded orbit of `steps` steps, a prefix plus a cycle: index n of
    the orbit is recorded at fold(n), which is n below tail_from and
    tail_from + (n - tail_from) % len(cycle) from there on.  With a cut-off,
    tail_from is period_from, the arrays hold [0, period_from + period), and
    x_n = cycle[fold(n) - tail_from] from tail_from on, y_n likewise in
    `inner_cycle`.  Without one, tail_from is steps, `cycle` is (x_steps,),
    `inner_cycle` is empty and fold is the identity."""

    space: SpaceModel
    mapping: MappingSpec
    schedule: Schedule
    start: Point
    steps: int
    residuals: np.ndarray               # d(x_n, T x_n) at the recorded n
    inner_residuals: np.ndarray         # d(x_n, T y_n) at the recorded n < steps
    cycle: tuple[Point, ...]            # x_n, n = tail_from .. tail_from+p-1
    inner_cycle: tuple[Point, ...]      # y_n at the same n
    # moduli.seq_float_plan of lambda_n and of s_n, (head, tail, const_from):
    # the floats the runner used, the table and then the running product
    lam_plan: tuple
    s_plan: tuple
    afp: ApproxFixedPointSpec | None = None
    ref_point: Point | None = None
    ref_distances: np.ndarray | None = None          # d(x_n, z), z = ref_point
    inner_ref_distances: np.ndarray | None = None    # d(y_n, z)
    t_inner_ref_distances: np.ndarray | None = None  # d(T y_n, z)
    # The cut-off: x_{c+p} == x_c bitwise for c = period_from, p = period,
    # with c + p <= steps.  For p = 1, c is the first n with T x_n == x_n, or
    # once lambda_n and s_n are constant, the first n with x_{n+1} == x_n.
    # For p > 1, c is where the checkpoint caught the repeat, which can lie
    # past the first index of the cycle.  None when no repeat was found.
    period_from: int | None = None
    period: int | None = None

    @property
    def stationary_from(self) -> int | None:
        """period_from when the period is 1: x_n is constant from there on."""
        return self.period_from if self.period == 1 else None

    @property
    def tail_from(self) -> int:
        return self.steps if self.period_from is None else self.period_from

    def fold(self, idx):
        """The recorded index of index idx of the orbit, an int or int array."""
        import numpy as np
        c, p = self.tail_from, len(self.cycle)
        if np.ndim(idx) == 0:
            return idx if idx < c else c + (idx - c) % p
        idx = np.asarray(idx, dtype=np.intp)
        return np.where(idx < c, idx, c + (idx - c) % p)

    def schedule_floats(self, count: int) -> list[np.ndarray]:
        """lambda_n and s_n for n < count, as the floats the runner used."""
        import numpy as np
        return [np.concatenate([head[:count], np.full(max(0, count - const_from), tail)])
                for head, tail, const_from in (self.lam_plan, self.s_plan)]

    # Unused here; perfbench/spans.py still reads these three views of the
    # cycle, and they go when it reads the arrays' nbytes instead.
    @property
    def stored_indices(self) -> np.ndarray:
        import numpy as np
        return np.arange(self.tail_from, self.tail_from + len(self.cycle))

    points = property(lambda self: list(self.cycle))
    inner_points = property(lambda self: list(self.inner_cycle))


def ishikawa_step(space: SpaceModel, m: MappingSpec, x: Point,
                  lam: float, s: float) -> tuple[Point, Point]:
    """One update: returns (x_next, y).  On a ClosedBall domain, x and y
    must pass mappings.ball_member, as in run_trajectory; else DomainError."""
    xr = check_point(space, x)
    if not 0.0 <= lam <= 1.0:
        raise IterationError(f"lambda = {lam!r} outside [0, 1]")
    if not 0.0 <= s <= 1.0:
        raise IterationError(f"s = {s!r} outside [0, 1]")
    f = raw_apply_fn(space, m)
    if (inside := ball_member(space, m.domain)) is not None:
        f = _confined(f, inside)
    combine_fn = raw_ops(space)[1]
    y = combine_fn(xr, f(xr), s)
    x_next = combine_fn(xr, f(y), lam)
    return Point(space.kind, x_next), Point(space.kind, y)


def _same_bits(a, b) -> bool:
    """Whether a and b, already ==, are equal to the bit: == takes -0.0 for
    0.0, repr does not, and a float's repr round-trips exactly."""
    return repr(a) == repr(b)


def _confined(f, inside):
    """f, raising DomainError at a point that inside rejects."""
    def g(z):
        if not inside(z):
            raise DomainError("point outside the mapping's domain")
        return f(z)
    return g


def run_trajectory(space: SpaceModel, m: MappingSpec, x0: Point,
                   schedule: Schedule, steps: int, *,
                   afp: ApproxFixedPointSpec | None = None,
                   ref_point: Point | None = None) -> Trajectory:
    """Run `steps` updates from x0, recording residuals at every step.

    With a reference point z, also records d(x_n, z), d(y_n, z) and
    d(T y_n, z) at every step: with the residuals, all that the audit
    checks read of the orbit.  The loop stops at the first detected bitwise
    repeat x_{c+p} == x_c (recorded as `period_from` and `period`) and
    keeps the indices [0, c+p), which hold every value of the orbit, and
    the p states of its cycle.

    On a ClosedBall domain, each x_n and y_n that T is applied to must pass
    mappings.ball_member; else DomainError names the step n.  A whole-space
    map runs the loop unguarded.
    """
    import numpy as np
    x = check_point(space, x0)
    if steps < 0:
        raise IterationError("steps must be a natural")

    dist_fn, combine_fn, dist_combine = raw_ops(space)
    f = raw_apply_fn(space, m)
    if (inside := ball_member(space, m.domain)) is not None:
        f = _confined(f, inside)

    lam_head, lam_tail, lam_k = lam_plan = seq_float_plan(schedule.lambda_seq, steps)
    s_head, s_tail, s_k = s_plan = seq_float_plan(schedule.s_seq, steps)
    const_from = max(lam_k, s_k)        # a step is a fixed map of x_n from here

    residuals, inner = np.empty(steps + 1), np.empty(steps)
    record = ref_point is not None
    if record:
        z = check_point(space, ref_point)
        ref_d, y_ref_d, ty_ref_d = np.empty(steps + 1), np.empty(steps), np.empty(steps)
    else:
        ref_d = y_ref_d = ty_ref_d = None

    period_from = period = None
    # The checkpoint x_{mark_at}: x_n at n = const_from, moved to x_n after
    # max(2, (n - const_from) >> 4) steps, so it catches a cycle of period p
    # from c within (c - const_from) / 8 of c once that reaches 16 p.
    mark, mark_at, move_at = None, None, const_from
    try:
        for n in range(steps):
            if n == move_at:
                mark, mark_at = x, n
                move_at = n + max(2, (n - const_from) >> 4)
            lam = lam_head[n] if n < lam_k else lam_tail
            s = s_head[n] if n < s_k else s_tail

            tx = f(x)
            if s == 0.0:
                r, x_next = dist_combine(x, tx, lam)
                y, ty = x, tx
                inner[n] = r
            else:
                r, y = dist_combine(x, tx, s)
                ty = f(y)
                inner[n], x_next = dist_combine(x, ty, lam)
            residuals[n] = r

            if record:
                ref_d[n] = dist_fn(x, z)
                y_ref_d[n] = dist_fn(y, z)
                ty_ref_d[n] = dist_fn(ty, z)

            # Before const_from only a fixed point, T x_n == x_n, is a repeat
            # whose block the later steps reproduce.
            if x_next == x and (n >= const_from or tx == x) and _same_bits(x_next, x):
                period_from, period, mark = n, 1, x
                break
            if x_next == mark and _same_bits(x_next, mark):
                period_from, period = mark_at, n + 1 - mark_at
                break
            x = x_next
        n = steps       # from here T is applied to x_steps, or to states checked above

        if period is None:
            # no repeat: only the final index is left, and x_steps is the tail
            residuals[steps] = dist_fn(x, f(x))
            if record:
                ref_d[steps] = dist_fn(x, z)
            ring, inner_ring = [x], []
        else:
            # [0, c+p) holds every value; copies let the long buffers go
            residuals, inner, ref_d, y_ref_d, ty_ref_d = (
                None if a is None else a[:period_from + period].copy()
                for a in (residuals, inner, ref_d, y_ref_d, ty_ref_d))
            # p steps from the checkpoint x_c give the cycle's states
            ring, inner_ring, x = [], [], mark
            for _ in range(period):
                y = combine_fn(x, f(x), s_tail)
                ring.append(x)
                inner_ring.append(y)
                x = combine_fn(x, f(y), lam_tail)
    except DomainError:
        raise DomainError(f"the orbit leaves the mapping's domain at step n = {n}") from None

    return Trajectory(
        space=space, mapping=m, schedule=schedule, start=x0, steps=steps,
        residuals=residuals, inner_residuals=inner,
        cycle=tuple(Point(space.kind, v) for v in ring),
        inner_cycle=tuple(Point(space.kind, v) for v in inner_ring),
        lam_plan=lam_plan, s_plan=s_plan,
        afp=afp, ref_point=ref_point,
        ref_distances=ref_d, inner_ref_distances=y_ref_d,
        t_inner_ref_distances=ty_ref_d,
        period_from=period_from, period=period,
    )


def trajectory_to_csv(traj: Trajectory, target, report_every: int = 1) -> None:
    """Write rows n, residual, inner_residual (blank on the final row) and,
    when reference distances were recorded, dist_to_ref, in the csv
    module's default dialect (CRLF line ends).

    Rows below the cut-off c are written in chunks of _CSV_CHUNK_ROWS, with
    one repr per distinct float64 bit pattern of the chunk (so -0.0 and 0.0
    stay apart).  From c on, row n repeats the fields of recorded row
    c + (n - c) % p, and the rows are written in decade blocks by
    _tail_blocks; the final row has a blank inner_residual."""
    if report_every < 1:
        raise IterationError("report_every must be >= 1")
    header = ["n", "residual", "inner_residual"]
    columns = [traj.residuals, traj.inner_residuals]
    if traj.ref_distances is not None:
        header.append("dist_to_ref")
        columns.append(traj.ref_distances)
    steps = traj.steps
    rows = range(0, steps + 1, report_every)
    c, p = traj.tail_from, len(traj.cycle)
    split = -(-c // report_every)
    final = rows[-1] == steps
    tail = rows[split:len(rows) - final]
    own = isinstance(target, (str, bytes)) or hasattr(target, "__fspath__")
    handle = open(target, "w", newline="") if own else target
    try:
        handle.write(",".join(header) + "\r\n")
        for lo in range(0, split, _CSV_CHUNK_ROWS):
            part = rows[lo:min(lo + _CSV_CHUNK_ROWS, split)]
            fields = _reprs(columns, part)
            handle.write("\r\n".join(map(",".join, zip(map(str, part), *fields))) + "\r\n")
        if tail:
            suffixes = ["," + ",".join(f) + "\r\n"
                        for f in zip(*_reprs(columns, range(c, c + p)))]
            for block in _tail_blocks(tail, c, suffixes):
                handle.write(block)
        if final:
            k = traj.fold(steps)
            fields = [str(steps), repr(columns[0][k].item()), ""]
            handle.write(",".join(fields + [repr(col[k].item()) for col in columns[2:]])
                         + "\r\n")
    finally:
        if own:
            handle.close()


def _reprs(columns: list[np.ndarray], idx: range) -> list[list[str]]:
    """repr of every value of columns[i][idx], a list per column, calling
    repr once per distinct bit pattern: repr is slow, slowest on the
    subnormals where a residual stalls, and the columns of an orbit repeat
    values, residual and inner_residual bitwise on every one-stage step."""
    import numpy as np
    block = np.stack([col[idx.start:idx.stop:idx.step] for col in columns])
    bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    return text[inverse.reshape(block.shape)].tolist()


def _tail_blocks(tail: range, c: int, suffixes: list[str]):
    """The text of rows n in tail (all n >= c), row n being str(n) +
    suffixes[(n - c) % p], in decade blocks: the rows of one block share the
    high digits hi = n // B, B the least power of ten >= 1000 * tail.step, so
    a block is h + h.join(lows), h = str(hi) and lows[j] the zero-padded low
    digits of its row j plus that row's suffix (for hi = 0, h is empty and
    nothing is padded).  lows depends only on the first low value, the
    suffix phase and the row count, and whole blocks are cached under their
    first low and phase, up to _CSV_CACHE_ROWS rows: with p = 1 and stride 1,
    one list serves every block."""
    r, p = tail.step, len(suffixes)
    width = len(str(1000 * r - 1))
    size = 10 ** width
    cache: dict = {}
    cached = 0
    n, last = tail[0], tail[-1]
    while n <= last:
        hi, first = divmod(n, size)
        count = (min(size - 1, last - hi * size) - first) // r + 1
        phase = (n - c) % p
        # a block that spans its whole decade past hi = 0 recurs
        whole = hi > 0 and first < r and first + count * r >= size
        lows = cache.get((first, phase)) if whole else None
        if lows is None:
            pad = width if hi else 0
            lows = [str(low).zfill(pad) + suffixes[(phase + low - first) % p]
                    for low in range(first, first + count * r, r)]
            if whole and cached + count <= _CSV_CACHE_ROWS:
                cache[first, phase] = lows
                cached += count
        h = str(hi) if hi else ""
        yield h + h.join(lows)
        n += count * r
