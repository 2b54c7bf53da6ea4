import cmath
import csv
import dataclasses
import io
import math
import tracemalloc
from array import array
from fractions import Fraction
from itertools import islice, repeat

import numpy as np
import pytest
from conftest import CONFIG_DIR

import asymreg as ar
from asymreg import iteration
from asymreg.geometry import raw_ops
from asymreg.mappings import raw_apply_fn
from asymreg.moduli import seq_float_plan

E2 = ar.euclidean(2)
D = ar.poincare_disk()


def km_schedule(lam=Fraction(1, 2)):
    return ar.Schedule(ar.seq_constant(lam), ar.seq_constant(0),
                       ar.theta_for_constant_lambda(lam), 1, 0, ar.gamma_zero())


def ishikawa_schedule():
    lam = ar.seq_constant(Fraction(1, 2))
    return ar.Schedule(lam, ar.seq_geometric(Fraction(1, 2), Fraction(1, 2)),
                       ar.theta_linear(4), 2, 0,
                       ar.gamma_for_geometric_s(Fraction(1, 2), Fraction(1, 2), lam))


def oracle_orbit(z0, rot, lam_fn, s_fn, steps):
    """Plain complex-arithmetic reimplementation of the iteration
    x_{n+1} = (1-lam) x + lam T((1-s) x + s T x) with T z = rot * z."""
    xs, res = [z0], []
    x = z0
    for n in range(steps):
        lam, s = lam_fn(n), s_fn(n)
        tx = rot * x
        res.append(abs(x - tx))
        y = (1 - s) * x + s * tx
        x = (1 - lam) * x + lam * (rot * y)
        xs.append(x)
    res.append(abs(x - rot * x))
    return xs, res


def stepped_orbit(traj):
    """x_n for n <= steps and y_n for n < steps, stepped with ishikawa_step
    on the floats the runner used: the trajectory keeps only its cycle."""
    lam, s = traj.schedule_floats(traj.steps)
    xs, ys = [traj.start], []
    for a, b in zip(lam.tolist(), s.tolist()):
        x, y = ar.ishikawa_step(traj.space, traj.mapping, xs[-1], a, b)
        xs.append(x)
        ys.append(y)
    return xs, ys


def at(traj, n):
    """x_n of the trajectory's cycle, for n >= tail_from."""
    return traj.cycle[traj.fold(n) - traj.tail_from]


def test_km_matches_independent_oracle():
    rot = cmath.exp(1j * math.pi / 2)
    m = ar.euclidean_rotation((0.0, 0.0), math.pi / 2)
    traj = ar.run_trajectory(E2, m, ar.make_point(E2, (1.0, 0.0)),
                             km_schedule(), 100)
    xs, res = oracle_orbit(1.0 + 0.0j, rot, lambda n: 0.5, lambda n: 0.0, 100)
    np.testing.assert_allclose(traj.residuals, res, rtol=0, atol=1e-12)
    stepped, _ = stepped_orbit(traj)
    for n, x in enumerate(stepped):
        assert x.coords == pytest.approx((xs[n].real, xs[n].imag), abs=1e-12)
    assert at(traj, 100).coords == pytest.approx(
        (xs[100].real, xs[100].imag), abs=1e-12)


def test_ishikawa_geometric_s_matches_oracle():
    rot = cmath.exp(1j * math.pi)
    m = ar.euclidean_rotation((0.0, 0.0), math.pi)
    traj = ar.run_trajectory(E2, m, ar.make_point(E2, (1.0, 0.0)),
                             ishikawa_schedule(), 200)
    xs, res = oracle_orbit(1.0 + 0.0j, rot, lambda n: 0.5,
                           lambda n: 0.5 ** (n + 1), 200)
    assert traj.stationary_from == 46     # the rest is read through fold
    np.testing.assert_allclose(traj.residuals[traj.fold(range(201))], res,
                               rtol=0, atol=1e-12)
    assert at(traj, 200).coords == pytest.approx(
        (xs[-1].real, xs[-1].imag), abs=1e-12)


def test_tabulated_lambda_path():
    lam = ar.seq_tabulated([Fraction(1, 2), Fraction(1, 4)], Fraction(1, 3))
    sched = ar.Schedule(lam, ar.seq_constant(0), ar.theta_linear(6), 1, 0,
                        ar.gamma_zero())
    rot = cmath.exp(1j * 1.0)
    m = ar.euclidean_rotation((0.0, 0.0), 1.0)
    traj = ar.run_trajectory(E2, m, ar.make_point(E2, (1.0, 0.0)), sched, 50)
    lam_vals = {0: 0.5, 1: 0.25}
    xs, res = oracle_orbit(1.0 + 0.0j, rot,
                           lambda n: lam_vals.get(n, 1 / 3), lambda n: 0.0, 50)
    np.testing.assert_allclose(traj.residuals, res, rtol=0, atol=1e-12)


def test_inner_residuals_definition():
    # d(x_n, T y_n) where y_n = (1 - s_n) x_n (+) s_n T x_n
    m = ar.euclidean_rotation((0.0, 0.0), math.pi)
    traj = ar.run_trajectory(E2, m, ar.make_point(E2, (1.0, 0.0)),
                             ishikawa_schedule(), 20)
    assert len(traj.inner_residuals) == 20
    for n, (x, y) in enumerate(zip(*stepped_orbit(traj))):
        ty = ar.apply_map(E2, m, y)
        assert traj.inner_residuals[traj.fold(n)] == pytest.approx(
            ar.dist(E2, x, ty), abs=1e-12)


def test_km_fast_path_keeps_inner_equal_to_outer():
    m = ar.euclidean_rotation((0.0, 0.0), 1.0)
    traj = ar.run_trajectory(E2, m, ar.make_point(E2, (1.0, 0.0)),
                             km_schedule(), 30)
    np.testing.assert_array_equal(traj.inner_residuals, traj.residuals[:-1])


def test_disk_orbit_consistency_and_fejer():
    m = ar.poincare_rotation((0.0, 0.0), math.pi / 2)
    x0 = ar.make_point(D, (math.tanh(0.5), 0.0))
    fp = ar.make_point(D, (0.0, 0.0))
    traj = ar.run_trajectory(D, m, x0, km_schedule(), 200, ref_point=fp)
    # residuals agree with a recomputation from the stepped points
    for n, x in enumerate(stepped_orbit(traj)[0]):
        assert traj.residuals[traj.fold(n)] == pytest.approx(
            ar.dist(D, x, ar.apply_map(D, m, x)), abs=1e-12)
    # the reference point is fixed, so d(x_n, fp) is nonincreasing
    rd = traj.ref_distances
    assert np.all(rd[1:] <= rd[:-1] + 1e-12)
    assert len(rd) == 201
    assert len(traj.inner_ref_distances) == 200
    assert len(traj.t_inner_ref_distances) == 200


def test_a_long_unrepeating_orbit_keeps_no_iterates():
    # An Ishikawa disk rotation with s_n = c q^n, q near 1, finds no repeat
    # in 10^5 steps; the runner's memory is its recorded arrays and the
    # float plan of s_n, not a Point or a raw state per step.
    lam = ar.seq_constant(Fraction(1, 2))
    c, q = Fraction(1, 2), Fraction(9999, 10000)
    sched = ar.Schedule(lam, ar.seq_geometric(c, q), ar.theta_linear(4), 2, 0,
                        ar.gamma_for_geometric_s(c, q, lam))
    m = ar.poincare_rotation((0.0, 0.0), 1.2)
    x0 = ar.make_point(D, (0.46211715726000974, 0.0))
    tracemalloc.start()
    try:
        traj = ar.run_trajectory(D, m, x0, sched, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.period_from is None and len(traj.cycle) == 1
    recorded = traj.residuals.nbytes + traj.inner_residuals.nbytes
    assert peak < 2 * recorded, (peak, recorded)


def test_run_trajectory_validation():
    m = ar.euclidean_rotation((0.0, 0.0), 1.0)
    x0 = ar.make_point(E2, (1.0, 0.0))
    with pytest.raises(ar.IterationError):
        ar.run_trajectory(E2, m, x0, km_schedule(), -1)


def test_ishikawa_step_matches_manual_composition():
    m = ar.euclidean_rotation((0.0, 0.0), math.pi)
    x = ar.make_point(E2, (1.0, 0.0))
    nxt, y = ar.ishikawa_step(E2, m, x, 0.5, 0.25)
    tx = ar.apply_map(E2, m, x)
    y_manual = ar.combine(E2, x, tx, 0.25)
    assert y.coords == pytest.approx(y_manual.coords, abs=1e-15)
    nxt_manual = ar.combine(E2, x, ar.apply_map(E2, m, y_manual), 0.5)
    assert nxt.coords == pytest.approx(nxt_manual.coords, abs=1e-15)
    with pytest.raises(ar.IterationError):
        ar.ishikawa_step(E2, m, x, 1.5, 0.0)
    with pytest.raises(ar.IterationError):
        ar.ishikawa_step(E2, m, x, 0.5, -0.1)


def test_partial_sums_alpha_exact():
    sched = ishikawa_schedule()
    assert ar.partial_sums_alpha(sched, 0) == Fraction(1, 4)
    assert ar.partial_sums_alpha(sched, 1) == Fraction(3, 8)
    assert ar.partial_sums_alpha(sched, 3) == Fraction(15, 32)
    with pytest.raises(ar.IterationError):
        ar.partial_sums_alpha(sched, -1)


def test_trajectory_csv_golden():
    m = ar.euclidean_rotation((0.0, 0.0), math.pi)
    x0 = ar.make_point(E2, (1.0, 0.0))
    fp = ar.make_point(E2, (0.0, 0.0))
    traj = ar.run_trajectory(E2, m, x0, km_schedule(), 5, ref_point=fp)
    buf = io.StringIO()
    ar.trajectory_to_csv(traj, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["n", "residual", "inner_residual", "dist_to_ref"]
    assert len(rows) == 7
    assert rows[1][0] == "0" and float(rows[1][1]) == 2.0
    assert rows[-1][2] == ""                      # final row has no inner step
    assert float(rows[1][3]) == 1.0

    buf = io.StringIO()
    ar.trajectory_to_csv(traj, buf, report_every=2)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert [r[0] for r in rows[1:]] == ["0", "2", "4"]

    traj = ar.run_trajectory(E2, m, x0, km_schedule(), 5)
    buf = io.StringIO()
    ar.trajectory_to_csv(traj, buf)
    assert csv.reader(io.StringIO(buf.getvalue())).__next__() == \
        ["n", "residual", "inner_residual"]
    with pytest.raises(ar.IterationError):
        ar.trajectory_to_csv(traj, io.StringIO(), report_every=0)


def test_trajectory_csv_to_path(tmp_path):
    m = ar.euclidean_rotation((0.0, 0.0), math.pi)
    traj = ar.run_trajectory(E2, m, ar.make_point(E2, (1.0, 0.0)),
                             km_schedule(), 3)
    target = tmp_path / "traj.csv"
    ar.trajectory_to_csv(traj, target)
    text = target.read_text()
    assert text.startswith("n,residual,inner_residual")
    assert len(text.strip().splitlines()) == 5


def csv_writer_reference(traj, target, report_every):
    """The row-by-row csv.writer output that trajectory_to_csv reproduces."""
    with open(target, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["n", "residual", "inner_residual"]
        with_ref = traj.ref_distances is not None
        if with_ref:
            header.append("dist_to_ref")
        writer.writerow(header)
        steps = traj.steps
        for n in range(0, steps + 1, report_every):
            k = traj.fold(n)
            row = [n, repr(float(traj.residuals[k])),
                   repr(float(traj.inner_residuals[k])) if n < steps else ""]
            if with_ref:
                row.append(repr(float(traj.ref_distances[k])))
            writer.writerow(row)


@pytest.mark.parametrize("chunk", [7, 1 << 16])
def test_trajectory_csv_matches_csv_writer_bytes(tmp_path, monkeypatch,
                                                 disk_config, chunk):
    monkeypatch.setattr(iteration, "_CSV_CHUNK_ROWS", chunk)
    fp = ar.reference_point(disk_config)
    # the orbit repeats from 2,145 on: up to 2,144 steps every row is a
    # prefix row, and past 10^3 the rows cross a decade
    for steps in (0, 1, 999, 2_144, 3_000):
        for record in (False, True):
            traj = ar.run_trajectory(disk_config.space, disk_config.mapping,
                                     disk_config.start, disk_config.schedule,
                                     steps, ref_point=fp if record else None)
            for every in (1, 3, 7, 1000, 1024, 5_000):
                got, want = tmp_path / "got.csv", tmp_path / "want.csv"
                ar.trajectory_to_csv(traj, got, report_every=every)
                csv_writer_reference(traj, want, every)
                assert got.read_bytes() == want.read_bytes(), (steps, record, every)


# Orbits whose cut-off fires at 0, at 20 (inside a block of 7 rows, and
# not a multiple of report_every 3 or 7), at 1,075, on the last step (20 of
# 21 steps), at 2,145 with a residual of 1e-323, not 0, and at 4,094 with
# period 10, whose block holds 4 distinct rows.
CSV_CUTS = [("identity_euclidean", 50), ("rotation_pi_euclidean", 999),
            ("rotation_pi_euclidean", 21), ("reflection_average_euclidean", 3_000),
            ("rotation_poincare", 3_000), ("plane-ishikawa-0.3pi", 5_000)]


@pytest.mark.parametrize("chunk", [7, 1 << 16])
@pytest.mark.parametrize("name,steps", CSV_CUTS)
def test_trajectory_csv_matches_csv_writer_bytes_past_the_cutoff(
        tmp_path, monkeypatch, cut_configs, chunk, name, steps):
    monkeypatch.setattr(iteration, "_CSV_CHUNK_ROWS", chunk)
    config = cut_configs[name]
    for record in (False, True):
        traj = ar.run_trajectory(config.space, config.mapping, config.start,
                                 config.schedule, steps,
                                 ref_point=ar.reference_point(config) if record else None)
        assert (traj.period_from, traj.period) == CUTS[name]
        for every in (1, 3, 7, 1000, 5_000):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            ar.trajectory_to_csv(traj, got, report_every=every)
            csv_writer_reference(traj, want, every)
            assert got.read_bytes() == want.read_bytes(), (record, every)


# The tail is written in decade blocks of B = 1000 row numbers at stride 1,
# 10^4 at strides 3 and 7, 10^6 at 1000 and 10^7 at 1024; 3, 7 and 1024 do
# not divide their B.  Each (steps, strides) pair makes the tail cross 10^3,
# 10^4 and 10^5, or 10^6 and 10^7.  Past 100,005 steps the trajectory is the
# 100,005-step one with more steps: a run that long records the same arrays,
# since the orbit repeats from its cut-off on.
DECADE_RUNS = [(100_005, (1, 3, 7)), (25_000_017, (1000, 1024))]


# A p = 1 and a p = 10 cut, each with and without reference distances, in
# small chunks with no block cache and in the default ones; and a p = 12
# cut, whose suffix phase moves from block to block since 12 divides no B.
@pytest.mark.parametrize("name,record,chunk,cache_rows", [
    ("rotation_pi_euclidean", False, 7, 0),
    ("rotation_pi_euclidean", True, 1 << 12, iteration._CSV_CACHE_ROWS),
    ("plane-ishikawa-0.3pi", False, 1 << 12, iteration._CSV_CACHE_ROWS),
    ("plane-ishikawa-0.3pi", True, 7, 0),
    ("disk-rotation-0.257pi", True, 1 << 12, iteration._CSV_CACHE_ROWS)])
def test_trajectory_csv_decade_blocks_match_csv_writer_bytes(
        tmp_path, monkeypatch, cut_configs, name, record, chunk, cache_rows):
    monkeypatch.setattr(iteration, "_CSV_CHUNK_ROWS", chunk)
    monkeypatch.setattr(iteration, "_CSV_CACHE_ROWS", cache_rows)
    config = cut_configs[name]
    traj = ar.run_trajectory(config.space, config.mapping, config.start,
                             config.schedule, DECADE_RUNS[0][0],
                             ref_point=ar.reference_point(config) if record else None)
    assert (traj.period_from, traj.period) == CUTS[name]
    for steps, strides in DECADE_RUNS:
        longer = dataclasses.replace(traj, steps=steps)
        for every in strides:
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            ar.trajectory_to_csv(longer, got, report_every=every)
            csv_writer_reference(longer, want, every)
            assert got.read_bytes() == want.read_bytes(), (steps, every)


@pytest.mark.parametrize("chunk", [7, 1 << 12])
def test_trajectory_csv_keeps_signed_zeros_apart(tmp_path, monkeypatch,
                                                 cut_configs, chunk):
    # one repr per bit pattern, not per ==-class: -0.0 == 0.0, but the
    # reprs differ; the runner never records a -0.0, so plant some, below
    # the cut-off (1,075) and in the cycle, which gives the tail's fields
    monkeypatch.setattr(iteration, "_CSV_CHUNK_ROWS", chunk)
    config = cut_configs["reflection_average_euclidean"]
    traj = ar.run_trajectory(config.space, config.mapping, config.start,
                             config.schedule, 3_000, ref_point=ar.reference_point(config))
    zeros = np.resize([0.0, -0.0, 5e-324, -5e-324, -0.0], len(traj.residuals))
    planted = dataclasses.replace(traj, residuals=zeros,
                                  inner_residuals=-traj.inner_residuals,
                                  ref_distances=zeros[::-1].copy())
    for steps, every in ((2_000, 1), (3_000, 1), (3_000, 7)):
        shorter = dataclasses.replace(planted, steps=steps)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        ar.trajectory_to_csv(shorter, got, report_every=every)
        csv_writer_reference(shorter, want, every)
        assert got.read_bytes() == want.read_bytes(), (steps, every)
        assert b",-0.0," in got.read_bytes() and b",0.0," in got.read_bytes()


# ---------------------------------------------------------------------------
# stationarity cut-off against the uncut loop

# First step from which x_n is constant.  The residual there is exactly 0.0,
# except on rotation_poincare, where it stays at 1e-323 with T x_n != x_n.
STATIONARY_FROM = {
    "identity_euclidean": 0,
    "rotation_pi_euclidean": 20,
    "ishikawa_geometric_s_euclidean": 46,
    "projection_poincare": 53,
    "reflection_average_euclidean": 1075,
    "rotation_half_pi_euclidean": 2148,
    "rotation_poincare": 2145,
}

# Variants of the golden configs whose residual stalls near 1e-323 with
# T x_n != x_n: the start (period_from, period) of their cut-off.
PERIODIC = {
    "disk-rotation-0.257pi": (16382, 12),
    "plane-rotation-0.67pi": (2046, 4),
    "plane-ishikawa-0.3pi": (4094, 10),     # y_n != x_n on the cycle
    "disk-ishikawa-0.3pi": (2261, 1),
    "r5-rotation-0.3pi": (8190, 12),
}

CUTS = {**{name: (c, 1) for name, c in STATIONARY_FROM.items()}, **PERIODIC}


def float_terms(seq):
    """lambda_n or s_n as the floats the runner uses: a geometric sequence
    is a running product, rounded at every step."""
    if seq.kind == "Geometric":
        v, q = float(seq.param("c")), float(seq.param("q"))
        while True:
            yield v
            v *= q
    # constant from the end of the table on, one float() for the whole tail
    k = len(seq.param("values")) if seq.kind == "Tabulated" else 0
    yield from (float(ar.seq_value(seq, n)) for n in range(k))
    yield from repeat(float(ar.seq_value(seq, k)))


class UncutOrbits:
    """The runner's loop body without the cut-off, at every index: the five
    recorded arrays, and x_n (n <= steps) and y_n (n < steps) as coordinate
    rows in "x" and "y".  Index n does not depend on where the loop stops,
    so a shorter horizon reads the prefix of a longer one: the reference is
    run once per config and horizon, and every stride reads it.  Only the
    last config's reference is kept."""

    def __init__(self):
        self.config, self.ref = None, None

    def __call__(self, config, steps):
        if config != self.config or len(self.ref["residuals"]) <= steps:
            self.config, self.ref = config, _run_uncut(config, steps)
        return self.ref


@pytest.fixture(scope="module")
def uncut():
    return UncutOrbits()


def _run_uncut(config, steps):
    space, sched = config.space, config.schedule
    dist_fn, combine_fn, _ = raw_ops(space)
    f = raw_apply_fn(space, config.mapping)
    z = ar.reference_point(config).raw
    res, rd = np.empty(steps + 1), np.empty(steps + 1)
    inner, yrd, tyrd = np.empty(steps), np.empty(steps), np.empty(steps)
    # raw points: complex numbers on the disk and the plane, else tuples
    x = config.start.raw
    plane = type(x) is complex
    shape = (steps + 1,) if plane else (steps + 1, space.dim)
    dtype = np.complex128 if plane else np.float64
    xs, ys = np.empty(shape, dtype), np.empty((steps,) + shape[1:], dtype)
    for n, lam, s in zip(range(steps), float_terms(sched.lambda_seq),
                         float_terms(sched.s_seq)):
        tx = f(x)
        res[n] = r = dist_fn(x, tx)
        if s == 0.0:
            y, ty = x, tx
            inner[n] = r
        else:
            y = combine_fn(x, tx, s)
            ty = f(y)
            inner[n] = dist_fn(x, ty)
        rd[n] = dist_fn(x, z)
        yrd[n] = dist_fn(y, z)
        tyrd[n] = dist_fn(ty, z)
        xs[n] = x
        ys[n] = y
        if lam != 0.0:
            x = combine_fn(x, ty, lam)
    res[steps] = dist_fn(x, f(x))
    rd[steps] = dist_fn(x, z)
    xs[steps] = x
    return {"residuals": res, "inner_residuals": inner, "ref_distances": rd,
            "inner_ref_distances": yrd, "t_inner_ref_distances": tyrd,
            "x": _rows(xs, space.dim), "y": _rows(ys, space.dim)}


def _rows(raw, dim):
    """Raw points as float64 coordinate rows, as Point.coords holds them."""
    return raw.view(np.float64).reshape(-1, dim)


def assert_matches_uncut(traj, config, uncut):
    """Each recorded array read at fold(n) equals the uncut loop at n, byte
    for byte, and so do the coordinates of x_n and y_n on the cycle, n in
    [tail_from, tail_from + len(cycle))."""
    ref = uncut(config, traj.steps)
    steps = traj.steps
    for key in ("residuals", "inner_residuals", "ref_distances",
                "inner_ref_distances", "t_inner_ref_distances"):
        n = steps if key.startswith(("inner", "t_inner")) else steps + 1
        got = getattr(traj, key)[traj.fold(range(n))]
        assert got.tobytes() == ref[key][:n].tobytes(), key
    c = traj.tail_from
    for points, rows in ((traj.cycle, ref["x"][c:c + len(traj.cycle)]),
                         (traj.inner_cycle, ref["y"][c:c + len(traj.inner_cycle)])):
        got = np.array([p.coords for p in points], dtype=np.float64)
        assert got.reshape(-1, config.space.dim).tobytes() == rows.tobytes()


@pytest.fixture(scope="module")
def all_configs():
    return {p.stem: ar.load_config(p) for p in sorted(CONFIG_DIR.glob("*.json"))}


def _variant(config, mapping=None, start=None, dim=None):
    """config with its mapping fields, start point or Euclidean dimension
    replaced, parsed again so the result is a validated config."""
    data = ar.config_to_dict(config)
    data["mapping"].update(mapping or {})
    if dim is not None:
        data["space"]["dim"] = dim
        data["mapping"]["center"] = [0.0] * dim
        data["afp"]["fixed_point"] = [0.0] * dim
    if start is not None:
        data["start"] = start
    return ar.config_from_dict(data)


def _with_s(config, s):
    """config with the constant s_n = s (and L = 2, which s_n <= 1 - 1/L
    needs for s = 1/2)."""
    old = config.schedule
    sched = ar.Schedule(old.lambda_seq, ar.seq_constant(s), old.theta, 2,
                        old.N0, ar.gamma_zero())
    return dataclasses.replace(config, schedule=sched)


@pytest.fixture(scope="module")
def cut_configs(all_configs):
    """The golden configs and the PERIODIC variants, by name."""
    disk, plane = all_configs["rotation_poincare"], all_configs["rotation_half_pi_euclidean"]
    return {
        **all_configs,
        "disk-rotation-0.257pi": _variant(disk, mapping={"angle": 0.257 * math.pi},
                                          start=[0.3, 0.1]),
        "plane-rotation-0.67pi": _variant(plane, mapping={"angle": 0.67 * math.pi},
                                          start=[0.6, -0.2]),
        "plane-ishikawa-0.3pi": _with_s(_variant(
            plane, mapping={"angle": 0.3 * math.pi}, start=[0.6, -0.2]), Fraction(1, 2)),
        "disk-ishikawa-0.3pi": _with_s(_variant(
            disk, mapping={"angle": 0.3 * math.pi}, start=[0.3, 0.1]), Fraction(1, 2)),
        "r5-rotation-0.3pi": _variant(plane, mapping={"angle": 0.3 * math.pi}, dim=5,
                                      start=[0.3, -0.2, 0.1, 0.25, -0.15]),
    }


@pytest.mark.parametrize("name", sorted(STATIONARY_FROM))
def test_cutoff_matches_uncut_loop_short(all_configs, name, uncut):
    traj = ar.trajectory_for(all_configs[name], 10_000, record_ref=True)
    assert traj.stationary_from == STATIONARY_FROM[name]
    assert_matches_uncut(traj, all_configs[name], uncut)


@pytest.mark.parametrize("name", sorted(STATIONARY_FROM))
def test_cutoff_matches_uncut_loop_long(all_configs, name, uncut):
    traj = ar.trajectory_for(all_configs[name], 199_999, record_ref=True)
    assert traj.stationary_from == STATIONARY_FROM[name]
    assert_matches_uncut(traj, all_configs[name], uncut)


def test_points_are_the_cycle(all_configs, cut_configs):
    for config, steps in ((all_configs["rotation_pi_euclidean"], 50),   # x_20 is fixed
                          (cut_configs["plane-rotation-0.67pi"], 3000),  # p = 4
                          (all_configs["rotation_poincare"], 50)):       # no cut
        traj = ar.trajectory_for(config, steps)
        assert len(traj.points) == len(traj.cycle)
        assert traj.points == list(traj.cycle)
        assert traj.inner_points == list(traj.inner_cycle)
        assert traj.stored_indices.tolist() == \
            list(range(traj.tail_from, traj.tail_from + len(traj.cycle)))


def test_cutoff_edge_cases(all_configs, cut_configs, uncut):
    ident = all_configs["identity_euclidean"]
    traj = ar.trajectory_for(ident, 0, record_ref=True)
    assert traj.stationary_from is None and traj.steps == 0
    assert_matches_uncut(traj, ident, uncut)

    traj = ar.trajectory_for(ident, 7, record_ref=True)
    assert traj.stationary_from == 0
    assert np.all(traj.residuals == 0.0)
    assert_matches_uncut(traj, ident, uncut)

    rot = all_configs["rotation_pi_euclidean"]        # x_20 is fixed
    for steps, cut in ((21, 20), (20, None)):         # cut on the last step
        traj = ar.trajectory_for(rot, steps, record_ref=True)
        assert traj.stationary_from == cut
        assert_matches_uncut(traj, rot, uncut)

    traj = ar.run_trajectory(rot.space, rot.mapping, rot.start, rot.schedule,
                             50, ref_point=ar.reference_point(rot))
    assert traj.stationary_from == 20
    assert_matches_uncut(traj, rot, uncut)

    # x_2050 == x_2046: the repeat closes on the last step, or past it
    plane = cut_configs["plane-rotation-0.67pi"]
    for steps, cut in ((2050, (2046, 4)), (2049, (None, None))):
        traj = ar.run_trajectory(
            plane.space, plane.mapping, plane.start, plane.schedule, steps,
            ref_point=ar.reference_point(plane))
        assert (traj.period_from, traj.period) == cut
        assert_matches_uncut(traj, plane, uncut)


@pytest.fixture(scope="module")
def live_disk_config(all_configs):
    # orbit-live's shape: a disk rotation about the centre 0 by an angle in
    # [pi/4, 3pi/5], from an off-axis start; its residual never reaches 0,
    # but x_n stops moving from n = 2,996 on
    return _variant(all_configs["rotation_poincare"],
                    mapping={"angle": 0.43 * math.pi}, start=[0.21, -0.33])


def test_live_disk_rotation_matches_uncut_loop(live_disk_config, uncut):
    assert live_disk_config.mapping.center == (0.0, 0.0)
    traj = ar.trajectory_for(live_disk_config, 199_999, record_ref=True)
    assert traj.stationary_from == 2996
    assert_matches_uncut(traj, live_disk_config, uncut)
    traj = ar.trajectory_for(live_disk_config, 10_000, record_ref=True)
    assert traj.stationary_from == 2996
    assert traj.residuals[2996] > 0.0
    assert_matches_uncut(traj, live_disk_config, uncut)


@pytest.mark.parametrize("name", ["live-disk", "ishikawa_geometric_s_euclidean",
                                  "rotation_half_pi_euclidean-R5"])
def test_zero_lambda_tail_matches_uncut_loop(all_configs, live_disk_config, name, uncut):
    if name == "live-disk":
        base = live_disk_config
    elif name.endswith("-R5"):
        base = _variant(all_configs[name[:-3]], dim=5,
                        start=[0.3, -0.2, 0.1, 0.25, -0.15])
    else:
        base = all_configs[name]
    # lambda_n = 0 at n = 3 and from n = 5 on: x_n stops moving while
    # T x_n != x_n, so every step from 5 on takes the t == 0 return.  The
    # cut-off fires at 5, or, on the Ishikawa config, at 1,074, where its
    # geometric s_n has underflowed to 0.0 and the schedule turns constant.
    lam = ar.seq_tabulated([Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 0,
                            Fraction(1, 2)], 0)
    old = base.schedule
    sched = ar.Schedule(lam, old.s_seq, old.theta, old.L, old.N0, old.gamma)
    config = dataclasses.replace(base, schedule=sched)
    cut = 1074 if name.startswith("ishikawa") else 5
    for steps in (2_001, 2_000):
        traj = ar.run_trajectory(config.space, config.mapping, config.start,
                                 sched, steps, ref_point=ar.reference_point(config))
        assert traj.stationary_from == cut
        assert traj.residuals[-1] > 0.0
        assert np.all(traj.residuals[5:] == traj.residuals[5])
        assert_matches_uncut(traj, config, uncut)


@pytest.mark.parametrize("name", sorted(PERIODIC))
def test_periodic_cutoff_matches_uncut_loop(cut_configs, name, uncut):
    config = cut_configs[name]
    c, p = PERIODIC[name]
    # at 199,999 and at 20,000 steps, so that every cut fires; the shorter
    # run reads the prefix of the longer one's reference
    for steps in (199_999, 20_000):
        traj = ar.trajectory_for(config, steps, record_ref=True)
        assert (traj.period_from, traj.period) == (c, p)
        assert traj.residuals[c] > 0.0                # T x_c != x_c
        assert_matches_uncut(traj, config, uncut)
        assert len(traj.cycle) == len(traj.inner_cycle) == p
        if name == "plane-ishikawa-0.3pi":
            assert all(y != x for x, y in zip(traj.cycle, traj.inner_cycle))


def test_a_repeat_counts_only_to_the_bit():
    same = iteration._same_bits              # called once == has held
    assert same(complex(0.0, 1e-320), complex(0.0, 1e-320))
    assert same((0.0, -0.0, 5e-324), (0.0, -0.0, 5e-324))
    assert complex(-0.0, 1e-320) == complex(0.0, 1e-320)
    assert not same(complex(-0.0, 1e-320), complex(0.0, 1e-320))
    assert not same(complex(1e-320, 0.0), complex(1e-320, -0.0))
    assert not same((0.0, -0.0, 5e-324), (0.0, 0.0, 5e-324))


def test_seq_scalar_plan_gives_the_constant_index():
    plan = seq_float_plan
    assert plan(ar.seq_constant(Fraction(1, 3)), 10) == (array("d"), 1 / 3, 0)
    # a table's index is its length, even where its last entries equal the tail
    head, tail, k = plan(ar.seq_tabulated([Fraction(1, 2), Fraction(1, 4),
                                           Fraction(1, 2)], Fraction(1, 2)), 10)
    assert (list(head), tail, k) == ([0.5, 0.25, 0.5], 0.5, 3)
    # a geometric sequence is the running product up to the first term that
    # the next multiplication leaves unchanged: 0.0 for q = 1/2, and for
    # q = 9/10 the subnormal 2.5e-323, five times the smallest, which the
    # float 0.9 (a little above 9/10) maps back to itself
    for c, q, const_from, last in ((Fraction(1, 2), Fraction(1, 2), 1074, 0.0),
                                   (1, Fraction(9, 10), 7050, 2.5e-323)):
        head, tail, k = plan(ar.seq_geometric(c, q), 10 ** 6)
        assert (k, tail) == (const_from, last) and len(head) == k
        v = float(c)
        for term in head:
            assert term == v and v * float(q) != v
            v *= float(q)
        assert v == tail == tail * float(q)
    head, tail, k = plan(ar.seq_geometric(Fraction(1, 2), Fraction(1, 2)), 10)
    assert (len(head), tail, k) == (10, 0.5 ** 11, 10)      # capped by the limit


# ---------------------------------------------------------------------------
# a trajectory is a prefix plus a cycle

@pytest.mark.parametrize("name", sorted(CUTS))
def test_a_cut_trajectory_stores_its_prefix_only(cut_configs, name):
    config = cut_configs[name]
    c, p = CUTS[name]
    traj = ar.trajectory_for(config, 199_999, record_ref=True)
    arrays = {key: v for key, v in vars(traj).items() if isinstance(v, np.ndarray)}
    assert len(arrays) == 5, sorted(arrays)
    assert all(len(v) <= c + p + 1 for v in arrays.values()), \
        {key: len(v) for key, v in arrays.items()}
    assert len(traj.residuals) == len(traj.ref_distances) == c + p
    # fold: the identity below c, the block [c, c+p) from c on
    assert traj.fold(c - 1 if c else 0) == (c - 1 if c else 0)
    assert [traj.fold(c + p + j) for j in range(p)] == list(range(c, c + p))
    assert traj.fold(199_999) == c + (199_999 - c) % p
    assert traj.fold(np.array([0, c + p, 199_999])).tolist() == \
        [0, c, c + (199_999 - c) % p]


def test_fold_is_the_identity_without_a_cut(all_configs):
    traj = ar.trajectory_for(all_configs["rotation_poincare"], 500, record_ref=True)
    assert traj.period_from is None and traj.tail_from == 500
    assert traj.fold(range(501)).tolist() == list(range(501))
    assert len(traj.residuals) == len(traj.ref_distances) == 501
    assert len(traj.inner_residuals) == 500


def test_the_audit_reads_the_floats_the_orbit_used(all_configs, monkeypatch):
    # Geometric s with c = 1/2, q = 9/10: the runner's running product and
    # the closed form c q^n round apart in most terms
    base = _variant(all_configs["rotation_poincare"], mapping={"angle": 1.2})
    s_seq = ar.seq_geometric(Fraction(1, 2), Fraction(9, 10))
    old = base.schedule
    sched = ar.Schedule(old.lambda_seq, s_seq, old.theta, 2, 0, old.gamma)
    config = dataclasses.replace(base, schedule=sched)
    traj = ar.trajectory_for(config, 10_000, record_ref=True)
    assert (traj.period_from, traj.period) == (7043, 1)
    seen = []
    real = ar.Trajectory.schedule_floats

    def spy(self, count):
        seen.append((count, real(self, count)))
        return seen[-1][1]

    monkeypatch.setattr(ar.Trajectory, "schedule_floats", spy)
    rep = ar.check_lemma_inequalities(traj)
    assert rep.passed, rep.to_json()
    [(count, (lam, s))] = seen
    assert count == len(traj.inner_residuals) == 7044
    for got, seq in ((lam, sched.lambda_seq), (s, s_seq)):
        want = np.fromiter(islice(float_terms(seq), count), dtype=np.float64)
        assert got.tobytes() == want.tobytes()
    closed = ar.seq_values_float(s_seq, 7043)
    assert np.count_nonzero(closed != s[:7043]) == 6545
