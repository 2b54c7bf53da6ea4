"""Seeded workloads: experiment configs, the CLI jobs that use them, and the
checks each job's output must pass.

The seed varies start points, rotation angles and the sampler seed of a
config.  It never varies eps grids or schedules, so phi, and with it the
number of orbit steps per job, is the same for every seed.

Why each workload exists:

- orbit-live: Poincare-disk rotations by angles in [pi/4, 3pi/5].  Their
  residuals stall at 1e-323 and never reach exact zero, so no step is
  wasted after convergence; the disk kernel (Mobius maps, atanh, tanh) does
  almost all the work.  A stationarity cut-off or a Euclidean closed form
  must read "no change" here.  Disk rotations by angles above about 0.69 pi
  do reach zero, which is why the range stops at 3pi/5.
- orbit-stationary: orbits that become bitwise stationary within about 800
  steps (Ishikawa with geometric s, R^2 and R^5 rotations, the disk metric
  projection) while the runner steps to horizons of 110,000 to 176,000:
  more than 99 % of the simulated steps repeat the fixed point.  Rotation
  angles are drawn from [3pi/4, pi]: between about 0.665 pi and 0.735 pi
  some Euclidean orbits cycle among subnormal points and never reach zero.
- run-dense: `run --eps` with report_every = 1, so every step is written to
  the trajectory CSV and reference distances are recorded and audited.
  Angles come from [3pi/4, pi] too, so no orbit spends its steps on
  subnormal numbers, whose cost would then depend on the seed.
- certify: short jobs that simulate nothing: `rate`, sweeps whose phi all
  exceed the step cap, `verify-space` with few samples, and about 10 %
  injected faults that must exit 1.  It carries the pinned eps of ROADMAP
  item 2a, where the EtaHilbert P is rounded down.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

WORKLOADS = ("orbit-live", "orbit-stationary", "run-dense", "certify")

# Distinct configs generated per template; rounds cycle through them.
POOL_ROUNDS = 4

KNOWN_DEFECTS = {
    "roadmap-2a": "EtaHilbert P below the exact ceiling (float fallback in "
                  "compute_p rounds down)",
}

PINNED_EPS = 0.0014160624357568707  # ROADMAP item 2a: b = 1, L = 1

QUAD = {"kind": "EtaQuadratic", "denominator": 8}
HILBERT = {"kind": "EtaHilbert"}
OVERCLAIMED_ETA = {"kind": "EtaQuadratic", "denominator": 1}

S_ZERO = {"kind": "Constant", "value": "0"}
S_GEOMETRIC = {"kind": "Geometric", "c": "1/2", "q": "1/2"}
S_TABLE = {"kind": "Tabulated", "values": ["1/2", "1/4", "1/8"], "tail": "0"}


def schedule(lam: str = "1/2", s: dict = S_ZERO, theta_div: int = 1) -> dict:
    """Constant lambda with its exact divergence witness theta(n) =
    ceil(n / (lam (1 - lam))), divided by theta_div for fault injection.
    (L, N0, gamma) follow from s: zero, geometric c q^n with c = 1/2, or a
    three-term table with a zero tail."""
    lam_f = Fraction(lam)
    a = 1 / (lam_f * (1 - lam_f)) / theta_div
    out = {"lambda": {"kind": "Constant", "value": lam}, "s": s,
           "theta": {"kind": "ThetaLinear", "a": str(a), "b": "0"}}
    if s is S_GEOMETRIC:
        out.update(L=2, N0=0, gamma={"kind": "GammaGeometricTail", "c": "1/2",
                                     "q": "1/2", "lambda_min": lam})
    elif s is S_TABLE:
        out.update(L=1, N0=3, gamma={"kind": "GammaDyadicShift", "c": 3})
    else:
        out.update(L=1, N0=0, gamma={"kind": "GammaZero"})
    return out


# ---------------------------------------------------------------------------
# spaces, maps and start points

def _disk_start(rng: random.Random, b: float) -> list[float]:
    t = b * 0.999 * rng.random()  # hyperbolic distance to the centre 0
    r, phi = math.tanh(t / 2.0), 2.0 * math.pi * rng.random()
    return [r * math.cos(phi), r * math.sin(phi)]


def _ball_start(rng: random.Random, b: float, dim: int) -> list[float]:
    vec = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    norm = math.sqrt(sum(v * v for v in vec)) or 1.0
    scale = b * 0.999 * rng.random() ** (1.0 / dim) / norm
    return [v * scale for v in vec]


def _geometry(model: str, rng: random.Random, b: float, angle: tuple[float, float]):
    """(space, mapping, start) for one model; angles are drawn in units of pi."""
    draw = rng.uniform(*angle) * math.pi
    if model == "disk-rotation":
        return ({"kind": "PoincareDisk"},
                {"kind": "PoincareRotation", "center": [0.0, 0.0], "angle": draw},
                _disk_start(rng, b))
    if model == "disk-projection":
        return ({"kind": "PoincareDisk"},
                {"kind": "MetricProjection", "center": [0.0, 0.0], "radius": 0.5},
                _disk_start(rng, b))
    dim = 5 if model.startswith("r5") else 2
    if model == "r2-reflection":
        mapping = {"kind": "EuclideanReflectionAverage", "center": [0.0] * dim}
    else:
        mapping = {"kind": "EuclideanRotation", "center": [0.0] * dim, "angle": draw}
    return {"kind": "Euclidean", "dim": dim}, mapping, _ball_start(rng, b, dim)


def _config(space, mapping, start, eta, sched, b, eps_grid, seed,
            max_steps=10_000_000, report_every=1000) -> dict:
    return {"space": {**space, "modulus": eta}, "mapping": mapping,
            "start": start, "schedule": sched, "afp": {"b": b},
            "eps_grid": list(eps_grid), "seed": seed,
            "caps": {"max_steps": max_steps, "report_every": report_every}}


# ---------------------------------------------------------------------------
# jobs

@dataclass
class Job:
    """One CLI invocation and what its output must show."""

    template: str
    command: str
    args: list[str]
    config: dict
    steps: int = 0             # orbit steps, from the horizon arithmetic
    fault: bool = False        # injected fault: must exit 1
    expect: dict = field(default_factory=dict)
    config_path: str = ""

    def argv(self, out_dir: str) -> list[str]:
        argv = [self.command, "--config", self.config_path, *self.args]
        if self.command in ("run", "sweep"):
            argv += ["--out", out_dir]
        return argv


def _sweep_job(template, config, fault=False) -> Job:
    eta, sched, b = config["space"]["modulus"], config["schedule"], config["afp"]["b"]
    cap = config["caps"]["max_steps"]
    rows, horizon = [], 0
    for eps in sorted(set(config["eps_grid"]), reverse=True):
        ref = oracle.rates(eta, sched, eps, b)
        rows.append({"eps": eps, **ref})
        if ref["phi"] <= cap:
            horizon = max(horizon, min(ref["phi"] + 1000, cap))
    return Job(template, "sweep", ["--json"], config, steps=horizon, fault=fault,
               expect={"rows": rows, "horizon": horizon, "cap": cap})


def _run_job(template, config, eps) -> Job:
    eta, sched, b = config["space"]["modulus"], config["schedule"], config["afp"]["b"]
    ref = oracle.rates(eta, sched, eps, b)
    steps = min(ref["phi"] + 1000, config["caps"]["max_steps"])
    return Job(template, "run", ["--eps", repr(eps), "--json"], config,
               steps=steps, expect={"rate": ref, "eps": eps})


def _rate_job(template, config, eps) -> Job:
    ref = oracle.rates(config["space"]["modulus"], config["schedule"], eps,
                       config["afp"]["b"], ks=(0, 100))
    return Job(template, "rate", ["--eps", repr(eps), "--k", "0", "--k", "100",
                                  "--json"], config, expect={"rate": ref})


def _verify_space_job(template, config, samples, fault=False) -> Job:
    names = ["space-axioms", "uc-implication"]
    if config["space"]["kind"] == "Euclidean":
        names.append("uc-implication-dyadic-strict")
    failing = {"uc-implication"} if fault else set()
    return Job(template, "verify-space", ["--samples", str(samples), "--json"],
               config, fault=fault,
               expect={"checks": names, "failing": failing, "samples": samples})


# Orbit templates: (template, model, angle range / pi, schedule, full eps grid,
# tiny eps grid).  b = 1 throughout.  The smallest eps sets the horizon; the
# orbit-stationary horizons (110,000 to 176,000 steps) give each template
# about the same job time.
_ORBIT_LIVE = [
    ("disk-rotation", "disk-rotation", (0.25, 0.6), schedule(), [0.5, 0.25, 0.125], [0.5]),
]
_ORBIT_STATIONARY = [
    ("r2-ishikawa", "r2-rotation", (0.75, 1.0), schedule(s=S_GEOMETRIC), [0.5, 0.25, 0.227], [1.0]),
    ("r2-rotation", "r2-rotation", (0.75, 1.0), schedule(), [0.5, 0.25, 0.114], [0.5]),
    ("r5-rotation", "r5-rotation", (0.75, 1.0), schedule(), [0.5, 0.25, 0.133], [0.5]),
    ("disk-projection", "disk-projection", (0.0, 0.0), schedule(), [0.5, 0.25, 0.125], [0.5]),
]
# run-dense: (template, model, angle range / pi, full eps, tiny eps)
_RUN_DENSE = [
    ("r2-rotation", "r2-rotation", (0.75, 1.0), 0.16, 0.5),
    ("r5-rotation", "r5-rotation", (0.75, 1.0), 0.16, 0.5),
    ("r2-reflection", "r2-reflection", (0.0, 0.0), 0.16, 0.5),
]
# certify: rate jobs (lambda, eta, s, eps values, b).  They are most of a
# round, so its median job is a rate job and not one of a few slow ones ...
_RATES = [
    ("1/2", QUAD, S_GEOMETRIC, (0.3, 0.05, 0.008), 1.0),
    ("1/10", HILBERT, S_TABLE, (0.2, 0.02, 0.005), 2.0),
    ("1/100", QUAD, S_TABLE, (0.1, 0.01, 0.002), 0.5),
    ("1/1000", HILBERT, S_GEOMETRIC, (0.05, 0.01, 0.003), 1.0),
    ("1/2", HILBERT, S_TABLE, (0.4, 0.1, 0.02), 3.0),
    ("1/10", QUAD, S_GEOMETRIC, (0.15, 0.004, 0.001), 1.0),
    ("1/100", HILBERT, S_GEOMETRIC, (0.08, 0.008, 0.002), 1.5),
    ("1/1000", QUAD, S_TABLE, (0.5, 0.0625, 0.006), 1.0),
]
# ... sweeps whose phi all exceed the cap (lambda, eta, s, b) ...
_NO_SIM_SWEEPS = [
    ("1/2", HILBERT, S_GEOMETRIC, 1.0),
    ("1/10", QUAD, S_TABLE, 1.0),
    ("1/100", HILBERT, S_TABLE, 2.0),
    ("1/1000", QUAD, S_GEOMETRIC, 1.0),
    ("1/1000", HILBERT, S_TABLE, 0.5),
    ("1/10", HILBERT, S_GEOMETRIC, 1.0),
]
NO_SIM_EPS = [0.2, 0.1, 0.05]
NO_SIM_CAP = 1000
# ... and verify-space (model, eta).
_SPACES = [("r2-rotation", QUAD), ("r5-rotation", HILBERT),
           ("disk-rotation", QUAD), ("disk-rotation", HILBERT)]


def _orbit_round(rng, templates, tiny) -> list[Job]:
    jobs = []
    for name, model, angle, sched, eps_full, eps_tiny in templates:
        space, mapping, start = _geometry(model, rng, 1.0, angle)
        config = _config(space, mapping, start, QUAD, sched, 1.0,
                         eps_tiny if tiny else eps_full, rng.randrange(2 ** 31))
        jobs.append(_sweep_job(name, config))
    return jobs


def _run_dense_round(rng, tiny) -> list[Job]:
    jobs = []
    for name, model, angle, eps_full, eps_tiny in _RUN_DENSE:
        eps = eps_tiny if tiny else eps_full
        space, mapping, start = _geometry(model, rng, 1.0, angle)
        config = _config(space, mapping, start, QUAD, schedule(), 1.0, [eps],
                         rng.randrange(2 ** 31), report_every=1)
        jobs.append(_run_job(name, config, eps))
    return jobs


def _certify_round(rng, tiny) -> list[Job]:
    jobs = []
    for lam, eta, s, eps_values, b in _RATES:
        for eps in eps_values:
            space, mapping, start = _geometry("r2-rotation", rng, b, (0.5, 1.0))
            config = _config(space, mapping, start, eta, schedule(lam, s), b,
                             [eps], rng.randrange(2 ** 31))
            jobs.append(_rate_job(f"rate-{eta['kind']}", config, eps))
    space, mapping, start = _geometry("r2-rotation", rng, 1.0, (0.5, 1.0))
    config = _config(space, mapping, start, HILBERT, schedule(), 1.0,
                     [PINNED_EPS], rng.randrange(2 ** 31))
    jobs.append(_rate_job("rate-pinned-2a", config, PINNED_EPS))

    for lam, eta, s, b in _NO_SIM_SWEEPS:
        space, mapping, start = _geometry("r2-rotation", rng, b, (0.5, 1.0))
        config = _config(space, mapping, start, eta, schedule(lam, s), b,
                         NO_SIM_EPS, rng.randrange(2 ** 31), max_steps=NO_SIM_CAP)
        jobs.append(_sweep_job(f"sweep-{eta['kind']}", config))

    samples = 20 if tiny else 100
    for model, eta in _SPACES:
        space, mapping, start = _geometry(model, rng, 1.0, (0.5, 1.0))
        config = _config(space, mapping, start, eta, schedule(), 1.0, [0.1],
                         rng.randrange(2 ** 31))
        jobs.append(_verify_space_job(f"verify-{model}", config, samples))

    # injected faults: theta divided by 8, and an over-claimed eta
    for lam, eta, s in (("1/2", QUAD, S_GEOMETRIC), ("1/10", HILBERT, S_TABLE)):
        space, mapping, start = _geometry("r2-rotation", rng, 1.0, (0.5, 1.0))
        config = _config(space, mapping, start, eta, schedule(lam, s, theta_div=8),
                         1.0, [0.1], rng.randrange(2 ** 31), max_steps=NO_SIM_CAP)
        jobs.append(_sweep_job("fault-theta", config, fault=True))
    for _ in range(2):
        space, mapping, start = _geometry("disk-rotation", rng, 1.0, (0.5, 1.0))
        config = _config(space, mapping, start, OVERCLAIMED_ETA, schedule(), 1.0,
                         [0.1], rng.randrange(2 ** 31))
        jobs.append(_verify_space_job("fault-eta", config, samples, fault=True))
    return jobs


def build(workload: str, seed: int, tiny: bool = False) -> list[list[Job]]:
    """POOL_ROUNDS rounds of jobs; each round holds one job per template."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    for _ in range(POOL_ROUNDS):
        if workload == "orbit-live":
            jobs = _orbit_round(rng, _ORBIT_LIVE, tiny)
        elif workload == "orbit-stationary":
            jobs = _orbit_round(rng, _ORBIT_STATIONARY, tiny)
        elif workload == "run-dense":
            jobs = _run_dense_round(rng, tiny)
        else:
            jobs = _certify_round(rng, tiny)
        rounds.append(jobs)
    return rounds


def write_configs(rounds: list[list[Job]], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for r, jobs in enumerate(rounds):
        for i, job in enumerate(jobs):
            path = directory / f"r{r}-{i:02d}-{job.template}.json"
            path.write_text(json.dumps(job.config, indent=1), encoding="utf-8")
            job.config_path = str(path)


# ---------------------------------------------------------------------------
# output checks

@dataclass
class Problem:
    message: str
    defect: str | None = None  # key of KNOWN_DEFECTS, or None if unexpected


def _check_rate(job: Job, got: dict, ref: dict, where: str) -> list[Problem]:
    """P, gamma0, phi (and deltas) of one eps against the exact reference."""
    out = []
    eta = job.config["space"]["modulus"]["kind"]
    sched = job.config["schedule"]
    p = got.get("P")
    if not isinstance(p, int):
        return [Problem(f"{where}: P missing")]
    if p < ref["P"]:
        defect = "roadmap-2a" if eta == "EtaHilbert" else None
        out.append(Problem(f"{where}: P = {p} below the exact ceiling {ref['P']}", defect))
    elif p > ref["P_max"]:
        out.append(Problem(f"{where}: P = {p} above {ref['P_max']}"))
    if got.get("gamma0") != ref["gamma0"]:
        out.append(Problem(f"{where}: gamma0 = {got.get('gamma0')} != {ref['gamma0']}"))
    # phi and delta follow from the reported P when P is in the accepted range
    # or low by the known defect; any other P has been reported above.
    if got.get("phi") != oracle.phi_for(sched, p, ref["gamma0"]):
        out.append(Problem(f"{where}: phi = {got.get('phi')} inconsistent with P = {p}"))
    for k in ref["deltas"]:
        want = oracle.delta_for(sched, p, k)
        if got.get("deltas", {}).get(str(k)) != want:
            out.append(Problem(f"{where}: delta({k}) = "
                               f"{got.get('deltas', {}).get(str(k))} != {want}"))
    return out


def _csv_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


def _check_sweep(job: Job, code: int, stdout: str, out_dir: Path) -> list[Problem]:
    exp = job.expect
    try:
        doc = json.loads((out_dir / "sweep.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [Problem(f"sweep.json unreadable: {exc}")]
    rows = doc.get("rows", [])
    if [r.get("eps") for r in rows] != [r["eps"] for r in exp["rows"]]:
        return [Problem("sweep rows do not match the eps grid")]
    problems = []
    for got, ref in zip(rows, exp["rows"]):
        where = f"eps={ref['eps']!r}"
        if job.fault:
            if got.get("verdict") != "fail":
                problems.append(Problem(f"{where}: injected fault not caught"))
            continue
        problems += _check_rate(job, got, ref, where)
        if ref["phi"] <= exp["cap"]:
            hit = got.get("first_hit")
            if got.get("verdict") != "pass":
                problems.append(Problem(f"{where}: verdict {got.get('verdict')}"))
            if not isinstance(hit, int) or hit > got.get("phi", -1):
                problems.append(Problem(f"{where}: first_hit {hit} not <= phi"))
        elif got.get("verdict") != "unverified-at-scale":
            problems.append(Problem(f"{where}: verdict {got.get('verdict')}, "
                                    "expected unverified-at-scale"))
    residuals = out_dir / "residuals.csv"
    if exp["horizon"]:
        every = job.config["caps"]["report_every"]
        want = len(range(0, exp["horizon"] + 1, every))
        got_rows = _csv_rows(residuals) if residuals.exists() else None
        if got_rows != want:
            problems.append(Problem(f"residuals.csv has {got_rows} rows, expected {want}"))
    elif residuals.exists():
        problems.append(Problem("residuals.csv written for a sweep with no orbit"))
    return problems


def _check_run(job: Job, code: int, stdout: str, out_dir: Path) -> list[Problem]:
    try:
        doc = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [Problem(f"report.json unreadable: {exc}")]
    ref = job.expect["rate"]
    problems = []
    if doc.get("steps") != job.steps:
        problems.append(Problem(f"steps = {doc.get('steps')}, expected {job.steps}"))
    if doc.get("verdict") != "pass":
        problems.append(Problem(f"verdict {doc.get('verdict')}"))
    names = [c.get("check_name") for c in doc.get("checks", [])]
    if names != ["lemma-inequalities", f"phi-soundness(eps={job.expect['eps']:g})"]:
        problems.append(Problem(f"checks {names}"))
    rate = doc.get("rate", {})
    problems += _check_rate(job, rate, {**ref, "deltas": {}}, "rate")
    hit = rate.get("empirical_first_hit")
    if not isinstance(hit, int) or hit > rate.get("phi", -1):
        problems.append(Problem(f"first_hit {hit} not <= phi"))
    path = out_dir / "trajectory.csv"
    try:
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        rows = _csv_rows(path)
    except (OSError, StopIteration) as exc:
        return problems + [Problem(f"trajectory.csv unreadable: {exc}")]
    if header != ["n", "residual", "inner_residual", "dist_to_ref"]:
        problems.append(Problem(f"trajectory.csv header {header}"))
    if rows != job.steps + 1:
        problems.append(Problem(f"trajectory.csv has {rows} rows, expected {job.steps + 1}"))
    return problems


def _check_verify_space(job: Job, code: int, stdout: str, out_dir: Path) -> list[Problem]:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [Problem("verify-space printed no JSON")]
    checks = doc.get("checks", [])
    exp = job.expect
    if [c.get("check_name") for c in checks] != exp["checks"]:
        return [Problem(f"checks {[c.get('check_name') for c in checks]}")]
    problems = []
    for c in checks:
        want = "fail" if c["check_name"] in exp["failing"] else "pass"
        if c.get("verdict") != want:
            problems.append(Problem(f"{c['check_name']}: verdict {c.get('verdict')}, "
                                    f"expected {want}"))
    if checks[0].get("samples") != exp["samples"]:
        problems.append(Problem(f"space-axioms samples {checks[0].get('samples')}"))
    return problems


def _check_rate_job(job: Job, code: int, stdout: str, out_dir: Path) -> list[Problem]:
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [Problem("rate printed no JSON")]
    return _check_rate(job, doc, job.expect["rate"], f"eps={doc.get('eps')!r}")


_CHECKERS = {"sweep": _check_sweep, "run": _check_run,
             "verify-space": _check_verify_space, "rate": _check_rate_job}


def check(job: Job, code: int, stdout: str, out_dir: Path) -> list[Problem]:
    """Every way the job's exit code or output differs from the expected."""
    want = 1 if job.fault else 0
    problems = [] if code == want else [Problem(f"exit code {code}, expected {want}")]
    return problems + _CHECKERS[job.command](job, code, stdout, out_dir)
