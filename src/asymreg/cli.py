"""Command line front end.

Subcommands:
  verify-space  sample the axioms and the uniform convexity implication
  rate          compute P, gamma0, phi (and delta(k)) from a config, no simulation
  run           simulate one orbit, write the trajectory CSV, audit the step
                inequalities, optionally check phi soundness for one eps
  sweep         certify and verify the whole eps grid off one shared orbit

Exit codes: 0 all checks passed (warnings allowed), 1 at least one check
failed, a rate could not be computed or an orbit left its mapping's domain,
2 usage or config errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, load_config
from .geometry import EUCLIDEAN
from .iteration import run_trajectory, trajectory_to_csv
from .mappings import DomainError
from .moduli import eta_to_eta1
from .rates import RateError, evaluated
# Unused here; perfbench/spans._SPANNED still wraps these names in this module.
from .rates import compute_delta, compute_phi, epsilon_shortcut, inputs_for  # noqa: F401
from .report import FAIL, PASS, UNVERIFIED_AT_SCALE, CheckReport
from .verification import (
    certify,
    check_dyadic_uc_implication,
    check_lemma_inequalities,
    check_phi_soundness,
    check_space_axioms,
    check_uc_implication,
    reference_point,
    step_cap,
    trajectory_for,
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.handler(config, args)
    except (RateError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later main()
    in the process, which so skips argparse's per-argument setup; parse_args
    leaves it unchanged, and --k defaults to None, not to a shared list."""
    parser = argparse.ArgumentParser(
        prog="asymreg",
        description="Certified rates of asymptotic regularity for averaged "
                    "iterations, with numerical verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--max-steps", type=int, default=None,
                       help="override the step cap (hard limit 10^7)")
        p.add_argument("--json", action="store_true",
                       help="print one JSON document instead of text")

    p = sub.add_parser("verify-space", help="sample space axioms and convexity")
    common(p)
    p.add_argument("--samples", type=int, default=2000)
    p.set_defaults(handler=_cmd_verify_space)

    p = sub.add_parser("rate", help="compute certified rates, no simulation")
    common(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--k", type=int, action="append", default=None,
                   help="also compute delta(k); repeatable")
    p.set_defaults(handler=_cmd_rate)

    p = sub.add_parser("run", help="simulate one orbit and audit it")
    common(p)
    p.add_argument("--eps", type=float, default=None,
                   help="also verify phi soundness at this eps")
    p.add_argument("--steps", type=int, default=None,
                   help="simulation length (default: derived from --eps, else 10000); "
                        "with --eps it caps the soundness window, as --max-steps does")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("sweep", help="certify and verify the whole eps grid")
    common(p)
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(handler=_cmd_sweep)
    return parser


def _load(args) -> ExperimentConfig:
    steps, samples, eps = (getattr(args, key, None) for key in ("steps", "samples", "eps"))
    if args.max_steps is not None and args.max_steps < 1:
        raise ConfigError("--max-steps: must be >= 1")
    if steps is not None and steps < 0:
        raise ConfigError("--steps: must be >= 0")
    if samples is not None and samples < 1:
        raise ConfigError("--samples: must be >= 1")
    if eps is not None and not math.isfinite(eps):
        raise ConfigError("--eps: must be finite")
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    caps = config.caps
    if args.max_steps is not None:   # verification.step_cap applies HARD_STEP_CAP
        caps = dataclasses.replace(caps, max_steps=args.max_steps)
    if steps is not None and eps is not None:   # the run's length caps its window
        caps = dataclasses.replace(caps, max_steps=min(caps.max_steps, steps))
    return config if caps is config.caps else dataclasses.replace(config, caps=caps)


def _exit_code(reports) -> int:
    return 1 if any(r.verdict == FAIL for r in reports) else 0


def _emit(reports, as_json: bool, extra: dict | None = None) -> None:
    if as_json:
        doc = dict(extra or {})
        doc["checks"] = [r.to_json_dict() for r in reports]
        doc["verdict"] = _worst(reports)
        print(json.dumps(doc, sort_keys=True))
        return
    for key, value in (extra or {}).items():
        print(f"{key}: {json.dumps(value, sort_keys=True)}")
    for r in reports:
        print(r.summary_line())


def _cut_off(traj) -> dict:
    """Where the orbit runner's cut-off fired: x_{c+p} == x_c bitwise for
    c = period_from and p = period.  For p = 1, c is also stationary_from,
    and the state is constant from c on; for p > 1, c is the repeat the
    runner detected, not necessarily the first index of the cycle.  All
    three are None when no repeat was found or nothing ran."""
    return {key: getattr(traj, key, None)
            for key in ("stationary_from", "period_from", "period")}


def _worst(reports) -> str:
    verdicts = {r.verdict for r in reports}
    if FAIL in verdicts:
        return FAIL
    if UNVERIFIED_AT_SCALE in verdicts:
        return UNVERIFIED_AT_SCALE
    return PASS


# ---------------------------------------------------------------------------
# subcommands

def _cmd_verify_space(config: ExperimentConfig, args) -> int:
    reports = evaluated("space.modulus", _space_checks, config.space, args.samples, config.seed)
    _emit(reports, args.json)
    return _exit_code(reports)


def _space_checks(space, n: int, seed: int) -> list[CheckReport]:
    reports = [check_space_axioms(space, samples=n, seed=seed),
               check_uc_implication(space, samples=n, seed=seed)]
    if space.kind == EUCLIDEAN:
        reports.append(check_dyadic_uc_implication(
            space, eta_to_eta1(space.modulus), conclusion_strict=True, samples=n, seed=seed))
    return reports


def _rate_doc(config: ExperimentConfig, eps: float, k_list) -> dict:
    rr = certify(config, eps, k_list)
    if rr.delta_errors:
        raise next(iter(rr.delta_errors.values()))
    doc = {"eps": eps, "P": rr.P, "gamma0": rr.gamma0, "phi": rr.phi}
    if rr.note:
        doc["note"] = rr.note
    if rr.deltas:
        doc["deltas"] = rr.to_json_dict()["deltas"]
    return doc


def _cmd_rate(config: ExperimentConfig, args) -> int:
    doc = _rate_doc(config, args.eps, args.k or ())
    if args.json:
        print(json.dumps(doc, sort_keys=True))
        return 0
    print(f"eps = {args.eps:g}")
    for key in ("P", "gamma0", "phi"):
        print(f"{key} = {doc[key]}")
    for k, v in sorted(doc.get("deltas", {}).items(), key=lambda kv: int(kv[0])):
        print(f"delta({k}) = {v}")
    if "note" in doc:
        print(doc["note"])
    return 0


def _cmd_run(config: ExperimentConfig, args) -> int:
    reports: list[CheckReport] = []
    extra: dict = {}

    steps, rr = args.steps, None
    if args.eps is not None:
        # a bad eps or a descriptor outside its domain ends the run here,
        # before anything is simulated or written
        rr = certify(config, args.eps)
        steps = rr.window_end if steps is None else steps
    steps = min(10_000 if steps is None else steps, step_cap(config))

    traj = run_trajectory(
        config.space, config.mapping, config.start, config.schedule, steps,
        afp=config.afp, ref_point=reference_point(config))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trajectory_to_csv(traj, out / "trajectory.csv",
                      report_every=config.caps.report_every)
    extra["trajectory_csv"] = str(out / "trajectory.csv")
    extra["steps"] = steps
    extra.update(_cut_off(traj))

    reports.append(check_lemma_inequalities(traj))
    if rr is not None:
        rr, rep = check_phi_soundness(config, rr, trajectory=traj)
        reports.append(rep)
        extra["rate"] = rr.to_json_dict()
    (out / "report.json").write_text(json.dumps(
        {**extra, "checks": [r.to_json_dict() for r in reports],
         "verdict": _worst(reports)}, sort_keys=True) + "\n", encoding="utf-8")
    _emit(reports, args.json, extra)
    return _exit_code(reports)


def _cmd_sweep(config: ExperimentConfig, args) -> int:
    grid = sorted(set(config.eps_grid), reverse=True)

    rates = [certify(config, eps) for eps in grid]
    horizon = max((rr.window_end for rr in rates if rr.phi <= rr.step_cap), default=0)
    traj = trajectory_for(config, horizon) if horizon > 0 else None

    reports = []
    rows = []
    for eps, certified in zip(grid, rates):
        rr, rep = check_phi_soundness(config, certified, trajectory=traj)
        reports.append(rep)
        rows.append({
            "eps": eps, "P": rr.P, "gamma0": rr.gamma0, "phi": rr.phi,
            "first_hit": rr.empirical_first_hit,
            "tightness": rr.tightness_ratio,
            "verdict": rep.verdict,
        })

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    header = ["eps", "P", "gamma0", "phi", "first_hit", "tightness", "verdict"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            "" if row[h] is None else
            (repr(float(row[h])) if h in ("eps", "tightness") else str(row[h]))
            for h in header))
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    if traj is not None:
        trajectory_to_csv(traj, out / "residuals.csv",
                          report_every=config.caps.report_every)
    doc = json.dumps({
        "rows": rows, "checks": [r.to_json_dict() for r in reports],
        **_cut_off(traj), "verdict": _worst(reports)}, sort_keys=True)
    (out / "sweep.json").write_text(doc + "\n", encoding="utf-8")

    if args.json:
        print(doc)
    else:
        print(",".join(header))
        for line in lines[1:]:
            print(line)
        for r in reports:
            print(r.summary_line())
    return _exit_code(reports)


if __name__ == "__main__":
    sys.exit(main())
