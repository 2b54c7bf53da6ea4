import csv
import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

import asymreg as ar
from asymreg import cli
from asymreg.cli import main

from conftest import CONFIG_DIR

KM = str(CONFIG_DIR / "rotation_pi_euclidean.json")
DISK = str(CONFIG_DIR / "rotation_poincare.json")


# ---------------------------------------------------------------------------
# rate

def test_rate_text_output(capsys):
    assert main(["rate", "--config", KM, "--eps", "0.5",
                 "--k", "0", "--k", "100"]) == 0
    out = capsys.readouterr().out
    assert "P = 512" in out
    assert "gamma0 = 0" in out
    assert "phi = 2052" in out
    assert "delta(0) = 2048" in out
    assert "delta(100) = 2448" in out


def test_rate_json_output(capsys):
    assert main(["rate", "--config", KM, "--eps", "0.25", "--k", "0",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["P"] == 4096 and doc["phi"] == 16388
    assert doc["deltas"] == {"0": 16384}
    assert doc["eps"] == 0.25


def test_rate_shortcut_note(capsys):
    assert main(["rate", "--config", KM, "--eps", "3.0"]) == 0
    out = capsys.readouterr().out
    assert "phi = 0" in out
    assert "residual cap" in out


def test_rate_flat_theta_reports_error(tmp_path, capsys):
    doc = ar.config_to_dict(ar.load_config(KM))
    doc["schedule"]["theta"] = {"kind": "ThetaLinear", "a": "1/100", "b": "0"}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    rc = main(["rate", "--config", str(path), "--eps", "0.5", "--k", "1000"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error" in err


def test_rate_twice_in_one_process_keeps_k_lists_apart(capsys):
    # the parser is built once per process: an --k list must not leak into
    # the next call, with or without --k of its own
    for ks, want in ((["0", "100"], {"0": 2048, "100": 2448}), (["7"], {"7": 2076}),
                     ([], None)):
        argv = ["rate", "--config", KM, "--eps", "0.5", "--json"]
        assert main(argv + [a for k in ks for a in ("--k", k)]) == 0
        assert json.loads(capsys.readouterr().out).get("deltas") == want


@pytest.mark.parametrize("eps", ["3", "0.5"])
def test_rate_rejects_a_negative_k_on_both_branches(capsys, eps):
    # eps = 3 > 2b takes the shortcut, which once answered delta(-5) = -5
    assert main(["rate", "--config", KM, "--eps", eps, "--k", "-5", "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: k must be a natural\n"
    assert captured.out == ""


# gamma(eps / 8b) = inner(4), past the table's last argument 1
GAMMA_PAST_TABLE = ("schedule", "gamma", {
    "kind": "GammaFromDyadic", "inner": {"kind": "Tabulated", "points": [[0, 0], [1, 0]]}})
# eta(r, eps) = 2^-table(k) for k = max(0, ceil(-log2 eps)), defined at k = 0 only
ETA_PAST_TABLE = ("space", "modulus", {
    "kind": "EtaFromEta1", "inner": {"kind": "Tabulated", "points": [[0, 1]]}})


@pytest.mark.parametrize("argv, patch, error", [
    (["rate", "--eps", "0.5"], GAMMA_PAST_TABLE, "schedule.gamma: argument 4"),
    (["run", "--eps", "0.5"], GAMMA_PAST_TABLE, "schedule.gamma: argument 4"),
    (["sweep"], GAMMA_PAST_TABLE, "schedule.gamma: argument 4"),
    (["verify-space", "--samples", "200"], ETA_PAST_TABLE, "space.modulus: argument 1"),
], ids=["rate", "run", "sweep", "verify-space"])
def test_a_descriptor_outside_its_domain_is_a_rate_error(tmp_path, capsys, argv, patch,
                                                         error):
    doc = ar.config_to_dict(ar.load_config(KM))
    section, key, desc = patch
    doc[section][key] = desc
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    out = ["--out", str(tmp_path / "out")] if argv[0] in ("run", "sweep") else []
    assert main(argv + ["--config", str(path)] + out) == 1
    assert capsys.readouterr().err == f"error: {error} outside the table\n"


def _config_with_modulus(tmp_path, modulus) -> str:
    doc = ar.config_to_dict(ar.load_config(KM))
    doc["space"]["modulus"] = modulus
    path = tmp_path / "modulus.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _eta1_affine(a, b) -> dict:
    return {"kind": "EtaFromEta1", "inner": {"kind": "Eta1Affine", "a": a, "b": b}}


@pytest.mark.parametrize("argv", [
    ["rate", "--eps", "0.25"], ["rate", "--eps", "0.25", "--json"],
    ["sweep"], ["run", "--eps", "0.25"],
], ids=["rate", "rate-json", "sweep", "run"])
def test_a_rate_too_long_to_print_is_a_rate_error(tmp_path, capsys, argv):
    # a valid modulus, below eps^2/8 on (0, 2]; phi has 60,009 bits at eps 0.25
    path = _config_with_modulus(tmp_path, _eta1_affine(20000, 3))
    out = tmp_path / "out"
    extra = ["--out", str(out)] if argv[0] in ("run", "sweep") else []
    assert main(argv + ["--config", path] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert re.fullmatch(rf"error: eps = 0\.(25|5): a rate of \d+ bits has more than "
                        rf"{limit} decimal digits\n", captured.err)
    assert not out.exists()


def test_a_long_rate_that_still_prints(tmp_path, capsys):
    # phi has about 12,000 bits, below the limit of str()
    path = _config_with_modulus(tmp_path, _eta1_affine(4000, 0))
    assert main(["rate", "--config", path, "--eps", "0.25"]) == 0
    phi = [line for line in capsys.readouterr().out.splitlines() if line.startswith("phi = ")]
    assert len(phi) == 1 and len(phi[0]) > 3000


# ---------------------------------------------------------------------------
# verify-space

def test_verify_space_passes(capsys):
    assert main(["verify-space", "--config", DISK, "--samples", "400"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_space_json(capsys):
    assert main(["verify-space", "--config", KM, "--samples", "300",
                 "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    names = {c["check_name"] for c in doc["checks"]}
    assert {"space-axioms", "uc-implication"} <= names
    assert doc["verdict"] == "pass"


def test_verify_space_catches_bad_modulus(tmp_path, capsys):
    doc = ar.config_to_dict(ar.load_config(KM))
    doc["space"]["modulus"] = {"kind": "EtaQuadratic", "denominator": 2}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    rc = main(["verify-space", "--config", str(path), "--samples", "2000"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# run

def test_run_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["run", "--config", KM, "--eps", "0.5",
                 "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["verdict"] == "pass"
    assert report["rate"]["phi"] == 2052
    assert report["stationary_from"] == 20
    with open(out_dir / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["n"] == "0"
    assert float(rows[0]["residual"]) == pytest.approx(2.0)
    # config writes every 1000th step; horizon is phi + 1000 = 3052
    assert int(rows[-1]["n"]) == 3000
    out = capsys.readouterr().out
    assert "PASS" in out


def test_run_fixed_steps_without_eps(tmp_path, capsys):
    out_dir = tmp_path / "out"
    ident = str(CONFIG_DIR / "identity_euclidean.json")
    assert main(["run", "--config", ident, "--steps", "500", "--json",
                 "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert "rate" not in report
    assert report["stationary_from"] == 0
    assert json.loads(capsys.readouterr().out)["stationary_from"] == 0
    with open(out_dir / "trajectory.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert int(rows[-1]["n"]) == 500
    assert len(rows) == 501


def test_run_bad_theta_fails(tmp_path, capsys):
    doc = ar.config_to_dict(ar.load_config(KM))
    doc["schedule"]["theta"] = {"kind": "ThetaLinear", "a": "1/2", "b": "0"}
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(doc))
    rc = main(["run", "--config", str(path), "--eps", "0.5",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweep

def test_sweep_with_step_cap(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    rc = main(["sweep", "--config", KM, "--max-steps", "20000",
               "--out", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "WARN" in out            # large-eps rows verified, small ones capped
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_eps = {row["eps"]: row for row in rows}
    assert by_eps["0.5"]["verdict"] == "pass"
    assert by_eps["0.5"]["phi"] == "2052"
    assert by_eps["0.0625"]["verdict"] == "unverified-at-scale"
    assert by_eps["0.0625"]["first_hit"] == ""
    doc = json.loads((out_dir / "sweep.json").read_text())
    assert [entry["eps"] for entry in doc["rows"]] == [0.5, 0.25, 0.125, 0.0625]
    assert doc["verdict"] == "unverified-at-scale"
    assert (doc["stationary_from"], doc["period_from"], doc["period"]) == (20, 20, 1)
    assert (out_dir / "residuals.csv").exists()


def test_run_and_sweep_report_where_the_orbit_repeats(tmp_path, capsys):
    # rotation_poincare: x_n is constant from 2,145 on, at a residual of
    # 1e-323 with T x_n != x_n
    out_dir = tmp_path / "run"
    assert main(["run", "--config", DISK, "--steps", "3000", "--json",
                 "--out", str(out_dir)]) == 0
    cut = {"stationary_from": 2145, "period_from": 2145, "period": 1}
    report = json.loads((out_dir / "report.json").read_text())
    assert {key: report[key] for key in cut} == cut
    assert report["verdict"] == "pass"
    doc = json.loads(capsys.readouterr().out)
    assert {key: doc[key] for key in cut} == cut

    # a plane rotation by 0.67 pi runs through 4 states, caught from 1,091 on
    data = ar.config_to_dict(ar.load_config(CONFIG_DIR / "rotation_half_pi_euclidean.json"))
    data["mapping"]["angle"] = 0.67 * math.pi
    data["start"] = [0.6, -0.2]
    data["eps_grid"] = [0.5]
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(path), "--json",
                 "--out", str(tmp_path / "sweep")]) == 0
    cut = {"stationary_from": None, "period_from": 1091, "period": 4}
    doc = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    assert {key: doc[key] for key in cut} == cut
    assert doc == json.loads(capsys.readouterr().out)


def _record_calls(monkeypatch, calls: list, module, name) -> None:
    """Append the arguments of every later call of module.name to calls."""
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs:
                        calls.append(args) or fn(*args, **kwargs))


def test_sweep_and_run_certify_each_eps_once(tmp_path, monkeypatch, capsys):
    data = ar.config_to_dict(ar.load_config(KM))
    data["eps_grid"] = [0.5, 0.25, 0.125]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(data))
    calls = []
    _record_calls(monkeypatch, calls, cli, "certify")
    _record_calls(monkeypatch, calls, ar.verification, "certify")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) == 0
    assert len(calls) == 3
    assert main(["run", "--config", KM, "--eps", "0.5", "--out", str(tmp_path / "run")]) == 0
    assert len(calls) == 4


def test_rate_computes_p_once(monkeypatch, capsys):
    calls = []
    _record_calls(monkeypatch, calls, ar.rates, "compute_p")
    assert main(["rate", "--config", KM, "--eps", "0.5", "--k", "0", "--k", "100"]) == 0
    assert len(calls) == 1
    assert "delta(100) = 2448" in capsys.readouterr().out


def test_run_steps_caps_the_soundness_window_to_its_one_orbit(tmp_path, monkeypatch, capsys):
    # phi = 2052 at eps 0.5: 100 steps leave the window unread, 2500 cut it
    # to [2052, 2500]; either way the one orbit is the one written
    data = ar.config_to_dict(ar.load_config(KM))
    data["caps"]["report_every"] = 1
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(data))
    witnesses = None
    for steps in (100, 2500):
        calls = []
        _record_calls(monkeypatch, calls, cli, "run_trajectory")
        _record_calls(monkeypatch, calls, ar.verification, "run_trajectory")
        out_dir = tmp_path / str(steps)
        assert main(["run", "--config", str(path), "--eps", "0.5", "--steps", str(steps),
                     "--out", str(out_dir)]) == 0
        assert [args[4] for args in calls] == [steps]
        report = json.loads((out_dir / "report.json").read_text())
        assert report["steps"] == steps
        with open(out_dir / "trajectory.csv", newline="") as fh:
            assert [int(row["n"]) for row in csv.DictReader(fh)] == list(range(steps + 1))
        soundness = report["checks"][1]
        if witnesses is None:
            assert soundness["verdict"] == "unverified-at-scale"
            assert soundness["notes"] == [
                "phi = 2052 exceeds the step cap 100; soundness not simulated"]
            witnesses = soundness["samples"]    # the theta and gamma witness checks
        else:
            assert soundness["verdict"] == "pass"
            assert soundness["samples"] == witnesses + len(range(2052, 2501))
            assert report["rate"]["empirical_first_hit"] == 1


# ---------------------------------------------------------------------------
# error handling and overrides

def test_missing_config_file_is_usage_error(capsys):
    rc = main(["rate", "--config", "/nonexistent.json", "--eps", "0.5"])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_invalid_config_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"space": {"kind": "Banach"}}')
    rc = main(["rate", "--config", str(path), "--eps", "0.5"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["run", "--steps", "-5"], "--steps"),
    (["run", "--eps", "nan"], "--eps"),
    (["run", "--eps", "inf"], "--eps"),
    (["rate", "--eps", "inf"], "--eps"),
    (["verify-space", "--samples", "0"], "--samples"),
    (["verify-space", "--samples", "-1"], "--samples"),
])
def test_a_bad_flag_value_is_a_usage_error(tmp_path, capsys, argv, flag):
    if argv[0] == "run":
        argv = argv + ["--out", str(tmp_path / "out")]
    assert main(argv + ["--config", KM]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1


@pytest.mark.parametrize("eps, steps", [
    pytest.param("0", [], id="0"),
    pytest.param("-0.5", [], id="-0.5"),
    pytest.param("0", ["--steps", "10"], id="0-steps"),
])
def test_a_nonpositive_eps_is_a_rate_error(tmp_path, capsys, eps, steps):
    assert main(["run", "--config", KM, "--eps", eps, "--out", str(tmp_path)] + steps) == 1
    assert "eps must be positive" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [["run", "--steps", "50"], ["sweep"]], ids=["run", "sweep"])
def test_an_orbit_that_leaves_its_domain_ball_fails(tmp_path, capsys, argv):
    # the rotation by pi/2 about (0, 0) maps the unit ball into itself, but
    # not the ball about (0.4, 0): x_2 = (0, 0.45) lies 0.60 from its center
    doc = json.loads((CONFIG_DIR / "rotation_half_pi_euclidean.json").read_text())
    doc["start"] = [0.9, 0.0]
    for center, radius, code in (([0.0, 0.0], 1.0, 0), ([0.4, 0.0], 0.5, 1)):
        doc["mapping"]["domain"] = {"kind": "ClosedBall", "center": center, "radius": radius}
        config, out = tmp_path / f"ball{code}.json", tmp_path / f"out{code}"
        config.write_text(json.dumps(doc))
        assert main(argv + ["--config", str(config), "--out", str(out)]) == code
    assert capsys.readouterr().err == \
        "error: the orbit leaves the mapping's domain at step n = 2\n"
    assert not out.exists()


def test_seed_override_reaches_every_sampler(monkeypatch, capsys):
    seeds = []
    for name in ("check_space_axioms", "check_uc_implication", "check_dyadic_uc_implication"):
        check = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *args, _check=check, **kwargs:
                            seeds.append(kwargs["seed"]) or _check(*args, **kwargs))
    assert main(["verify-space", "--config", KM, "--samples", "200", "--json"]) == 0
    assert main(["verify-space", "--config", KM, "--samples", "200", "--seed", "9",
                 "--json"]) == 0
    assert seeds == [ar.load_config(KM).seed] * 3 + [9] * 3
    a, b = (json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert a["verdict"] == b["verdict"] == "pass"


def test_max_steps_override_caps_run(tmp_path, capsys):
    rc = main(["run", "--config", KM, "--eps", "0.0625",
               "--max-steps", "5000", "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "WARN" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdict"] == "unverified-at-scale"


def test_a_large_N0_loads_at_once(tmp_path):
    # s_n = (1/2)^(n+1) from N0 = 10^9 on: the exact s_N0 has a
    # billion-bit denominator, and the loader must not build it
    data = json.loads((CONFIG_DIR / "ishikawa_geometric_s_euclidean.json").read_text())
    data["schedule"]["N0"] = 10**9
    path = tmp_path / "n0.json"
    path.write_text(json.dumps(data))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(CONFIG_DIR.parent / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "asymreg.cli", "rate", "--config", str(path),
         "--eps", "0.0625", "--json"],
        env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout)["phi"] == 4 * (2**21 + 5 + 1 + 10**9)

    # with L = 1, no s_n > 0 is <= 1 - 1/L = 0, whatever N0 is
    data["schedule"]["L"] = 1
    with pytest.raises(ar.ConfigError, match="config.schedule"):
        ar.config_from_dict(data)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_import_starts_no_blas_thread_pool(preset, want):
    # the package needs no BLAS threads, and a value the user set is kept
    env = {key: v for key, v in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(CONFIG_DIR.parent / "src"), env.get("PYTHONPATH")) if p)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, asymreg\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('Threads:')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 0, done.stderr[-2000:]
    value, threads = done.stdout.split()
    assert value == want
    if preset is None:
        assert threads == "1"


def test_rate_loads_no_numpy(tmp_path):
    # rate computes in integers and Fractions: numpy loads only where arrays
    # are made, which verify-space does, so the first check is not vacuous
    bad_dim = json.loads((CONFIG_DIR / "rotation_pi_euclidean.json").read_text())
    bad_dim["space"]["dim"] = 0
    (tmp_path / "bad_dim.json").write_text(json.dumps(bad_dim))
    (tmp_path / "bad_json.json").write_text("{")
    code = f"""
import contextlib, io, sys
import asymreg
from asymreg.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for extra in ([], ["--json"], ["--k", "0", "--k", "100"]):
        codes.append(main(["rate", "--config", {KM!r}, "--eps", "0.0625", *extra]))
    for bad in ("bad_dim.json", "bad_json.json"):
        codes.append(main(["rate", "--config", bad, "--eps", "0.0625"]))
print(codes, "numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify-space", "--config", {KM!r}, "--samples", "20"])]
print(codes, "numpy" in sys.modules)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(CONFIG_DIR.parent / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == ["[0, 0, 0, 2, 2] False", "[0] True"]


def test_a_sweep_that_simulates_nothing_loads_no_numpy(tmp_path):
    # the witness checks are exact, so a sweep whose every phi exceeds the
    # step cap, or whose theta witness fails, makes no array; a sweep that
    # simulates loads numpy, so the first check is not vacuous
    for name in ("rotation_pi_euclidean", "ishikawa_geometric_s_euclidean"):
        data = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        data["caps"]["max_steps"] = 100
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    data["schedule"]["theta"]["a"] = "1/2"
    (tmp_path / "slow_theta.json").write_text(json.dumps(data))
    code = f"""
import contextlib, io, sys
from asymreg.cli import main
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for name in ("rotation_pi_euclidean", "ishikawa_geometric_s_euclidean", "slow_theta"):
        codes.append(main(["sweep", "--config", name + ".json", "--json", "--out", name]))
print(codes, "numpy" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["sweep", "--config", {KM!r}, "--json", "--out", "full"])]
print(codes, "numpy" in sys.modules)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(CONFIG_DIR.parent / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == ["[0, 0, 1] False", "[0] True"]
    doc = json.loads((tmp_path / "ishikawa_geometric_s_euclidean" / "sweep.json").read_text())
    assert doc["verdict"] == "unverified-at-scale"
    assert [check["samples"] for check in doc["checks"]] == [1002] * 4


@pytest.mark.parametrize("n0, loads", [(10**9, True), (693_147, True), (693_146, False)])
def test_a_ratio_near_one_loads_at_once(n0, loads):
    # s_n = q^n with q = 1 - 10^-6 first drops to 1/2 = 1 - 1/L at
    # n = 693,147, where the exact power has millions of bits
    data = json.loads((CONFIG_DIR / "ishikawa_geometric_s_euclidean.json").read_text())
    data["schedule"].update(s={"kind": "Geometric", "c": "1", "q": "999999/1000000"},
                            L=2, N0=n0)
    start = time.perf_counter()
    try:
        ar.config_from_dict(data)
    except ar.ConfigError as exc:
        assert not loads and "sup s_n = 1 * (999999/1000000)^693146" in str(exc)
    else:
        assert loads
    assert time.perf_counter() - start < 1.0
