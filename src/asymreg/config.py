"""Experiment configuration: JSON in, validated components out.

A config bundles one space model, one mapping (on its domain), a start point,
the schedule with its witnesses, approximate fixed-point data, an epsilon
grid, a seed, and step caps.  The space, domain and mapping are built by
their kind's one constructor, which checks the values, from the fields that
_SECTIONS lists; config checks JSON types and names the JSON path of every
error.  Serialization round-trips exactly (fractions as strings, floats as repr).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

from .geometry import (
    EUCLIDEAN,
    POINCARE_DISK,
    GeometryError,
    Point,
    SpaceModel,
    euclidean,
    make_point,
    poincare_disk,
)
from .mappings import (
    CLOSED_BALL,
    EUCLIDEAN_REFLECTION_AVERAGE,
    EUCLIDEAN_ROTATION,
    IDENTITY,
    METRIC_PROJECTION,
    POINCARE_ROTATION,
    WHOLE_SPACE,
    ApproxFixedPointSpec,
    MappingError,
    MappingSpec,
    WitnessError,
    closed_ball,
    declared_fixed_point,
    euclidean_reflection_average,
    euclidean_rotation,
    identity,
    in_domain,
    metric_projection,
    poincare_rotation,
    raw_apply_fn,
    validate_afp,
    whole_space,
)
from .moduli import (
    ROLE_ETA,
    ROLE_GAMMA,
    ROLE_NATURAL,
    DescriptorError,
    ModulusDescriptor,
    Schedule,
    ScheduleError,
    as_int,
    descriptor_from_dict,
    descriptor_to_dict,
    sequence_from_dict,
    validate_schedule,
)

# The most steps any orbit runs, and the default of caps.max_steps.
HARD_STEP_CAP = 10_000_000


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the JSON path."""


@dataclass(frozen=True)
class Caps:
    max_steps: int = HARD_STEP_CAP
    report_every: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    space: SpaceModel
    mapping: MappingSpec
    start: Point
    schedule: Schedule
    afp: ApproxFixedPointSpec
    eps_grid: tuple[float, ...]
    seed: int = 0
    caps: Caps = Caps()


# ---------------------------------------------------------------------------
# field helpers

def _err(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _object(data, path: str) -> dict:
    """data, once checked to be a JSON object; every section passes here
    before its fields are read."""
    if not isinstance(data, dict):
        raise _err(path, f"expected an object, got {type(data).__name__}")
    return data


def _get(data: dict, key: str, path: str):
    if key not in data:
        raise _err(f"{path}.{key}", "missing required field")
    return data[key]


def _as_int(value, path: str, minimum: int | None = None) -> int:
    """moduli.as_int, its error naming path."""
    try:
        return as_int(value, path.rpartition(".")[2], minimum)
    except DescriptorError as exc:
        raise _err(path, str(exc)) from None


def _as_number(value, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _err(path, f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise _err(path, "must be finite")
    if positive and out <= 0:
        raise _err(path, f"must be positive, got {value!r}")
    return out


def _as_coords(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise _err(path, "expected a nonempty array of coordinates")
    return tuple(_as_number(v, f"{path}[{i}]") for i, v in enumerate(value))


_ANGLE_RE = re.compile(r"^\s*(-?)\s*(\d+)?\s*pi\s*(?:/\s*(\d+))?\s*$")


def parse_angle(value, path: str = "angle") -> float:
    """A number, or a string multiple of pi: "pi", "-pi/2", "3pi/4"."""
    if isinstance(value, str):
        m = _ANGLE_RE.match(value)
        if not m:
            raise _err(path, f"cannot parse angle {value!r} (try \"pi/2\" or a number)")
        sign = -1.0 if m.group(1) else 1.0
        num = int(m.group(2) or 1)
        den = int(m.group(3) or 1)
        if den == 0:
            raise _err(path, "angle denominator must be nonzero")
        return sign * num * math.pi / den
    return _as_number(value, path)


def _point(space: SpaceModel, coords, path: str) -> Point:
    try:
        return make_point(space, coords)
    except GeometryError as exc:
        raise _err(path, str(exc)) from exc


def _unknown_keys(data: dict, allowed: set[str], path: str) -> None:
    extra = set(data) - allowed
    if extra:
        raise _err(path, f"unknown field(s): {', '.join(sorted(extra))}")


# ---------------------------------------------------------------------------
# sections: space, domain and mapping

# section -> kind -> (constructor, fields).  The constructor takes the fields by
# name and checks them; an error whose message starts with a field's name is that field's.
_SECTIONS = {
    "space": {
        EUCLIDEAN: (euclidean, ("dim", "modulus")),
        POINCARE_DISK: (poincare_disk, ("modulus",)),
    },
    "domain": {
        WHOLE_SPACE: (whole_space, ()),
        CLOSED_BALL: (closed_ball, ("center", "radius")),
    },
    "mapping": {
        IDENTITY: (identity, ("domain",)),
        EUCLIDEAN_ROTATION: (euclidean_rotation, ("center", "angle", "domain")),
        EUCLIDEAN_REFLECTION_AVERAGE: (euclidean_reflection_average, ("center", "domain")),
        POINCARE_ROTATION: (poincare_rotation, ("center", "angle", "domain")),
        METRIC_PROJECTION: (metric_projection, ("center", "radius", "domain")),
    },
}


def _section(section: str, data, path: str):
    """The space, domain or mapping that data describes, built by its kind's constructor."""
    data = _object(data, path)
    kind = _get(data, "kind", path)
    if not isinstance(kind, str):
        raise _err(f"{path}.kind", f"expected a string, got {kind!r}")
    if kind not in _SECTIONS[section]:
        raise _err(f"{path}.kind", f"unknown {section} kind {kind!r}")
    constructor, fields = _SECTIONS[section][kind]
    allowed = {"kind", *fields}
    if kind == POINCARE_DISK:   # the disk takes no dim, but a config may say "dim": 2
        if data.get("dim", 2) != 2:
            raise _err(f"{path}.dim", "the disk model is two-dimensional")
        allowed.add("dim")
    _unknown_keys(data, allowed, path)
    args = {name: _FIELDS[name][0](_get(data, name, path), f"{path}.{name}")
            for name in fields if name in data or name not in _OPTIONAL}
    try:
        return constructor(**args)
    except (GeometryError, MappingError) as exc:
        name = str(exc).partition(" ")[0]
        raise _err(f"{path}.{name}" if name in fields else path, str(exc)) from None


def _write(section: str, record) -> dict:
    """The config form of a space, domain or mapping; a None from a writer is left out."""
    out = {"kind": record.kind}
    for name in _SECTIONS[section][record.kind][1]:
        if (value := _FIELDS[name][1](getattr(record, name))) is not None:
            out[name] = value
    return out


# field -> (reader, writer); a name means the same in every section.  A reader
# makes the JSON checks of its field, the constructor all others.  Fields in
# _OPTIONAL may be left out, as their constructors have a default for them.
_FIELDS = {
    "dim": (lambda data, path: data, int),
    "modulus": (lambda data, path: _parse_descriptor(data, path, ROLE_ETA), descriptor_to_dict),
    "center": (_as_coords, list),
    "angle": (parse_angle, float),
    "radius": (_as_number, float),
    "domain": (lambda data, path: _section("domain", data, path),
               lambda domain: None if domain.kind == WHOLE_SPACE else _write("domain", domain)),
}
_OPTIONAL = {"dim", "modulus", "domain"}


def _parse_descriptor(data, path: str, role: str | None = None) -> ModulusDescriptor:
    """The descriptor at path: a modulus of a kind that plays role, or an
    averaging sequence when no role is given."""
    try:
        return sequence_from_dict(data) if role is None else descriptor_from_dict(data, role)
    except (ValueError, TypeError) as exc:
        raise _err(path, str(exc)) from exc


def _parse_schedule(data, path: str) -> Schedule:
    data = _object(data, path)
    _unknown_keys(data, {"lambda", "s", "theta", "L", "N0", "gamma"}, path)
    schedule = Schedule(
        lambda_seq=_parse_descriptor(_get(data, "lambda", path), f"{path}.lambda"),
        s_seq=_parse_descriptor(_get(data, "s", path), f"{path}.s"),
        theta=_parse_descriptor(_get(data, "theta", path), f"{path}.theta", ROLE_NATURAL),
        L=_as_int(_get(data, "L", path), f"{path}.L", minimum=1),
        N0=_as_int(data.get("N0", 0), f"{path}.N0", minimum=0),
        gamma=_parse_descriptor(_get(data, "gamma", path), f"{path}.gamma", ROLE_GAMMA),
    )
    try:
        validate_schedule(schedule)
    except ScheduleError as exc:
        raise _err(path, str(exc)) from exc
    return schedule


def config_from_dict(data: dict) -> ExperimentConfig:
    data = _object(data, "config")
    _unknown_keys(data, {"space", "mapping", "start", "schedule", "afp",
                         "eps_grid", "seed", "caps"}, "config")
    space = _section("space", _get(data, "space", "config"), "config.space")
    mapping = _section("mapping", _get(data, "mapping", "config"), "config.mapping")
    t = _check_mapping(space, mapping)
    start = _point(space, _as_coords(_get(data, "start", "config"), "config.start"),
                   "config.start")

    afp_data = _object(_get(data, "afp", "config"), "config.afp")
    _unknown_keys(afp_data, {"b", "fixed_point"}, "config.afp")
    b = _as_number(_get(afp_data, "b", "config.afp"), "config.afp.b", positive=True)
    path = "config.afp.fixed_point"
    if "fixed_point" in afp_data:
        fp = _point(space, _as_coords(afp_data["fixed_point"], path), path)
    elif (fp := declared_fixed_point(space, mapping)) is None:
        raise _err(path, f"required: mapping kind {mapping.kind!r} declares no fixed point")
    afp = ApproxFixedPointSpec(x=start, b=b, fixed_point=fp)

    schedule = _parse_schedule(_get(data, "schedule", "config"), "config.schedule")

    eps_raw = _get(data, "eps_grid", "config")
    if not isinstance(eps_raw, (list, tuple)) or not eps_raw:
        raise _err("config.eps_grid", "expected a nonempty array")
    eps_grid = tuple(_as_number(v, f"config.eps_grid[{i}]", positive=True)
                     for i, v in enumerate(eps_raw))

    seed = _as_int(data.get("seed", 0), "config.seed", minimum=0)
    caps_data = _object(data.get("caps", {}), "config.caps")
    _unknown_keys(caps_data, {"max_steps", "report_every"}, "config.caps")
    caps = Caps(
        max_steps=_as_int(caps_data.get("max_steps", HARD_STEP_CAP),
                          "config.caps.max_steps", minimum=1),
        report_every=_as_int(caps_data.get("report_every", 1),
                             "config.caps.report_every", minimum=1),
    )

    config = ExperimentConfig(space, mapping, start, schedule, afp,
                              eps_grid, seed, caps)
    _check_start(config, t)
    return config


def _check_mapping(space: SpaceModel, mapping: MappingSpec):
    """raw_apply_fn of the mapping, once each of its centers is a point of space."""
    for path, center in (("config.mapping.center", mapping.center),
                         ("config.mapping.domain.center", mapping.domain.center)):
        if center is not None:
            _point(space, center, path)
    try:
        return raw_apply_fn(space, mapping)
    except MappingError as exc:
        raise _err("config.mapping", str(exc)) from exc


def _check_start(config: ExperimentConfig, t) -> None:
    """The start point and the fixed point lie in the mapping's domain, and
    the afp holds for t, the mapping's raw_apply_fn."""
    space, mapping, afp = config.space, config.mapping, config.afp
    if not in_domain(space, mapping, config.start):
        raise _err("config.start", "start point lies outside the mapping domain")
    if not in_domain(space, mapping, afp.fixed_point):
        raise _err("config.afp", "point outside the mapping's domain")
    try:
        validate_afp(space, t, afp)
    except WitnessError as exc:
        raise _err("config.afp", str(exc)) from exc


# ---------------------------------------------------------------------------
# serialization

def config_to_dict(config: ExperimentConfig) -> dict:
    sched = config.schedule
    out = {
        "space": _write("space", config.space),
        "mapping": _write("mapping", config.mapping),
        "start": list(config.start.coords),
        "schedule": {
            "lambda": descriptor_to_dict(sched.lambda_seq),
            "s": descriptor_to_dict(sched.s_seq),
            "theta": descriptor_to_dict(sched.theta),
            "L": sched.L,
            "N0": sched.N0,
            "gamma": descriptor_to_dict(sched.gamma),
        },
        "afp": {"b": config.afp.b, "fixed_point": list(config.afp.fixed_point.coords)},
        "eps_grid": list(config.eps_grid),
        "seed": config.seed,
        "caps": {"max_steps": config.caps.max_steps,
                 "report_every": config.caps.report_every},
    }
    return out


def loads_config(text: str) -> ExperimentConfig:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    return config_from_dict(data)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        return loads_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
