"""Experiment configuration: JSON in, validated components out.

A config bundles one space model, one mapping, a start point, the schedule
with its witnesses, approximate fixed-point data, an epsilon grid, a seed,
and step caps.  Parse errors carry the JSON path of the offending field.
Serialization round-trips exactly (fractions as strings, floats as repr).
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
    DomainSpec,
    MappingError,
    MappingSpec,
    WitnessError,
    declared_fixed_point,
    in_domain,
    raw_apply_fn,
    validate_afp,
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


def _get(data: dict, key: str, path: str, required: bool = True, default=None):
    if key in data:
        return data[key]
    if required:
        raise _err(f"{path}.{key}", "missing required field")
    return default


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


def _unknown_keys(data: dict, allowed: set[str], path: str) -> None:
    extra = set(data) - allowed
    if extra:
        raise _err(path, f"unknown field(s): {', '.join(sorted(extra))}")


# ---------------------------------------------------------------------------
# sections

def _kind(data: dict, path: str) -> str:
    kind = _get(data, "kind", path)
    if not isinstance(kind, str):
        raise _err(f"{path}.kind", f"expected a string, got {kind!r}")
    return kind


def _parse_space(data, path: str) -> SpaceModel:
    data = _object(data, path)
    kind = _kind(data, path)
    _unknown_keys(data, {"kind", "dim", "modulus"}, path)
    modulus = None
    if "modulus" in data:
        modulus = _parse_descriptor(data["modulus"], f"{path}.modulus", ROLE_ETA)
    if kind == EUCLIDEAN:
        dim = _as_int(data.get("dim", 2), f"{path}.dim", minimum=1)
        return euclidean(dim, modulus)
    if kind == POINCARE_DISK:
        if "dim" in data and data["dim"] != 2:
            raise _err(f"{path}.dim", "the disk model is two-dimensional")
        return poincare_disk(modulus)
    raise _err(f"{path}.kind", f"unknown space kind {kind!r}")


def _parse_domain(data, path: str) -> DomainSpec:
    data = _object(data, path)
    kind = _kind(data, path)
    if kind == WHOLE_SPACE:
        _unknown_keys(data, {"kind"}, path)
        return DomainSpec(WHOLE_SPACE)
    if kind == CLOSED_BALL:
        _unknown_keys(data, {"kind", "center", "radius"}, path)
        center = _as_coords(_get(data, "center", path), f"{path}.center")
        radius = _as_number(_get(data, "radius", path), f"{path}.radius", positive=True)
        return DomainSpec(CLOSED_BALL, center, radius)
    raise _err(f"{path}.kind", f"unknown domain kind {kind!r}")


_MAPPING_FIELDS = {
    IDENTITY: set(),
    EUCLIDEAN_ROTATION: {"center", "angle"},
    EUCLIDEAN_REFLECTION_AVERAGE: {"center"},
    POINCARE_ROTATION: {"center", "angle"},
    METRIC_PROJECTION: {"center", "radius"},
}


def _parse_mapping(data, path: str) -> MappingSpec:
    data = _object(data, path)
    kind = _kind(data, path)
    if kind not in _MAPPING_FIELDS:
        raise _err(f"{path}.kind", f"unknown mapping kind {kind!r}")
    fields = _MAPPING_FIELDS[kind]
    _unknown_keys(data, fields | {"kind", "domain"}, path)
    center = angle = radius = None
    if "center" in fields:
        center = _as_coords(_get(data, "center", path), f"{path}.center")
    if "angle" in fields:
        angle = parse_angle(_get(data, "angle", path), f"{path}.angle")
    if "radius" in fields:
        radius = _as_number(_get(data, "radius", path), f"{path}.radius", positive=True)
    domain = DomainSpec(WHOLE_SPACE)
    if "domain" in data:
        domain = _parse_domain(data["domain"], f"{path}.domain")
    return MappingSpec(kind, center, angle, radius, domain)


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
        N0=_as_int(_get(data, "N0", path, required=False, default=0),
                   f"{path}.N0", minimum=0),
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
    space = _parse_space(_get(data, "space", "config"), "config.space")
    mapping = _parse_mapping(_get(data, "mapping", "config"), "config.mapping")
    _check_mapping(space, mapping)
    try:
        start = make_point(space, _as_coords(_get(data, "start", "config"),
                                             "config.start"))
    except GeometryError as exc:
        raise _err("config.start", str(exc)) from exc

    afp_data = _object(_get(data, "afp", "config"), "config.afp")
    _unknown_keys(afp_data, {"b", "fixed_point"}, "config.afp")
    b = _as_number(_get(afp_data, "b", "config.afp"), "config.afp.b", positive=True)
    if "fixed_point" in afp_data:
        try:
            fp = make_point(space, _as_coords(afp_data["fixed_point"],
                                              "config.afp.fixed_point"))
        except GeometryError as exc:
            raise _err("config.afp.fixed_point", str(exc)) from exc
    else:
        fp = declared_fixed_point(space, mapping)
        if fp is None:
            raise _err("config.afp.fixed_point",
                       f"required: mapping kind {mapping.kind!r} declares no fixed point")
    afp = ApproxFixedPointSpec(x=start, b=b, fixed_point=fp)

    schedule = _parse_schedule(_get(data, "schedule", "config"), "config.schedule")

    eps_raw = _get(data, "eps_grid", "config")
    if not isinstance(eps_raw, (list, tuple)) or not eps_raw:
        raise _err("config.eps_grid", "expected a nonempty array")
    eps_grid = tuple(_as_number(v, f"config.eps_grid[{i}]", positive=True)
                     for i, v in enumerate(eps_raw))

    seed = _as_int(_get(data, "seed", "config", required=False, default=0),
                   "config.seed", minimum=0)
    caps = Caps()
    if "caps" in data:
        caps_data = _object(data["caps"], "config.caps")
        _unknown_keys(caps_data, {"max_steps", "report_every"}, "config.caps")
        caps = Caps(
            max_steps=_as_int(caps_data.get("max_steps", HARD_STEP_CAP),
                              "config.caps.max_steps", minimum=1),
            report_every=_as_int(caps_data.get("report_every", 1),
                                 "config.caps.report_every", minimum=1),
        )

    config = ExperimentConfig(space, mapping, start, schedule, afp,
                              eps_grid, seed, caps)
    _check_start(config)
    return config


def _check_mapping(space: SpaceModel, mapping: MappingSpec) -> None:
    """Each center of the mapping is a point of space, and raw_apply_fn builds it."""
    for path, center in (("config.mapping.center", mapping.center),
                         ("config.mapping.domain.center", mapping.domain.center)):
        if center is not None:
            try:
                make_point(space, center)
            except GeometryError as exc:
                raise _err(path, str(exc)) from exc
    try:
        raw_apply_fn(space, mapping)
    except MappingError as exc:
        raise _err("config.mapping", str(exc)) from exc


def validate_config(config: ExperimentConfig) -> None:
    """Cross-component coherence beyond field-level parsing."""
    _check_mapping(config.space, config.mapping)
    _check_start(config)


def _check_start(config: ExperimentConfig) -> None:
    """The start point lies in the mapping's domain, and the afp holds."""
    try:
        if not in_domain(config.space, config.mapping, config.start):
            raise _err("config.start", "start point lies outside the mapping domain")
        validate_afp(config.space, config.mapping, config.afp)
    except (WitnessError, MappingError, GeometryError) as exc:
        raise _err("config.afp", str(exc)) from exc


# ---------------------------------------------------------------------------
# serialization

def config_to_dict(config: ExperimentConfig) -> dict:
    space: dict = {"kind": config.space.kind}
    if config.space.kind == EUCLIDEAN:
        space["dim"] = config.space.dim
    space["modulus"] = descriptor_to_dict(config.space.modulus)

    mapping: dict = {"kind": config.mapping.kind}
    if config.mapping.center is not None:
        mapping["center"] = list(config.mapping.center)
    if config.mapping.angle is not None:
        mapping["angle"] = config.mapping.angle
    if config.mapping.radius is not None:
        mapping["radius"] = config.mapping.radius
    if config.mapping.domain.kind != WHOLE_SPACE:
        mapping["domain"] = {
            "kind": config.mapping.domain.kind,
            "center": list(config.mapping.domain.center),
            "radius": config.mapping.domain.radius,
        }

    sched = config.schedule
    out = {
        "space": space,
        "mapping": mapping,
        "start": list(config.start.coords),
        "schedule": {
            "lambda": descriptor_to_dict(sched.lambda_seq),
            "s": descriptor_to_dict(sched.s_seq),
            "theta": descriptor_to_dict(sched.theta),
            "L": sched.L,
            "N0": sched.N0,
            "gamma": descriptor_to_dict(sched.gamma),
        },
        "afp": {"b": config.afp.b},
        "eps_grid": list(config.eps_grid),
        "seed": config.seed,
        "caps": {"max_steps": config.caps.max_steps,
                 "report_every": config.caps.report_every},
    }
    if config.afp.fixed_point is not None:
        out["afp"]["fixed_point"] = list(config.afp.fixed_point.coords)
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


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")
