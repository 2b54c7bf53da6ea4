import copy
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asymreg as ar
from asymreg.cli import main
from asymreg.config import _SECTIONS, _section, _write

from conftest import CONFIG_DIR, GOLDEN_NAMES


# ---------------------------------------------------------------------------
# golden files

ALL_NAMES = sorted(p.stem for p in CONFIG_DIR.glob("*.json"))


def test_config_dir_is_populated():
    assert set(GOLDEN_NAMES) <= set(ALL_NAMES)
    assert len(ALL_NAMES) >= 7


@pytest.mark.parametrize("name", ALL_NAMES)
def test_golden_configs_load_and_round_trip(name):
    path = CONFIG_DIR / f"{name}.json"
    cfg = ar.load_config(path)
    again = ar.config_from_dict(ar.config_to_dict(cfg))
    assert ar.config_to_dict(again) == ar.config_to_dict(cfg)
    # start point is valid and usable
    tx = ar.apply_map(cfg.space, cfg.mapping, cfg.start)
    assert math.isfinite(ar.dist(cfg.space, cfg.start, tx))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_config_to_dict_of_a_golden_config_is_its_file(name):
    path = CONFIG_DIR / f"{name}.json"
    assert ar.config_to_dict(ar.load_config(path)) == json.loads(path.read_text())


# ---------------------------------------------------------------------------
# the section table: every space, domain and mapping kind

SECTION_CASES = [
    ("space", ar.euclidean(3, ar.eta_hilbert())),
    ("space", ar.poincare_disk(ar.eta_constant("1/4"))),
    ("domain", ar.whole_space()),
    ("domain", ar.closed_ball((0.5, -1.0), 2.0)),
    ("mapping", ar.identity(ar.closed_ball((0.0, 0.0), 1.5))),
    ("mapping", ar.euclidean_rotation((1.0, 0.0, 2.0), 3 * math.pi / 4)),
    ("mapping", ar.euclidean_reflection_average((0.25, 0.5))),
    ("mapping", ar.poincare_rotation((0.1, -0.2), -1.0, ar.closed_ball((0.0, 0.0), 0.8))),
    ("mapping", ar.metric_projection((0.0, 0.0), 0.5)),
]


def test_the_section_round_trips_cover_every_row_of_the_table():
    assert ({(section, record.kind) for section, record in SECTION_CASES}
            == {(section, kind) for section, rows in _SECTIONS.items() for kind in rows})


@pytest.mark.parametrize("section,record", SECTION_CASES,
                         ids=[f"{s}-{r.kind}" for s, r in SECTION_CASES])
def test_a_written_section_reads_back_to_the_record_its_constructor_built(section, record):
    data = json.loads(json.dumps(_write(section, record)))
    assert _section(section, data, f"config.{section}") == record


# ---------------------------------------------------------------------------
# angle parsing

@pytest.mark.parametrize("text,value", [
    ("pi", math.pi),
    ("-pi", -math.pi),
    ("pi/2", math.pi / 2),
    ("-pi/2", -math.pi / 2),
    ("3pi/4", 3 * math.pi / 4),
    ("2pi", 2 * math.pi),
    (" pi / 2 ", math.pi / 2),
    (1.25, 1.25),
    (-2, -2.0),
])
def test_parse_angle(text, value):
    assert ar.parse_angle(text, "config.mapping.angle") == pytest.approx(value, abs=0.0)


@pytest.mark.parametrize("bad", ["", "tau", "pi/0", "pi/2.5", "2*pi", None, []])
def test_parse_angle_rejects_garbage(bad):
    with pytest.raises(ar.ConfigError, match="config.mapping.angle"):
        ar.parse_angle(bad, "config.mapping.angle")


# ---------------------------------------------------------------------------
# structural errors, all path-annotated

def base_dict():
    return {
        "space": {"kind": "Euclidean", "dim": 2},
        "mapping": {"kind": "EuclideanRotation", "center": [0.0, 0.0],
                    "angle": "pi"},
        "start": [1.0, 0.0],
        "schedule": {"lambda": {"kind": "Constant", "value": "1/2"},
                     "s": {"kind": "Constant", "value": "0"},
                     "theta": {"kind": "ThetaLinear", "a": "4", "b": "0"},
                     "L": 1,
                     "gamma": {"kind": "GammaZero"}},
        "afp": {"b": 1.0, "fixed_point": [0.0, 0.0]},
        "eps_grid": [0.5, 0.25],
        "seed": 0,
    }


def test_base_dict_is_valid():
    cfg = ar.config_from_dict(base_dict())
    assert cfg.caps.max_steps == ar.HARD_STEP_CAP
    assert cfg.caps.report_every == 1
    assert cfg.seed == 0


def test_loads_config_builds_the_mapping_closure_once(monkeypatch):
    calls = []
    real = ar.mappings.raw_apply_fn

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ar.config, "raw_apply_fn", counted)
    monkeypatch.setattr(ar.mappings, "raw_apply_fn", counted)
    ar.loads_config(json.dumps(base_dict()))
    assert len(calls) == 1


def mutate(**patches):
    d = base_dict()
    for key, value in patches.items():
        parts = key.split("__")
        node = d
        for p in parts[:-1]:
            node = node[p]
        if value is ...:
            del node[parts[-1]]
        else:
            node[parts[-1]] = value
    return d


DISK = {"kind": "PoincareDisk", "dim": 2}


@pytest.mark.parametrize("patch,fragment", [
    ({"schedule__L": ...}, "config.schedule.L"),
    ({"space__kind": "Banach"}, "config.space.kind"),
    ({"space__dim": 0}, "config.space.dim"),
    ({"mapping__kind": "Mystery"}, "config.mapping.kind"),
    ({"mapping__angle": "tau"}, "config.mapping.angle"),
    ({"start": [1.0]}, "config.start"),
    ({"eps_grid": []}, "config.eps_grid"),
    ({"eps_grid": [0.5, -0.1]}, "config.eps_grid"),
    ({"afp__b": 0.0}, "config.afp.b"),
    ({"afp": ...}, "config.afp"),
    ({"schedule__lambda__value": "2"}, "lambda"),
    ({"seed": "abc"}, "config.seed"),
    ({"caps": {"max_steps": 0}}, "config.caps.max_steps"),
    ({"mapping__frobnicate": 1}, "frobnicate"),
    # a mapping that does not fit the space, with and without afp.fixed_point
    ({"afp__fixed_point": ..., "mapping__center": [0.0, 0.0, 0.0]},
     "config.mapping.center: expected 2 coordinates"),
    ({"space": DISK, "start": [0.4, 0.0], "afp__fixed_point": ...,
      "mapping": {"kind": "PoincareRotation", "center": [1.5, 0.0], "angle": "pi"}},
     "config.mapping.center: point with"),
    ({"space__dim": 1, "start": [1.0], "afp__fixed_point": [0.0],
      "mapping__center": [0.0]}, "config.mapping: rotation needs"),
    ({"mapping__domain": {"kind": "ClosedBall", "center": [0.0, 0.0, 0.0], "radius": 5.0}},
     "config.mapping.domain.center: expected 2 coordinates"),
    ({"space": DISK, "start": [0.4, 0.0], "afp__fixed_point": [0.0, 0.0],
      "mapping": {"kind": "PoincareRotation", "center": [0.0, 0.0], "angle": "pi",
                  "domain": {"kind": "ClosedBall", "center": [1.5, 0.0], "radius": 1.0}}},
     "config.mapping.domain.center: point with"),
    # a start or a fixed point outside the domain ball
    ({"mapping__domain": {"kind": "ClosedBall", "center": [0.0, 0.0], "radius": 0.5}},
     "config.start: start point lies outside the mapping domain"),
    ({"mapping__domain": {"kind": "ClosedBall", "center": [1.0, 0.0], "radius": 0.5}},
     "config.afp: point outside the mapping's domain"),
    # an integer field takes an int only, never truncated or coerced
    ({"space__modulus": {"kind": "EtaQuadratic", "denominator": 2.7}},
     "config.space.modulus: EtaQuadratic: denominator must be an integer, got 2.7"),
    ({"space__modulus": {"kind": "EtaQuadratic", "denominator": True}},
     "config.space.modulus: EtaQuadratic: denominator must be an integer, got True"),
    ({"space__modulus": {"kind": "EtaQuadratic", "denominator": "3"}},
     "config.space.modulus: EtaQuadratic: denominator must be an integer, got '3'"),
    ({"schedule__lambda__value": True},
     "config.schedule.lambda: Constant: cannot interpret True as a rational"),
    ({"schedule__gamma": {"kind": "GammaShifted", "inner": {"kind": "GammaZero"},
                          "shift": 2.9}},
     "config.schedule.gamma: GammaShifted: shift must be an integer, got 2.9"),
    ({"schedule__theta": {"kind": "Tabulated", "points": [[0, 0], [1.2, 5]]}},
     "config.schedule.theta: Tabulated: table argument must be an integer, got 1.2"),
    # fields out of range, which failed with a TypeError on evaluation
    ({"space__modulus": {"kind": "EtaFromEta1", "inner": {
        "kind": "Eta2FromEta3", "inner": {"kind": "Eta3Affine", "a": -1, "b": 0}}}},
     "config.space.modulus: EtaFromEta1: Eta2FromEta3: Eta3Affine: a must be >= 0, got -1"),
    ({"space__modulus": {"kind": "EtaFromEta1", "inner": {
        "kind": "Tabulated", "points": [[0, 1], [1, -1]]}}},
     "config.space.modulus: EtaFromEta1: Tabulated: table value must be >= 0, got -1"),
    # a kind in the wrong role
    ({"space__modulus": {"kind": "Eta1Affine", "a": 2, "b": 3}},
     "config.space.modulus: modulus 'Eta1Affine' does not play the role 'eta'"),
    ({"schedule__gamma": {"kind": "GammaFromDyadic",
                          "inner": {"kind": "EtaQuadratic", "denominator": 8}}},
     "config.schedule.gamma: GammaFromDyadic: inner 'EtaQuadratic' does not play the "
     "role 'natural'"),
    ({"schedule__theta": {"kind": "GammaZero"}},
     "config.schedule.theta: kind 'GammaZero' does not play the role 'natural'"),
    # a constructor's error, at the path of the field it names
    ({"space__dim": 2.5}, "config.space.dim: dim must be an integer, got 2.5"),
    ({"mapping": {"kind": "MetricProjection", "center": [0.0, 0.0], "radius": -1.0}},
     "config.mapping.radius: radius must be positive and finite, got -1.0"),
    ({"mapping__domain": {"kind": "ClosedBall", "center": [0.0, 0.0], "radius": 0}},
     "config.mapping.domain.radius: radius must be positive and finite, got 0.0"),
    # the section reader's own checks
    ({"mapping__radius": 1.0}, r"config.mapping: unknown field\(s\): radius"),
    ({"mapping__center": ...}, "config.mapping.center: missing required field"),
    ({"space": {"kind": "PoincareDisk", "dim": 3}, "start": [0.4, 0.0]},
     "config.space.dim: the disk model is two-dimensional"),
])
def test_bad_config_errors_name_the_path(tmp_path, capsys, patch, fragment):
    data = mutate(**patch)
    with pytest.raises(ar.ConfigError, match=fragment):
        ar.config_from_dict(data)
    target = tmp_path / "bad.json"
    target.write_text(json.dumps(data))
    assert main(["rate", "--config", str(target), "--eps", "0.5"]) == 2
    assert re.search(fragment, capsys.readouterr().err)


@pytest.mark.parametrize("data,prefix", [
    (mutate(afp=5), "config.afp: expected an object"),
    (mutate(caps=[1]), "config.caps: expected an object"),
    (None, "config: expected an object"),
    ([1, 2], "config: expected an object"),
    (mutate(schedule=[1]), "config.schedule: expected an object"),
    (mutate(schedule="x"), "config.schedule: expected an object"),
    (mutate(mapping__kind=[1]), "config.mapping.kind: expected a string"),
    (mutate(schedule__theta__kind=[1]), "config.schedule.theta: "),
    (mutate(schedule__lambda__value="1/0"), "config.schedule.lambda: "),
    (mutate(schedule__theta__a="1/0"), "config.schedule.theta: "),
    (mutate(space__modulus={"kind": "EtaQuadratic", "denominator": None}),
     "config.space.modulus: "),
    (mutate(space__modulus={"kind": "EtaQuadratic", "denominator": "x"}),
     "config.space.modulus: "),
], ids=["afp-int", "caps-list", "null", "top-level-list", "schedule-list",
        "schedule-str", "mapping-kind-list", "theta-kind-list",
        "sequence-zero-denominator", "theta-zero-denominator",
        "modulus-denominator-null", "modulus-denominator-str"])
def test_wrongly_typed_fields_are_config_errors(tmp_path, capsys, data, prefix):
    text = json.dumps(data)
    with pytest.raises(ar.ConfigError, match=f"^{re.escape(prefix)}"):
        ar.loads_config(text)
    target = tmp_path / "typed.json"
    target.write_text(text)
    assert main(["rate", "--config", str(target), "--eps", "0.5"]) == 2
    assert prefix in capsys.readouterr().err


def test_disk_requires_dim_two():
    with pytest.raises(ar.ConfigError, match="config.space.dim"):
        ar.config_from_dict(mutate(space={"kind": "PoincareDisk", "dim": 3},
                                   mapping={"kind": "PoincareRotation",
                                            "center": [0.0, 0.0],
                                            "angle": "pi"},
                                   start=[0.5, 0.0]))


def test_cross_model_mapping_rejected():
    with pytest.raises(ar.ConfigError, match="mapping"):
        ar.config_from_dict(mutate(space={"kind": "PoincareDisk", "dim": 2},
                                   start=[0.4, 0.0]))


def test_start_outside_disk_rejected():
    with pytest.raises(ar.ConfigError, match="config.start"):
        ar.config_from_dict(mutate(space={"kind": "PoincareDisk", "dim": 2},
                                   mapping={"kind": "PoincareRotation",
                                            "center": [0.0, 0.0],
                                            "angle": "pi"},
                                   start=[1.5, 0.0]))


def test_start_outside_mapping_domain_rejected():
    d = mutate(mapping={"kind": "EuclideanRotation", "center": [0.0, 0.0],
                        "angle": "pi",
                        "domain": {"kind": "ClosedBall", "center": [0.0, 0.0],
                                   "radius": 0.5}})
    with pytest.raises(ar.ConfigError, match="config.start"):
        ar.config_from_dict(d)


def test_identity_requires_explicit_fixed_point():
    d = mutate(mapping={"kind": "Identity"}, afp={"b": 1.0})
    with pytest.raises(ar.ConfigError, match="fixed point"):
        ar.config_from_dict(d)
    d = mutate(mapping={"kind": "Identity"},
               afp={"b": 1.0, "fixed_point": [1.0, 0.0]})
    cfg = ar.config_from_dict(d)
    assert cfg.afp.fixed_point.coords == (1.0, 0.0)


def test_fixed_point_defaults_to_mapping_declaration():
    d = mutate(afp={"b": 1.0})
    cfg = ar.config_from_dict(d)
    assert cfg.afp.fixed_point.coords == (0.0, 0.0)


def test_fixed_point_farther_than_b_rejected():
    d = mutate(afp={"b": 0.5, "fixed_point": [0.0, 0.0]})
    with pytest.raises(ar.ConfigError, match="beyond b"):
        ar.config_from_dict(d)


def test_modulus_field_accepts_descriptor():
    d = mutate(space={"kind": "Euclidean", "dim": 2,
                      "modulus": {"kind": "EtaHilbert"}})
    cfg = ar.config_from_dict(d)
    assert cfg.space.modulus.kind == "EtaHilbert"


def test_loads_config_rejects_bad_json():
    with pytest.raises(ar.ConfigError, match="JSON"):
        ar.loads_config("{not json")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ar.ConfigError, match="cannot read config"):
        ar.load_config(tmp_path / "nope.json")


def test_top_level_unknown_key_rejected():
    d = base_dict()
    d["extra"] = 1
    with pytest.raises(ar.ConfigError, match="extra"):
        ar.config_from_dict(d)


# ---------------------------------------------------------------------------
# any JSON value in place of any field of a golden config

GOLDEN_DOCS = {name: json.loads((CONFIG_DIR / f"{name}.json").read_text())
               for name in ALL_NAMES}


def _without_fixed_point(doc):
    doc = copy.deepcopy(doc)
    del doc["afp"]["fixed_point"]
    return doc


# Without afp.fixed_point the loader takes the fixed point the mapping
# declares, so the fuzzer also starts from each golden config without it.
GOLDEN_DOCS |= {f"{name}-declared": _without_fixed_point(GOLDEN_DOCS[name])
                for name in ALL_NAMES}


def _field_paths(value, path=()):
    """The root and every object member and array entry below it."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _field_paths(child, path + (key,))


FIELDS = [(name, path) for name, doc in GOLDEN_DOCS.items()
          for path in _field_paths(doc)]

# Python's json module reads and writes NaN and Infinity, so they are JSON
# values to the config loader.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=8)

CONFIG_ERROR = re.compile(r"config(\.\w+|\[\d+\])*: ")


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150)
@given(st.sampled_from(FIELDS), JSON_VALUES)
def test_any_json_value_in_any_field_loads_or_names_its_path(fuzz_dir, field, value):
    _loads_or_names_its_path(fuzz_dir, field, value)


# N0 and L up to 10^30: a schedule check that builds s_N0 = c q^N0 exactly,
# or anything of size N0, does not return
SCHEDULE_INTS = [(name, ("schedule", key)) for name in ALL_NAMES for key in ("N0", "L")]


@settings(max_examples=80)
@given(st.sampled_from(SCHEDULE_INTS), st.integers(min_value=-2, max_value=10**30))
def test_huge_N0_and_L_load_or_name_their_path(fuzz_dir, field, value):
    _loads_or_names_its_path(fuzz_dir, field, value)


def _loads_or_names_its_path(fuzz_dir, field, value):
    name, path = field
    doc = _replaced(GOLDEN_DOCS[name], path, value)
    try:
        ar.config_from_dict(doc)
        want = {0, 1}
    except ar.ConfigError as exc:
        assert CONFIG_ERROR.match(str(exc)), str(exc)
        want = {2}
    config = fuzz_dir / "config.json"
    config.write_text(json.dumps(doc))
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes = {main(["rate", "--config", str(config), "--eps", "0.5", "--k", "3"]),
                 main(["run", "--config", str(config), "--steps", "20",
                       "--out", str(fuzz_dir / "out")])}
    assert codes <= want
