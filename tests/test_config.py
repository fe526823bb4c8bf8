import sys

import pytest
from hypothesis import given, settings, strategies as st

from amprob import (ConfigError, SampleSpace, SlitGeometry, UsageError,
                    amplitude_from_frequency, arrival_probability,
                    classical_space, event_probability, outcome_probability,
                    record_trials)
from amprob.config import (EXPERIMENTS, ExperimentConfig, _parse_value,
                           parse_config, render_config)
from test_acceptance import INVALID_CONFIGS, VALID_CONFIGS

COIN = """\
experiment = coin
weights = 1, 1
labels = h, t
"""

NSLIT = """\
# symmetric double slit
experiment = nslit
wavelength_nm = 500
source_x = -1.0
screen_plane_x = 1.0
slit_offsets_um = -5, 5
y_min = -0.1
y_max = 0.1
n_points = 2001
output = out/nslit
"""


# more decimal digits than an int's repr may have
HUGE_INT = 10 ** 5000
SLIT_PARAMS = {key: value for key, value in parse_config(NSLIT).params.items()
               if key != "open_slits"}


@pytest.mark.parametrize("build, key", [
    (lambda: ExperimentConfig("coin", {"weights": [HUGE_INT, 1],
                                       "labels": ["a", "b"]}), "weights"),
    (lambda: ExperimentConfig("freq", {"weights": [1, 1], "labels": ["a", "b"],
                                       "schedule": [HUGE_INT], "seed": 0}),
     "schedule"),
    (lambda: ExperimentConfig("nslit", {**SLIT_PARAMS,
                                        "open_slits": [HUGE_INT]}),
     "open_slits"),
    (lambda: ExperimentConfig("sorkin", {**SLIT_PARAMS,
                                         "triple": [0, 1, HUGE_INT]}),
     "triple"),
    (lambda: record_trials(classical_space([1, 1], ["a", "b"]), HUGE_INT, 0),
     "n"),
    (lambda: arrival_probability(ExperimentConfig("nslit", SLIT_PARAMS)
                                 .subject, 0.0, [HUGE_INT]), "open_slits"),
    (lambda: ExperimentConfig(HUGE_INT, {}), "experiment"),
    (lambda: ExperimentConfig("coin", [HUGE_INT]), "params"),
    (lambda: ExperimentConfig("coin", {"weights": [1], "labels": ["a"]},
                              output=HUGE_INT), "output"),
    (lambda: outcome_probability(classical_space([1, 1], ["a", "b"]),
                                 HUGE_INT), None),
    (lambda: event_probability(classical_space([1, 1], ["a", "b"]),
                               ["a", HUGE_INT]), None),
    (lambda: amplitude_from_frequency(
        record_trials(classical_space([1, 1], ["a", "b"]), 10, 0), HUGE_INT),
     None),
], ids=["weights", "schedule", "open_slits", "triple", "record_trials",
        "arrival_probability", "experiment", "params", "output",
        "outcome_probability", "event_probability",
        "amplitude_from_frequency"])
def test_an_int_too_long_to_print_is_named_by_its_key(build, key):
    with pytest.raises(UsageError, match="<int of 16610 bits>") as exc:
        build()
    assert exc.value.key == key


def test_minimal_coin():
    cfg = parse_config(COIN)
    assert cfg.experiment == "coin"
    assert cfg.params["weights"] == [1.0, 1.0]
    assert cfg.params["labels"] == ["h", "t"]
    assert cfg.format == "json"


def test_unit_suffixes():
    cfg = parse_config(NSLIT)
    assert cfg.params["wavelength"] == pytest.approx(500e-9, rel=1e-12)
    assert cfg.params["slit_offsets"] == \
        pytest.approx([-5e-6, 5e-6], rel=1e-12)
    assert cfg.params["source_y"] == 0.0  # default
    assert cfg.output == "out/nslit"


def test_comments_and_blank_lines():
    cfg = parse_config("\n# leading comment\nexperiment = coin  # trailing\n"
                       "\nweights = 2,1\nlabels = a, b\n")
    assert cfg.params["weights"] == [2.0, 1.0]


def test_missing_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("weights = 1, 1\n")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 4"):
        parse_config(COIN + "bogus = 3\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="labels"):
        parse_config("experiment = coin\nweights = 1, 1\n")


def test_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(COIN + "weights = 2, 2\n")


def test_type_mismatch_reports_key_and_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("experiment = coin\nweights = 1, spam\nlabels = a, b\n")
    assert exc.value.key == "weights"
    assert exc.value.line == 2


def per_item_list(kind, raw, key, line):
    """A list value parsed item by item, as `parse_config` did before it
    read whole lists: the reference, with the error it raised."""
    read = {"float": float, "int": lambda t: int(t, 10), "str": str}[kind]
    items = []
    for part in raw.split(","):
        try:
            items.append(read(part.strip()))
        except ValueError:
            return (f"line {line}: key '{key}': expected {kind}, got "
                    f"{part.strip()!r}")
    return items


def whole_list(kind, raw, key, line):
    try:
        return _parse_value(f"{kind}_list", raw, key, line)
    except ConfigError as exc:
        assert (exc.key, exc.line) == (key, line)
        return str(exc)


@pytest.mark.parametrize("kind, raw", [
    ("float", "1,\t2.5\t, 3"),
    ("float", "\u00a01.5 ,\u20032\u00a0"),
    ("float", "1_000, 2_5.0_1, 1__0"),
    ("float", "nan, -nan, inf, -0.0"),
    ("int", "\t1_000 , 7\u00a0, 1e3"),
    ("str", "\ta ,\u00a0b , c d,"),
], ids=["tab", "nbsp", "underscore", "nan", "int", "str"])
def test_a_list_reads_as_it_does_item_by_item(kind, raw):
    assert repr(whole_list(kind, raw, "k", 4)) == \
        repr(per_item_list(kind, raw, "k", 4))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["float", "int", "str"]),
       st.text("0123456789.,_-+e nainfx\t\u00a0\u2003\u0660", min_size=1))
def test_list_parse_equals_the_per_item_parse(kind, raw):
    assert repr(whole_list(kind, raw, "k", 9)) == \
        repr(per_item_list(kind, raw, "k", 9))


@pytest.mark.parametrize("key, bad, kind", [
    ("weights", " 2..5 ", "float"), ("schedule", "1e3", "int")])
def test_a_bad_item_mid_list_names_its_key_and_line(key, bad, kind):
    n = 10 ** 4
    items = {"weights": ["1.5"] * n, "labels": [f"o{i}" for i in range(n)],
             "schedule": [str(i) for i in range(1, n + 1)]}
    items[key][n // 2] = bad
    text = "experiment = freq\nseed = 1\n" + "".join(
        f"{k} = {', '.join(v)}\n" for k, v in items.items())
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    line = 3 + list(items).index(key)
    assert str(exc.value) == (f"line {line}: key '{key}': expected {kind}, "
                              f"got {bad.strip()!r}")
    assert (exc.value.key, exc.value.line) == (key, line)


def test_negative_wavelength_names_key():
    bad = NSLIT.replace("wavelength_nm = 500", "wavelength = -1")
    with pytest.raises(ConfigError) as exc:
        parse_config(bad)
    assert exc.value.key == "wavelength"


def test_duplicate_slit_offsets_rejected():
    bad = NSLIT.replace("slit_offsets_um = -5, 5", "slit_offsets_um = 5, 5")
    with pytest.raises(ConfigError, match="increasing"):
        parse_config(bad)


def test_open_slits_range_checked():
    with pytest.raises(ConfigError, match="open_slits"):
        parse_config(NSLIT + "open_slits = 0, 7\n")


def test_sorkin_needs_three_slits():
    text = NSLIT.replace("experiment = nslit", "experiment = sorkin")
    with pytest.raises(ConfigError):
        parse_config(text)


def test_freq_schedule_monotone():
    with pytest.raises(ConfigError, match="schedule"):
        parse_config("experiment = freq\nweights = 1,1\nlabels = h,t\n"
                     "schedule = 100, 50\nseed = 1\n")


def test_coin_rejects_csv_format():
    with pytest.raises(ConfigError, match="format"):
        parse_config(COIN + "format = csv\n")


@pytest.mark.parametrize("text", [
    COIN,
    NSLIT,
    NSLIT + "open_slits = 0, 1\n",
    """\
experiment = sorkin
wavelength_nm = 600
source_x = -0.5
screen_plane_x = 1.3
slit_offsets_um = -10, 0, 10
y_min = -0.05
y_max = 0.05
n_points = 101
triple = 0, 1, 2
""",
    """\
experiment = delayed
wavelength_nm = 500
source_x = -1.0
screen_plane_x = 1.0
slit_offsets_um = -5, 5
detector_y_um = -5, 5
""",
    """\
experiment = freq
weights = 1, 1
labels = h, t
schedule = 100, 10000
seed = 42
output = freq_run
""",
])
def test_render_round_trip(text):
    cfg = parse_config(text)
    assert parse_config(render_config(cfg)) == cfg


# The key each of acceptance criterion 11's invalid configs is rejected by.
INVALID_KEYS = ["experiment", "experiment", "labels", "weights", "labels",
                "weights", "wavelength", "slit_offsets", "y_min",
                "open_slits", "triple", "detector_y", "schedule", "bogus"]


@pytest.mark.parametrize("case", range(len(INVALID_KEYS)))
def test_invalid_configs_name_their_key(case):
    assert len(INVALID_KEYS) == len(INVALID_CONFIGS)
    key = INVALID_KEYS[case]
    with pytest.raises(ConfigError) as exc:
        parse_config(INVALID_CONFIGS[case])
    assert exc.value.key == key
    assert f"key '{key}'" in str(exc.value)


def test_config_is_checked_on_construction():
    good = parse_config(NSLIT)
    assert isinstance(good.subject, SlitGeometry)
    assert good.subject.wavelength == good.params["wavelength"]
    assert isinstance(parse_config(COIN).subject, SampleSpace)
    params = dict(good.params, y_min=1.0)
    with pytest.raises(UsageError) as exc:
        ExperimentConfig("nslit", params)
    assert exc.value.key == "y_min"
    with pytest.raises(UsageError) as exc:
        ExperimentConfig("coin", parse_config(COIN).params, format="csv")
    assert exc.value.key == "format"


@pytest.mark.parametrize("old, new, key, line, message", [
    ("wavelength_nm = 500", "wavelength = nan", "wavelength", 3,
     "expected float"),
    ("wavelength_nm = 500", "wavelength = 1e400", "wavelength", 3,
     "expected float"),
    ("n_points = 2001", "n_points_mm = 5", "n_points_mm", 9,
     "unit suffix only valid on length keys"),
    ("output = out/nslit", "output = out/nslit\nwavelength = 5e-07",
     "wavelength", 11, "key set more than once"),
], ids=["nan", "overflow", "suffix_on_int", "suffix_alias"])
def test_parse_rejections_name_key_and_line(old, new, key, line, message):
    with pytest.raises(ConfigError, match=message) as exc:
        parse_config(NSLIT.replace(old, new))
    assert (exc.value.key, exc.value.line) == (key, line)


_GEOMETRY = {"wavelength": 5e-07, "source_x": -1.0, "screen_plane_x": 1.0,
             "slit_offsets": [-1e-05, 0.0, 1e-05]}
# Each experiment's required keys only, as a direct caller may give them.
REQUIRED_PARAMS = {
    "coin": {"weights": [1.0, 3.0], "labels": ["h", "t"]},
    "nslit": {**_GEOMETRY, "y_min": -0.05, "y_max": 0.05, "n_points": 101},
    "sorkin": {**_GEOMETRY, "y_min": -0.05, "y_max": 0.05, "n_points": 101},
    "delayed": _GEOMETRY,
    "freq": {"weights": [1.0, 3.0], "labels": ["h", "t"],
             "schedule": [10, 100], "seed": 3},
}
DEFAULTS = {"source_y": 0.0, "slit_plane_x": 0.0, "open_slits": [0, 1, 2],
            "triple": [0, 1, 2], "detector_y": _GEOMETRY["slit_offsets"],
            "phase": 0.0}


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_config_fills_every_key_parsed_or_built(experiment):
    params = REQUIRED_PARAMS[experiment]
    text = f"experiment = {experiment}\n" + "".join(
        f"{key} = {', '.join(map(str, v)) if isinstance(v, list) else v}\n"
        for key, v in params.items())
    built = ExperimentConfig(experiment, params)
    assert params == REQUIRED_PARAMS[experiment]  # the caller's copy
    for cfg in (built, parse_config(text)):
        assert cfg == built
        assert set(cfg.params) == set(EXPERIMENTS[experiment][0])
        assert cfg.params == {**params, **{key: DEFAULTS[key] for key in
                                           cfg.params if key not in params}}
        assert parse_config(render_config(cfg)) == cfg


def test_direct_config_names_a_missing_key():
    with pytest.raises(UsageError) as exc:
        ExperimentConfig("coin", {})
    assert exc.value.key == "weights"
    params = dict(REQUIRED_PARAMS["nslit"])
    del params["y_min"]
    with pytest.raises(UsageError, match="missing required key") as exc:
        ExperimentConfig("nslit", params)
    assert exc.value.key == "y_min"


@pytest.mark.parametrize("experiment, key, value", [
    ("freq", "seed", 1.5),
    ("freq", "seed", True),
    ("freq", "schedule", (10, 100)),
    ("freq", "labels", ["h", 2]),
    ("freq", "phase", float("nan")),
    ("coin", "weights", [1.0, float("inf")]),
    ("nslit", "n_points", "101"),
    ("nslit", "y_max", None),
    ("sorkin", "triple", [0, 1, 2.0]),
    ("delayed", "detector_y", 0.0),
    ("coin", "weights", [1.0, float("nan")]),
    ("coin", "weights", [1, int(sys.float_info.max) + 1]),
])
def test_direct_config_names_a_value_of_the_wrong_kind(experiment, key,
                                                        value):
    params = {**REQUIRED_PARAMS[experiment], key: value}
    with pytest.raises(UsageError, match="expected") as exc:
        ExperimentConfig(experiment, params)
    assert exc.value.key == key


def test_direct_config_takes_an_int_for_a_float():
    params = {**REQUIRED_PARAMS["nslit"], "y_min": -1, "y_max": 1,
              "slit_offsets": [-1e-5, 0, 1e-5]}
    cfg = ExperimentConfig("nslit", params)
    assert parse_config(render_config(cfg)) == cfg


@pytest.mark.parametrize("kwargs", [{"output": 5}, {"format": ["json"]}])
def test_direct_config_names_a_bad_output_or_format(kwargs):
    with pytest.raises(UsageError) as exc:
        ExperimentConfig("coin", REQUIRED_PARAMS["coin"], **kwargs)
    assert exc.value.key == next(iter(kwargs))


def test_direct_config_names_an_unknown_experiment():
    with pytest.raises(UsageError, match="unknown experiment 'bogus'") as exc:
        ExperimentConfig("bogus", {})
    assert exc.value.key == "experiment"


@pytest.mark.parametrize("name", [["coin"], {"coin"}, {"coin": 1}, None, 1],
                         ids=["list", "set", "dict", "None", "int"])
def test_direct_config_names_an_experiment_that_is_no_str(name):
    with pytest.raises(UsageError, match="unknown experiment") as exc:
        ExperimentConfig(name, {})
    assert exc.value.key == "experiment"


@pytest.mark.parametrize("params", [None, [1, 2], 5, [("a", 1, 2)]],
                         ids=["None", "int_list", "int", "triple"])
def test_direct_config_rejects_params_that_are_no_mapping(params):
    with pytest.raises(UsageError, match="params must map keys") as exc:
        ExperimentConfig("coin", params)
    assert exc.value.key == "params"


@st.composite
def mutated_configs(draw):
    """A valid config with one line replaced, dropped, repeated or
    re-keyed."""
    lines = draw(st.sampled_from(VALID_CONFIGS)).splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    key, value = lines[i].split("=", 1)
    how = draw(st.sampled_from(["value", "drop", "repeat", "key"]))
    if how == "value":
        value = draw(st.one_of(
            st.text(max_size=12), st.integers().map(str),
            st.floats().map(repr),
            st.lists(st.integers(-2, 4), max_size=4).map(
                lambda xs: ", ".join(map(str, xs)))))
        lines[i] = f"{key}= {value}"
    elif how == "drop":
        del lines[i]
    elif how == "repeat":
        lines.insert(i, lines[i])
    else:
        lines[i] = f"{draw(st.text(max_size=12))} ={value}"
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), mutated_configs()))
def test_parse_fails_only_with_config_error_and_round_trips(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert parse_config(render_config(cfg)) == cfg


def _format(value):
    return ", ".join(map(str, value)) if isinstance(value, list) else value


def config_text(experiment, params):
    """PARAMS as config lines, in their order after the experiment's."""
    return f"experiment = {experiment}\n" + "".join(
        f"{key} = {_format(v)}\n" for key, v in params.items())


def test_direct_config_rejects_a_misspelt_key():
    with pytest.raises(UsageError, match="unknown key for experiment 'coin'"
                       ) as exc:
        ExperimentConfig("coin", {"weights": [1.0, 2.0], "labels": ["a", "b"],
                                  "wieghts": [3.0]})
    assert exc.value.key == "wieghts"


# For each experiment, a key of another experiment's registry.
FOREIGN_KEYS = {"coin": "seed", "nslit": "triple", "sorkin": "open_slits",
                "delayed": "y_min", "freq": "wavelength"}


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
@pytest.mark.parametrize("foreign", [False, True], ids=["bogus", "foreign"])
def test_an_unknown_key_is_named_parsed_or_built(experiment, foreign):
    key = FOREIGN_KEYS[experiment] if foreign else "bogus"
    params = {**REQUIRED_PARAMS[experiment], key: [3]}
    message = f"unknown key for experiment '{experiment}'"
    with pytest.raises(UsageError, match=message) as exc:
        ExperimentConfig(experiment, params)
    assert exc.value.key == key
    with pytest.raises(ConfigError, match=message) as exc:
        parse_config(config_text(experiment, params))
    assert (exc.value.key, exc.value.line) == (key, len(params) + 1)


def test_an_unknown_suffixed_length_key_is_named_with_its_suffix():
    with pytest.raises(ConfigError, match="unknown key") as exc:
        parse_config(COIN + "y_min_mm = 1\n")
    assert (exc.value.key, exc.value.line) == ("y_min_mm", 4)


@pytest.mark.parametrize("text, key, line", [
    # a fault the parser sees comes first, whatever its line
    ("experiment = coin\nbogus = 3\nweights = 1, spam\nlabels = a, b\n",
     "weights", 3),
    ("experiment = coin\nbogus = 3\nweights_mm = 1, 3\nlabels = a, b\n",
     "weights_mm", 3),
    # then the first unknown key, before a missing key or a bad value
    (COIN + "bogus = 3\nphase = x\n", "bogus", 4),
    ("experiment = coin\nbogus = 3\n", "bogus", 2),
    ("experiment = coin\nweights = 0, 0\nlabels = a, b\nbogus = 3\n",
     "bogus", 4),
    # an unknown experiment before everything but the parse faults
    ("experiment = warp\nbogus = 3\n", "experiment", 1),
    ("experiment = warp\nweights_mm = 3\n", "weights_mm", 2),
], ids=["bad_float_first", "suffix_first", "first_unknown", "before_missing",
        "before_bad_value", "unknown_experiment", "suffix_before_experiment"])
def test_which_fault_a_config_names_first(text, key, line):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert (exc.value.key, exc.value.line) == (key, line)


# The keys in meters: the geometry block, the screen range and detectors.
LENGTH_KEYS = {"wavelength", "source_x", "source_y", "slit_plane_x",
               "screen_plane_x", "slit_offsets", "y_min", "y_max",
               "detector_y"}
SCALES = {"_nm": 1e-9, "_um": 1e-6, "_mm": 1e-3}


@pytest.mark.parametrize("experiment, key, suffix", [
    (experiment, key, suffix) for experiment in EXPERIMENTS
    for key in EXPERIMENTS[experiment][0] for suffix in SCALES])
def test_a_unit_suffix_is_taken_by_length_keys_only(experiment, key,
                                                    suffix):
    cfg = ExperimentConfig(experiment, REQUIRED_PARAMS[experiment])
    value = cfg.params[key]
    values = value if isinstance(value, list) else [value]
    scale = SCALES[suffix]
    # in the unit of the suffix, so the suffixed config is the same run
    raw = ", ".join(repr(v / scale) if type(v) is float else str(v)
                    for v in values)
    lines = render_config(cfg).splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.startswith(f"{key} ="))
    lines[i] = f"{key}{suffix} = {raw}"
    text = "\n".join(lines) + "\n"
    if key not in LENGTH_KEYS:
        with pytest.raises(ConfigError, match="unit suffix only valid on "
                           "length keys") as exc:
            parse_config(text)
        assert (exc.value.key, exc.value.line) == (key + suffix, i + 1)
        return
    got = parse_config(text).params[key]
    assert (got if isinstance(got, list) else [got]) == \
        [float(part) * scale for part in raw.split(",")]


# Each experiment's keys of a float kind, scalar and list.
FLOAT_KEYS = [(experiment, key) for experiment in EXPERIMENTS
              for key, (kind, _, _) in EXPERIMENTS[experiment][0].items()
              if kind in ("float", "float_list")]


@pytest.mark.parametrize("experiment, key", FLOAT_KEYS)
def test_10_to_the_400_is_no_float_parsed_or_built(experiment, key):
    cfg = ExperimentConfig(experiment, REQUIRED_PARAMS[experiment])
    value = cfg.params[key]
    big = [10 ** 400, *value[1:]] if isinstance(value, list) else 10 ** 400
    with pytest.raises(UsageError, match="expected float") as exc:
        ExperimentConfig(experiment, {**cfg.params, key: big})
    assert exc.value.key == key
    lines = render_config(cfg).splitlines()
    i = next(i for i, line in enumerate(lines)
             if line.startswith(f"{key} ="))
    lines[i] = f"{key} = {_format(big)}"
    with pytest.raises(ConfigError, match="expected float") as exc:
        parse_config("\n".join(lines) + "\n")
    assert (exc.value.key, exc.value.line) == (key, i + 1)


def test_an_int_for_a_float_must_be_one_float64_holds():
    params = dict(REQUIRED_PARAMS["coin"])
    cfg = ExperimentConfig("coin", {**params, "weights": [2 ** 53, 1]})
    assert parse_config(render_config(cfg)) == cfg
    with pytest.raises(UsageError, match="expected float_list") as exc:
        ExperimentConfig("coin", {**params, "weights": [2 ** 53 + 1, 1]})
    assert exc.value.key == "weights"


@pytest.mark.parametrize("labels", [["a,b", "c"], [" a", "b"], ["a", "b "],
                                    ["a#b", "c"], ["a\nb", "c"],
                                    ["a\x85b", "c"]])
def test_direct_labels_must_read_back_from_a_config_line(labels):
    with pytest.raises(UsageError, match="expected str_list") as exc:
        ExperimentConfig("coin", {"weights": [1.0, 2.0], "labels": labels})
    assert exc.value.key == "labels"


@pytest.mark.parametrize("output", ["a#b", " a", "a\n", "a\nb", "a\u2028b"])
def test_a_direct_output_must_read_back_from_a_config_line(output):
    with pytest.raises(UsageError, match="config line") as exc:
        ExperimentConfig("coin", REQUIRED_PARAMS["coin"], output=output)
    assert exc.value.key == "output"


SCALARS = st.one_of(st.floats(), st.integers(), st.text(max_size=6),
                    st.booleans())
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4))


@st.composite
def built_configs(draw):
    """An experiment, a valid config's resolved params with one value
    replaced, one key dropped or one key added, and an output base."""
    experiment = draw(st.sampled_from(list(REQUIRED_PARAMS)))
    params = dict(ExperimentConfig(experiment,
                                   REQUIRED_PARAMS[experiment]).params)
    key = draw(st.sampled_from(sorted(params)))
    how = draw(st.sampled_from(["value", "drop", "add"]))
    if how == "value":
        params[key] = draw(VALUES)
    elif how == "drop":
        del params[key]
    else:
        params[draw(st.text(max_size=12))] = draw(VALUES)
    return experiment, params, draw(st.none() | st.text(max_size=8))


@settings(max_examples=500, deadline=None)
@given(built_configs())
def test_built_configs_fail_only_with_usage_error_and_round_trip(case):
    experiment, params, output = case
    try:
        cfg = ExperimentConfig(experiment, params, output=output)
    except UsageError:
        return
    assert parse_config(render_config(cfg)) == cfg
