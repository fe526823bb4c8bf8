import csv
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from amprob import amplitude, cli, config, events, frequency, slits
from amprob.cli import main
from amprob.errors import ConfigError

GEOMETRY = """\
wavelength_nm = 500
source_x = -1.0
screen_plane_x = 1.0
slit_offsets_um = -5, 5
"""

COIN = "experiment = coin\nweights = 1, 1\nlabels = h, t\n"
NSLIT = ("experiment = nslit\n" + GEOMETRY
         + "y_min = -0.1\ny_max = 0.1\nn_points = 2001\n")
SORKIN = ("experiment = sorkin\nwavelength_nm = 500\nsource_x = -1.0\n"
          "screen_plane_x = 1.0\nslit_offsets_um = -10, 0, 10\n"
          "y_min = -0.02\ny_max = 0.02\nn_points = 201\n")
DELAYED = "experiment = delayed\n" + GEOMETRY
FREQ = ("experiment = freq\nweights = 1, 1\nlabels = h, t\n"
        "schedule = 100, 10000, 1000000\nseed = 0\n")


def run_cli(tmp_path, text, name="cfg", extra=()):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    out = tmp_path / name
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--no-timestamp", *extra])
    return code, out


def test_coin_run(tmp_path):
    code, out = run_cli(tmp_path, COIN)
    assert code == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["p_correct"] == 0.5
    assert summary["probabilities"]["h"] == 0.5
    assert summary["joint_table"]["h*t"] == 0.25
    assert not out.with_suffix(".csv").exists()


def test_nslit_run(tmp_path):
    code, out = run_cli(tmp_path, NSLIT)
    assert code == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    # exact-path spacing: lambda L / d plus the 0.125% screen-projection
    # correction at this geometry
    assert summary["fringe_spacing_estimate_m"] == \
        pytest.approx(0.0500626, rel=1e-4)
    lines = out.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == "y_m,probability"
    assert len(lines) == 2002
    y, p = lines[1].split(",")
    assert float(y) == -0.1 and float(p) >= 0.0


def test_csv_floats_round_trip(tmp_path):
    code, out = run_cli(tmp_path, NSLIT)
    lines = out.with_suffix(".csv").read_text().splitlines()[1:]
    for line in lines[:50]:
        y, p = line.split(",")
        assert repr(float(y)) == y
        assert repr(float(p)) == p


def test_sorkin_run(tmp_path):
    code, out = run_cli(tmp_path, SORKIN)
    assert code == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["max_abs_I3"] <= 1e-10 * summary["peak_scale"]
    header = out.with_suffix(".csv").read_text().splitlines()[0]
    assert header == "y_m,I3,peak_scale"


def test_delayed_run(tmp_path):
    code, out = run_cli(tmp_path, DELAYED)
    assert code == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["interference_part"] == 0.0
    assert summary["per_detector_probability"] == \
        pytest.approx([0.5, 0.5], abs=1e-12)
    assert summary["total"] == pytest.approx(1.0, abs=1e-12)


def test_freq_run(tmp_path):
    code, out = run_cli(tmp_path, FREQ)
    assert code == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["generator"] == "numpy.random.PCG64"
    assert summary["seed"] == 0
    assert summary["max_errors"][-1] <= 0.002
    lines = out.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == "N,outcome,estimate,abs_error"
    assert len(lines) == 1 + 3 * 2


@pytest.mark.parametrize("text", [COIN, NSLIT, SORKIN, DELAYED, FREQ])
def test_byte_identical_reruns(tmp_path, text):
    _, out_a = run_cli(tmp_path, text, name="a")
    _, out_b = run_cli(tmp_path, text, name="b")
    for suffix in (".json", ".csv"):
        pa, pb = out_a.with_suffix(suffix), out_b.with_suffix(suffix)
        assert pa.exists() == pb.exists()
        if pa.exists():
            assert pa.read_bytes() == pb.read_bytes()


def test_timestamp_present_by_default(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(COIN)
    out = tmp_path / "c"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    assert "generated_at" in summary


def test_validate_ok(tmp_path):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text(COIN)
    assert main(["validate", "--config", str(cfg)]) == 0


def test_validate_bad_exit_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(NSLIT.replace("wavelength_nm = 500", "wavelength = -1"))
    assert main(["validate", "--config", str(cfg)]) == 2


def test_run_without_output_exit_2(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(COIN)
    assert main(["run", "--config", str(cfg)]) == 2


def test_missing_config_file_exit_3(tmp_path):
    assert main(["validate", "--config", str(tmp_path / "nope.cfg")]) == 3


def test_unwritable_output_exit_3(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(COIN)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    out = blocker / "sub" / "result"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3


def test_unresolvable_phase_exit_2(tmp_path, capsys):
    # an excess path of ~1e10 m is 2e16 wavelengths at 500 nm, beyond the
    # 2**52 at which float64 keeps no fraction of a cycle
    text = NSLIT.replace("y_max = 0.1", "y_max = 1e10")
    code, out = run_cli(tmp_path, text)
    assert code == 2
    assert "2**52 wavelengths" in capsys.readouterr().err
    assert not out.with_suffix(".json").exists()


def validate(tmp_path, data, name="v"):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_bytes(data if isinstance(data, bytes) else data.encode())
    return main(["validate", "--config", str(cfg)])


@pytest.mark.parametrize("text, key", [
    ("experiment = coin\nweights = 1e308, 1e308\nlabels = h, t\n",
     "weights"),
    ("experiment = coin\nweights = 1, 1, 1\nlabels = a, a*b, b*a\n",
     "labels"),
    (FREQ.replace("100, 10000, 1000000", "100, 100000000000000000000"),
     "schedule"),
    (FREQ.replace("seed = 0", "seed = 18446744073709551616"), "seed"),
    (NSLIT + "open_slits = 0, 0\n", "open_slits"),
    (SORKIN + "triple = 0, 1\n", "triple"),
    (DELAYED + "detector_y_um = 1, 2, 3\n", "detector_y"),
])
def test_rejections_exit_2_naming_key(tmp_path, capsys, text, key):
    assert validate(tmp_path, text) == 2
    code, out = run_cli(tmp_path, text)
    assert code == 2
    assert capsys.readouterr().err.count(f"key '{key}'") == 2
    assert not out.with_suffix(".json").exists()


def test_missing_key_exit_2_naming_key(tmp_path, capsys):
    text = DELAYED.replace("wavelength_nm = 500\n", "")
    assert validate(tmp_path, text) == 2
    assert run_cli(tmp_path, text)[0] == 2
    assert capsys.readouterr().err == \
        "error: key 'wavelength': missing required key\n" * 2


def test_utf8_bom_config_runs(tmp_path):
    assert validate(tmp_path, "\ufeff" + COIN) == 0
    assert run_cli(tmp_path, "\ufeff" + COIN)[0] == 0


def test_non_utf8_config_exit_2(tmp_path, capsys):
    assert validate(tmp_path, b"experiment = coin\xff\n") == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_unallocatable_grid_exit_2(tmp_path, capsys):
    # 1e15 float64 points ask for 7.11 PiB, so numpy fails at allocation
    # and touches no memory
    text = NSLIT.replace("n_points = 2001", "n_points = 1000000000000000")
    assert validate(tmp_path, text) == 0
    code, out = run_cli(tmp_path, text)
    assert code == 2
    assert "not enough memory" in capsys.readouterr().err
    assert not out.with_suffix(".json").exists()


def test_subject_built_once_per_run(tmp_path, monkeypatch):
    built = []
    real_space = events.classical_space

    def counted_space(*args):
        built.append("space")
        return real_space(*args)

    class CountedGeometry(slits.SlitGeometry):
        def __post_init__(self):
            built.append("geometry")
            super().__post_init__()

    monkeypatch.setattr(events, "classical_space", counted_space)
    monkeypatch.setattr(slits, "SlitGeometry", CountedGeometry)
    for text in (COIN, FREQ, NSLIT, SORKIN, DELAYED):
        built.clear()
        assert run_cli(tmp_path, text)[0] == 0
        assert len(built) == 1, text


@st.composite
def mutated_configs(draw):
    """One line of a valid config replaced by arbitrary text."""
    lines = draw(st.sampled_from([COIN, NSLIT, SORKIN, DELAYED, FREQ]
                                 )).splitlines()
    lines[draw(st.integers(0, len(lines) - 1))] = draw(st.text(max_size=30))
    return "\n".join(lines).encode("utf-8", "surrogatepass")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(), mutated_configs(),
                 st.text().map(lambda t: t.encode("utf-8", "surrogatepass"))))
def test_validate_fuzz_ends_in_documented_exit(tmp_path, data):
    assert validate(tmp_path, data) in (0, 2)


LABEL = st.text(alphabet="abxy01*-", min_size=1, max_size=3)
WEIGHTS = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e308)),
                   min_size=1, max_size=5)


@st.composite
def small_configs(draw):
    """Small coin, freq and nslit configs; some break a rule."""
    kind = draw(st.sampled_from(["coin", "freq", "nslit"]))
    if kind == "nslit":
        opened = draw(st.lists(st.integers(-1, 3), max_size=4))
        text = NSLIT.replace("n_points = 2001", "n_points = "
                             f"{draw(st.integers(0, 40))}")
        return text + (f"open_slits = {', '.join(map(str, opened))}\n"
                       if opened else "")
    weights = draw(WEIGHTS)
    labels = draw(st.lists(LABEL, min_size=len(weights),
                           max_size=len(weights)))
    text = (f"experiment = {kind}\nweights = {', '.join(map(repr, weights))}"
            f"\nlabels = {', '.join(labels)}\n")
    if kind == "freq":
        schedule = sorted(draw(st.sets(st.integers(0, 3000), min_size=1,
                                       max_size=3)))
        text += (f"schedule = {', '.join(map(str, schedule))}\n"
                 f"seed = {draw(st.integers(0, 2 ** 64 - 1))}\n")
    return text


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(small_configs())
def test_run_fuzz_valid_configs_run(tmp_path, text):
    code = validate(tmp_path, text)
    assert code in (0, 2)
    assert run_cli(tmp_path, text, name="fuzz")[0] == code
    if code == 0 and text.startswith("experiment = coin"):
        summary = json.loads((tmp_path / "fuzz.json").read_text())
        assert len(summary["joint_table"]) == len(summary["labels"]) ** 2


def test_freq_table_errors_are_the_report_errors(tmp_path):
    code, out = run_cli(tmp_path, FREQ.replace("weights = 1, 1",
                                               "weights = 3, 1"))
    assert code == 0
    report = frequency.convergence_report(
        events.classical_space([3, 1], ["h", "t"]), [100, 10000, 1000000], 0)
    rows = list(csv.reader(out.with_suffix(".csv").open()))[1:]
    assert [r[3] for r in rows] == [repr(err[lab]) for err in report.errors
                                    for lab in ("h", "t")]
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["max_errors"] == [max(err.values())
                                     for err in report.errors]


def test_freq_phase_is_echoed_and_changes_no_estimate(tmp_path):
    _, plain = run_cli(tmp_path, FREQ, name="plain")
    _, turned = run_cli(tmp_path, FREQ + "phase = 0.5\n", name="turned")
    summary = json.loads(turned.with_suffix(".json").read_text())
    assert summary["phase"] == 0.5
    assert json.loads(plain.with_suffix(".json").read_text())["phase"] == 0.0
    del summary["phase"]
    assert summary == {k: v for k, v in json.loads(
        plain.with_suffix(".json").read_text()).items() if k != "phase"}
    assert turned.with_suffix(".csv").read_bytes() == \
        plain.with_suffix(".csv").read_bytes()


def test_dotted_output_bases_do_not_collide(tmp_path):
    cfg = tmp_path / "f.cfg"
    cfg.write_text(FREQ)
    for version in ("v1", "v2"):
        assert main(["run", "--config", str(cfg), "--out",
                     str(tmp_path / f"run.{version}"), "--no-timestamp"]) == 0
    assert sorted(p.name for p in tmp_path.glob("run.*")) == [
        "run.v1.csv", "run.v1.json", "run.v2.csv", "run.v2.json"]


def test_output_base_without_a_name_exit_2(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(COIN)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(cfg), "--out", "."]) == 2
    assert "key 'output'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg"]


def test_output_base_with_a_nul_byte_exit_2(tmp_path, capsys):
    base = str(tmp_path / "nul") + "\0x"
    text = COIN + f"output = {base}\n"
    assert validate(tmp_path, text) == 2
    assert "line 4: key 'output'" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "v.cfg")]) == 2
    assert "line 4: key 'output'" in capsys.readouterr().err
    with pytest.raises(ConfigError) as caught:
        cli.run_experiment(config.parse_config(COIN), out="a\0b")
    assert caught.value.key == "output"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.cfg"]


@pytest.mark.parametrize("text, key", [
    (NSLIT.replace("y_max = 0.1", "y_max = 1e10"), "y_max"),
    (NSLIT.replace("wavelength_nm = 500", "wavelength = 1e-320"),
     "wavelength"),
    (DELAYED + "detector_y = 0, 1e10\n", "detector_y"),
    # the default detectors sit on the slits, whose screen legs span 1e10 m
    ("experiment = delayed\nwavelength_nm = 500\nsource_x = -1e12\n"
     "screen_plane_x = 1.0\nslit_offsets = 0, 1e10\n", "detector_y"),
], ids=["y_max", "wavelength", "detector_y", "default_detector_y"])
def test_unresolvable_phase_caught_by_validate(tmp_path, capsys, text, key):
    assert validate(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert f"key '{key}'" in err and "2**52 wavelengths" in err


@pytest.mark.parametrize("module", ["amprob", "amprob.cli"])
def test_cli_runs_as_a_module(tmp_path, module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    good, bad = tmp_path / "good.cfg", tmp_path / "bad.cfg"
    good.write_text(COIN)
    bad.write_text(COIN.replace("weights = 1, 1", "weights = 1, -1"))

    def validate_with(cfg):
        return subprocess.run(
            [sys.executable, "-m", module, "validate", "--config", str(cfg)],
            env=env, capture_output=True, text=True, timeout=60)

    ok = validate_with(good)
    assert (ok.returncode, ok.stdout) == (0, "ok: coin config is valid\n")
    failed = validate_with(bad)
    assert failed.returncode == 2
    assert "key 'weights'" in failed.stderr


NSLIT_5E_324 = NSLIT.replace("y_min = -0.1\ny_max = 0.1\nn_points = 2001",
                             "y_min = 0\ny_max = 5e-324\nn_points = 5")
SORKIN_5E_324 = SORKIN.replace("y_min = -0.02\ny_max = 0.02\nn_points = 201",
                               "y_min = 0\ny_max = 5e-324\nn_points = 5")


@pytest.mark.parametrize("text, key, line", [
    (COIN + "output = .\n", "output", 4),
    (COIN + "output = /\n", "output", 4),
    (COIN + "output = runs/..\n", "output", 4),
    (NSLIT_5E_324, "n_points", 8),
    (SORKIN_5E_324, "n_points", 8),
    # an empty list stops at the parser, before classical_space
    ("experiment = coin\nweights =\nlabels = a\n", "weights", 2),
    ("experiment = coin\nweights = 1, 1\nlabels = a\n", "labels", 3),
], ids=["output_dot", "output_root", "output_dotdot", "nslit_5e-324",
        "sorkin_5e-324", "no_weights", "labels_short"])
def test_validate_and_run_agree_naming_key_and_line(tmp_path, capsys, text,
                                                    key, line):
    assert validate(tmp_path, text) == 2
    code, out = run_cli(tmp_path, text)
    assert code == 2
    assert capsys.readouterr().err.count(f"line {line}: key '{key}'") == 2
    assert not out.with_suffix(".json").exists()


@pytest.mark.parametrize("text", [COIN, NSLIT, SORKIN, DELAYED, FREQ],
                         ids=["coin", "nslit", "sorkin", "delayed", "freq"])
def test_summary_names_the_experiment_first(tmp_path, text):
    code, out = run_cli(tmp_path, text)
    assert code == 0
    summary = json.loads(out.with_suffix(".json").read_text())
    assert list(summary)[0] == "experiment"
    assert text.startswith(f"experiment = {summary['experiment']}\n")


def test_every_table_names_the_same_five_experiments():
    assert list(config.OUTPUT_FORMATS) == list(config.FIELD_REGISTRY) == \
        list(cli._RUNNERS) == ["coin", "nslit", "sorkin", "delayed", "freq"]


def csv_module_text(rows):
    """The text csv.writer(lineterminator="\n") writes for rows."""
    fh = io.StringIO()
    csv.writer(fh, lineterminator="\n").writerows(rows)
    return fh.getvalue()


def written_csv(tmp_path, experiment, subject, params):
    """BASE.csv's bytes from one runner's table."""
    summary, lines = cli._RUNNERS[experiment](subject, params)
    paths = cli._write_outputs(tmp_path / experiment, summary, lines, False)
    return paths[1].read_bytes()


CSV_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-300, 1e16, -1e16, 0.1, 1e22]),
    st.floats())
CSV_LABELS = st.text(st.one_of(st.sampled_from('",\n\r é☃'),
                               st.characters(codec="utf-8")),
                     min_size=1, max_size=6)
FUNCTION_SCOPED = settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUNCTION_SCOPED
@given(st.lists(st.tuples(CSV_FLOATS, CSV_FLOATS), min_size=1, max_size=40))
def test_nslit_csv_is_what_the_csv_module_writes(tmp_path, monkeypatch,
                                                 points):
    ys, probs = map(tuple, zip(*points))
    monkeypatch.setattr(slits, "intensity_profile",
                        lambda *args: slits.IntensityProfile(ys, probs))
    monkeypatch.setattr(slits, "refined_maxima", lambda profile: [])
    params = {"y_min": -1.0, "y_max": 1.0, "n_points": len(ys),
              "open_slits": [0]}
    assert written_csv(tmp_path, "nslit", None, params) == csv_module_text(
        [("y_m", "probability"), *points]).encode("utf-8")


@FUNCTION_SCOPED
@given(st.lists(st.tuples(CSV_FLOATS, CSV_FLOATS, CSV_FLOATS), min_size=1,
                max_size=40))
def test_sorkin_csv_is_what_the_csv_module_writes(tmp_path, monkeypatch,
                                                  points):
    ys, probs, residuals = map(tuple, zip(*points))
    monkeypatch.setattr(slits, "sorkin_profile", lambda *args: (
        slits.IntensityProfile(ys, probs), residuals))
    params = {"y_min": -1.0, "y_max": 1.0, "n_points": len(ys),
              "triple": [2, 0, 1]}
    peak = max(probs)
    assert written_csv(tmp_path, "sorkin", None, params) == csv_module_text(
        [("y_m", "I3", "peak_scale"),
         *((y, r, peak) for y, _, r in points)]).encode("utf-8")


@FUNCTION_SCOPED
@given(st.data())
def test_freq_csv_is_what_the_csv_module_writes(tmp_path, monkeypatch, data):
    labels = data.draw(st.lists(CSV_LABELS, min_size=1, max_size=5,
                                unique=True))
    schedule = data.draw(st.lists(st.integers(1, 2 ** 63 - 1), min_size=1,
                                  max_size=3))
    stage = st.fixed_dictionaries({lab: CSV_FLOATS for lab in labels})
    estimates = [data.draw(stage) for _ in schedule]
    errors = [data.draw(stage) for _ in schedule]
    report = frequency.ConvergenceReport(
        tuple(schedule), tuple(estimates), tuple(errors),
        tuple(max(err.values()) for err in errors))
    monkeypatch.setattr(frequency, "convergence_report",
                        lambda *args: report)
    space = events.classical_space([1.0] * len(labels), labels)
    params = {"schedule": schedule, "seed": 0, "phase": 0.0}
    assert written_csv(tmp_path, "freq", space, params) == csv_module_text(
        [("N", "outcome", "estimate", "abs_error"),
         *((n, lab, est[lab], err[lab])
           for n, est, err in zip(schedule, estimates, errors)
           for lab in labels)]).encode("utf-8")


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


SIGN = st.sampled_from([0, 1 << 63])
MANTISSA = st.integers(1, 2 ** 52 - 1)
NANS = st.builds(lambda sign, payload: from_bits(sign | 0x7FF << 52
                                                 | payload), SIGN, MANTISSA)
SUBNORMALS = st.builds(lambda sign, m: from_bits(sign | m), SIGN, MANTISSA)
FLOAT_COLUMNS = st.lists(st.one_of(st.floats(), NANS, SUBNORMALS,
                                   st.sampled_from([-0.0, 0.0])), max_size=30)


@settings(max_examples=300, deadline=None)
@given(st.lists(FLOAT_COLUMNS, min_size=1, max_size=4))
@example([[0.0, -0.0, 0.0], [-0.0, 5e-324, -5e-324, float("nan")],
          [from_bits(0x7FF8000000000001), from_bits(0xFFF0000000000002)]])
def test_float_texts_are_repr(columns):
    xs = [x for column in columns for x in column]
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "repr", lambda x: calls.append(x) or repr(x),
                      raising=False)
        texts = cli._float_texts(xs)
    assert texts == list(map(repr, xs))
    # one call per bit pattern of xs, so 0.0 and -0.0 and NaN payloads
    # get their own texts
    def bits(x):
        return struct.unpack("<q", struct.pack("<d", x))[0]
    assert sorted(map(bits, calls)) == sorted(set(map(bits, xs)))


def test_float_texts_call_repr_once_per_new_bit_pattern(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "repr", lambda x: calls.append(x) or repr(x),
                        raising=False)
    texts = cli._float_texts([0.5, -0.0, 0.5, 0.0, -0.0, 0.25, 0.5, 0.25])
    assert texts == ["0.5", "-0.0", "0.5", "0.0", "-0.0", "0.25", "0.5",
                     "0.25"]
    assert sorted(map(repr, calls)) == ["-0.0", "0.0", "0.25", "0.5"]
    nan1, nan2 = from_bits(0x7FF8000000000001), from_bits(0xFFF8000000000002)
    assert cli._float_texts([nan1, nan2, nan1]) == ["nan"] * 3
    assert len(calls) == 6
    # no call remembers another's texts: -0.0 is formatted again
    assert cli._float_texts([-0.0]) == ["-0.0"]
    assert len(calls) == 7


def test_freq_rows_format_each_float_of_the_table_once(tmp_path,
                                                       monkeypatch):
    # 0.125 is in stages 1 and 3 but not in stage 2, so a memo of the
    # previous stage alone would format it twice
    calls = []
    monkeypatch.setattr(cli, "repr", lambda x: calls.append(x) or repr(x),
                        raising=False)
    estimates = ({"a": 0.125, "b": 0.875}, {"a": 0.25, "b": 0.75},
                 {"a": 0.5, "b": 0.125})
    errors = ({"a": 0.375, "b": 0.375}, {"a": 0.25, "b": 0.25},
              {"a": -0.0, "b": 0.0})
    report = frequency.ConvergenceReport(
        (8, 16, 32), estimates, errors,
        tuple(max(err.values()) for err in errors))
    monkeypatch.setattr(frequency, "convergence_report",
                        lambda *args: report)
    space = events.classical_space([1.0, 1.0], ["a", "b"])
    params = {"schedule": [8, 16, 32], "seed": 0, "phase": 0.0}
    text = written_csv(tmp_path, "freq", space, params).decode()
    assert text.splitlines()[1:] == [
        "8,a,0.125,0.375", "8,b,0.875,0.375", "16,a,0.25,0.25",
        "16,b,0.75,0.25", "32,a,0.5,-0.0", "32,b,0.125,0.0"]
    assert sorted(map(repr, calls)) == ["-0.0", "0.0", "0.125", "0.25",
                                        "0.375", "0.5", "0.75", "0.875"]


def test_freq_run_formats_a_zero_counts_error_once(tmp_path, monkeypatch):
    # two outcomes too rare to be drawn: in every stage their estimates
    # are 0.0 and their errors their true magnitudes, and the third's
    # estimate is 1.0 with the same error each time, so only the first
    # stage formats floats
    calls = []
    monkeypatch.setattr(cli, "repr", lambda x: calls.append(x) or repr(x),
                        raising=False)
    text = ("experiment = freq\nweights = 1e-12, 2e-12, 1\n"
            "labels = a, b, c\nschedule = 10, 100, 1000\nseed = 4\n")
    code, out = run_cli(tmp_path, text)
    assert code == 0
    rows = out.with_suffix(".csv").read_text().splitlines()[1:]
    assert len(rows) == 9
    texts = {text for row in rows for text in row.split(",")[2:]}
    assert len(calls) == len(texts) == 5


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(), st.text())
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=5),
    st.dictionaries(st.text(), JSON_SCALARS, max_size=5),
    st.lists(st.lists(JSON_SCALARS, max_size=3), max_size=3),
    st.dictionaries(st.text(), st.lists(JSON_SCALARS, max_size=3),
                    max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), JSON_VALUES, max_size=6))
@example({})
@example({"ключ": [], "b": {}, "c": None, "ü": {"é\n\"": 1.5, "": [0.1]},
          "d": [-0.0, 5e-324, 1e16, float("nan"), "☃"]})
@example({"long": list(range(1025)), "wide": {f"k{i}": i / 3 for i in range(
    1100)}})
def test_json_chunks_are_json_indent_2(summary):
    assert "".join(cli._json_chunks(summary)) == \
        json.dumps(summary, indent=2)


@pytest.mark.parametrize("text", [
    COIN.replace("weights = 1, 1\nlabels = h, t",
                 "weights = " + ", ".join(map(str, range(1, 151)))
                 + "\nlabels = " + ", ".join(f"é{i}" for i in range(150))),
    NSLIT.replace("n_points = 2001", "n_points = 2001\nformat = json"),
    SORKIN, DELAYED, FREQ], ids=["coin150", "nslit", "sorkin", "delayed",
                                 "freq"])
def test_written_json_is_json_indent_2(tmp_path, text):
    code, out = run_cli(tmp_path, text)
    assert code == 0
    raw = out.with_suffix(".json").read_bytes()
    assert raw == (json.dumps(json.loads(raw), indent=2) + "\n").encode()


def test_one_kernel_pass_per_sorkin_run(tmp_path, monkeypatch):
    passes = []
    real = slits._blockwise

    def counted(*args, **kwargs):
        passes.append(args[2].size)
        return real(*args, **kwargs)

    monkeypatch.setattr(slits, "_blockwise", counted)
    assert run_cli(tmp_path, SORKIN)[0] == 0
    assert passes == [201]


def test_one_refined_maxima_per_nslit_run(tmp_path, monkeypatch):
    calls = []
    real = slits.refined_maxima
    monkeypatch.setattr(slits, "refined_maxima",
                        lambda profile: calls.append(1) or real(profile))
    code, out = run_cli(tmp_path, NSLIT)
    assert code == 0 and calls == [1]
    profile = slits.intensity_profile(
        config.parse_config(NSLIT).subject, -0.1, 0.1, 2001)
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["fringe_spacing_estimate_m"] == \
        slits.fringe_spacing(profile)


def test_one_born_term_per_outcome_per_freq_run(tmp_path, monkeypatch):
    # every probability of a space reads the |A|^2 vector built with it:
    # a 4-stage run on 10**4 outcomes squares each amplitude once
    calls = []
    real = amplitude.born_probability

    def counted(a):
        calls.append(1)
        return real(a)

    for mod in (amplitude, events, frequency, cli, config):
        for key, value in list(vars(mod).items()):
            if value is real:
                monkeypatch.setattr(mod, key, counted)
    n = 10 ** 4
    text = ("experiment = freq\n"
            f"weights = {', '.join(str(1 + i % 5) for i in range(n))}\n"
            f"labels = {', '.join(f'o{i}' for i in range(n))}\n"
            "schedule = 10, 100, 1000, 10000\nseed = 3\n")
    assert run_cli(tmp_path, text)[0] == 0
    assert len(calls) == n


@pytest.mark.parametrize("text, key, line", [
    (COIN.replace("weights", "weights_mm"), "weights_mm", 2),
    (FREQ + "phase_nm = 2\n", "phase_nm", 6),
    (NSLIT.replace("n_points", "n_points_mm"), "n_points_mm", 8),
    (NSLIT.replace("y_max = 0.1", f"y_max = {10 ** 400}"), "y_max", 7),
    (COIN.replace("1, 1", f"1, {10 ** 400}"), "weights", 2),
    (COIN + "bogus = 1\n", "bogus", 4),
], ids=["weights_mm", "phase_nm", "n_points_mm", "float_10e400",
        "float_list_10e400", "unknown_key"])
def test_suffix_overflow_and_unknown_key_exit_2_naming_key_and_line(
        tmp_path, capsys, text, key, line):
    assert validate(tmp_path, text) == 2
    code, out = run_cli(tmp_path, text)
    assert code == 2
    assert capsys.readouterr().err.count(f"line {line}: key '{key}'") == 2
    assert not out.with_suffix(".json").exists()


def test_a_freq_of_10_to_the_5_equal_weights_validates_and_runs(tmp_path):
    # its Born total misses 1 by 1.9e-12, past the fixed 1e-12 that once
    # let validate pass and run fail
    n = 10 ** 5
    text = (f"experiment = freq\nweights = {', '.join(['1'] * n)}\n"
            f"labels = {', '.join(f'o{i}' for i in range(n))}\n"
            "schedule = 10, 1000\nseed = 7\n")
    assert validate(tmp_path, text) == 0
    code, out = run_cli(tmp_path, text)
    assert code == 0
    assert json.loads(out.with_suffix(".json").read_text())["experiment"] \
        == "freq"


def test_coin_summary_is_one_guess_game(monkeypatch):
    space = events.classical_space([3, 0, 1.5, 2], ["a", "b", "c", "d"])
    stats = events.guess_game(space)
    calls = []
    probabilities = events.SampleSpace.probabilities
    monkeypatch.setattr(events.SampleSpace, "probabilities",
                        lambda self: calls.append(self) or
                        probabilities(self))
    summary, rows = cli._run_coin(space, {})
    assert calls == [space]  # guess_game's own call, and no other
    assert rows is None
    assert summary["probabilities"] == stats.probabilities
    assert summary["p_correct"] == stats.p_correct
    assert summary["joint_table"] == {f"{c}*{f}": p for (c, f), p
                                      in stats.joint_table.items()}
    assert list(summary["joint_table"]) == [
        f"{c}*{f}" for c in space.labels for f in space.labels]


@pytest.mark.parametrize("text", [SORKIN, FREQ], ids=["sorkin", "freq"])
def test_json_run_formats_no_csv_row(tmp_path, monkeypatch, text):
    calls = []
    real = cli._float_texts
    monkeypatch.setattr(cli, "_float_texts",
                        lambda values: calls.append(1) or real(values))
    code, out = run_cli(tmp_path, text + "format = json\n")
    assert code == 0 and calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.cfg",
                                                         "cfg.json"]


def test_main_builds_no_parser(tmp_path, monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("main built an argument parser")

    monkeypatch.setattr(cli.argparse, "ArgumentParser", no_parser)
    assert validate(tmp_path, COIN) == 0
    assert run_cli(tmp_path, COIN)[0] == 0


@pytest.mark.parametrize("text, code", [(COIN, 0),
                                        (COIN.replace("1, 1", "-1, 1"), 2)])
def test_entry_exits_with_mains_code(tmp_path, monkeypatch, text, code):
    cfg = tmp_path / "entry.cfg"
    cfg.write_text(text)
    monkeypatch.setattr(sys, "argv", ["amprob", "validate", "--config",
                                      str(cfg)])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == code
