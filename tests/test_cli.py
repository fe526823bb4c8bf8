import json

import pytest

from amprob.cli import main

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
