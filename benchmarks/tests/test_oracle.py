"""Each oracle check passes the program's real output and flags the same
output after a deliberate perturbation made here, in the test."""

import csv
import json
import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

import oracle
import workloads
from amprob import amplitude, cli, events
from worker import CliWorkload, SpacesWorkload, Window

GEOMETRY = {
    "wavelength_nm": "532.1",
    "source_x": "-0.5",
    "source_y_um": "3.25",
    "slit_plane_x": "0.01",
    "screen_plane_x": "1.2",
    "slit_offsets_um": ["-10.000", "0.000", "10.000"],
}
SCREEN = {"y_min_mm": "-40.00", "y_max_mm": "35.00", "n_points": 60}
NSLIT = {"experiment": "nslit", **GEOMETRY, **SCREEN, "open_slits": [0, 2]}
SORKIN = {"experiment": "sorkin", **GEOMETRY, **SCREEN, "triple": [2, 0, 1]}
DELAYED = {"experiment": "delayed", **GEOMETRY,
           "detector_y_mm": ["1.5", "-2.0", "0.25"]}
COIN = {"experiment": "coin", "weights": ["1.5", "0", "2.25", "0.001"],
        "labels": ["h", "t", "e", "x"]}
FREQ = {"experiment": "freq", "weights": ["1", "2.5", "0.75"],
        "labels": ["a", "b", "c"], "schedule": [10, 1000, 100000],
        "seed": 12345}


def produce(tmp_path, spec):
    cfg = tmp_path / "in.cfg"
    cfg.write_text(workloads.render_config(spec))
    base = tmp_path / "op"
    assert cli.main(["run", "--config", str(cfg), "--out", str(base),
                     "--no-timestamp"]) == 0
    return base


def check(spec, base):
    return oracle.check_cli(spec, base, True, random.Random(0))


def edit_csv(base, row, column, change):
    path = base.with_suffix(".csv")
    rows = list(csv.reader(path.open(newline="")))
    rows[row + 1][column] = repr(change(float(rows[row + 1][column])))
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return [float(r[column]) for r in rows[1:]]


def edit_json(base, change):
    path = base.with_suffix(".json")
    summary = json.loads(path.read_text())
    change(summary)
    path.write_text(json.dumps(summary, indent=2))


def assert_flags(verdict, word):
    assert not verdict.ok
    assert any(word in f for f in verdict.failures), verdict.failures


@pytest.mark.parametrize("spec", [NSLIT, SORKIN, DELAYED, COIN, FREQ],
                         ids=lambda s: s["experiment"])
def test_real_output_passes(tmp_path, spec):
    verdict = check(spec, produce(tmp_path, spec))
    assert verdict.ok, verdict.failures
    assert verdict.max_err < 1e-8


def test_slit_probability_against_mpmath(tmp_path):
    base = produce(tmp_path, NSLIT)
    probs = edit_csv(base, 17, 1, lambda p: p + 1e-5)
    edit_json(base, lambda s: s.update(peak_intensity=max(probs)))
    assert_flags(check(NSLIT, base), "P(y=")


def test_sorkin_i3_against_zero(tmp_path):
    base = produce(tmp_path, SORKIN)
    i3 = edit_csv(base, 5, 1, lambda r: 3e-5)
    edit_json(base, lambda s: s.update(max_abs_I3=max(map(abs, i3))))
    assert_flags(check(SORKIN, base), "I3(y=")


def test_delayed_detector_probability_against_mpmath(tmp_path):
    base = produce(tmp_path, DELAYED)

    def bump(summary):
        summary["per_detector_probability"][1] += 1e-5
        summary["total"] += 1e-5
    edit_json(base, bump)
    assert_flags(check(DELAYED, base), "detector 1")


def test_coin_probabilities_against_fractions(tmp_path):
    base = produce(tmp_path, COIN)

    def swap(summary):
        p = summary["probabilities"]
        p["h"], p["e"] = p["e"], p["h"]
    edit_json(base, swap)
    assert_flags(check(COIN, base), "P(h)")


def test_coin_p_correct_against_fractions(tmp_path):
    base = produce(tmp_path, COIN)
    edit_json(base, lambda s: s.update(p_correct=s["p_correct"] + 1e-5))
    assert_flags(check(COIN, base), "p_correct")


def test_freq_estimate_against_counts(tmp_path):
    base = produce(tmp_path, FREQ)
    edit_csv(base, 4, 2, lambda e: e + 1e-5)
    assert_flags(check(FREQ, base), "estimate")


def test_freq_abs_error_against_true_magnitude(tmp_path):
    base = produce(tmp_path, FREQ)
    edit_csv(base, 7, 3, lambda e: e + 1e-5)
    assert_flags(check(FREQ, base), "abs_error")


def test_missing_output_is_a_failure(tmp_path):
    base = produce(tmp_path, NSLIT)
    base.with_suffix(".csv").unlink()
    assert_flags(check(NSLIT, base), "table")


def test_changed_rerun_is_a_failure(tmp_path):
    workload = CliWorkload("profile", 1, tmp_path)
    window = Window()
    workload.run_unit(0, NSLIT, window, keep=True)
    kept = tmp_path / "keep" / "0.json"
    kept.write_text(kept.read_text() + " ")
    workload.deep_checks(window)
    assert any("rerun .json differs" in m for m in window.failures[0])


def space_results():
    block = next(b for b in workloads.operations("spaces", 4)
                 if b["n"] <= workloads.GUESS_GAME_MAX_OUTCOMES)
    results = SpacesWorkload("spaces", 4, None).run_unit(0, block, Window())
    return block, {call["fn"]: (call, result) for _, call, result in results}


def test_space_results_pass():
    block, results = space_results()
    block_oracle = oracle.BlockOracle(block)
    for call, result in results.values():
        verdict = block_oracle.check(call, result)
        assert verdict.ok, (call["fn"], verdict.failures)


def _bump_first(values):
    values = list(values)
    values[0] += 1e-5
    return values


PERTURB = {
    "probabilities": lambda r: {k: v + 1e-5 * (i == 0)
                                for i, (k, v) in enumerate(r.items())},
    "outcome_probability": lambda r: r + 1e-5,
    "event_probability": lambda r: r - 1e-5,
    "guess_game": lambda r: replace(r, p_correct=r.p_correct + 1e-5),
    "normalize": lambda r: SimpleNamespace(amplitudes=(
        amplitude.Amplitude(r.amplitudes[0].re * 1.001,
                            r.amplitudes[0].im),) + r.amplitudes[1:]),
    "collapse": lambda r: SimpleNamespace(
        amplitudes=r.amplitudes[1:] + r.amplitudes[:1]),
    "union_decomposition": lambda r: replace(r, p_union=r.p_union + 1e-5),
    "combine_exclusive": lambda r: amplitude.Amplitude(r.re + 1e-3, r.im),
    "combine_independent": lambda r: amplitude.Amplitude(r.re + 1e-3, r.im),
    "interference_term": _bump_first,
    "born_probability": _bump_first,
    "conjugate": lambda r: [amplitude.conjugate(a) for a in r],
    "classical_space": lambda r: events.SampleSpace(
        r.labels, r.amplitudes[1:] + r.amplitudes[:1]),
    "SampleSpace": lambda r: events.SampleSpace(
        r.labels, r.amplitudes[1:] + r.amplitudes[:1]),
}


@pytest.mark.parametrize("fn", sorted(PERTURB))
def test_each_space_check_flags_a_perturbed_result(fn):
    block, results = space_results()
    call, result = results[fn]
    verdict = oracle.BlockOracle(block).check(call, PERTURB[fn](result))
    assert not verdict.ok
