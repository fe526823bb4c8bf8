"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import json
import math
import time

import numpy as np

from amprob import (
    Amplitude,
    SampleSpace,
    SlitGeometry,
    arrival_probability,
    born_probability,
    child_seed,
    classical_space,
    combine_exclusive,
    convergence_report,
    delayed_choice,
    event_probability,
    fringe_spacing,
    guess_game,
    intensity_profile,
    interference_term,
    outcome_probability,
    pairwise_interference,
    path_amplitude,
    record_trials,
    sorkin_invariant,
    union_decomposition,
)
from amprob.cli import main


def check(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def random_geometry(rng, n_slits):
    offsets = np.sort(rng.uniform(-40e-6, 40e-6, size=n_slits))
    while n_slits > 1 and np.min(np.diff(offsets)) < 1e-7:
        offsets = np.sort(rng.uniform(-40e-6, 40e-6, size=n_slits))
    return SlitGeometry(
        source=(-float(rng.uniform(0.3, 2.0)), float(rng.uniform(-1e-5, 1e-5))),
        slit_plane_x=0.0,
        slit_offsets=tuple(float(o) for o in offsets),
        screen_plane_x=float(rng.uniform(0.3, 2.0)),
        wavelength=float(rng.uniform(300e-9, 800e-9)),
    )


def test_criterion_1_born_rule_identity():
    rng = np.random.default_rng(101)
    res = rng.normal(size=10 ** 5)
    ims = rng.normal(size=10 ** 5)
    start = time.perf_counter()
    worst = 0.0
    all_nonneg = True
    for re, im in zip(res, ims):
        a = Amplitude(re, im)
        p = born_probability(a)
        if p < 0:
            all_nonneg = False
        mag2 = math.hypot(re, im) ** 2
        worst = max(worst, abs(p - mag2) / max(mag2, 1e-300))
    elapsed = time.perf_counter() - start
    check(1, worst <= 1e-15 and all_nonneg and elapsed < 1.0,
          f"max rel err {worst:.2e}, non-negative={all_nonneg}, "
          f"{elapsed:.2f}s over 1e5 amplitudes")


def test_criterion_2_expansion_identity():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10 ** 4):
        a1 = Amplitude(*rng.uniform(-1.5, 1.5, size=2))
        a2 = Amplitude(*rng.uniform(-1.5, 1.5, size=2))
        lhs = born_probability(combine_exclusive([a1, a2]))
        rhs = born_probability(a1) + born_probability(a2) \
            + interference_term(a1, a2)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    check(2, worst <= 1e-12 and elapsed < 1.0,
          f"max abs err {worst:.2e}, {elapsed:.2f}s over 1e4 pairs")


def test_criterion_3_kolmogorov_suite():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst_total = worst_add = worst_phase = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 17))
        weights = rng.uniform(0.0, 1.0, size=n)
        weights[rng.integers(0, n)] += 0.1  # keep at least one positive
        labels = [f"o{i}" for i in range(n)]
        base = classical_space(weights, labels)
        rotated = SampleSpace(
            base.labels,
            tuple(Amplitude.from_polar(a.magnitude,
                                       float(rng.uniform(-math.pi, math.pi)))
                  for a in base.amplitudes))
        for space in (base, rotated):
            probs = space.probabilities()
            assert all(0.0 <= p <= 1.0 + 1e-12 for p in probs.values())
            worst_total = max(worst_total,
                              abs(sum(probs.values()) - 1.0))
            cut = int(rng.integers(0, n + 1))
            split = event_probability(space, labels[:cut]) \
                + event_probability(space, labels[cut:])
            worst_add = max(worst_add, abs(split - 1.0))
        for lab in labels:
            worst_phase = max(worst_phase,
                              abs(outcome_probability(rotated, lab)
                                  - outcome_probability(base, lab)))
    elapsed = time.perf_counter() - start
    ok = (worst_total <= 1e-12 and worst_add <= 1e-12
          and worst_phase <= 1e-12 and elapsed < 5.0)
    check(3, ok, f"P(omega) err {worst_total:.2e}, additivity err "
          f"{worst_add:.2e}, phase dependence {worst_phase:.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_4_classical_recovery():
    fair = classical_space([1, 1], ["h", "t"])
    exact = (outcome_probability(fair, "h") == 0.5
             and outcome_probability(fair, "t") == 0.5)
    thick = classical_space([0.49, 0.49, 0.02], ["h", "t", "side"])
    thick_sum = sum(thick.probabilities().values())
    fair_guess = guess_game(fair).p_correct
    uniform3 = classical_space([1, 1, 1], ["a", "b", "c"])
    probs3 = uniform3.probabilities()
    oracle = sum(probs3[c] * probs3[f]
                 for c in probs3 for f in probs3 if c == f)
    guessed3 = guess_game(uniform3).p_correct
    ok = (exact and abs(thick_sum - 1.0) <= 1e-12
          and fair_guess == 0.5
          and abs(guessed3 - oracle) <= 1e-15
          and abs(guessed3 - 1 / 3) <= 1e-12)
    check(4, ok, f"fair exact={exact}, thick sum err "
          f"{abs(thick_sum - 1):.2e}, p_correct fair={fair_guess}, "
          f"uniform3={guessed3:.15f} vs oracle {oracle:.15f}")


def test_criterion_5_pairwise_vs_direct_born():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        geom = random_geometry(rng, n)
        y = float(rng.uniform(-0.05, 0.05))
        opened = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                   replace=False))
        amps = [path_amplitude(geom, int(i), y).total for i in opened]
        direct = born_probability(combine_exclusive(amps))
        pairwise = sum(born_probability(a) for a in amps)
        for i in range(len(opened)):
            for j in range(i + 1, len(opened)):
                pairwise += interference_term(amps[i], amps[j])
        worst = max(worst, abs(direct - pairwise) / max(direct, pairwise, 1.0))
        # engine route runs its own dual check internally
        arrival_probability(geom, y, [int(i) for i in opened])
    elapsed = time.perf_counter() - start
    check(5, worst <= 1e-12 and elapsed < 10.0,
          f"max rel disagreement {worst:.2e}, {elapsed:.2f}s over 1000 "
          f"geometries")


def test_criterion_6_sorkin_null_and_second_order():
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    worst_ratio = 0.0
    for _ in range(1000):
        geom = random_geometry(rng, 3)
        y = float(rng.uniform(-0.05, 0.05))
        peak = 3.0  # all-open constructive bound under the magnitude model
        i3 = sorkin_invariant(geom, y, (0, 1, 2))
        worst_ratio = max(worst_ratio, abs(i3) / peak)
    geom2 = SlitGeometry(source=(-1.0, 0.0), slit_plane_x=0.0,
                         slit_offsets=(-5e-6, 5e-6), screen_plane_x=1.0,
                         wavelength=500e-9)
    profile = intensity_profile(geom2, -0.05, 0.05, 1001)
    peak2 = max(profile.probabilities)
    max_i2 = max(abs(pairwise_interference(geom2, y, 0, 1))
                 for y in profile.screen_points)
    elapsed = time.perf_counter() - start
    ok = worst_ratio <= 1e-10 and max_i2 > 0.1 * peak2 and elapsed < 30.0
    check(6, ok, f"max |I3|/peak {worst_ratio:.2e} over 1000 configs, "
          f"max |I2|/peak {max_i2 / peak2:.2f}, {elapsed:.2f}s")


def test_criterion_7_fringe_spacing():
    start = time.perf_counter()
    geom = SlitGeometry(source=(-1.0, 0.0), slit_plane_x=0.0,
                        slit_offsets=(-5e-6, 5e-6), screen_plane_x=1.0,
                        wavelength=500e-9)
    profile = intensity_profile(geom, -0.08, 0.08, 8001)
    spacing = fringe_spacing(profile)
    wavelength, d, L = 500e-9, 10e-6, 1.0
    # exact paths put the first maximum where the path difference is one
    # wavelength: sin(theta) = lambda/d, y1 = L*tan(theta); the hyperbola's
    # curvature adds only ~(d/L)^2 ~ 1e-10 on top
    expected = wavelength * L / math.sqrt(d * d - wavelength * wavelength)
    rel = abs(spacing - expected) / expected
    # the far-field value lambda*L/d differs by exactly the tan/sin factor
    far_field = wavelength * L / d
    correction = 1.0 / math.sqrt(1.0 - (wavelength / d) ** 2) - 1.0
    far_dev = spacing / far_field - 1.0
    elapsed = time.perf_counter() - start
    check(7, rel <= 1e-6 and abs(far_dev - correction) <= 1e-6
          and elapsed < 5.0,
          f"spacing {spacing:.10f} m vs exact-path lambda*L/sqrt(d^2-lambda^2)"
          f" = {expected:.10f} m, rel dev {rel:.2e}; vs far-field lambda*L/d"
          f" = {far_field:.10f} m, dev {far_dev:.4e} (tan/sin correction "
          f"{correction:.4e}), {elapsed:.2f}s")


def test_criterion_8_delayed_choice_null():
    geom = SlitGeometry(source=(-1.0, 0.0), slit_plane_x=0.0,
                        slit_offsets=(-5e-6, 5e-6), screen_plane_x=1.0,
                        wavelength=500e-9)
    report = delayed_choice(geom, [-5e-6, 5e-6])
    singles = [arrival_probability(geom, yd, [i])
               for i, yd in enumerate((-5e-6, 5e-6))]
    worst = max(abs(p - s) for p, s
                in zip(report.per_detector_probability, singles))
    ok = (report.interference_part == 0.0
          and worst <= 1e-12
          and abs(report.per_detector_probability[0] - 0.5) <= 1e-12
          and abs(report.per_detector_probability[1] - 0.5) <= 1e-12)
    check(8, ok, f"interference_part={report.interference_part!r}, "
          f"per-detector vs single-slit err {worst:.2e}, "
          f"probabilities {report.per_detector_probability}")


def test_criterion_9_negative_interference():
    geom = SlitGeometry(source=(-1.0, 0.0), slit_plane_x=0.0,
                        slit_offsets=(-5e-6, 5e-6), screen_plane_x=1.0,
                        wavelength=500e-9)
    y_dark = 500e-9 * 1.0 / 10e-6 / 2
    dark_term = pairwise_interference(geom, y_dark, 0, 1)

    p1 = arrival_probability(geom, 0.0, [0])
    p2 = arrival_probability(geom, 0.0, [1])
    bright_term = pairwise_interference(geom, 0.0, 0, 1)
    report = union_decomposition(p1, p2, bright_term)
    union_ok = report.p_union == p1 + p2 + bright_term
    only_ok = (report.p_1_only == p1 - bright_term
               and report.p_2_only == p2 - bright_term)
    ok = (dark_term < 0 and union_ok and only_ok
          and report.p_1_only < 0 and report.p_2_only < 0)
    check(9, ok, f"dark-fringe term {dark_term:.6f} < 0, bright-fringe "
          f"onlys ({report.p_1_only:.6f}, {report.p_2_only:.6f}) < 0, "
          f"union identity exact={union_ok and only_ok}")


def test_criterion_10_frequency_convergence():
    start = time.perf_counter()
    fair = classical_space([1, 1], ["h", "t"])
    schedule = [100, 10 ** 4, 10 ** 6]
    seed = 92  # pinned; exact sqrt round trip holds for every count drawn
    report = convergence_report(fair, schedule, seed=seed)
    err = abs(report.estimates[-1][0] - 1 / math.sqrt(2))  # outcome "h"
    exact = True
    for k, n in enumerate(schedule):
        ledger = record_trials(fair, n, child_seed(seed, k))
        for lab, count in ledger.counts.items():
            from amprob import amplitude_from_frequency
            p = born_probability(amplitude_from_frequency(ledger, lab))
            if p != count / n:
                exact = False
    elapsed = time.perf_counter() - start
    check(10, err <= 0.002 and exact and elapsed < 5.0,
          f"|est - 1/sqrt2| = {err:.2e} at N=1e6 (seed {seed}), round trip "
          f"exact={exact}, {elapsed:.2f}s")


GEOM_KEYS = ("wavelength_nm = 500\nsource_x = -1.0\n"
             "screen_plane_x = 1.0\nslit_offsets_um = -5, 5\n")

VALID_CONFIGS = [
    "experiment = coin\nweights = 1, 1\nlabels = h, t\n",
    "experiment = coin\nweights = 0.49, 0.49, 0.02\nlabels = h, t, s\n",
    "experiment = coin\nweights = 1\nlabels = only\n",
    ("experiment = nslit\n" + GEOM_KEYS
     + "y_min = -0.1\ny_max = 0.1\nn_points = 2001\n"),
    ("experiment = nslit\n" + GEOM_KEYS
     + "y_min = -0.01\ny_max = 0.01\nn_points = 51\nopen_slits = 0\n"),
    ("experiment = nslit\nwavelength = 6.33e-07\nsource_x = -0.5\n"
     "screen_plane_x = 2.0\nslit_offsets_mm = -0.01, 0, 0.01\n"
     "y_min = -0.2\ny_max = 0.2\nn_points = 11\n"),
    ("experiment = sorkin\nwavelength_nm = 500\nsource_x = -1.0\n"
     "screen_plane_x = 1.0\nslit_offsets_um = -10, 0, 10\n"
     "y_min = -0.02\ny_max = 0.02\nn_points = 21\n"),
    ("experiment = sorkin\nwavelength_nm = 700\nsource_x = -2.0\n"
     "screen_plane_x = 0.7\nslit_offsets_um = -12, -2, 3, 9\n"
     "y_min = -0.01\ny_max = 0.01\nn_points = 11\ntriple = 0, 2, 3\n"),
    "experiment = delayed\n" + GEOM_KEYS,
    ("experiment = delayed\n" + GEOM_KEYS + "detector_y_um = -5, 5\n"),
    ("experiment = freq\nweights = 1, 1\nlabels = h, t\n"
     "schedule = 100, 1000\nseed = 7\n"),
    ("experiment = freq\nweights = 2, 1, 1\nlabels = a, b, c\n"
     "schedule = 10, 100, 1000\nseed = 123\nphase = 0.5\n"),
]

INVALID_CONFIGS = [
    "",  # missing experiment
    "experiment = warp\n",  # unknown experiment
    "experiment = coin\nweights = 1, 1\n",  # missing labels
    "experiment = coin\nweights = 0, 0\nlabels = h, t\n",  # all-zero weights
    "experiment = coin\nweights = 1, 1\nlabels = h, h\n",  # duplicate labels
    "experiment = coin\nweights = 1, spam\nlabels = h, t\n",  # bad float
    ("experiment = nslit\n" + GEOM_KEYS.replace("500", "-500")
     + "y_min = -0.1\ny_max = 0.1\nn_points = 11\n"),  # negative wavelength
    ("experiment = nslit\n"
     + GEOM_KEYS.replace("-5, 5", "5, 5")
     + "y_min = -0.1\ny_max = 0.1\nn_points = 11\n"),  # duplicate offsets
    ("experiment = nslit\n" + GEOM_KEYS
     + "y_min = 0.1\ny_max = -0.1\nn_points = 11\n"),  # inverted range
    ("experiment = nslit\n" + GEOM_KEYS
     + "y_min = -0.1\ny_max = 0.1\nn_points = 11\nopen_slits = 0, 9\n"),
    ("experiment = sorkin\n" + GEOM_KEYS  # two slits only
     + "y_min = -0.1\ny_max = 0.1\nn_points = 11\n"),
    "experiment = delayed\n" + GEOM_KEYS + "detector_y_um = 0\n",
    ("experiment = freq\nweights = 1, 1\nlabels = h, t\n"
     "schedule = 1000, 10\nseed = 1\n"),  # non-monotone schedule
    ("experiment = freq\nweights = 1, 1\nlabels = h, t\n"
     "schedule = 10, 100\nseed = 1\nbogus = 3\n"),  # unknown key
]


def test_criterion_11_cli_determinism_and_validation(tmp_path):
    identical = True
    for idx, text in enumerate(VALID_CONFIGS):
        cfg = tmp_path / f"v{idx}.cfg"
        cfg.write_text(text)
        outs = []
        for run in ("a", "b"):
            out = tmp_path / f"v{idx}_{run}"
            code = main(["run", "--config", str(cfg), "--out", str(out),
                         "--no-timestamp"])
            assert code == 0
            blobs = {}
            for suffix in (".json", ".csv"):
                p = out.with_suffix(suffix)
                if p.exists():
                    blobs[suffix] = p.read_bytes()
            outs.append(blobs)
        if outs[0] != outs[1]:
            identical = False

    valid_codes = []
    for idx, text in enumerate(VALID_CONFIGS):
        cfg = tmp_path / f"val{idx}.cfg"
        cfg.write_text(text)
        valid_codes.append(main(["validate", "--config", str(cfg)]))
    invalid_codes = []
    for idx, text in enumerate(INVALID_CONFIGS):
        cfg = tmp_path / f"inv{idx}.cfg"
        cfg.write_text(text)
        invalid_codes.append(main(["validate", "--config", str(cfg)]))

    ok = (identical and all(c == 0 for c in valid_codes)
          and all(c == 2 for c in invalid_codes))
    check(11, ok, f"byte-identical reruns={identical}, "
          f"{len(valid_codes)} valid configs exit 0, "
          f"{len(invalid_codes)} invalid configs exit 2")
