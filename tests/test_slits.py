import dataclasses
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

import amprob
from amprob import (
    InvariantError,
    SlitGeometry,
    UsageError,
    arrival_probability,
    born_probability,
    delayed_choice,
    fringe_spacing,
    intensity_profile,
    pairwise_interference,
    path_amplitude,
    refined_maxima,
    slits,
    sorkin_invariant,
)
from amprob.cli import main

WAVELENGTH = 500e-9
D = 10e-6
L = 1.0


def hexes(values):
    """The bits of each float of a float64 array, as `float.hex` texts."""
    return [x.hex() for x in values.tolist()]


def is_result_array(values, shape):
    """Whether `values` is a read-only float64 array of `shape`."""
    return isinstance(values, np.ndarray) and values.dtype == np.float64 \
        and values.shape == shape and not values.flags.writeable


def two_slit(wavelength=WAVELENGTH, d=D, screen=L, source_x=-1.0):
    return SlitGeometry(source=(source_x, 0.0), slit_plane_x=0.0,
                        slit_offsets=(-d / 2, d / 2),
                        screen_plane_x=screen, wavelength=wavelength)


def random_geometry(rng, n_slits):
    offsets = np.sort(rng.uniform(-40e-6, 40e-6, size=n_slits))
    while np.any(np.diff(offsets) < 1e-7):
        offsets = np.sort(rng.uniform(-40e-6, 40e-6, size=n_slits))
    return SlitGeometry(
        source=(-rng.uniform(0.3, 2.0), rng.uniform(-1e-5, 1e-5)),
        slit_plane_x=0.0,
        slit_offsets=tuple(float(o) for o in offsets),
        screen_plane_x=rng.uniform(0.3, 2.0),
        wavelength=rng.uniform(300e-9, 800e-9),
    )


def exact_path_difference(geom, y):
    """Independent oracle: exact Euclidean path-length difference between
    the two slits of a 2-slit geometry, source to screen point y."""
    sx, sy = geom.source
    lengths = []
    for off in geom.slit_offsets:
        l1 = math.dist((sx, sy), (geom.slit_plane_x, off))
        l2 = math.dist((geom.slit_plane_x, off), (geom.screen_plane_x, y))
        lengths.append(l1 + l2)
    return lengths[1] - lengths[0]


class TestGeometryValidation:
    def test_bad_wavelength(self):
        with pytest.raises(UsageError):
            two_slit(wavelength=-1)

    def test_bad_plane_order(self):
        with pytest.raises(UsageError):
            SlitGeometry(source=(1.0, 0.0), slit_plane_x=0.0,
                         slit_offsets=(0.0,), screen_plane_x=2.0,
                         wavelength=1e-6)

    def test_plane_order_names_the_misplaced_plane(self):
        with pytest.raises(UsageError) as exc:
            two_slit(source_x=0.5)
        assert exc.value.key == "source_x"
        with pytest.raises(UsageError) as exc:
            two_slit(screen=-0.5)
        assert exc.value.key == "screen_plane_x"

    def test_duplicate_open_slits_rejected(self):
        geom = two_slit()
        with pytest.raises(UsageError) as exc:
            arrival_probability(geom, 0.0, [0, 0])
        assert exc.value.key == "open_slits"
        with pytest.raises(UsageError) as exc:
            intensity_profile(geom, -0.01, 0.01, 11, [1, 1])
        assert exc.value.key == "open_slits"
        with pytest.raises(UsageError, match="j must differ from i") as exc:
            pairwise_interference(geom, 0.0, 1, 1)
        assert exc.value.key == "j"

    def test_kernel_argument_checks_name_their_key(self):
        geom = two_slit()
        three = SlitGeometry((-1.0, 0.0), 0.0, (-1e-5, 0.0, 1e-5), 1.0,
                             WAVELENGTH)
        for call, key in (
                (lambda: intensity_profile(geom, 0.1, -0.1, 11), "y_min"),
                (lambda: intensity_profile(geom, -0.1, 0.1, 1), "n_points"),
                (lambda: intensity_profile(geom, -0.1, 0.1, 2 ** 53 + 1),
                 "n_points"),
                (lambda: sorkin_invariant(three, 0.0, (0, 1, 1)), "triple"),
                (lambda: sorkin_invariant(three, 0.0, (0, 1)), "triple"),
                (lambda: sorkin_invariant(three, 0.0, (0, 1, 3)), "triple"),
                (lambda: delayed_choice(geom, [0.0]), "detector_y")):
            with pytest.raises(UsageError) as exc:
                call()
            assert exc.value.key == key

    def test_duplicate_offsets(self):
        with pytest.raises(UsageError):
            SlitGeometry(source=(-1.0, 0.0), slit_plane_x=0.0,
                         slit_offsets=(1e-6, 1e-6), screen_plane_x=1.0,
                         wavelength=1e-6)

    def test_no_slits(self):
        with pytest.raises(UsageError):
            SlitGeometry(source=(-1.0, 0.0), slit_plane_x=0.0,
                         slit_offsets=(), screen_plane_x=1.0,
                         wavelength=1e-6)


class TestPathAmplitude:
    def test_center_symmetry(self):
        geom = two_slit()
        p0 = path_amplitude(geom, 0, 0.0)
        p1 = path_amplitude(geom, 1, 0.0)
        assert p0.total.phase == pytest.approx(p1.total.phase, abs=1e-9)

    def test_single_slit_unit_probability(self):
        geom = SlitGeometry(source=(-1.0, 0.0), slit_plane_x=0.0,
                            slit_offsets=(0.0,), screen_plane_x=1.0,
                            wavelength=WAVELENGTH)
        for y in (-0.01, 0.0, 0.037):
            p = path_amplitude(geom, 0, y)
            assert born_probability(p.total) == pytest.approx(1.0, rel=1e-12)

    def test_total_is_leg_product(self):
        geom = two_slit()
        p = path_amplitude(geom, 1, 0.013)
        prod = (complex(p.leg_source_to_slit.re, p.leg_source_to_slit.im)
                * complex(p.leg_slit_to_screen.re, p.leg_slit_to_screen.im))
        assert p.total.re == pytest.approx(prod.real, abs=1e-15)
        assert p.total.im == pytest.approx(prod.imag, abs=1e-15)

    def test_first_dark_fringe_phase(self):
        # far field: first dark fringe at y = lambda * L / (2 d)
        geom = two_slit()
        y = WAVELENGTH * L / (2 * D)
        delta = exact_path_difference(geom, y)
        phase_diff = 2 * math.pi * delta / WAVELENGTH
        assert phase_diff == pytest.approx(-math.pi, rel=1e-3)
        p0 = path_amplitude(geom, 0, y)
        p1 = path_amplitude(geom, 1, y)
        engine_diff = p1.total.phase - p0.total.phase
        engine_diff = (engine_diff + math.pi) % (2 * math.pi) - math.pi
        assert abs(engine_diff) == pytest.approx(math.pi, rel=1e-3)

    def test_invalid_index(self):
        with pytest.raises(UsageError):
            path_amplitude(two_slit(), 5, 0.0)


class TestArrivalProbability:
    def test_constructive_center(self):
        geom = two_slit()
        both = arrival_probability(geom, 0.0, [0, 1])
        single = arrival_probability(geom, 0.0, [0])
        assert both == pytest.approx(4 * single, rel=1e-9)

    def test_dark_fringe_near_zero(self):
        geom = two_slit()
        y = WAVELENGTH * L / (2 * D)
        peak = arrival_probability(geom, 0.0, [0, 1])
        dark = arrival_probability(geom, y, [0, 1])
        assert dark <= 1e-3 * peak

    def test_single_slit_constant(self):
        geom = two_slit()
        values = [arrival_probability(geom, y, [1])
                  for y in np.linspace(-0.05, 0.05, 11)]
        assert max(values) - min(values) <= 1e-12

    def test_empty_open_set(self):
        with pytest.raises(UsageError):
            arrival_probability(two_slit(), 0.0, [])

    def test_dual_form_agreement_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            geom = random_geometry(rng, n)
            y = float(rng.uniform(-0.05, 0.05))
            k = int(rng.integers(1, n + 1))
            opened = list(rng.choice(n, size=k, replace=False))
            # raises InvariantError internally on disagreement
            p = arrival_probability(geom, y, opened)
            assert p >= 0.0

    def test_decomposition_consistency(self):
        geom = two_slit()
        rng = np.random.default_rng(23)
        for y in rng.uniform(-0.08, 0.08, size=50):
            both = arrival_probability(geom, y, [0, 1])
            p0 = arrival_probability(geom, y, [0])
            p1 = arrival_probability(geom, y, [1])
            cross = pairwise_interference(geom, y, 0, 1)
            assert both == pytest.approx(p0 + p1 + cross, abs=1e-12)


class TestPairwiseInterference:
    def test_bright_center(self):
        geom = two_slit()
        term = pairwise_interference(geom, 0.0, 0, 1)
        assert term == pytest.approx(1.0, rel=1e-9)  # 2 * (1/sqrt2)^2

    def test_quarter_period(self):
        geom = two_slit()
        # delta = pi/2 at y = lambda L / (4 d) in the far field
        y = WAVELENGTH * L / (4 * D)
        term = pairwise_interference(geom, y, 0, 1)
        assert abs(term) <= 5e-3

    def test_dark_fringe_negative(self):
        geom = two_slit()
        y = WAVELENGTH * L / (2 * D)
        term = pairwise_interference(geom, y, 0, 1)
        assert term == pytest.approx(-1.0, rel=1e-3)
        assert term < 0

    def test_self_term_rejected(self):
        with pytest.raises(UsageError):
            pairwise_interference(two_slit(), 0.0, 1, 1)

    def test_bound(self):
        rng = np.random.default_rng(5)
        geom = random_geometry(rng, 3)
        for y in rng.uniform(-0.05, 0.05, size=100):
            term = pairwise_interference(geom, y, 0, 2)
            assert abs(term) <= 2.0 / 3.0 + 1e-12  # 2 |A|^2 with |A|=1/sqrt3


class TestSorkin:
    def test_null_at_points(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            geom = random_geometry(rng, 3)
            y = float(rng.uniform(-0.05, 0.05))
            peak = arrival_probability(geom, 0.0, [0, 1, 2])
            i3 = sorkin_invariant(geom, y, (0, 1, 2))
            assert abs(i3) <= 1e-10 * max(peak, 1.0)

    def test_second_order_not_null(self):
        geom = two_slit()
        profile = intensity_profile(geom, -0.05, 0.05, 501)
        peak = max(profile.probabilities)
        terms = [abs(pairwise_interference(geom, y, 0, 1))
                 for y in profile.screen_points]
        assert max(terms) > 0.1 * peak

    def test_repeated_indices_rejected(self):
        rng = np.random.default_rng(1)
        geom = random_geometry(rng, 3)
        with pytest.raises(UsageError):
            sorkin_invariant(geom, 0.0, (0, 1, 1))


class TestIntensityProfile:
    def test_fringe_spacing_vs_exact_oracle(self):
        geom = two_slit()
        profile = intensity_profile(geom, -0.08, 0.08, 8001)
        # independent oracle: first maximum where the exact path-length
        # difference equals one wavelength
        y1 = brentq(lambda y: exact_path_difference(geom, y) + WAVELENGTH,
                    0.01, 0.08, xtol=1e-12)
        # the root is the closed form L*tan(arcsin(lambda/d))
        assert abs(y1) == pytest.approx(
            WAVELENGTH * L / math.sqrt(D * D - WAVELENGTH * WAVELENGTH),
            rel=1e-9)
        spacing = fringe_spacing(profile)
        assert spacing == pytest.approx(abs(y1), rel=1e-4)
        # far-field approximation lambda L / d holds to a few tenths of
        # a percent at this geometry (tan-vs-sin correction ~0.125%)
        assert spacing == pytest.approx(WAVELENGTH * L / D, rel=2e-3)

    def test_single_slit_flat(self):
        geom = two_slit()
        profile = intensity_profile(geom, -0.02, 0.02, 101, open_slits=[0])
        assert max(profile.probabilities) - min(profile.probabilities) \
            <= 1e-12

    def test_symmetric_profile_even(self):
        geom = two_slit()
        profile = intensity_profile(geom, -0.03, 0.03, 301)
        p = profile.probabilities
        for a, b in zip(p, reversed(p)):
            assert a == pytest.approx(b, abs=1e-12)

    def test_bad_range(self):
        with pytest.raises(UsageError):
            intensity_profile(two_slit(), 0.1, -0.1, 100)
        with pytest.raises(UsageError):
            intensity_profile(two_slit(), -0.1, 0.1, 1)

    def test_energy_check(self):
        geom = two_slit()
        lo, hi, n = -0.5, 0.5, 20001
        both = intensity_profile(geom, lo, hi, n)
        s0 = intensity_profile(geom, lo, hi, n, open_slits=[0])
        s1 = intensity_profile(geom, lo, hi, n, open_slits=[1])
        integ = lambda prof: np.trapezoid(prof.probabilities,
                                          prof.screen_points)
        assert integ(both) == pytest.approx(integ(s0) + integ(s1), rel=0.01)


class TestDelayedChoice:
    def test_symmetric_two_slit(self):
        geom = two_slit()
        report = delayed_choice(geom, [-D / 2, D / 2])
        assert report.per_detector_probability == \
            pytest.approx((0.5, 0.5), abs=1e-12)
        assert report.total == pytest.approx(1.0, abs=1e-12)
        assert report.interference_part == 0.0

    def test_single_slit(self):
        geom = SlitGeometry(source=(-1.0, 0.0), slit_plane_x=0.0,
                            slit_offsets=(0.0,), screen_plane_x=1.0,
                            wavelength=WAVELENGTH)
        report = delayed_choice(geom, [0.0])
        assert report.per_detector_probability[0] == \
            pytest.approx(1.0, rel=1e-12)

    def test_matches_cross_term_free_arrival(self):
        rng = np.random.default_rng(77)
        geom = random_geometry(rng, 3)
        detectors = list(geom.slit_offsets)
        report = delayed_choice(geom, detectors)
        for i, p in enumerate(report.per_detector_probability):
            assert p == pytest.approx(
                arrival_probability(geom, detectors[i], [i]), abs=1e-12)
        assert report.total == pytest.approx(
            sum(arrival_probability(geom, detectors[i], [i])
                for i in range(3)), abs=1e-12)

    def test_detector_count_mismatch(self):
        with pytest.raises(UsageError):
            delayed_choice(two_slit(), [0.0])

    def test_to_sample_space(self):
        report = delayed_choice(two_slit(), [-D / 2, D / 2])
        space = report.to_sample_space()
        assert space.is_normalized
        assert space.labels == ("slit_0", "slit_1")


def test_refined_maxima_on_cosine():
    y = np.linspace(0, 4 * math.pi, 400)
    p = 1 + np.cos(y)
    from amprob import IntensityProfile
    prof = IntensityProfile(screen_points=y, probabilities=p)
    peaks = refined_maxima(prof)
    assert len(peaks) == 1
    assert peaks[0] == pytest.approx(2 * math.pi, rel=1e-3)


def mp_probability(geom, y, opened):
    """50-digit oracle: exact-path amplitudes exp(2 pi i (L1 + L2) / lambda)
    / sqrt(n_slits), summed, then squared, from the geometry's binary
    values."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        sx, sy = (mpmath.mpf(v) for v in geom.source)
        x1, x2 = mpmath.mpf(geom.slit_plane_x), mpmath.mpf(geom.screen_plane_x)
        total = mpmath.mpc(0)
        for i in opened:
            off = mpmath.mpf(geom.slit_offsets[i])
            length = (mpmath.hypot(x1 - sx, off - sy)
                      + mpmath.hypot(x2 - x1, mpmath.mpf(y) - off))
            total += mpmath.expjpi(2 * length / mpmath.mpf(geom.wavelength))
        total /= mpmath.sqrt(geom.n_slits)
        return total.real ** 2 + total.imag ** 2


@pytest.mark.parametrize("geom, n_points", [
    (two_slit(), 2001),  # the README double slit
    (SlitGeometry(source=(-0.7, 2e-6), slit_plane_x=0.0,
                  slit_offsets=tuple(np.linspace(-35e-6, 35e-6, 8).tolist()),
                  screen_plane_x=1.3, wavelength=633e-9), 401),
])
def test_profile_against_mpmath_oracle(geom, n_points):
    pytest.importorskip("mpmath")
    opened = range(geom.n_slits)
    profile = intensity_profile(geom, -0.1, 0.1, n_points)
    worst = max(abs(p - float(mp_probability(geom, y, opened)))
                for y, p in zip(profile.screen_points,
                                profile.probabilities))
    # reducing full leg lengths mod lambda left ~3e-9 here
    assert worst <= 1e-10


def test_profile_equals_per_point_arrival():
    rng = np.random.default_rng(41)
    # 3001 points span several kernel blocks at every slit count
    for n in (1, 2, 3, 8, 40):
        geom = random_geometry(rng, n)
        k = max(1, n // 2)
        opened = sorted(rng.choice(n, size=k, replace=False).tolist())
        profile = intensity_profile(geom, -0.05, 0.05, 3001, opened)
        assert hexes(profile.probabilities) == [
            arrival_probability(geom, y, opened).hex()
            for y in profile.screen_points.tolist()]


def test_sorkin_array_equals_per_point_calls():
    rng = np.random.default_rng(43)
    geom = random_geometry(rng, 5)
    ys = np.linspace(-0.05, 0.05, 2501)
    residuals = sorkin_invariant(geom, ys, (3, 0, 4))
    assert is_result_array(residuals, (2501,))
    assert hexes(residuals) == [sorkin_invariant(geom, y, (3, 0, 4)).hex()
                                for y in ys.tolist()]
    assert is_result_array(sorkin_invariant(geom, [], (0, 1, 2)), (0,))


def test_unresolvable_phase_rejected():
    # at 2**52 wavelengths of excess path a float64 has no fractional bits,
    # so the phase mod 1 is 0 by fmod and by subtracting the integer part
    # alike; the seed engine wrote a flat, meaningless profile here
    with pytest.raises(UsageError, match="2\\*\\*52"):
        intensity_profile(two_slit(), 0.0, 1e10, 3)
    with pytest.raises(UsageError):
        intensity_profile(two_slit(), 0.0, 1e300, 3)


# float64 from +0.0 up to the largest value below 2**52, the range of
# excess paths the kernel reduces; bit patterns cover every binade
BELOW_2_52 = st.one_of(
    st.floats(0.0, np.nextafter(2.0 ** 52, 0.0)),
    st.integers(0, int(np.float64(2.0 ** 52).view(np.int64)) - 1).map(
        lambda i: float(np.int64(i).view(np.float64))))


@settings(max_examples=300, deadline=None)
@given(st.lists(BELOW_2_52, min_size=1, max_size=64))
@example([0.0, 5e-324, 1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52,
          np.nextafter(3.0, 0.0), 3.0, np.nextafter(3.0, 4.0),
          2.0 ** 51 + 0.5, np.nextafter(2.0 ** 52, 0.0)])
def test_subtracting_the_integer_part_is_fmod_bit_for_bit(xs):
    x = np.array(xs)
    assert np.array_equal((x - np.trunc(x)).view(np.int64),
                          np.fmod(x, 1.0).view(np.int64))


def test_leg_cycles_equal_an_fmod_reference_bit_for_bit():
    rng = np.random.default_rng(15)
    for n in (1, 2, 5, 8):
        geom = random_geometry(rng, n)
        # screen points up to 1e8 m out reach ~1e14 wavelengths of excess
        ys = np.concatenate([rng.uniform(-0.1, 0.1, 500),
                             rng.uniform(-1e8, 1e8, 20), [0.0]])
        opened = sorted(rng.choice(n, rng.integers(1, n + 1), replace=False))
        off = np.array([geom.slit_offsets[i] for i in opened])
        legs = ((geom.slit_plane_x - geom.source[0], off - geom.source[1]),
                (geom.screen_plane_x - geom.slit_plane_x, ys - off[:, None]))
        reference = [np.fmod(b * b / (np.hypot(a, b) + a) / geom.wavelength,
                             1.0) for a, b in legs]
        for got, want in zip(slits._leg_cycles(geom, ys, opened), reference):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


NSLIT_CFG = """\
experiment = nslit
wavelength_nm = 500
source_x = -1.0
screen_plane_x = 1.0
slit_offsets_um = -5, 5
y_min = -0.1
y_max = 0.1
n_points = 2001
"""
SORKIN_CFG = """\
experiment = sorkin
wavelength_nm = 500
source_x = -1.0
screen_plane_x = 1.0
slit_offsets_um = -10, 0, 10
y_min = -0.02
y_max = 0.02
n_points = 201
"""


def run_cli(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return main(["run", "--config", str(cfg), "--out",
                 str(tmp_path / "run"), "--no-timestamp"])


def test_dual_form_disagreement_raises(monkeypatch, tmp_path):
    monkeypatch.setattr(slits, "DUAL_FORM_RTOL", -1.0)
    with pytest.raises(InvariantError, match="at y=-0.1$"):
        intensity_profile(two_slit(), -0.1, 0.1, 11)
    assert run_cli(tmp_path, NSLIT_CFG) == 4


def test_cli_slit_runs_make_no_per_point_calls(monkeypatch, tmp_path):
    def per_point(*args, **kwargs):
        raise AssertionError("per-point arrival_probability call")

    monkeypatch.setattr(slits, "arrival_probability", per_point)
    monkeypatch.setattr(amprob, "arrival_probability", per_point)
    assert run_cli(tmp_path, NSLIT_CFG) == 0
    assert run_cli(tmp_path, SORKIN_CFG) == 0


def loop_refined_maxima(profile):
    """Reference: the per-point loop refined_maxima replaced."""
    y, p = profile.screen_points, profile.probabilities
    peaks = []
    for k in range(1, len(p) - 1):
        if p[k] > p[k - 1] and p[k] >= p[k + 1]:
            denom = p[k - 1] - 2.0 * p[k] + p[k + 1]
            if denom < 0:
                shift = 0.5 * (p[k - 1] - p[k + 1]) / denom
                peaks.append(y[k] + shift * (y[k + 1] - y[k]))
            else:
                peaks.append(y[k])
    return peaks


def loop_fringe_spacing(profile):
    """Reference: the median of sorted gaps fringe_spacing replaced."""
    peaks = loop_refined_maxima(profile)
    if len(peaks) < 2:
        return None
    gaps = sorted(b - a for a, b in zip(peaks, peaks[1:]))
    mid = len(gaps) // 2
    if len(gaps) % 2:
        return gaps[mid]
    return 0.5 * (gaps[mid - 1] + gaps[mid])


def test_peak_analysis_equals_loop_reference():
    from amprob import IntensityProfile
    rng = np.random.default_rng(47)
    profiles = [intensity_profile(two_slit(), -0.1, 0.1, 2001),
                intensity_profile(random_geometry(rng, 6), -0.05, 0.05, 999)]
    for n in (3, 4, 40, 41):
        # coarse levels give plateaus, so flat-topped peaks occur
        p = rng.integers(0, 4, size=n) / 3
        y = np.linspace(-1.0, 1.0, n)
        profiles.append(IntensityProfile(screen_points=y, probabilities=p))
    for profile in profiles:
        assert refined_maxima(profile) == loop_refined_maxima(profile)
        assert fringe_spacing(profile) == loop_fringe_spacing(profile)


def test_which_path_and_pair_terms_equal_the_inline_formulas():
    # reference: |a|^2 of each detector's own slit and 2 Re(a conj(b))
    # written out on the kernel's amplitudes
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        geom = random_geometry(rng, n)
        ys = rng.uniform(-0.05, 0.05, size=n)
        amps = np.diagonal(slits._amplitudes(geom, ys, range(n)))
        assert delayed_choice(geom, ys.tolist()).per_detector_probability \
            == tuple((amps.real * amps.real
                      + amps.imag * amps.imag).tolist())
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        y = float(ys[0])
        a, b = slits._amplitudes(geom, np.array([y]), [i, j])[:, 0]
        term = pairwise_interference(geom, y, j, i)
        assert type(term) is float
        assert term == float(2.0 * (a.real * b.real + a.imag * b.imag))


def test_sorkin_checks_the_dual_form(monkeypatch, tmp_path):
    monkeypatch.setattr(slits, "DUAL_FORM_RTOL", -1.0)
    geom = random_geometry(np.random.default_rng(16), 4)
    with pytest.raises(InvariantError):
        slits.sorkin_profile(geom, -0.02, 0.02, 11, (3, 0, 2))
    assert run_cli(tmp_path, SORKIN_CFG) == 4


def seven_call_sorkin_terms(geom, ys, triple, opened):
    """Reference: one `_born` per open subset of the triple, its rows in
    slit order."""
    a, b, c = triple

    def terms(amps, ys):
        p = lambda *idx: slits._born(
            amps[sorted(map(opened.index, idx))], ys)
        abc = p(a, b, c)
        return abc, abc - p(a, b) - p(a, c) - p(b, c) + p(a) + p(b) + p(c)

    return slits._blockwise(terms, geom, ys, opened, (2,))


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 8), st.integers(0, 3000), st.integers(0, 2 ** 32))
def test_sorkin_terms_equal_the_seven_call_form_bit_for_bit(n_slits,
                                                            n_points, seed):
    # 3000 points of three slits span three 4096-cell kernel blocks
    rng = np.random.default_rng(seed)
    geom = random_geometry(rng, n_slits)
    triple = rng.choice(n_slits, size=3, replace=False).tolist()
    ys = rng.uniform(-0.05, 0.05, n_points)
    opened = slits.check_triple(geom, triple)
    got = slits._sorkin_terms(geom, ys, triple, opened)
    want = seven_call_sorkin_terms(geom, ys, triple, opened)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_sorkin_terms_make_four_dual_form_checks_per_block(monkeypatch):
    # the triple, then its three pairs, each through the one chain rule
    # and over its block's points, which name the point at fault
    checks = []
    check = slits._check_dual_form

    def counted(direct, pairwise, ys):
        checks.append((len(direct), ys.tolist()))
        return check(direct, pairwise, ys)

    monkeypatch.setattr(slits, "_check_dual_form", counted)
    geom = random_geometry(np.random.default_rng(4), 5)
    ys = np.linspace(-0.05, 0.05, 3000)
    slits._sorkin_terms(geom, ys, (4, 0, 2), [0, 2, 4])
    # 3000 points of three slits make blocks of 1365, 1365 and 270
    blocks = [ys[:1365].tolist(), ys[1365:2730].tolist(), ys[2730:].tolist()]
    assert checks == [(len(b), b) for b in blocks for _ in range(4)]


def point_major_born(geom, ys, opened):
    """Reference: the arrival probability as the kernel formed it with
    points as rows and open slits as columns, |cumsum along a row|^2."""
    off = np.array([geom.slit_offsets[i] for i in opened])
    cycles = []
    for a, b in ((geom.slit_plane_x - geom.source[0], off - geom.source[1]),
                 (geom.screen_plane_x - geom.slit_plane_x, ys[:, None] - off)):
        c = b * b / (np.hypot(a, b) + a) / geom.wavelength
        cycles.append(c - np.trunc(c))
    phase = (2.0 * math.pi) * (cycles[0] + cycles[1])
    mag = 1.0 / math.sqrt(geom.n_slits)
    amps = np.empty(phase.shape, dtype=complex)
    amps.real, amps.imag = mag * np.cos(phase), mag * np.sin(phase)
    total = np.cumsum(amps, axis=1)[:, -1]
    return total.real * total.real + total.imag * total.imag


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 700), st.integers(0, 2 ** 32))
def test_born_blocks_equal_the_point_major_form_bit_for_bit(n_slits,
                                                            n_points, seed):
    # 700 points of 6 or more open slits span more than one kernel block
    rng = np.random.default_rng(seed)
    geom = random_geometry(rng, n_slits)
    opened = sorted(rng.choice(n_slits, rng.integers(1, n_slits + 1),
                               replace=False).tolist())
    ys = rng.uniform(-0.05, 0.05, n_points)
    got = slits._blockwise(slits._born, geom, ys, opened)
    want = point_major_born(geom, ys, opened)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("y, match", [(math.nan, "finite"),
                                      (math.inf, "finite"),
                                      (-math.inf, "finite"),
                                      (1e10, "2\\*\\*52"),
                                      ("0.0", "real number"),
                                      ({}, "real number"),
                                      ([[0.0], 0.0], "real number")],
                         ids=["nan", "inf", "-inf", "1e10", "numeric_text",
                              "dict", "ragged"])
@pytest.mark.parametrize("call", [
    lambda geom, y: arrival_probability(geom, y, [0, 2]),
    lambda geom, y: path_amplitude(geom, 1, y),
    lambda geom, y: pairwise_interference(geom, y, 2, 0),
    lambda geom, y: sorkin_invariant(geom, y, (2, 0, 1)),
    lambda geom, y: sorkin_invariant(geom, [0.0, y, 0.01], (2, 0, 1)),
], ids=["arrival_probability", "path_amplitude", "pairwise_interference",
        "sorkin_invariant", "sorkin_invariant_sequence"])
def test_a_bad_screen_point_is_named_by_y(call, y, match):
    geom = SlitGeometry((-1.0, 0.0), 0.0, (-1e-5, 0.0, 1e-5), 1.0,
                        WAVELENGTH)
    with pytest.raises(UsageError, match=match) as exc:
        call(geom, y)
    assert exc.value.key == "y"


def test_unresolvable_phase_names_its_key_before_the_kernel_runs():
    with pytest.raises(UsageError, match="2\\*\\*52") as exc:
        two_slit(wavelength=1e-320)
    assert exc.value.key == "wavelength"
    geom = two_slit()
    for lo, hi, key in ((-1e10, 0.0, "y_min"), (0.0, 1e10, "y_max")):
        with pytest.raises(UsageError, match="2\\*\\*52") as exc:
            slits.check_profile(geom, lo, hi, 3)
        assert exc.value.key == key
    with pytest.raises(UsageError, match="2\\*\\*52") as exc:
        slits.check_detectors(geom, [0.0, 1e10])
    assert exc.value.key == "detector_y"
    # a NaN detector between two others is named too
    three = SlitGeometry((-1.0, 0.0), 0.0, (-1e-5, 0.0, 1e-5), 1.0, 5e-7)
    with pytest.raises(UsageError) as exc:
        slits.check_detectors(three, [-1e-5, math.nan, 1e-5])
    assert exc.value.key == "detector_y"
    # the grid ends bound every interior point: a passing check means the
    # kernel resolves each phase
    slits.check_profile(geom, -1e6, 1e6, 3)
    assert len(intensity_profile(geom, -1e6, 1e6, 1001).probabilities) \
        == 1001


# wide enough that screen ends up to ~1e150 m keep a resolvable phase
WIDE_GEOMETRY = SlitGeometry((-1.0, 0.0), 0.0, (0.0,), 1.0, 1e100)
ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)  # subnormals too


@st.composite
def screen_ranges(draw):
    """(y_min, y_max, n_points): independent ends, or a step of a few ulps
    of y_min, so grids near the float64 limit come up often."""
    y_min = draw(ANY_FLOAT)
    n_points = draw(st.integers(2, 2 ** 16))
    if draw(st.booleans()):
        return y_min, draw(ANY_FLOAT), n_points
    step = draw(st.integers(1, 16)) * math.ulp(y_min)
    return y_min, y_min + step * (n_points - 1), n_points


@settings(max_examples=500, deadline=None)
@given(screen_ranges())
@example((0.0, 5e-324, 5))
@example((0.0, 2.47e-322, 12))  # subnormal step 4.5 ulps: y[10] > y[11]
@example((1.0, 1.0000000000000002, 3))  # step of half an ulp
def test_accepted_grids_strictly_increase(grid):
    y_min, y_max, n_points = grid
    try:
        slits.check_profile(WIDE_GEOMETRY, y_min, y_max, n_points)
    except UsageError:
        return
    assert np.all(np.diff(np.linspace(y_min, y_max, n_points)) > 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.floats(0.3e-6, 5e-6), st.floats(4e-7, 8e-7),
       st.floats(0.2, 2.0), st.floats(0.005, 0.1), st.integers(2, 4000),
       st.randoms(use_true_random=False))
def test_sorkin_profile_equals_profile_and_invariant(n_slits, spacing,
                                                     wavelength, screen,
                                                     half, n_points, rnd):
    # 4000 points span three kernel blocks of three slits
    offsets = tuple((i - n_slits / 2 + rnd.uniform(0.0, 0.3)) * spacing
                    for i in range(n_slits))
    geom = SlitGeometry(source=(-rnd.uniform(0.5, 2.0), 0.0),
                        slit_plane_x=0.0, slit_offsets=offsets,
                        screen_plane_x=screen, wavelength=wavelength)
    triple = rnd.sample(range(n_slits), 3)
    profile, residuals = slits.sorkin_profile(geom, -half, half, n_points,
                                              triple)
    reference = intensity_profile(geom, -half, half, n_points, triple)
    bits = lambda xs: [x.hex() for x in xs]
    assert bits(profile.screen_points) == bits(reference.screen_points)
    assert bits(profile.probabilities) == bits(reference.probabilities)
    assert bits(residuals) == bits(sorkin_invariant(
        geom, reference.screen_points, triple))


def test_sorkin_profile_names_the_key_at_fault():
    geom = SlitGeometry(source=(-1.0, 0.0), slit_plane_x=0.0,
                        slit_offsets=(-1e-5, 0.0, 1e-5),
                        screen_plane_x=1.0, wavelength=WAVELENGTH)
    for args, key in (((-0.1, 0.1, 11, (0, 1, 1)), "triple"),
                      ((-0.1, 0.1, 11, (0, 1)), "triple"),
                      ((0.1, -0.1, 11, (2, 0, 1)), "y_min"),
                      ((-0.1, 0.1, 1, (2, 0, 1)), "n_points")):
        with pytest.raises(UsageError) as err:
            slits.sorkin_profile(geom, *args)
        assert err.value.key == key


THREE_SLITS = SlitGeometry((-1.0, 0.0), 0.0, (-1e-5, 0.0, 1e-5), 1.0,
                           WAVELENGTH)


@pytest.mark.parametrize("y_min, y_max, n_points, key", [
    (-math.inf, 0.0, 10, "y_min"),  # before the grid-step rule
    (0.0, math.inf, 10, "y_max"),
    (math.nan, 0.0, 10, "y_min"),
    (0.0, math.nan, 10, "y_max"),  # before the order rule
    (-0.1, 0.1, 10.0, "n_points"),  # before numpy reads it
    (-0.1, 0.1, "10", "n_points"),
    ("a", 0.1, 10, "y_min"),
    ("-0.1", "0.1", 10, "y_min"),  # numeric text is no number either
    (-0.1, "0.1", 10, "y_max"),
    ([[-0.1], -0.1], 0.1, 10, "y_min"),
    (-0.1, {}, 10, "y_max"),
    ([-0.1], 0.1, 10, "y_min"),
], ids=["-inf", "inf", "nan_min", "nan_max", "float_n", "str_n", "str_min",
        "numeric_text", "numeric_text_max", "ragged_min", "dict_max",
        "list_min"])
@pytest.mark.parametrize("call", [
    lambda geom, *grid: intensity_profile(geom, *grid),
    lambda geom, *grid: slits.sorkin_profile(geom, *grid, (0, 1, 2)),
], ids=["intensity_profile", "sorkin_profile"])
def test_a_bad_grid_is_named_by_its_key(call, y_min, y_max, n_points, key):
    with pytest.raises(UsageError) as exc:
        call(THREE_SLITS, y_min, y_max, n_points)
    assert exc.value.key == key


BAD_REALS = {
    "numeric_text": "5e-07", "ragged": [[5e-7], 5e-7], "dict": {},
    "nested": [[5e-7]],
    # numpy keeps both as objects
    "text_item": [Fraction(1, 10 ** 7), "5e-07"],
}
REAL_ARGUMENTS = {
    "wavelength": (lambda v: dataclasses.replace(two_slit(), wavelength=v),
                   "wavelength"),
    "source_x": (lambda v: dataclasses.replace(two_slit(), source=(v, 0.0)),
                 "source_x"),
    "source_y": (lambda v: dataclasses.replace(two_slit(), source=(-1.0, v)),
                 "source_y"),
    "slit_plane_x": (lambda v: dataclasses.replace(two_slit(),
                                                   slit_plane_x=v),
                     "slit_plane_x"),
    "screen_plane_x": (lambda v: dataclasses.replace(two_slit(),
                                                     screen_plane_x=v),
                       "screen_plane_x"),
    "slit_offsets": (lambda v: dataclasses.replace(two_slit(),
                                                   slit_offsets=v),
                     "slit_offsets"),
    "check_detectors": (lambda v: slits.check_detectors(two_slit(), v),
                        "detector_y"),
    "delayed_choice": (lambda v: delayed_choice(two_slit(), v),
                       "detector_y"),
}
# a source that is no pair of items
BAD_SOURCES = {"one_item": (-1.0,), "three_items": (-1.0, 0.0, 5.0),
               "number": -1.0, "text": "ab"}


@pytest.mark.parametrize("call, key, value", [
    pytest.param(call, key, value, id=f"{name}-{value_id}")
    for name, (call, key) in REAL_ARGUMENTS.items()
    for value_id, value in BAD_REALS.items()
] + [
    pytest.param(lambda v: dataclasses.replace(two_slit(), source=v),
                 "source", value, id=f"source-{value_id}")
    for value_id, value in BAD_SOURCES.items()
])
def test_a_bad_geometry_or_detector_is_named_by_its_key(call, key, value):
    with pytest.raises(UsageError, match="real number") as exc:
        call(value)
    assert exc.value.key == key


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["wavelength", "source_x", "source_y",
                                  "slit_plane_x", "screen_plane_x",
                                  "slit_offsets", "check_detectors",
                                  "delayed_choice"])
def test_a_non_finite_geometry_length_is_named_by_its_key(name, value):
    # an infinite screen_plane_x would give 2 - 4e-16 at every point, the
    # excess-path rule would name a non-finite source_y `wavelength`, and
    # a NaN detector read "excess path nan wavelengths"
    call, key = REAL_ARGUMENTS[name]
    sequence = name in ("slit_offsets", "check_detectors", "delayed_choice")
    with pytest.raises(UsageError, match=f"{key} must be finite") as exc:
        call((0.0, value) if sequence else value)
    assert exc.value.key == key


@pytest.mark.parametrize("index", [1.0, 0.5, "1", None])
@pytest.mark.parametrize("call, key", [
    (lambda geom, i: intensity_profile(geom, -0.1, 0.1, 11, [0, i]),
     "open_slits"),
    (lambda geom, i: arrival_probability(geom, 0.0, [i, 2]), "open_slits"),
    (lambda geom, i: path_amplitude(geom, i, 0.0), "slit"),
    (lambda geom, i: pairwise_interference(geom, 0.0, i, 2), "i"),
    (lambda geom, i: pairwise_interference(geom, 0.0, 2, i), "j"),
    (lambda geom, i: sorkin_invariant(geom, 0.0, (0, i, 2)), "triple"),
    (lambda geom, i: slits.sorkin_profile(geom, -0.1, 0.1, 11, (0, i, 2)),
     "triple"),
], ids=["intensity_profile", "arrival_probability", "path_amplitude",
        "pairwise_interference", "pairwise_interference_j",
        "sorkin_invariant", "sorkin_profile"])
def test_a_slit_index_must_be_an_int(call, key, index):
    # before any index reaches the kernel's tuple of slit offsets
    with pytest.raises(UsageError, match="not an int") as exc:
        call(THREE_SLITS, index)
    assert exc.value.key == key


@pytest.mark.parametrize("call, key", [
    (lambda geom: sorkin_invariant(geom, 0.0, 5), "triple"),
    (lambda geom: sorkin_invariant(geom, 0.0, (i for i in range(3))),
     "triple"),
    (lambda geom: slits.sorkin_profile(geom, -0.01, 0.01, 11, None),
     "triple"),
    (lambda geom: intensity_profile(geom, -0.01, 0.01, 11, 3), "open_slits"),
], ids=["int_triple", "generator_triple", "none_triple", "int_open_slits"])
def test_a_bad_slit_index_container_is_named_by_its_key(call, key):
    # each raised a bare TypeError from len() or list()
    with pytest.raises(UsageError) as exc:
        call(THREE_SLITS)
    assert exc.value.key == key


def test_numpy_ints_are_taken_as_slit_indices_and_point_counts():
    one, ten = np.int64(1), np.int64(10)
    a, b = (intensity_profile(THREE_SLITS, -0.1, 0.1, n, [0, i])
            for n, i in ((ten, one), (10, 1)))
    assert (hexes(a.screen_points), hexes(a.probabilities)) == \
        (hexes(b.screen_points), hexes(b.probabilities))
    assert sorkin_invariant(THREE_SLITS, 0.01, (0, one, 2)) == \
        sorkin_invariant(THREE_SLITS, 0.01, (0, 1, 2))


def test_a_grid_beyond_physical_memory_is_named_by_n_points(monkeypatch):
    # the memory reading is patched, so no grid is allocated
    monkeypatch.setattr(slits, "_physical_memory", lambda: 16 * 1000)
    geom = two_slit()
    assert slits.check_profile(geom, -0.1, 0.1, 1000) == [0, 1]
    for call in (slits.check_profile, intensity_profile):
        with pytest.raises(UsageError, match="n_points 1001 needs at least "
                           "16016 bytes, more than this machine's 16000$"
                           ) as exc:
            call(geom, -0.1, 0.1, 1001)
        assert exc.value.key == "n_points"
    three = SlitGeometry((-1.0, 0.0), 0.0, (-1e-5, 0.0, 1e-5), 1.0, 5e-7)
    with pytest.raises(UsageError) as exc:
        slits.sorkin_profile(three, -0.1, 0.1, 1001, (0, 1, 2))
    assert exc.value.key == "n_points"
    monkeypatch.setattr(slits, "_physical_memory", lambda: None)
    assert slits.check_profile(geom, -1e6, 1e6, 10 ** 12) == [0, 1]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
def test_a_run_holds_its_grid_as_float64_arrays(tmp_path):
    # 10**6 points may cost less than 48 bytes each of peak RSS over
    # 2,001 points. The grid and its probabilities are 16; two whole
    # columns of Python floats cost about 99. A child's ru_maxrss starts
    # from the RSS of the process that forked it, so each run is the only
    # child of a small Python process, which reports it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    report = ("import resource, subprocess, sys; "
              "subprocess.run(sys.argv[1:], check=True); "
              "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")

    def peak_rss(n_points):
        cfg = tmp_path / f"{n_points}.cfg"
        cfg.write_text(NSLIT_CFG.replace("n_points = 2001",
                                         f"n_points = {n_points}"))
        run = subprocess.run([
            sys.executable, "-c", report, sys.executable, "-m", "amprob",
            "run", "--config", str(cfg), "--out", str(tmp_path / "run"),
            "--no-timestamp"], env=env, capture_output=True, text=True,
            check=True, timeout=300)
        return int(run.stdout.split()[-1]) * 1024

    small, large = peak_rss(2001), peak_rss(10 ** 6)
    assert large - small < 48 * (10 ** 6 - 2001)


def test_results_are_read_only_float64_arrays():
    three = SlitGeometry((-1.0, 0.0), 0.0, (-1e-5, 0.0, 1e-5), 1.0, 5e-7)
    profile = intensity_profile(three, -0.1, 0.1, 11)
    sorkin, residuals = slits.sorkin_profile(three, -0.1, 0.1, 7, (0, 1, 2))
    report = amprob.convergence_report(amprob.classical_space(
        [1, 2, 3], ["a", "b", "c"]), [10, 100, 1000, 10000], 1)
    for values, shape in ((profile.screen_points, (11,)),
                          (profile.probabilities, (11,)),
                          (sorkin.screen_points, (7,)),
                          (sorkin.probabilities, (7,)), (residuals, (7,)),
                          (sorkin_invariant(three, [0.0, 0.1], (0, 1, 2)),
                           (2,)),
                          (report.estimates, (4, 3)),
                          (report.errors, (4, 3)),
                          (report.max_errors, (4,))):
        assert is_result_array(values, shape)
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0
    # equality is identity, not a comparison of arrays
    assert profile == profile and profile != dataclasses.replace(profile)
    assert report == report and report != dataclasses.replace(report)


def test_physical_memory_is_what_sysconf_tells(monkeypatch):
    names = ("SC_PHYS_PAGES", "SC_PAGE_SIZE")
    if hasattr(os, "sysconf") and set(names) <= set(os.sysconf_names):
        assert slits._physical_memory() == \
            os.sysconf(names[0]) * os.sysconf(names[1]) > 0

    def unnamed(name):
        raise ValueError("unrecognized configuration name")

    for sysconf in (unnamed, lambda name: -1,
                    lambda name: {"SC_PHYS_PAGES": 4}.get(name, 0)):
        monkeypatch.setattr(slits.os, "sysconf", sysconf, raising=False)
        assert slits._physical_memory() is None
    monkeypatch.setattr(slits.os, "sysconf", lambda name: 4096)
    assert slits._physical_memory() == 4096 * 4096
    monkeypatch.delattr(slits.os, "sysconf")
    assert slits._physical_memory() is None


def test_median_spacing_is_the_fringe_spacing_rule():
    assert slits.median_spacing([]) is None
    assert slits.median_spacing([0.5]) is None
    assert slits.median_spacing([0.0, 1.0, 3.0, 7.0]) == 2.0
    assert slits.median_spacing([0.0, 1.0, 3.0]) == 1.5
    profile = intensity_profile(two_slit(), -0.08, 0.08, 2001)
    assert fringe_spacing(profile) == \
        slits.median_spacing(refined_maxima(profile))
