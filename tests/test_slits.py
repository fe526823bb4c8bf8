import math

import numpy as np
import pytest
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
    y = tuple(np.linspace(0, 4 * math.pi, 400))
    p = tuple(1 + np.cos(np.array(y)))
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
        assert profile.probabilities == tuple(
            arrival_probability(geom, y, opened)
            for y in profile.screen_points)


def test_sorkin_array_equals_per_point_calls():
    rng = np.random.default_rng(43)
    geom = random_geometry(rng, 5)
    ys = np.linspace(-0.05, 0.05, 2501)
    residuals = sorkin_invariant(geom, ys, (3, 0, 4))
    assert isinstance(residuals, tuple)
    assert all(type(r) is float for r in residuals)
    assert residuals == tuple(sorkin_invariant(geom, float(y), (3, 0, 4))
                              for y in ys)
    assert sorkin_invariant(geom, [], (0, 1, 2)) == ()


def test_unresolvable_phase_rejected():
    # past 2**52 wavelengths of excess path fmod returns only 0; the seed
    # engine wrote a flat, meaningless profile here
    with pytest.raises(UsageError, match="2\\*\\*52"):
        intensity_profile(two_slit(), 0.0, 1e10, 3)
    with pytest.raises(UsageError):
        intensity_profile(two_slit(), 0.0, 1e300, 3)


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
        p = tuple(float(v) for v in rng.integers(0, 4, size=n) / 3)
        y = tuple(np.linspace(-1.0, 1.0, n).tolist())
        profiles.append(IntensityProfile(screen_points=y, probabilities=p))
    for profile in profiles:
        assert refined_maxima(profile) == loop_refined_maxima(profile)
        assert fringe_spacing(profile) == loop_fringe_spacing(profile)
