import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amprob import (
    Amplitude,
    DomainError,
    SampleSpace,
    SlitGeometry,
    UsageError,
    arrival_probability,
    born_probability,
    combine_exclusive,
    combine_independent,
    conjugate,
    delayed_choice,
    intensity_profile,
    interference_term,
    pairwise_interference,
    path_amplitude,
    slits,
    sorkin_invariant,
    union_decomposition,
)

finite = st.floats(min_value=-1e6, max_value=1e6,
                   allow_nan=False, allow_infinity=False)
amplitudes = st.builds(Amplitude, finite, finite)


def test_conjugate_examples():
    assert conjugate(Amplitude(0.6, 0.8)) == Amplitude(0.6, -0.8)
    assert conjugate(Amplitude(1, 0)) == Amplitude(1, -0.0)
    assert conjugate(Amplitude(0, 1)) == Amplitude(0, -1)


def test_non_finite_rejected():
    with pytest.raises(DomainError):
        Amplitude(float("nan"), 0.0)
    with pytest.raises(DomainError):
        Amplitude(0.0, float("inf"))


def test_numpy_parts_are_stored_as_floats():
    a = Amplitude(np.float64(0.6), 1)
    assert type(a.re) is float and type(a.im) is float
    assert a == Amplitude(0.6, 1.0)
    # a numpy part would overflow with numpy's RuntimeWarning when squared
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            SampleSpace(("a",), (Amplitude(np.float64(1e200), 0.0),))


GEOM = SlitGeometry((-1.0, 0.0), 0.0, (-5e-6, 5e-6), 1.0, 5e-7)
GEOM3 = SlitGeometry((-1.0, 0.0), 0.0, (-1e-5, 0.0, 1e-5), 1.0, 5e-7)


@pytest.mark.parametrize("big", [10 ** 400, 10 ** 5000],
                         ids=["400_digits", "past_repr_limit"])
@pytest.mark.parametrize("build, error, key", [
    (lambda big: Amplitude(big, 0), DomainError, None),
    (lambda big: Amplitude(0.0, -big), DomainError, None),
    (lambda big: Amplitude.from_polar(big, 0.0), DomainError, None),
    (lambda big: Amplitude.from_polar(1.0, big), DomainError, None),
    (lambda big: union_decomposition(big, 0.0, 0.0), DomainError, None),
    (lambda big: SlitGeometry((-1.0, 0.0), 0.0, (0.0,), 1.0, big),
     UsageError, "wavelength"),
    (lambda big: SlitGeometry((-big, 0.0), 0.0, (0.0,), 1.0, 5e-7),
     UsageError, "source_x"),
    (lambda big: SlitGeometry((-1.0, big), 0.0, (0.0,), 1.0, 5e-7),
     UsageError, "source_y"),
    (lambda big: SlitGeometry((-1.0, 0.0), 0.0, (0.0, big), 1.0, 5e-7),
     UsageError, "slit_offsets"),
    (lambda big: slits.check_profile(GEOM, -0.1, big, 11), UsageError,
     "y_max"),
    (lambda big: intensity_profile(GEOM, -big, 0.1, 11), UsageError,
     "y_min"),
    (lambda big: slits.sorkin_profile(GEOM3, -big, big, 11, (0, 1, 2)),
     UsageError, "y_min"),
    (lambda big: slits.check_detectors(GEOM, [0.0, big]), UsageError,
     "detector_y"),
    (lambda big: delayed_choice(GEOM, [-big, 0.0]), UsageError,
     "detector_y"),
    (lambda big: arrival_probability(GEOM, big, [0, 1]), UsageError, "y"),
    (lambda big: path_amplitude(GEOM, 0, -big), UsageError, "y"),
    (lambda big: pairwise_interference(GEOM, big, 0, 1), UsageError, "y"),
    (lambda big: sorkin_invariant(GEOM3, [0.0, big], (0, 1, 2)),
     UsageError, "y"),
], ids=["re", "im", "magnitude", "phase", "union", "wavelength", "source_x",
        "source_y", "slit_offset", "check_profile", "intensity_profile",
        "sorkin_profile", "check_detectors", "delayed_choice",
        "arrival_probability", "path_amplitude", "pairwise_interference",
        "sorkin_invariant"])
def test_an_int_beyond_float64_raises_the_library_error(build, error, key,
                                                        big):
    # the message leaves the int unprinted: past 4,300 digits its repr
    # raises ValueError
    with pytest.raises(error, match="beyond float64") as exc:
        build(big)
    assert getattr(exc.value, "key", None) == key
    assert "0000" not in str(exc.value)


@pytest.mark.parametrize("build, key", [
    (lambda: Amplitude("1", 0.0), None),
    (lambda: Amplitude(1j, 0.0), None),
    (lambda: Amplitude.from_polar("1", 0.0), None),
    (lambda: combine_exclusive([1.0]), "amps"),
    (lambda: combine_independent([1.0]), "amps"),
    (lambda: combine_exclusive(5), "amps"),
], ids=["text_part", "complex_part", "text_magnitude", "exclusive_float",
        "independent_float", "exclusive_int"])
def test_an_input_that_is_no_amplitude_raises_a_usage_error(build, key):
    # each raised a bare TypeError or AttributeError
    with pytest.raises(UsageError) as exc:
        build()
    assert exc.value.key == key


def test_born_examples():
    assert born_probability(Amplitude(0.6, 0.8)) == pytest.approx(1.0, abs=1e-15)
    assert born_probability(Amplitude(0, 0)) == 0.0
    a = Amplitude.from_polar(1 / math.sqrt(2), math.pi / 7)
    assert born_probability(a) == pytest.approx(0.5, rel=1e-15)


def test_combine_exclusive_examples():
    assert combine_exclusive([Amplitude(1, 0), Amplitude(0, 1)]) == Amplitude(1, 1)
    a = Amplitude(0.3, -0.4)
    assert combine_exclusive([a, Amplitude(0, 0)]) == a
    s = combine_exclusive([Amplitude(1 / math.sqrt(2), 0),
                           Amplitude(-1 / math.sqrt(2), 0)])
    assert born_probability(s) == 0.0


def test_combine_exclusive_empty():
    with pytest.raises(UsageError):
        combine_exclusive([])


def test_combine_independent_examples():
    a = Amplitude.from_polar(1 / math.sqrt(2), 0.3)
    b = Amplitude.from_polar(1 / math.sqrt(2), -1.1)
    prod = combine_independent([a, b])
    assert prod.magnitude == pytest.approx(0.5, rel=1e-12)
    assert born_probability(prod) == pytest.approx(0.25, rel=1e-12)

    c = Amplitude(0.2, 0.7)
    assert combine_independent([c, Amplitude(1, 0)]) == c

    p = combine_independent([Amplitude.from_polar(0.5, math.pi / 3),
                             Amplitude.from_polar(0.5, math.pi / 6)])
    assert p.magnitude == pytest.approx(0.25, rel=1e-12)
    assert p.phase == pytest.approx(math.pi / 2, rel=1e-12)


def test_combine_independent_empty():
    with pytest.raises(UsageError):
        combine_independent([])


def test_interference_examples():
    m = 1 / math.sqrt(2)
    a = Amplitude.from_polar(m, 0.0)
    assert interference_term(a, Amplitude.from_polar(m, math.pi / 2)) == \
        pytest.approx(0.0, abs=1e-12)
    assert interference_term(a, Amplitude.from_polar(m, 0.0)) == \
        pytest.approx(1.0, rel=1e-12)
    assert interference_term(a, Amplitude.from_polar(m, math.pi)) == \
        pytest.approx(-1.0, rel=1e-12)


def test_phase_canonical_range():
    assert Amplitude(-1.0, -0.0).phase == math.pi
    assert Amplitude(-1.0, 0.0).phase == math.pi
    assert Amplitude(0.0, 0.0).phase == 0.0
    a = Amplitude(1.0, -1.0)
    assert -math.pi < a.phase <= math.pi


@given(amplitudes)
def test_double_conjugation_is_identity(a):
    assert conjugate(conjugate(a)) == a


@given(amplitudes)
def test_born_positivity_and_magnitude(a):
    p = born_probability(a)
    assert p >= 0.0
    mag2 = a.magnitude ** 2
    assert abs(p - mag2) <= 1e-15 * max(p, mag2, 1e-300)


@given(amplitudes, finite)
def test_phase_invariance(a, delta):
    rotated = Amplitude.from_polar(a.magnitude, a.phase + delta)
    assert born_probability(rotated) == \
        pytest.approx(born_probability(a), rel=1e-12, abs=1e-15)


@given(amplitudes)
def test_conjugate_product_is_real_and_magnitude_squared(a):
    # conj(a) * a via the structural form
    p = born_probability(a)
    z = complex(a.re, -a.im) * complex(a.re, a.im)
    assert p == pytest.approx(z.real, rel=1e-14, abs=1e-300)


@settings(max_examples=1000)
@given(amplitudes, amplitudes)
def test_expansion_identity(a1, a2):
    total = combine_exclusive([a1, a2])
    lhs = born_probability(total)
    rhs = born_probability(a1) + born_probability(a2) + \
        interference_term(a1, a2)
    # rounding scales with the largest intermediate term, not the result
    scale = max(1.0, born_probability(a1), born_probability(a2))
    assert abs(lhs - rhs) <= 1e-12 * scale


@given(st.lists(st.builds(Amplitude,
                          st.floats(min_value=-2, max_value=2),
                          st.floats(min_value=-2, max_value=2)),
                min_size=1, max_size=6))
def test_product_rule(amps):
    lhs = born_probability(combine_independent(amps))
    rhs = 1.0
    for a in amps:
        rhs *= born_probability(a)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@given(amplitudes, amplitudes)
def test_interference_closed_form(a1, a2):
    term = interference_term(a1, a2)
    bound = 2 * a1.magnitude * a2.magnitude
    expected = bound * math.cos(a2.phase - a1.phase)
    assert abs(term - expected) <= 1e-12 * max(1.0, bound)
    assert abs(term) <= bound * (1 + 1e-12) + 1e-15


def test_from_polar_rejects_a_negative_magnitude():
    with pytest.raises(DomainError, match="non-negative"):
        Amplitude.from_polar(-1.0, 0.0)
