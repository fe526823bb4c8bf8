import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amprob import (
    Amplitude,
    DomainError,
    UsageError,
    born_probability,
    combine_exclusive,
    combine_independent,
    conjugate,
    interference_term,
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
