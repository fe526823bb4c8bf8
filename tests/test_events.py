import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from amprob import (
    Amplitude,
    DomainError,
    SampleSpace,
    UsageError,
    classical_space,
    collapse,
    event_probability,
    guess_game,
    normalize,
    outcome_probability,
    union_decomposition,
)


def test_classical_space_examples():
    fair = classical_space([1, 1], ["h", "t"])
    assert outcome_probability(fair, "h") == 0.5
    assert outcome_probability(fair, "t") == 0.5

    w = classical_space([2, 1, 1], ["a", "b", "c"])
    probs = w.probabilities()
    assert probs["a"] == pytest.approx(0.5, abs=1e-15)
    assert probs["b"] == pytest.approx(0.25, abs=1e-15)

    single = classical_space([1], ["only"])
    assert outcome_probability(single, "only") == 1.0


def test_classical_space_errors():
    with pytest.raises(UsageError):
        classical_space([], [])
    with pytest.raises(UsageError):
        classical_space([0, 0], ["a", "b"])
    with pytest.raises(UsageError):
        classical_space([1, 1], ["a"])
    with pytest.raises(UsageError):
        classical_space([1, 1], ["a", "a"])
    with pytest.raises(UsageError):
        classical_space([1, -1], ["a", "b"])


def test_outcome_probability_thick_coin():
    tc = classical_space([0.49, 0.49, 0.02], ["h", "t", "side"])
    assert outcome_probability(tc, "side") == pytest.approx(0.02, abs=1e-15)
    total = sum(tc.probabilities().values())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_outcome_probability_unknown():
    fair = classical_space([1, 1], ["h", "t"])
    with pytest.raises(UsageError):
        outcome_probability(fair, "x")


def test_event_probability_examples():
    fair = classical_space([1, 1], ["h", "t"])
    assert event_probability(fair, ["h", "t"]) == pytest.approx(1.0, abs=1e-12)
    assert event_probability(fair, []) == 0.0

    w = classical_space([2, 1, 1], ["a", "b", "c"])
    assert event_probability(w, ["a", "b"]) == pytest.approx(0.75, abs=1e-12)

    with pytest.raises(UsageError):
        event_probability(fair, ["nope"])


def test_normalize_examples():
    s = SampleSpace(("a", "b"), (Amplitude(1, 0), Amplitude(1, 0)))
    n = normalize(s)
    assert n.amplitudes[0].magnitude == pytest.approx(1 / math.sqrt(2))

    fair = classical_space([1, 1], ["h", "t"])
    again = normalize(fair)
    for a, b in zip(fair.amplitudes, again.amplitudes):
        assert a.re == pytest.approx(b.re, abs=1e-15)

    s345 = SampleSpace(("a", "b"), (Amplitude(3, 0), Amplitude(4, 0)))
    n345 = normalize(s345)
    assert n345.amplitudes[0].re == pytest.approx(0.6, rel=1e-15)
    assert n345.amplitudes[1].re == pytest.approx(0.8, rel=1e-15)


def test_normalize_null():
    s = SampleSpace(("a",), (Amplitude(0, 0),))
    with pytest.raises(DomainError):
        normalize(s)


def test_union_decomposition_examples():
    r = union_decomposition(0.5, 0.5, 0.0)
    assert r.p_union == 1.0
    assert r.p_1_only == 0.5 and r.p_2_only == 0.5

    bright = union_decomposition(0.25, 0.25, 0.5)
    assert bright.p_union == 1.0
    assert bright.p_1_only == -0.25
    assert bright.p_2_only == -0.25

    dark = union_decomposition(0.25, 0.25, -0.5)
    assert dark.p_union == 0.0


def test_union_decomposition_identity_exact():
    # the construction guarantees: union = (only_1 + cross) + (only_2 + cross)
    # - cross, i.e. only_i recovers the closed-slit probability when the
    # shared term is added back
    rng = np.random.default_rng(3)
    for _ in range(200):
        p1, p2 = rng.uniform(0, 2, size=2)
        i = rng.uniform(-2, 2)
        r = union_decomposition(p1, p2, i)
        assert r.p_1_only + r.p_intersection == pytest.approx(p1, abs=1e-12)
        assert r.p_2_only + r.p_intersection == pytest.approx(p2, abs=1e-12)
        assert r.p_union == pytest.approx(
            (r.p_1_only + r.p_intersection) + (r.p_2_only + r.p_intersection)
            + r.p_intersection, abs=1e-12)


def test_union_decomposition_errors():
    with pytest.raises(UsageError):
        union_decomposition(-0.1, 0.5, 0.0)
    with pytest.raises(DomainError):
        union_decomposition(float("nan"), 0.5, 0.0)


def test_collapse():
    fair = classical_space([1, 1], ["h", "t"])
    c = collapse(fair, "h")
    assert outcome_probability(c, "h") == 1.0
    assert outcome_probability(c, "t") == 0.0
    assert c.labels == fair.labels
    assert c.is_normalized
    assert collapse(c, "h") == c

    w = classical_space([2, 1, 1], ["a", "b", "c"])
    third = collapse(w, "c")
    assert [outcome_probability(third, l) for l in "abc"] == [0.0, 0.0, 1.0]

    with pytest.raises(DomainError):
        collapse(c, "t")


def test_guess_game_fair_coin():
    stats = guess_game(classical_space([1, 1], ["h", "t"]))
    assert stats.p_correct == 0.5
    assert len(stats.joint_table) == 4
    for p in stats.joint_table.values():
        assert p == pytest.approx(0.25, abs=1e-15)


def test_guess_game_deterministic():
    stats = guess_game(classical_space([1, 0], ["a", "b"]))
    assert stats.p_correct == 1.0


def test_guess_game_uniform3_vs_enumeration():
    space = classical_space([1, 1, 1], ["a", "b", "c"])
    stats = guess_game(space)
    # independent oracle: enumerate all 9 call/fall cells
    probs = space.probabilities()
    cells = {(c, f): probs[c] * probs[f]
             for c, f in itertools.product("abc", repeat=2)}
    assert sum(cells.values()) == pytest.approx(1.0, abs=1e-12)
    oracle = sum(p for (c, f), p in cells.items() if c == f)
    assert stats.p_correct == pytest.approx(oracle, abs=1e-15)
    assert stats.p_correct == pytest.approx(1 / 3, abs=1e-12)


def test_guess_game_requires_normalized():
    s = SampleSpace(("a", "b"), (Amplitude(1, 0), Amplitude(1, 0)))
    with pytest.raises(UsageError):
        guess_game(s)


def test_guess_game_marginals():
    space = classical_space([3, 1, 2, 2], ["a", "b", "c", "d"])
    stats = guess_game(space)
    probs = space.probabilities()
    for lab in space.labels:
        call_marginal = sum(p for (c, f), p in stats.joint_table.items()
                            if c == lab)
        fall_marginal = sum(p for (c, f), p in stats.joint_table.items()
                            if f == lab)
        assert call_marginal == pytest.approx(probs[lab], abs=1e-12)
        assert fall_marginal == pytest.approx(probs[lab], abs=1e-12)


@given(st.lists(st.floats(min_value=0, max_value=10), min_size=1,
                max_size=16).filter(lambda w: sum(w) > 1e-9),
       st.randoms(use_true_random=False))
def test_kolmogorov_suite(weights, rnd):
    labels = [f"o{i}" for i in range(len(weights))]
    space = classical_space(weights, labels)
    probs = space.probabilities()
    assert all(0.0 <= p <= 1.0 + 1e-12 for p in probs.values())
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)
    # additivity over a random disjoint split
    cut = rnd.randrange(len(labels) + 1)
    left, right = labels[:cut], labels[cut:]
    assert event_probability(space, left) + event_probability(space, right) \
        == pytest.approx(1.0, abs=1e-12)


def test_phase_randomization_does_not_change_probabilities():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = rng.integers(1, 9)
        weights = rng.uniform(0.01, 1.0, size=n)
        labels = [f"o{i}" for i in range(n)]
        base = classical_space(weights, labels)
        phases = rng.uniform(-math.pi, math.pi, size=n)
        rotated = SampleSpace(
            base.labels,
            tuple(Amplitude.from_polar(a.magnitude, ph)
                  for a, ph in zip(base.amplitudes, phases)))
        for lab in labels:
            assert outcome_probability(rotated, lab) == pytest.approx(
                outcome_probability(base, lab), abs=1e-12)
        subset = [lab for lab in labels if rng.random() < 0.5]
        assert event_probability(rotated, subset) == pytest.approx(
            event_probability(base, subset), abs=1e-12)


def test_probabilities_take_one_total_per_call(monkeypatch):
    space = classical_space([1.0, 2.0, 3.0, 4.0], ["a", "b", "c", "d"])
    expected = space.probabilities()
    event = event_probability(space, ["a", "c", "d"])
    calls = []
    original = SampleSpace.total_probability
    monkeypatch.setattr(SampleSpace, "total_probability",
                        lambda self: calls.append(1) or original(self))
    assert space.probabilities() == expected
    assert event_probability(space, ["a", "c", "d"]) == event
    assert len(calls) == 2
