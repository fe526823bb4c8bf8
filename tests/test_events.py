import copy
import dataclasses
import itertools
import math
import pickle
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from amprob import (
    Amplitude,
    DomainError,
    GuessStatistics,
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
from amprob.amplitude import ONE, ZERO, born_probability
from amprob.events import NORMALIZATION_TOL, normalization_tolerance


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


def test_a_classical_space_makes_its_amplitudes_when_first_read():
    space = classical_space([3, 1], ["a", "b"])
    assert "amplitudes" not in vars(space)
    assert space.magnitudes.tolist() == [math.sqrt(0.75), 0.5]
    assert not space.magnitudes.flags.writeable
    amps = space.amplitudes
    assert amps is space.amplitudes
    assert amps == (Amplitude(math.sqrt(0.75), 0.0), Amplitude(0.5, 0.0))
    assert space == SampleSpace(("a", "b"), amps)
    copied = pickle.loads(pickle.dumps(classical_space([3, 1], ["a", "b"])))
    assert copied == space and copied.born == space.born


def pickled(space):
    return pickle.loads(pickle.dumps(space))


@pytest.mark.parametrize("duplicate", [pickled, copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("first_read", [(), ("amplitudes",),
                                        ("magnitudes",),
                                        ("amplitudes", "magnitudes")],
                         ids=["unread", "amplitudes", "magnitudes", "both"])
@pytest.mark.parametrize("make", [
    lambda: classical_space([3, 1, 0, 2 ** 60 + 1], ["a", "b", "c", "d"]),
    lambda: SampleSpace(("a", "b", "c"), (Amplitude(0.6, 0.0), ZERO,
                                          Amplitude(-0.3, -0.74))),
], ids=["classical", "amplitudes"])
def test_a_copied_space_is_the_space_the_constructor_builds(make, first_read,
                                                            duplicate):
    # a writeable copy of magnitudes could change amplitudes but not born
    space = make()
    for name in first_read:
        getattr(space, name)
    copied = duplicate(space)
    hexes = lambda xs: [x.hex() for x in xs]
    assert copied == space and hash(copied) == hash(space)
    assert repr(copied) == repr(space)
    assert hexes(copied.born) == hexes(space.born)
    assert copied.total_probability().hex() == \
        space.total_probability().hex()
    assert copied.is_normalized == space.is_normalized
    assert hexes(copied.magnitudes.tolist()) == \
        hexes(space.magnitudes.tolist())
    assert not copied.magnitudes.flags.writeable
    with pytest.raises(ValueError):
        copied.magnitudes[0] = 5.0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.one_of(st.integers(0, 2 ** 70),
                          st.floats(0.0, 1e300)), min_size=1, max_size=40))
@example([0, 1])
@example([2 ** 60 + 1, 0, 3])
@example(list(range(2001)))
def test_a_pickled_classical_space_keeps_its_bits(weights):
    # at phase 0 the constructor's re*re + im*im is m*m + 0.0 and its
    # hypot(m, 0.0) is m
    assume(0 < sum(weights) < math.inf)
    space = classical_space(weights, [f"o{i}" for i in range(len(weights))])
    copied = pickled(space)
    assert [p.hex() for p in copied.born] == [p.hex() for p in space.born]
    assert copied.total_probability().hex() == \
        space.total_probability().hex()
    assert [m.hex() for m in copied.magnitudes.tolist()] == \
        [m.hex() for m in space.magnitudes.tolist()]


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


@pytest.mark.parametrize("weights, labels, key", [
    ([], [], "weights"),  # fails the positive-sum rule
    ([1, 1], ["a"], "labels"),  # fails SampleSpace's length rule
])
def test_classical_space_shape_errors_name_their_key(weights, labels, key):
    with pytest.raises(UsageError) as exc:
        classical_space(weights, labels)
    assert exc.value.key == key


def test_classical_space_rejects_overflowing_total():
    # the sum is inf, which would turn every amplitude into 0
    with pytest.raises(UsageError) as exc:
        classical_space([1e308, 1e308], ["a", "b"])
    assert exc.value.key == "weights"
    big = classical_space([1e308, 5e307], ["a", "b"])
    assert big.probabilities()["a"] == pytest.approx(2 / 3, rel=1e-15)


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
    empty = event_probability(fair, [])
    assert type(empty) is float and math.copysign(1.0, empty) == 1.0
    assert empty == 0.0

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


def test_normalize_rescales_a_subnormal_total():
    # 3e-160**2 is subnormal: scaling by the total of these squares left
    # a total of 1.0000111
    s = SampleSpace(("a", "b"), (Amplitude(3e-160, 0.0),
                                 Amplitude(1e-160, 0.0)))
    n = normalize(s)
    assert n.is_normalized
    assert n.total_probability() == pytest.approx(1.0, abs=1e-15)
    assert n.amplitudes[0].re == pytest.approx(3 / math.sqrt(10), rel=1e-15)
    assert n.amplitudes[1].re == pytest.approx(1 / math.sqrt(10), rel=1e-15)
    # a total that underflows to 0 is not a null assignment either
    tiny = normalize(SampleSpace(("a", "b"), (Amplitude(0.0, -1e-170),
                                              Amplitude(0.0, 0.0))))
    assert tiny.amplitudes == (Amplitude(0.0, -1.0), Amplitude(0.0, 0.0))


def test_space_rejects_an_overflowing_total():
    with pytest.raises(DomainError, match="overflows"):
        SampleSpace(("a", "b"), (Amplitude(1e200, 0.0),
                                 Amplitude(1.0, 0.0)))
    with pytest.raises(DomainError, match="overflows"):  # finite terms
        SampleSpace(("a", "b"), (Amplitude(1e154, 0.0),
                                 Amplitude(0.0, 1e154)))


@pytest.mark.parametrize("build, key", [
    (lambda: union_decomposition("0.5", 0.5, 0.0), None),
    (lambda: SampleSpace(("a",), (1.0,)), "amplitudes"),
    (lambda: SampleSpace(("a",), None), "amplitudes"),
    # a generator would be used up and kept as the space's amplitudes
    (lambda: SampleSpace(("a",), (a for a in [ONE])), "amplitudes"),
    # with good amplitudes a bad label is still named `labels`
    (lambda: SampleSpace(("a", "a"), (ONE, ZERO)), "labels"),
], ids=["union_text", "space_float", "space_none", "space_generator",
        "space_labels"])
def test_an_input_that_is_no_amplitude_is_named_by_its_key(build, key):
    # the first four raised a bare TypeError or AttributeError
    with pytest.raises(UsageError) as exc:
        build()
    assert exc.value.key == key


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


@pytest.mark.parametrize("label", [10 ** 5000, 1, b"a", None, ("a",)],
                         ids=["long_int", "int", "bytes", "none", "tuple"])
def test_space_rejects_a_non_str_label(label):
    with pytest.raises(UsageError, match="labels must be str") as exc:
        SampleSpace((label, "b"), (ZERO, ONE))
    assert exc.value.key == "labels"


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


def reference_probabilities(space):
    # the normalisation rule written out: |A|^2, divided by the total when
    # the total is within NORMALIZATION_TOL of 1, raw otherwise
    raw = [a.re * a.re + a.im * a.im for a in space.amplitudes]
    total = sum(raw)
    if abs(total - 1.0) <= NORMALIZATION_TOL:
        return [p / total for p in raw]
    return raw


@st.composite
def spaces_and_subsets(draw):
    n = draw(st.integers(1, 24))
    mags = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n,
                           max_size=n))
    space = SampleSpace(tuple(f"o{i}" for i in range(n)),
                        tuple(Amplitude.from_polar(m, ph)
                              for m, ph in zip(mags, phases)))
    if draw(st.booleans()) and space.total_probability() > 0:
        space = normalize(space)
    subset = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return space, [space.labels[i] for i in subset]


@given(spaces_and_subsets())
def test_probabilities_follow_one_rule_bit_for_bit(case):
    space, subset = case
    ref = reference_probabilities(space)
    assert list(space.probabilities().values()) == ref
    assert [outcome_probability(space, lab) for lab in space.labels] == ref
    positions = sorted({space.labels.index(lab) for lab in subset})
    assert event_probability(space, subset) == sum(ref[i]
                                                   for i in positions)
    assert space.is_normalized == (abs(space.total_probability() - 1.0)
                                   <= NORMALIZATION_TOL)


def test_a_str_subset_is_named_not_read_by_character():
    # read one character at a time, "ab" would be the event {a, b}: 0.75
    space = classical_space([1, 1, 2], ["ab", "a", "b"])
    with pytest.raises(UsageError, match="not be the str 'ab'") as exc:
        event_probability(space, "ab")
    assert exc.value.key == "subset"
    assert event_probability(space, ["ab"]) == \
        outcome_probability(space, "ab") == 0.25


@pytest.mark.parametrize("call, key", [
    (lambda: event_probability(classical_space([1, 1], "ab"), None),
     "subset"),
    (lambda: event_probability(classical_space([1, 1], "ab"), 5), "subset"),
    (lambda: classical_space(None, ["a"]), "weights"),
    (lambda: classical_space(["1"], ["a"]), "weights"),
    (lambda: classical_space([1j], ["a"]), "weights"),
    # min would use the generator up and leave a sum of 0
    (lambda: classical_space((w for w in [1, 1]), "ab"), "weights"),
    (lambda: classical_space([1], 5), "labels"),
    (lambda: classical_space([1], None), "labels"),
], ids=["subset_none", "subset_int", "weights_none", "weights_text",
        "weights_complex", "weights_generator", "labels_int",
        "labels_none"])
def test_a_bad_weights_labels_or_subset_is_named_by_its_key(call, key):
    with pytest.raises(UsageError, match=f"{key} must be .*, got") as exc:
        call()
    assert exc.value.key == key


def test_unknown_label_inside_subset_rejected():
    space = classical_space([1, 2, 3], ["a", "b", "c"])
    with pytest.raises(UsageError, match="'zz'"):
        event_probability(space, ["a", "zz", "c"])
    with pytest.raises(UsageError):
        event_probability(space, ["a", ["b"]])


def test_full_subset_event_is_linear_in_outcomes():
    # a linear label lookup makes this call O(outcomes x subset), seconds
    n = 20_000
    labels = [f"o{i}" for i in range(n)]
    space = classical_space([1.0 + i % 7 for i in range(n)], labels)
    start = time.perf_counter()
    p = event_probability(space, reversed(labels))
    elapsed = time.perf_counter() - start
    assert p == pytest.approx(1.0, abs=1e-12)
    assert elapsed < 0.5


def test_every_outcome_probability_is_constant_time():
    # re-summing the space per outcome makes this loop O(outcomes^2),
    # seconds
    n = 5_000
    labels = [f"o{i}" for i in range(n)]
    space = classical_space([1.0 + i % 7 for i in range(n)], labels)
    start = time.perf_counter()
    ps = [outcome_probability(space, lab) for lab in labels]
    elapsed = time.perf_counter() - start
    assert sum(ps) == pytest.approx(1.0, abs=1e-12)
    assert elapsed < 0.5


def test_empty_space_names_labels():
    with pytest.raises(UsageError, match="at least one outcome") as exc:
        SampleSpace((), ())
    assert exc.value.key == "labels"


def test_the_normalization_tolerance_grows_with_the_outcome_count():
    # gamma_{2n+10}, never below the fixed 1e-12 it replaces
    assert normalization_tolerance(1) == NORMALIZATION_TOL
    assert normalization_tolerance(4_498) == NORMALIZATION_TOL
    assert normalization_tolerance(4_499) > NORMALIZATION_TOL
    k = (2 * 10 ** 5 + 10) * 2.0 ** -53
    assert normalization_tolerance(10 ** 5) == pytest.approx(k, rel=1e-9)


def test_the_normalization_verdict_reads_the_outcome_count():
    # the same total, 1 + 1.5e-12, misses the bound of one outcome and
    # meets that of 10**4 (2.2e-12), where zero amplitudes add nothing
    a = Amplitude(math.sqrt(1 + 1.5e-12), 0.0)
    assert abs(born_probability(a) - 1 - 1.5e-12) < 1e-15
    one = SampleSpace(("a",), (a,))
    assert not one.is_normalized
    assert one.probabilities()["a"] == born_probability(a)  # raw
    many = SampleSpace(tuple(f"o{i}" for i in range(10 ** 4)),
                       (a,) + (Amplitude(0.0, 0.0),) * (10 ** 4 - 1))
    assert many.total_probability() == one.total_probability()
    assert many.is_normalized
    assert many.probabilities()["o0"] == 1.0  # divided by the total


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 10 ** 5),
       weight=st.none() | st.floats(0.0, 1e300, exclude_min=True),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=36_217, weight=1.0, seed=0)  # the first n past 1e-12
@example(n=10 ** 5, weight=1.0, seed=0)
@example(n=10 ** 5, weight=None, seed=1)
def test_spaces_of_any_size_are_normalized(n, weight, seed):
    # equal weights, or drawn ones (skewed, about 5 % zeros); and
    # normalize of the same magnitudes at random phases and scale
    rng = np.random.default_rng(seed)
    if weight is None:
        drawn = rng.random(n) ** rng.uniform(0.0, 8.0)
        drawn[rng.random(n) < 0.05] = 0.0
        drawn[0] += drawn.sum() == 0
        weights = drawn.tolist()
    else:
        weights = [weight] * n
    labels = [f"o{i}" for i in range(n)]
    space = classical_space(weights, labels)
    assert space.is_normalized, space.total_probability()
    scale = 2.0 ** rng.integers(-500, 500) * rng.uniform(0.5, 2.0)
    peak = max(weights)
    raw = SampleSpace(tuple(labels), tuple(
        Amplitude.from_polar(math.sqrt(w / peak) * scale, phase)
        for w, phase in zip(weights, rng.uniform(-math.pi, math.pi, n))))
    normalized = normalize(raw)
    assert normalized.is_normalized, normalized.total_probability()


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE), min_size=1, max_size=40))
def test_normalize_of_any_finite_non_null_space_is_normalized(parts):
    assume(any(re or im for re, im in parts))
    labels = tuple(f"o{i}" for i in range(len(parts)))
    try:
        space = SampleSpace(labels, tuple(Amplitude(re, im)
                                          for re, im in parts))
    except DomainError:  # a total float64 cannot hold: no space
        assume(False)
    normalized = normalize(space)
    assert normalized.is_normalized, normalized.total_probability()


@pytest.mark.parametrize("weight", [2 ** 1100, 10 ** 400, -1, float("nan"),
                                    float("inf"),
                                    int(sys.float_info.max) + 1])
def test_classical_space_rejects_a_weight_float64_cannot_hold(weight):
    for weights in ([weight, 1], [1, weight]):
        with pytest.raises(UsageError,
                           match="finite and non-negative") as exc:
            classical_space(weights, ["a", "b"])
        assert exc.value.key == "weights"


def eager_joint_table(space):
    """The joint table built straight from the space: the reference."""
    probs = space.probabilities()
    return {(ci, fj): probs[ci] * probs[fj]
            for ci in space.labels for fj in space.labels}


def float_bits(table):
    return [(key, p.hex()) for key, p in table.items()]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10)), min_size=1,
                max_size=150).filter(any))
def test_guess_game_builds_its_joint_table_on_first_read(weights):
    space = classical_space(weights, [f"o{i}" for i in range(len(weights))])
    stats = guess_game(space)
    assert "joint_table" not in vars(stats)
    table = stats.joint_table
    assert "joint_table" in vars(stats)
    assert stats.joint_table is table  # built once
    assert list(table) == list(itertools.product(space.labels, repeat=2))
    assert float_bits(table) == float_bits(eager_joint_table(space))
    assert stats.probabilities == space.probabilities()


def test_guess_game_on_2000_outcomes_builds_no_table():
    n = 2000
    space = classical_space([1 + i % 7 for i in range(n)],
                            [f"o{i}" for i in range(n)])
    tracemalloc.start()
    try:
        stats = guess_game(space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "joint_table" not in vars(stats)
    # the n outcome probabilities, not n**2 = 4e6 table entries
    assert peak < 2 ** 20, peak
    assert len(stats.probabilities) == n
    assert stats.p_correct == sum(p * p for p in space.probabilities()
                                  .values())


def test_guess_statistics_holds_the_probabilities_not_the_table():
    space = classical_space([3, 1, 2], ["a", "b", "c"])
    stats = guess_game(space)
    assert [f.name for f in dataclasses.fields(GuessStatistics)] == \
        ["p_correct", "probabilities"]
    assert len(stats.joint_table) == 9  # now cached, yet not in repr
    assert "('a', 'b')" not in repr(stats)
    assert repr(stats) == (f"GuessStatistics(p_correct={stats.p_correct!r}, "
                           f"probabilities={space.probabilities()!r})")
    assert guess_game(space) == stats
    assert dataclasses.replace(stats) == stats
