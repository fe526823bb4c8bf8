import json
import math
import statistics

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amprob import (
    GENERATOR_ID,
    Amplitude,
    SampleSpace,
    TrialLedger,
    UsageError,
    amplitude_from_frequency,
    born_probability,
    child_seed,
    classical_space,
    convergence_report,
    normalize,
    record_trials,
)

FAIR = classical_space([1, 1], ["h", "t"])


def test_record_trials_certain_outcome():
    space = classical_space([1, 0], ["a", "b"])
    ledger = record_trials(space, 500, 123)
    assert ledger.counts == {"a": 500, "b": 0}


def test_record_trials_single_trial():
    ledger = record_trials(FAIR, 1, 99)
    assert sorted(ledger.counts.values()) == [0, 1]


def test_record_trials_fair_coin_regression():
    ledger = record_trials(FAIR, 10 ** 6, 42)
    # binomial 3-sigma bound, plus the pinned per-seed value
    assert abs(ledger.counts["h"] - 500000) <= 1500
    assert ledger.counts["h"] == 499068


def test_record_trials_deterministic():
    a = record_trials(FAIR, 10 ** 4, 7)
    b = record_trials(FAIR, 10 ** 4, 7)
    assert a == b


def test_record_trials_preconditions():
    with pytest.raises(UsageError):
        record_trials(FAIR, 0, 1)
    from amprob import Amplitude, SampleSpace
    unnorm = SampleSpace(("a", "b"), (Amplitude(1, 0), Amplitude(1, 0)))
    with pytest.raises(UsageError):
        record_trials(unnorm, 10, 1)


@st.composite
def phased_spaces(draw):
    n = draw(st.integers(1, 24))
    mags = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    phases = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n,
                           max_size=n))
    mags[draw(st.integers(0, n - 1))] = draw(st.floats(1e-300, 10.0))
    return normalize(SampleSpace(tuple(f"o{i}" for i in range(n)),
                                 tuple(Amplitude.from_polar(m, ph)
                                       for m, ph in zip(mags, phases))))


@given(phased_spaces(), st.integers(1, 10 ** 6), st.integers(0, 2 ** 64 - 1))
def test_record_trials_draws_from_the_born_vector(space, n, seed):
    assert space.total_probability() == sum(born_probability(a)
                                            for a in space.amplitudes)
    # the multinomial written out on its own Born vector
    probs = np.array([born_probability(a) for a in space.amplitudes])
    probs = probs / probs.sum()
    counts = np.random.Generator(np.random.PCG64(seed)).multinomial(n, probs)
    assert record_trials(space, n, seed).counts == dict(
        zip(space.labels, counts.tolist()))


def test_ledger_invariant():
    with pytest.raises(UsageError):
        TrialLedger(counts={"a": 1, "b": 1}, total_n=3, seed=0)


def test_amplitude_from_frequency_examples():
    ledger = TrialLedger(counts={"a": 10, "b": 0}, total_n=10, seed=0)
    assert amplitude_from_frequency(ledger, "a").magnitude == 1.0
    assert amplitude_from_frequency(ledger, "b").magnitude == 0.0

    quarter = TrialLedger(counts={"a": 1, "b": 3}, total_n=4, seed=0)
    assert amplitude_from_frequency(quarter, "a").magnitude == 0.5

    with pytest.raises(UsageError):
        amplitude_from_frequency(ledger, "zzz")


def test_estimator_born_round_trip():
    ledger = record_trials(FAIR, 12345, 5)
    total = 0.0
    for lab, count in ledger.counts.items():
        amp = amplitude_from_frequency(ledger, lab, phase=0.4)
        p = born_probability(amp)
        f = count / ledger.total_n
        assert abs(p - f) <= 1e-15 * max(1.0, f)
        total += p
    assert total == pytest.approx(1.0, abs=1e-12)


def test_convergence_report_fair_coin():
    report = convergence_report(FAIR, [100, 10 ** 4, 10 ** 6], seed=0)
    assert len(report.estimates) == 3
    assert report.max_errors[2] <= 0.002
    for row in report.estimates:
        assert len(row) == len(FAIR.labels)


def test_convergence_report_deterministic_space():
    space = classical_space([1, 0], ["a", "b"])
    report = convergence_report(space, [10, 100], seed=3)
    assert hex_rows([report.max_errors]) == [[(0.0).hex()] * 2]


def test_convergence_report_single_entry():
    report = convergence_report(FAIR, [50], seed=1)
    assert report.schedule == (50,)
    assert len(report.estimates) == 1


def test_convergence_report_monotone_schedule_required():
    with pytest.raises(UsageError):
        convergence_report(FAIR, [100, 100], seed=1)
    with pytest.raises(UsageError):
        convergence_report(FAIR, [1000, 10], seed=1)
    with pytest.raises(UsageError):
        convergence_report(FAIR, [], seed=1)


def test_trial_counts_and_seed_fit_numpy():
    # multinomial draws int64 counts; child_seed takes 64 unsigned bits
    with pytest.raises(UsageError) as exc:
        record_trials(FAIR, 2 ** 63, 1)
    assert exc.value.key == "n"
    with pytest.raises(UsageError) as exc:
        convergence_report(FAIR, [10, 2 ** 63], seed=1)
    assert exc.value.key == "schedule"
    for seed in (-1, 2 ** 64):
        with pytest.raises(UsageError) as exc:
            convergence_report(FAIR, [10], seed=seed)
        assert exc.value.key == "seed"
    assert record_trials(FAIR, 2 ** 63 - 1, 1).total_n == 2 ** 63 - 1
    assert convergence_report(FAIR, [10], seed=2 ** 64 - 1).schedule == (10,)


@pytest.mark.parametrize("n", [1.5, 2.0, "3", None])
def test_a_trial_count_must_be_an_int(n):
    # a float count would give one draw the estimate sqrt(1 / 1.5)
    with pytest.raises(UsageError) as exc:
        record_trials(FAIR, n, 1)
    assert exc.value.key == "n"
    with pytest.raises(UsageError) as exc:
        convergence_report(FAIR, [n, 4], seed=1)
    assert exc.value.key == "schedule"


def test_a_numpy_int_trial_count_is_taken():
    n = np.int64(3)
    assert record_trials(FAIR, n, 1) == record_trials(FAIR, 3, 1)
    assert report_bits(convergence_report(FAIR, [n], 1)) == \
        report_bits(convergence_report(FAIR, [3], 1))
    # the schedule keeps Python ints, so it is JSON as it stands
    report = convergence_report(FAIR, np.array([10, 100]), 1)
    assert list(map(type, report.schedule)) == [int, int]
    assert json.loads(json.dumps(list(report.schedule))) == [10, 100]


@pytest.mark.parametrize("seed", [-1, 1.5, 2 ** 64, "x"])
def test_record_trials_names_a_seed_numpy_cannot_take(seed):
    # the rule of check_schedule, and of a ledger built directly, which
    # took a str seed: an int of 64 unsigned bits
    with pytest.raises(UsageError, match="64 unsigned bits") as exc:
        record_trials(FAIR, 10, seed)
    assert exc.value.key == "seed"
    for call in (lambda: convergence_report(FAIR, [10], seed),
                 lambda: TrialLedger({"a": 3}, 3, seed)):
        with pytest.raises(UsageError) as exc:
            call()
        assert exc.value.key == "seed"


def test_record_trials_takes_a_numpy_int_seed():
    assert record_trials(FAIR, 10, np.uint64(2 ** 64 - 1)) == \
        record_trials(FAIR, 10, 2 ** 64 - 1)


def test_convergence_report_reproducible():
    a = convergence_report(FAIR, [100, 1000], seed=9)
    b = convergence_report(FAIR, [100, 1000], seed=9)
    assert report_bits(a) == report_bits(b)


def test_child_seeds_differ():
    seeds = {child_seed(42, k) for k in range(100)}
    assert len(seeds) == 100
    assert child_seed(42, 0) != 42


def test_convergence_trend_over_seeds():
    errs_small, errs_large = [], []
    for seed in range(20):
        report = convergence_report(FAIR, [100, 10 ** 6], seed=seed)
        errs_small.append(report.max_errors[0])
        errs_large.append(report.max_errors[1])
    assert statistics.median(errs_large) < statistics.median(errs_small)


def test_generator_identifier():
    assert GENERATOR_ID == "numpy.random.PCG64"


def test_report_keeps_each_outcome_error():
    space = classical_space([5, 3, 2], ["a", "b", "c"])
    report = convergence_report(space, [10, 1000, 100000], 7)
    assert len(report.errors) == len(report.schedule)
    for row, err, worst in zip(report.estimates, report.errors,
                               report.max_errors):
        assert len(row) == len(err) == len(space.labels)
        for e, r, a in zip(row, err, space.amplitudes):
            assert r == abs(e - a.magnitude)
        assert worst == max(err)


@st.composite
def weighted_spaces(draw):
    weights = draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=30))
    weights[draw(st.integers(0, len(weights) - 1))] += 1.0
    return classical_space(weights, [f"o{i}" for i in range(len(weights))])


@given(weighted_spaces(),
       st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=4, unique=True),
       st.integers(0, 2 ** 64 - 1))
def test_report_rows_follow_the_outcome_order(space, schedule, seed):
    schedule = sorted(schedule)
    report = convergence_report(space, schedule, seed)
    assert len(report.estimates) == len(report.errors) == len(schedule)
    for k, (n, row, err) in enumerate(zip(schedule, report.estimates,
                                          report.errors)):
        counts = record_trials(space, n, child_seed(seed, k)).counts
        assert len(row) == len(err) == len(space.labels)
        for i, (label, amp) in enumerate(zip(space.labels,
                                             space.amplitudes)):
            assert row[i] == math.sqrt(counts[label] / n)
            assert err[i] == abs(row[i] - amp.magnitude)
    assert hex_rows([report.max_errors]) == \
        hex_rows([list(map(max, report.errors.tolist()))])


def test_ledger_needs_a_positive_trial_count():
    with pytest.raises(UsageError, match="total_n must be positive"):
        TrialLedger({}, 0, 1)


@pytest.mark.parametrize("counts, total_n, key", [
    ({"a": 2, "b": -1}, 1, "counts"),
    ({"a": 1.0}, 1, "counts"),
    ({"a": "1"}, 1, "counts"),
    ({"a": None, "b": 1}, 1, "counts"),
    ({"a": 1, "b": 1}, 3, "counts"),
    ({"a": 1}, "1", "total_n"),
    ({"a": 1}, 1.0, "total_n"),
    ({"a": 0}, 0, "total_n"),
    ({"a": 1}, -1, "total_n"),
    ([1, 2], 3, "counts"),
    ((("a", 1),), 1, "counts"),
    (None, 1, "counts"),
])
def test_ledger_names_a_bad_count_or_total(counts, total_n, key):
    # a negative count used to pass, and amplitude_from_frequency then died
    # in math.sqrt; a str total_n raised a bare TypeError, and counts that
    # are no dict a bare AttributeError
    with pytest.raises(UsageError) as exc:
        TrialLedger(counts, total_n, 0)
    assert exc.value.key == key


def test_ledger_takes_numpy_ints():
    ledger = TrialLedger({"a": np.int64(2), "b": 0}, np.int64(2), 0)
    assert amplitude_from_frequency(ledger, "b").magnitude == 0.0


def test_convergence_report_needs_a_normalized_space():
    doubled = SampleSpace(("h", "t"), (Amplitude(1.0, 0.0),
                                        Amplitude(1.0, 0.0)))
    with pytest.raises(UsageError, match="normalized space"):
        convergence_report(doubled, [10, 100], 1)


def object_space(weights, labels):
    """`classical_space` one Amplitude per weight, as it was built before
    it kept its magnitudes as a vector: the reference."""
    total = sum(weights)
    return SampleSpace(tuple(labels), tuple(
        Amplitude(math.sqrt(w / total), 0.0) for w in weights))


def object_report(space, schedule, seed):
    """`convergence_report` one outcome at a time from a multinomial on
    the space's own Born vector: the reference, as hex rows."""
    probs = np.array([born_probability(a) for a in space.amplitudes])
    probs = probs / probs.sum()
    true_mags = [a.magnitude for a in space.amplitudes]
    estimates, errors = [], []
    for k, n in enumerate(schedule):
        rng = np.random.Generator(np.random.PCG64(child_seed(seed, k)))
        row = [math.sqrt(c / n) for c in rng.multinomial(n, probs).tolist()]
        estimates.append(row)
        errors.append([abs(e - m) for e, m in zip(row, true_mags)])
    return hex_rows(estimates), hex_rows(errors), hex_rows([
        [max(err)] for err in errors])


def hex_rows(rows):
    return [[x.hex() for x in row] for row in rows]


def report_bits(report):
    """A report's schedule and the bits of its three arrays."""
    return (report.schedule, hex_rows(report.estimates),
            hex_rows(report.errors), hex_rows([report.max_errors]))


# zeros, floats at any scale from 1e-300 to 1e300 and ints beyond 2**53
WEIGHT = st.one_of(
    st.just(0.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(0.0, 10.0),
              st.integers(-300, 300)),
    st.integers(0, 2 ** 80))


@settings(deadline=None)
@given(st.one_of(st.lists(WEIGHT, min_size=1, max_size=30),
                 st.lists(st.integers(0, 2 ** 80), min_size=1, max_size=30)),
       st.lists(st.one_of(st.integers(1, 10 ** 6),
                          st.integers(2 ** 53, 2 ** 63 - 1)),
                min_size=1, max_size=3, unique=True),
       st.integers(0, 2 ** 64 - 1))
@example([1122735208474399910259, 93276909100225769417], [10], 0)
@example([1.0], [1, 2 ** 62], 5)
@example([0.0, 1e-300, 0, 3e300], [1000], 1)
def test_vector_space_and_report_equal_the_object_path(weights, schedule,
                                                       seed):
    # Python's int / int rounds once: a float64 array division of the
    # first example's weights gives born[0] 1 ulp low
    if sum(weights) == 0:
        weights = weights + [1]
    labels = [f"o{i}" for i in range(len(weights))]
    space, ref = classical_space(weights, labels), object_space(weights,
                                                                labels)
    assert [m.hex() for m in space.magnitudes.tolist()] == \
        [a.magnitude.hex() for a in ref.amplitudes]
    assert "amplitudes" not in vars(space)  # made when first read
    assert [p.hex() for p in space.born] == [p.hex() for p in ref.born]
    assert space.total_probability().hex() == ref.total_probability().hex()
    assert space.is_normalized == ref.is_normalized
    assert [(a.re.hex(), a.im.hex()) for a in space.amplitudes] == \
        [(a.re.hex(), a.im.hex()) for a in ref.amplitudes]
    assert space == ref and hash(space) == hash(ref)
    assert repr(space) == repr(ref)
    schedule = sorted(schedule)
    report = convergence_report(classical_space(weights, labels), schedule,
                                seed)
    assert (hex_rows(report.estimates), hex_rows(report.errors),
            hex_rows([[m] for m in report.max_errors])) == \
        object_report(ref, schedule, seed)


@given(phased_spaces(),
       st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=3, unique=True),
       st.integers(0, 2 ** 64 - 1))
def test_report_on_a_phased_space_equals_the_object_path(space, schedule,
                                                         seed):
    # a space built from its amplitudes makes its magnitudes on first read
    schedule = sorted(schedule)
    report = convergence_report(space, schedule, seed)
    assert (hex_rows(report.estimates), hex_rows(report.errors),
            hex_rows([[m] for m in report.max_errors])) == \
        object_report(space, schedule, seed)
    assert space.magnitudes is space.magnitudes
    assert not space.magnitudes.flags.writeable
