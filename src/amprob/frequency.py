"""Frequency side of the amplitude picture.

Amplitude magnitudes correspond to limiting relative frequencies: sampling a
normalized space N times and taking sqrt(count / N) recovers each magnitude
as N grows. Sampling is seeded and fully deterministic so every ledger is
reproducible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .amplitude import Amplitude
from .errors import UsageError, int_in, shown
from .events import SampleSpace

# Recorded in outputs so regression values stay pinned to one generator.
GENERATOR_ID = "numpy.random.PCG64"


@dataclass(frozen=True)
class TrialLedger:
    """Outcome counts from a seeded batch of trials: a dict of ints >= 0,
    summing to `total_n`, an int >= 1, and the seed, as `record_trials`
    takes it; a fault raises `UsageError` naming `counts`, `total_n` or
    `seed`."""

    counts: Dict[str, int]
    total_n: int
    seed: int

    def __post_init__(self) -> None:
        if not int_in(self.total_n, 1, math.inf):
            raise UsageError("total_n must be positive: an int >= 1, got "
                             f"{shown(self.total_n)}", "total_n")
        if not isinstance(self.counts, dict):
            raise UsageError("counts must be a dict of outcome counts, got "
                             f"{shown(self.counts)}", "counts")
        counts = list(self.counts.values())
        if not all(map(int_in, counts, repeat(0), repeat(math.inf))):
            raise UsageError("counts must be ints >= 0", "counts")
        if sum(counts) != self.total_n:
            raise UsageError("counts must sum to total_n", "counts")
        _check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per stage of a trial schedule (ints), read-only float64 arrays: each
    outcome's estimated magnitude and its absolute error (stages x outcomes,
    in the space's outcome order), and the worst error; `==` is identity."""

    schedule: Tuple[int, ...]
    estimates: np.ndarray
    errors: np.ndarray
    max_errors: np.ndarray


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def child_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit seed for schedule entry `index`.

    Uses SeedSequence spawn keys so entries never share a stream.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def _check_count(n: int, key: str) -> None:
    if not int_in(n, 1, 2 ** 63):  # numpy draws int64 counts
        raise UsageError(f"trial count {shown(n)} is not an int in "
                         "1..2**63-1", key)


def _check_seed(seed: int) -> None:
    # numpy's SeedSequence takes ints of 0..2**64-1
    if not int_in(seed, 0, 2 ** 64):
        raise UsageError("seed must fit in 64 unsigned bits", "seed")


def check_schedule(schedule: Sequence[int], seed: int) -> None:
    """Argument check of `convergence_report`."""
    if len(schedule) == 0:
        raise UsageError("schedule must be non-empty", "schedule")
    for n in schedule:
        _check_count(n, "schedule")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise UsageError("schedule must be strictly increasing", "schedule")
    _check_seed(seed)


def _draws(space: SampleSpace, runs: Iterable[Tuple[int, int]],
           caller: str) -> List[np.ndarray]:
    """The outcome counts of each (n, seed) run, all drawn from one Born
    distribution of the space: its |A|^2 vector over numpy's sum of it
    (not SampleSpace._born, which redraws freq_2000_quote's counts)."""
    if not space.is_normalized:
        raise UsageError(f"{caller} requires a normalized space")
    born = np.array(space.born)
    probs = born / born.sum()
    return [_rng(seed).multinomial(n, probs) for n, seed in runs]


def record_trials(space: SampleSpace, n: int, seed: int) -> TrialLedger:
    """Draw n outcomes from the space's Born distribution.

    Identical (space, n, seed) always yields an identical ledger.
    """
    _check_count(n, "n")
    _check_seed(seed)
    counts, = _draws(space, [(n, seed)], "record_trials")
    return TrialLedger(
        counts=dict(zip(space.labels, counts.tolist())),
        total_n=n,
        seed=seed,
    )


def amplitude_from_frequency(ledger: TrialLedger, label: str,
                             phase: float = 0.0) -> Amplitude:
    """Plug-in magnitude estimate sqrt(count / total) at the given phase.

    Composing with the Born rule returns count / total exactly, so the
    estimate is consistent at every finite N.
    """
    if label not in ledger.counts:
        raise UsageError(f"unknown outcome {shown(label)}")
    magnitude = math.sqrt(ledger.counts[label] / ledger.total_n)
    return Amplitude.from_polar(magnitude, phase)


def convergence_report(space: SampleSpace, schedule: Sequence[int],
                       seed: int) -> ConvergenceReport:
    """Estimate all magnitudes at each schedule point and report the max
    absolute error against the space's true magnitudes (`magnitudes`).

    Each schedule entry draws from its own derived seed stream; the raw seed
    is never reused across entries. All entries draw from one Born
    distribution, normalised once per report.
    """
    check_schedule(schedule, seed)
    schedule = tuple(map(operator.index, schedule))
    runs = [(n, child_seed(seed, k)) for k, n in enumerate(schedule)]
    estimates = np.empty((len(schedule), len(space.labels)))
    for row, n, counts in zip(estimates, schedule,
                              _draws(space, runs, "convergence_report")):
        # int / int true division, correctly rounded even for n > 2**53;
        # one quotient per distinct count
        distinct, at = np.unique(counts, return_inverse=True)
        row[:] = np.sqrt([c / n for c in distinct.tolist()])[at]
    errors = np.abs(estimates - space.magnitudes)
    report = ConvergenceReport(schedule, estimates, errors, errors.max(1))
    for array in (estimates, errors, report.max_errors):
        array.flags.writeable = False
    return report
