"""Classical sample spaces built on amplitudes.

Each outcome of a sample space is its own orthogonal basis direction
carrying one amplitude. Mutual exclusivity is structural: probabilities of
events never pick up cross terms between distinct outcomes, whatever phases
the amplitudes carry.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .amplitude import (ONE, ZERO, Amplitude, Probability, SignedProbability,
                        _not_amplitudes, _require_finite, born_probability)
from .errors import DomainError, UsageError, shown

# The least distance from 1 within which a space's Born total counts as
# normalized; `normalization_tolerance` widens it with the outcome count.
NORMALIZATION_TOL = 1e-12
_UNIT_ROUNDOFF = sys.float_info.epsilon / 2


@dataclass(frozen=True)
class SampleSpace:
    """Ordered outcomes (string labels) with one amplitude each.

    `born` is the read-only |A|^2 vector in outcome order, computed once
    when the space is built, as are its total (the builtin `sum`, left to
    right) and whether it is normalized; every probability of the space
    reads them. `magnitudes` is the read-only |A| numpy vector. A space
    from `classical_space` starts from its magnitudes, any other from its
    amplitudes; each makes the other vector on first read, as a
    `functools.cached_property`, and both kinds equal, hash and print
    alike. Copies and pickles are rebuilt by the constructor.
    """

    labels: Tuple[str, ...]
    amplitudes: Tuple[Amplitude, ...]
    born: Tuple[Probability, ...] = field(init=False, compare=False,
                                          repr=False)
    _positions: Dict[str, int] = field(init=False, compare=False, repr=False)
    _total: float = field(init=False, compare=False, repr=False)
    _normalized: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        try:  # a generator has no len, and is not kept
            n_amplitudes = len(self.amplitudes)
            born = tuple(map(born_probability, self.amplitudes))
        except (AttributeError, TypeError):  # no sequence of amplitudes
            raise _not_amplitudes(self.amplitudes, "amplitudes") from None
        self._settle(n_amplitudes, born)

    @classmethod
    def _phase_zero(cls, labels: Tuple[str, ...],
                    magnitudes: np.ndarray) -> SampleSpace:
        """The space of amplitudes `magnitudes` at phase 0, unset until
        read; |A|^2 is m*m, as re*re + im*im is at im = 0."""
        space = object.__new__(cls)
        object.__setattr__(space, "labels", labels)
        magnitudes.flags.writeable = False
        object.__setattr__(space, "magnitudes", magnitudes)
        space._settle(len(magnitudes), (magnitudes * magnitudes).tolist())
        return space

    @cached_property
    def magnitudes(self) -> np.ndarray:
        """|A| of each outcome in outcome order, read-only."""
        mags = np.array([a.magnitude for a in self.amplitudes])
        mags.flags.writeable = False
        return mags

    def __reduce__(self) -> tuple:
        return SampleSpace, (self.labels, self.amplitudes)

    def _settle(self, n_amplitudes: int, born: Iterable[Probability]
                ) -> None:
        """Check the labels against `n_amplitudes`, then keep the |A|^2
        vector `born`, its total and the normalisation verdict."""
        if len(self.labels) == 0:
            raise UsageError("sample space needs at least one outcome",
                             "labels")
        if len(self.labels) != n_amplitudes:
            raise UsageError("labels and amplitudes must have equal length",
                             "labels")
        if set(map(type, self.labels)) != {str}:
            raise UsageError("outcome labels must be str", "labels")
        positions = dict(zip(self.labels, range(len(self.labels))))
        if not all(self.labels) or len(positions) != len(self.labels):
            raise UsageError("outcome labels must be non-empty and distinct",
                             "labels")
        born = tuple(born)
        total = sum(born)
        if not math.isfinite(total):
            raise DomainError("total probability of the amplitudes "
                              "overflows float64")
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "born", born)
        object.__setattr__(self, "_total", total)
        object.__setattr__(self, "_normalized", abs(total - 1.0) <=
                           normalization_tolerance(len(born)))

    def index(self, label: str) -> int:
        try:
            return self._positions[label]
        except (KeyError, TypeError):
            raise UsageError(f"unknown outcome {shown(label)}") from None

    def total_probability(self) -> float:
        return self._total

    @property
    def is_normalized(self) -> bool:
        return self._normalized

    def probabilities(self) -> Dict[str, Probability]:
        return dict(zip(self.labels, self._born(range(len(self.labels)))))

    def _born(self, positions: Iterable[int]) -> List[Probability]:
        """The one normalisation rule: |A|^2 at each of `positions` over
        the space total if the space is normalized (sqrt(1/2)**2 is 0.5 +
        1 ulp; x / (x + x) is 0.5), else raw. One total per call."""
        total = self.total_probability()
        scale = total if self._normalized else 1.0  # x / 1.0 is exactly x
        born = self.born
        return [born[i] / scale for i in positions]


# the `amplitudes` of a `_phase_zero` space: magnitude i at phase 0
SampleSpace.amplitudes = cached_property(lambda space: tuple(
    map(Amplitude, space.magnitudes.tolist(), repeat(0.0))))
SampleSpace.amplitudes.__set_name__(SampleSpace, "amplitudes")


def normalization_tolerance(n: int) -> float:
    """How far from 1 the Born total of a normalized n-outcome space may
    fall: gamma_k = k u / (1 - k u) for k = 2n + 10 roundings of unit
    roundoff u (Higham, "Accuracy and Stability of Numerical Algorithms",
    ch. 3), but never below NORMALIZATION_TOL. `classical_space` rounds
    each term at most 4 times, its sum of weights and the Born sum n - 1
    times each (2n + 2 in all); `normalize` rounds each term 8 times and
    both sums n + 1 and n - 1 times, plus at most 2u from squares that
    underflow below its rescaling threshold (2n + 10)."""
    k = (2 * n + 10) * _UNIT_ROUNDOFF
    return max(NORMALIZATION_TOL, k / (1.0 - k))


@dataclass(frozen=True)
class UnionReport:
    """Decomposition of a two-alternative union into exclusive parts plus
    the shared (possibly negative) interference part."""

    p_union: Probability
    p_1_only: SignedProbability
    p_2_only: SignedProbability
    p_intersection: SignedProbability


@dataclass(frozen=True)
class GuessStatistics:
    """An independent call against the fall, both drawn from `probabilities`:
    the chance they coincide, and their joint table, built on first read."""

    p_correct: Probability
    probabilities: Dict[str, Probability]

    @cached_property
    def joint_table(self) -> Dict[Tuple[str, str], Probability]:
        probs = self.probabilities
        return {(c, f): probs[c] * probs[f] for c in probs for f in probs}


def classical_space(weights: Sequence[float],
                    labels: Sequence[str]) -> SampleSpace:
    """Build a normalized space from non-negative weights; amplitude i gets
    magnitude sqrt(w_i / sum w) at phase 0. The quotients are Python's,
    rounded once from the exact weights (ints beyond 2**53 included); the
    space makes its amplitudes tuple when first read. A bad argument
    raises `UsageError` naming `weights` or `labels`."""
    # min and max pass over a NaN unless it comes first, so past them a
    # NaN is all that can be out of range, and it makes the sum NaN
    try:
        len(weights)  # none for a generator, which min would use up
        if not (min(weights, default=0) >= 0 and
                max(weights, default=0) <= sys.float_info.max) or \
                (total := sum(weights)) != total:
            raise UsageError("weights must be finite and non-negative",
                             "weights")
    except TypeError:  # no len, or an item that is no real number
        raise UsageError("weights must be a sequence of real numbers, got "
                         f"{shown(weights)}", "weights") from None
    if not 0 < total < math.inf:
        raise UsageError("weights must have a positive sum that float64 "
                         "can hold", "weights")
    quotients = list(map(operator.truediv, weights, repeat(total)))
    try:
        labels = tuple(labels)
    except TypeError:  # not iterable: an int, None
        raise UsageError(f"labels must be str labels, got {shown(labels)}",
                         "labels") from None
    return SampleSpace._phase_zero(labels, np.sqrt(quotients))


def outcome_probability(space: SampleSpace, label: str) -> Probability:
    """Born probability of one outcome (exactly renormalized when the space
    is normalized)."""
    return event_probability(space, (label,))


def event_probability(space: SampleSpace,
                      subset: Iterable[str]) -> Probability:
    """Probability of a set of outcomes: plain sum of per-outcome
    probabilities, in outcome order. No cross terms by orthogonality. A
    str subset, which would be read one character at a time, or one that
    cannot be iterated raises `UsageError` naming `subset`."""
    if isinstance(subset, str):
        raise UsageError("subset must hold labels, not be the str "
                         f"{shown(subset)}", "subset")
    try:
        positions = sorted({space.index(lab) for lab in subset})
    except TypeError:  # not iterable: an int, None
        raise UsageError("subset must be a collection of labels, got "
                         f"{shown(subset)}", "subset") from None
    return sum(space._born(positions), 0.0)


def normalize(space: SampleSpace) -> SampleSpace:
    """Rescale all amplitudes by one positive constant so probabilities sum
    to 1; phases are untouched."""
    total = space.total_probability()
    if total < len(space.born) * sys.float_info.min:
        # |A|^2 terms below the normal range have lost up to 2**-1074
        # each, more than 2u of a total under n normal minima; scaling
        # every amplitude by one power of two is exact and brings the
        # largest component into [0.5, 1)
        peak = max(max(abs(a.re), abs(a.im)) for a in space.amplitudes)
        if peak == 0:
            raise DomainError("cannot normalize a null amplitude assignment")
        shift = -math.frexp(peak)[1]
        space = SampleSpace(space.labels, tuple(
            Amplitude(math.ldexp(a.re, shift), math.ldexp(a.im, shift))
            for a in space.amplitudes))
        total = space.total_probability()
    scale = 1.0 / math.sqrt(total)
    amps = tuple(Amplitude(a.re * scale, a.im * scale)
                 for a in space.amplitudes)
    return SampleSpace(space.labels, amps)


def union_decomposition(p1_alone: float, p2_alone: float,
                        interference: float) -> UnionReport:
    """Split a two-alternative union given each alternative's probability
    with the other closed and their interference term.

    The "only" parts may be negative (extended probabilities); they are
    reported unclamped so the union identity holds exactly.
    """
    _require_finite(p1_alone, p2_alone, interference)
    if p1_alone < 0 or p2_alone < 0:
        raise UsageError("stand-alone probabilities must be non-negative")
    return UnionReport(
        p_union=p1_alone + p2_alone + interference,
        p_1_only=p1_alone - interference,
        p_2_only=p2_alone - interference,
        p_intersection=interference,
    )


def collapse(space: SampleSpace, observed: str) -> SampleSpace:
    """Project the space onto one observed outcome: amplitude 1 there, 0
    elsewhere, same outcome set."""
    idx = space.index(observed)
    if space.born[idx] <= 0:
        raise DomainError(
            f"cannot collapse onto zero-probability outcome {shown(observed)}")
    amps = tuple(ONE if i == idx else ZERO for i in range(len(space.labels)))
    return SampleSpace(space.labels, amps)


def guess_game(space: SampleSpace) -> GuessStatistics:
    """Call-versus-fall statistics: the caller draws independently from the
    same distribution as the space, so joint[(i, j)] = P(i) P(j) and the
    correct-guess probability is the sum of squared outcome probabilities."""
    if not space.is_normalized:
        raise UsageError("guess_game requires a normalized space")
    probs = space.probabilities()
    p_correct = sum(p * p for p in probs.values())
    return GuessStatistics(p_correct=p_correct, probabilities=probs)
