"""Classical sample spaces built on amplitudes.

Each outcome of a sample space is its own orthogonal basis direction
carrying one amplitude. Mutual exclusivity is structural: probabilities of
events never pick up cross terms between distinct outcomes, whatever phases
the amplitudes carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

from .amplitude import (
    Amplitude,
    Probability,
    SignedProbability,
    born_probability,
)
from .errors import DomainError, UsageError

NORMALIZATION_TOL = 1e-12


@dataclass(frozen=True)
class SampleSpace:
    """Ordered outcomes (string labels) with one amplitude each."""

    labels: Tuple[str, ...]
    amplitudes: Tuple[Amplitude, ...]

    def __post_init__(self) -> None:
        if len(self.labels) == 0:
            raise UsageError("sample space needs at least one outcome")
        if len(self.labels) != len(self.amplitudes):
            raise UsageError("labels and amplitudes must have equal length")
        if any(not lab for lab in self.labels):
            raise UsageError("outcome labels must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise UsageError("outcome labels must be distinct")

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UsageError(f"unknown outcome {label!r}") from None

    def total_probability(self) -> float:
        return sum(born_probability(a) for a in self.amplitudes)

    @property
    def is_normalized(self) -> bool:
        return abs(self.total_probability() - 1.0) <= NORMALIZATION_TOL

    def probabilities(self) -> Dict[str, Probability]:
        total = self.total_probability()
        return {lab: _scaled_born(a, total)
                for lab, a in zip(self.labels, self.amplitudes)}


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
    """Joint distribution of an independent subjective call against the
    objective outcome, plus the probability the two coincide."""

    p_correct: Probability
    joint_table: Dict[Tuple[str, str], Probability]


def classical_space(weights: Sequence[float],
                    labels: Sequence[str]) -> SampleSpace:
    """Build a normalized space from non-negative weights; amplitude i gets
    magnitude sqrt(w_i / sum w) at phase 0."""
    if len(weights) == 0:
        raise UsageError("weights must be non-empty")
    if len(weights) != len(labels):
        raise UsageError("weights and labels must have equal length")
    if any(w < 0 or not math.isfinite(w) for w in weights):
        raise UsageError("weights must be finite and non-negative")
    total = sum(weights)
    if total <= 0:
        raise UsageError("at least one weight must be positive")
    amps = tuple(Amplitude(math.sqrt(w / total), 0.0) for w in weights)
    return SampleSpace(tuple(labels), amps)


def _scaled_born(amplitude: Amplitude, total: float) -> Probability:
    # Dividing by the space total makes normalized spaces report exactly
    # normalized probabilities (sqrt(1/2)**2 squares to 0.5 + 1 ulp; the
    # ratio x / (x + x) does not). Unnormalized spaces keep raw |A|^2.
    # Callers compute the total once per call, not once per outcome.
    p = born_probability(amplitude)
    if abs(total - 1.0) <= NORMALIZATION_TOL and total > 0:
        return p / total
    return p


def outcome_probability(space: SampleSpace, label: str) -> Probability:
    """Born probability of one outcome (exactly renormalized when the space
    is normalized)."""
    return _scaled_born(space.amplitudes[space.index(label)],
                        space.total_probability())


def event_probability(space: SampleSpace,
                      subset: Iterable[str]) -> Probability:
    """Probability of a set of outcomes: plain sum of per-outcome
    probabilities. No cross terms by orthogonality."""
    indices = {space.index(lab) for lab in subset}
    total = space.total_probability()
    return sum(_scaled_born(space.amplitudes[i], total)
               for i in sorted(indices))


def normalize(space: SampleSpace) -> SampleSpace:
    """Rescale all amplitudes by one positive constant so probabilities sum
    to 1; phases are untouched."""
    total = space.total_probability()
    if total <= 0:
        raise DomainError("cannot normalize a null amplitude assignment")
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
    if not all(math.isfinite(v) for v in (p1_alone, p2_alone, interference)):
        raise DomainError("inputs must be finite")
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
    if born_probability(space.amplitudes[idx]) <= 0:
        raise DomainError(
            f"cannot collapse onto zero-probability outcome {observed!r}")
    amps = tuple(Amplitude(1.0, 0.0) if i == idx else Amplitude(0.0, 0.0)
                 for i in range(len(space.labels)))
    return SampleSpace(space.labels, amps)


def guess_game(space: SampleSpace) -> GuessStatistics:
    """Call-versus-fall statistics: the caller draws independently from the
    same distribution as the space, so joint[(i, j)] = P(i) P(j) and the
    correct-guess probability is the sum of squared outcome probabilities."""
    if not space.is_normalized:
        raise UsageError("guess_game requires a normalized space")
    probs = space.probabilities()
    joint = {(ci, fj): probs[ci] * probs[fj]
             for ci in space.labels for fj in space.labels}
    p_correct = sum(p * p for p in probs.values())
    return GuessStatistics(p_correct=p_correct, joint_table=joint)
