"""Complex-amplitude algebra.

An outcome carries a complex amplitude; its probability is the squared
magnitude (Born rule). Amplitudes for mutually exclusive alternatives add,
amplitudes for independent events multiply, and the cross term between two
alternatives is the (signed) interference contribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, UsageError, shown

# Full-event probabilities are non-negative reals; interference terms are
# signed and may leave [0, 1]. Both are plain floats, distinguished by the
# producing operation.
Probability = float
SignedProbability = float


def _require_finite(*values: float) -> None:
    """Raise `UsageError` for an item that is no real number, and
    `DomainError` for a NaN, an infinity or an int beyond float64."""
    for v in values:
        try:
            finite = math.isfinite(v)
        except OverflowError:  # an int beyond float64; its repr may raise
            raise DomainError("value beyond float64") from None
        except TypeError:
            raise UsageError(f"not a real number: {shown(v)}") from None
        if not finite:
            raise DomainError(f"non-finite value: {v!r}")


@dataclass(frozen=True, slots=True)
class Amplitude:
    """Immutable complex amplitude with Cartesian storage.

    The phase accessor canonicalizes to (-pi, pi]; the stored components are
    authoritative, so repeated conjugation is exact.
    """

    re: float
    im: float

    def __post_init__(self) -> None:
        # parts are finite Python floats, so numpy scalars (whose
        # arithmetic warns on overflow) go no further than here
        if not (type(self.re) is float and type(self.im) is float and
                math.isfinite(self.re) and math.isfinite(self.im)):
            _require_finite(self.re, self.im)
            object.__setattr__(self, "re", float(self.re))
            object.__setattr__(self, "im", float(self.im))

    @classmethod
    def from_polar(cls, magnitude: float, phase: float) -> "Amplitude":
        _require_finite(magnitude, phase)
        if magnitude < 0:
            raise DomainError("magnitude must be non-negative")
        return cls(magnitude * math.cos(phase), magnitude * math.sin(phase))

    @property
    def magnitude(self) -> float:
        return math.hypot(self.re, self.im)

    @property
    def phase(self) -> float:
        """Phase in (-pi, pi]."""
        p = math.atan2(self.im, self.re)
        return math.pi if p == -math.pi else p


def conjugate(a: Amplitude) -> Amplitude:
    """Mirror assignment of an amplitude: same magnitude, negated phase."""
    return Amplitude(a.re, -a.im)


def born_probability(a: Amplitude) -> Probability:
    """Probability of the outcome carried by `a`.

    Computed as re^2 + im^2 so the result is structurally real and
    non-negative, never a complex product with rounding-level imaginary part.
    """
    return a.re * a.re + a.im * a.im


def _not_amplitudes(amps: object, key: str = "amps") -> UsageError:
    return UsageError(f"{key} must be a sequence of amplitudes, got "
                      f"{shown(amps)}", key)


def combine_exclusive(amps: Sequence[Amplitude]) -> Amplitude:
    """Total amplitude for a union of mutually exclusive alternatives.

    Sums in list order with no reassociation, so results are reproducible
    bit-for-bit.
    """
    if not amps:
        raise UsageError("combine_exclusive requires at least one amplitude")
    re = 0.0
    im = 0.0
    try:
        for a in amps:
            re += a.re
            im += a.im
    except (AttributeError, TypeError):  # not iterable, or no amplitudes
        raise _not_amplitudes(amps) from None
    return Amplitude(re, im)


def combine_independent(amps: Sequence[Amplitude]) -> Amplitude:
    """Total amplitude for a conjunction of independent events (complex
    product, list order)."""
    if not amps:
        raise UsageError("combine_independent requires at least one amplitude")
    re = 1.0
    im = 0.0
    try:
        for a in amps:
            re, im = re * a.re - im * a.im, re * a.im + im * a.re
    except (AttributeError, TypeError):  # not iterable, or no amplitudes
        raise _not_amplitudes(amps) from None
    return Amplitude(re, im)


def interference_term(a1: Amplitude, a2: Amplitude) -> SignedProbability:
    """Signed cross term between two alternatives.

    Equals conj(a1)*a2 + conj(a2)*a1 = 2|a1||a2|cos(phase difference); real
    by construction and negative on destructive half-cycles.
    """
    return 2.0 * (a1.re * a2.re + a1.im * a2.im)


ZERO = Amplitude(0.0, 0.0)
ONE = Amplitude(1.0, 0.0)
