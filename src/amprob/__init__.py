"""Amplitude-based probability engine.

Probabilities are squared magnitudes of complex amplitudes. The package
covers the amplitude algebra, classical sample spaces as orthogonal
amplitude vectors, seeded frequency estimation, N-slit interference with
third-order-null and which-path modes, and a CLI for running experiments.
"""

from .amplitude import (
    Amplitude,
    Probability,
    SignedProbability,
    born_probability,
    combine_exclusive,
    combine_independent,
    conjugate,
    interference_term,
)
from .errors import (
    AmprobError,
    ConfigError,
    DomainError,
    InvariantError,
    UsageError,
)
from .events import (
    GuessStatistics,
    SampleSpace,
    UnionReport,
    classical_space,
    collapse,
    event_probability,
    guess_game,
    normalize,
    outcome_probability,
    union_decomposition,
)
from .frequency import (
    GENERATOR_ID,
    ConvergenceReport,
    TrialLedger,
    amplitude_from_frequency,
    child_seed,
    convergence_report,
    record_trials,
)
from .slits import (
    DetectionReport,
    IntensityProfile,
    PathAmplitude,
    SlitGeometry,
    arrival_probability,
    delayed_choice,
    fringe_spacing,
    intensity_profile,
    median_spacing,
    pairwise_interference,
    path_amplitude,
    refined_maxima,
    sorkin_invariant,
    sorkin_profile,
)

__version__ = "0.1.0"
