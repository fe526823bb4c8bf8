"""N-slit interference engine.

Each slit contributes a two-leg path amplitude, source to slit and slit to
screen, over exact Euclidean legs (no small-angle approximation). A leg's
phase is its excess over the axial run, b**2 / (hypot(a, b) + a), in
wavelengths mod 1: the dropped axial part is a global phase, and the
probabilities stay within about 3e-11 of a 50-digit reference (reducing
full leg lengths left ~3e-9). Excess paths of 2**52 wavelengths or more
are rejected. Each slit's total amplitude has magnitude 1 / sqrt(n_slits);
arrival probabilities are relative intensities, not normalized over the
screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .amplitude import Amplitude, Probability, SignedProbability
from .errors import InvariantError, UsageError
from .events import SampleSpace, classical_space

DUAL_FORM_RTOL = 1e-12
# Amplitude cells (screen points x open slits) per kernel pass.
_BLOCK_CELLS = 4096


@dataclass(frozen=True)
class SlitGeometry:
    """Planar geometry: x is the optical axis, y the transverse direction."""

    source: Tuple[float, float]
    slit_plane_x: float
    slit_offsets: Tuple[float, ...]
    screen_plane_x: float
    wavelength: float

    def __post_init__(self) -> None:
        if self.wavelength <= 0 or not math.isfinite(self.wavelength):
            raise UsageError("wavelength must be positive and finite")
        if not self.source[0] < self.slit_plane_x < self.screen_plane_x:
            raise UsageError(
                "planes must be ordered: source x < slit plane x < screen x")
        if len(self.slit_offsets) < 1:
            raise UsageError("at least one slit is required")
        if any(b <= a for a, b in zip(self.slit_offsets,
                                      self.slit_offsets[1:])):
            raise UsageError("slit offsets must be strictly increasing")

    @property
    def n_slits(self) -> int:
        return len(self.slit_offsets)


@dataclass(frozen=True)
class PathAmplitude:
    """Per-slit amplitude decomposed into its two legs."""

    slit_index: int
    leg_source_to_slit: Amplitude
    leg_slit_to_screen: Amplitude
    total: Amplitude


@dataclass(frozen=True)
class IntensityProfile:
    """Relative intensity sampled on a uniform transverse grid."""

    screen_points: Tuple[float, ...]
    probabilities: Tuple[float, ...]


@dataclass(frozen=True)
class DetectionReport:
    """Which-path detection: one ideal detector per slit.

    Cross terms are excluded by construction, so interference_part is the
    literal constant 0.0, never a cancelled sum.
    """

    per_detector_probability: Tuple[float, ...]
    total: Probability
    interference_part: SignedProbability

    def to_sample_space(self, labels: Optional[Sequence[str]] = None
                        ) -> SampleSpace:
        """View the detectors as a classical sample space (the situation
        with unexamined detectors is an ordinary exclusive-outcome draw)."""
        if labels is None:
            labels = [f"slit_{i}"
                      for i in range(len(self.per_detector_probability))]
        return classical_space(self.per_detector_probability, labels)


def _leg_cycles(geom: SlitGeometry, ys: np.ndarray, opened: Sequence[int]
                ) -> List[np.ndarray]:
    """Source-leg (per slit) and screen-leg (point x slit) phases in cycles:
    each leg's excess over its axial run, over the wavelength, mod 1."""
    off = np.array([geom.slit_offsets[i] for i in opened])
    cycles = []
    for a, b in ((geom.slit_plane_x - geom.source[0], off - geom.source[1]),
                 (geom.screen_plane_x - geom.slit_plane_x, ys[:, None] - off)):
        with np.errstate(over="ignore", invalid="ignore"):
            c = b * b / (np.hypot(a, b) + a) / geom.wavelength
        if not (worst := float(np.max(c))) < 2.0 ** 52:  # fmod returns 0
            raise UsageError(f"excess path {worst:.3g} wavelengths: float64 "
                             "resolves no phase at 2**52 wavelengths or more")
        cycles.append(np.fmod(c, 1.0))
    return cycles


def _amplitudes(geom: SlitGeometry, ys: np.ndarray, opened: Sequence[int]
                ) -> np.ndarray:
    """Kernel: complex (len(ys) x len(opened)) matrix of slit amplitudes."""
    source, screen = _leg_cycles(geom, ys, opened)
    phase = (2.0 * math.pi) * (source + screen)
    mag = 1.0 / math.sqrt(geom.n_slits)
    amps = np.empty(phase.shape, dtype=complex)
    amps.real, amps.imag = mag * np.cos(phase), mag * np.sin(phase)
    return amps


def _blockwise(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
               geom: SlitGeometry, ys: np.ndarray,
               opened: Sequence[int]) -> np.ndarray:
    """fn(amplitudes, points) over ys, about _BLOCK_CELLS cells at a time."""
    out = np.empty(len(ys))
    step = max(1, _BLOCK_CELLS // len(opened))
    for start in range(0, len(ys), step):
        rows = slice(start, start + step)
        out[rows] = fn(_amplitudes(geom, ys[rows], opened), ys[rows])
    return out


def _born(amps: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Arrival probability of each row of `amps`, as |sum of amplitudes|^2
    checked against the pairwise sum: self terms plus, for each slit j,
    2 Re(a_j conj(sum of a_i over i < j))."""
    prefix = np.cumsum(amps, axis=1)
    total = prefix[:, -1]
    direct = total.real * total.real + total.imag * total.imag
    pairwise = (np.sum(amps.real * amps.real + amps.imag * amps.imag, axis=1)
                + 2.0 * np.sum((amps[:, 1:] * prefix[:, :-1].conj()).real,
                               axis=1))
    bad = np.abs(direct - pairwise) > DUAL_FORM_RTOL * np.maximum(1.0, direct)
    if bad.any():
        k = int(np.argmax(bad))
        raise InvariantError(
            f"direct Born form {float(direct[k])!r} disagrees with pairwise "
            f"sum {float(pairwise[k])!r} at y={float(ys[k])!r}")
    return np.maximum(direct, 0.0)


def _open_list(geom: SlitGeometry, open_slits: Iterable[int]) -> list[int]:
    opened = sorted(set(open_slits))
    if not opened:
        raise UsageError("open_slits must be non-empty")
    for i in opened:
        if not 0 <= i < geom.n_slits:
            raise UsageError(
                f"slit index {i} out of range 0..{geom.n_slits - 1}")
    return opened


def path_amplitude(geom: SlitGeometry, slit: int, y: float) -> PathAmplitude:
    """Two-leg amplitude through one slit to screen point y; both legs have
    magnitude n_slits**-0.25 so the pair multiplies to the per-slit total
    magnitude 1 / sqrt(n_slits)."""
    ys, opened = np.array([float(y)]), _open_list(geom, [slit])
    source, screen = _leg_cycles(geom, ys, opened)
    leg = lambda c: Amplitude.from_polar(geom.n_slits ** -0.25,
                                         2.0 * math.pi * float(c))
    total = complex(_amplitudes(geom, ys, opened)[0, 0])
    return PathAmplitude(slit, leg(source[0]), leg(screen[0, 0]),
                         Amplitude(total.real, total.imag))


def arrival_probability(geom: SlitGeometry, y: float,
                        open_slits: Iterable[int]) -> Probability:
    """Relative intensity at screen point y with the given slits open,
    cross-checked as in `_born`."""
    opened = _open_list(geom, open_slits)
    return float(_blockwise(_born, geom, np.array([float(y)]), opened)[0])


def pairwise_interference(geom: SlitGeometry, y: float, i: int,
                          j: int) -> SignedProbability:
    """Signed cross term between slits i and j at screen point y."""
    if i == j:
        raise UsageError("pairwise interference needs two distinct slits")
    a, b = _amplitudes(geom, np.array([float(y)]), _open_list(geom, (i, j)))[0]
    return float(2.0 * (a.real * b.real + a.imag * b.imag))


def sorkin_invariant(geom: SlitGeometry, y: float | Sequence[float],
                     triple: Sequence[int]) -> float | Tuple[float, ...]:
    """Third-order interference residual for three slits at screen point y,
    or at each point of a sequence y (then a tuple of floats): seven
    subset-open sums, taken as column subsets of one amplitude matrix; zero
    to rounding, as probabilities hold only self and pairwise terms."""
    if len(triple) != 3 or len(set(triple)) != 3:
        raise UsageError("triple must contain three distinct slit indices")
    opened = _open_list(geom, triple)
    a, b, c = triple

    def residual(amps: np.ndarray, ys: np.ndarray) -> np.ndarray:
        p = lambda *idx: _born(amps[:, sorted(map(opened.index, idx))], ys)
        return (p(a, b, c) - p(a, b) - p(a, c) - p(b, c)
                + p(a) + p(b) + p(c))

    ys = np.asarray(y, dtype=float)
    i3 = _blockwise(residual, geom, ys.reshape(-1), opened)
    return float(i3[0]) if ys.ndim == 0 else tuple(i3.tolist())


def intensity_profile(geom: SlitGeometry, y_min: float, y_max: float,
                      n_points: int,
                      open_slits: Optional[Iterable[int]] = None
                      ) -> IntensityProfile:
    """Arrival probability on a uniform grid of n_points screen positions."""
    if not y_min < y_max:
        raise UsageError("y_min must be less than y_max")
    if n_points < 2:
        raise UsageError("n_points must be at least 2")
    opened = _open_list(geom, range(geom.n_slits) if open_slits is None
                        else open_slits)
    grid = np.linspace(y_min, y_max, n_points)
    probs = _blockwise(_born, geom, grid, opened)
    return IntensityProfile(screen_points=tuple(grid.tolist()),
                            probabilities=tuple(probs.tolist()))


def delayed_choice(geom: SlitGeometry,
                   y_detectors: Sequence[float]) -> DetectionReport:
    """Which-path mode: detector i accepts quanta only from slit i, so each
    reads the single-slit probability at its position (self terms only) and
    the interference part is structurally zero."""
    if len(y_detectors) != geom.n_slits:
        raise UsageError("need exactly one detector per slit")
    amps = np.diagonal(_amplitudes(geom, np.asarray(y_detectors, dtype=float),
                                   range(geom.n_slits)))
    per = tuple((amps.real * amps.real + amps.imag * amps.imag).tolist())
    return DetectionReport(per_detector_probability=per, total=sum(per),
                           interference_part=0.0)


def refined_maxima(profile: IntensityProfile) -> list[float]:
    """Interior local maxima of a profile, refined by a parabolic fit
    through each peak and its two neighbours."""
    y = np.asarray(profile.screen_points, dtype=float)
    p = np.asarray(profile.probabilities, dtype=float)
    k = np.flatnonzero((p[1:-1] > p[:-2]) & (p[1:-1] >= p[2:])) + 1
    denom = p[k - 1] - 2.0 * p[k] + p[k + 1]
    fit = denom < 0
    shift = 0.5 * (p[k - 1] - p[k + 1])[fit] / denom[fit]
    peaks = y[k]
    peaks[fit] += shift * (y[k + 1] - y[k])[fit]
    return peaks.tolist()


def fringe_spacing(profile: IntensityProfile) -> Optional[float]:
    """Median spacing between adjacent refined maxima, or None if fewer
    than two maxima exist."""
    gaps = sorted(np.diff(refined_maxima(profile)).tolist())
    if not gaps:
        return None
    mid = len(gaps) // 2
    return gaps[mid] if len(gaps) % 2 else 0.5 * (gaps[mid - 1] + gaps[mid])
