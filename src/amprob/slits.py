"""N-slit interference engine.

Each slit contributes a two-leg path amplitude, source to slit and slit to
screen, over exact Euclidean legs (no small-angle approximation). A leg's
phase is its excess over the axial run, b**2 / (hypot(a, b) + a), in
wavelengths mod 1: the dropped axial part is a global phase, and the
probabilities stay within about 3e-11 of a 50-digit reference. Excess
paths of 2**52 wavelengths or more are rejected. Each slit's total
amplitude has magnitude 1 / sqrt(n_slits); arrival probabilities are
relative intensities, not normalized over the screen. The kernel holds a
block of amplitudes as open slits x screen points, so each sum over slits
adds whole rows.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .amplitude import (Amplitude, Probability, SignedProbability,
                        interference_term)
from .errors import InvariantError, UsageError, int_in, shown
from .events import SampleSpace, classical_space

DUAL_FORM_RTOL = 1e-12
# Amplitude cells (open slits x screen points) per kernel pass.
_BLOCK_CELLS = 4096
# 8 in the float64 grid and 8 in its probabilities
_BYTES_PER_POINT = 16


@dataclass(frozen=True)
class SlitGeometry:
    """Planar geometry: x is the optical axis, y the transverse direction.
    A bad argument raises `UsageError` naming its key: `source`, unless
    it is a tuple or list of two items, else `source_x` or `source_y`."""

    source: Tuple[float, float]
    slit_plane_x: float
    slit_offsets: Tuple[float, ...]
    screen_plane_x: float
    wavelength: float

    def __post_init__(self) -> None:
        if not isinstance(self.source, (tuple, list)) or \
                len(self.source) != 2:
            raise UsageError("source must be a pair of real numbers, got "
                             f"{shown(self.source)}", "source")
        for key, values, ndim in (("wavelength", self.wavelength, 0),
                                  ("source_x", self.source[:1], 1),
                                  ("source_y", self.source[1:], 1),
                                  ("slit_plane_x", self.slit_plane_x, 0),
                                  ("screen_plane_x", self.screen_plane_x, 0),
                                  ("slit_offsets", self.slit_offsets, 1)):
            _floats(values, key, ndim)
        if self.wavelength <= 0 or not math.isfinite(self.wavelength):
            raise UsageError("wavelength must be positive and finite",
                             "wavelength")
        if not self.source[0] < self.slit_plane_x:
            raise UsageError("source_x must lie before slit_plane_x",
                             "source_x")
        if not self.slit_plane_x < self.screen_plane_x:
            raise UsageError("screen_plane_x must lie after slit_plane_x",
                             "screen_plane_x")
        if len(self.slit_offsets) < 1:
            raise UsageError("at least one slit is required", "slit_offsets")
        if any(b <= a for a, b in zip(self.slit_offsets,
                                      self.slit_offsets[1:])):
            raise UsageError("slit offsets must be strictly increasing",
                             "slit_offsets")
        _leg_cycles(self, np.empty(0), range(self.n_slits), "wavelength")

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


@dataclass(frozen=True, eq=False)
class IntensityProfile:
    """Relative intensity sampled on a uniform transverse grid, as two
    read-only float64 arrays; `==` is identity."""

    screen_points: np.ndarray
    probabilities: np.ndarray


@dataclass(frozen=True)
class DetectionReport:
    """Which-path detection: one ideal detector per slit.

    Cross terms are excluded by construction, so interference_part is the
    literal constant 0.0, never a cancelled sum.
    """

    per_detector_probability: Tuple[float, ...]
    total: Probability
    interference_part: SignedProbability

    def to_sample_space(self) -> SampleSpace:
        """View the detectors as a classical sample space with outcomes
        `slit_0`, `slit_1`, ... (the situation with unexamined detectors is
        an ordinary exclusive-outcome draw)."""
        per = self.per_detector_probability
        return classical_space(per, [f"slit_{i}" for i in range(len(per))])


def _floats(values: float | Sequence[float], key: str,
            ndim: Optional[int]) -> np.ndarray:
    """`values`, a real number (`ndim` 0), a sequence of them (`ndim` 1)
    or either (None), as a float64 array. Anything else raises
    `UsageError` naming `key`: a str (numeric text included), a ragged
    sequence, an item that is no real number, or an int beyond float64."""
    try:
        array = np.asarray(values)
        if array.dtype.kind not in "biufO" or array.ndim > 1 or \
                ndim not in (None, array.ndim) or array.dtype == object and \
                any(isinstance(v, (str, bytes)) for v in array.flat):
            raise TypeError
        return array.astype(float, copy=False)
    except OverflowError:  # an int beyond float64
        raise UsageError(f"{key} is beyond float64", key) from None
    except (TypeError, ValueError):  # numpy's ValueError: a ragged sequence
        what = "a real number" if ndim == 0 else "real numbers"
        raise UsageError(f"{key} must be {what}, got {shown(values)}",
                         key) from None


def _leg_cycles(geom: SlitGeometry, ys: np.ndarray, opened: Sequence[int],
                key: Optional[str] = None) -> List[np.ndarray]:
    """Source-leg (per slit) and screen-leg (slit x point) phases in cycles:
    each leg's excess over its axial run, over the wavelength, mod 1. An
    excess of 2**52 wavelengths or more raises `UsageError` naming `key`."""
    off = np.array([geom.slit_offsets[i] for i in opened])
    cycles = []
    for a, b in ((geom.slit_plane_x - geom.source[0], off - geom.source[1]),
                 (geom.screen_plane_x - geom.slit_plane_x, ys - off[:, None])):
        with np.errstate(over="ignore", invalid="ignore"):
            c = b * b / (np.hypot(a, b) + a) / geom.wavelength
        worst = float(c.max(initial=0.0))
        if not worst < 2.0 ** 52:  # no fractional bits are left
            raise UsageError(f"excess path {worst:.3g} wavelengths: float64 "
                             "resolves no phase at 2**52 wavelengths or more",
                             key)
        # c mod 1, exactly: c >= +0 and trunc(c) is 0 or within [c/2, c],
        # so by Sterbenz's lemma the subtraction does not round
        c -= np.trunc(c)
        cycles.append(c)
    return cycles


def _amplitudes(geom: SlitGeometry, ys: np.ndarray, opened: Sequence[int]
                ) -> np.ndarray:
    """Kernel: complex (len(opened) x len(ys)) matrix of slit amplitudes,
    one row per open slit."""
    source, screen = _leg_cycles(geom, ys, opened)
    phase = (2.0 * math.pi) * (source[:, None] + screen)
    mag = 1.0 / math.sqrt(geom.n_slits)
    amps = np.empty(phase.shape, dtype=complex)
    amps.real, amps.imag = mag * np.cos(phase), mag * np.sin(phase)
    return amps


def _blockwise(fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
               geom: SlitGeometry, ys: np.ndarray, opened: Sequence[int],
               lead: Tuple[int, ...] = ()) -> np.ndarray:
    """fn(amplitudes, points), of shape lead + (points,), over ys, about
    _BLOCK_CELLS cells at a time; leaves ys and the result read-only."""
    out = np.empty(lead + (len(ys),))
    step = max(1, _BLOCK_CELLS // len(opened))
    for start in range(0, len(ys), step):
        rows = slice(start, start + step)
        out[..., rows] = fn(_amplitudes(geom, ys[rows], opened), ys[rows])
    out.flags.writeable = ys.flags.writeable = False
    return out


def _check_dual_form(direct: np.ndarray, pairwise: np.ndarray,
                     ys: np.ndarray) -> None:
    """Raise `InvariantError` at the first point where the direct Born form
    and the pairwise sum differ by more than DUAL_FORM_RTOL * max(1,
    direct)."""
    bad = np.abs(direct - pairwise) > DUAL_FORM_RTOL * np.maximum(1.0, direct)
    if bad.any():
        k = int(np.argmax(bad))
        raise InvariantError(
            f"direct Born form {float(direct[k])!r} disagrees with pairwise "
            f"sum {float(pairwise[k])!r} at y={float(ys[k])!r}")


def _born(amps: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Arrival probability at each column of `amps`, as |sum of
    amplitudes|^2 checked against the pairwise sum: self terms plus, for
    each slit j, 2 Re(a_j conj(sum of a_i over i < j))."""
    prefix = np.cumsum(amps, axis=0)
    total = prefix[-1]
    direct = total.real * total.real + total.imag * total.imag
    pairwise = (np.sum(amps.real * amps.real + amps.imag * amps.imag, axis=0)
                + 2.0 * np.sum((amps[1:] * prefix[:-1].conj()).real, axis=0))
    _check_dual_form(direct, pairwise, ys)
    return direct


def _open_list(geom: SlitGeometry, open_slits: Iterable[int],
               key: str = "open_slits") -> list[int]:
    try:
        opened = list(open_slits)
    except TypeError:  # not iterable: an int, None
        raise UsageError(f"{key} must be slit indices, got "
                         f"{shown(open_slits)}", key) from None
    if not opened:
        raise UsageError(f"{key} must be non-empty", key)
    for i in opened:
        if not int_in(i, 0, geom.n_slits):
            raise UsageError(f"slit index {shown(i)} is not an int in range "
                             f"0..{geom.n_slits - 1}", key)
    opened = sorted(map(operator.index, opened))
    if len(set(opened)) != len(opened):
        raise UsageError(f"{key} must be distinct", key)
    return opened


def _physical_memory() -> Optional[int]:
    """Physical memory in bytes, or None where `os.sysconf` cannot tell."""
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no name
        return None
    return pages * size if pages > 0 < size else None


def check_profile(geom: SlitGeometry, y_min: float, y_max: float,
                  n_points: int, open_slits: Optional[Iterable[int]] = None
                  ) -> list[int]:
    """Argument check of `intensity_profile`; returns the open slits.

    A grid holds at least 16 bytes per point (the float64 grid and its
    probabilities), so one whose floor exceeds the machine's
    physical memory raises `UsageError` naming `n_points`; where
    `os.sysconf` cannot tell that memory, this rule is skipped."""
    ends = [(key, _floats(y, key, 0).reshape(1))
            for key, y in (("y_min", y_min), ("y_max", y_max))]
    for key, end in ends:
        if not np.isfinite(end[0]):
            raise UsageError(f"{key} must be finite", key)
    if not y_min < y_max:
        raise UsageError("y_min must be less than y_max", "y_min")
    if not int_in(n_points, 2, 2 ** 53 + 1):
        raise UsageError("n_points must be an int in 2..2**53, where "
                         "float64 still counts exactly", "n_points")
    floor, memory = _BYTES_PER_POINT * n_points, _physical_memory()
    if memory is not None and floor > memory:
        raise UsageError(f"n_points {n_points} needs at least {floor} bytes, "
                         f"more than this machine's {memory}", "n_points")
    # a subnormal step, or one within a few ulps of the ends, rounds
    # neighbouring grid points onto the same float
    step = (y_max - y_min) / (n_points - 1)
    if step < sys.float_info.min or \
            not step > 4.0 * math.ulp(max(abs(y_min), abs(y_max))):
        raise UsageError(f"grid step {step!r} over y_min..y_max is too "
                         "small for float64 to keep the points distinct",
                         "n_points")
    opened = _open_list(geom, range(geom.n_slits) if open_slits is None
                        else open_slits)
    # a screen leg's excess grows with |y - offset|: the grid ends bound it
    for key, end in ends:
        _leg_cycles(geom, end, opened, key)
    return opened


def check_triple(geom: SlitGeometry, triple: Sequence[int]) -> list[int]:
    """Argument check of `sorkin_invariant`; returns the triple sorted.
    The triple is read twice, so one with no `len` (an int, None, a
    generator) raises `UsageError` naming `triple`."""
    try:
        three = len(triple) == 3
    except TypeError:  # no len: an int, None, a generator
        three = False
    if not three:
        raise UsageError("triple must hold three slit indices, got "
                         f"{shown(triple)}", "triple")
    return _open_list(geom, triple, "triple")


def check_detectors(geom: SlitGeometry, y_detectors: Sequence[float]
                    ) -> None:
    """Argument check of `delayed_choice`."""
    ys = _floats(y_detectors, "detector_y", 1)
    if len(ys) != geom.n_slits:
        raise UsageError("need exactly one detector per slit", "detector_y")
    _leg_cycles(geom, ys, range(geom.n_slits), "detector_y")


def _screen_points(geom: SlitGeometry, y: float | Sequence[float],
                   opened: Sequence[int], ndim: Optional[int] = 0
                   ) -> np.ndarray:
    """Screen point(s) y as `_floats` reads them with `ndim`, checked
    finite and within the kernel's phase range for the `opened` slits; a
    fault raises `UsageError` naming `y`."""
    ys = _floats(y, "y", ndim)
    if not np.isfinite(ys).all():
        raise UsageError("screen point y must be finite", "y")
    _leg_cycles(geom, ys.reshape(-1), opened, "y")
    return ys


def path_amplitude(geom: SlitGeometry, slit: int, y: float) -> PathAmplitude:
    """Two-leg amplitude through one slit to screen point y; both legs have
    magnitude n_slits**-0.25 so the pair multiplies to the per-slit total
    magnitude 1 / sqrt(n_slits)."""
    opened = _open_list(geom, [slit], "slit")
    ys = _screen_points(geom, y, opened).reshape(1)
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
    ys = _screen_points(geom, y, opened).reshape(1)
    return float(_blockwise(_born, geom, ys, opened)[0])


def pairwise_interference(geom: SlitGeometry, y: float, i: int,
                          j: int) -> SignedProbability:
    """Signed cross term between slits i and j at screen point y."""
    opened = _open_list(geom, [i], "i") + _open_list(geom, [j], "j")
    if opened[0] == opened[1]:
        raise UsageError("j must differ from i", "j")
    ys = _screen_points(geom, y, opened).reshape(1)
    amps = _amplitudes(geom, ys, opened)
    a, b = (Amplitude(z.real, z.imag) for z in amps[:, 0].tolist())
    return interference_term(a, b)


def _sorkin_terms(geom: SlitGeometry, ys: np.ndarray, triple: Sequence[int],
                  opened: Sequence[int]) -> np.ndarray:
    """Rows (triple-open probability, I3) at each point of ys, from one
    kernel pass of `opened`, the checked triple sorted: the triple through
    `_born`; each pair's total as the sum of its two rows of the block,
    the bits `_born`'s cumsum forms, with its dual form checked; the
    singles as the block's own self terms."""
    a, b, c = map(opened.index, triple)

    def terms(amps: np.ndarray, ys: np.ndarray) -> Tuple[np.ndarray, ...]:
        abc = _born(amps, ys)
        q = amps.real * amps.real + amps.imag * amps.imag

        def p(i: int, j: int) -> np.ndarray:
            s = amps[i] + amps[j]
            direct = s.real * s.real + s.imag * s.imag
            cross = amps[i].real * amps[j].real + amps[i].imag * amps[j].imag
            _check_dual_form(direct, (q[i] + q[j]) + 2.0 * cross, ys)
            return direct

        return abc, (abc - p(a, b) - p(a, c) - p(b, c) + q[a] + q[b] + q[c])

    return _blockwise(terms, geom, ys, opened, (2,))


def sorkin_invariant(geom: SlitGeometry, y: float | Sequence[float],
                     triple: Sequence[int]) -> float | np.ndarray:
    """Third-order interference residual for three slits at screen point y,
    or at each point of a sequence y (then a read-only float64 array); zero
    to rounding, as probabilities hold only self and pairwise terms."""
    opened = check_triple(geom, triple)
    ys = _screen_points(geom, y, opened, None)
    i3 = _sorkin_terms(geom, ys.reshape(-1), triple, opened)[1]
    return float(i3[0]) if ys.ndim == 0 else i3


def intensity_profile(geom: SlitGeometry, y_min: float, y_max: float,
                      n_points: int,
                      open_slits: Optional[Iterable[int]] = None
                      ) -> IntensityProfile:
    """Arrival probability on a uniform grid of n_points screen positions."""
    opened = check_profile(geom, y_min, y_max, n_points, open_slits)
    grid = np.linspace(y_min, y_max, n_points)
    return IntensityProfile(grid, _blockwise(_born, geom, grid, opened))


def sorkin_profile(geom: SlitGeometry, y_min: float, y_max: float,
                   n_points: int, triple: Sequence[int]
                   ) -> Tuple[IntensityProfile, np.ndarray]:
    """`intensity_profile` with the triple open and `sorkin_invariant` at
    its grid points, equal to both bit for bit, from one kernel pass."""
    opened = check_triple(geom, triple)
    check_profile(geom, y_min, y_max, n_points, opened)
    grid = np.linspace(y_min, y_max, n_points)
    probs, i3 = _sorkin_terms(geom, grid, triple, opened)
    return IntensityProfile(grid, probs), i3


def delayed_choice(geom: SlitGeometry,
                   y_detectors: Sequence[float]) -> DetectionReport:
    """Which-path mode: detector i accepts quanta only from slit i, so each
    reads the self term |a_i|^2 of its own slit at its position, and the
    interference part is structurally zero."""
    check_detectors(geom, y_detectors)
    ys = np.asarray(y_detectors, dtype=float)
    amps = np.diagonal(_amplitudes(geom, ys, range(geom.n_slits)))
    per = tuple((amps.real * amps.real + amps.imag * amps.imag).tolist())
    return DetectionReport(per_detector_probability=per, total=sum(per),
                           interference_part=0.0)


def refined_maxima(profile: IntensityProfile) -> list[float]:
    """Interior local maxima of a profile, refined by a parabolic fit
    through each peak and its two neighbours."""
    y, p = profile.screen_points, profile.probabilities
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
    return median_spacing(refined_maxima(profile))


def median_spacing(peaks: Sequence[float]) -> Optional[float]:
    """Median gap between adjacent entries of `peaks`, screen positions in
    the order `refined_maxima` returns them, or None if there are fewer
    than two."""
    gaps = sorted(np.diff(peaks).tolist())
    if not gaps:
        return None
    mid = len(gaps) // 2
    return gaps[mid] if len(gaps) % 2 else 0.5 * (gaps[mid - 1] + gaps[mid])
