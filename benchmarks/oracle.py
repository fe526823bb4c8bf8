"""Independent correctness checks for the amprob benchmark.

Nothing here calls amprob. Each check recomputes what an output should be
from the generated input alone: slit probabilities with 50-digit `mpmath`
from the exact decimal config values, Sorkin's I3 against 0, classical
probabilities and guess-game statistics with `fractions.Fraction`, and
frequency estimates from the counts implied by the CSV. Checks run outside
the timed region.

A deviation larger than ``TOL * max(1, |oracle|)`` is a failure. The seed
program's worst slit deviation is a few 1e-9 (phase rounding over paths of
millions of wavelengths), far inside the tolerance, while any real defect
(a wrong phase, a dropped term, a swapped label) moves a value by far more.
Only probability-valued outputs feed `errors`, the deviations behind the
benchmark's accuracy metric; amplitude-valued outputs (amplitude sums and
products, normalised amplitudes, frequency estimates) are checked against
the same tolerance but reported as failures only.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

import mpmath

TOL = 1e-6
ORACLE_DPS = 50
# Screen points per checked slit configuration; each costs one mpmath leg
# (about 0.1 ms) per open slit.
SAMPLE_POINTS = 32

_UNITS = {"_nm": "1e-9", "_um": "1e-6", "_mm": "1e-3"}


class Verdict:
    """Failures and probability deviations found for one operation."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.errors: List[float] = []

    @property
    def max_err(self) -> float:
        return max(self.errors, default=0.0)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def require(self, condition: bool, message: str) -> bool:
        if not condition:
            self.fail(message)
        return condition

    def compare(self, what: str, got: Any, want: Any,
                probability: bool = True) -> None:
        """Compare a float output with an exact or high-precision value."""
        try:
            if isinstance(want, Fraction):
                err = float(abs(Fraction(got) - want))
            elif isinstance(want, float):
                err = abs(float(got) - want)
            else:
                err = float(abs(mpmath.mpf(got) - want))
            scale = max(1.0, abs(float(want)))
        except (TypeError, ValueError, OverflowError) as exc:
            self.fail(f"{what}: cannot compare {got!r}: {exc}")
            return
        if not err <= TOL * scale:
            self.fail(f"{what}: got {got!r}, oracle {float(want)!r}, "
                      f"|diff| {err:.3g}")
        if probability:
            self.errors.append(err)


def _exact(spec: Dict[str, Any], key: str) -> Any:
    """Value of a length key as written (decimal text, unit suffix applied
    in decimal) at the current mpmath precision; absent keys are 0, the
    program's default."""
    raw, scale = spec.get(key, "0"), "1"
    for suffix, factor in _UNITS.items():
        if key + suffix in spec:
            raw, scale = spec[key + suffix], factor
    if isinstance(raw, list):
        return [mpmath.mpf(v) * mpmath.mpf(scale) for v in raw]
    return mpmath.mpf(raw) * mpmath.mpf(scale)


def _input_float(spec: Dict[str, Any], key: str) -> float:
    """A length key as a float (within an ulp of what the program reads)."""
    return float(_exact(spec, key))


class SlitOracle:
    """Exact-path N-slit intensity, as the README defines it: slit i
    contributes exp(2 pi i (L1 + L2) / lambda) / sqrt(n_slits) where L1 and
    L2 are the Euclidean source-slit and slit-screen legs."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        with mpmath.workdps(ORACLE_DPS):
            self.wavelength = _exact(spec, "wavelength")
            sx = _exact(spec, "source_x")
            sy = _exact(spec, "source_y")
            self.slit_x = _exact(spec, "slit_plane_x")
            self.screen_x = _exact(spec, "screen_plane_x")
            self.offsets = _exact(spec, "slit_offsets")
            self.first_leg = [mpmath.hypot(self.slit_x - sx, off - sy)
                              for off in self.offsets]

    @property
    def n_slits(self) -> int:
        return len(self.offsets)

    def amplitude(self, slit: int, y: float) -> Any:
        with mpmath.workdps(ORACLE_DPS):
            off = self.offsets[slit]
            second = mpmath.hypot(self.screen_x - self.slit_x,
                                  mpmath.mpf(y) - off)
            return (mpmath.expjpi(2 * (self.first_leg[slit] + second)
                                  / self.wavelength)
                    / mpmath.sqrt(self.n_slits))

    def probability(self, y: float, opened: Iterable[int]) -> Any:
        with mpmath.workdps(ORACLE_DPS):
            total = mpmath.mpc(0)
            for i in opened:
                total += self.amplitude(i, y)
            return total.real ** 2 + total.imag ** 2


def _read_json(path: Path, verdict: Verdict) -> Optional[Dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        verdict.fail(f"summary {path.name}: {exc}")
        return None
    if not verdict.require(isinstance(data, dict), "summary is not an object"):
        return None
    return data


def _read_csv(path: Path, header: List[str], verdict: Verdict
              ) -> Optional[List[List[str]]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        verdict.fail(f"table {path.name}: {exc}")
        return None
    if not verdict.require(rows and rows[0] == header,
                           f"table header {rows[:1]!r}, expected {header}"):
        return None
    return rows[1:]


def _floats(rows: List[List[str]], column: int, verdict: Verdict
            ) -> Optional[List[float]]:
    try:
        values = [float(r[column]) for r in rows]
    except (IndexError, ValueError) as exc:
        verdict.fail(f"table column {column}: {exc}")
        return None
    if not verdict.require(all(map(math.isfinite, values)),
                           f"table column {column} has non-finite values"):
        return None
    return values


def _check_grid(spec: Dict[str, Any], ys: List[float], verdict: Verdict
                ) -> None:
    n = spec["n_points"]
    verdict.require(len(ys) == n, f"{len(ys)} rows, expected {n}")
    lo, hi = _input_float(spec, "y_min"), _input_float(spec, "y_max")
    verdict.require(bool(ys) and math.isclose(ys[0], lo, rel_tol=1e-12)
                    and math.isclose(ys[-1], hi, rel_tol=1e-12)
                    and all(b > a for a, b in zip(ys, ys[1:])),
                    "screen grid does not run from y_min to y_max")


def _sample_rows(n_rows: int, rng: random.Random) -> List[int]:
    return sorted(rng.sample(range(n_rows), min(n_rows, SAMPLE_POINTS)))


def _check_nslit(spec, summary, rows, deep, rng, verdict) -> None:
    oracle_geom = SlitOracle(spec) if deep else None
    n_slits = len(spec["slit_offsets_um"])
    opened = spec.get("open_slits", list(range(n_slits)))
    verdict.require(summary.get("open_slits") == opened,
                    f"open_slits {summary.get('open_slits')!r} != {opened}")
    verdict.require(summary.get("n_points") == spec["n_points"],
                    "n_points not echoed")
    ys = _floats(rows, 0, verdict)
    ps = _floats(rows, 1, verdict)
    if ys is None or ps is None:
        return
    _check_grid(spec, ys, verdict)
    ceiling = len(opened) ** 2 / n_slits * (1 + TOL)
    verdict.require(all(0.0 <= p <= ceiling for p in ps),
                    f"probability outside [0, {ceiling}]")
    verdict.require(summary.get("peak_intensity") == max(ps, default=None),
                    "peak_intensity is not the table maximum")
    peaks = summary.get("peak_positions_m")
    verdict.require(isinstance(peaks, list)
                    and all(ys[0] <= y <= ys[-1] for y in peaks),
                    "peak positions outside the screen")
    if deep:
        for k in _sample_rows(len(ys), rng):
            verdict.compare(f"P(y={ys[k]!r})", ps[k],
                            oracle_geom.probability(ys[k], opened))


def _check_sorkin(spec, summary, rows, deep, rng, verdict) -> None:
    verdict.require(summary.get("triple") == spec["triple"],
                    "triple not echoed")
    ys = _floats(rows, 0, verdict)
    i3 = _floats(rows, 1, verdict)
    scale = _floats(rows, 2, verdict)
    if ys is None or i3 is None or scale is None:
        return
    _check_grid(spec, ys, verdict)
    peak = summary.get("peak_scale")
    n_slits = len(spec["slit_offsets_um"])
    verdict.require(isinstance(peak, float) and 0 < peak <= 9 / n_slits
                    * (1 + TOL) and all(s == peak for s in scale),
                    f"peak_scale {peak!r} inconsistent")
    worst = max(map(abs, i3))
    verdict.require(summary.get("max_abs_I3") == worst,
                    "max_abs_I3 is not the table maximum")
    if deep:
        for y, r in zip(ys, i3):
            verdict.compare(f"I3(y={y!r})", r, 0.0)
    else:
        verdict.require(worst <= TOL * max(1.0, peak), f"|I3| {worst!r}")


def _check_delayed(spec, summary, deep, verdict) -> None:
    n_slits = len(spec["slit_offsets_um"])
    if "detector_y_mm" in spec:
        want_y = [float(v) for v in _exact(spec, "detector_y")]
    else:
        want_y = [float(v) for v in _exact(spec, "slit_offsets")]
    got_y = summary.get("detector_y_m")
    verdict.require(isinstance(got_y, list) and len(got_y) == n_slits
                    and all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)
                            for a, b in zip(got_y, want_y)),
                    "detector positions not echoed")
    per = summary.get("per_detector_probability")
    if not verdict.require(isinstance(per, list) and len(per) == n_slits,
                           "per_detector_probability missing"):
        return
    verdict.require(summary.get("interference_part") == 0.0,
                    "interference_part is not exactly 0")
    oracle_geom = SlitOracle(spec)
    want = [oracle_geom.probability(y, [i]) for i, y in enumerate(want_y)]
    for i, (p, w) in enumerate(zip(per, want)):
        verdict.compare(f"detector {i}", p, w)
    verdict.compare("total", summary.get("total"), mpmath.fsum(want))


def _fractions(weights: Sequence[str]) -> List[Fraction]:
    ws = [Fraction(w) for w in weights]
    total = sum(ws)
    return [w / total for w in ws]


def _check_coin(spec, summary, deep, verdict) -> None:
    labels = spec["labels"]
    probs = summary.get("probabilities")
    if not verdict.require(summary.get("labels") == labels
                           and isinstance(probs, dict)
                           and list(probs) == labels,
                           "labels or probabilities missing"):
        return
    joint = summary.get("joint_table")
    keys = [f"{a}*{b}" for a in labels for b in labels]
    if not verdict.require(isinstance(joint, dict) and list(joint) == keys,
                           "joint_table keys wrong"):
        return
    verdict.require(abs(math.fsum(probs.values()) - 1.0) <= TOL,
                    "probabilities do not sum to 1")
    if not deep:
        return
    exact = _fractions(spec["weights"])
    for lab, p in zip(labels, exact):
        verdict.compare(f"P({lab})", probs[lab], p)
    verdict.compare("p_correct", summary.get("p_correct"),
                    sum(p * p for p in exact))
    for key, (a, b) in zip(keys, ((a, b) for a in exact for b in exact)):
        verdict.compare(f"joint {key}", joint[key], a * b)


def _check_freq(spec, summary, rows, deep, verdict) -> None:
    labels = spec["labels"]
    schedule = spec["schedule"]
    verdict.require(summary.get("seed") == spec["seed"], "seed not echoed")
    verdict.require(summary.get("schedule") == schedule,
                    "schedule not echoed")
    verdict.require(isinstance(summary.get("generator"), str),
                    "generator not recorded")
    max_errors = summary.get("max_errors")
    if not verdict.require(isinstance(max_errors, list)
                           and len(max_errors) == len(schedule)
                           and len(rows) == len(schedule) * len(labels),
                           "table or max_errors has the wrong length"):
        return
    estimates = _floats(rows, 2, verdict)
    errors = _floats(rows, 3, verdict)
    if estimates is None or errors is None:
        return
    if not verdict.require(
            [r[0] for r in rows] == [str(n) for n in schedule
                                     for _ in labels]
            and [r[1] for r in rows] == labels * len(schedule),
            "rows are not stage by stage in label order"):
        return
    if deep:
        with mpmath.workdps(ORACLE_DPS):
            truth = [mpmath.sqrt(mpmath.mpf(p.numerator) / p.denominator)
                     for p in _fractions(spec["weights"])]
    for s, n in enumerate(schedule):
        block = range(s * len(labels), (s + 1) * len(labels))
        counts = [round(estimates[k] ** 2 * n) for k in block]
        verdict.require(sum(counts) == n,
                        f"stage {n}: implied counts sum to {sum(counts)}")
        verdict.require(max_errors[s] == max(errors[k] for k in block),
                        f"stage {n}: max_errors is not the table maximum")
        if not deep:
            continue
        for k, c in zip(block, counts):
            verdict.compare(f"N={n} {rows[k][1]} estimate", estimates[k],
                            math.sqrt(c / n), probability=False)
            verdict.compare(f"N={n} {rows[k][1]} abs_error", errors[k],
                            abs(estimates[k] - truth[k - block[0]]),
                            probability=False)


_HEADERS = {
    "nslit": ["y_m", "probability"],
    "sorkin": ["y_m", "I3", "peak_scale"],
    "freq": ["N", "outcome", "estimate", "abs_error"],
}


def check_cli(spec: Dict[str, Any], base: Path, deep: bool,
              rng: Optional[random.Random]) -> Verdict:
    """Check the files one `amprob run` wrote at `base`. The cheap
    structural checks always run; `deep` adds the oracle comparisons."""
    verdict = Verdict()
    experiment = spec["experiment"]
    summary = _read_json(base.with_suffix(".json"), verdict)
    if summary is None:
        return verdict
    verdict.require(summary.get("experiment") == experiment,
                    "experiment not echoed")
    rows = None
    if experiment in _HEADERS:
        rows = _read_csv(base.with_suffix(".csv"), _HEADERS[experiment],
                         verdict)
        if rows is None:
            return verdict
    if experiment == "nslit":
        _check_nslit(spec, summary, rows, deep, rng, verdict)
    elif experiment == "sorkin":
        _check_sorkin(spec, summary, rows, deep, rng, verdict)
    elif experiment == "delayed":
        _check_delayed(spec, summary, deep, verdict)
    elif experiment == "coin":
        _check_coin(spec, summary, deep, verdict)
    elif experiment == "freq":
        _check_freq(spec, summary, rows, deep, verdict)
    return verdict


# --- library calls (`spaces`) -------------------------------------------

def _components(amp: Any) -> tuple:
    return amp.re, amp.im


class BlockOracle:
    """Exact values for one generated space block, built once and used to
    check every library call made on that block."""

    def __init__(self, block: Dict[str, Any]) -> None:
        self.block = block
        self.labels = block["labels"]
        weights = [Fraction(float(w)) for w in block["weights"]]
        total = sum(weights)
        self.p = {lab: w / total for lab, w in zip(self.labels, weights)}
        self.amps = [(Fraction(re), Fraction(im)) for re, im in block["amps"]]

    def check(self, call: Dict[str, Any], result: Any) -> Verdict:
        """Check the result of one library call on this block."""
        verdict = Verdict()
        try:
            self._check(call, result, verdict)
        except (AttributeError, KeyError, TypeError, IndexError) as exc:
            verdict.fail(f"{call['fn']}: malformed result: {exc!r}")
        return verdict

    def _check(self, call: Dict[str, Any], result: Any, verdict: Verdict
               ) -> None:
        fn = call["fn"]
        labels, exact_p, amps = self.labels, self.p, self.amps
        raw_amps = self.block["amps"]
        if fn == "classical_space":
            verdict.require(tuple(result.labels) == tuple(labels),
                            "labels changed")
            for lab, a in zip(labels, result.amplitudes):
                verdict.compare(f"|A({lab})|^2", a.re * a.re + a.im * a.im,
                                exact_p[lab])
                verdict.require(a.im == 0.0, f"A({lab}) has a phase")
        elif fn == "probabilities":
            verdict.require(list(result) == labels, "outcomes reordered")
            for lab in labels:
                verdict.compare(f"P({lab})", result[lab], exact_p[lab])
        elif fn == "outcome_probability":
            verdict.compare(f"P({call['label']})", result,
                            exact_p[call["label"]])
        elif fn == "event_probability":
            verdict.compare("P(event)", result,
                            sum(exact_p[lab] for lab in set(call["subset"])))
        elif fn == "guess_game":
            verdict.compare("p_correct", result.p_correct,
                            sum(p * p for p in exact_p.values()))
            verdict.require(len(result.joint_table) == len(labels) ** 2,
                            "joint table size")
            for (a, b), p in result.joint_table.items():
                verdict.compare(f"joint {a},{b}", p, exact_p[a] * exact_p[b])
        elif fn == "SampleSpace":
            verdict.require([_components(a) for a in result.amplitudes]
                            == [tuple(a) for a in raw_amps],
                            "amplitudes changed")
        elif fn == "normalize":
            norm2 = sum(re * re + im * im for re, im in amps)
            with mpmath.workdps(ORACLE_DPS):
                scale = 1 / mpmath.sqrt(mpmath.mpf(norm2.numerator)
                                        / norm2.denominator)
            for lab, a, (re, im) in zip(labels, result.amplitudes, amps):
                verdict.compare(f"|A({lab})|^2", a.re * a.re + a.im * a.im,
                                (re * re + im * im) / norm2)
                verdict.compare(f"A({lab}).re", a.re, re * scale,
                                probability=False)
                verdict.compare(f"A({lab}).im", a.im, im * scale,
                                probability=False)
        elif fn == "collapse":
            want = [(1.0, 0.0) if lab == call["label"] else (0.0, 0.0)
                    for lab in labels]
            verdict.require([_components(a) for a in result.amplitudes]
                            == want, "collapse is not one-hot")
        elif fn == "union_decomposition":
            p1, p2, i = (Fraction(v) for v in call["args"])
            verdict.compare("p_union", result.p_union, p1 + p2 + i)
            verdict.compare("p_1_only", result.p_1_only, p1 - i)
            verdict.compare("p_2_only", result.p_2_only, p2 - i)
            verdict.compare("p_intersection", result.p_intersection, i)
        elif fn == "combine_exclusive":
            verdict.compare("sum re", result.re, sum(a[0] for a in amps),
                            probability=False)
            verdict.compare("sum im", result.im, sum(a[1] for a in amps),
                            probability=False)
        elif fn == "combine_independent":
            with mpmath.workdps(ORACLE_DPS):
                prod = mpmath.mpc(1)
                for re, im in raw_amps:
                    prod *= mpmath.mpc(re, im)
            verdict.compare("product re", result.re, prod.real,
                            probability=False)
            verdict.compare("product im", result.im, prod.imag,
                            probability=False)
        elif fn == "interference_term":
            verdict.require(len(result) == len(amps) - 1, "pair count")
            for k, got in enumerate(result):
                (r1, i1), (r2, i2) = amps[k], amps[k + 1]
                verdict.compare(f"I({k},{k + 1})", got,
                                2 * (r1 * r2 + i1 * i2))
        elif fn == "born_probability":
            verdict.require(len(result) == len(amps), "amplitude count")
            for k, got in enumerate(result):
                re, im = amps[k]
                verdict.compare(f"|A{k}|^2", got, re * re + im * im)
        elif fn == "conjugate":
            verdict.require([_components(a) for a in result]
                            == [(re, -im) for re, im in raw_amps],
                            "conjugate is not exact")
        else:
            verdict.fail(f"no oracle for {fn}")
