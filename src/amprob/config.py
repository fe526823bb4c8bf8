"""Flat key = value experiment configuration, and the experiments.

One `key = value` per line, `#` starts a comment, lists are comma
separated. Lengths are SI meters; length keys (`_LENGTHS`) also accept
`_nm`, `_um` and `_mm` suffixed variants, converted at parse time. Parse
errors carry the offending key and line number.

`EXPERIMENTS` holds each experiment's keys, formats and the functions
that build its subject (the `SampleSpace` or `SlitGeometry` it runs on),
check and run it. An `ExperimentConfig` is resolved when it is
constructed: it alone rules on the experiment's keys and their value
kinds, fills the omitted keys, builds the subject and calls the check,
which calls the argument checks of the kernels the run feeds, so each
rule lives in the domain code that owns it.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from . import events, frequency, slits
from .errors import ConfigError, UsageError, shown

# Joins a (call, fall) pair into one key of the coin's joint_table.
JOINT_KEY_SEP = "*"
# Between the members of an object nested in a summary, as
# `json.dumps(summary, indent=2)` writes them.
JSON_MEMBER_SEP = ",\n    "
# CSV rows per write, and floats per `tolist` of a result array
ITEMS_PER_WRITE = 512

_UNIT_SUFFIXES = {"_nm": 1e-9, "_um": 1e-6, "_mm": 1e-3}
# scalar kind -> the exact types its values may have
_KIND_TYPES = {"float": {float, int}, "int": {int}, "str": {str}}
# scalar kind -> how `parse_config` reads its text, blanks around it ignored
_READERS = {"float": float, "int": partial(int, base=10), "str": str.strip}

# key -> (kind, required, default)
Fields = Dict[str, Tuple[str, bool, Any]]
_GEOMETRY_FIELDS: Fields = {  # the block shared by the slit experiments
    "wavelength": ("float", True, None),
    "source_x": ("float", True, None),
    "source_y": ("float", False, 0.0),
    "slit_plane_x": ("float", False, 0.0),
    "screen_plane_x": ("float", True, None),
    "slit_offsets": ("float_list", True, None),
}
# the keys in meters, the only ones that take a unit suffix
_LENGTHS = {*_GEOMETRY_FIELDS, "y_min", "y_max", "detector_y"}

_PROFILE_FIELDS: Fields = {
    "y_min": ("float", True, None),
    "y_max": ("float", True, None),
    "n_points": ("int", True, None),
}
_SPACE_FIELDS: Fields = {
    "weights": ("float_list", True, None),
    "labels": ("str_list", True, None),
}

# A tabular run's BASE.csv, as csv.writer(fh, lineterminator="\n") writes
# it: the column names, and a function, called only when the CSV is written,
# that makes the columns as iterables of cell texts (a float cell by repr,
# another by str, a string cell quoted as `_csv_cell` quotes it).
Table = Tuple[Tuple[str, ...], Callable[[], Iterable[Iterable[str]]]]


def _space(p: Dict[str, Any]) -> events.SampleSpace:
    return events.classical_space(p["weights"], p["labels"])


def _geometry(p: Dict[str, Any]) -> slits.SlitGeometry:
    return slits.SlitGeometry(
        source=(p["source_x"], p["source_y"]), slit_plane_x=p["slit_plane_x"],
        slit_offsets=tuple(p["slit_offsets"]),
        screen_plane_x=p["screen_plane_x"], wavelength=p["wavelength"])


def _check_coin(space: events.SampleSpace, p: Dict[str, Any]) -> None:
    if any(JOINT_KEY_SEP in label for label in p["labels"]):
        raise UsageError(f"coin labels may not contain {JOINT_KEY_SEP!r}, "
                         "which joins the joint_table keys", "labels")


def _check_nslit(geom: slits.SlitGeometry, p: Dict[str, Any]) -> None:
    p.setdefault("open_slits", list(range(geom.n_slits)))
    slits.check_profile(geom, p["y_min"], p["y_max"], p["n_points"],
                        p["open_slits"])


def _check_sorkin(geom: slits.SlitGeometry, p: Dict[str, Any]) -> None:
    slits.check_triple(geom, p["triple"])
    slits.check_profile(geom, p["y_min"], p["y_max"], p["n_points"],
                        p["triple"])


def _check_delayed(geom: slits.SlitGeometry, p: Dict[str, Any]) -> None:
    p.setdefault("detector_y", list(geom.slit_offsets))
    slits.check_detectors(geom, p["detector_y"])


def _check_freq(space: events.SampleSpace, p: Dict[str, Any]) -> None:
    frequency.check_schedule(p["schedule"], p["seed"])


def _csv_cell(text: str) -> str:
    """A string cell as csv's QUOTE_MINIMAL writes it with lineterminator
    "\n": quoted, with `"` doubled, if it holds `,`, `"` or a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _float_texts(values: Any) -> List[Any]:
    """`repr` of each float64 of `values`, an array or nested sequence of
    floats, as `tolist` nests them (so a 1-D input gives a flat list),
    calling `repr` once per bit pattern over the whole input, so `-0.0`
    and `0.0`, and NaN payloads, keep their own texts."""
    values = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())),
                     dtype=object)
    return texts[inverse.reshape(values.shape)].tolist()


def _reprs(a: np.ndarray) -> Iterator[str]:
    """`repr` of each float of a 1-D array, `ITEMS_PER_WRITE` at a time."""
    return chain.from_iterable(map(repr, a[i:i + ITEMS_PER_WRITE].tolist())
                               for i in range(0, len(a), ITEMS_PER_WRITE))


def _run_coin(space: events.SampleSpace, params: Dict[str, Any]
              ) -> Tuple[Dict[str, Any], None]:
    """The guess game's summary. Its `joint_table` goes to the writer as
    an iterator of encoded JSON members, one text per call row, in the key
    order of `GuessStatistics.joint_table`: the products `p_call * p_fall`
    are one `np.multiply.outer` (the same IEEE products), formatted by one
    `_float_texts` call, and each label is escaped once by `json.dumps`."""
    stats = events.guess_game(space)
    probs = stats.probabilities
    p = np.fromiter(probs.values(), np.float64, len(probs))
    texts = _float_texts(np.multiply.outer(p, p))
    summary = {
        "labels": list(space.labels),
        "probabilities": probs,
        "p_correct": stats.p_correct,
        "joint_table": _joint_rows(space.labels, texts),
    }
    return summary, None


def _joint_rows(labels: Iterable[str], texts: List[List[str]]
                ) -> Iterator[str]:
    """Row i of the joint table as `"call*fall": text` members joined by
    `JSON_MEMBER_SEP`; a key's escapes are its two labels' escapes, since
    `json.dumps` escapes each character alone and `*` needs none."""
    quoted = list(map(json.dumps, labels))
    falls = [f"{q[1:]}: " for q in quoted]
    for q, row in zip(quoted, texts):
        call = q[:-1] + JOINT_KEY_SEP
        yield call + (JSON_MEMBER_SEP + call).join(map(operator.add, falls,
                                                       row))


def _run_nslit(geom: slits.SlitGeometry, params: Dict[str, Any]
               ) -> Tuple[Dict[str, Any], Table]:
    opened = params["open_slits"]
    profile = slits.intensity_profile(geom, params["y_min"], params["y_max"],
                                      params["n_points"], opened)
    peaks = slits.refined_maxima(profile)
    spacing = slits.median_spacing(peaks)
    summary = {
        "open_slits": opened,
        "n_points": params["n_points"],
        "peak_positions_m": peaks,
        "fringe_spacing_estimate_m": spacing,
        "peak_intensity": float(profile.probabilities.max()),
    }
    return summary, (("y_m", "probability"), lambda: (
        _reprs(profile.screen_points), _reprs(profile.probabilities)))


def _run_sorkin(geom: slits.SlitGeometry, params: Dict[str, Any]
                ) -> Tuple[Dict[str, Any], Table]:
    triple = tuple(params["triple"])
    profile, residuals = slits.sorkin_profile(
        geom, params["y_min"], params["y_max"], params["n_points"], triple)
    peak = float(profile.probabilities.max())
    summary = {
        "triple": list(triple),
        "peak_scale": peak,
        "max_abs_I3": float(np.abs(residuals).max()),
    }
    # I3 is zero up to rounding, so its values repeat: one `repr` each
    return summary, (("y_m", "I3", "peak_scale"), lambda: (
        _reprs(profile.screen_points), _float_texts(residuals),
        repeat(repr(peak))))


def _run_delayed(geom: slits.SlitGeometry, params: Dict[str, Any]
                 ) -> Tuple[Dict[str, Any], None]:
    detectors = params["detector_y"]
    report = slits.delayed_choice(geom, detectors)
    summary = {
        "detector_y_m": list(detectors),
        "per_detector_probability": list(report.per_detector_probability),
        "total": report.total,
        "interference_part": report.interference_part,
    }
    return summary, None


def _run_freq(space: events.SampleSpace, params: Dict[str, Any]
              ) -> Tuple[Dict[str, Any], Table]:
    report = frequency.convergence_report(space, params["schedule"],
                                          params["seed"])
    summary = {
        "generator": frequency.GENERATOR_ID,
        "seed": params["seed"],
        "schedule": list(report.schedule),
        "phase": params["phase"],
        "max_errors": report.max_errors.tolist(),
    }
    return summary, (("N", "outcome", "estimate", "abs_error"),
                     lambda: _freq_columns(report, space.labels))


def _freq_columns(report: frequency.ConvergenceReport,
                  labels: Sequence[str]) -> Tuple[Iterable[str], ...]:
    """The freq CSV's columns, stage by stage, outcomes in `labels` order;
    all estimates, then all errors, in one `_float_texts` call, since texts
    repeat (an estimate depends only on its count, and a zero count's error
    is its true magnitude at every stage)."""
    cells = list(map(_csv_cell, labels))
    estimates, errors = _float_texts((report.estimates, report.errors))
    return (chain.from_iterable(repeat(str(n), len(cells))
                                for n in report.schedule),
            chain.from_iterable(repeat(cells, len(report.schedule))),
            chain.from_iterable(estimates), chain.from_iterable(errors))


# experiment -> (fields, formats, build, check, run); the first format is
# the default. build(params) makes the subject, check(subject, params)
# fills the defaults it gives and calls the kernels' checks, and
# run(subject, params) returns the summary and the CSV `Table` or None; a
# summary value may be an iterator of encoded JSON members, as
# `cli._json_chunks` takes it.
EXPERIMENTS = {
    "coin": (_SPACE_FIELDS, ("json",), _space, _check_coin, _run_coin),
    "nslit": ({**_GEOMETRY_FIELDS, **_PROFILE_FIELDS,
               "open_slits": ("int_list", False, None)},
              ("csv", "json"), _geometry, _check_nslit, _run_nslit),
    "sorkin": ({**_GEOMETRY_FIELDS, **_PROFILE_FIELDS,
                "triple": ("int_list", False, [0, 1, 2])},
               ("csv", "json"), _geometry, _check_sorkin, _run_sorkin),
    "delayed": ({**_GEOMETRY_FIELDS,
                 "detector_y": ("float_list", False, None)},
                ("json",), _geometry, _check_delayed, _run_delayed),
    "freq": ({**_SPACE_FIELDS, "schedule": ("int_list", True, None),
              "seed": ("int", True, None), "phase": ("float", False, 0.0)},
             ("csv", "json"), _space, _check_freq, _run_freq),
}


def _is_line(text: str) -> bool:
    """Whether a config line gives back TEXT after `key = `: no `#`, no
    line break and no surrounding blanks."""
    return "#" not in text and len(text.splitlines()) < 2 and \
        text == text.strip()


def _is_kind(kind: str, value: Any) -> bool:
    """Whether `value` has the field `kind` as `parse_config` gives
    it: exact types, so a bool is no int and a tuple no list; an int may
    stand for a float, and float64 must hold each float exactly (finite,
    and an int inside its range and precision: `10**400` is no float);
    a str must read back from its line (a list item holds no comma)."""
    is_list = kind.endswith("_list")
    if is_list and type(value) is not list:
        return False
    items = value if is_list else [value]
    scalar = kind.removesuffix("_list")
    if not set(map(type, items)) <= _KIND_TYPES[scalar]:
        return False
    if scalar == "int":
        return True
    if scalar == "float":
        try:  # float() of an int beyond float64 overflows
            floats = list(map(float, items))
        except OverflowError:
            return False
        # an item that float() rounds compares unequal to its float
        return floats == items and all(map(math.isfinite, floats))
    text = ", ".join(items)
    return _is_line(text) and (not is_list or
                               list(map(str.strip, text.split(","))) == items)


@dataclass(frozen=True)
class ExperimentConfig:
    """A checked experiment, every argument resolved. Construction copies
    `params`, fills each omitted key (`open_slits`: every slit;
    `detector_y`: the slit offsets) and builds `subject` once, the sample
    space (coin, freq) or slit geometry the run uses; an unknown
    experiment (a name that is no str included) or key, `params` that
    `dict` cannot read, or a missing or bad argument (of the wrong kind
    included), raises `UsageError` naming the key."""

    experiment: str
    params: Dict[str, Any]
    output: Optional[str] = None
    format: Optional[str] = None  # None: the experiment's default
    subject: Union[events.SampleSpace, slits.SlitGeometry] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if type(self.experiment) is not str or \
                self.experiment not in EXPERIMENTS:
            raise UsageError(f"unknown experiment {shown(self.experiment)}; "
                             f"expected one of {', '.join(EXPERIMENTS)}",
                             "experiment")
        fields, formats, build, check, _ = EXPERIMENTS[self.experiment]
        try:
            p = dict(self.params)
        except (TypeError, ValueError):
            raise UsageError("params must map keys to values, got "
                             f"{shown(self.params)}",
                             "params") from None
        for key in p:
            if key not in fields:
                raise UsageError("unknown key for experiment "
                                 f"{self.experiment!r}", key)
        for key, (kind, required, default) in fields.items():
            if key in p:
                if not _is_kind(kind, p[key]):
                    raise UsageError(f"expected {kind}, got "
                                     f"{shown(p[key])}", key)
            elif required:
                raise UsageError("missing required key", key)
            elif default is not None:
                p[key] = list(default) if isinstance(default, list) \
                    else default
        if self.format is None:
            object.__setattr__(self, "format", formats[0])
        elif self.format not in formats:
            raise UsageError(f"experiment {self.experiment!r} writes "
                             f"{' or '.join(formats)}", "format")
        if self.output is not None:
            check_output(self.output)
            if not _is_line(self.output):
                raise UsageError(f"output base {self.output!r} does not "
                                 "read back from a config line", "output")
        subject = build(p)
        check(subject, p)
        object.__setattr__(self, "params", p)
        object.__setattr__(self, "subject", subject)


def check_output(base: str) -> Path:
    """The output base as a path; `UsageError` naming `output` if BASE is
    no string or names no file (`''`, `.`, `/`, `..`), since outputs
    append to its name, or holds a NUL byte, which no path can."""
    if type(base) is not str or Path(base).name in ("", ".."):
        raise UsageError(f"output base {shown(base)} names no file",
                         "output")
    if "\0" in base:
        raise UsageError(f"output base {base!r} holds a NUL byte", "output")
    return Path(base)


def _parse_scalar(kind: str, raw: str, key: str, line: int) -> Any:
    try:
        return _READERS[kind](raw)
    except ValueError:
        raise ConfigError(f"expected {kind}, got {raw.strip()!r}", key,
                          line) from None


def _parse_value(kind: str, raw: str, key: str, line: int) -> Any:
    if not kind.endswith("_list"):
        return _parse_scalar(kind, raw, key, line)
    if not raw:  # `_split_lines` strips it
        raise ConfigError("empty list", key, line)
    scalar, parts = kind[:-5], raw.split(",")
    try:
        return list(map(_READERS[scalar], parts))
    except ValueError:  # item by item, to name the first bad one
        return [_parse_scalar(scalar, part, key, line) for part in parts]


def _split_lines(text: str) -> Iterator[Tuple[int, str, str]]:
    """Yield (line_number, key, raw_value) for every assignment line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, raw = stripped.split("=", 1)
        yield lineno, key.strip(), raw.strip()


def parse_config(text: str) -> ExperimentConfig:
    """Parse a config document: syntax (lines, value kinds, unit suffixes
    and duplicate keys) here, the rest in `ExperimentConfig`."""
    lines: Dict[str, int] = {}  # line of each key, raw and unit-resolved
    named: Dict[str, str] = {}  # experiment, output and format
    pending: List[Tuple[int, str, str]] = []
    for lineno, key, raw in _split_lines(text):
        if key in lines:
            raise ConfigError(f"duplicate key (first at line {lines[key]})",
                              key, lineno)
        lines[key] = lineno
        if key in ("experiment", "output", "format"):
            named[key] = raw
        else:
            pending.append((lineno, key, raw))

    if "experiment" not in named:
        raise ConfigError("missing required key", "experiment", None)
    fields = EXPERIMENTS.get(named["experiment"], ({},))[0]

    params: Dict[str, Any] = {}
    for lineno, key, raw in pending:
        scale = _UNIT_SUFFIXES.get(key[-3:], 1.0)
        base = key[:-3] if scale != 1.0 else key
        if scale != 1.0 and base not in _LENGTHS:
            raise ConfigError("unit suffix only valid on length keys", key,
                              lineno)
        if base not in fields:
            params[key] = raw  # `ExperimentConfig` names the unknown key
            continue
        if base in params:
            raise ConfigError(f"key set more than once (suffixed variants "
                              f"alias {base!r})", key, lineno)
        value = _parse_value(fields[base][0], raw, key, lineno)
        if scale != 1.0:
            value = ([v * scale for v in value] if isinstance(value, list)
                     else value * scale)
        params[base] = value
        lines[base] = lineno

    try:
        return ExperimentConfig(params=params, **named)
    except UsageError as exc:
        raise ConfigError(str(exc), exc.key, lines.get(exc.key)) from None


def _format_value(value: Any) -> str:
    # str of a float is its repr, which reads back as the same float
    return ", ".join(map(str, value)) if isinstance(value, list) \
        else str(value)


def render_config(config: ExperimentConfig) -> str:
    """Serialize a config so that parse_config(render_config(c)) == c."""
    lines = [f"experiment = {config.experiment}"]
    lines += [f"{key} = {_format_value(config.params[key])}"
              for key in EXPERIMENTS[config.experiment][0]]
    if config.output is not None:
        lines.append(f"output = {config.output}")
    lines.append(f"format = {config.format}")
    return "\n".join(lines) + "\n"
