"""Flat key = value experiment configuration.

One `key = value` per line, `#` starts a comment, lists are comma
separated. Lengths are SI meters; length keys (`_LENGTHS`) also accept
`_nm`, `_um` and `_mm` suffixed variants, converted at parse time. Parse
errors carry the offending key and line number.

An `ExperimentConfig` is resolved when it is constructed: it alone rules
on the experiment's keys and their value kinds, fills the omitted keys,
builds the run's subject (its `SampleSpace` or `SlitGeometry`) and calls
the argument checks of the kernels the run feeds, so each rule lives in
the domain code that owns it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from . import events, frequency, slits
from .errors import ConfigError, UsageError, shown

# experiment -> the output formats it can write; the first is the default.
OUTPUT_FORMATS = {"coin": ("json",), "nslit": ("csv", "json"),
                  "sorkin": ("csv", "json"), "delayed": ("json",),
                  "freq": ("csv", "json")}
# Joins a (call, fall) pair into one key of the coin's joint_table.
JOINT_KEY_SEP = "*"

_UNIT_SUFFIXES = {"_nm": 1e-9, "_um": 1e-6, "_mm": 1e-3}
# scalar kind -> the exact types its values may have
_KIND_TYPES = {"float": {float, int}, "int": {int}, "str": {str}}
# scalar kind -> how `parse_config` reads its text
_READERS = {"float": float, "int": lambda raw: int(raw, 10), "str": str}

# key -> (type, required, default); geometry block shared by the slit
# experiments.
_GEOMETRY_FIELDS: Dict[str, Tuple[str, bool, Any]] = {
    "wavelength": ("float", True, None),
    "source_x": ("float", True, None),
    "source_y": ("float", False, 0.0),
    "slit_plane_x": ("float", False, 0.0),
    "screen_plane_x": ("float", True, None),
    "slit_offsets": ("float_list", True, None),
}
# the keys in meters, the only ones that take a unit suffix
_LENGTHS = {*_GEOMETRY_FIELDS, "y_min", "y_max", "detector_y"}

_PROFILE_FIELDS: Dict[str, Tuple[str, bool, Any]] = {
    "y_min": ("float", True, None),
    "y_max": ("float", True, None),
    "n_points": ("int", True, None),
}

FIELD_REGISTRY: Dict[str, Dict[str, Tuple[str, bool, Any]]] = {
    "coin": {
        "weights": ("float_list", True, None),
        "labels": ("str_list", True, None),
    },
    "nslit": {
        **_GEOMETRY_FIELDS,
        **_PROFILE_FIELDS,
        "open_slits": ("int_list", False, None),
    },
    "sorkin": {
        **_GEOMETRY_FIELDS,
        **_PROFILE_FIELDS,
        "triple": ("int_list", False, [0, 1, 2]),
    },
    "delayed": {
        **_GEOMETRY_FIELDS,
        "detector_y": ("float_list", False, None),
    },
    "freq": {
        "weights": ("float_list", True, None),
        "labels": ("str_list", True, None),
        "schedule": ("int_list", True, None),
        "seed": ("int", True, None),
        "phase": ("float", False, 0.0),
    },
}


def _is_line(text: str) -> bool:
    """Whether a config line gives back TEXT after `key = `: no `#`, no
    line break and no surrounding blanks."""
    return "#" not in text and len(text.splitlines()) < 2 and \
        text == text.strip()


def _is_kind(kind: str, value: Any) -> bool:
    """Whether `value` has the registry `kind` as `parse_config` gives
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
    if scalar != "str":
        return scalar == "int" or all(
            abs(v) <= sys.float_info.max and float(v) == v for v in items)
    text = ", ".join(items)
    return _is_line(text) and (not is_list or
                               [t.strip() for t in text.split(",")] == items)


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
                self.experiment not in FIELD_REGISTRY:
            raise UsageError(f"unknown experiment {shown(self.experiment)}; "
                             f"expected one of {', '.join(FIELD_REGISTRY)}",
                             "experiment")
        fields = FIELD_REGISTRY[self.experiment]
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
        formats = OUTPUT_FORMATS[self.experiment]
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
        if self.experiment in ("coin", "freq"):
            subject = events.classical_space(p["weights"], p["labels"])
        else:
            subject = slits.SlitGeometry(
                source=(p["source_x"], p["source_y"]),
                slit_plane_x=p["slit_plane_x"],
                slit_offsets=tuple(p["slit_offsets"]),
                screen_plane_x=p["screen_plane_x"],
                wavelength=p["wavelength"])
        if self.experiment == "coin":
            if any(JOINT_KEY_SEP in label for label in p["labels"]):
                raise UsageError(f"coin labels may not contain "
                                 f"{JOINT_KEY_SEP!r}, which joins the "
                                 "joint_table keys", "labels")
        elif self.experiment == "freq":
            frequency.check_schedule(p["schedule"], p["seed"])
        elif self.experiment == "nslit":
            p.setdefault("open_slits", list(range(subject.n_slits)))
            slits.check_profile(subject, p["y_min"], p["y_max"],
                                p["n_points"], p["open_slits"])
        elif self.experiment == "sorkin":
            slits.check_triple(subject, p["triple"])
            slits.check_profile(subject, p["y_min"], p["y_max"],
                                p["n_points"], p["triple"])
        else:
            p.setdefault("detector_y", list(subject.slit_offsets))
            slits.check_detectors(subject, p["detector_y"])
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
    raw = raw.strip()
    try:
        return _READERS[kind](raw)
    except ValueError:
        raise ConfigError(f"expected {kind}, got {raw!r}", key, line) from None


def _parse_value(kind: str, raw: str, key: str, line: int) -> Any:
    if not kind.endswith("_list"):
        return _parse_scalar(kind, raw, key, line)
    if not raw:  # `_split_lines` strips it
        raise ConfigError("empty list", key, line)
    return [_parse_scalar(kind[:-5], part, key, line)
            for part in raw.split(",")]


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
    registry = FIELD_REGISTRY.get(named["experiment"], {})

    params: Dict[str, Any] = {}
    for lineno, key, raw in pending:
        scale = _UNIT_SUFFIXES.get(key[-3:], 1.0)
        base = key[:-3] if scale != 1.0 else key
        if scale != 1.0 and base not in _LENGTHS:
            raise ConfigError("unit suffix only valid on length keys", key,
                              lineno)
        if base not in registry:
            params[key] = raw  # `ExperimentConfig` names the unknown key
            continue
        if base in params:
            raise ConfigError(f"key set more than once (suffixed variants "
                              f"alias {base!r})", key, lineno)
        value = _parse_value(registry[base][0], raw, key, lineno)
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
              for key in FIELD_REGISTRY[config.experiment]]
    if config.output is not None:
        lines.append(f"output = {config.output}")
    lines.append(f"format = {config.format}")
    return "\n".join(lines) + "\n"
