"""Flat key = value experiment configuration.

One `key = value` per line, `#` starts a comment, lists are comma
separated. Lengths are SI meters; float keys also accept `_nm`, `_um` and
`_mm` suffixed variants which are converted at parse time. Parse errors
carry the offending key and line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .errors import ConfigError

EXPERIMENTS = ("coin", "nslit", "sorkin", "delayed", "freq")
FORMATS = ("csv", "json")

_UNIT_SUFFIXES = {"_nm": 1e-9, "_um": 1e-6, "_mm": 1e-3}

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

_DEFAULT_FORMAT = {"coin": "json", "nslit": "csv", "sorkin": "csv",
                   "delayed": "json", "freq": "csv"}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: Dict[str, Any]
    output: Optional[str] = None
    format: str = "csv"


def _parse_scalar(kind: str, raw: str, key: str, line: int) -> Any:
    raw = raw.strip()
    try:
        if kind == "float":
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError("non-finite")
            return value
        if kind == "int":
            return int(raw, 10)
        if kind == "str":
            return raw
    except ValueError:
        raise ConfigError(f"expected {kind}, got {raw!r}", key, line) from None
    raise AssertionError(kind)


def _parse_value(kind: str, raw: str, key: str, line: int) -> Any:
    if kind.endswith("_list"):
        item_kind = kind[:-5]
        items = [part for part in raw.split(",")]
        if len(items) == 1 and not items[0].strip():
            raise ConfigError("empty list", key, line)
        return [_parse_scalar(item_kind, part, key, line) for part in items]
    return _parse_scalar(kind, raw, key, line)


def _split_lines(text: str) -> List[Tuple[int, str, str]]:
    """Yield (line_number, key, raw_value) for every assignment line."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, raw = stripped.split("=", 1)
        out.append((lineno, key.strip(), raw.strip()))
    return out


def _resolve_unit(key: str) -> Tuple[str, float]:
    for suffix, scale in _UNIT_SUFFIXES.items():
        if key.endswith(suffix):
            return key[: -len(suffix)], scale
    return key, 1.0


def parse_config(text: str) -> ExperimentConfig:
    """Parse and fully validate a configuration document."""
    assignments = _split_lines(text)
    seen: Dict[str, int] = {}

    experiment = None
    exp_line = None
    output = None
    fmt = None
    pending: List[Tuple[int, str, str]] = []
    for lineno, key, raw in assignments:
        if key in seen:
            raise ConfigError(f"duplicate key (first at line {seen[key]})",
                              key, lineno)
        seen[key] = lineno
        if key == "experiment":
            if raw not in EXPERIMENTS:
                raise ConfigError(
                    f"unknown experiment {raw!r}; expected one of "
                    f"{', '.join(EXPERIMENTS)}", key, lineno)
            experiment = raw
            exp_line = lineno
        elif key == "output":
            if not raw:
                raise ConfigError("empty output path", key, lineno)
            output = raw
        elif key == "format":
            if raw not in FORMATS:
                raise ConfigError(f"format must be one of {FORMATS}", key,
                                  lineno)
            fmt = raw
        else:
            pending.append((lineno, key, raw))

    if experiment is None:
        raise ConfigError("missing required key", "experiment", None)
    registry = FIELD_REGISTRY[experiment]
    if fmt is None:
        fmt = _DEFAULT_FORMAT[experiment]

    params: Dict[str, Any] = {}
    lines: Dict[str, int] = {"experiment": exp_line}
    for lineno, key, raw in pending:
        base, scale = _resolve_unit(key)
        if base not in registry:
            raise ConfigError(f"unknown key for experiment {experiment!r}",
                              key, lineno)
        kind = registry[base][0]
        if scale != 1.0 and kind not in ("float", "float_list"):
            raise ConfigError("unit suffix only valid on length keys", key,
                              lineno)
        if base in params:
            raise ConfigError(f"key set more than once (suffixed variants "
                              f"alias {base!r})", key, lineno)
        value = _parse_value(kind, raw, key, lineno)
        if scale != 1.0:
            value = ([v * scale for v in value] if isinstance(value, list)
                     else value * scale)
        params[base] = value
        lines[base] = lineno

    for key, (kind, required, default) in registry.items():
        if key not in params:
            if required:
                raise ConfigError("missing required key", key, None)
            if default is not None:
                params[key] = list(default) if isinstance(default, list) \
                    else default

    _validate(experiment, params, lines, fmt)
    return ExperimentConfig(experiment=experiment, params=params,
                            output=output, format=fmt)


def _fail(message: str, key: str, lines: Dict[str, int]) -> None:
    raise ConfigError(message, key, lines.get(key))


def _validate(experiment: str, params: Dict[str, Any],
              lines: Dict[str, int], fmt: str) -> None:
    if experiment in ("coin", "delayed") and fmt == "csv":
        _fail(f"experiment {experiment!r} produces JSON output only",
              "format", lines)

    if experiment in ("coin", "freq"):
        weights = params["weights"]
        labels = params["labels"]
        if any(w < 0 for w in weights):
            _fail("weights must be non-negative", "weights", lines)
        if sum(weights) <= 0:
            _fail("at least one weight must be positive", "weights", lines)
        if len(labels) != len(weights):
            _fail("labels must match weights in length", "labels", lines)
        if len(set(labels)) != len(labels) or any(not l for l in labels):
            _fail("labels must be distinct and non-empty", "labels", lines)

    if experiment == "freq":
        schedule = params["schedule"]
        if any(n < 1 for n in schedule):
            _fail("schedule entries must be positive", "schedule", lines)
        if any(b <= a for a, b in zip(schedule, schedule[1:])):
            _fail("schedule must be strictly increasing", "schedule", lines)
        if not 0 <= params["seed"] < 2 ** 64:
            _fail("seed must fit in 64 unsigned bits", "seed", lines)

    if experiment in ("nslit", "sorkin", "delayed"):
        if params["wavelength"] <= 0:
            _fail("wavelength must be positive", "wavelength", lines)
        if not params["source_x"] < params["slit_plane_x"]:
            _fail("source_x must lie before slit_plane_x", "source_x", lines)
        if not params["slit_plane_x"] < params["screen_plane_x"]:
            _fail("screen_plane_x must lie after slit_plane_x",
                  "screen_plane_x", lines)
        offsets = params["slit_offsets"]
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            _fail("slit offsets must be strictly increasing", "slit_offsets",
                  lines)
        n_slits = len(offsets)

    if experiment in ("nslit", "sorkin"):
        if not params["y_min"] < params["y_max"]:
            _fail("y_min must be less than y_max", "y_min", lines)
        if params["n_points"] < 2:
            _fail("n_points must be at least 2", "n_points", lines)

    if experiment == "nslit":
        opened = params.get("open_slits")
        if opened is not None:
            if not opened:
                _fail("open_slits must be non-empty", "open_slits", lines)
            if len(set(opened)) != len(opened):
                _fail("open_slits must be distinct", "open_slits", lines)
            if any(not 0 <= i < n_slits for i in opened):
                _fail("open_slits index out of range", "open_slits", lines)

    if experiment == "sorkin":
        triple = params["triple"]
        if len(triple) != 3 or len(set(triple)) != 3:
            _fail("triple must hold three distinct indices", "triple", lines)
        if any(not 0 <= i < n_slits for i in triple):
            _fail("triple index out of range", "triple", lines)
        if n_slits < 3:
            _fail("sorkin needs at least three slits", "slit_offsets", lines)

    if experiment == "delayed":
        detectors = params.get("detector_y")
        if detectors is not None and len(detectors) != n_slits:
            _fail("need exactly one detector per slit", "detector_y", lines)


def _format_value(value: Any) -> str:
    if isinstance(value, list):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(config: ExperimentConfig) -> str:
    """Serialize a config so that parse_config(render_config(c)) == c."""
    lines = [f"experiment = {config.experiment}"]
    for key in FIELD_REGISTRY[config.experiment]:
        if key in config.params:
            lines.append(f"{key} = {_format_value(config.params[key])}")
    if config.output is not None:
        lines.append(f"output = {config.output}")
    lines.append(f"format = {config.format}")
    return "\n".join(lines) + "\n"
