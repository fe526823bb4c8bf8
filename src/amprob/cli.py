"""Command-line front end.

`amprob run --config FILE [--out BASE] [--no-timestamp]` executes the
configured experiment and writes `BASE.json` (always) plus `BASE.csv` for
a tabular experiment whose format is csv. `amprob validate --config FILE`
parses only. `python -m amprob` (or `python -m amprob.cli`) runs the same
tool; the argument parser is built once, when this module is imported.

Exit codes: 0 success, 2 configuration error (including a config that
asks for more memory than the machine has), 3 I/O error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from itertools import chain, islice
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import events, frequency, slits
from .config import (JOINT_KEY_SEP, ExperimentConfig, check_output,
                     parse_config)
from .errors import ConfigError, InvariantError, UsageError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

# A tabular run's BASE.csv, header first, made as it is read: one line
# per row as csv.writer(fh, lineterminator="\n") writes it, a float cell
# by repr, another by str, a string cell quoted as `_csv_cell` quotes it.
Lines = Iterator[str]
# CSV lines joined per write, so that memory stays flat
_ITEMS_PER_WRITE = 512
_JSON_SCALARS = frozenset({str, int, float, bool, type(None)})


def _csv_cell(text: str) -> str:
    """A string cell as csv's QUOTE_MINIMAL writes it with lineterminator
    "\n": quoted, with `"` doubled, if it holds `,`, `"` or a newline."""
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _float_texts(values: Sequence[float]) -> List[str]:
    """`list(map(repr, values))`, calling `repr` once per float64 bit
    pattern, so `-0.0` and `0.0`, and NaN payloads, keep their own texts."""
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64)
                              .view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())),
                     dtype=object)
    return texts[inverse].tolist()


def _run_coin(space: events.SampleSpace, params: Dict[str, Any]
              ) -> Tuple[Dict[str, Any], None]:
    stats = events.guess_game(space)
    summary = {
        "labels": list(space.labels),
        "probabilities": stats.probabilities,
        "p_correct": stats.p_correct,
        "joint_table": {f"{call}{JOINT_KEY_SEP}{fall}": p
                        for (call, fall), p in stats.joint_table.items()},
    }
    return summary, None


def _run_nslit(geom: slits.SlitGeometry, params: Dict[str, Any]
               ) -> Tuple[Dict[str, Any], Lines]:
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
        "peak_intensity": max(profile.probabilities),
    }
    return summary, chain(["y_m,probability\n"], (
        f"{y!r},{p!r}\n" for y, p in zip(profile.screen_points,
                                         profile.probabilities)))


def _run_sorkin(geom: slits.SlitGeometry, params: Dict[str, Any]
                ) -> Tuple[Dict[str, Any], Lines]:
    triple = tuple(params["triple"])
    profile, residuals = slits.sorkin_profile(
        geom, params["y_min"], params["y_max"], params["n_points"], triple)
    peak = max(profile.probabilities)
    summary = {
        "triple": list(triple),
        "peak_scale": peak,
        "max_abs_I3": max(map(abs, residuals)),
    }
    return summary, _sorkin_rows(profile.screen_points, residuals, peak)


def _sorkin_rows(ys: Sequence[float], residuals: Sequence[float],
                 peak: float) -> Lines:
    """The sorkin CSV's lines; the I3 texts come from one `_float_texts`
    call, made when the first row is read."""
    yield "y_m,I3,peak_scale\n"
    end = f",{peak!r}\n"
    yield from (f"{y!r},{r}{end}" for y, r in zip(ys, _float_texts(residuals)))


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
              ) -> Tuple[Dict[str, Any], Lines]:
    report = frequency.convergence_report(space, params["schedule"],
                                          params["seed"])
    summary = {
        "generator": frequency.GENERATOR_ID,
        "seed": params["seed"],
        "schedule": list(report.schedule),
        "phase": params["phase"],
        "max_errors": list(report.max_errors),
    }
    return summary, _freq_rows(report, space.labels)


def _freq_rows(report: frequency.ConvergenceReport,
               labels: Sequence[str]) -> Lines:
    """The freq CSV's rows, one stage at a time, from one `_float_texts`
    call over the whole table (each stage's estimates, then its errors):
    an estimate depends only on its count, and a zero count's error is the
    outcome's true magnitude at every stage, so texts repeat across it."""
    yield "N,outcome,estimate,abs_error\n"
    cells = list(map(_csv_cell, labels))
    texts = _float_texts(list(chain.from_iterable(
        map(column.__getitem__, labels)
        for row, err in zip(report.estimates, report.errors)
        for column in (row, err))))
    width = len(cells)
    for stage, n in enumerate(report.schedule):
        at, head = 2 * width * stage, f"{n},"
        yield from (f"{head}{c},{e},{r}\n" for c, e, r in zip(
            cells, texts[at:at + width], texts[at + width:at + 2 * width]))


_RUNNERS = {
    "coin": _run_coin,
    "nslit": _run_nslit,
    "sorkin": _run_sorkin,
    "delayed": _run_delayed,
    "freq": _run_freq,
}


def _json_chunks(summary: Dict[str, Any]) -> Iterator[str]:
    """The text of `json.dumps(summary, indent=2)` in pieces, from calls to
    the C encoder (which `indent` turns off): a non-empty list or dict of
    scalars is encoded in one call, with the newline and indent in the item
    separator; anything else takes the pure-Python encoder."""
    if not summary:
        yield "{}"
        return
    sep = "{\n  "
    for key, value in summary.items():
        yield f"{sep}{json.dumps(key)}: "
        sep = ",\n  "
        is_dict = isinstance(value, dict)
        if isinstance(value, (list, dict)) and value and \
                _JSON_SCALARS.issuperset(map(type, value.values() if is_dict
                                             else value)):
            text = json.dumps(value, separators=(",\n    ", ": "))
            yield f"{text[0]}\n    {text[1:-1]}\n  {text[-1]}"
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}"


def _write_outputs(base: Path, summary: Dict[str, Any],
                   lines: Optional[Lines], timestamp: bool) -> List[Path]:
    """Write BASE.json, and BASE.csv when handed lines, appending the
    suffix to BASE's name (so `run.v1` writes `run.v1.json`); returns the
    paths written."""
    if timestamp:
        summary["generated_at"] = datetime.now(timezone.utc).isoformat()
    base.parent.mkdir(parents=True, exist_ok=True)
    written = [base.with_name(base.name + ".json")]
    with open(written[0], "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_json_chunks(summary))
        fh.write("\n")
    if lines is not None:
        written.append(base.with_name(base.name + ".csv"))
        with open(written[1], "w", encoding="utf-8", newline="") as fh:
            while chunk := "".join(islice(lines, _ITEMS_PER_WRITE)):
                fh.write(chunk)
    return written


def run_experiment(config: ExperimentConfig, out: Optional[str] = None,
                   timestamp: bool = True) -> List[Path]:
    """Execute a validated config; returns the paths written."""
    base_str = out if out is not None else config.output
    if base_str is None:
        raise ConfigError("no output path: set 'output' in the config or "
                          "pass --out", "output", None)
    try:
        base = check_output(base_str)
    except UsageError as exc:
        raise ConfigError(str(exc), exc.key) from None
    summary, rows = _RUNNERS[config.experiment](config.subject,
                                                config.params)
    return _write_outputs(base, {"experiment": config.experiment, **summary},
                          rows if config.format == "csv" else None, timestamp)


_PARSER = argparse.ArgumentParser(
    prog="amprob", description="Amplitude-based probability experiments")
_COMMANDS = _PARSER.add_subparsers(dest="command", required=True)
_RUN = _COMMANDS.add_parser("run", help="run an experiment config")
_RUN.add_argument("--config", required=True, help="config file path")
_RUN.add_argument("--out", help="output base path (overrides config)")
_RUN.add_argument("--no-timestamp", action="store_true",
                  help="omit the generated_at field for byte-stable output")
_VALIDATE = _COMMANDS.add_parser("validate",
                                 help="parse and validate a config")
_VALIDATE.add_argument("--config", required=True, help="config file path")


def main(argv: Optional[List[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8-sig")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"error: config is not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = parse_config(text)
        if args.command == "validate":
            print(f"ok: {config.experiment} config is valid")
            return EXIT_OK
        written = run_experiment(config, out=args.out,
                                 timestamp=not args.no_timestamp)
    except UsageError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: not enough memory for this config: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL

    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
