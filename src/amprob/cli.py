"""Command-line front end.

`amprob run --config FILE [--out BASE] [--no-timestamp]` executes the
configured experiment and writes `BASE.json` (always) plus `BASE.csv` for
the tabular experiments. `amprob validate --config FILE` parses only.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from itertools import chain, repeat
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from . import events, frequency, slits
from .config import ExperimentConfig, parse_config
from .errors import ConfigError, InvariantError, UsageError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _geometry(params: Dict[str, Any]) -> slits.SlitGeometry:
    return slits.SlitGeometry(
        source=(params["source_x"], params["source_y"]),
        slit_plane_x=params["slit_plane_x"],
        slit_offsets=tuple(params["slit_offsets"]),
        screen_plane_x=params["screen_plane_x"],
        wavelength=params["wavelength"],
    )


def _run_coin(params: Dict[str, Any]) -> Tuple[Dict[str, Any], None]:
    space = events.classical_space(params["weights"], params["labels"])
    stats = events.guess_game(space)
    summary = {
        "experiment": "coin",
        "labels": list(space.labels),
        "probabilities": space.probabilities(),
        "p_correct": stats.p_correct,
        "joint_table": {f"{call}*{fall}": p
                        for (call, fall), p in stats.joint_table.items()},
    }
    return summary, None


def _run_nslit(params: Dict[str, Any]
               ) -> Tuple[Dict[str, Any], Iterable[Sequence[Any]]]:
    geom = _geometry(params)
    opened = params.get("open_slits")
    if opened is None:
        opened = list(range(geom.n_slits))
    profile = slits.intensity_profile(geom, params["y_min"], params["y_max"],
                                      params["n_points"], opened)
    peaks = slits.refined_maxima(profile)
    spacing = slits.fringe_spacing(profile)
    summary = {
        "experiment": "nslit",
        "open_slits": opened,
        "n_points": params["n_points"],
        "peak_positions_m": peaks,
        "fringe_spacing_estimate_m": spacing,
        "peak_intensity": max(profile.probabilities),
    }
    rows = chain([("y_m", "probability")],
                 zip(profile.screen_points, profile.probabilities))
    return summary, rows


def _run_sorkin(params: Dict[str, Any]
                ) -> Tuple[Dict[str, Any], Iterable[Sequence[Any]]]:
    geom = _geometry(params)
    triple = tuple(params["triple"])
    profile = slits.intensity_profile(geom, params["y_min"], params["y_max"],
                                      params["n_points"], triple)
    peak = max(profile.probabilities)
    residuals = slits.sorkin_invariant(geom, profile.screen_points, triple)
    summary = {
        "experiment": "sorkin",
        "triple": list(triple),
        "peak_scale": peak,
        "max_abs_I3": max(map(abs, residuals)),
    }
    rows = chain([("y_m", "I3", "peak_scale")],
                 zip(profile.screen_points, residuals, repeat(peak)))
    return summary, rows


def _run_delayed(params: Dict[str, Any]) -> Tuple[Dict[str, Any], None]:
    geom = _geometry(params)
    detectors = params.get("detector_y")
    if detectors is None:
        detectors = list(geom.slit_offsets)
    report = slits.delayed_choice(geom, detectors)
    summary = {
        "experiment": "delayed",
        "detector_y_m": list(detectors),
        "per_detector_probability": list(report.per_detector_probability),
        "total": report.total,
        "interference_part": report.interference_part,
    }
    return summary, None


def _run_freq(params: Dict[str, Any]
              ) -> Tuple[Dict[str, Any], List[List[Any]]]:
    space = events.classical_space(params["weights"], params["labels"])
    report = frequency.convergence_report(space, params["schedule"],
                                          params["seed"])
    true_mags = {lab: a.magnitude
                 for lab, a in zip(space.labels, space.amplitudes)}
    rows: List[List[Any]] = [["N", "outcome", "estimate", "abs_error"]]
    for n, row in zip(report.schedule, report.estimates):
        for lab in space.labels:
            rows.append([n, lab, row[lab], abs(row[lab] - true_mags[lab])])
    summary = {
        "experiment": "freq",
        "generator": frequency.GENERATOR_ID,
        "seed": params["seed"],
        "schedule": list(report.schedule),
        "max_errors": list(report.max_errors),
    }
    return summary, rows


_RUNNERS = {
    "coin": _run_coin,
    "nslit": _run_nslit,
    "sorkin": _run_sorkin,
    "delayed": _run_delayed,
    "freq": _run_freq,
}


def _write_outputs(base: Path, summary: Dict[str, Any],
                   rows: Optional[Iterable[Sequence[Any]]],
                   config: ExperimentConfig,
                   timestamp: bool) -> None:
    if timestamp:
        summary["generated_at"] = datetime.now(timezone.utc).isoformat()
    base.parent.mkdir(parents=True, exist_ok=True)
    with open(base.with_suffix(".json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    if rows is not None and config.format == "csv":
        with open(base.with_suffix(".csv"), "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerows(rows)


def run_experiment(config: ExperimentConfig, out: Optional[str] = None,
                   timestamp: bool = True) -> List[Path]:
    """Execute a validated config; returns the paths written."""
    base_str = out if out is not None else config.output
    if base_str is None:
        raise ConfigError("no output path: set 'output' in the config or "
                          "pass --out", "output", None)
    base = Path(base_str)
    summary, rows = _RUNNERS[config.experiment](config.params)
    _write_outputs(base, summary, rows, config, timestamp)
    written = [base.with_suffix(".json")]
    if rows is not None and config.format == "csv":
        written.append(base.with_suffix(".csv"))
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amprob",
        description="Amplitude-based probability experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("--config", required=True, help="config file path")
    run.add_argument("--out", help="output base path (overrides config)")
    run.add_argument("--no-timestamp", action="store_true",
                     help="omit the generated_at field for byte-stable output")

    val = sub.add_parser("validate", help="parse and validate a config")
    val.add_argument("--config", required=True, help="config file path")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "validate":
        print(f"ok: {config.experiment} config is valid")
        return EXIT_OK

    try:
        written = run_experiment(config, out=args.out,
                                 timestamp=not args.no_timestamp)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
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
