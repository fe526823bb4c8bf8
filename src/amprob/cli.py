"""Command-line front end.

`amprob run --config FILE [--out BASE] [--no-timestamp]` executes the
configured experiment with the runner of its `config.EXPERIMENTS` record
and writes `BASE.json` (always) plus `BASE.csv` for a tabular experiment
whose format is csv: the runner hands over its named columns, and
`_write_outputs` alone writes the rows. Each summary value is written as
one `json.dumps(value, indent=2)`, except one that comes encoded, as an
iterator of JSON object members (the coin's n x n `joint_table`, one text
per call row), which the writer passes through as it comes, so no
n²-entry dict is built. `amprob validate --config FILE` parses only.
`python -m amprob` (or `python -m amprob.cli`) runs the same tool; the
argument parser is built once, when this module is imported.

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
from typing import Any, Dict, Iterator, List, Optional

from .config import (EXPERIMENTS, ITEMS_PER_WRITE, JSON_MEMBER_SEP,
                     ExperimentConfig, Table, check_output, parse_config)
from .errors import ConfigError, InvariantError, UsageError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

def _json_chunks(summary: Dict[str, Any]) -> Iterator[str]:
    """The text of `json.dumps(summary, indent=2)`, for a non-empty
    summary, in pieces: each value is one `json.dumps(value, indent=2)`,
    indented a level, except an iterator, which stands for a dict and
    yields its members already encoded, as `"key": value` texts joined by
    `JSON_MEMBER_SEP`; those are written as they come (an empty one as
    `{}`)."""
    sep = "{\n  "
    for key, value in summary.items():
        yield f"{sep}{json.dumps(key)}: "
        sep = ",\n  "
        if isinstance(value, Iterator):
            opening = "{\n    "
            for members in value:
                yield opening + members
                opening = JSON_MEMBER_SEP
            yield "\n  }" if opening == JSON_MEMBER_SEP else "{}"
        else:
            yield json.dumps(value, indent=2).replace("\n", "\n  ")
    yield "\n}"


def _write_outputs(base: Path, summary: Dict[str, Any],
                   table: Optional[Table], timestamp: bool) -> List[Path]:
    """Write BASE.json, and BASE.csv when handed a table, appending the
    suffix to BASE's name (so `run.v1` writes `run.v1.json`); returns the
    paths written."""
    if timestamp:
        summary["generated_at"] = datetime.now(timezone.utc).isoformat()
    base.parent.mkdir(parents=True, exist_ok=True)
    written = [base.with_name(base.name + ".json")]
    with open(written[0], "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_json_chunks(summary))
        fh.write("\n")
    if table is not None:
        header, columns = table
        rows = map(",".join, chain([header], zip(*columns())))
        written.append(base.with_name(base.name + ".csv"))
        with open(written[1], "w", encoding="utf-8", newline="") as fh:
            while chunk := list(islice(rows, ITEMS_PER_WRITE)):
                fh.write("\n".join(chunk) + "\n")
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
    run = EXPERIMENTS[config.experiment][4]
    summary, table = run(config.subject, config.params)
    return _write_outputs(base, {"experiment": config.experiment, **summary},
                          table if config.format == "csv" else None, timestamp)


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
