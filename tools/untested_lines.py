"""Print every `src/amprob` statement that no tier-1 test executes.

    python3 tools/untested_lines.py [PYTEST_ARGS...]

Runs the tier-1 suite (`tests/`, or PYTEST_ARGS) in this process under a
`sys.settrace` line tracer and prints one `file:line` per statement of
`src/amprob` that no test reached, in file and line order; pytest's own
report goes to stderr. A statement counts when the compiler emitted code
for its first line; docstrings, for example, do not. Code that runs only
in a child process (the tests that start `python -m amprob`) is not seen.
Tracing slows every line several times over, so the traced run sets no
`hypothesis` deadline. The acceptance criteria in `tests/test_acceptance.py`
carry wall-time bounds, so without PYTEST_ARGS that file runs in a second,
untraced pytest run after the rest of `tests/`, and the lines only it
reaches count as untested. Exits with the worse of the pytest statuses.

The standard library's `trace` module is not used: it caches its ignore
decision by bare file stem, so with the standard library ignored it drops
`amprob/events.py` once it has seen `asyncio/events.py`.
"""

from __future__ import annotations

import ast
import contextlib
import sys
from pathlib import Path
from types import CodeType, FrameType
from typing import Any, Iterator, List, Optional, Set, Tuple

import pytest
from hypothesis import settings

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "amprob"
TIMED = ROOT / "tests" / "test_acceptance.py"
PYTEST_FLAGS = ["-q", "-p", "no:cacheprovider",
                "-W", "ignore::pytest.PytestAssertRewriteWarning"]


def _code_lines(code: CodeType) -> Iterator[int]:
    """The line numbers that CODE and the code nested in it emit."""
    yield from (line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_lines(const)


def statements(path: Path) -> Set[int]:
    """First lines of the statements in PATH that compile to code."""
    source = path.read_text(encoding="utf-8")
    emitted = set(_code_lines(compile(source, str(path), "exec")))
    return {node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.stmt) and node.lineno in emitted}


def run_traced(pytest_args: List[str]) -> Tuple[int, Set[Tuple[str, int]]]:
    """Run pytest with PYTEST_ARGS under the tracer; returns its exit
    status and the (file, line) pairs executed in PACKAGE."""
    prefix = str(PACKAGE) + "/"
    hits: Set[Tuple[str, int]] = set()

    def local(frame: FrameType, event: str, arg: Any) -> Any:
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame: FrameType, event: str, arg: Any) -> Optional[Any]:
        if frame.f_code.co_filename.startswith(prefix):
            hits.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    settings.register_profile("untested_lines", deadline=None)
    settings.load_profile("untested_lines")
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(call)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            status = pytest.main([*PYTEST_FLAGS, *pytest_args])
    finally:
        sys.settrace(None)
        settings.load_profile("default")
    return int(status), hits


def main(argv: List[str]) -> int:
    status, hits = run_traced(
        argv or [str(ROOT / "tests"), f"--ignore={TIMED}"])
    if not argv:
        with contextlib.redirect_stdout(sys.stderr):
            status = max(status, int(pytest.main([*PYTEST_FLAGS,
                                                  str(TIMED)])))
    if not hits:
        print(f"error: no line of {PACKAGE} ran; is another amprob first "
              "on sys.path?", file=sys.stderr)
        return 1
    for path in sorted(PACKAGE.glob("*.py")):
        for line in sorted(statements(path)):
            if (str(path), line) not in hits:
                print(f"{path.relative_to(ROOT)}:{line}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
