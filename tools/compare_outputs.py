"""Check that this tree's `amprob run` outputs equal those of a git revision.

    python3 tools/compare_outputs.py [REV]

Exports REV's tree (default `HEAD`) into a temporary directory with `git
archive`, then runs this tree's `tools/output_digests.py` twice, each in a
child process with its own output directory: once with REV's `src` first on
PYTHONPATH and once with this tree's. Prints `same: N files` when both
runs wrote the same files with the same SHA-256, and otherwise one line per
file that differs (`differs`), that only REV wrote (`missing`) or that only
this tree wrote (`extra`). Exits 1 on any difference or failed run, and
removes the temporary directory either way.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tools" / "output_digests.py"


def digests(src: Path, outdir: Path) -> Optional[Dict[str, str]]:
    """File name -> SHA-256 of the outputs `output_digests.py` writes with
    SRC first on PYTHONPATH, or None (its stderr shown) if it fails."""
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(DIGESTS), str(outdir)],
                         cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True)
    if run.returncode != 0:
        for line in run.stderr.splitlines():
            if not line.startswith("wrote "):
                print(line, file=sys.stderr)
        print(f"error: output_digests.py exited {run.returncode} under "
              f"{src}", file=sys.stderr)
        return None
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in run.stdout.splitlines())}


def differences(before: Dict[str, str], after: Dict[str, str]) -> List[str]:
    """One line per file of BEFORE or AFTER whose digest is not in both."""
    lines = []
    for name in sorted(before.keys() | after.keys()):
        if name not in after:
            lines.append(f"missing: {name}")
        elif name not in before:
            lines.append(f"extra: {name}")
        elif before[name] != after[name]:
            lines.append(f"differs: {name}")
    return lines


def main(argv: List[str]) -> int:
    if len(argv) > 1:
        sys.exit(__doc__)
    rev = argv[0] if argv else "HEAD"
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True)
    if archive.returncode != 0:
        print(f"error: git archive {rev}: "
              f"{archive.stderr.decode(errors='replace').strip()}",
              file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="amprob-compare-") as tmp:
        tree = Path(tmp) / "tree"
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tree, filter="data")
        before = digests(tree / "src", Path(tmp) / "before")
        after = digests(ROOT / "src", Path(tmp) / "after")
    if before is None or after is None:
        return 1
    lines = differences(before, after)
    print("\n".join(lines) if lines else f"same: {len(after)} files")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
