"""Print the SHA-256 of every output of a fixed set of `amprob run`s.

    PYTHONPATH=SRC python3 tools/output_digests.py OUTDIR

Runs each config below through `amprob.cli.main` with `--no-timestamp`,
writing into OUTDIR, and prints one `sha256  file` line per output file,
sorted by file name (use a new OUTDIR: every `.json`/`.csv` already in it
is digested too). `amprob` is imported from whichever `src` comes first
on PYTHONPATH, so the same config set can run against two trees. The set:
acceptance criterion 11's `VALID_CONFIGS` (from `tests/test_acceptance.py`),
nslit with `format = json`, freq with seed 2**64 - 1, freq with stages
past 2**53 (where `count / n` must be the exact int division, not a
division of the two counts rounded to float64), sorkin with an unsorted
triple, the seed-2**64-1 freq and the unsorted sorkin again with
`format = json`, nslit and sorkin configs that give every length key
with a unit suffix, freq with a `"` inside a label, a 150-outcome coin
(a 22,500-entry `joint_table`), a coin whose labels JSON escapes (`"`,
`\\`, a tab, `é`, `☃`) with repeated and zero weights, a 2,000-outcome
freq with a `"` in one label, 30 seeded random nslit configs, 10 seeded
random sorkin configs (3-8 slits, unsorted triples, up to 10**4
points), 10 seeded random coin configs (2-150 outcomes), 10 seeded
random freq configs (2-10**4 outcomes, 2-4 stages, half with a phase)
and 10 seeded random delayed configs (1-8 slits, some with `source_y`
or `slit_plane_x`; half leave `detector_y` to its default, half give it
in `_um` or `_mm`); the random weights are full `repr` floats, about 5 %
of them 0. 152 files in all.
Exits 1 if any run fails.

To check that the working tree writes the same bytes as a commit (here
the parent of HEAD; the default is HEAD), `tools/compare_outputs.py` runs
this script under both trees' `src` and compares the digests:

    python3 tools/compare_outputs.py HEAD~1
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import random
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

sys.path.insert(1, str(Path(__file__).resolve().parents[1] / "tests"))

from amprob.cli import main  # noqa: E402
from test_acceptance import GEOM_KEYS, VALID_CONFIGS  # noqa: E402

RANDOM_NSLIT_SEED = 2011
RANDOM_SORKIN_SEED = 1994
RANDOM_COIN_SEED = 1926
RANDOM_FREQ_SEED = 1933
RANDOM_DELAYED_SEED = 1978


def _random_offsets(rng: random.Random, min_slits: int) -> List[float]:
    n_slits = rng.randint(min_slits, 8)
    spacing = rng.uniform(2e-6, 5e-5)
    return [(i - (n_slits - 1) / 2) * spacing for i in range(n_slits)]


def _random_geometry(rng: random.Random, experiment: str,
                     offsets: List[float]) -> str:
    return (f"experiment = {experiment}\n"
            f"wavelength = {rng.uniform(4e-7, 8e-7)!r}\n"
            f"source_x = {-rng.uniform(0.5, 2.0)!r}\n"
            f"screen_plane_x = {rng.uniform(0.5, 2.0)!r}\n"
            f"slit_offsets = {', '.join(map(repr, offsets))}\n")


def _random_grid(rng: random.Random, experiment: str, min_slits: int,
                 max_points: int) -> Tuple[str, int]:
    """A random geometry and screen grid; returns the text and the number
    of slits."""
    offsets = _random_offsets(rng, min_slits)
    half = rng.uniform(0.01, 0.2)
    text = _random_geometry(rng, experiment, offsets) + (
        f"y_min = {-half!r}\ny_max = {half!r}\n"
        f"n_points = {rng.randint(2, max_points)}\n")
    return text, len(offsets)


def _random_sorkin(rng: random.Random) -> str:
    text, n_slits = _random_grid(rng, "sorkin", 3, 10 ** 4)
    triple = rng.sample(range(n_slits), 3)
    return text + f"triple = {', '.join(map(str, triple))}\n"


def _random_nslit(rng: random.Random) -> str:
    text, n_slits = _random_grid(rng, "nslit", 2, 400)
    if rng.random() < 0.5:
        opened = rng.sample(range(n_slits), rng.randint(1, n_slits))
        text += f"open_slits = {', '.join(map(str, opened))}\n"
    if rng.random() < 0.25:
        text += "format = json\n"
    return text


def _random_delayed(rng: random.Random, unit: Optional[str]) -> str:
    """A random delayed-choice config; with UNIT (`_um` or `_mm`) it
    places one detector per slit, within 2 mm of the axis, in that unit,
    and without it the detectors default to the slit offsets."""
    offsets = _random_offsets(rng, 1)
    text = _random_geometry(rng, "delayed", offsets)
    if rng.random() < 0.4:
        text += f"source_y = {rng.uniform(-1e-3, 1e-3)!r}\n"
    if rng.random() < 0.4:
        text += f"slit_plane_x = {rng.uniform(-0.1, 0.1)!r}\n"
    if unit is not None:
        scale = {"_um": 1e3, "_mm": 1.0}[unit]
        ys = [repr(rng.uniform(-2.0, 2.0) * scale) for _ in offsets]
        text += f"detector_y{unit} = {', '.join(ys)}\n"
    return text


def _log_int(rng: random.Random, low: int, high: int) -> int:
    return round(math.exp(rng.uniform(math.log(low), math.log(high))))


def _random_space(rng: random.Random, experiment: str,
                  max_outcomes: int) -> str:
    n = _log_int(rng, 2, max_outcomes)
    weights = ["0" if rng.random() < 0.05 else repr(rng.uniform(1e-3, 10))
               for _ in range(n)]
    if all(w == "0" for w in weights):
        weights[rng.randrange(n)] = "1"
    return (f"experiment = {experiment}\nweights = {', '.join(weights)}\n"
            f"labels = {', '.join(f'o{i}' for i in range(n))}\n")


def _random_freq(rng: random.Random) -> str:
    text = _random_space(rng, "freq", 10 ** 4)
    n_stages = rng.randint(2, 4)
    stages = set()
    while len(stages) < n_stages:
        stages.add(_log_int(rng, 1, 10 ** 6))
    text += (f"schedule = {', '.join(map(str, sorted(stages)))}\n"
             f"seed = {rng.getrandbits(64)}\n")
    if rng.random() < 0.5:
        text += f"phase = {rng.uniform(-math.pi, math.pi)!r}\n"
    return text


def configs() -> Dict[str, str]:
    """Run name -> config text."""
    named = {f"valid{i:02d}": text for i, text in enumerate(VALID_CONFIGS)}
    named["nslit_json"] = ("experiment = nslit\n" + GEOM_KEYS
                           + "y_min = -0.1\ny_max = 0.1\nn_points = 201\n"
                           "format = json\n")
    named["freq_max_seed"] = ("experiment = freq\nweights = 3, 1\n"
                              "labels = h, t\nschedule = 10, 1000\n"
                              f"seed = {2 ** 64 - 1}\n")
    named["sorkin_unsorted"] = (
        "experiment = sorkin\nwavelength_nm = 700\nsource_x = -2.0\n"
        "screen_plane_x = 0.7\nslit_offsets_um = -12, -2, 3, 9\n"
        "y_min = -0.01\ny_max = 0.01\nn_points = 101\ntriple = 3, 0, 2\n")
    named["freq_json"] = named["freq_max_seed"] + "format = json\n"
    named["sorkin_json"] = named["sorkin_unsorted"] + "format = json\n"
    units = ("wavelength_nm = 632.8\nsource_x_mm = -1500\n"
             "source_y_um = 20\nslit_plane_x_mm = 3\n"
             "screen_plane_x_mm = 1200\nslit_offsets_um = -30, -10, 10, 30\n"
             "y_min_mm = -40\ny_max_um = 40000\nn_points = 801\n")
    named["nslit_units"] = f"experiment = nslit\n{units}open_slits = 3, 0, 1\n"
    named["sorkin_units"] = f"experiment = sorkin\n{units}triple = 3, 1, 2\n"
    named["freq_past_2_53"] = (
        "experiment = freq\nweights = 1, 2, 3, 4, 5, 6, 7\n"
        "labels = a, b, c, d, e, f, g\n"
        f"schedule = 10, {2 ** 53 + 1}, {2 ** 63 - 1}\nseed = 53\n")
    named["freq_quote"] = ("experiment = freq\nweights = 1, 2\n"
                           "labels = say \"hi\", b\nschedule = 5, 50\n"
                           "seed = 11\n")
    named["coin_150"] = (
        "experiment = coin\n"
        f"weights = {', '.join(str(1 + i % 7) for i in range(150))}\n"
        f"labels = {', '.join(f'o{i}' for i in range(150))}\n")
    named["coin_escapes"] = ("experiment = coin\nweights = 2, 0, 2, 1, 0\n"
                             "labels = say \"hi\", a\\b, tab\tin, é, ☃\n")
    named["freq_2000_quote"] = (
        "experiment = freq\n"
        f"weights = {', '.join(str(1 + i % 5) for i in range(2000))}\n"
        "labels = say \"hi\", "
        f"{', '.join(f'o{i}' for i in range(1, 2000))}\n"
        "schedule = 10, 1000, 100000\nseed = 5\n")
    rng = random.Random(RANDOM_NSLIT_SEED)
    for i in range(30):
        named[f"nslit_random{i:02d}"] = _random_nslit(rng)
    rng = random.Random(RANDOM_SORKIN_SEED)
    for i in range(10):
        named[f"sorkin_random{i:02d}"] = _random_sorkin(rng)
    rng = random.Random(RANDOM_COIN_SEED)
    for i in range(10):
        named[f"coin_random{i:02d}"] = _random_space(rng, "coin", 150)
    rng = random.Random(RANDOM_FREQ_SEED)
    for i in range(10):
        named[f"freq_random{i:02d}"] = _random_freq(rng)
    rng = random.Random(RANDOM_DELAYED_SEED)
    for i in range(10):
        unit = (None, "_um", None, "_mm")[i % 4]
        named[f"delayed_random{i:02d}"] = _random_delayed(rng, unit)
    return named


def run_all(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name, text in configs().items():
        cfg = outdir / f"{name}.cfg"
        cfg.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(sys.stderr):
            code = main(["run", "--config", str(cfg), "--out",
                         str(outdir / name), "--no-timestamp"])
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            failed += 1
    for path in sorted(outdir.glob("*")):
        if path.suffix in (".json", ".csv"):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run_all(Path(sys.argv[1])))
