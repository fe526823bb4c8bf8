"""Seeded input generator for the amprob benchmark.

Seed in, operations out: the same (workload, seed) always yields the same
sequence of operations, byte for byte. The program only ever sees what this
module produces: config texts for the CLI workloads, call lists for
`spaces`.

The parameters that set an operation's cost or its rounding-error scale
(sizes, slit counts, wavelength and path lengths) come from fixed ranges
through a Kronecker (additive-recurrence) sequence with a seeded start,
``u_k = frac(u_0 + k * alpha)``, one coordinate per parameter, and the
experiment mix is a fixed interleave (coin and freq alternate; every tenth
sorkin operation is a delayed-choice config). Any prefix of such a sequence
covers its ranges almost evenly, so a time-bounded closed-loop run, and the
checked sample at its start, see nearly the same mix whatever the seed and
however many operations fit in the window; that is what keeps medians,
tails and error figures steady across seeds. Everything else (slit
spacing, screen range, weights, labels, subsets, phases) is drawn from a
seeded `random.Random`.

Nothing is drawn and then discarded: every generated input is run and
checked, so an input the program mishandles shows up as a failure.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from decimal import Decimal
from typing import Any, Dict, Iterator, List

GENERATOR_ID = "amprob-bench-gen/1 (random.Random str seed + Kronecker sizes)"

WORKLOADS = ("profile", "sorkin", "sampling", "spaces")


# Per-workload size ranges and the corners of the ROADMAP sweeps that one
# operation cannot reach within the run budget (measured on the seed
# program on a 2-vCPU Intel Xeon host, Python 3.11, numpy 2.4).
PROFILE_SLITS = (2, 64)            # open slits per operation
PROFILE_POINTS = (1_000, 100_000)  # screen points drawn before the cap
PROFILE_MAX_CELLS = 32_000         # open slits x points per operation
SORKIN_SLITS = (3, 8)
SORKIN_POINTS = (1_000, 10_000)
COIN_OUTCOMES = (2, 150)
FREQ_OUTCOMES = (2, 10_000)
FREQ_MAX_TRIALS = (100, 1_000_000)
FREQ_STAGES = 4
SPACE_OUTCOMES = (10, 2_000)
GUESS_GAME_MAX_OUTCOMES = 150      # the joint table is n^2 entries

SIZE_RANGES: Dict[str, Dict[str, Any]] = {
    "profile": {
        "open_slits": list(PROFILE_SLITS),
        "n_points": list(PROFILE_POINTS),
        "max_cells_per_op": PROFILE_MAX_CELLS,
        "wavelength_nm": [400, 700],
        "slit_spacing_um": [2, 50],
    },
    "sorkin": {
        "slits": list(SORKIN_SLITS),
        "n_points": list(SORKIN_POINTS),
        "delayed_share": 0.1,
    },
    "sampling": {
        "coin_outcomes": list(COIN_OUTCOMES),
        "freq_outcomes": list(FREQ_OUTCOMES),
        "freq_max_trials": list(FREQ_MAX_TRIALS),
        "freq_stages": FREQ_STAGES,
    },
    "spaces": {
        "outcomes": list(SPACE_OUTCOMES),
        "guess_game_max_outcomes": GUESS_GAME_MAX_OUTCOMES,
    },
}

UNREACHABLE_CORNERS: Dict[str, List[str]] = {
    "profile": ["64 open slits x 1e5 points: about 75 s per run on the seed "
                "(12 us per cell), so cells per operation are capped at "
                f"{PROFILE_MAX_CELLS}"],
    "sorkin": [],
    "sampling": [],
    "spaces": ["1e4 outcomes in SampleSpace.probabilities(): about 16 s per "
               "call on the seed (quadratic), so outcomes stop at "
               f"{SPACE_OUTCOMES[1]}"],
}


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds are hashed with SHA-512, so the stream does not depend
    # on PYTHONHASHSEED or the platform.
    return random.Random(f"{GENERATOR_ID}/{workload}/{seed}")


# One irrational step per coordinate: the golden ratio for the first (each
# workload puts its main cost driver there), then square roots of primes.
# All have bounded continued-fraction terms, so every coordinate on its
# own stays evenly spread in every prefix.
ALPHAS = ((math.sqrt(5) - 1) / 2,) + tuple(math.sqrt(p) % 1.0
                                           for p in (2, 3, 7, 11, 13))


def _weyl(rng: random.Random, dims: int) -> Iterator[tuple]:
    """Kronecker sequence from a seeded start, `dims` coordinates."""
    start = [rng.random() for _ in range(dims)]
    return (tuple((s + k * a) % 1.0 for s, a in zip(start, ALPHAS))
            for k in itertools.count())


def _log_size(u: float, lo: int, hi: int) -> int:
    return int(round(math.exp(math.log(lo) + u * math.log(hi / lo))))


def _dec(x: float, places: int) -> str:
    return f"{x:.{places}f}"


def _span(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


def _geometry(rng: random.Random, n_slits: int, u: tuple) -> Dict[str, Any]:
    """Slit geometry; `u` holds the quasi-random coordinates for the
    wavelength and the two path lengths, which set the phase rounding."""
    spacing = Decimal(_dec(math.exp(rng.uniform(math.log(2), math.log(50))),
                           3))
    centre = Decimal(n_slits - 1) / 2
    return {
        "wavelength_nm": _dec(_span(u[0], 400, 700), 1),
        "source_x": "-" + _dec(_span(u[1], 0.1, 1.0), 4),
        "source_y_um": _dec(rng.uniform(-20, 20), 2),
        "slit_plane_x": _dec(rng.uniform(-0.05, 0.05), 4),
        "screen_plane_x": _dec(_span(u[2], 0.5, 2.0), 4),
        "slit_offsets_um": [str((Decimal(i) - centre) * spacing)
                            for i in range(n_slits)],
    }


def _screen(rng: random.Random, n_points: int) -> Dict[str, Any]:
    return {
        "y_min_mm": "-" + _dec(rng.uniform(10, 200), 2),
        "y_max_mm": _dec(rng.uniform(10, 200), 2),
        "n_points": n_points,
    }


def _profile_ops(rng: random.Random) -> Iterator[Dict[str, Any]]:
    for u in _weyl(rng, 5):
        n_open = _log_size(u[0], *PROFILE_SLITS)
        n_points = min(_log_size(u[1], *PROFILE_POINTS),
                       PROFILE_MAX_CELLS // n_open)
        n_slits = min(PROFILE_SLITS[1], n_open + rng.randint(0, n_open // 2))
        spec = {"experiment": "nslit", **_geometry(rng, n_slits, u[2:]),
                **_screen(rng, n_points)}
        if n_open < n_slits:
            spec["open_slits"] = sorted(rng.sample(range(n_slits), n_open))
        yield spec


def _sorkin_ops(rng: random.Random) -> Iterator[Dict[str, Any]]:
    lo, hi = SORKIN_SLITS
    sorkin = _weyl(rng, 5)
    delayed = _weyl(rng, 4)
    for k in itertools.count():
        # Every tenth operation is a delayed-choice config.
        if k % 10 == 9:
            u = next(delayed)
            n_slits = lo + int(u[0] * (hi - lo + 1))
            spec = {"experiment": "delayed",
                    **_geometry(rng, n_slits, u[1:])}
            if rng.random() < 0.5:
                spec["detector_y_mm"] = [_dec(rng.uniform(-100, 100), 3)
                                         for _ in range(n_slits)]
            yield spec
            continue
        u = next(sorkin)
        n_slits = lo + int(u[1] * (hi - lo + 1))
        yield {"experiment": "sorkin", **_geometry(rng, n_slits, u[2:]),
               **_screen(rng, _log_size(u[0], *SORKIN_POINTS)),
               "triple": rng.sample(range(n_slits), 3)}


def _weights(rng: random.Random, n: int) -> List[str]:
    weights = ["0" if rng.random() < 0.05 else _dec(rng.uniform(0.001, 10), 3)
               for _ in range(n)]
    if all(w == "0" for w in weights):
        weights[0] = "1"  # at least one weight must be positive
    return weights


def _labels(rng: random.Random, n: int) -> List[str]:
    prefix = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz")
                     for _ in range(rng.randint(1, 3)))
    return [f"{prefix}{i}" for i in range(n)]


def _sampling_ops(rng: random.Random) -> Iterator[Dict[str, Any]]:
    coins = _weyl(rng, 1)
    freqs = _weyl(rng, 2)
    for k in itertools.count():
        # coin and freq configs alternate, each kind with its own sizes.
        if k % 2 == 0:
            n = _log_size(next(coins)[0], *COIN_OUTCOMES)
            yield {"experiment": "coin", "weights": _weights(rng, n),
                   "labels": _labels(rng, n)}
            continue
        u_size, u_trials = next(freqs)
        n = _log_size(u_size, *FREQ_OUTCOMES)
        top = _log_size(u_trials, *FREQ_MAX_TRIALS)
        # Four stages, half a decade apart, up to the largest: the
        # cost then follows the outcome count alone, which keeps the tail
        # of the latency distribution steady from seed to seed.
        schedule = sorted({max(1, int(top * 10.0 ** (-j / 2)))
                           for j in range(FREQ_STAGES)})
        spec = {"experiment": "freq", "weights": _weights(rng, n),
                "labels": _labels(rng, n), "schedule": schedule,
                "seed": rng.getrandbits(63)}
        if rng.random() < 0.5:
            spec["phase"] = _dec(rng.uniform(-math.pi, math.pi), 6)
        yield spec


def _space_blocks(rng: random.Random) -> Iterator[Dict[str, Any]]:
    """One block per space: its data and the calls made on it, in order.
    Every call is one timed operation."""
    for (u_size,) in _weyl(rng, 1):
        n = _log_size(u_size, *SPACE_OUTCOMES)
        labels = _labels(rng, n)
        weights = _weights(rng, n)
        amps = []
        for _ in range(n):
            mag = rng.uniform(0.9, 1.1)
            phase = rng.uniform(-math.pi, math.pi)
            amps.append([mag * math.cos(phase), mag * math.sin(phase)])
        p1, p2 = rng.uniform(0, 1), rng.uniform(0, 1)
        overlap = rng.uniform(-2, 2) * math.sqrt(p1 * p2)
        calls: List[Dict[str, Any]] = [
            {"fn": "classical_space"},
            {"fn": "probabilities"},
            {"fn": "outcome_probability", "label": rng.choice(labels)},
            {"fn": "outcome_probability", "label": rng.choice(labels)},
            {"fn": "event_probability",
             "subset": rng.sample(labels, rng.randint(1, n))},
            {"fn": "event_probability",
             "subset": rng.sample(labels, rng.randint(1, n))},
        ]
        if n <= GUESS_GAME_MAX_OUTCOMES:
            calls.append({"fn": "guess_game"})
        calls += [
            {"fn": "SampleSpace"},
            {"fn": "normalize"},
            {"fn": "collapse", "label": rng.choice(labels)},
            {"fn": "union_decomposition", "args": [p1, p2, overlap]},
            {"fn": "combine_exclusive"},
            {"fn": "combine_independent"},
            {"fn": "interference_term"},
            {"fn": "born_probability"},
            {"fn": "conjugate"},
        ]
        yield {"n": n, "labels": labels, "weights": weights, "amps": amps,
               "calls": calls}


_GENERATORS = {
    "profile": _profile_ops,
    "sorkin": _sorkin_ops,
    "sampling": _sampling_ops,
    "spaces": _space_blocks,
}


def operations(workload: str, seed: int) -> Iterator[Dict[str, Any]]:
    """Endless, deterministic stream of inputs for one workload: config
    specs for the CLI workloads, space blocks for `spaces`."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"expected one of {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](_rng(workload, seed))


def _format(value: Any) -> str:
    if isinstance(value, list):
        return ", ".join(str(v) for v in value)
    return str(value)


def render_config(spec: Dict[str, Any]) -> str:
    """Config text for one CLI operation, in the documented
    `key = value` format."""
    lines = ["# amprob benchmark input", f"experiment = {spec['experiment']}"]
    lines += [f"{key} = {_format(value)}" for key, value in spec.items()
              if key != "experiment"]
    return "\n".join(lines) + "\n"


def serialize(item: Dict[str, Any]) -> str:
    """Canonical text of one generated input (config text for CLI specs,
    JSON for space blocks); used to compare generations byte for byte."""
    if "experiment" in item:
        return render_config(item)
    return json.dumps(item, sort_keys=True)
