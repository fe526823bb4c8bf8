"""Span recorder for the traced benchmark run.

The tracer wraps amprob's public functions from outside, at every name a
caller looks them up by: each `amprob.*` module attribute bound to the
function object, and the `SampleSpace` methods on the class. Nothing under
`src/` changes, and `uninstall` puts every original back.

Each wrapped call at a layer boundary records a span: name, start, end,
parent span, operation id, plus the time spent in folded calls and a size.
Small functions that run millions of times per operation (the Born rule on
one amplitude, one arrival probability, a space's total) are *folded*: they
are counted, and their time is charged to the enclosing span, but they get
no span of their own, so the trace stays small enough to keep in memory.
Folded functions must not call span-wrapped ones; none of the folded
functions below do.

Self time is a span's duration minus the part of it covered by its child
spans and minus its folded time (see `self_times`).
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

# Span record fields.
NAME, START, END, PARENT, OP, FOLDED, SIZE, BUCKET = range(8)

# (module, attribute, kind); kind "span" or "fold". Names are
# "<module>.<function>"; the two SampleSpace methods appear as
# events.probabilities and events.total_probability.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli", "main", "span"),
    ("cli", "run_experiment", "span"),
    ("config", "parse_config", "span"),
    ("slits", "intensity_profile", "span"),
    ("slits", "sorkin_invariant", "span"),
    ("slits", "delayed_choice", "span"),
    ("slits", "refined_maxima", "span"),
    ("slits", "fringe_spacing", "span"),
    ("slits", "arrival_probability", "fold"),
    ("events", "classical_space", "span"),
    ("events", "SampleSpace.probabilities", "span"),
    ("events", "SampleSpace.total_probability", "fold"),
    ("events", "guess_game", "span"),
    ("events", "event_probability", "span"),
    ("events", "outcome_probability", "span"),
    ("events", "normalize", "span"),
    ("events", "collapse", "span"),
    ("events", "union_decomposition", "span"),
    ("frequency", "convergence_report", "span"),
    ("frequency", "record_trials", "span"),
    ("frequency", "child_seed", "span"),
    ("amplitude", "combine_exclusive", "span"),
    ("amplitude", "combine_independent", "span"),
    ("amplitude", "interference_term", "fold"),
    ("amplitude", "born_probability", "fold"),
    ("amplitude", "conjugate", "fold"),
)

# Point x slit amplitude cells one sorkin_invariant call asks for: seven
# subset-open sums over three slits (3 + 3 * 2 + 3 * 1).
SORKIN_CELLS = 12

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("slits.cells", "count"),
    ("slits.ns_per_cell.s2", "ns"),
    ("slits.ns_per_cell.s8", "ns"),
    ("slits.ns_per_cell.s64", "ns"),
    ("slits.intensity_profile.busy_s", "s"),
    ("slits.arrival_probability.calls", "count"),
    ("slits.sorkin_invariant.calls", "count"),
    ("slits.sorkin_invariant.busy_s", "s"),
    ("slits.sorkin_invariant.self_s", "s"),
    ("slits.delayed_choice.busy_s", "s"),
    ("slits.refined_maxima.busy_s", "s"),
    ("slits.fringe_spacing.busy_s", "s"),
    ("cli.run_experiment.calls", "count"),
    ("cli.run_experiment.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("cli.self_ns_per_byte_out", "ns/byte"),
    ("config.parse_config.calls", "count"),
    ("config.parse_config.busy_s", "s"),
    ("config.bytes_in", "bytes"),
    ("events.probabilities.calls", "count"),
    ("events.probabilities.busy_s", "s"),
    ("events.total_probability.calls", "count"),
    ("events.event_probability.busy_s", "s"),
    ("events.outcome_probability.busy_s", "s"),
    ("events.guess_game.busy_s", "s"),
    ("events.us_per_outcome.n10", "us"),
    ("events.us_per_outcome.n100", "us"),
    ("events.us_per_outcome.n1000", "us"),
    ("frequency.convergence_report.busy_s", "s"),
    ("frequency.convergence_report.self_s", "s"),
    ("frequency.record_trials.calls", "count"),
    ("frequency.record_trials.busy_s", "s"),
    ("frequency.child_seed.busy_s", "s"),
    ("frequency.trials", "count"),
    ("frequency.ns_per_trial", "ns"),
    ("amplitude.combine_exclusive.busy_s", "s"),
    ("amplitude.combine_independent.busy_s", "s"),
    ("amplitude.interference_term.busy_s", "s"),
    ("amplitude.born_probability.calls", "count"),
    ("amplitude.ns_per_amplitude", "ns"),
    ("trace.overhead_ratio", "ratio"),
)


def slit_bucket(n_open: int) -> str:
    """Size bucket of a profile call by open slits (edges at the geometric
    midpoints of 2, 8 and 64)."""
    return "s2" if n_open < 4 else "s8" if n_open < 23 else "s64"


def outcome_bucket(n: int) -> str:
    """Size bucket of a probabilities() call by outcome count."""
    return "n10" if n < 32 else "n100" if n < 316 else "n1000"


def _arg(args: Sequence[Any], kwargs: Dict[str, Any], index: int,
         name: str, default: Any = None) -> Any:
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _measure_profile(tracer, rec, args, kwargs, result) -> None:
    geom = args[0]
    n_points = _arg(args, kwargs, 3, "n_points")
    opened = _arg(args, kwargs, 4, "open_slits")
    n_open = geom.n_slits if opened is None else len(set(opened))
    rec[SIZE] = n_points * n_open
    rec[BUCKET] = n_open
    tracer.counts["slits.cells"] += rec[SIZE]


def _measure_sorkin(tracer, rec, args, kwargs, result) -> None:
    tracer.counts["slits.cells"] += SORKIN_CELLS


def _measure_delayed(tracer, rec, args, kwargs, result) -> None:
    tracer.counts["slits.cells"] += len(_arg(args, kwargs, 1, "y_detectors"))


def _measure_parse(tracer, rec, args, kwargs, result) -> None:
    tracer.counts["config.bytes_in"] += len(
        _arg(args, kwargs, 0, "text").encode("utf-8"))


def _measure_run(tracer, rec, args, kwargs, result) -> None:
    tracer.counts["cli.bytes_out"] += sum(Path(p).stat().st_size
                                          for p in result)


def _measure_probabilities(tracer, rec, args, kwargs, result) -> None:
    rec[SIZE] = rec[BUCKET] = len(args[0].labels)


def _measure_trials(tracer, rec, args, kwargs, result) -> None:
    tracer.counts["frequency.trials"] += _arg(args, kwargs, 1, "n")


def _measure_amplitudes(tracer, rec, args, kwargs, result) -> None:
    rec[SIZE] = len(args[0])
    tracer.counts["amplitude.amplitudes"] += rec[SIZE]


_MEASURES: Dict[str, Callable] = {
    "slits.intensity_profile": _measure_profile,
    "slits.sorkin_invariant": _measure_sorkin,
    "slits.delayed_choice": _measure_delayed,
    "config.parse_config": _measure_parse,
    "cli.run_experiment": _measure_run,
    "events.probabilities": _measure_probabilities,
    "frequency.record_trials": _measure_trials,
    "amplitude.combine_exclusive": _measure_amplitudes,
    "amplitude.combine_independent": _measure_amplitudes,
}


class Tracer:
    """Records spans and counts in memory while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: List[int] = []
        self._fold_depth = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> list:
        rec = [nid, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.op_id, 0.0, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, op_id: int, name: str) -> Iterator[list]:
        """The root span of one benchmark operation."""
        self.op_id = op_id
        rec = self._open(self._name_id(f"op.{name}"))
        try:
            yield rec
        finally:
            self._close(rec)

    def span_wrapper(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        measure = _MEASURES.get(name)

        def wrapper(*args, **kwargs):
            rec = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if measure is not None:
                measure(self, rec, args, kwargs, result)
            return result
        return wrapper

    def fold_wrapper(self, name: str, fn: Callable) -> Callable:
        calls_key = name + ".calls"
        busy_key = name + ".busy_s"
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            if self._fold_depth:
                return fn(*args, **kwargs)
            self._fold_depth = 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._fold_depth = 0
                counts[busy_key] += elapsed
                if self._stack:
                    self.spans[self._stack[-1]][FOLDED] += elapsed
        return wrapper

    def install(self) -> None:
        """Wrap every target at every place amprob code can look it up."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "amprob"
                                         or k.startswith("amprob."))]
        for mod_name, attr, kind in TARGETS:
            owner = sys.modules.get(f"amprob.{mod_name}")
            if owner is None:  # not imported, so nothing can call it
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                name = f"{mod_name}.{meth}"
                self._patch(cls, meth, self._wrap(kind, name,
                                                  getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(kind, f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _wrap(self, kind: str, name: str, fn: Callable) -> Callable:
        if kind == "fold":
            return self.fold_wrapper(name, fn)
        return self.span_wrapper(name, fn)

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def dump(self, path: Path) -> None:
        """Write the spans and counts recorded so far."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "folded_s", "size", "bucket"],
                       "names": self.names, "spans": self.spans,
                       "counts": self.counts}, fh)


def _covered(intervals: List[Tuple[float, float]], start: float,
             end: float) -> float:
    """Length of the union of `intervals`, clipped to [start, end]."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence[Any]]) -> List[float]:
    """Self time of each span: its duration minus the time its child spans
    cover (overlaps counted once) minus its folded time."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    return [max(0.0, rec[END] - rec[START]
                - _covered(children[i], rec[START], rec[END]) - rec[FOLDED])
            for i, rec in enumerate(spans)]


def layer_metrics(names: Sequence[str], spans: Sequence[Sequence[Any]],
                  counts: Dict[str, float], overhead_ratio: float
                  ) -> Dict[str, float]:
    """Every PER_LAYER metric from one traced run; a layer that did no work
    reads 0."""
    selfs = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, float] = defaultdict(float)
    self_s: Dict[str, float] = defaultdict(float)
    cells: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    outcomes: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    for rec, own in zip(spans, selfs):
        name = names[rec[NAME]]
        duration = rec[END] - rec[START]
        calls[name] += 1
        busy[name] += duration
        self_s[name] += own
        if name == "slits.intensity_profile":
            acc = cells[slit_bucket(rec[BUCKET])]
            acc[0] += duration
            acc[1] += rec[SIZE]
        elif name == "events.probabilities":
            acc = outcomes[outcome_bucket(rec[BUCKET])]
            acc[0] += duration
            acc[1] += rec[SIZE]
    for key, value in counts.items():
        if key.endswith(".busy_s"):
            busy[key[:-7]] += value

    def ratio(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    out: Dict[str, float] = {}
    for metric, _ in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if metric in counts and not field.startswith("busy"):
            out[metric] = float(counts[metric])
        elif field == "calls":
            out[metric] = float(calls.get(layer, 0)
                                + counts.get(metric, 0))
        elif field == "busy_s":
            out[metric] = busy.get(layer, 0.0)
        elif field == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif layer == "slits.ns_per_cell":
            out[metric] = ratio(*cells[field], 1e9)
        elif layer == "events.us_per_outcome":
            out[metric] = ratio(*outcomes[field], 1e6)
        else:
            out[metric] = 0.0
    out["cli.self_ns_per_byte_out"] = ratio(
        self_s.get("cli.run_experiment", 0.0), counts.get("cli.bytes_out", 0),
        1e9)
    out["frequency.ns_per_trial"] = ratio(
        busy.get("frequency.convergence_report", 0.0),
        counts.get("frequency.trials", 0), 1e9)
    out["amplitude.ns_per_amplitude"] = ratio(
        busy.get("amplitude.combine_exclusive", 0.0)
        + busy.get("amplitude.combine_independent", 0.0),
        counts.get("amplitude.amplitudes", 0), 1e9)
    out["trace.overhead_ratio"] = overhead_ratio
    return out
