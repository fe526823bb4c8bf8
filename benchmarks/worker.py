"""One workload in one fresh process: the closed loop, then the checks.

Started by `run.py` as its own process (run.py imports only the reference
loop from here). One client issues operations back to back; the next
starts only after the previous one returns. The window closes once the
operations' summed latency reaches `--seconds` and at least the workload's
checked sample has run. Peak memory is this process's high-water mark at
the end of the loop, before the oracle (and `mpmath`) run.

Per operation, outside the timed region: exit code and exceptions, and
cheap structural checks of every output. After the loop: the oracle checks
on the first operations (a fixed, seed-determined sample, so the error
figures do not depend on how many operations fit in the window) and
byte-for-byte reruns of the first few.

Latencies are reported in host-normalised milliseconds as well as raw. A
shared machine changes speed by tens of percent from one minute to the
next, so between operations (at most every REF_EVERY_S) the worker times a
fixed pure-Python reference loop, and each operation's latency is scaled by
REF_NOMINAL_MS over the running median of the last REF_WINDOW reference
times (about the last second, so host drift is followed but a single
noisy timing is not): the figure
reads as milliseconds on a host that runs the reference loop in
REF_NOMINAL_MS. The program never runs inside the reference loop, so a
slower program still reads slower.

With `--trace 1` the loop runs for a quarter of the window untraced, then
the checked sample (a fixed operation list per seed, so every count in the
trace repeats exactly) runs again with the span recorder installed; the
ratio of the sample's summed host-normalised latencies, traced over
untraced, is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import workloads

# Units (CLI: one config; spaces: one block of calls) checked against the
# oracle; always executed, whatever the window.
SAMPLE = {"profile": 48, "sorkin": 24, "sampling": 60, "spaces": 24}
RERUNS = 3
TRACE_SHARE = 0.25
MAX_LISTED_FAILURES = 50
REF_LOOPS = 16_000
REF_NOMINAL_MS = 1.0
REF_EVERY_S = 0.2
REF_WINDOW = 5  # reference timings in the running median


def ref_ms() -> float:
    """Time of the fixed reference loop, in ms (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0.0
        for i in range(REF_LOOPS):
            total += i * 0.5
        best = min(best, time.perf_counter() - start)
    return best * 1e3


class Window:
    """Latencies and failures of one closed-loop pass, and when to stop."""

    def __init__(self, seconds: float = float("inf"),
                 min_units: int = 0) -> None:
        self.seconds = seconds
        self.min_units = min_units
        self.units = 0
        self.sample_ops = 0
        self.latencies: List[float] = []
        self.scaled: List[float] = []
        self.refs: List[float] = []
        self.failures: Dict[int, List[str]] = {}
        self._scale = 1.0
        self._last_ref = float("-inf")

    def calibrate(self) -> None:
        """Time the reference loop if the last timing is REF_EVERY_S old."""
        if time.perf_counter() - self._last_ref >= REF_EVERY_S:
            self.refs.append(ref_ms())
            self._scale = REF_NOMINAL_MS / statistics.median(
                self.refs[-REF_WINDOW:])
            self._last_ref = time.perf_counter()

    def record(self, latency: float) -> None:
        self.latencies.append(latency)
        self.scaled.append(latency * self._scale)

    def fail(self, op_id: int, messages: List[str]) -> None:
        if messages:
            self.failures.setdefault(op_id, []).extend(messages)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def full(self) -> bool:
        return self.units >= self.min_units and self.busy >= self.seconds


def _timed(op: Callable[[], Any], tracer, op_id: int, name: str):
    """Run one operation; returns (latency, result, error text)."""
    result = error = None
    root = (tracer.root(op_id, name) if tracer is not None
            else contextlib.nullcontext())
    with root:
        start = time.perf_counter()
        try:
            result = op()
        except (Exception, SystemExit) as exc:  # any escape is a failure
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    return latency, result, error


class CliWorkload:
    """Operations are in-process `amprob run` invocations on generated
    config files."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        import amprob.cli
        import oracle
        self.cli = amprob.cli
        self.oracle = oracle
        self.name = name
        self.seed = seed
        self.config = work / "input.cfg"
        self.out = work / "out" / "op"
        self.keep = work / "keep"
        self.keep.mkdir(parents=True, exist_ok=True)
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.kept: List[tuple] = []

    def run_unit(self, op_id: int, spec: Dict[str, Any], window: Window,
                 tracer=None, keep: bool = False) -> None:
        self.config.write_text(workloads.render_config(spec),
                               encoding="utf-8")
        for path in self.out.parent.iterdir():
            path.unlink()
        argv = ["run", "--config", str(self.config), "--out", str(self.out),
                "--no-timestamp"]
        latency, code, error = _timed(lambda: self.cli.main(argv), tracer,
                                      op_id, spec["experiment"])
        window.record(latency)
        if error is not None or code != 0:
            window.fail(op_id, [f"{spec['experiment']}: exit {code} {error}"])
            return
        verdict = self.oracle.check_cli(spec, self.out, False, None)
        window.fail(op_id, verdict.failures)
        if keep:
            self.kept.append((op_id, spec))
            for path in self.out.parent.iterdir():
                shutil.copyfile(path, self.keep / f"{op_id}{path.suffix}")

    def deep_checks(self, window: Window) -> List[float]:
        errors: List[float] = []
        for op_id, spec in self.kept:
            rng = random.Random(f"oracle/{self.name}/{self.seed}/{op_id}")
            verdict = self.oracle.check_cli(spec, self.keep / str(op_id),
                                            True, rng)
            window.fail(op_id, verdict.failures)
            if verdict.errors:
                errors.append(verdict.max_err)
        for op_id, spec in self.kept[:RERUNS]:
            rerun = Window()
            self.run_unit(op_id, spec, rerun)
            window.fail(op_id, [m for ms in rerun.failures.values()
                                for m in ms])
            for path in self.out.parent.iterdir():
                kept = self.keep / f"{op_id}{path.suffix}"
                if not kept.exists() or kept.read_bytes() != path.read_bytes():
                    window.fail(op_id, [f"rerun {path.suffix} differs"])
        return errors


# Calls whose result later calls of the same block use.
_STORES = {"classical_space": "S", "SampleSpace": "Q", "normalize": "N"}


class SpacesWorkload:
    """Operations are single library calls on generated spaces and
    amplitude vectors; no CLI, no files. Per-amplitude functions are one
    operation per pass over the vector."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        import amprob.amplitude
        import amprob.events
        import oracle
        self.amplitude = amprob.amplitude
        self.events = amprob.events
        self.oracle = oracle
        self.kept: List[tuple] = []

    def _call(self, call: Dict[str, Any], state: Dict[str, Any]
              ) -> Callable[[], Any]:
        # Modules are read at call time so that traced runs see the
        # wrapped functions.
        ev, amp, fn = self.events, self.amplitude, call["fn"]
        amps = state["amps"]
        if fn == "classical_space":
            return lambda: ev.classical_space(state["weights"],
                                              state["labels"])
        if fn == "probabilities":
            return lambda: state["S"].probabilities()
        if fn == "outcome_probability":
            return lambda: ev.outcome_probability(state["S"], call["label"])
        if fn == "event_probability":
            return lambda: ev.event_probability(state["S"], call["subset"])
        if fn == "guess_game":
            return lambda: ev.guess_game(state["S"])
        if fn == "SampleSpace":
            return lambda: ev.SampleSpace(tuple(state["labels"]), amps)
        if fn == "normalize":
            return lambda: ev.normalize(state["Q"])
        if fn == "collapse":
            return lambda: ev.collapse(state["N"], call["label"])
        if fn == "union_decomposition":
            return lambda: ev.union_decomposition(*call["args"])
        if fn == "combine_exclusive":
            return lambda: amp.combine_exclusive(amps)
        if fn == "combine_independent":
            return lambda: amp.combine_independent(amps)
        if fn == "interference_term":
            return lambda: [amp.interference_term(a, b)
                            for a, b in zip(amps, amps[1:])]
        if fn == "born_probability":
            return lambda: [amp.born_probability(a) for a in amps]
        if fn == "conjugate":
            return lambda: [amp.conjugate(a) for a in amps]
        raise ValueError(f"unknown call {fn!r}")

    def run_unit(self, op_id: int, block: Dict[str, Any], window: Window,
                 tracer=None, keep: bool = False) -> List[tuple]:
        state: Dict[str, Any] = {
            "labels": block["labels"],
            "weights": [float(w) for w in block["weights"]],
            "amps": tuple(self.amplitude.Amplitude(re, im)
                          for re, im in block["amps"]),
        }
        results = []
        for call in block["calls"]:
            latency, result, error = _timed(self._call(call, state), tracer,
                                            op_id, call["fn"])
            window.record(latency)
            if error is not None:
                window.fail(op_id, [f"{call['fn']}: {error}"])
            elif call["fn"] in _STORES:
                state[_STORES[call["fn"]]] = result
            results.append((op_id, call, result))
            op_id += 1
        if keep:
            self.kept.append((block, results))
        return results

    def deep_checks(self, window: Window) -> List[float]:
        errors: List[float] = []
        for block, results in self.kept:
            block_oracle = self.oracle.BlockOracle(block)
            for op_id, call, result in results:
                if op_id not in window.failures:
                    verdict = block_oracle.check(call, result)
                    window.fail(op_id, verdict.failures)
                    if verdict.errors:
                        errors.append(verdict.max_err)
        for block, results in self.kept[:1]:
            again = self.run_unit(results[0][0], block, Window())
            for (op_id, _, first), (_, _, second) in zip(results, again):
                if repr(first) != repr(second):
                    window.fail(op_id, ["rerun result differs"])
        return errors


def _loop(workload, units, window: Window, tracer=None, keep: bool = True,
          max_units: Optional[int] = None) -> None:
    for unit in units:
        window.calibrate()
        sampled = keep and window.units < window.min_units
        workload.run_unit(len(window.latencies), unit, window, tracer,
                          sampled)
        window.units += 1
        if window.units == window.min_units:
            window.sample_ops = len(window.latencies)
        if window.units == max_units or (max_units is None
                                         and window.full()):
            return


def percentile_tail(latencies: List[float]) -> Dict[str, float]:
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are ten samples or fewer)."""
    xs = sorted(latencies)
    n = len(xs)
    k = n - 11 if n > 10 else n - 1
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / n,
            "samples": n, "beyond": n - k - 1}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import amprob
    import numpy
    if not Path(amprob.__file__).resolve().is_relative_to(src):
        print(f"amprob imported from {amprob.__file__}, not {src}",
              file=sys.stderr)
        return 2

    kind = SpacesWorkload if args.workload == "spaces" else CliWorkload
    workload = kind(args.workload, args.seed, Path(args.work))
    units = lambda: workloads.operations(args.workload, args.seed)

    share = TRACE_SHARE if args.trace else 1.0
    window = Window(args.seconds * share, SAMPLE[args.workload])
    _loop(workload, units(), window)
    result: Dict[str, Any] = {
        "ops": len(window.latencies),
        "units": window.units,
        "busy_s": window.busy,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host_ref_ms": {"median": statistics.median(window.refs),
                        "min": min(window.refs), "max": max(window.refs),
                        "samples": len(window.refs)},
        "numpy": numpy.__version__,
        "amprob_file": str(Path(amprob.__file__).resolve()),
        "amprob_generator": amprob.GENERATOR_ID,
    }

    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        traced = Window()
        tracer.install()
        try:
            _loop(workload, units(), traced, tracer, keep=False,
                  max_units=window.min_units)
        finally:
            tracer.uninstall()
        for op_id, messages in traced.failures.items():
            window.fail(op_id, messages)
        overhead = (sum(traced.scaled)
                    / sum(window.scaled[:window.sample_ops]))
        result["traced_busy_s"] = traced.busy
        result["layers"] = layer_metrics(tracer.names, tracer.spans,
                                         tracer.counts, overhead)
        spans_path = Path(args.result.replace(".worker.json", ".spans.json"))
        tracer.dump(spans_path)
        result["spans_file"] = spans_path.name

    import mpmath
    result["mpmath"] = mpmath.__version__
    # Each checked operation's worst deviation; when every sampled
    # operation failed before a comparison (already counted as failures),
    # report a deviation of 1.
    errors = workload.deep_checks(window) or [1.0]
    result["checked_ops"] = len(errors)
    result["worst_err_mean"] = math.fsum(errors) / len(errors)
    result["max_abs_err"] = max(errors)
    result["latency"] = {
        "p50_s": statistics.median(window.scaled),
        "tail": percentile_tail(window.scaled),
        "busy_s": sum(window.scaled),
        "raw_p50_s": statistics.median(window.latencies),
        "raw_tail": percentile_tail(window.latencies),
    }
    result["attempted"] = len(window.latencies)
    result["failed"] = len(window.failures)
    result["failures"] = [{"op": op_id, "messages": messages[:5]}
                          for op_id, messages in
                          sorted(window.failures.items())
                          ][:MAX_LISTED_FAILURES]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
