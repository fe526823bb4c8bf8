"""amprob benchmark: one command, every end-to-end metric, checked outputs.

    python3 benchmarks/run.py --workload profile --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's `src/`, never from an installed copy, and the
command fails (exit 2) when `src/amprob` is missing.

Load model: a closed loop, one client in one process, numpy's thread pools
pinned to one thread. Each workload runs in a fresh `worker.py` process so
its peak memory is its own. The workload seed expands into the inputs
(`workloads.py`); outputs are checked by an independent oracle
(`oracle.py`). `--trace 1` is the separate traced run that reports the
per-layer metrics (`tracer.py`); end-to-end metrics always come from
untraced runs.

End-to-end metrics (untraced runs). Times are host-normalised: each is
scaled by how long a fixed reference loop took just before it (see
`worker.py`), so that a shared host slowing down for a minute does not read
as a regression; the raw figures are kept in the results file.

    setup_s         median wall time of fresh interpreters importing
                    amprob.cli (amprob for `spaces`), 9 per run
    op_p50_ms       median latency of one operation (one `amprob run` or
                    one library call)
    op_tail_ms      the highest percentile with at least ten operations
                    beyond it; percentile and sample count are printed and
                    kept in the results file
    ops_per_s       operations per second of summed latency
    peak_rss_mb     the worker's peak resident memory after the loop
    worst_err_mean  each checked operation's worst absolute deviation from
                    the oracle, averaged over the checked operations

`error_rate` (failed / attempted operations) is printed and recorded, and
the result line carries `attempted` and `failed`; it is not a listed
metric because a healthy run reads exactly 0. `max_abs_err`, the single
worst deviation, is printed and recorded too; it swings too much from seed
to seed to gate a change on.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Lines above it print each
metric by name with its unit. A results file with provenance goes to
`benchmarks/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

import workloads
from tracer import PER_LAYER
from worker import REF_NOMINAL_MS, ref_ms

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORK = BENCH / ".work"

THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("worst_err_mean", "probability"),
)

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_SAMPLES = 9
# Whole-command limit: the worker is killed when it would overrun it.
DEADLINE_S = 170.0


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def _time_setup(module: str) -> List[tuple]:
    """(wall time, reference-loop ms) for fresh interpreters importing
    `module` from the checkout; the first, untimed import also writes the
    bytecode cache."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {module}"
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, env=_env(), check=True, timeout=60)
    times = []
    for _ in range(SETUP_SAMPLES):
        ref = ref_ms()
        start = time.perf_counter()
        # A plain blocking wait: waiting with a timeout polls in steps of
        # up to 50 ms, which would quantise the measurement.
        with subprocess.Popen(cmd, env=_env()) as proc:
            status = proc.wait()
        times.append((time.perf_counter() - start, ref))
        if status != 0:
            raise RuntimeError(f"importing {module} exited {status}")
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """HEAD of the checkout, read from its own `.git` only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "amprob").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _why(workload: str) -> str:
    """Why the workload was chosen, as BENCHMARK.json records it."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def _provenance(workload: str, seed: int, worker: Dict[str, Any]
                ) -> Dict[str, Any]:
    import mpmath
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "mpmath": mpmath.__version__,
        "amprob_generator_id": worker.get("amprob_generator"),
        "bench_generator_id": workloads.GENERATOR_ID,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "thread_env": THREAD_ENV,
        "load_model": "closed loop, 1 client, 1 process, no threads",
        "why": _why(workload),
        "size_ranges": workloads.SIZE_RANGES[workload],
        "unreachable_corners": workloads.UNREACHABLE_CORNERS[workload],
    }


def _run_worker(workload: str, seed: int, seconds: float, trace: int,
                deadline: float) -> Dict[str, Any]:
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = RESULTS / f"BENCH_{workload}_seed{seed}_trace{trace}.worker.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--src", str(SRC), "--work", str(work),
           "--result", str(result_path)]
    try:
        proc = subprocess.run(cmd, env=_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result_path.unlink()
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> Dict[str, Any]:
    """Run one workload; returns the results record (also written to
    RESULTS)."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    setup = [] if trace else _time_setup(
        "amprob" if workload == "spaces" else "amprob.cli")
    worker = _run_worker(workload, seed, seconds, trace, deadline)
    latency = worker["latency"]
    tail = latency["tail"]
    raw = {
        "op_p50_ms": latency["raw_p50_s"] * 1e3,
        "op_tail_ms": latency["raw_tail"]["value"] * 1e3,
        "ops_per_s": worker["ops"] / worker["busy_s"],
    }
    if trace:
        metrics = {name: {"value": worker["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        raw["setup_s"] = statistics.median(t for t, _ in setup)
        values = {
            "setup_s": statistics.median(t * REF_NOMINAL_MS / ref
                                         for t, ref in setup),
            "op_p50_ms": latency["p50_s"] * 1e3,
            "op_tail_ms": tail["value"] * 1e3,
            "ops_per_s": worker["ops"] / latency["busy_s"],
            "peak_rss_mb": worker["peak_rss_mb"],
            "worst_err_mean": worker["worst_err_mean"],
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "error_rate": worker["failed"] / worker["attempted"],
        "metrics": metrics,
        "raw_unnormalised": raw,
        "op_tail": tail,
        "max_abs_err": worker["max_abs_err"],
        "checked_ops": worker["checked_ops"],
        "host_ref_ms": worker["host_ref_ms"],
        "setup_samples_s_and_ref_ms": setup,
        "busy_s": worker["busy_s"],
        "traced_busy_s": worker.get("traced_busy_s"),
        "spans_file": worker.get("spans_file"),
        "failures": worker["failures"],
        "provenance": _provenance(workload, seed, worker),
    }
    name = f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    with open(RESULTS / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _print_record(record: Dict[str, Any]) -> None:
    w = record["workload"]
    for name, metric in record["metrics"].items():
        print(f"{w:9s} {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"{w:9s} {'error_rate':40s} {record['error_rate']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations failed)")
    if not record["trace"]:
        tail = record["op_tail"]
        print(f"{w:9s} op_tail_ms is p{tail['percentile']:.2f} of "
              f"{tail['samples']} operations ({tail['beyond']} beyond)")
        print(f"{w:9s} {'max_abs_err':40s} {record['max_abs_err']:.6g} "
              f"probability (worst of {record['checked_ops']} checked "
              "operations)")
    for failure in record["failures"]:
        print(f"{w:9s} FAILED op {failure['op']}: "
              f"{'; '.join(failure['messages'])}")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "amprob" / "__init__.py").is_file():
        print(f"error: no amprob sources at {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (
        args.workload,)
    records = []
    for workload in names:
        try:
            records.append(run_workload(workload, args.seed, args.seconds,
                                        args.trace, deadline))
        except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _print_record(records[-1])

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": metric for r in records
                   for name, metric in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
