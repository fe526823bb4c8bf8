import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads
from tracer import PER_LAYER

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] \
        == list(PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def bench(*args, cwd=None, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_one_command_prints_every_end_to_end_metric_with_its_unit():
    proc = bench("--workload", "sampling", "--seed", "3", "--seconds", "0.5",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for name, unit in run.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.split()[1:2] == [name] and line.endswith(unit)
                   for line in lines[:-1]), name
    assert any("error_rate" in line for line in lines[:-1])


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("--workload", "sampling", "--seed", "3", "--seconds", "0.5",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == list(PER_LAYER)
    assert metrics["trace.overhead_ratio"]["value"] > 0
    assert metrics["frequency.trials"]["value"] > 0
    assert metrics["slits.cells"]["value"] == 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "profile", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_latencies_are_scaled_by_the_median_of_recent_references(
        monkeypatch):
    import worker
    refs = iter([2.0, 0.5, 1.0])
    monkeypatch.setattr(worker, "ref_ms", lambda: next(refs))
    monkeypatch.setattr(worker, "REF_EVERY_S", 0.0)
    window = worker.Window()
    for _ in range(3):
        window.calibrate()
        window.record(0.3)
    assert window.latencies == [0.3] * 3
    nominal = worker.REF_NOMINAL_MS
    assert window.scaled == [0.3 * nominal / 2.0, 0.3 * nominal / 1.25,
                             0.3 * nominal / 1.0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    from worker import percentile_tail
    tail = percentile_tail([float(i) for i in range(100, 0, -1)])
    assert tail == {"value": 90.0, "percentile": 90.0, "samples": 100,
                    "beyond": 10}
    assert percentile_tail([3.0, 1.0, 2.0])["value"] == 3.0
