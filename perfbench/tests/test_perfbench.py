"""Tests of the benchmark itself, on tiny-profile graphs.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness, tracer
from perfbench.workloads import END_TO_END, PER_LAYER, WORKLOADS, manifest

ROOT = Path(__file__).resolve().parents[2]
TINY = {name: w.at_profile("tiny") for name, w in WORKLOADS.items()}


def _units(metrics: dict[str, tuple[float, str]]) -> dict[str, str]:
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_completes_with_every_end_to_end_metric(name, tmp_path):
    result = harness.run(TINY[name], seed=3, seconds=0.5, trace=False,
                         state_dir=tmp_path)
    assert result.correct, result.checks
    assert result.failed == 0 and result.attempted > 0
    assert _units(result.metrics) == {m.name: m.unit for m in END_TO_END}
    assert all(value > 0 for value, _ in result.metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    result = harness.run(TINY[name], seed=3, seconds=0.5, trace=True,
                         state_dir=tmp_path)
    assert result.correct, result.checks
    assert _units(result.metrics) == {m.name: m.unit for m in PER_LAYER}
    assert all(math.isfinite(v) for v, _ in result.metrics.values())
    checks = {check for check, _, _ in result.checks}
    assert "traced_equals_untraced" in checks
    spans = (tmp_path / f"spans-{name}-s3.jsonl").read_text().splitlines()
    first = json.loads(spans[0])
    assert {"name", "start", "end", "parent", "epoch", "workload"} <= set(first)


def test_wrappers_are_removed_after_traced_run(tmp_path):
    originals = [
        (owner, attr, owner.__dict__[attr])
        for owner, attr, _ in tracer.targets()
    ]
    with tracer.install(tracer.Tracer("probe")):
        assert all(
            owner.__dict__[attr] is not fn for owner, attr, fn in originals
        )
    harness.run(TINY["reddit-mp"], seed=3, seconds=0.5, trace=True,
                state_dir=tmp_path)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_wrong_accuracy_is_a_failed_operation(tmp_path, monkeypatch):
    from repro import ECGraphTrainer

    monkeypatch.setattr(
        ECGraphTrainer, "evaluate_exact",
        lambda self: {"train": 0.0, "val": 0.0, "test": 0.0},
    )
    workload = dataclasses.replace(TINY["reddit-sync"], floor=0.5)
    result = harness.run(workload, seed=3, seconds=0.5, trace=False,
                         state_dir=tmp_path)
    assert not result.correct
    assert result.failed == 1
    assert [name for name, ok, _ in result.checks if not ok] == [
        "test_acc_floor"
    ]


def test_output_differing_from_same_seed_record_is_a_failure(tmp_path):
    workload = TINY["pubmed-halo"]
    first = harness.run(workload, seed=5, seconds=0.5, trace=False,
                        state_dir=tmp_path)
    assert first.correct
    (record,) = (tmp_path / "records").glob("pubmed-halo-*.json")
    data = json.loads(record.read_text())
    data["losses"][-1] = (1.5).hex()
    record.write_text(json.dumps(data))
    second = harness.run(workload, seed=5, seconds=0.5, trace=False,
                         state_dir=tmp_path)
    assert second.failed == 1
    assert [name for name, ok, _ in second.checks if not ok] == [
        "same_seed_record"
    ]


def test_non_finite_loss_is_a_failed_epoch(monkeypatch):
    from repro import ECGraphTrainer

    real = ECGraphTrainer.run_epoch

    def broken(self, t):
        result = real(self, t)
        return dataclasses.replace(result, loss=float("nan")) if t == 3 else result

    monkeypatch.setattr(ECGraphTrainer, "run_epoch", broken)
    graph_run = harness.train(
        TINY["reddit-sync"], _tiny_graph("reddit"), epochs=10
    )
    assert graph_run.failed == 1
    assert len(graph_run.rows) == 4


def _tiny_graph(dataset: str):
    from repro import load_dataset

    return load_dataset(dataset, profile="tiny", seed=3)


@pytest.mark.parametrize("seconds", [0.01, 1.0, 7.5, 20.0, 60.0])
def test_window_is_whole_trend_periods(seconds):
    for workload in WORKLOADS.values():
        epochs = harness.window_epochs(workload, seconds)
        assert epochs >= harness.period()
        assert epochs % harness.period() == 0


def test_benchmark_json_matches_catalogue():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == manifest()


def test_benchmark_json_within_format_limits():
    text = (ROOT / "BENCHMARK.json").read_text()
    spec = json.loads(text)
    assert len(text.encode()) <= 64 * 1024
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert unit.match(m["unit"]) and m["better"] in {"lower", "higher"}
        names.append(m["name"])
    assert all(name.match(n) for n in names)
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} \
        in spec["end_to_end"]


def _checkout(tmp_path: Path, with_program: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    if with_program:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reddit-sync",
         "--seed", "2", "--seconds", "0.5", "--profile", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_cli_prints_metrics_and_result_line(tmp_path):
    proc = _cli(_checkout(tmp_path, with_program=True), "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {
        line.split()[1]: line.split()[-1]
        for line in lines if line.startswith("metric ")
    }
    assert printed == {m.name: m.unit for m in END_TO_END}
    host = json.loads(next(l for l in lines if l.startswith("host "))[5:])
    assert host["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert set(host["openblas_threads"].values()) == {1}


def test_cli_fails_without_the_program(tmp_path):
    proc = _cli(_checkout(tmp_path, with_program=False), "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _session_pids(sid: int) -> list[int]:
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        # Field 6 (session) follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            pids.append(int(entry.name))
    return pids


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_leaves_no_process_behind(tmp_path, trace):
    # Multiprocess runs start worker processes and Python's shared-memory
    # resource tracker; none may outlive the run.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "reddit-mp",
         "--seed", "2", "--seconds", "0.5", "--profile", "tiny",
         "--trace", trace],
        cwd=_checkout(tmp_path, with_program=True),
        stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert proc.wait(timeout=120) == 0
    assert _session_pids(proc.pid) == []
