"""Tests of the benchmark harness itself, at the tiny smoke scale.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from refclock import REF_SLICE_S, RefClock

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
wl = run.load_harness()


def smoke_args(workload: str, trace: int):
    return run.parse_args(["--workload", workload, "--seed", "11", "--seconds", "0.5",
                           "--trace", str(trace), "--smoke"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_emits_every_end_to_end_metric_and_check(workload):
    result = run.run_once(wl, smoke_args(workload, 0))
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: u for k, (_, u) in result.metrics.items()} == units
    assert set(result.metrics) | set(result.shown) == set(wl.end_to_end_units(workload))
    assert result.check_names <= result.tally.names
    assert result.tally.failed == 0
    assert result.shown["fail_frac"][0] == 0


def test_traced_run_emits_every_layer_metric_and_check():
    result = run.run_once(wl, smoke_args("interactive", 1))
    assert list(result.metrics) == wl.per_layer_names(wl.SMOKE)
    assert result.check_names <= result.tally.names
    assert result.tally.failed == 0
    ids = {span[0] for span in result.spans.spans}
    assert all(parent is None or parent in ids for _, parent, _, _, _ in result.spans.spans)
    assert all(end >= start for *_, start, end in result.spans.spans)


def test_refclock_samples_the_host_inside_a_region():
    with RefClock().region() as timed:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert len(timed.slices) >= 5  # one before, one after, several inside
    assert 0 < timed.work_s < timed.wall_s
    sliced = timed.wall_s - timed.work_s
    assert sliced == pytest.approx(sum(timed.slices[1:-1]))
    assert timed.ref_s == pytest.approx(timed.work_s * REF_SLICE_S / timed.slice_s)


def test_full_scale_layer_names_match_benchmark_json():
    assert [m["name"] for m in BENCH["per_layer"]] == wl.per_layer_names(wl.FULL)
    assert all(m["unit"] == wl.layer_unit(m["name"]) for m in BENCH["per_layer"])


@pytest.mark.parametrize("workload, field, wrong", [
    ("sweep", "sweep_examined", wl.SMOKE.sweep_examined + 1),
    ("verify", "verify_cases", tuple(
        (label, cases + (label == "verify.obs6")) for label, cases in wl.SMOKE.verify_cases)),
    ("interactive", "cold_start_output", ("sum-dominant", 27, 25)),
])
def test_wrong_expected_constant_raises_fail_frac(monkeypatch, workload, field, wrong):
    monkeypatch.setitem(wl.SCALES, "smoke", dataclasses.replace(wl.SMOKE, **{field: wrong}))
    result = run.run_once(wl, smoke_args(workload, 0))
    assert result.tally.failed > 0
    assert result.shown["fail_frac"][0] > 0
    assert not result.result()["correct"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
