"""Smoke test of the standing benchmark (not in the tier-1 ``testpaths``):

    pytest benchmarks/spine -q

Runs all four workloads at 2 % of their wave counts, a few at a time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from spine import hostspeed, run, workloads  # noqa: E402

SMOKE_SECONDS = str(workloads.RUN_SECONDS * 0.02)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "B")


def spine(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--seconds", SMOKE_SECONDS, *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("spine")
    jobs = {
        name: ("--workload", name, "--traced", "--out", str(out / name))
        for name in run.WORKLOADS
    }
    jobs["again"] = ("--workload", "khop_small", "--trace", "1")
    jobs["other_seed"] = ("--workload", "khop_small", "--trace", "1", "--seed", "2")
    jobs["injected"] = ("--workload", "khop_large_pool", "--trace", "0",
                        "--fail-at-wave", "1")
    with ThreadPoolExecutor(max_workers=3) as pool:
        done = dict(zip(jobs, pool.map(lambda a: spine(*a), jobs.values())))
    for name in run.WORKLOADS:
        assert done[name].returncode == 0, done[name].stderr[-2000:]
        done[name].results = json.loads((out / name / "results.json").read_text())
    return done


def test_benchmark_json_matches_the_code():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == run.WORKLOADS
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert BENCHMARK["run_seconds"] == workloads.RUN_SECONDS
    for metric in BENCHMARK["end_to_end"]:
        assert run.E2E_UNITS[metric["name"]] == metric["unit"]
    # the driver's list holds what every workload emits and is never 0:
    # failed_frac travels as attempted/failed; mutation_p50_ms and host_speed
    # (the compensation factor, not a property of the program) are printed only
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.E2E_UNITS) - {
        "failed_frac", "mutation_p50_ms", "host_speed"
    }
    for metric in BENCHMARK["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"]


def test_host_speed_follows_the_probe():
    # 40 waves of 0.5 s; the host turns 25 % faster after the 20th
    at = [0.5 * i for i in range(41)]
    slow, fast = hostspeed.REFERENCE_S, hostspeed.REFERENCE_S / 1.25
    speed = hostspeed.speed_per_wave(at, [slow] * 20 + [fast] * 21)
    assert speed.shape == (40,)
    assert speed[:17] == pytest.approx(1.0) and speed[22:] == pytest.approx(1.25)
    # one probe hit by an interrupt does not read as a slow host
    speed = hostspeed.speed_per_wave(at, [slow] * 10 + [5 * slow] + [slow] * 30)
    assert speed == pytest.approx(1.0)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload):
    result = runs[workload].results["runs"][0][workload]
    e2e_units = dict(run.E2E_UNITS)
    if workload != "mixed_dynamic":  # the only workload with writes
        del e2e_units["mutation_p50_ms"]
    assert set(result["end_to_end"]) == set(e2e_units)
    assert set(result["per_layer"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert result["failed"] == 0 and result["end_to_end"]["failed_frac"] == 0
    lines = runs[workload].stdout.splitlines()
    for name, unit in e2e_units.items():
        assert any(
            line.startswith(f"{workload} {name} ") and f" {unit} " in line
            for line in lines
        ), name
    for metric in BENCHMARK["per_layer"]:
        assert any(
            line.startswith(f"{workload} {metric['name']} ")
            and f" {metric['unit']} n=" in line
            for line in lines
        ), metric["name"]
    coverage = result["per_layer"]["telemetry.self_time_coverage"]
    assert 0.95 <= coverage <= 1.05


def test_counts_repeat_for_a_seed_and_move_with_it(runs):
    def exact(line):
        return {
            name: m["value"]
            for name, m in line["metrics"].items()
            if m["unit"] in EXACT_UNITS
        }

    first = runs["khop_small"].results["runs"][0]["khop_small"]
    again = json.loads(runs["again"].stdout.splitlines()[-1])
    other = json.loads(runs["other_seed"].stdout.splitlines()[-1])
    assert again["correct"] and other["correct"]
    counts = {
        name: value
        for name, value in first["per_layer"].items()
        if run.unit_of(name) in EXACT_UNITS
    }
    assert counts == exact(again)
    assert counts != exact(other)
    assert f"answer_digest {first['digest']}" in runs["again"].stdout
    assert f"answer_digest {first['digest']}" not in runs["other_seed"].stdout


def test_nothing_is_left_after_a_failure_on_the_pool_workload(runs):
    failed = runs["injected"]
    assert "injected harness failure" in failed.stderr
    # 1 = the run failed; 3 would mean the sweep found something left behind
    assert failed.returncode == 1, failed.stderr[-2000:]
    assert "left behind" not in failed.stderr
    assert not failed.stdout.strip().endswith("}")  # no result line
    assert not run.Leftovers().alive()
    for proc in Path("/proc").iterdir():
        if proc.name.isdigit():
            try:
                cmdline = (proc / "cmdline").read_bytes()
            except OSError:
                continue
            assert b"spine/child.py" not in cmdline
    assert not (ROOT / ".spine_tmp").exists()
