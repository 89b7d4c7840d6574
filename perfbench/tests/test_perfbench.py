"""Tiny-scale smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import importlib
import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hostclock  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    child = _cli("--workload", workload, "--seed", "2010", "--seconds", "1",
                 "--trace", trace, "--scale", "tiny")
    assert child.returncode == 0, child.stdout + child.stderr
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert detail["recorded"] is True
    assert detail["step_samples"] >= 100
    wanted = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in wanted
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert detail["absent_spans"] == []


@pytest.mark.parametrize("workload", workloads.WORKLOAD_NAMES)
def test_traced_self_times_sum_to_the_engine_step_total(workload):
    outcome = run.run_workload(workload, 2010, 1, trace=True, scale="tiny")
    assert outcome["result"]["correct"], outcome["detail"]["failures"]
    spans = outcome["traced"].tracer
    root_total = spans.total_s[tracer.ROOT]
    assert root_total > 0
    assert sum(spans.self_s.values()) == pytest.approx(root_total, rel=1e-9)
    assert all(value >= 0 for value in spans.self_s.values())
    assert spans.calls[tracer.ROOT] == outcome["traced"].steps


def test_wrappers_are_restored_after_the_traced_pass():
    before = {}
    for name, (module_name, path) in tracer.SPANS.items():
        module = importlib.import_module(module_name)
        if "." in path:
            owner_name, attr = path.split(".")
            before[name] = vars(getattr(module, owner_name))[attr]
        else:
            before[name] = getattr(module, path)
    from repro.mapping import world as mapping_world

    imported = mapping_world.exchange_mapping_knowledge
    outcome = run.run_workload("mapping_team", 2010, 1, trace=True, scale="tiny")
    assert outcome["traced"].tracer.calls["core.comms.exchange_mapping_knowledge"] > 0
    assert not outcome["traced"].tracer.is_installed()
    for name, (module_name, path) in tracer.SPANS.items():
        module = importlib.import_module(module_name)
        if "." in path:
            owner_name, attr = path.split(".")
            assert vars(getattr(module, owner_name))[attr] is before[name], name
        else:
            assert getattr(module, path) is before[name], name
    assert mapping_world.exchange_mapping_knowledge is imported


def test_a_missing_span_target_is_reported_absent():
    spans = dict(tracer.SPANS)
    spans["sim.engine.gone"] = ("repro.sim.engine", "TimeStepEngine.gone")
    spans["no.such.module"] = ("repro.no_such_module", "thing")
    traced = tracer.Tracer(spans).install()
    traced.restore()
    assert sorted(traced.absent) == ["no.such.module", "sim.engine.gone"]
    assert not hasattr(importlib.import_module("repro.sim.engine").TimeStepEngine, "gone")


def test_a_perturbed_digest_is_a_failed_operation(monkeypatch, capsys):
    outcome = run.run_workload(
        "routing_paper", 2010, 1, trace=False, scale="tiny", expected={0: "0" * 16}
    )
    assert outcome["result"]["correct"] is False
    assert outcome["result"]["failed"] == 1
    assert "digest" in outcome["detail"]["failures"][0]

    table = run.load_digests()
    table["tiny"]["routing_paper"]["2010"][0] = "0" * 16
    monkeypatch.setattr(run, "load_digests", lambda: table)
    status = run.main(["--workload", "routing_paper", "--seconds", "1", "--scale", "tiny"])
    assert status == 1
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["correct"] is False


def test_without_the_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    child = _cli("--workload", "routing_paper", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert child.returncode != 0
    assert not any(line.startswith("{") for line in child.stdout.splitlines())


def test_host_clock_divides_by_the_median_of_nearby_calibrations(monkeypatch):
    factors = iter([2.0, 2.0, 9.0, 2.0, 2.0, 2.0])
    monkeypatch.setattr(hostclock, "host_factor", lambda: next(factors))
    clock = hostclock.HostClock(every_s=1e9)
    raw, ref = [], []
    clock.add(raw, ref, 4.0)
    for __ in range(4):
        clock.calibrate()
        clock.add(raw, ref, 6.0)
    assert math.isnan(ref[0])
    clock.finish()
    assert raw == [4.0] + [6.0] * 4
    # one calibration that hit a hiccup (9) never wins a median
    assert ref == [2.0] + [3.0] * 4
    assert clock.factors == [2.0, 2.0, 9.0, 2.0, 2.0, 2.0]



def test_an_exponent_divides_by_a_power_of_the_host_factor(monkeypatch):
    monkeypatch.setattr(hostclock, "host_factor", lambda: 4.0)
    clock = hostclock.HostClock(every_s=1e9)
    raw, ref = [], []
    clock.add(raw, ref, 6.0)
    clock.add(raw, ref, 6.0, exponent=0.5)
    clock.finish()
    assert ref == [1.5, 3.0]


def test_step_metrics_are_medians_over_blocks_of_a_hundred_steps():
    assert [len(part) for part in run.blocks(list(range(99)))] == [99]
    assert [len(part) for part in run.blocks(list(range(250)))] == [100, 150]
    # one slow block in three moves neither median
    steps = [0.001] * 200 + [0.004] * 100
    seeded = workloads.SeedRun(0, build_s=[0.5], build_ref_s=[0.5], step_s=steps, step_ref_s=steps)
    metrics = run.timings(workloads.Pass([seeded], clock=None), reference=True)
    assert metrics["steps_per_s"] == pytest.approx(1000.0)
    assert metrics["step_ms_p90"] == pytest.approx(1.0)
    assert metrics["setup_s"] == 0.5
