"""``BENCHMARK.json`` names exactly what the harness prints."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.harness import ROOT, evaluate, run_pass
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS
from perfbench.run import result_line
from perfbench.workloads import SIZES, _MAKERS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_catalogue():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == list(PER_LAYER)
    assert [(w["name"], w["why"])
            for w in BENCHMARK["workloads"]] == list(WORKLOADS.items())
    assert set(SIZES) == set(_MAKERS) == set(WORKLOADS)
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_benchmark_json_stays_inside_the_contract():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    names = [m["name"] for m in metrics + BENCHMARK["workloads"]]
    assert len(set(names)) == len(names)
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCHMARK["workloads"])
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert len(BENCHMARK["per_layer"]) <= 128
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    assert 1 <= BENCHMARK["run_seconds"] <= 60


@pytest.mark.parametrize("workload", ["cha-lossy", "svc-audience"])
def test_result_lines_carry_exactly_the_named_metrics(workload):
    passes = [run_pass(workload, 1, trace=False, smoke=True),
              run_pass(workload, 1, trace=True, smoke=True)]
    result = evaluate(workload, 1, passes, smoke=True)
    assert result.correct, result.problems
    untraced = result_line(result, trace=False)
    traced = result_line(result, trace=True)
    assert set(untraced) == set(traced) == {
        "correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in untraced["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())
    assert untraced["attempted"] >= 1 and untraced["failed"] == 0


def test_report_command_prints_every_metric_by_name(tmp_path):
    out = tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--smoke", "--repeats", "1",
         "--workloads", "vi-mobile", "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stdout
    printed = set(re.findall(r"^    (\S+)\s", done.stdout, flags=re.M))
    assert printed == {m["name"] for m in
                       BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    report = json.loads(out.read_text())
    assert report["comparable"] is False
    assert report["sets"][0][0]["workload"] == "vi-mobile"


def test_traced_layers_sum_to_wall():
    """Per workload family, the per-layer times partition ``wall_s``."""
    for workload in ("vi-mobile", "svc-tcp"):
        record = run_pass(workload, 1, trace=True, smoke=True)
        layer, wall = record["per_layer"], record["end_to_end"]["wall_s"]
        batch = (layer["experiment.build_s"] + layer["experiment.step_s"]
                 + layer["experiment.finish_s"])
        served = (layer["service.driver.tick_s"]
                  + layer["service.loop.outside_tick_s"])
        assert batch + served == pytest.approx(wall, rel=0.05)
        if batch:
            parts = (layer["step.self_s"] + layer["net.channel.deliver_s"]
                     + layer["contention.advise_s"]
                     + layer["contention.feedback_s"]
                     + layer["net.mobility.position_s"])
            assert parts == pytest.approx(layer["experiment.step_s"])
        else:
            parts = (layer["service.stepper.step_s"]
                     + layer["service.driver.harvest_s"]
                     + layer["service.bus.publish_s"])
            assert parts == pytest.approx(layer["service.driver.tick_s"])


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, the
    command exits non-zero and prints no result."""
    import shutil
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cha-dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
