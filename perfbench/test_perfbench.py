"""The benchmark's own tests: corrupted outputs fail their checks, spans tolerate refactors.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def failing(results) -> set[str]:
    return {name for name, ok, _ in results if not ok}


# -- output checks -------------------------------------------------------------


def test_train_loss_checks_catch_corruption():
    good = [7.0, 5.0, 3.0]
    assert failing(checks.check_train_losses(good, 3)) == set()
    assert "every epoch loss finite" in failing(checks.check_train_losses([7.0, math.nan, 3.0], 3))
    assert "last epoch loss below the first" in failing(checks.check_train_losses([7.0, 5.0, 7.5], 3))
    assert "one loss per epoch" in failing(checks.check_train_losses(good[:2], 3))
    assert checks.check_repeat_losses(["7.0", "5.0"], ["7.0", "5.0"])[1]
    assert not checks.check_repeat_losses(["7.0", "5.000000000000001"], ["7.0", "5.0"])[1]


@pytest.fixture
def forecast(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "FORECAST_RALLIES", 3)
    wl = workloads.ForecastLong(5, tmp_path)
    wl.run()
    return wl


def test_forecast_checks_pass_then_catch_corruption(forecast):
    assert failing(forecast.finish().checks) == set()

    rally_id = next(iter(forecast.pred.rows))
    forecast.pred.rows[rally_id][1].pop()
    first = forecast.sets[0][0][0]
    forecast.sets[0][0][0] = dataclasses.replace(first, type_id=forecast.vocab.serve_ids[0])
    forecast.report.score = math.nextafter(forecast.report.score, math.inf)
    assert failing(forecast.finish().checks) == {
        "re-imported row count",
        "no service type after the prefix",
        "file score equals in-memory score bit for bit",
    }


def test_forecast_probability_sum_check(forecast):
    g = forecast.pred.rows[next(iter(forecast.pred.rows))][1][0]
    g.type_probs[int(g.type_probs.argmax())] += 2e-6
    assert failing(forecast.finish().checks) == {"probability rows sum to 1"}


@pytest.fixture
def ingest(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "INGEST_RALLIES", 60)
    monkeypatch.setattr(workloads, "SCORE_RALLIES", 20)
    wl = workloads.IngestScore(5, tmp_path)
    wl.run()
    return wl


def test_ingest_checks_pass_then_catch_corruption(ingest):
    assert failing(ingest.finish().checks) == set()

    with open(ingest.data_path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    ingest.rejects = ["a rejected row"]
    ingest.violations = 1
    row = ingest.tables[0].rows[0]
    ingest.tables[0].rows[0] = dataclasses.replace(row, fraction=row.fraction + 1e-6)
    ingest.report.min_of_sets = max(ingest.report.sample_losses) + 1.0
    assert failing(ingest.finish().checks) == {
        "parse-write-parse byte-stable",
        "zero rejects",
        "zero strict-serve violations",
        "distribution fractions sum to 1 per group",
        "min_of_sets at most every l_i",
    }


# -- spans ---------------------------------------------------------------------


def test_wrapping_a_missing_or_unused_function_reports_zero_calls():
    tracer = Tracer()
    module = types.SimpleNamespace(kept=lambda x: x + 1, not_callable=3)
    assert not tracer.wrap(module, "deleted_by_a_refactor", "m.deleted")
    assert not tracer.wrap(module, "not_callable", "m.not_callable")
    assert not tracer.wrap(None, "step", "m.Gone.step")
    assert tracer.wrap(module, "kept", "m.kept", on_result=lambda t, r: len(r))  # hook no longer fits
    assert module.kept(1) == 2
    assert dict(tracer.calls) == {"m.deleted": 0, "m.not_callable": 0, "m.Gone.step": 0, "m.kept": 1}
    tracer.unwrap_all()
    assert module.kept(1) == 2 and tracer.calls["m.kept"] == 1


def test_self_time_subtracts_children():
    tracer = Tracer()
    module = types.SimpleNamespace()
    module.inner = lambda: sum(range(20000))
    module.outer = lambda: module.inner() + module.inner()
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "outer", "outer")
    module.outer()
    totals = tracer.totals()
    assert tracer.calls["inner"] == 2
    assert totals["outer"][1] == pytest.approx(totals["outer"][0] - totals["inner"][0])
    assert tracer.top_level_s() == totals["outer"][0]


def test_traced_training_accounts_for_the_epoch_wall(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "TRAIN_EPOCHS", 2)
    wl = workloads.TrainCorpus32(0, tmp_path)
    tracer = Tracer()
    layers.install(tracer)
    try:
        tracer.reset()
        tracer.start_gc()
        wl.run()
        tracer.stop_gc()
    finally:
        tracer.unwrap_all()
    outcome = wl.finish()
    figures = layers.summarize(tracer, outcome)
    per_epoch = len(wl.train_set)
    assert figures["network.forward_teacher_forced.calls"] == per_epoch
    assert figures["network.forward_positions.calls"] == per_epoch
    assert figures["training.Adam.step.calls"] == math.ceil(per_epoch / wl.train_config.batch_size)
    assert figures["autodiff.tape_nodes_per_target"] > 0
    assert figures["scoring.generate_suffix.calls"] == 0
    children = sum(
        figures[f"{name}.ms"]
        for name in ("network.forward_teacher_forced", "training.step_loss", "autodiff.backward", "training.Adam.step")
    )
    assert children + figures["training.train.self_ms"] == pytest.approx(figures["training.train.ms"])
    assert 0.95 < figures["trace.accounted_frac"] <= 1.0


# -- the contract ----------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_calibration_cancels_the_machine_speed():
    rep = {"items": 840, "seconds": 2.0, "setup_s": 0.3, "peak_rss_mb": 48.0, "quality": 2.5, "reference_s": 0.2}
    slow = dict(rep, seconds=4.0, setup_s=0.6, reference_s=0.4)  # same program, machine twice as slow
    faster_program = dict(rep, seconds=1.0)
    assert run.end_to_end([rep]) == pytest.approx(run.end_to_end([slow]))
    assert run.end_to_end([faster_program])["items_per_s"] == pytest.approx(2 * run.end_to_end([rep])["items_per_s"])
    assert run.end_to_end([rep])["items_per_s"] == pytest.approx(420.0 * 0.2 / run.NOMINAL_S)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest-score", "--seed", "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
