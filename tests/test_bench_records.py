"""Every committed BENCH_*.json benchmark record follows the schema README's Benchmark paragraph states."""

import copy
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def check_record(record: dict) -> None:
    """Raise ValueError naming the first way record breaks the schema."""

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise ValueError(what)

    workloads = {w["name"] for w in SPEC["workloads"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for key in ("base", "head", "machine"):
        require(isinstance(record.get(key), str) and record[key], f"{key} is not a non-empty string")
    require(record["machine"].startswith("machine: "), "machine is not run.py's machine: line")
    require(isinstance(record.get("runs"), list) and record["runs"], "runs is not a non-empty list")
    for run in record["runs"]:
        name = run.get("workload")
        require(name in workloads, f"workload {name!r} is not in BENCHMARK.json")
        require(isinstance(run.get("seeds"), list) and all(type(s) is int for s in run["seeds"]), f"{name}: seeds")
        require(isinstance(run.get("seconds"), (int, float)) and run["seconds"] > 0, f"{name}: seconds")
        pairs = run.get("pairs")
        require(type(pairs) is int and pairs >= 1, f"{name}: pairs")
        for side in ("base", "head"):
            lines = run.get(side)
            require(isinstance(lines, list) and len(lines) == pairs, f"{name}: {side} holds {pairs} result lines")
            for line in lines:
                for key in ("correct", "attempted", "failed"):
                    require(key in line, f"{name}: a {side} result line lacks {key}")
                metrics = line.get("metrics", {})
                require(set(metrics) == set(units), f"{name}: {side} metrics {sorted(metrics)} are not {sorted(units)}")
                for metric, unit in units.items():
                    require(metrics[metric].get("unit") == unit, f"{name}: {side} {metric} is not in {unit}")
                    require(isinstance(metrics[metric].get("value"), (int, float)), f"{name}: {side} {metric} value")
        rates = {side: [line["metrics"]["items_per_s"]["value"] for line in run[side]] for side in ("base", "head")}
        wins = sum(head > base for base, head in zip(rates["base"], rates["head"]))
        require(run.get("wins") == wins, f"{name}: wins is {run.get('wins')}, the result lines give {wins}")
        medians = {side: statistics.median(values) for side, values in rates.items()}
        require(run.get("median_items_per_s") == medians, f"{name}: median_items_per_s is not the lines' medians")


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_every_benchmark_record_follows_the_schema(path):
    check_record(json.loads(path.read_text(encoding="utf-8")))


def test_a_record_that_lacks_a_metric_or_names_an_unknown_workload_is_refused():
    assert RECORDS, "no BENCH_*.json at the root of the repository"
    record = json.loads(RECORDS[-1].read_text(encoding="utf-8"))
    check_record(record)
    lacking = copy.deepcopy(record)
    del lacking["runs"][0]["head"][0]["metrics"]["peak_rss_mb"]
    with pytest.raises(ValueError, match="metrics"):
        check_record(lacking)
    renamed = copy.deepcopy(record)
    renamed["runs"][0]["base"][0]["metrics"]["setup_s"]["unit"] = "ms"
    with pytest.raises(ValueError, match="setup_s is not in s"):
        check_record(renamed)
    unknown = copy.deepcopy(record)
    unknown["runs"][0]["workload"] = "train-corpus1k"
    with pytest.raises(ValueError, match="not in BENCHMARK.json"):
        check_record(unknown)
