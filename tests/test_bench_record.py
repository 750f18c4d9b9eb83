"""The ledger script ``bench/record.py``: its summaries and its workload list."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "bench" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


record = load_record()


def run(**values):
    return {"metrics": {name: {"value": v, "unit": "s"}
                        for name, v in values.items()}}


def test_workloads_are_the_declared_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert record.WORKLOADS == tuple(w["name"] for w in declared["workloads"])


def test_spread_is_median_and_inclusive_quartiles():
    assert record.spread([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert record.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_wins_follow_the_metric_direction():
    baseline = [run(t=1.0), run(t=2.0), run(t=3.0)]
    change = [run(t=0.5), run(t=2.0), run(t=4.0)]
    assert record.wins(baseline, change, "t", "lower") == 1
    assert record.wins(baseline, change, "t", "higher") == 1
    assert record.summary(change, ["t"]) == {
        "t": {"median": 2.0, "q1": 1.25, "q3": 3.0}}


def test_layer_timings_are_the_declared_timed_metrics_under_a_note():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = {"metrics": {"poly.mul_s": {"value": 0.5, "unit": "s"},
                          "conformal.residual_ms_per_triple":
                              {"value": 2.0, "unit": "ms"},
                          "poly.mul_calls": {"value": 40, "unit": "count"},
                          "setup_s": {"value": 0.2, "unit": "s"}}}
    timings = record.layer_timings(traced, declared["per_layer"])
    # only per-layer metrics in s or ms: no count, no end-to-end metric
    assert timings["values"] == {"poly.mul_s": 0.5,
                                 "conformal.residual_ms_per_triple": 2.0}
    assert "no claim may rest" in timings["note"]
    assert record.layer_timings({"correct": False},
                                declared["per_layer"])["values"] == {}
