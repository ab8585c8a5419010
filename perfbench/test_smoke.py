"""Smoke test: every workload runs at the tiny size, passes its output checks,
and emits every metric BENCHMARK.json names, with its unit."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts src/ on the path)
from checks import CHECK_SEED  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric(name):
    # the seed of the output check: at the tiny size many seeds leave a one-class
    # test fold, which makes finetune raise (its split is not stratified)
    record = run.run_workload(WORKLOADS[name], seed=CHECK_SEED, seconds=0, trace=True,
                              size=tiny)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0
    for trace, declared in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
        line = run.result_line(record, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == \
            {m["name"]: m["unit"] for m in declared}
        json.dumps(line, allow_nan=False)
    end_to_end = run.result_line(record, 0)["metrics"]
    assert all(metric["value"] > 0 for metric in end_to_end.values())
