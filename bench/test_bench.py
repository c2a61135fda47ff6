"""Tests of the benchmark's own machinery; run from the checkout root with

    python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import sys
import time
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.load_package()

from aprid import baselines, harness, kernels, problems, schedules, solvers  # noqa: E402
from aprid.config import resolve_config  # noqa: E402

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import NPC_SYNTHETIC, WORKLOADS, Experiment, Workload  # noqa: E402


def test_tracing_restores_every_wrapped_name():
    owners = (harness, solvers, baselines, kernels.BoxSet, schedules.ErgodicAverager,
              schedules.StepSchedule, problems.FrozenQcqpProblem, *layers.PROBLEM_CLASSES)
    before = [dict(vars(owner)) for owner in owners]
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            layers.install_layer_spans(tracer)
            wrapped = tracer.unrestored()
            raise RuntimeError("traced run interrupted")
    assert len(wrapped) > 20
    assert tracer.unrestored() == []
    for owner, snapshot in zip(owners, before):
        now = vars(owner)
        assert set(now) == set(snapshot)
        assert all(now[key] is value for key, value in snapshot.items())


def test_diverging_cell_is_counted_as_failed(tmp_path):
    exp = Experiment("npc_synthetic/aprid", NPC_SYNTHETIC,
                     {"name": "aprid", "divergence_cap": "1e-9"},
                     {"horizon": "200", "checkpoints": "5", "reference": "exact"},
                     {"obj_err": 1.0})
    cfgs = [resolve_config(exp.raw_config(seed=3))]
    rep = run.run_rep(Workload("forced divergence", (exp,)), cfgs, str(tmp_path),
                      Tracer(), layers.install_setup_spans)
    assert len(rep.cells) == 1
    assert any("diverged" in msg for msg in rep.cells[0].failures)


def test_self_time_excludes_child_spans():
    ns = SimpleNamespace()
    ns.inner = lambda: time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        ns.inner()

    ns.outer = outer
    with Tracer() as tracer:
        tracer.wrap(ns, "outer", "a.outer")
        tracer.wrap(ns, "inner", "b.inner")
        ns.outer()
    table = tracer.table()
    assert table.calls("a.outer") == table.calls("b.inner") == 1
    assert table.total_s("a.outer") == pytest.approx(
        table.self_s("a.outer") + table.total_s("b.inner"))
    assert 0.01 <= table.self_s("a.outer") < table.total_s("b.inner")


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
