"""Smoke test of the benchmark: every workload once at its tiny size.

Each workload runs in process, untraced and then traced, and must check
its outputs, fail only its named kept failures, and print every metric
that BENCHMARK.json lists.  A few seconds in all.
"""

import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

# operations a tiny round fails, each through a named program fault
KEPT_FAILURES = {"exact-audit": 0, "mode-evolution": 0, "radiating-balance": 1, "readme-cli": 1}


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_checks_and_prints_every_metric(workload, tmp_path):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        args = bench.parse_args(
            ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"]
        )
        result = bench.run(args, record_dir=tmp_path)
        assert result["correct"], (workload, trace)
        assert result["attempted"] >= 1
        assert result["failed"] == KEPT_FAILURES[workload]
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[group]}
        values = {name: m["value"] for name, m in result["metrics"].items()}
        if trace == 0:
            assert all(v > 0 for v in values.values())
        elif workload == "radiating-balance":
            # neither the descriptor nor the exact kernels run on this workload
            assert values["exact_evolution.descriptor_eval.calls"] == 0
            assert values["polylib.lemma_check.calls"] == 0
            assert values["radial_solver.node_steps"] > 0
    records = [json.loads(p.read_text()) for p in tmp_path.glob("BENCH_*.json")]
    assert len(records) == 2
    for rec in records:
        assert rec["workload"] == workload and rec["seed"] == 3
        assert rec["machine"]["nproc"] >= 1 and rec["versions"]["numpy"]
        assert rec["failed"] == KEPT_FAILURES[workload]

