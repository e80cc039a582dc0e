"""The benchmark's drivers reproduce the committed BENCH_0 artifact.

At BENCH_0's standard sizes and seed 1, each driver must give the
artifact's key metric bit for bit, and the drivers must reach the
simulator through public names only.
"""

import ast
import json
from pathlib import Path

import pytest

import workloads

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def bench0():
    return json.loads((ROOT / "BENCH_0.json").read_text())["key_metrics"]


def test_offload_pipellm_throughput(bench0):
    run = workloads.prepare_offload(1)()
    assert run.sim["sim_throughput_tok_s"] == bench0["offload_pipellm_throughput_tok_s"]["value"]


def test_serve_pipellm_p99_ttft(bench0):
    run = workloads.prepare_serve(
        1, rates=(24.0,), window=5.0, fixed_count=False, report_rate=24.0
    )()
    assert run.sim["sim_ttft_p99_s"] == bench0["serve_pipellm_p99_ttft_s"]["value"]


def test_disagg_p50_ttft(bench0):
    run = workloads.prepare_disagg(1, rate=12.0, requests=None, duration=4.0)()
    assert run.sim["sim_ttft_p50_s"] == bench0["disagg_p50_ttft_s"]["value"]


def test_parallel_pipellm_throughput(bench0):
    run = workloads.prepare_tp(1)()
    assert run.sim["sim_throughput_tok_s"] == bench0["parallel_pipellm_tok_s"]["value"]
    assert not run.gates


def test_drivers_import_no_private_names():
    tree = ast.parse(Path(workloads.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, f"{node.module}: private names {private}"
            assert not any(part.startswith("_") for part in node.module.split(".")), node.module
