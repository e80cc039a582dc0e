"""The traced run puts host time in the layer that spends it.

A fixed busy-wait planted in ``SwapPredictor.predict`` must show up in
``core.predictor.self_s`` and in no other layer's self time beyond the
noise between two unplanted traced runs; the self times plus the
tracing overhead must account for the traced pass.
"""

import time

import pytest

import run
import workloads
from repro.core.predictor import SwapPredictor

DELAY_S = 1e-3


def small_disagg():
    return workloads.Workload(
        "disagg", lambda seed: workloads.prepare_disagg(seed, requests=12)
    )


def traced(tmp_path, workload=None):
    record = run.run_traced(workload or small_disagg(), 1, 0.0, tmp_path)
    assert not record["bench"].gates()
    return record


def self_times(record):
    return record["detail"]["self_s"]


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    return [traced(tmp) for _ in range(2)]


def test_self_times_account_for_traced_pass(baseline):
    # One untraced and one traced pass each: the overhead is that pair's
    # difference (noise can make it negative; then nothing is removed).
    for record in baseline:
        overhead = max(0.0, record["layers"]["bench.trace_overhead_s"])
        total = sum(self_times(record).values()) + overhead
        assert total == pytest.approx(record["detail"]["traced_s"][0], rel=0.02)


def test_predictor_dominates_disagg(baseline):
    for record in baseline:
        spent = self_times(record)
        assert max(spent, key=spent.get) == "core.predictor"


def test_predictor_is_minor_on_offload(tmp_path):
    workload = workloads.WORKLOADS["offload"]
    spent = self_times(traced(tmp_path, workload))
    assert spent["core.predictor"] < 0.25 * sum(spent.values())


def test_planted_delay_lands_in_predictor(baseline, tmp_path, monkeypatch):
    original = SwapPredictor.predict
    waits = []

    def slow_predict(self, *args, **kwargs):
        start = time.perf_counter()
        while time.perf_counter() - start < DELAY_S:
            pass
        waits.append(time.perf_counter() - start)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SwapPredictor, "predict", slow_predict)
    record = traced(tmp_path)
    planted = self_times(record)
    # Passes run cold, untraced, traced: the traced pass made the last
    # third of the calls.
    added = sum(waits[-len(waits) // 3:])
    base = [self_times(r) for r in baseline]
    assert added > 0.2

    moved = planted["core.predictor"] - base[0]["core.predictor"]
    assert moved == pytest.approx(added, rel=0.35)
    for name in set(planted) - {"core.predictor"}:
        noise = abs(base[0].get(name, 0.0) - base[1].get(name, 0.0))
        change = planted[name] - base[0].get(name, 0.0)
        assert change <= 3 * noise + 0.05 * added, (name, change, noise)
