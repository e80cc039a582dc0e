"""Benchmark of the PipeLLM simulator: simulated-serving and host-time metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offload --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One run is one process on one thread. It imports the simulator from
``src/``, builds the workload's inputs from ``--seed``, and then:

* ``--trace 0`` (timed run, no wrappers installed). Set-up is timed
  three times, each from cold: the process memo caches (DH keypairs and
  shared secrets, GCM contexts) are emptied, the machines or fleet are
  built, the inputs are generated and one pass runs. ``setup_s`` is
  the import time plus the median of those three, so it carries the
  cold-cache cost. Warm passes then repeat for ``--seconds`` (at least
  two); ``host_wall_s`` is the median host time of the simulation in
  one warm pass, build and input generation excluded. Both are given
  at the reference speed of :mod:`reference`, which samples the host's
  speed all through every timed phase; the report lines also give them
  as measured (``host_wall_raw_s``, ``setup_raw_s``) and the host's
  median speed against the reference (``host_speed``).
* ``--trace 1`` (traced run). After one cold pass, untraced and traced
  warm passes alternate for ``--seconds``. The traced ones run with the
  wrappers of :mod:`trace` installed; the run reports the per-layer
  metrics (means per traced pass) and ``bench.trace_overhead_s``, the
  median traced minus the median untraced pass time. The span record
  of the last traced pass is written to ``.perfbench/``.

Every pass is checked: no authentication failures, a closed request
ledger, no IV reuse (the audits raise), an identical ``tp`` checksum
under all three systems, and simulated metrics identical across all
passes of the run. A failed check exits with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give every metric with its unit and sample count, and the
environment stamp (AES-GCM backend, fast-path profile, Python version,
CPU count). ``--out FILE`` also saves the full record for
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from reference import PROBE_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Cold starts timed for ``setup_s``; least warm passes for ``host_wall_s``.
SETUP_ROUNDS = 3
MIN_PASSES = 2

#: Unit of every end-to-end and simulated metric the report prints.
E2E_UNITS = {
    "host_wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "host_wall_raw_s": "s",
    "setup_raw_s": "s",
    "host_speed": "ratio",
    "sim_norm_latency_s": "s/tok",
    "sim_throughput_tok_s": "tok/s",
    "sim_overhead_vs_nocc": "ratio",
    "sim_ttft_p50_s": "s",
    "sim_ttft_p90_s": "s",
    "sim_tpot_p90_s": "s",
    "goodput_rps": "req/s",
    "max_slo_rate_rps": "req/s",
    "failed_frac": "ratio",
}


def _load_repro():
    """Import the simulator from the checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"perfbench: no simulator source under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: F401  (imports every layer the workloads use)


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> Dict[str, object]:
    from repro import fastpath
    from repro.crypto.backend import resolve_backend

    return {
        "aes_gcm_backend": resolve_backend(None),
        "fastpath_profile": fastpath.config().name,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def clear_memo_caches() -> None:
    """Empty the process-wide memo caches so the next pass runs cold."""
    from repro.crypto import backend, handshake

    for module, names in ((handshake, ("_keypair_cache", "_secret_cache")),
                          (backend, ("_gcm_cache",))):
        for name in names:
            cache = getattr(module, name, None)
            if cache is not None:
                cache.clear()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Passes of one workload in this process, with their checks."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.passes: List = []

    def one(self, timed_setup: bool = False, tracer=None, probe=None):
        """Build and run one pass; returns (pass, host seconds).

        The seconds cover the simulation only, or with ``timed_setup``
        also the build and input generation; ``probe`` gauges the
        host's speed over the same span.
        """
        gc.collect()  # garbage of earlier passes is not this pass's cost
        start = time.perf_counter()
        if probe is not None:
            probe.start()
        run = self.workload.prepare(self.seed)
        if not timed_setup:
            if probe is not None:
                probe.start()
            start = time.perf_counter()
        if tracer is None:
            result = run()
        else:
            import layertrace as trace

            uninstall = trace.install(tracer)
            try:
                tracer.enter("bench")
                try:
                    result = run()
                finally:
                    tracer.exit()
            finally:
                uninstall()
        if probe is not None:
            probe.stop()
        elapsed = time.perf_counter() - start
        self.passes.append(result)
        return result, elapsed

    def gates(self) -> List[str]:
        failed = list(self.passes[0].gates)
        first = self.passes[0].sim
        for index, other in enumerate(self.passes[1:], start=2):
            if other.sim != first:
                moved = sorted(k for k in set(first) | set(other.sim)
                               if first.get(k) != other.sim.get(k))
                failed.append(f"pass {index}: simulated metrics differ from pass 1: {moved}")
            failed.extend(g for g in other.gates if g not in failed)
        return failed


def run_timed(workload, seed: int, seconds: float, probe: SpeedProbe,
              import_s: Tuple[float, float] = (0.0, 0.0)) -> dict:
    """Cold set-ups, then warm passes for ``seconds``.

    ``import_s`` is the (measured, scaled) time the simulator took to
    import; every phase is timed as measured and at the probe's
    reference speed.
    """
    bench = Run(workload, seed)
    setups, walls = [], []
    for _ in range(SETUP_ROUNDS):
        clear_memo_caches()
        elapsed = bench.one(timed_setup=True, probe=probe)[1]
        setups.append((elapsed, probe.scaled(elapsed)))
    began = time.perf_counter()
    speeds = []
    while len(walls) < MIN_PASSES or time.perf_counter() - began < seconds:
        elapsed = bench.one(probe=probe)[1]
        walls.append((elapsed, probe.scaled(elapsed)))
        speeds.extend(PROBE_S / s for s in probe.samples)

    def median(phases, which: int) -> float:
        return statistics.median(phase[which] for phase in phases)

    return {
        "bench": bench,
        "host": {
            "host_wall_s": median(walls, 1),
            "setup_s": import_s[1] + median(setups, 1),
            "peak_rss_mb": peak_rss_mb(),
            "host_wall_raw_s": median(walls, 0),
            "setup_raw_s": import_s[0] + median(setups, 0),
            "host_speed": statistics.median(speeds),
        },
        "host_samples": {"host_wall_s": len(walls), "setup_s": len(setups),
                         "peak_rss_mb": 1, "host_wall_raw_s": len(walls),
                         "setup_raw_s": len(setups), "host_speed": len(speeds)},
        "detail": {"import_s": import_s, "setup_rounds_s": setups, "walls_s": walls},
    }


def run_traced(workload, seed: int, seconds: float, out_dir: Path) -> dict:
    import layertrace as trace

    bench = Run(workload, seed)
    cal = trace.calibrate()
    bench.one()  # cold pass: fills the memo caches
    plain, traced, tracers = [], [], []
    began = time.perf_counter()
    while not traced or time.perf_counter() - began < seconds:
        plain.append(bench.one()[1])
        tracer = trace.Tracer()
        traced.append(bench.one(tracer=tracer)[1])
        if tracers:
            tracers[-1].spans = []  # keep the span record of the last pass only
        tracers.append(tracer)
    tracers[-1].write(out_dir / f"trace-{workload.name}-seed{seed}.tsv")
    untraced = statistics.median(plain)
    self_s = _mean_dicts([
        t.self_times(cal, overhead=wall - untraced)
        for t, wall in zip(tracers, traced)
    ])
    layers = per_layer(tracers, self_s, untraced, bench.passes[-1].sim)
    layers["bench.trace_overhead_s"] = statistics.median(traced) - untraced
    return {
        "bench": bench,
        "layers": layers,
        "detail": {
            "untraced_s": plain, "traced_s": traced,
            "calibration": cal.as_dict(),
            "overhead_estimate_s": statistics.mean(
                t.overhead_estimate(cal) for t in tracers),
            "self_s": self_s,
        },
    }


def _mean_dicts(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    keys = sorted(set().union(*dicts))
    return {k: sum(d.get(k, 0.0) for d in dicts) / len(dicts) for k in keys}


def per_layer(tracers, self_s: Dict[str, float], untraced_wall: float,
              sim: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics, as means over the traced passes."""
    calls = _mean_dicts([dict(t.calls) for t in tracers])
    counts = _mean_dicts([dict(t.counts) for t in tracers])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    events = counts.get("sim.events", 0.0)
    out = {
        "sim.events": events,
        "sim.self_s": self_s.get("sim", 0.0),
        "sim.events_per_s": ratio(events, untraced_wall),
        "core.predictor.calls": calls.get("core.predictor", 0.0),
        "core.predictor.self_s": self_s.get("core.predictor", 0.0),
        "core.validator.hit_ratio": ratio(counts.get("core.validator.hits", 0.0),
                                          calls.get("core.validator", 0.0)),
        "core.staged": counts.get("core.staged", 0.0),
        "core.invalidated": counts.get("core.staged", 0.0) - counts.get("core.committed", 0.0),
        "crypto.aead.calls": calls.get("crypto.aead", 0.0),
        "crypto.aead.bytes": counts.get("crypto.aead.bytes", 0.0),
        "crypto.aead.self_s": self_s.get("crypto.aead", 0.0),
        "crypto.handshake.calls": calls.get("crypto.handshake", 0.0),
        "crypto.handshake.self_s": self_s.get("crypto.handshake", 0.0),
        "hw.pcie.transfers": calls.get("hw.pcie", 0.0),
        "hw.pcie.bytes": counts.get("hw.pcie.bytes", 0.0),
        "hw.dma.self_s": self_s.get("hw.dma", 0.0),
        "hw.interconnect.hops": calls.get("hw.interconnect", 0.0),
        "hw.interconnect.self_s": self_s.get("hw.interconnect", 0.0),
        "parallel.collective.self_s": self_s.get("parallel.collective", 0.0),
        "parallel.link_spec.lookups": calls.get("parallel.link_spec", 0.0),
        "parallel.link_spec.hit_ratio": ratio(counts.get("parallel.link_spec.hits", 0.0),
                                              calls.get("parallel.link_spec", 0.0)),
        "disagg.migrate.calls": calls.get("disagg.migrate", 0.0),
        "disagg.migrate.self_s": self_s.get("disagg.migrate", 0.0),
        "disagg.spec.lookups": calls.get("disagg.spec", 0.0),
        "disagg.spec.self_s": self_s.get("disagg.spec", 0.0),
        "disagg.spec.hit_ratio": ratio(counts.get("disagg.spec.hits", 0.0),
                                       calls.get("disagg.spec", 0.0)),
        "disagg.resends": sim.get("disagg_resends", 0.0),
        "disagg.s_per_chunk": sim.get("disagg_s_per_chunk", 0.0),
        "cluster.gateway.submits": calls.get("cluster.gateway", 0.0),
        "cluster.gateway.self_s": self_s.get("cluster.gateway", 0.0),
        "cluster.route.calls": calls.get("cluster.route", 0.0),
        "serve.frontend.tokens": counts.get("serve.frontend.tokens", 0.0),
        "serve.frontend.self_s": self_s.get("serve.frontend", 0.0),
        "serve.admission.admit": counts.get("serve.admission.admit", 0.0),
        "serve.admission.hold": counts.get("serve.admission.hold", 0.0),
        "serve.admission.shed": counts.get("serve.admission.shed", 0.0),
        "serving.swap_outs": sim.get("serving_swap_outs", 0.0),
        "tracing.spans": counts.get("tracing.spans", 0.0),
        "tracing.self_s": self_s.get("tracing", 0.0),
        "telemetry.events": calls.get("telemetry", 0.0),
        "telemetry.self_s": self_s.get("telemetry", 0.0),
    }
    for name, seconds in self_s.items():
        if name.endswith(".proc") or name == "bench":
            out[f"{name}.self_s"] = seconds
    return out


def _print_metric(name: str, value: float, unit: str, samples: Optional[int]) -> None:
    count = "" if samples is None else f"  n={samples}"
    print(f"  {name:<32} {value:>16.6g} {unit}{count}")


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 out: Optional[Path], probe: Optional[SpeedProbe] = None,
                 import_s: Tuple[float, float] = (0.0, 0.0)) -> int:
    from workloads import WORKLOADS

    spec = _benchmark_spec()
    workload = WORKLOADS[name]
    env = environment()
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(traced)}")
    print("  environment " + json.dumps(env, sort_keys=True))
    if traced:
        record = run_traced(workload, seed, seconds, ROOT / ".perfbench")
    else:
        record = run_timed(workload, seed, seconds, probe or SpeedProbe(), import_s)
    bench = record.pop("bench")
    gates = bench.gates()
    last = bench.passes[-1]
    failed = last.errors + len(gates)
    failed_frac = (last.refused + failed) / last.attempted

    if traced:
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {k: {"value": record["layers"].get(k, 0.0),
                       "unit": _unit(spec, k)} for k in wanted}
        print("  per-layer (means per traced pass):")
        for key, value in sorted(record["layers"].items()):
            _print_metric(key, value, _unit(spec, key), None)
    else:
        values = dict(record["host"], **last.sim, failed_frac=failed_frac)
        samples = dict(record["host_samples"], **last.samples, failed_frac=last.attempted)
        print("  end-to-end:")
        for key, unit in E2E_UNITS.items():
            if key in values:
                _print_metric(key, values[key], unit, samples.get(key))
        print("  simulated detail:")
        for key in sorted(last.sim):
            if key not in E2E_UNITS:
                _print_metric(key, last.sim[key], "", last.samples.get(key))
        wanted = [m["name"] for m in spec["end_to_end"]]
        metrics = {k: {"value": values[k], "unit": _unit(spec, k)} for k in wanted}
    for gate in gates:
        print(f"  GATE FAILED: {gate}")
    result = {"correct": not gates, "attempted": last.attempted,
              "failed": failed, "metrics": metrics}
    if out is not None:
        full = dict(result, workload=name, seed=seed, seconds=seconds,
                    trace=int(traced), environment=env, sim=last.sim,
                    refused=last.refused, **record)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if not gates else 1


def _unit(spec: dict, name: str) -> str:
    for group in ("end_to_end", "per_layer"):
        for metric in spec[group]:
            if metric["name"] == name:
                return metric["unit"]
    return E2E_UNITS.get(name, "s" if name.endswith("_s") else "count")


def run_all(args) -> int:
    """Every workload, each in its own process; non-zero if any fails."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out is not None:
            cmd += ["--out", str(args.out.parent / f"{args.out.stem}-{name}.json")]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None, probe: Optional[SpeedProbe] = None,
         import_s: Tuple[float, float] = (0.0, 0.0)) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        help="offload, serve, disagg, tp or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full record to this JSON file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.out, probe, import_s)


if __name__ == "__main__":
    _probe = SpeedProbe()
    _began = time.perf_counter()
    _probe.start()
    _load_repro()
    _probe.stop()
    _imported = time.perf_counter() - _began
    sys.exit(main(probe=_probe, import_s=(_imported, _probe.scaled(_imported))))
