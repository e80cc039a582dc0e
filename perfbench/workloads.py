"""The four benchmark workloads, driven through the public APIs only.

Each workload is split in two so set-up and the measured phase can be
timed apart: ``prepare(seed)`` builds the machines or fleet and
generates the inputs, and returns a zero-argument callable that runs
the simulation and returns a :class:`Pass`. A prepared pass runs once;
build a fresh one for every pass.

* ``offload`` -- FlexGen OPT-66B weight offloading, one closed-loop
  batch of 48 requests (32-token prompts, 8 output tokens) under
  w/o CC, CC and PipeLLM (8 enc / 2 dec threads).
* ``serve`` -- open-loop Poisson ShareGPT-serve arrivals on two
  PipeLLM replicas (least-loaded routing, SLO admission, the KV squeeze
  of the serving frontier) at fixed rates of 8, 12 and 16 req/s.
* ``disagg`` -- three fleets of one prefill and three decode PipeLLM
  workers, each on its own draw of the cluster trace at 12 req/s, with
  encrypted KV migration under speculation.
* ``tp`` -- two-GPU tensor-parallel OPT-30B decode, batch 64, under
  w/o CC, CC and PipeLLM over encrypted host-bounce hops.

Open-loop workloads offer a fixed amount of work, so that host time
does not swing with what a seed happens to draw: ``serve`` the first
``rate x window`` arrivals at each rate, ``disagg`` arrivals until
their prompt tokens (hence KV bytes to migrate) reach a budget, on
fixed traces (see ``DISAGG_TRAFFIC_SEEDS``). Every simulated quantity
is a pure function of (workload, seed); the closed-loop workloads have
fixed-shape inputs, and the seed reaches only the FlexGen payload
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.experiments import OFFLOAD_DEC_THREADS, OFFLOAD_ENC_THREADS
from repro.bench.serve import SERVE_MAX_OUTSTANDING, SERVE_RESERVE_BYTES
from repro.bench.systems import CC, WITHOUT_CC, pipellm
from repro.cc.machine import CcMode, build_machine
from repro.cluster import CLUSTER_TRACE, Cluster, ClusterIvAudit
from repro.core import ClusterConfig, DisaggConfig
from repro.disagg import DisaggCluster
from repro.models import OPT_13B, OPT_30B, OPT_66B
from repro.parallel import LinkSpeculator, TensorParallelEngine
from repro.serve import LoadSpec, ServeFrontend, SloSpec, generate_load
from repro.serving.flexgen import FlexGenConfig, FlexGenEngine
from repro.sim import percentile, set_default_seed
from repro.tracing import TraceCollector, collecting
from repro.workloads import SHAREGPT_SERVE, SyntheticShape

__all__ = ["Pass", "WORKLOADS", "Workload"]


@dataclass
class Pass:
    """What one pass of a workload simulated.

    ``sim`` holds simulated metrics only (deterministic under the
    seed); ``samples`` gives the sample count behind each of them.
    ``refused`` counts requests shed by admission control, ``errors``
    counts requests lost, unfinished or failing authentication, and
    ``gates`` names every correctness check that failed.
    """

    sim: Dict[str, float]
    samples: Dict[str, int]
    attempted: int
    refused: int = 0
    errors: int = 0
    gates: List[str] = field(default_factory=list)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.gates.append(message)


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> a built, ready-to-run pass (see the module docstring).
    prepare: Callable[[int], Callable[[], Pass]]


def _first_arrivals(requests: list, budget: float, size, arrival) -> list:
    """The earliest requests whose summed ``size`` first reaches
    ``budget`` (the generator over-samples)."""
    out, total = [], 0.0
    for request in sorted(requests, key=arrival):
        if total >= budget:
            return out
        out.append(request)
        total += size(request)
    raise ValueError(f"generated {total:g} of a {budget:g} work budget")


# -- offload -------------------------------------------------------------

OFFLOAD_BATCH = 48
OFFLOAD_SHAPE = SyntheticShape(32, 8)
OFFLOAD_SYSTEMS = (
    WITHOUT_CC, CC, pipellm(OFFLOAD_ENC_THREADS, OFFLOAD_DEC_THREADS),
)


def prepare_offload(seed: int) -> Callable[[], Pass]:
    engines = []
    for system in OFFLOAD_SYSTEMS:
        machine, runtime = system.build()
        config = FlexGenConfig(
            OPT_66B, OFFLOAD_SHAPE, batch_size=OFFLOAD_BATCH,
            n_requests=OFFLOAD_BATCH, seed=seed,
        )
        engines.append((system.name, machine, FlexGenEngine(machine, runtime, config)))

    def run() -> Pass:
        tput = {}
        out = Pass(sim={}, samples={}, attempted=OFFLOAD_BATCH * len(engines))
        for name, machine, engine in engines:
            result = engine.run()
            tput[name] = result.throughput
            elapsed = result.elapsed  # the PipeLLM run is last
            out.errors += machine.gpu.auth_failures
            out.check(machine.gpu.auth_failures == 0,
                      f"offload {name}: {machine.gpu.auth_failures} auth failures")
            out.check(result.generated_tokens == OFFLOAD_BATCH * OFFLOAD_SHAPE.output_len,
                      f"offload {name}: generated {result.generated_tokens} tokens")
        out.sim = {
            "sim_norm_latency_s": elapsed / OFFLOAD_SHAPE.output_len,
            "sim_throughput_tok_s": tput["PipeLLM"],
            "sim_overhead_vs_nocc": 1.0 - tput["PipeLLM"] / tput["w/o CC"],
            "sim_cc_throughput_tok_s": tput["CC"],
            "sim_nocc_throughput_tok_s": tput["w/o CC"],
        }
        out.samples = dict.fromkeys(out.sim, OFFLOAD_BATCH)
        return out

    return run


# -- tp ------------------------------------------------------------------

TP_GPUS = 2
TP_BATCH = 64
TP_OUTPUT_TOKENS = 3
TP_LINK_THREADS = 8
TP_SYSTEMS = ("w/o CC", "CC", "PipeLLM")


def _tp_machine(system: str):
    """One two-GPU machine with an IV audit (and, for PipeLLM, the link
    speculator) on its interconnect."""
    if system == "w/o CC":
        machine = build_machine(CcMode.DISABLED, n_gpus=TP_GPUS)
    elif system == "CC":
        machine = build_machine(CcMode.ENABLED, n_gpus=TP_GPUS)
    else:
        machine = build_machine(
            CcMode.ENABLED, n_gpus=TP_GPUS,
            enc_threads=TP_LINK_THREADS, dec_threads=TP_LINK_THREADS,
        )
    audit = ClusterIvAudit()
    machine.interconnect.attach_audit(audit)
    if system == "PipeLLM":
        machine.interconnect.attach_speculator(
            LinkSpeculator(lambda: machine.sim.now, faults=machine.faults)
        )
    return machine, audit


def prepare_tp(seed: int) -> Callable[[], Pass]:
    del seed  # fixed-shape decode: the collective schedule has no random input
    built = []
    for system in TP_SYSTEMS:
        machine, audit = _tp_machine(system)
        engine = TensorParallelEngine(machine, OPT_30B, batch=TP_BATCH, label=system)
        built.append((system, machine, audit, engine))

    def run() -> Pass:
        results = {}
        out = Pass(sim={}, samples={}, attempted=TP_BATCH * len(built))
        for system, machine, audit, engine in built:
            result = engine.run(output_tokens=TP_OUTPUT_TOKENS)
            results[system] = result
            failures = sum(gpu.auth_failures for gpu in machine.gpus)
            out.errors += failures
            out.check(failures == 0, f"tp {system}: {failures} auth failures")
            if system != "w/o CC":
                out.check(audit.observed > 0, f"tp {system}: IV audit saw no traffic")
        nocc, pipe = results["w/o CC"], results["PipeLLM"]
        checksums = {r.checksum for r in results.values()}
        out.check(len(checksums) == 1, f"tp checksums differ across systems: {checksums}")
        out.sim = {
            "sim_norm_latency_s": pipe.elapsed_s / TP_OUTPUT_TOKENS,
            "sim_throughput_tok_s": pipe.throughput,
            "sim_overhead_vs_nocc": 1.0 - pipe.throughput / nocc.throughput,
            "sim_cc_throughput_tok_s": results["CC"].throughput,
            "sim_nocc_throughput_tok_s": nocc.throughput,
            "sim_link_hit_rate": pipe.spec_hit_rate,
            "sim_checksum_prefix": int(pipe.checksum[:12], 16),
        }
        out.samples = dict.fromkeys(out.sim, TP_BATCH)
        return out

    return run


# -- serve ---------------------------------------------------------------

SERVE_RATES: Tuple[float, ...] = (8.0, 12.0, 16.0)
SERVE_WINDOW_S = 20.0
SERVE_REPORT_RATE = 12.0
#: Share of offered requests that must meet both SLO budgets for a
#: rate to count as sustained.
SERVE_ATTAINMENT_FLOOR = 0.9


def _serve_config() -> ClusterConfig:
    return ClusterConfig(
        replicas=2, system="pipellm", policy="least-loaded",
        reserve_bytes=SERVE_RESERVE_BYTES,
        max_outstanding=SERVE_MAX_OUTSTANDING,
    )


def prepare_serve(
    seed: int,
    rates: Sequence[float] = SERVE_RATES,
    window: float = SERVE_WINDOW_S,
    fixed_count: bool = True,
    report_rate: float = SERVE_REPORT_RATE,
) -> Callable[[], Pass]:
    """Build one fleet + front end per rate, with its arrivals.

    With ``fixed_count`` the first ``rate x window`` arrivals are
    offered (host time follows the request count more than the token
    count); without it, every arrival inside the window (the shape the
    BENCH artifacts were recorded with).
    """
    set_default_seed(seed)
    slo = SloSpec()
    runs = []
    for rate in rates:
        span = window * 1.5 if fixed_count else window
        requests = generate_load(
            LoadSpec(trace=SHAREGPT_SERVE, rate=rate, duration=span), seed=seed
        )
        if fixed_count:
            requests = _first_arrivals(
                requests, rate * window,
                lambda r: 1, lambda r: (r.arrival_time, r.request_id),
            )
        cluster = Cluster(_serve_config(), spec=OPT_13B)
        frontend = ServeFrontend(cluster, slo=slo, admission="slo")
        runs.append((rate, cluster, frontend, requests))

    def run() -> Pass:
        out = Pass(sim={}, samples={}, attempted=sum(len(r[3]) for r in runs))
        attainment: Dict[float, float] = {}
        sustained = 0.0
        for rate, cluster, frontend, requests in runs:
            with collecting(TraceCollector()):
                result = frontend.run(requests, duration=window)
            lost = result.offered - result.completed - result.shed
            out.errors += lost + result.auth_failures
            out.refused += result.shed
            out.check(result.offered == len(requests),
                      f"serve {rate}: offered {result.offered} of {len(requests)}")
            out.check(lost == 0, f"serve {rate}: ledger open, {lost} unresolved")
            out.check(result.auth_failures == 0,
                      f"serve {rate}: {result.auth_failures} auth failures")
            audit_ok = cluster.audit.observed > 0
            out.check(audit_ok, f"serve {rate}: tenant IV audit saw no traffic")
            attainment[rate] = result.attained / result.offered
            if attainment[rate] >= SERVE_ATTAINMENT_FLOOR:
                sustained = max(sustained, rate)
            out.sim[f"sim_attainment@{rate:g}"] = attainment[rate]
            out.samples[f"sim_attainment@{rate:g}"] = result.offered
            out.sim[f"sim_swap_outs@{rate:g}"] = result.swap_outs
            out.samples[f"sim_swap_outs@{rate:g}"] = result.completed
            if rate != report_rate:
                continue
            ok = [r for r in result.responses if r.ok]
            tokens = sum(r.usage.completion_tokens for r in ok)
            span = max(r.finish_time for r in ok) - min(r.arrival_time for r in requests)
            out.sim.update({
                "sim_norm_latency_s": percentile(
                    [r.latency / r.usage.completion_tokens for r in ok], 50),
                "sim_throughput_tok_s": tokens / span,
                "sim_ttft_p50_s": percentile(result.ttfts, 50),
                "sim_ttft_p90_s": percentile(result.ttfts, 90),
                "sim_ttft_p99_s": percentile(result.ttfts, 99),
                "sim_tpot_p90_s": percentile(result.tpots, 90),
                "goodput_rps": result.goodput,
            })
            for key in ("sim_norm_latency_s", "sim_throughput_tok_s", "sim_ttft_p50_s", "sim_ttft_p90_s",
                        "sim_ttft_p99_s", "goodput_rps"):
                out.samples[key] = len(result.ttfts)
            out.samples["sim_tpot_p90_s"] = len(result.tpots)
        out.sim["max_slo_rate_rps"] = sustained
        out.samples["max_slo_rate_rps"] = len(runs)
        out.sim["serving_swap_outs"] = sum(
            v for k, v in out.sim.items() if k.startswith("sim_swap_outs@")
        )
        return out

    return run


# -- disagg --------------------------------------------------------------

DISAGG_RATE = 12.0
#: Requests a fleet offers on average: arrivals are taken until their
#: prompt tokens reach this many times the trace's mean prompt.
DISAGG_REQUESTS = 8
#: Arrival traces of the benchmark pass, one fleet each. The host time
#: of a fleet swings threefold with its trace (how predictable the
#: mixed-destination migration stream is), so the traces are fixed and
#: the run's seed reaches the fleets' keys, hence every ciphertext.
DISAGG_TRAFFIC_SEEDS: Tuple[int, ...] = (1, 2, 3)


def _disagg_config(seed: int) -> DisaggConfig:
    return DisaggConfig(prefill_workers=1, decode_workers=3, system="pipellm", seed=seed)


def _disagg_fleet(seed: int, traffic_seed: int, rate: float,
                  requests: Optional[int], duration: Optional[float]):
    """A 1p+3d fleet keyed by ``seed`` and its arrivals, drawn from
    ``traffic_seed``."""
    set_default_seed(traffic_seed)
    cluster = DisaggCluster(_disagg_config(traffic_seed))
    if requests is None:
        work = cluster.workload(rate, duration)
    else:
        work = _first_arrivals(
            cluster.workload(rate, 2.0 * requests / rate + 2.0),
            requests * CLUSTER_TRACE.mean_prompt,
            lambda c: c.request.prompt_len, lambda c: (c.submit_time, c.rid),
        )
    if traffic_seed != seed:
        set_default_seed(seed)
        cluster = DisaggCluster(_disagg_config(seed))
    return cluster, work


def prepare_disagg(
    seed: int,
    rate: float = DISAGG_RATE,
    requests: Optional[int] = DISAGG_REQUESTS,
    duration: Optional[float] = None,
    traffic_seeds: Optional[Sequence[int]] = None,
) -> Callable[[], Pass]:
    """Build one 1p+3d fleet per arrival trace.

    Each fleet offers arrivals at ``rate`` until their prompt tokens
    reach ``requests`` times the trace's mean prompt; with
    ``requests=None`` every arrival inside ``duration`` seconds. The
    traces come from ``traffic_seeds``, by default from ``seed`` alone.
    """
    fleets = [_disagg_fleet(seed, traffic, rate, requests, duration)
              for traffic in (traffic_seeds or (seed,))]
    outputs = {id(c): c.request.output_len * c.request.parallel_n
               for _, work in fleets for c in work}

    def run() -> Pass:
        out = Pass(sim={}, samples={}, attempted=sum(len(w) for _, w in fleets))
        results, done = [], []
        for index, (cluster, work) in enumerate(fleets):
            result = cluster.run(work)
            results.append(result)
            done.extend(cluster.scheduler.completed)
            failures = sum(w.machine.gpu.auth_failures for w in cluster.workers
                           if w.machine is not None)
            lost = result.offered - result.completed - result.shed
            out.errors += lost + failures
            out.refused += result.shed
            name = f"disagg fleet {index}"
            out.check(result.unfinished == 0, f"{name}: {result.unfinished} unfinished")
            out.check(lost == 0, f"{name}: ledger open, {lost} unresolved")
            out.check(failures == 0, f"{name}: {failures} auth failures")
            out.check(result.iv_observed > 0, f"{name}: IV audit saw no migration traffic")
            out.check(cluster.audit.observed == result.iv_observed,
                      f"{name}: audit saw {cluster.audit.observed} IVs, "
                      f"run reports {result.iv_observed}")
        ttfts = [t for r in results for t in r.ttfts]
        duration_s = sum(r.duration for r in results)
        chunks = sum(r.migration_chunks for r in results)

        def per_chunk(field: str) -> float:
            return sum(getattr(r, field) * r.migration_chunks for r in results) / chunks

        out.sim = {
            "sim_norm_latency_s": percentile(
                [c.latency / outputs[id(c)] for c in done], 50),
            "sim_throughput_tok_s": sum(outputs[id(c)] for c in done) / duration_s,
            "sim_ttft_p50_s": percentile(ttfts, 50),
            "sim_ttft_p90_s": percentile(ttfts, 90),
            "sim_ttft_p99_s": percentile(ttfts, 99),
            "goodput_rps": sum(r.completed for r in results) / duration_s,
            "sim_migration_hit_rate": per_chunk("migration_hit_rate"),
            "disagg_resends": sum(r.migration_resends for r in results),
            "disagg_s_per_chunk": per_chunk("migration_s_per_chunk"),
            "sim_migration_chunks": chunks,
        }
        out.samples = dict.fromkeys(out.sim, len(ttfts))
        out.samples["disagg_s_per_chunk"] = chunks
        return out

    return run


#: Why each workload is in the benchmark: ``BENCHMARK.json``.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("offload", prepare_offload),
        Workload("serve", prepare_serve),
        Workload("disagg", lambda seed: prepare_disagg(
            seed, traffic_seeds=DISAGG_TRAFFIC_SEEDS)),
        Workload("tp", prepare_tp),
    )
}
