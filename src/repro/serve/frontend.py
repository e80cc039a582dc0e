"""The online-serving front end over the confidential cluster.

:class:`ServeFrontend` is the request/response surface in front of
:class:`repro.cluster.Gateway`: it accepts OpenAI-style
:class:`~repro.serve.api.CompletionRequest` arrivals, runs them
through a pluggable admission policy (:mod:`repro.serve.admission`),
streams per-token progress off the gateway's listener hooks, and
folds every request into a :class:`~repro.serve.api.CompletionResponse`
plus the serving metrics production SLOs are written against:

* **TTFT** — arrival to first streamed token (recorded once per
  request, across failover restarts);
* **TPOT** — mean inter-token time after the first;
* **SLO attainment** — fraction of completions inside their tier's
  TTFT/TPOT budgets — and **goodput**, attained completions per
  second of offered-load window.

Streaming telemetry rides the shared span tracer on per-request
``serve.req-<id>`` lanes: one ``stream`` span brackets each delivery
attempt (closed on completion, shedding *or* failover restart, so a
replica crash never leaks an open span), with closed ``token`` spans
marking every inter-token gap. Typed :class:`ServeEvent`\\ s mirror the
same lifecycle on the event bus.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..cluster import Cluster
from ..cluster.replica import ClusterRequest
from ..sim import mean, percentile
from ..telemetry import ServeEvent, TelemetryHub, active_session
from ..tracing import active_collector
from ..workloads import Request
from .admission import SloSpec, make_admission
from .api import CompletionRequest, CompletionResponse, StreamChunk, Usage
from .load import LoadSpec, generate_load

__all__ = ["ServeFrontend", "ServeResult", "run_serve"]

#: A held request is re-examined this long after its deadline passes
#: (strictly after, so the ``>`` comparison in ``expire`` fires).
_DEADLINE_EPS = 1e-9


@dataclass
class _ServeRecord:
    """Front-end bookkeeping for one in-flight request."""

    request: CompletionRequest
    creq: ClusterRequest
    first_token_time: float = math.nan
    #: Last token's simulated time within the current attempt.
    last_token_time: float = math.nan
    #: Tokens streamed in the current delivery attempt (resets on
    #: failover — the replacement replica regenerates the stream).
    attempt_tokens: int = 0
    stream_open: bool = False
    done: bool = False
    chunks: List[StreamChunk] = field(default_factory=list)
    #: Root causal span of the request's trace (None when no
    #: collector is active); closed exactly once, at completion or
    #: shedding, so the DAG never dangles.
    trace_root: Optional[Any] = None
    #: Open admission-hold span (queueing time before release).
    trace_hold: Optional[Any] = None
    #: Span-tracer lane, ``serve.req-<id>`` (built once per record).
    lane: str = field(init=False)

    def __post_init__(self) -> None:
        self.lane = f"serve.req-{self.request.request_id}"


@dataclass
class ServeResult:
    """Everything one serving run measured."""

    admission: str
    system: str
    trace: str
    rate: float
    duration: float
    offered: int
    completed: int
    shed: int
    attained: int
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    ttfts: List[float] = field(default_factory=list)
    tpots: List[float] = field(default_factory=list)
    failovers: int = 0
    crashes: int = 0
    swap_outs: int = 0
    auth_failures: int = 0
    responses: List[CompletionResponse] = field(default_factory=list)

    @property
    def attainment(self) -> float:
        """Fraction of completed requests inside their SLO budgets."""
        return self.attained / self.completed if self.completed else 0.0

    @property
    def goodput(self) -> float:
        """SLO-attained completions per second of offered-load window."""
        return self.attained / self.duration if self.duration > 0 else 0.0

    @property
    def p50_ttft(self) -> float:
        return percentile(self.ttfts, 50)

    @property
    def p99_ttft(self) -> float:
        return percentile(self.ttfts, 99)

    @property
    def mean_tpot(self) -> float:
        return mean(self.tpots)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "admission": self.admission,
            "system": self.system,
            "trace": self.trace,
            "rate_rps": self.rate,
            "duration_s": self.duration,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "shed_by_reason": dict(self.shed_by_reason),
            "attained": self.attained,
            "attainment": self.attainment,
            "goodput_rps": self.goodput,
            "p50_ttft_s": self.p50_ttft,
            "p99_ttft_s": self.p99_ttft,
            "mean_tpot_s": self.mean_tpot,
            "failovers": self.failovers,
            "crashes": self.crashes,
            "swap_outs": self.swap_outs,
            "auth_failures": self.auth_failures,
        }


class ServeFrontend:
    """OpenAI-style request surface + admission over one cluster."""

    def __init__(
        self,
        cluster: Cluster,
        slo: Optional[SloSpec] = None,
        admission: str = "slo",
        hold_capacity: Optional[int] = None,
        alerts=None,
    ) -> None:
        self.cluster = cluster
        #: Optional :class:`repro.tracing.AlertEngine`; fed one
        #: pass/fail SLO sample per resolved request (completions
        #: report attainment, sheds always count as misses).
        self.alerts = alerts
        self.gateway = cluster.gateway
        self.sim = cluster.sim
        self.config = cluster.config
        self.slo = slo if slo is not None else SloSpec()
        budget = self.config.replicas * self.config.max_outstanding
        self.admission = make_admission(
            admission, self.slo, budget,
            hold_capacity=hold_capacity or self.config.queue_capacity,
        )
        self.gateway.listener = self

        # The serve lane shares the gateway's always-on MetricSet and
        # the simulator's span tracer, so serve.* counters show up in
        # bind_gateway scrapes and stream spans in Chrome exports.
        self.telemetry = TelemetryHub(
            sim=self.sim, metrics=self.gateway.metrics,
            tracer=self.sim.tracer, label="serve",
        )
        session = active_session()
        if session is not None:
            session.register(self.telemetry)
        if self.alerts is not None and self.alerts.hub is None:
            self.alerts.hub = self.telemetry

        self.records: Dict[int, _ServeRecord] = {}
        self.responses: List[CompletionResponse] = []
        self.offered = 0
        self._pumping = False

    # -- intake ----------------------------------------------------------

    def submit(self, request: CompletionRequest) -> None:
        """One arrival: consult admission, then gateway or shed."""
        self.offered += 1
        rec = _ServeRecord(request=request, creq=self._wrap(request))
        self.records[request.request_id] = rec
        collector = active_collector()
        if collector is not None:
            # Mint the request's trace at admission: the root span is
            # the end-to-end request, and the context rides the
            # ClusterRequest through gateway, replica and runtime.
            rec.trace_root = collector.start_trace(
                rec.lane, "request", "request",
                "serve", self.sim.now,
            )
            rec.creq.trace = rec.trace_root
        self._emit("arrive", rec)
        decision = self.admission.offer(request, self.sim.now)
        if decision == "admit":
            self._emit("admit", rec)
            self.gateway.submit(rec.creq)
        elif decision == "hold":
            self._emit("hold", rec)
            if rec.trace_root is not None:
                rec.trace_hold = collector.begin(
                    rec.trace_root, "hold", "hold", "serve", self.sim.now
                )
            self.sim.process(self._deadline_watch(rec))
            self._pump()
        else:
            self._shed_local(rec, decision.split(":", 1)[1])
        self._record_held()

    def _wrap(self, request: CompletionRequest) -> ClusterRequest:
        payload = hashlib.sha256(
            f"{request.tenant}:cmpl{request.request_id}".encode()
        ).digest()[:16]
        return ClusterRequest(
            rid=request.request_id,
            tenant=request.tenant,
            request=Request(
                request_id=request.request_id,
                arrival_time=request.arrival_time,
                prompt_len=request.prompt_tokens,
                output_len=request.max_tokens,
            ),
            submit_time=self.sim.now,
            payload=payload,
        )

    def _deadline_watch(self, rec: _ServeRecord):
        deadline = rec.request.arrival_time + self.slo.deadline(rec.request.tier)
        delay = deadline - self.sim.now + _DEADLINE_EPS
        if delay > 0:
            yield self.sim.timeout(delay)
        if not rec.done:
            self._pump()

    def _pump(self) -> None:
        """Drain the admission policy: shed expired holds, release the
        rest while the fleet budget has room. Re-entrant calls (a
        release that sheds synchronously at the gateway) fold into the
        outer loop."""
        if self._pumping:
            return
        self._pumping = True
        try:
            while True:
                progressed = False
                for request, reason in self.admission.expire(self.sim.now):
                    rec = self.records[request.request_id]
                    if not rec.done:
                        self._shed_local(rec, reason)
                    progressed = True
                for request in self.admission.release(self.sim.now):
                    rec = self.records[request.request_id]
                    if rec.done:
                        self.admission.on_done(request)
                        continue
                    self._emit("admit", rec)
                    self._trace_close(rec.trace_hold)
                    rec.trace_hold = None
                    self.gateway.submit(rec.creq)
                    progressed = True
                if not progressed:
                    break
        finally:
            self._pumping = False
        self._record_held()

    def _trace_close(self, ctx, status: str = "ok") -> None:
        """Close one causal span at the current simulated time."""
        if ctx is None:
            return
        collector = active_collector()
        if collector is not None:
            collector.end(ctx, self.sim.now, status=status)

    # -- gateway listener hooks ------------------------------------------

    def on_token(self, creq: ClusterRequest, replica, index: int) -> None:
        rec = self.records.get(creq.rid)
        if rec is None or rec.done:
            return
        now = self.sim.now
        tracer = self.telemetry.tracer
        if math.isnan(rec.first_token_time):
            rec.first_token_time = now
            self.gateway.metrics.latency("serve.ttft_s").record(
                max(0.0, now - rec.request.arrival_time)
            )
        if rec.attempt_tokens == 0:
            tracer.begin(rec.lane, "stream", now)
            rec.stream_open = True
            self._emit("first-token", rec, token_index=index)
        else:
            tracer.record(rec.lane, "token", rec.last_token_time, now)
            self._emit("token", rec, token_index=index)
        rec.attempt_tokens = index
        rec.last_token_time = now
        if rec.request.stream:
            rec.chunks.append(StreamChunk(creq.rid, index, now))

    def on_requeue(self, creq: ClusterRequest) -> None:
        """Failover (or kv-budget reroute): the stream restarts."""
        rec = self.records.get(creq.rid)
        if rec is None or rec.done:
            return
        if rec.stream_open:
            self.telemetry.tracer.end(rec.lane, "stream", self.sim.now)
            rec.stream_open = False
            self._emit("restart", rec, detail=f"tokens={rec.attempt_tokens}")
        rec.attempt_tokens = 0
        rec.last_token_time = math.nan

    def on_complete(self, creq: ClusterRequest) -> None:
        rec = self.records.get(creq.rid)
        if rec is None or rec.done:
            return
        now = self.sim.now
        rec.done = True
        if rec.stream_open:
            self.telemetry.tracer.end(rec.lane, "stream", now)
            rec.stream_open = False
        tokens = creq.request.output_len
        ttft = rec.first_token_time - rec.request.arrival_time
        tpot = math.nan
        if tokens > 1 and not math.isnan(rec.first_token_time):
            tpot = (now - rec.first_token_time) / (tokens - 1)
            self.gateway.metrics.latency("serve.tpot_s").record(tpot)
        self.gateway.metrics.counter("serve.completed").add()
        attained = self.slo.attained(rec.request.tier, ttft, tpot)
        if attained:
            self.gateway.metrics.counter("serve.slo_attained").add()
        if self.alerts is not None:
            self.alerts.observe_slo(now, attained)
        self._trace_close(rec.trace_root)
        rec.trace_root = None
        self._emit("complete", rec, detail=f"tokens={tokens}")
        self.responses.append(CompletionResponse(
            request=rec.request,
            created=now,
            finish_reason="stop",
            usage=Usage(rec.request.prompt_tokens, tokens),
            first_token_time=rec.first_token_time,
            finish_time=now,
            attempts=creq.attempts,
            chunks=rec.chunks,
        ))
        self.admission.on_done(rec.request)
        self._pump()

    def on_shed(self, creq: ClusterRequest, reason: str) -> None:
        """Gateway-side shed (capacity / timeout / kv-budget)."""
        rec = self.records.get(creq.rid)
        if rec is None or rec.done:
            return
        self._finish_shed(rec, reason)
        self.admission.on_done(rec.request)
        self._pump()

    # -- shedding --------------------------------------------------------

    def _shed_local(self, rec: _ServeRecord, reason: str) -> None:
        """Admission-layer shed: the request never reached the gateway."""
        rec.creq.state = "shed"
        rec.creq.finish_time = self.sim.now
        self._finish_shed(rec, reason)

    def _finish_shed(self, rec: _ServeRecord, reason: str) -> None:
        now = self.sim.now
        rec.done = True
        if rec.stream_open:
            self.telemetry.tracer.end(rec.lane, "stream", now)
            rec.stream_open = False
        self._trace_close(rec.trace_hold)
        rec.trace_hold = None
        self._trace_close(rec.trace_root, status=f"shed:{reason}")
        rec.trace_root = None
        self.gateway.metrics.counter("serve.shed").add()
        self.gateway.metrics.counter(f"serve.shed.{reason}").add()
        if self.alerts is not None:
            self.alerts.observe_slo(now, False)
        self._emit("shed", rec, detail=reason)
        self.responses.append(CompletionResponse(
            request=rec.request,
            created=now,
            finish_reason=f"shed:{reason}",
            usage=Usage(rec.request.prompt_tokens, rec.attempt_tokens),
            first_token_time=rec.first_token_time,
            finish_time=now,
            attempts=rec.creq.attempts,
            chunks=rec.chunks,
        ))

    # -- accounting ------------------------------------------------------

    def _record_held(self) -> None:
        self.gateway.metrics.timeseries("serve.held").record(
            self.sim.now, float(self.admission.held_count)
        )

    def _emit(
        self, action: str, rec: _ServeRecord, token_index: int = -1,
        detail: str = "",
    ) -> None:
        if not self.telemetry.enabled:
            return
        self.telemetry.emit(ServeEvent(
            time=self.sim.now,
            action=action,
            request_id=rec.request.request_id,
            tenant=rec.request.tenant,
            tier=rec.request.tier,
            token_index=token_index,
            detail=detail,
        ))

    # -- execution -------------------------------------------------------

    def run(
        self,
        requests: List[CompletionRequest],
        duration: float,
        until: Optional[float] = None,
    ) -> ServeResult:
        """Drive ``requests`` through the front end and summarize.

        ``duration`` is the offered-load window goodput normalizes
        over (the load spec's arrival window, not the drain time).
        """
        self.sim.process(self._arrivals(
            sorted(requests, key=lambda r: (r.arrival_time, r.request_id))
        ))
        if self.config.fail_at is not None:
            self.sim.process(self._fault())
        self.sim.run(until=until)
        return self.result(duration)

    def _arrivals(self, requests: List[CompletionRequest]):
        for request in requests:
            delay = request.arrival_time - self.sim.now
            if delay > 0:
                yield self.sim.timeout(delay)
            self.submit(request)

    def _fault(self):
        config = self.config
        yield self.sim.timeout(config.fail_at)
        self.gateway.fail(config.fail_replica)
        if config.recover_after > 0:
            yield self.sim.timeout(config.recover_after)
            self.gateway.recover(config.fail_replica)

    def result(self, duration: float) -> ServeResult:
        """Summarize the run; every offered request must be resolved."""
        ok = [r for r in self.responses if r.ok]
        shed = [r for r in self.responses if not r.ok]
        if len(self.responses) != self.offered:
            raise AssertionError(
                f"{self.offered} offered but {len(self.responses)} resolved "
                "— requests lost untracked"
            )
        shed_by_reason: Dict[str, int] = {}
        for response in shed:
            reason = response.finish_reason.split(":", 1)[1]
            shed_by_reason[reason] = shed_by_reason.get(reason, 0) + 1
        attained = int(
            self.gateway.metrics.counter("serve.slo_attained").value
        )
        return ServeResult(
            admission=self.admission.name,
            system=self.config.system,
            trace="",
            rate=0.0,
            duration=duration,
            offered=self.offered,
            completed=len(ok),
            shed=len(shed),
            attained=attained,
            shed_by_reason=shed_by_reason,
            ttfts=[r.ttft for r in ok if not math.isnan(r.ttft)],
            tpots=[r.tpot for r in ok if not math.isnan(r.tpot)],
            failovers=self.gateway.failovers,
            crashes=sum(r.crashes for r in self.cluster.replicas),
            swap_outs=sum(r.swap_out_count for r in self.cluster.replicas),
            auth_failures=sum(r.auth_failures for r in self.cluster.replicas),
            responses=list(self.responses),
        )


def run_serve(
    config,
    load: LoadSpec,
    slo: Optional[SloSpec] = None,
    admission: str = "slo",
    spec=None,
    params=None,
    seed: Optional[int] = None,
    until: Optional[float] = None,
    alerts=None,
) -> ServeResult:
    """Build a cluster + front end, generate load, run, summarize."""
    from ..models import OPT_13B

    cluster = Cluster(config, spec=spec if spec is not None else OPT_13B,
                      params=params)
    frontend = ServeFrontend(cluster, slo=slo, admission=admission,
                             alerts=alerts)
    requests = generate_load(load, seed=seed)
    result = frontend.run(requests, duration=load.duration, until=until)
    result.trace = load.trace.name
    result.rate = load.rate
    return result
