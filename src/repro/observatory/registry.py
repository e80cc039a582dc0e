"""Pull-style metrics registry: Prometheus exposition + JSON snapshot.

:class:`repro.sim.stats.MetricSet` is the *push* side — hardware and
runtime code record into it as the simulation runs. This module adds
the *pull* side a real serving stack exposes to its monitoring plane:
named metric families (counter / gauge / histogram) with label sets,
collector callbacks that refresh gauges at scrape time, Prometheus
text exposition and a JSON snapshot.

Everything in the registry is driven by **simulated time**: collector
callbacks receive the horizon (the machine's ``sim.now``) so
utilizations are fractions of simulated seconds, never wall-clock.
:func:`bind_machine` wires one machine's whole stack in — hw (PCIe /
crypto-engine / GPU / staging occupancy), core (speculation counters,
degradation mode), faults (injection/recovery counters), telemetry
(wire latencies, tap drops) — and :func:`bind_gateway` adds the
cluster plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "bind_gateway",
    "bind_machine",
]

LabelValues = Tuple[str, ...]


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format:
    backslash, double-quote and line-feed are the three escapes."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_str(names: Sequence[str], values: LabelValues) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{n}="{_escape_label_value(v)}"' for n, v in zip(names, values)
    )
    return "{" + inner + "}"


class _Child:
    """One (family, label-values) time series."""

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = value


class _HistogramChild:
    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * len(self.buckets)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
        self.total += 1
        self.sum += value


class MetricFamily:
    """A named metric with a fixed label schema and typed children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._children: Dict[LabelValues, Any] = {}

    def _make_child(self):
        return _Child()

    def labels(self, *values: str, **kw: str):
        if kw:
            if values:
                raise ValueError("pass labels positionally or by name, not both")
            values = tuple(kw[name] for name in self.label_names)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {values}"
            )
        key = tuple(str(v) for v in values)
        if key not in self._children:
            self._children[key] = self._make_child()
        return self._children[key]

    def children(self) -> Iterable[Tuple[LabelValues, Any]]:
        return sorted(self._children.items())

    # Label-less convenience: family behaves as its own single child.

    def _default(self):
        return self.labels()


class Counter(MetricFamily):
    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class Gauge(MetricFamily):
    kind = "gauge"

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class Histogram(MetricFamily):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = (),
    ) -> None:
        if not buckets:
            raise ValueError("histogram needs explicit buckets")
        super().__init__(name, help, labels)
        self.buckets = tuple(sorted(float(b) for b in buckets))

    def _make_child(self):
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)


class MetricsRegistry:
    """Families by name, plus pull-time collector callbacks.

    ``collect(horizon)`` runs every registered collector (they refresh
    gauges from live simulation state) and returns the families;
    :meth:`exposition` and :meth:`snapshot` are the two wire formats.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[[float], None]] = []

    # -- registration ---------------------------------------------------

    def _register(self, family: MetricFamily) -> MetricFamily:
        existing = self._families.get(family.name)
        if existing is not None:
            if type(existing) is not type(family):
                raise ValueError(f"{family.name} already registered as {existing.kind}")
            return existing
        self._families[family.name] = family
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help, labels))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help, labels))  # type: ignore[return-value]

    def histogram(
        self, name: str, help: str = "", labels: Sequence[str] = (),
        buckets: Sequence[float] = (),
    ) -> Histogram:
        return self._register(Histogram(name, help, labels, buckets))  # type: ignore[return-value]

    def register_collector(self, collector: Callable[[float], None]) -> None:
        """``collector(horizon)`` runs at every scrape, horizon in
        simulated seconds."""
        self._collectors.append(collector)

    # -- scraping -------------------------------------------------------

    def collect(self, horizon: float) -> List[MetricFamily]:
        for collector in self._collectors:
            collector(horizon)
        return [self._families[name] for name in sorted(self._families)]

    def exposition(self, horizon: float) -> str:
        """Prometheus text format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.collect(horizon):
            full = f"{self.namespace}_{family.name}"
            if family.help:
                lines.append(f"# HELP {full} {family.help}")
            lines.append(f"# TYPE {full} {family.kind}")
            for values, child in family.children():
                if isinstance(child, _HistogramChild):
                    for bound, count in zip(child.buckets, child.counts):
                        bucket_labels = _label_str(
                            family.label_names + ("le",), values + (f"{bound:g}",)
                        )
                        lines.append(f"{full}_bucket{bucket_labels} {count}")
                    inf_labels = _label_str(
                        family.label_names + ("le",), values + ("+Inf",)
                    )
                    lines.append(f"{full}_bucket{inf_labels} {child.total}")
                    label_str = _label_str(family.label_names, values)
                    lines.append(f"{full}_sum{label_str} {_format_value(child.sum)}")
                    lines.append(f"{full}_count{label_str} {child.total}")
                else:
                    label_str = _label_str(family.label_names, values)
                    lines.append(f"{full}{label_str} {_format_value(child.value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self, horizon: float) -> Dict[str, Any]:
        """JSON-friendly scrape: {family: {kind, help, series: [...]}}."""
        out: Dict[str, Any] = {}
        for family in self.collect(horizon):
            series = []
            for values, child in family.children():
                labels = dict(zip(family.label_names, values))
                if isinstance(child, _HistogramChild):
                    series.append({
                        "labels": labels,
                        "sum": child.sum,
                        "count": child.total,
                        "buckets": {
                            f"{b:g}": c for b, c in zip(child.buckets, child.counts)
                        },
                    })
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "kind": family.kind, "help": family.help, "series": series,
            }
        return out


# -- stack bindings ------------------------------------------------------


def bind_machine(
    registry: MetricsRegistry, machine, runtime=None, label: str = ""
) -> None:
    """Register one machine's hw/crypto/core/faults metrics.

    Installs a pull collector that, at scrape time, mirrors the
    machine's always-on :class:`MetricSet` counters/latencies into
    labelled families and recomputes resource utilizations over the
    simulated horizon.
    """
    label = label or machine.telemetry.label or "machine-0"

    util = registry.gauge(
        "resource_utilization",
        "Busy fraction of one resource over the simulated horizon",
        labels=("machine", "resource"),
    )
    counters = registry.gauge(
        "machine_counter",
        "Mirror of the machine's always-on MetricSet counters",
        labels=("machine", "name"),
    )
    latency = registry.gauge(
        "wire_latency_seconds",
        "Wire latency percentiles per direction",
        labels=("machine", "direction", "quantile"),
    )
    mode_gauge = registry.gauge(
        "pipeline_mode",
        "Degradation state: 0 speculative, 1 probing, 2 degraded",
        labels=("machine",),
    )
    hit_rate = registry.gauge(
        "speculation_hit_rate",
        "Staged-service fraction of validated swap-ins",
        labels=("machine",),
    )
    link_hit_rate = registry.gauge(
        "interconnect_hit_rate",
        "Staged-hop fraction of speculated link transfers",
        labels=("machine",),
    )

    def collect(horizon: float) -> None:
        if horizon > 0:
            pcie_busy = max(
                machine.pcie.h2d.busy_time(),
                machine.pcie.d2h.busy_time(),
                machine.pcie.h2d_cc.busy_time(),
                machine.pcie.d2h_cc.busy_time(),
            )
            util.labels(label, "pcie").set(min(1.0, pcie_busy / horizon))
            util.labels(label, "crypto-engine").set(
                min(1.0, machine.engine.utilization(horizon))
            )
            util.labels(label, "gpu").set(
                min(1.0, machine.gpu.compute_seconds / horizon)
            )
            fabric = getattr(machine, "interconnect", None)
            if fabric is not None:
                for pipe in fabric.pipes():
                    util.labels(label, pipe.name).set(
                        min(1.0, pipe.busy_time() / horizon)
                    )
        for name, counter in machine.metrics.counters.items():
            counters.labels(label, name).set(float(counter.value))
        for direction in ("h2d", "d2h"):
            stat = machine.metrics.latencies.get(f"telemetry.{direction}_wire_s")
            if stat is None or not stat.count:
                continue
            for q in (50, 95, 99):
                latency.labels(label, direction, f"p{q}").set(stat.p(q))
        if runtime is not None and hasattr(runtime, "fault_controller"):
            mode_gauge.labels(label).set(
                {"speculative": 0.0, "probing": 1.0, "degraded": 2.0}[
                    runtime.fault_controller.mode.value
                ]
            )
        if runtime is not None and hasattr(runtime, "validator"):
            hit_rate.labels(label).set(runtime.validator.success_rate)
        fabric = getattr(machine, "interconnect", None)
        speculator = getattr(fabric, "speculator", None)
        if speculator is not None and speculator.lookups:
            link_hit_rate.labels(label).set(speculator.hit_rate)

    registry.register_collector(collect)


#: Histogram bounds for per-request serving latencies (seconds): spans
#: sub-millisecond cache hits up to deep saturation.
_SERVE_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def bind_gateway(registry: MetricsRegistry, gateway, audit=None) -> None:
    """Register the cluster plane: gateway counters, queue depth, IV
    audit — and, when a serving front end runs on this gateway, the
    per-request TTFT/TPOT latency distributions (p50/p95/p99 quantile
    gauges plus Prometheus histograms)."""
    counters = registry.gauge(
        "gateway_counter",
        "Mirror of the gateway's MetricSet counters",
        labels=("name",),
    )
    depth = registry.gauge("gateway_queue_depth", "Admission queue depth now")
    audit_gauge = registry.gauge(
        "iv_audit",
        "Cluster IV-audit progress",
        labels=("field",),
    )
    serve_quantiles = registry.gauge(
        "serve_latency_seconds",
        "Per-request serving latency percentiles (TTFT / TPOT)",
        labels=("metric", "quantile"),
    )
    serve_hist = registry.histogram(
        "serve_latency_hist_seconds",
        "Per-request serving latency distributions (TTFT / TPOT)",
        labels=("metric",),
        buckets=_SERVE_BUCKETS,
    )
    #: Samples already mirrored into the histogram, per metric —
    #: histogram children are cumulative, so each scrape observes only
    #: the LatencyStat samples that arrived since the last one.
    seen: Dict[str, int] = {"ttft": 0, "tpot": 0}

    def collect(horizon: float) -> None:
        for name, counter in gateway.metrics.counters.items():
            counters.labels(name).set(float(counter.value))
        series = gateway.metrics.series.get("cluster.gateway.queue_depth")
        if series is not None and series.points:
            depth.set(series.points[-1][1])
        if audit is not None:
            audit_gauge.labels("observed").set(float(audit.observed))
            audit_gauge.labels("keys").set(float(audit.keys_seen()))
        for metric in ("ttft", "tpot"):
            stat = gateway.metrics.latencies.get(f"serve.{metric}_s")
            if stat is None or not stat.count:
                continue
            for q in (50, 95, 99):
                serve_quantiles.labels(metric, f"p{q}").set(stat.p(q))
            child = serve_hist.labels(metric)
            for sample in stat.samples[seen[metric]:]:
                child.observe(sample)
            seen[metric] = len(stat.samples)

    registry.register_collector(collect)
