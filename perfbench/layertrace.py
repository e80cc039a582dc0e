"""In-memory span tracing of the simulator's layers, from outside.

:func:`install` wraps the public entry points of each layer (module)
named in :data:`TARGETS` and returns a function that restores the
originals. While installed, every call records a span (name, start,
end, parent span, request id when the call carries one) and bumps the
layer's counters. Generator functions get one span per resumption, and
so do simulation processes: :meth:`Simulator.process` wraps each
process body in spans named ``<layer>.proc`` after the module that
defined it, so the kernel's own dispatch time stays apart from the
model code it resumes.

A span's self time is its duration minus the time its child spans
cover. The wrappers cost time of their own; :func:`calibrate` measures
that cost per span kind (inside the span, and outside it in the
parent) and per counted call, and :meth:`Tracer.self_times` uses it to
share the measured tracing overhead out of the self times, so they
estimate the untraced run.

Timed benchmark runs install nothing; only the separate traced run
does.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Calibration", "Tracer", "calibrate", "install"]

clock = time.perf_counter

#: Span tuple layout: (span id, name, start, end, parent id, request id).
Span = Tuple[int, str, float, float, int, Any]


class Tracer:
    """Span stack, span record and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Open spans: [name, start, span id, request id, child seconds,
        #: kind]; kind is "call" or "step" (one generator resumption).
        self.stack: List[list] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.raw_self: Dict[str, float] = {}
        #: Per (span name, kind): spans closed and child spans opened
        #: under it; per span name: counted (span-less) calls made while
        #: it was innermost.
        self.n_spans: Counter = Counter()
        self.n_children: Counter = Counter()
        self.n_counted: Counter = Counter()
        self._next_id = 1

    # -- recording -------------------------------------------------------

    def enter(self, name: str, rid: Any = None, kind: str = "call") -> None:
        sid = self._next_id
        self._next_id = sid + 1
        stack = self.stack
        if stack:
            self.n_children[stack[-1][0], kind] += 1
        stack.append([name, clock(), sid, rid, 0.0, kind])

    def exit(self) -> None:
        end = clock()
        stack = self.stack
        name, start, sid, rid, child, kind = stack.pop()
        duration = end - start
        self.raw_self[name] = self.raw_self.get(name, 0.0) + duration - child
        self.n_spans[name, kind] += 1
        parent = 0
        if stack:
            stack[-1][4] += duration
            parent = stack[-1][2]
        self.spans.append((sid, name, start, end, parent, rid))

    def count(self, key: str) -> None:
        """A span-less counted call (the simulator's event factories)."""
        self.counts[key] += 1
        if self.stack:
            self.n_counted[self.stack[-1][0]] += 1

    # -- results ---------------------------------------------------------

    def weights(self, cal: "Calibration") -> Dict[str, float]:
        """Calibrated wrapper seconds that landed in each span name."""
        out = {}
        for name in self.raw_self:
            cost = self.n_counted[name] * cal.counted
            for kind, (inside, outside) in cal.spans.items():
                cost += self.n_spans[name, kind] * inside + self.n_children[name, kind] * outside
            out[name] = cost
        return out

    def self_times(self, cal: "Calibration",
                   overhead: Optional[float] = None) -> Dict[str, float]:
        """Self seconds per span name, less the tracing overhead.

        The overhead (by default the calibrated estimate) is shared out in proportion to the calibrated wrapper
        cost each name carries, never taking a name below zero, so the
        self times plus the overhead add up to the traced pass.
        """
        weights = self.weights(cal)
        out = dict(self.raw_self)
        left = sum(weights.values()) if overhead is None else max(0.0, overhead)
        active = {name for name, w in weights.items() if w > 0}
        while active and left > 0:
            share = left / sum(weights[name] for name in active)
            short = {name for name in active if out[name] < weights[name] * share}
            if not short:
                for name in active:
                    out[name] -= weights[name] * share
                break
            for name in short:
                left -= out[name]
                out[name] = 0.0
            active -= short
        return out

    def overhead_estimate(self, cal: "Calibration") -> float:
        return sum(self.weights(cal).values())

    def write(self, path: Path) -> None:
        """Dump the span record as tab-separated lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\trequest\n")
            for sid, name, start, end, parent, rid in self.spans:
                fh.write(f"{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                         f"{'' if rid is None else rid}\n")


# -- wrappers --------------------------------------------------------------


def _rid(obj: Any) -> Any:
    rid = getattr(obj, "rid", None)
    return getattr(obj, "request_id", None) if rid is None else rid


def _span_call(tracer: Tracer, name: str, fn: Callable, rid_arg: Optional[int],
               after: Optional[Callable]) -> Callable:
    def wrapper(*args, **kwargs):
        if tracer.stack and tracer.stack[-1][0] == name:
            return fn(*args, **kwargs)  # re-entry (a subclass calling super)
        tracer.calls[name] += 1
        tracer.enter(name, _rid(args[rid_arg]) if rid_arg is not None else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, args, result)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def _span_steps(tracer: Tracer, name: str, gen, rid: Any = None):
    """Re-yield ``gen``, timing each resumption as one span."""
    value, error = None, None
    while True:
        tracer.enter(name, rid, "step")
        try:
            item = gen.send(value) if error is None else gen.throw(error)
        except StopIteration as stop:
            tracer.exit()
            return stop.value
        except BaseException:
            tracer.exit()
            raise
        tracer.exit()
        try:
            value, error = (yield item), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # thrown in by the kernel (Interrupt)
            value, error = None, exc


_STEPS_CODE = _span_steps.__code__


def _span_generator(tracer: Tracer, name: str, fn: Callable, rid_arg: Optional[int],
                    after: Optional[Callable]) -> Callable:
    def wrapper(*args, **kwargs):
        tracer.calls[name] += 1
        rid = _rid(args[rid_arg]) if rid_arg is not None else None
        return _span_steps(tracer, name, fn(*args, **kwargs), rid)  # no result hook
    wrapper.__wrapped__ = fn
    return wrapper


def _counted(tracer: Tracer, key: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


_LAYER_OF_FILE: Dict[str, str] = {}


def _process_layer(gen) -> str:
    """``serving.proc`` for a process body defined in repro/serving/."""
    filename = gen.gi_code.co_filename
    name = _LAYER_OF_FILE.get(filename)
    if name is None:
        parts = Path(filename).parts
        name = "other.proc"
        if "repro" in parts:
            rest = parts[len(parts) - parts[::-1].index("repro"):]
            if len(rest) > 1:
                name = f"{rest[0]}.proc"
        _LAYER_OF_FILE[filename] = name
    return name


def _process(tracer: Tracer, fn: Callable) -> Callable:
    def wrapper(sim, generator):
        tracer.count("sim.events")
        if getattr(generator, "gi_code", None) is not _STEPS_CODE:
            generator = _span_steps(tracer, _process_layer(generator), generator)
        return fn(sim, generator)
    wrapper.__wrapped__ = fn
    return wrapper


# -- per-target bookkeeping --------------------------------------------------


def _add(key: str, value: Callable[[tuple, Any], int]) -> Callable:
    def after(tracer: Tracer, args, result) -> None:
        tracer.counts[key] += value(args, result)
    return after


_AEAD_BYTES = _add("crypto.aead.bytes", lambda args, result: len(args[2]))
_PCIE_BYTES = _add("hw.pcie.bytes", lambda args, result: int(args[1]))
_VALIDATOR_HIT = _add("core.validator.hits", lambda args, result: int(result.usable))
_LINK_HIT = _add("parallel.link_spec.hits", lambda args, result: int(bool(result)))
_MIGRATION_HIT = _add("disagg.spec.hits", lambda args, result: int(bool(result)))
_STAGED = _add("core.staged", lambda args, result: int(result))
_COMMITTED = _add("core.committed", lambda args, result: 1)
_TRACE_SPAN = _add("tracing.spans", lambda args, result: 1)
_TOKENS = _add("serve.frontend.tokens", lambda args, result: 1)


def _admission(tracer: Tracer, args, result) -> None:
    tracer.counts["serve.admission." + str(result).split(":", 1)[0]] += 1


#: (module, class, methods, span name, request-id argument index, after-hook).
#: Methods are wrapped on the class and on every subclass that defines them.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...], str, Optional[int], Optional[Callable]], ...] = (
    ("repro.sim.core", "Simulator", ("run",), "sim", None, None),
    ("repro.core.predictor", "SwapPredictor",
     ("observe_swap_in", "observe_swap_out", "predict", "predict_all"),
     "core.predictor", None, None),
    ("repro.core.validator", "Validator", ("validate",), "core.validator", None, _VALIDATOR_HIT),
    ("repro.core.pipeline", "SpeculationPipeline", ("refill",), "core.pipeline", None, _STAGED),
    ("repro.core.pipeline", "SpeculationPipeline", ("pop",), "core.pipeline", None, _COMMITTED),
    ("repro.crypto.gcm", "AesGcm", ("encrypt",), "crypto.aead", None, _AEAD_BYTES),
    ("repro.crypto.gcm", "AesGcm", ("decrypt", "try_decrypt"), "crypto.aead", None, _AEAD_BYTES),
    ("repro.crypto.backend", "CryptographyGcm", ("encrypt",), "crypto.aead", None, _AEAD_BYTES),
    ("repro.crypto.backend", "CryptographyGcm", ("decrypt", "try_decrypt"),
     "crypto.aead", None, _AEAD_BYTES),
    ("repro.crypto.handshake", "DhKeyPair", ("generate", "shared_secret"),
     "crypto.handshake", None, None),
    ("repro.hw.pcie", "PcieLink", ("transfer_h2d", "transfer_d2h"), "hw.pcie", None, _PCIE_BYTES),
    ("repro.hw.dma", "DmaStaging", ("stage",), "hw.dma", None, None),
    ("repro.hw.interconnect", "Interconnect", ("transfer",), "hw.interconnect", None, None),
    ("repro.parallel.collectives", "Communicator", ("all_reduce", "all_gather", "send"),
     "parallel.collective", None, None),
    ("repro.parallel.speculate", "LinkSpeculator", ("lookup",), "parallel.link_spec", None, _LINK_HIT),
    ("repro.disagg.migration", "MigrationFabric", ("migrate",), "disagg.migrate", 1, None),
    ("repro.disagg.migration", "MigrationSpeculator", ("lookup",), "disagg.spec", None, _MIGRATION_HIT),
    ("repro.cluster.gateway", "Gateway", ("submit",), "cluster.gateway", 1, None),
    ("repro.cluster.routing", "RoutingPolicy", ("choose",), "cluster.route", None, None),
    ("repro.serve.frontend", "ServeFrontend", ("on_token",), "serve.frontend", 1, _TOKENS),
    ("repro.serve.admission", "AdmissionPolicy", ("offer",), "serve.admission", 1, _admission),
    ("repro.tracing.context", "TraceCollector", ("begin", "add"), "tracing", None, _TRACE_SPAN),
    ("repro.tracing.context", "TraceCollector", ("end",), "tracing", None, None),
    ("repro.telemetry.hub", "TelemetryHub", ("emit",), "telemetry", None, None),
)

#: Simulator event factories: counted into ``sim.events``, no spans.
EVENT_FACTORIES = ("timeout", "event", "all_of", "any_of")


def _classes(root: type) -> Iterable[type]:
    seen, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _patch(cls: type, attr: str, make: Callable[[Callable], Callable], undo: list) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        new = classmethod(make(raw.__func__))
    elif isinstance(raw, staticmethod):
        new = staticmethod(make(raw.__func__))
    else:
        new = make(raw)
    setattr(cls, attr, new)
    undo.append((cls, attr, raw))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target for ``tracer``; returns the uninstaller."""
    import importlib
    import inspect

    undo: list = []
    for module, root, methods, name, rid_arg, after in TARGETS:
        base = getattr(importlib.import_module(module), root)
        for cls in _classes(base):
            for attr in methods:
                if attr not in cls.__dict__:
                    continue
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                wrap = _span_generator if inspect.isgeneratorfunction(fn) else _span_call
                _patch(cls, attr,
                       lambda f, w=wrap: w(tracer, name, f, rid_arg, after), undo)
    from repro.sim.core import Simulator

    for attr in EVENT_FACTORIES:
        _patch(Simulator, attr, lambda f: _counted(tracer, "sim.events", f), undo)
    _patch(Simulator, "process", lambda f: _process(tracer, f), undo)

    def uninstall() -> None:
        for cls, attr, raw in reversed(undo):
            setattr(cls, attr, raw)
    return uninstall


# -- calibration -----------------------------------------------------------


class Calibration:
    """Seconds the wrappers add: per span kind, the part inside the span
    and the part left in its parent; and per counted call."""

    def __init__(self, spans: Dict[str, Tuple[float, float]], counted: float) -> None:
        self.spans, self.counted = spans, counted

    def as_dict(self) -> Dict[str, float]:
        out = {"counted_s": self.counted}
        for kind, (inside, outside) in self.spans.items():
            out[f"{kind}_inside_s"], out[f"{kind}_outside_s"] = inside, outside
        return out


def calibrate(calls: int = 20000, rounds: int = 5) -> Calibration:
    """Time no-op calls and generator steps bare, spanned and counted.

    Medians over ``rounds``; each round runs inside an enclosing span,
    as traced calls always do.
    """
    def noop(*args):
        return None

    def steps():
        while True:
            yield None

    def drive(gen) -> float:
        send = gen.send
        send(None)
        start = clock()
        for _ in range(calls):
            send(None)
        return clock() - start

    def loop(fn) -> float:
        start = clock()
        for _ in range(calls):
            fn(None)
        return clock() - start

    samples: Dict[str, List[float]] = {
        "call_in": [], "call_all": [], "step_in": [], "step_all": [], "counted": []}
    for _ in range(rounds):
        for kind in ("call", "step"):
            tracer = Tracer()
            tracer.enter("calibration")
            if kind == "call":
                bare = loop(noop)
                total = loop(_span_call(tracer, "noop", noop, None, None))
            else:
                bare = drive(steps())
                total = drive(_span_steps(tracer, "noop", steps()))
            spans = [end - start for _, name, start, end, _, _ in tracer.spans]
            samples[f"{kind}_in"].append(sum(spans[-calls:]) / calls)
            samples[f"{kind}_all"].append((total - bare) / calls)
            if kind == "call":
                samples["counted"].append(
                    (loop(_counted(tracer, "noop", noop)) - bare) / calls)
            tracer.exit()
    med = {k: statistics.median(v) for k, v in samples.items()}
    return Calibration(
        {kind: (med[f"{kind}_in"], max(0.0, med[f"{kind}_all"] - med[f"{kind}_in"]))
         for kind in ("call", "step")},
        med["counted"],
    )
