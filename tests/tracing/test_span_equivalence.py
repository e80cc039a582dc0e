"""Differential harness: one-call closed spans ≡ ``begin`` + ``end``.

:meth:`TraceCollector.add` builds its span already closed, through the
same private constructor as :meth:`TraceCollector.begin`.
``begin_end_add`` below is the original ``add`` body, kept verbatim:
open the span, then close it. Two collectors are fed the same random
mix of root and child intervals, open/close pairs and invalid parents,
one through each path. They must return the same contexts, raise the
same errors and hold the same spans.
"""

from hypothesis import given, settings, strategies as st

from repro.tracing import TraceCollector, TraceContext


def begin_end_add(
    col, parent, name, stage, machine, start, end, status="ok", trace_id=None
):
    """The original ``TraceCollector.add`` (differential reference)."""
    ctx = col.begin(parent, name, stage, machine, start, trace_id=trace_id)
    col.end(ctx, end, status=status)
    return ctx


def _outcome(call):
    try:
        return ("ok", call())
    except (KeyError, ValueError) as exc:
        return (type(exc), str(exc))


def _state(col):
    return (
        [repr(s) for s in col.spans],
        sorted(col._by_key),
        dict(col._next_span_id),
        col.trace_ids(),
    )


_TIME = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
_OP = st.tuples(
    st.sampled_from(["root", "root-no-id", "child", "ghost", "open", "close"]),
    st.integers(min_value=0, max_value=7),
    _TIME,
    _TIME,
    st.sampled_from(["ok", "shed:deadline", "error"]),
)


def _apply(col, add, contexts, op):
    kind, pick, start, dur, status = op
    end = start + dur
    if kind == "root":
        return add(col, None, "request", "request", "gw", start, end,
                   status=status, trace_id=f"t-{pick % 3}")
    if kind == "root-no-id":
        return add(col, None, "request", "request", "gw", start, end)
    if kind == "ghost":
        return add(col, TraceContext("ghost", pick), "step", "compute",
                   "r0", start, end)
    parent = contexts[pick % len(contexts)] if contexts else None
    if parent is None:
        return ("skip",)
    if kind == "child":
        return add(col, parent, "step", "compute", "r0", start, end,
                   status=status)
    if kind == "open":
        return col.begin(parent, "transfer", "transfer", "r0", start)
    col.end(parent, end, status=status)
    return ("closed",)


@given(st.lists(_OP, max_size=60))
@settings(max_examples=300, deadline=None)
def test_add_matches_begin_then_end(ops):
    fast, ref = TraceCollector(), TraceCollector()
    fast_ctxs, ref_ctxs = [], []
    for op in ops:
        got = _outcome(lambda: _apply(fast, TraceCollector.add, fast_ctxs, op))
        want = _outcome(lambda: _apply(ref, begin_end_add, ref_ctxs, op))
        assert got == want
        if isinstance(got[1], TraceContext):
            fast_ctxs.append(got[1])
            ref_ctxs.append(want[1])
        assert _state(fast) == _state(ref)

