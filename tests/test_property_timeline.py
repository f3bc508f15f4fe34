"""Property-based tests for the event-driven timeline."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit.parity import timeline_signature
from repro.hardware.timeline import RESOURCES, Timeline

op_specs = st.lists(
    st.tuples(
        st.sampled_from(RESOURCES),
        st.floats(0.0, 10.0, allow_nan=False),
        st.lists(st.integers(0, 100), max_size=3),  # dep indices (mod i)
    ),
    min_size=1,
    max_size=40,
)


def build(specs):
    tl = Timeline()
    ops = []
    for i, (resource, duration, dep_idx) in enumerate(specs):
        deps = [ops[d % i] for d in dep_idx] if i else []
        ops.append(tl.add(resource, duration, deps=deps))
    return tl, [(o, [ops[d % i] for d in dep]) if i else (o, [])
                for i, ((_, _, dep), o) in enumerate(zip(specs, ops))]


@settings(max_examples=60)
@given(op_specs)
def test_dependencies_respected(specs):
    _, annotated = build(specs)
    for op, deps in annotated:
        for dep in deps:
            assert op.start >= dep.end - 1e-12


@settings(max_examples=60)
@given(op_specs)
def test_fifo_per_resource(specs):
    tl, _ = build(specs)
    for resource in RESOURCES:
        ops = tl.ops_on(resource)
        for a, b in zip(ops, ops[1:]):
            assert b.start >= a.end - 1e-12


@settings(max_examples=60)
@given(op_specs)
def test_makespan_bounds(specs):
    tl, _ = build(specs)
    assert tl.makespan >= max(op.end for op in tl.ops) - 1e-12
    # Makespan is at least the busiest resource's total work.
    for resource in RESOURCES:
        assert tl.makespan >= tl.busy_time(resource) - 1e-9


@settings(max_examples=60)
@given(op_specs)
def test_durations_preserved(specs):
    tl, _ = build(specs)
    for op, (_, duration, _) in zip(tl.ops, specs):
        assert abs((op.end - op.start) - duration) < 1e-9


@settings(max_examples=30)
@given(op_specs)
def test_utilization_bounded(specs):
    tl, _ = build(specs)
    for resource in RESOURCES:
        u = tl.utilization(resource)
        assert 0.0 <= u <= 1.0 + 1e-9


# ---- columnar timeline vs a list-of-records reference model ---------------

actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.sampled_from(RESOURCES),
            st.floats(0.0, 10.0, allow_nan=False),
            st.lists(st.integers(0, 100), max_size=3),  # dep indices (mod n)
            st.sampled_from(["", "attn B0", "up E1@B2"]),
            st.sampled_from(["", "gate", "expert_upload"]),
        ),
        st.tuples(st.just("advance"), st.floats(0.0, 50.0)),
        st.tuples(st.just("rebase"), st.floats(0.0, 1.0)),
        st.tuples(st.just("round_trip"), st.booleans()),
    ),
    min_size=1,
    max_size=40,
)


class ReferenceTimeline:
    """Minimal list-of-records model of :class:`Timeline` semantics."""

    def __init__(self):
        self.records = []
        self.free = {r: 0.0 for r in RESOURCES}

    def add(self, resource, duration, deps, label, kind):
        ready = self.free[resource]
        for dep in deps:
            if self.records[dep]["end"] > ready:
                ready = self.records[dep]["end"]
        self.records.append({
            "index": len(self.records), "resource": resource,
            "duration": duration, "start": ready, "end": ready + duration,
            "label": label, "kind": kind, "dep_indices": list(deps),
        })
        self.free[resource] = ready + duration

    def advance(self, t):
        for resource, free in self.free.items():
            if free < t:
                self.free[resource] = t

    def rebase(self, t0):
        for record in self.records:
            record["start"] -= t0
            record["end"] -= t0


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _assert_matches(tl, ref, handles):
    assert [tuple(map(_bits, row)) for row in timeline_signature(tl)] == [
        tuple(map(_bits, (r["resource"], r["duration"], r["start"], r["end"],
                          r["kind"], r["label"])))
        for r in ref.records
    ]
    assert [list(op.dep_indices) for op in tl.ops] == \
        [r["dep_indices"] for r in ref.records]
    assert tl.to_state_dict(include_clock=False)["ops"] == ref.records
    assert _bits(tl.makespan) == _bits(
        max((r["end"] for r in ref.records), default=0.0))
    for resource in RESOURCES:
        assert _bits(tl.busy_time(resource)) == _bits(sum(
            r["duration"] for r in ref.records if r["resource"] == resource))
    for handle in handles:
        record = ref.records[handle.index]
        assert (_bits(handle.start), _bits(handle.end)) == \
            (_bits(record["start"]), _bits(record["end"]))


@settings(max_examples=80)
@given(st.floats(0.0, 100.0), actions)
def test_columns_match_reference_model(offset, steps):
    tl, ref, handles = Timeline(), ReferenceTimeline(), []
    tl.clock.advance_all(offset)
    ref.advance(offset)
    for step in steps:
        if step[0] == "add":
            _, resource, duration, dep_idx, label, kind = step
            n = len(ref.records)
            deps = sorted({d % n for d in dep_idx}) if n else []
            handles.append(tl.add(resource, duration,
                                  deps=[tl.ops[d] for d in deps],
                                  label=label, kind=kind))
            ref.add(resource, duration, deps, label, kind)
        elif step[0] == "advance":
            tl.clock.advance_all(step[1])
            ref.advance(step[1])
        elif step[0] == "rebase":
            t0 = step[1] * min((r["start"] for r in ref.records), default=0.0)
            tl.rebase(t0)
            if t0 != 0.0:
                ref.rebase(t0)
        else:
            payload = json.loads(json.dumps(tl.to_state_dict(
                include_clock=step[1])))
            tl = Timeline.from_state_dict(
                payload, clock=None if step[1] else tl.clock)
            handles = list(tl.ops)
        _assert_matches(tl, ref, handles)
