"""Columnar routing trace vs a list-of-events reference model.

Random interleavings of ``record`` (executed sets that may differ in
length from the selection, predicted flags, both phases),
``record_rows`` and checkpoint JSON round trips must leave the trace
indistinguishable from a plain list of :class:`RoutingEvent`s run
through the list-based aggregations the columns replaced.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.recorder import (
    DECODE,
    PHASES,
    ActivationTrace,
    RoutingEvent,
)

N_BLOCKS = 3
N_EXPERTS = 5

expert_ids = st.lists(st.integers(0, N_EXPERTS - 1), min_size=1, max_size=3)

record_steps = st.tuples(
    st.just("record"),
    st.sampled_from(PHASES),
    st.integers(0, N_BLOCKS - 1),
    st.integers(0, 6),
    expert_ids,
    st.one_of(st.none(),
              st.lists(st.integers(0, N_EXPERTS - 1), max_size=3)),
    st.booleans(),
)

row_steps = st.integers(1, 3).flatmap(lambda top_k: st.tuples(
    st.just("rows"),
    st.sampled_from(PHASES),
    st.integers(0, N_BLOCKS - 1),
    st.integers(0, 6),
    st.just(top_k),
    st.lists(st.lists(st.integers(0, N_EXPERTS - 1), min_size=top_k,
                      max_size=top_k), max_size=4),
))

steps = st.lists(
    st.one_of(record_steps, row_steps, st.just(("round_trip",))),
    min_size=1, max_size=30,
)


# ---- the list-based reference (the pre-columnar implementation) -------------


def ref_state_dict(events):
    return {
        "n_blocks": N_BLOCKS,
        "n_experts": N_EXPERTS,
        "events": [
            {
                "phase": e.phase,
                "block": e.block,
                "token_pos": e.token_pos,
                "experts": list(e.experts),
                "executed_experts": (None if e.executed_experts is None
                                     else list(e.executed_experts)),
                "predicted": e.predicted,
            }
            for e in events
        ],
    }


def ref_counts(events, phase, executed):
    counts = np.zeros((N_BLOCKS, N_EXPERTS), dtype=np.int64)
    for e in events:
        if phase is not None and e.phase != phase:
            continue
        experts = e.experts
        if executed and e.executed_experts is not None:
            experts = e.executed_experts
        for expert in experts:
            counts[e.block, expert] += 1
    return counts


def ref_token_count(events, phase):
    return len({e.token_pos for e in events
                if e.block == 0 and (phase is None or e.phase == phase)})


def ref_windows(events, window):
    positions = sorted({e.token_pos for e in events if e.phase == DECODE})
    if not positions:
        return []
    rank = {p: i for i, p in enumerate(positions)}
    n_windows = (len(positions) + window - 1) // window
    counts = np.zeros((n_windows, N_BLOCKS, N_EXPERTS), dtype=np.float64)
    tokens = np.zeros(n_windows, dtype=np.float64)
    seen = set()
    for e in events:
        if e.phase != DECODE:
            continue
        w = rank[e.token_pos] // window
        for expert in e.experts:
            counts[w, e.block, expert] += 1
        if e.block == 0 and e.token_pos not in seen:
            seen.add(e.token_pos)
            tokens[w] += 1
    return [counts[w] / max(tokens[w], 1.0) for w in range(n_windows)]


def ref_trailing(events, phase, token_pos):
    counts = np.zeros((N_BLOCKS, N_EXPERTS), dtype=np.int64)
    for e in reversed(events):
        if e.phase != phase or e.token_pos != token_pos:
            break
        for expert in e.experts:
            counts[e.block, expert] += 1
    return counts


# ---- the comparison ----------------------------------------------------------


def _assert_matches(trace, events):
    assert list(trace.events) == events
    assert trace.events == events
    assert len(trace.events) == len(events)
    if events:
        assert trace.events[-1] == events[-1]
        assert trace.events[1:] == events[1:]
    assert json.dumps(trace.to_state_dict()) == \
        json.dumps(ref_state_dict(events))
    for phase in (None,) + PHASES:
        for executed in (False, True):
            assert np.array_equal(trace.activation_counts(phase, executed),
                                  ref_counts(events, phase, executed))
        assert trace.token_count(phase) == ref_token_count(events, phase)
    for window in (1, 2, 4):
        got, want = trace.decode_window_matrices(window), \
            ref_windows(events, window)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
    for token_pos in {e.token_pos for e in events[-3:]}:
        for phase in PHASES:
            assert np.array_equal(trace.trailing_counts(phase, token_pos),
                                  ref_trailing(events, phase, token_pos))


@settings(max_examples=150, deadline=None)
@given(steps)
def test_columns_match_reference_model(plan):
    trace = ActivationTrace(N_BLOCKS, N_EXPERTS)
    events = []
    for step in plan:
        if step[0] == "record":
            _, phase, block, pos, experts, executed, predicted = step
            trace.record(phase, block, pos, np.asarray(experts),
                         executed_experts=executed, predicted=predicted)
            events.append(RoutingEvent(
                phase, block, pos, tuple(experts),
                None if executed is None else tuple(executed), predicted,
            ))
        elif step[0] == "rows":
            _, phase, block, first_pos, top_k, rows = step
            trace.record_rows(phase, block, first_pos, np.array(
                rows, dtype=np.int64).reshape(len(rows), top_k))
            events.extend(RoutingEvent(phase, block, first_pos + t, tuple(r))
                          for t, r in enumerate(rows))
        else:
            payload = json.loads(json.dumps(trace.to_state_dict()))
            trace = ActivationTrace.from_state_dict(payload)
        _assert_matches(trace, events)

    # Equal events are equal columns, however they were recorded.
    twin = ActivationTrace(N_BLOCKS, N_EXPERTS)
    for e in events:
        twin.record(e.phase, e.block, e.token_pos, list(e.experts),
                    e.executed_experts, e.predicted)
    assert twin.events == trace.events
    twin.record(DECODE, 0, 0, [0])
    assert twin.events != trace.events
