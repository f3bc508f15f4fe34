"""Unit tests for routing-trace recording and aggregation."""

import numpy as np
import pytest

from repro.trace.recorder import DECODE, PREFILL, ActivationTrace


@pytest.fixture()
def trace():
    return ActivationTrace(n_blocks=2, n_experts=4)


def test_record_and_count(trace):
    trace.record(PREFILL, 0, 0, [0, 1])
    trace.record(PREFILL, 0, 1, [0, 2])
    trace.record(PREFILL, 1, 0, [3, 1])
    counts = trace.activation_counts(PREFILL)
    np.testing.assert_array_equal(counts[0], [2, 1, 1, 0])
    np.testing.assert_array_equal(counts[1], [0, 1, 0, 1])


def test_phase_separation(trace):
    trace.record(PREFILL, 0, 0, [0, 1])
    trace.record(DECODE, 0, 1, [2, 3])
    assert trace.activation_counts(PREFILL)[0].sum() == 2
    assert trace.activation_counts(DECODE)[0].sum() == 2
    assert trace.activation_counts(None)[0].sum() == 4


def test_invalid_phase(trace):
    with pytest.raises(ValueError):
        trace.record("warmup", 0, 0, [0])


def test_activation_matrix_normalized(trace):
    """Matrix rows are per-token routing fractions (paper P/D matrices)."""
    trace.record(DECODE, 0, 0, [0, 1])
    trace.record(DECODE, 0, 1, [0, 2])
    trace.record(DECODE, 1, 0, [0, 1])
    trace.record(DECODE, 1, 1, [0, 1])
    matrix = trace.activation_matrix(DECODE)
    np.testing.assert_allclose(matrix[0], [1.0, 0.5, 0.5, 0.0])
    # Each row sums to top_k when every token routes to top_k experts.
    np.testing.assert_allclose(matrix.sum(axis=1), [2.0, 2.0])


def test_executed_vs_selected(trace):
    trace.record(DECODE, 0, 0, [0, 1], executed_experts=[0, 3])
    selected = trace.activation_counts(DECODE, executed=False)
    executed = trace.activation_counts(DECODE, executed=True)
    np.testing.assert_array_equal(selected[0], [1, 1, 0, 0])
    np.testing.assert_array_equal(executed[0], [1, 0, 0, 1])


def test_token_count(trace):
    trace.record(DECODE, 0, 5, [0])
    trace.record(DECODE, 0, 6, [1])
    trace.record(DECODE, 1, 5, [2])  # other block, same position
    assert trace.token_count(DECODE) == 2
    assert trace.token_count(PREFILL) == 0


def test_decode_window_matrices(trace):
    for pos in range(6):
        trace.record(DECODE, 0, pos, [pos % 4, (pos + 1) % 4])
        trace.record(DECODE, 1, pos, [0, 1])
    windows = trace.decode_window_matrices(window=3)
    assert len(windows) == 2
    # Block 1 routed identically in both windows.
    np.testing.assert_allclose(windows[0][1], windows[1][1])


def test_window_validation(trace):
    with pytest.raises(ValueError):
        trace.decode_window_matrices(0)


def test_empty_trace(trace):
    assert trace.decode_window_matrices(15) == []
    assert trace.activation_matrix(DECODE).sum() == 0


def test_record_stores_plain_int_tuples(trace):
    """Lists, arrays and scalars of expert ids record identically."""
    trace.record(DECODE, 0, 0, [1, 2], executed_experts=[1, 3])
    trace.record(DECODE, 0, 1, np.array([1, 2]),
                 executed_experts=np.array([1, 3], dtype=np.int32))
    first, second = trace.events
    assert first.experts == second.experts == (1, 2)
    assert first.executed_experts == second.executed_experts == (1, 3)
    assert all(type(e) is int for e in second.experts + second.executed_experts)
    trace.record(DECODE, 1, 0, np.int64(3))
    assert trace.events[-1].experts == (3,)


def test_id_rows_and_diverged_match_the_events():
    """The column reads the audits use agree with a loop over events."""
    trace = ActivationTrace(n_blocks=3, n_experts=4)
    trace.record_rows(PREFILL, 0, 0, np.array([[0, 1], [2, 1]]))
    trace.record(DECODE, 1, 2, [0, 1])
    trace.record(DECODE, 1, 3, [0, 1], executed_experts=[1, 0])
    trace.record(DECODE, 2, 3, [0, 1], executed_experts=[0, 3],
                 predicted=True)
    trace.record(DECODE, 2, 4, [2, 3], executed_experts=[2])
    trace.record(DECODE, 0, 4, [1, 2], executed_experts=[2, 1, 1])
    events = list(trace.events)

    def pairs(executed):
        rows, ids = trace.id_rows(executed)
        return sorted(zip(rows.tolist(), ids.tolist()))

    assert pairs(False) == sorted(
        (i, e) for i, event in enumerate(events) for e in event.experts
    )
    assert pairs(True) == sorted(
        (i, e) for i, event in enumerate(events)
        for e in (event.experts if event.executed_experts is None
                  else event.executed_experts)
    )
    assert trace.diverged().tolist() == [
        event.executed_experts is not None
        and set(event.executed_experts) != set(event.experts)
        for event in events
    ] == [False, False, False, False, True, True, False]
