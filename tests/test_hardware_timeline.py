"""Unit tests for the event-driven timeline."""

import pytest

from repro.hardware.timeline import CPU, D2H, GPU, H2D, Op, Timeline


def test_fifo_on_one_resource():
    tl = Timeline()
    a = tl.add(GPU, 1.0)
    b = tl.add(GPU, 2.0)
    assert a.start == 0.0 and a.end == 1.0
    assert b.start == 1.0 and b.end == 3.0


def test_parallel_resources():
    tl = Timeline()
    a = tl.add(GPU, 1.0)
    b = tl.add(CPU, 1.0)
    assert a.start == b.start == 0.0
    assert tl.makespan == 1.0


def test_dependency_across_resources():
    tl = Timeline()
    a = tl.add(GPU, 2.0)
    b = tl.add(CPU, 1.0, deps=[a])
    assert b.start == 2.0
    assert tl.makespan == 3.0


def test_dependency_and_fifo_interact():
    tl = Timeline()
    gpu1 = tl.add(GPU, 5.0)
    cpu1 = tl.add(CPU, 1.0)
    # Depends on cpu1 (ends 1.0) but GPU is busy until 5.0.
    gpu2 = tl.add(GPU, 1.0, deps=[cpu1])
    assert gpu2.start == 5.0


def test_transfer_channels_independent():
    tl = Timeline()
    up = tl.add(H2D, 3.0)
    down = tl.add(D2H, 3.0)
    assert up.start == down.start == 0.0


def test_barrier():
    tl = Timeline()
    a = tl.add(GPU, 1.0)
    b = tl.add(CPU, 4.0)
    assert tl.barrier([a, b]) == 4.0
    assert tl.barrier([]) == 0.0


def test_busy_time_and_utilization():
    tl = Timeline()
    tl.add(GPU, 1.0)
    tl.add(GPU, 1.0)
    tl.add(CPU, 4.0)
    assert tl.busy_time(GPU) == pytest.approx(2.0)
    assert tl.utilization(GPU) == pytest.approx(0.5)
    assert tl.utilization(CPU) == pytest.approx(1.0)


def test_empty_timeline():
    tl = Timeline()
    assert tl.makespan == 0.0
    assert tl.utilization(GPU) == 0.0


def test_unknown_resource_rejected():
    tl = Timeline()
    with pytest.raises(ValueError):
        tl.add("tpu", 1.0)


def test_negative_duration_rejected():
    tl = Timeline()
    with pytest.raises(ValueError):
        tl.add(GPU, -1.0)


def test_window_query():
    tl = Timeline()
    a = tl.add(GPU, 1.0)
    b = tl.add(GPU, 1.0)
    c = tl.add(GPU, 1.0)
    inside = tl.window(0.5, 1.5)
    assert a in inside and b in inside and c not in inside


def test_zero_duration_op_allowed():
    tl = Timeline()
    a = tl.add(GPU, 1.0)
    sync = tl.add(GPU, 0.0, deps=[a])
    assert sync.start == sync.end == 1.0


def test_render_gantt_contains_rows():
    tl = Timeline()
    tl.add(GPU, 1.0, label="attn")
    tl.add(CPU, 2.0, label="expert")
    art = tl.render_gantt(width=40)
    assert " gpu |" in art
    assert " cpu |" in art
    assert "A" in art  # attn glyph
    assert "E" in art  # expert glyph


def test_clock_hold_is_forward_only():
    tl = Timeline()
    clock = tl.clock
    clock.hold(GPU, 2.5)
    assert clock.free[GPU] == 2.5
    # Holding to an earlier time never rewinds the lane.
    clock.hold(GPU, 1.0)
    assert clock.free[GPU] == 2.5
    op = tl.add(GPU, 1.0)
    assert op.start == 2.5 and op.end == 3.5


def test_clock_hold_rejects_unknown_resource():
    tl = Timeline()
    with pytest.raises(ValueError):
        tl.clock.hold("tpu", 1.0)


def test_ops_view_indexing_and_slices():
    tl = Timeline()
    ops = [tl.add(GPU, 1.0, label=str(i)) for i in range(4)]
    view = tl.ops
    assert len(view) == 4
    assert [op.label for op in view] == ["0", "1", "2", "3"]
    assert view[-1] == ops[3] and view[-4] == ops[0]
    assert [op.index for op in view[1:3]] == [1, 2]
    assert [op.index for op in view[::-2]] == [3, 1]
    with pytest.raises(IndexError):
        view[4]
    with pytest.raises(IndexError):
        view[-5]


def test_ops_view_is_read_only():
    tl = Timeline()
    op = tl.add(GPU, 1.0)
    with pytest.raises(TypeError):
        tl.ops[0] = op
    with pytest.raises(AttributeError):
        tl.ops = []
    with pytest.raises(AttributeError):
        op.dep_indices = (0,)


def test_handle_setters_write_the_row():
    tl = Timeline()
    tl.add(GPU, 1.0, label="a", kind="gate")
    handle = tl.ops[0]
    handle.start = 0.5
    handle.end = 1.5
    handle.label = "b"
    assert tl.ops[0].start == 0.5 and tl.ops[0].end == 1.5
    assert tl.ops[0].label == "b"
    assert tl.makespan == 1.5


def test_handles_compare_by_row():
    a, b = Timeline(), Timeline()
    x = a.add(GPU, 1.0, label="attn")
    y = b.add(GPU, 1.0, label="attn")
    assert isinstance(x, Op) and x.timeline is a
    assert x == y and hash(x) == hash(y)
    assert x != b.add(GPU, 1.0, label="attn")
    assert repr(x) == ("Op(index=0, resource='gpu', duration=1.0, "
                       "start=0.0, end=1.0, label='attn', kind='', "
                       "dep_indices=())")


def test_dep_indices_round_trip_through_state_dict():
    tl = Timeline()
    a = tl.add(GPU, 1.0)
    b = tl.add(CPU, 2.0)
    tl.add(H2D, 1.0, deps=[a, b], label="up", kind="expert_upload")
    restored = Timeline.from_state_dict(tl.to_state_dict())
    assert [op.dep_indices for op in restored.ops] == [(), (), (0, 1)]
    assert restored.to_state_dict() == tl.to_state_dict()
    assert restored.clock.free == tl.clock.free


def test_state_dict_rejects_misplaced_index():
    tl = Timeline()
    tl.add(GPU, 1.0)
    payload = tl.to_state_dict()
    payload["ops"][0]["index"] = 3
    with pytest.raises(ValueError, match="position 0"):
        Timeline.from_state_dict(payload)


def test_foreign_dependency_rejected():
    """A dependency recorded in another timeline -- even one sharing the
    clock -- is refused, and the refused add leaves no trace."""
    mine = Timeline()
    other = Timeline(clock=mine.clock)
    local = mine.add(GPU, 1.0)
    foreign = other.add(CPU, 5.0)
    with pytest.raises(ValueError, match="another timeline"):
        mine.add(GPU, 1.0, deps=[local, foreign])
    assert len(mine.ops) == 1
    assert mine.dep_flat.tolist() == [] and mine.dep_offsets.tolist() == [0, 0]
    after = mine.add(GPU, 1.0, deps=[local])
    assert after.dep_indices == (0,) and after.start == 1.0
