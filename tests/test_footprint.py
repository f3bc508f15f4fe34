"""Deterministic memory gates for the model weights and the per-op and
per-event records.

The paper sweep keeps every simulated op and routing event of a run
alive, so their per-item footprint bounds its peak memory.  The gates
count ``tracemalloc`` bytes (deterministic, unlike RSS) per item while
the record is still alive.  The weights are float32: 4 bytes per
parameter.
"""

import json
import tracemalloc

import numpy as np

from repro import build_mixtral_8x7b_sim
from repro.hardware.timeline import CPU, GPU, Timeline
from repro.trace.recorder import DECODE, PREFILL, ActivationTrace

N_ITEMS = 20_000

#: Bytes per op; an object per op with its own label cost ~260-310.
MAX_BYTES_PER_OP = 96
#: Bytes per routing event, recorded one at a time, recorded a block at
#: a time or restored from a checkpoint.  A top-2 row of typed columns
#: measures ~33; a slotted event object sharing its expert tuples cost
#: ~113 (~94 restored), and a ``__dict__`` event with its own expert
#: tuples ~210-225.
MAX_BYTES_PER_EVENT = 40


def _bytes_per_item(build) -> float:
    """Traced bytes still allocated after ``build()``, per item."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept is not None
    return (after - before) / N_ITEMS


def _timeline() -> Timeline:
    """20k ops with 0-1 dependencies and 128 distinct labels, each
    formatted per op as the engines do."""
    tl = Timeline()
    last = None
    for i in range(N_ITEMS):
        deps = [last] if last is not None and i % 2 else None
        last = tl.add(GPU if i % 3 else CPU, 1e-3 * (1 + i % 7), deps=deps,
                      label=f"expert B{i % 128}", kind="expert_gpu")
    return tl


def _trace() -> ActivationTrace:
    """20k top-2 routing events of an 8-expert, 32-block model."""
    trace = ActivationTrace(n_blocks=32, n_experts=8)
    for i in range(N_ITEMS):
        first = i % 8
        second = (first + 1 + (i // 8) % 7) % 8
        trace.record(PREFILL if i < N_ITEMS // 4 else DECODE, i % 32,
                     i // 32, np.array([first, second]))
    return trace


def _trace_by_block() -> ActivationTrace:
    """The same 20k events, recorded as prefill does: one
    ``(tokens, top_k)`` selection per block."""
    trace = ActivationTrace(n_blocks=32, n_experts=8)
    first = np.arange(N_ITEMS // 32) % 8
    second = (first + 1 + (np.arange(N_ITEMS // 32) // 8) % 7) % 8
    selection = np.stack([first, second], axis=1)
    for block in range(32):
        trace.record_rows(PREFILL, block, 0, selection)
    return trace


def test_timeline_bytes_per_op():
    assert _bytes_per_item(_timeline) <= MAX_BYTES_PER_OP


def test_trace_bytes_per_event():
    assert _bytes_per_item(_trace) <= MAX_BYTES_PER_EVENT
    assert _bytes_per_item(_trace_by_block) <= MAX_BYTES_PER_EVENT
    # A resumed run restores its trace from checkpoint JSON.
    payload = json.loads(json.dumps(_trace().to_state_dict()))
    restored = _bytes_per_item(
        lambda: ActivationTrace.from_state_dict(payload)
    )
    assert restored <= MAX_BYTES_PER_EVENT


def test_weight_bytes_per_parameter():
    """Mixtral-sim's 6.7 M parameters take 25.7 MiB (51.3 MiB if float64)."""
    model = build_mixtral_8x7b_sim(seed=0).model
    arrays = [model.embedding, model.final_norm.gain]
    for block in model.blocks:
        arrays.extend(block.weight_arrays())
    assert sum(array.nbytes for array in arrays) == 4 * model.n_params
