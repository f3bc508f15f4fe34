"""The block-work protocol and gathered-batch validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build_engine
from repro.core.batching import (
    CPU_LOC,
    GPU_LOC,
    AttentionRequest,
    BlockWork,
    ExpertCall,
    GatherStats,
    PrecalcWork,
    group_block_work,
)
from repro.audit.parity import value_differences
from repro.core.engine import SequenceRequest
from repro.hardware.timeline import ResourceClock, Timeline


def _call(expert, location, rows=1):
    return ExpertCall(
        expert=expert, location=location,
        h_att=np.zeros((rows, 4), dtype=np.float32), deps=(),
    )


def _prompt(bundle, seed=0, n=10):
    rng = np.random.default_rng(seed)
    return rng.integers(0, bundle.vocab.vocab_size, size=n, dtype=np.int64)


# ---- data types --------------------------------------------------------------


def test_expert_call_n_rows_counts_selection():
    full = _call(0, GPU_LOC, rows=3)
    assert full.n_rows == 3
    selected = ExpertCall(
        expert=0, location=GPU_LOC,
        h_att=np.zeros((3, 4), dtype=np.float32), deps=(),
        token_idx=np.asarray([0, 2]),
    )
    assert selected.n_rows == 2


def test_gather_stats_amortization():
    stats = GatherStats()
    assert stats.expert_amortization == 1.0
    stats.expert_ops = 8
    stats.expert_kernels = 2
    assert stats.expert_amortization == pytest.approx(4.0)


def test_group_block_work_merges_across_sequences():
    work_a = BlockWork(block_idx=3, calls=(
        _call(1, GPU_LOC), _call(2, CPU_LOC),
    ))
    work_b = BlockWork(block_idx=3, calls=(_call(1, GPU_LOC),))
    groups = group_block_work([work_a, work_b])
    assert groups[(3, 1, GPU_LOC)] == [(0, 0), (1, 0)]
    assert groups[(3, 2, CPU_LOC)] == [(0, 1)]
    # Same expert on another device is a different kernel.
    assert (3, 1, CPU_LOC) not in groups


def test_group_block_work_preserves_admission_order():
    works = [
        BlockWork(block_idx=0, calls=(_call(5, GPU_LOC),))
        for _ in range(4)
    ]
    groups = group_block_work(works)
    assert groups[(0, 5, GPU_LOC)] == [(i, 0) for i in range(4)]


# ---- step_batch validation ---------------------------------------------------


@pytest.fixture()
def daop(tiny_bundle, platform, tiny_calibration):
    return build_engine("daop", tiny_bundle, platform,
                        expert_cache_ratio=0.5,
                        calibration_probs=tiny_calibration)


def test_step_batch_rejects_empty(daop):
    with pytest.raises(ValueError):
        daop.step_batch([])


def test_step_batch_rejects_prefill_phase(daop, tiny_bundle):
    state = daop.start(SequenceRequest(
        prompt_tokens=_prompt(tiny_bundle), max_new_tokens=4,
    ))
    with pytest.raises(RuntimeError, match="prefill"):
        daop.step_batch([state])


def test_step_batch_rejects_done_sequence(daop, tiny_bundle):
    state = daop.start(SequenceRequest(
        prompt_tokens=_prompt(tiny_bundle), max_new_tokens=1,
    ))
    daop.step(state)
    assert state.done
    with pytest.raises(RuntimeError, match="finish"):
        daop.step_batch([state])


def test_step_batch_rejects_mixed_clocks(daop, tiny_bundle):
    states = []
    for seed in (0, 1):
        state = daop.start(
            SequenceRequest(prompt_tokens=_prompt(tiny_bundle, seed),
                            max_new_tokens=4, seq_id=seed),
            timeline=Timeline(clock=ResourceClock()),
        )
        daop.step(state)
        states.append(state)
    with pytest.raises(ValueError, match="ResourceClock"):
        daop.step_batch(states)


def test_step_batch_single_state_matches_step(daop, tiny_bundle):
    """n=1 gathered execution degenerates to the solo schedule bitwise."""
    prompt = _prompt(tiny_bundle)
    solo = daop.start(SequenceRequest(prompt_tokens=prompt,
                                      max_new_tokens=4))
    batched = daop.start(SequenceRequest(prompt_tokens=prompt,
                                         max_new_tokens=4))
    daop.step(solo)
    daop.step(batched)
    while not solo.done:
        daop.step(solo)
        daop.step_batch([batched])
    assert batched.done
    assert solo.generated == batched.generated
    assert len(solo.timeline.ops) == len(batched.timeline.ops)
    for got, want in zip(batched.timeline.ops, solo.timeline.ops):
        assert (got.resource, got.kind, got.start, got.end) == \
            (want.resource, want.kind, want.start, want.end)


def test_step_batch_distinct_sequences_share_kernels(
        daop, tiny_bundle):
    """Two decode-phase sequences on one clock gather same-expert calls."""
    clock = ResourceClock()
    states = []
    for seed in (0, 1):
        state = daop.start(
            SequenceRequest(prompt_tokens=_prompt(tiny_bundle, seed),
                            max_new_tokens=4, seq_id=seed),
            timeline=Timeline(clock=clock),
        )
        daop.step(state)
        states.append(state)
    stats = GatherStats()
    results = daop.step_batch(states, gather_stats=stats)
    assert len(results) == 2
    assert all(r.phase == "decode" for r in results)
    assert stats.expert_ops >= stats.expert_kernels > 0
    assert stats.lm_head_kernels == 1
    assert stats.lm_head_ops == 2


# ---- step_prefill_batch validation and parity --------------------------------


def test_step_prefill_batch_rejects_empty(daop):
    with pytest.raises(ValueError):
        daop.step_prefill_batch([])


def test_step_prefill_batch_rejects_decode_phase(daop, tiny_bundle):
    state = daop.start(SequenceRequest(
        prompt_tokens=_prompt(tiny_bundle), max_new_tokens=4,
    ))
    daop.step(state)
    with pytest.raises(RuntimeError, match="decode"):
        daop.step_prefill_batch([state])


def test_step_prefill_batch_rejects_done_sequence(daop, tiny_bundle):
    state = daop.start(SequenceRequest(
        prompt_tokens=_prompt(tiny_bundle), max_new_tokens=1,
    ))
    daop.step(state)
    assert state.done
    with pytest.raises(RuntimeError, match="finish"):
        daop.step_prefill_batch([state])


def test_step_prefill_batch_rejects_mixed_clocks(daop, tiny_bundle):
    states = [
        daop.start(
            SequenceRequest(prompt_tokens=_prompt(tiny_bundle, seed),
                            max_new_tokens=4, seq_id=seed),
            timeline=Timeline(clock=ResourceClock()),
        )
        for seed in (0, 1)
    ]
    with pytest.raises(ValueError, match="ResourceClock"):
        daop.step_prefill_batch(states)


def test_step_prefill_batch_single_state_matches_step(daop, tiny_bundle):
    """n=1 gathered prefill degenerates to the solo schedule bitwise."""
    prompt = _prompt(tiny_bundle)
    solo = daop.start(SequenceRequest(prompt_tokens=prompt,
                                      max_new_tokens=4))
    batched = daop.start(SequenceRequest(prompt_tokens=prompt,
                                         max_new_tokens=4))
    daop.step(solo)
    daop.step_prefill_batch([batched])
    assert solo.generated == batched.generated
    assert len(solo.timeline.ops) == len(batched.timeline.ops)
    for got, want in zip(batched.timeline.ops, solo.timeline.ops):
        assert (got.resource, got.kind, got.start, got.end) == \
            (want.resource, want.kind, want.start, want.end)


def test_step_prefill_batch_cohort_counts_and_token_parity(
        daop, tiny_bundle):
    """A two-sequence cohort gathers every stage yet samples solo tokens."""
    prompts = [_prompt(tiny_bundle, seed) for seed in (0, 1)]
    solo_tokens = []
    for prompt in prompts:
        solo = daop.start(SequenceRequest(prompt_tokens=prompt,
                                          max_new_tokens=4))
        daop.step(solo)
        solo_tokens.append(list(solo.generated))

    clock = ResourceClock()
    states = [
        daop.start(
            SequenceRequest(prompt_tokens=prompt, max_new_tokens=4,
                            seq_id=i),
            timeline=Timeline(clock=clock),
        )
        for i, prompt in enumerate(prompts)
    ]
    stats = GatherStats()
    results = daop.step_prefill_batch(states, gather_stats=stats)
    assert all(r.phase == "prefill" for r in results)
    assert [list(s.generated) for s in states] == solo_tokens

    n_blocks = len(tiny_bundle.model.blocks)
    assert stats.attn_kernels == n_blocks
    assert stats.attn_ops == 2 * n_blocks
    assert stats.gate_kernels == n_blocks
    assert stats.gate_ops == 2 * n_blocks
    assert stats.prefill_expert_ops >= stats.prefill_expert_kernels > 0
    assert stats.prefill_lm_head_kernels == 1
    assert stats.prefill_lm_head_ops == 2
    # Totals accrue to the same ledger, so the decode share stays zero.
    assert stats.decode_expert_ops == 0
    assert stats.lm_head_ops == stats.prefill_lm_head_ops


# ---- gathered pre-calculation ------------------------------------------------


def _decode_cohort(engine, bundle, seeds, monkeypatch):
    """Prefill ``seeds``' prompts on one clock, then gather one decode step.

    Returns the states and every pre-calculation sub-round the step ran,
    as ``(works, results)`` pairs of ``_execute_block_work_gathered``.
    """
    rounds = []
    execute = engine._execute_block_work_gathered

    def spy(works, gather_stats=None, phase="decode"):
        results = execute(works, gather_stats, phase)
        if isinstance(works[0][1], PrecalcWork):
            rounds.append((works, results))
        return results

    clock = ResourceClock()
    states = []
    for seed in seeds:
        state = engine.start(
            SequenceRequest(prompt_tokens=_prompt(bundle, seed),
                            max_new_tokens=4, seq_id=seed),
            timeline=Timeline(clock=clock),
        )
        engine.step(state)
        states.append(state)
    monkeypatch.setattr(engine, "_execute_block_work_gathered", spy)
    engine.step_batch(states)
    return states, rounds


def _solo_decode(engine, bundle, seed):
    """The same prompt's prefill and first decode step, alone."""
    state = engine.start(SequenceRequest(
        prompt_tokens=_prompt(bundle, seed), max_new_tokens=4, seq_id=seed,
    ))
    engine.step(state)
    engine.step(state)
    return state


def _op_names(state):
    return sorted((op.label, op.kind) for op in state.timeline.ops)


def test_shared_precalc_expert_runs_as_one_cpu_kernel(
        daop, tiny_bundle, platform, monkeypatch):
    """Two members pre-calculating one (block, expert) share its kernel."""
    states, rounds = _decode_cohort(daop, tiny_bundle, (2, 3), monkeypatch)
    shared = [
        (works, results) for works, results in rounds
        if len(works) == 2
        and works[0][1].block_idx == works[1][1].block_idx
        and works[0][1].calls[0].expert == works[1][1].calls[0].expert
    ]
    assert shared, "seeds 2 and 3 no longer share a pre-calculation"
    overhead = daop.framework_overhead_s
    for works, results in shared:
        h2ds = [result[0][1] for result in results]
        cpus = [state.timeline.ops[h2d.dep_indices[0]]
                for state, h2d in zip(states, h2ds)]
        d2hs = [state.timeline.ops[cpu.dep_indices[0]]
                for state, cpu in zip(states, cpus)]
        pred_gates = [state.timeline.ops[d2h.dep_indices[0]]
                      for state, d2h in zip(states, d2hs)]
        assert [op.kind for op in cpus] == ["expert_cpu"] * 2
        assert all(op.label.startswith("pred-gate") for op in pred_gates)
        assert sum(op.duration for op in cpus) == pytest.approx(
            overhead + daop.cost_model.expert_time(platform.cpu, 2),
            rel=1e-12,
        )
        # One kernel: the first slice waits for the later pred-gate, and
        # the second slice follows it directly on each lane.
        assert pred_gates[0].end < pred_gates[1].end <= d2hs[0].start
        for first, second in (d2hs, cpus, h2ds):
            assert second.start == first.end

    for state in states:
        solo = _solo_decode(daop, tiny_bundle, state.seq_id)
        assert state.generated == solo.generated
        assert state.counters.cpu_expert_execs == \
            solo.counters.cpu_expert_execs
        assert state.counters.stale_input_execs == \
            solo.counters.stale_input_execs > 0


def test_member_without_precalc_keeps_the_cohort_block_locked(
        daop, tiny_bundle, monkeypatch):
    """A round where one member pre-calculates and the other does not
    still advances both a block at a time (the stacked attention round
    raises on a lost lock), and each records its solo run's ops."""
    states, rounds = _decode_cohort(daop, tiny_bundle, (0, 1), monkeypatch)
    assert any(len(works) == 1 for works, _ in rounds)
    for state in states:
        solo = _solo_decode(daop, tiny_bundle, state.seq_id)
        assert state.generated == solo.generated
        assert _op_names(state) == _op_names(solo)


def test_precalc_values_equal_solo_expert_forward(
        daop, tiny_bundle, monkeypatch):
    """Each member's pre-calculated output is its solo ``expert_forward``
    on the stale input, byte for byte, gathered or not."""
    _, rounds = _decode_cohort(daop, tiny_bundle, (2, 3), monkeypatch)
    assert any(len(works) == 2 for works, _ in rounds)
    blocks = tiny_bundle.model.blocks
    for works, results in rounds:
        for (_, work), result in zip(works, results):
            for call, (y, _) in zip(work.calls, result):
                solo = blocks[work.block_idx].expert_forward(
                    call.expert, call.h_att
                )
                assert y.tobytes() == solo.tobytes()


# ---- gathered swap uploads ---------------------------------------------------


def _prefill_cohort(engine, bundle, seeds, monkeypatch, max_new_tokens=2):
    """Prefill ``seeds``' prompts as one gathered cohort on one clock.

    Returns the states and every upload transfer the cohort landed, as
    ``(label, slice ops)`` pairs: one entry per physical transfer, one
    slice per member sharing it.
    """
    transfers = []
    add_slices = engine._add_slices

    def spy(resource, states, counts, total, deps, label, kind):
        ops = add_slices(resource, states, counts, total, deps, label, kind)
        if kind == "expert_upload":
            transfers.append((label, [op for op, in ops]))
        return ops

    monkeypatch.setattr(engine, "_add_slices", spy)
    clock = ResourceClock()
    states = [
        engine.start(
            SequenceRequest(prompt_tokens=_prompt(bundle, seed),
                            max_new_tokens=max_new_tokens, seq_id=seed),
            timeline=Timeline(clock=clock),
        )
        for seed in seeds
    ]
    engine.step_prefill_batch(states)
    return states, transfers


def test_shared_swap_lands_as_one_transfer(daop, tiny_bundle, monkeypatch):
    """Two members swapping one (block, expert) in share its upload."""
    states, transfers = _prefill_cohort(daop, tiny_bundle, (0, 1),
                                        monkeypatch)
    shared = [(label, ops) for label, ops in transfers if len(ops) == 2]
    assert shared, "seeds 0 and 1 no longer swap one expert in together"
    # One transfer per shared (block, expert), one per lone swap.
    assert len(transfers) + len(shared) == sum(
        state.counters.expert_uploads for state in states
    )
    transfer = (daop.framework_overhead_s
                + daop.cost_model.expert_transfer_time())
    for label, slices in shared:
        assert [op.label for op in slices] == [label] * 2
        assert sum(op.duration for op in slices) == pytest.approx(
            transfer, rel=1e-12
        )
        assert slices[1].start == slices[0].end
        kernels = [
            next(op for op in state.timeline.ops
                 if op.label == f"{label[3:]} gpu")
            for state in states
        ]
        # The shared kernel waits for the whole transfer.
        for kernel in kernels:
            assert kernel.start >= slices[1].end


def test_lone_swap_keeps_a_full_transfer(daop, tiny_bundle, monkeypatch):
    """A swap only one member makes pays the whole upload."""
    _, transfers = _prefill_cohort(daop, tiny_bundle, (0, 1), monkeypatch)
    lone = [ops[0] for _, ops in transfers if len(ops) == 1]
    assert lone, "seeds 0 and 1 no longer swap an expert in alone"
    transfer = (daop.framework_overhead_s
                + daop.cost_model.expert_transfer_time())
    assert all(op.duration == transfer for op in lone)


def test_gathered_swaps_keep_solo_values(daop, tiny_bundle, platform,
                                         monkeypatch, audit_result):
    """Sharing uploads changes the schedule, never a member's values."""
    states, _ = _prefill_cohort(daop, tiny_bundle, (0, 1), monkeypatch,
                                max_new_tokens=4)
    while not all(state.done for state in states):
        daop.step_batch([state for state in states if not state.done])
    for state in states:
        result = daop.finish(state)
        solo = daop.generate(_prompt(tiny_bundle, state.seq_id), 4)
        assert value_differences(solo, result) == []
        counters = result.stats.counters
        assert counters.prefill_swaps == solo.stats.counters.prefill_swaps > 0
        assert counters.expert_uploads == solo.stats.counters.expert_uploads
        audit_result(daop, result, platform=platform)


# ---- attention and router launches as cohort shares --------------------------


def _cohort(engine, prompts):
    """Start one sequence per prompt on one shared clock."""
    clock = ResourceClock()
    return [
        engine.start(
            SequenceRequest(prompt_tokens=prompt, max_new_tokens=4,
                            seq_id=i),
            timeline=Timeline(clock=clock),
        )
        for i, prompt in enumerate(prompts)
    ]


def _launch_shares(engine, states, step):
    """Run ``step(states)`` and check its attention and router ops.

    Each round's attention ops must sum to one QKV/O projection launch
    over the round's rows plus every member's own context work, and the
    ops of each router launch (one label: ``gate B<b>`` or
    ``pred-gate B<b>``) must sum to one launch over the rows of the
    members that charge it, each member holding its row share.  Returns
    ``{label: [member index, ...]}`` of the router launches.
    """
    cost, gpu = engine.cost_model, engine.platform.gpu
    overhead = engine.framework_overhead_s
    phase = states[0].phase
    rows = [int(state.request.prompt_tokens.size) if phase == "prefill"
            else 1 for state in states]
    contexts = [[len(cache) + n for cache in state.caches]
                for state, n in zip(states, rows)]
    marks = [len(state.timeline.ops) for state in states]
    step(states)
    launches: dict = {}
    for i, (state, mark) in enumerate(zip(states, marks)):
        for op in state.timeline.ops[mark:]:
            if op.kind in ("non_moe", "gate"):
                launches.setdefault(op.label, []).append((i, op))

    weights = cost.attention_weight_time(gpu, sum(rows))
    for block in range(engine.model.n_blocks):
        members = launches.pop(f"attn B{block} {phase}")
        assert [i for i, _ in members] == list(range(len(states)))
        own = [cost.attention_context_time(gpu, rows[i], contexts[i][block])
               for i in range(len(states))]
        assert sum(op.duration for _, op in members) == pytest.approx(
            overhead + weights + sum(own), rel=1e-12)
        for i, op in members:
            share = rows[i] / sum(rows)
            assert op.duration == pytest.approx(
                (overhead + weights) * share + own[i], rel=1e-12)

    routers = {}
    for label, members in launches.items():
        charged = sum(rows[i] for i, _ in members)
        kernel = overhead + cost.gate_time(gpu, charged)
        assert sum(op.duration for _, op in members) == pytest.approx(
            kernel, rel=1e-12)
        for i, op in members:
            assert op.duration == pytest.approx(
                kernel * rows[i] / charged, rel=1e-12)
        routers[label] = [i for i, _ in members]
    return routers


def test_decode_cohort_of_four_shares_attention_and_router_launches(
        tiny_bundle, platform, tiny_calibration):
    engine = build_engine("fiddler", tiny_bundle, platform, 0.5,
                          tiny_calibration)
    states = _cohort(engine, [_prompt(tiny_bundle, seed)
                              for seed in range(4)])
    for state in states:
        engine.step(state)
    routers = _launch_shares(engine, states, engine.step_batch)
    assert routers == {f"gate B{block}": [0, 1, 2, 3]
                       for block in range(engine.model.n_blocks)}


def test_mixed_length_prefill_cohort_shares_launches(daop, tiny_bundle):
    states = _cohort(daop, [_prompt(tiny_bundle, seed, n)
                            for seed, n in ((0, 6), (1, 16), (2, 10))])
    routers = _launch_shares(daop, states, daop.step_prefill_batch)
    assert routers == {f"gate B{block}": [0, 1, 2]
                       for block in range(daop.model.n_blocks)}


def test_daop_predicted_blocks_do_not_charge_their_own_router(
        daop, tiny_bundle):
    """A predicted block reads its own gate only for the oracle trace;
    the router launches are the true gates of unpredicted blocks and the
    pred-gates of the blocks after each predicting one."""
    states = _cohort(daop, [_prompt(tiny_bundle, seed) for seed in range(3)])
    for state in states:
        daop.step(state)
    routers = _launch_shares(daop, states, daop.step_batch)
    predictor = daop.predictor
    n_blocks = daop.model.n_blocks
    predicting = [block for block in range(n_blocks)
                  if predictor.can_predict_from(block)]
    assert predicting
    predicted = {block + 1 for block in predicting}
    expected = {f"gate B{block}": [0, 1, 2]
                for block in range(n_blocks) if block not in predicted}
    expected.update({f"pred-gate B{block}": [0, 1, 2]
                     for block in predicted})
    assert routers == expected


def test_router_rows_count_only_charging_members(daop, tiny_bundle):
    """One round where a member reads a gate it does not charge: the
    router's row total counts the charging member alone."""
    states = _cohort(daop, [_prompt(tiny_bundle, seed) for seed in range(2)])
    for state in states:
        daop.step(state)
    h = np.zeros((1, tiny_bundle.model.profile.sim.d_model), dtype=np.float32)
    requests = [
        AttentionRequest(block_idx=0, h=h,
                         positions=state.position + np.arange(1), deps=(),
                         gate_blocks=(0, 1), charged_gates=charged)
        for state, charged in zip(states, [(0, 1), (1,)])
    ]
    replies = daop._attention_round(states, requests, "decode")
    assert [gate_rows for _, _, gate_rows, _ in replies] == [[1, 2], [1, 2]]
