"""Unit tests for the typed simulation event bus (`repro.events`)."""

import json

import numpy as np
import pytest

from repro.core import build_engine
from repro.events import (
    EVENT_KINDS,
    ENGINE_STEP,
    SCHED_ADMIT,
    SEQUENCE_FINISH,
    SEQUENCE_START,
    EventBus,
    JsonlEventWriter,
    SimEvent,
    format_event,
)
from repro.scenarios.arrivals import poisson_arrivals
from repro.serving import ServingSimulator
from repro.workloads import SHAREGPT, SequenceGenerator


class TestEventBus:
    def test_emit_without_subscribers_is_free(self):
        bus = EventBus()
        assert not bus.active
        # No subscribers: the event is never built, so an unknown kind
        # is not even validated (the hot-path fast exit).
        bus.emit("definitely-not-a-kind", 0.0)
        bus.emit(ENGINE_STEP, 1.0, seq_id=3)
        # The sequence counter did not advance while unobserved.
        seen = []
        bus.subscribe(seen.append)
        bus.emit(ENGINE_STEP, 2.0)
        assert seen[0].seq == 0

    def test_emission_order_and_payload(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit(SEQUENCE_START, 0.5, seq_id=7, phase="prefill")
        bus.emit(ENGINE_STEP, 1.5, seq_id=7)
        assert [e.kind for e in seen] == [SEQUENCE_START, ENGINE_STEP]
        assert [e.seq for e in seen] == [0, 1]
        assert seen[0].time_s == 0.5
        assert seen[0].payload == {"seq_id": 7, "phase": "prefill"}

    def test_kinds_filter(self):
        bus = EventBus()
        steps, everything = [], []
        bus.subscribe(steps.append, kinds=[ENGINE_STEP])
        bus.subscribe(everything.append)
        bus.emit(SEQUENCE_START, 0.0, seq_id=1)
        bus.emit(ENGINE_STEP, 1.0, seq_id=1)
        bus.emit(SEQUENCE_FINISH, 2.0, seq_id=1)
        assert [e.kind for e in steps] == [ENGINE_STEP]
        assert len(everything) == 3

    def test_unknown_kind_rejected(self):
        bus = EventBus()
        with pytest.raises(ValueError, match="unknown event kind"):
            bus.subscribe(lambda e: None, kinds=["no-such-kind"])
        bus.subscribe(lambda e: None)
        with pytest.raises(ValueError, match="unknown event kind"):
            bus.emit("no-such-kind", 0.0)

    def test_unsubscribe_removes_every_registration(self):
        bus = EventBus()
        seen = []
        callback = seen.append
        bus.subscribe(callback)
        bus.subscribe(callback, kinds=[ENGINE_STEP])
        assert bus.active
        bus.unsubscribe(callback)
        assert not bus.active
        bus.unsubscribe(callback)  # no-op on an absent callback
        bus.emit(ENGINE_STEP, 0.0)
        assert seen == []

    def test_event_to_dict_is_flat(self):
        event = SimEvent(kind=SCHED_ADMIT, time_s=2.0, seq=4,
                         payload={"seq_id": 9, "n_active": 2})
        assert event.to_dict() == {
            "kind": SCHED_ADMIT, "time_s": 2.0, "seq": 4,
            "seq_id": 9, "n_active": 2,
        }

    def test_every_registered_kind_emits(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        for kind in EVENT_KINDS:
            bus.emit(kind, 0.0)
        assert [e.kind for e in seen] == list(EVENT_KINDS)


class TestJsonlEventWriter:
    def test_writes_one_sorted_json_line_per_event(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        with JsonlEventWriter(str(path)) as writer:
            bus.subscribe(writer)
            bus.emit(SEQUENCE_START, 0.25, seq_id=1)
            bus.emit(ENGINE_STEP, 0.5, seq_id=1)
            assert writer.n_written == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == SEQUENCE_START
        assert first["seq_id"] == 1
        # Keys are sorted, so the log is byte-stable.
        assert lines[0] == json.dumps(first, sort_keys=True)

    def test_close_is_idempotent(self, tmp_path):
        writer = JsonlEventWriter(str(tmp_path / "e.jsonl"))
        writer.close()
        writer.close()


def test_format_event_renders_kind_and_sorted_payload():
    line = format_event(SimEvent(kind=ENGINE_STEP, time_s=1.5, seq=0,
                                 payload={"seq_id": 2, "block": 1}))
    assert ENGINE_STEP in line
    assert "1.5000s" in line
    assert line.index("block=1") < line.index("seq_id=2")


class TestServingObservation:
    """The bus on a live simulator: deterministic and effect-free."""

    def _simulator(self, tiny_bundle, platform, tiny_calibration):
        engine = build_engine("fiddler", tiny_bundle, platform, 0.5,
                              tiny_calibration)
        generator = SequenceGenerator(SHAREGPT, tiny_bundle.vocab, seed=7)
        return ServingSimulator(engine, generator, concurrency=2)

    def _run(self, simulator, subscribe):
        seen = []
        if subscribe:
            simulator.events.subscribe(seen.append)
        arrivals = poisson_arrivals(0.05, 3, np.random.default_rng(5))
        report = simulator.run(arrivals, 10, 4)
        records = [
            (r.request_id, r.arrival_s, r.start_s, r.first_token_s,
             r.finish_s, r.n_generated, r.energy_j)
            for r in report.requests
        ]
        return records, [(e.kind, e.time_s, e.seq, tuple(sorted(
            e.payload.items()))) for e in seen]

    def test_observation_is_free_and_deterministic(
            self, tiny_bundle, platform, tiny_calibration):
        blind, no_events = self._run(
            self._simulator(tiny_bundle, platform, tiny_calibration),
            subscribe=False)
        assert no_events == []
        watched_a, events_a = self._run(
            self._simulator(tiny_bundle, platform, tiny_calibration),
            subscribe=True)
        watched_b, events_b = self._run(
            self._simulator(tiny_bundle, platform, tiny_calibration),
            subscribe=True)
        # Subscribing changes nothing about the simulation...
        assert watched_a == blind
        # ...and the stream itself is deterministic.
        assert events_a == events_b
        kinds = {kind for kind, *_ in events_a}
        assert {SEQUENCE_START, ENGINE_STEP, SEQUENCE_FINISH,
                SCHED_ADMIT} <= kinds
        assert len(events_a) > len(blind)
