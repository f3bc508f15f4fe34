"""Checkpoint/restore across the serving stack: parity and rejection.

The lifecycle invariant (docs/lifecycle.md): freezing any simulation
between ticks, pushing the checkpoint through real JSON bytes, and
restoring it into a freshly built simulator finishes with a bitwise
identical report.  The envelope must also *refuse* to resume anything
it cannot resume faithfully — corrupted bytes, version skew, a foreign
simulator kind, or a mismatched configuration.
"""

import json

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, build_policy
from repro.core import build_engine
from repro.events import CHECKPOINT_RESTORE, CHECKPOINT_SAVE
from repro.scenarios.arrivals import poisson_arrivals
from repro.serving import (
    CheckpointError,
    SERVING_KIND,
    ServingSimulator,
    SimCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.workloads import SHAREGPT, SequenceGenerator
from repro.workloads.requests import uniform_requests


def make_specs(bundle, n=4, prompt_len=12, output_len=5, seed=7,
               rate=0.05):
    """A small deterministic request list."""
    generator = SequenceGenerator(SHAREGPT, bundle.vocab, seed=seed)
    arrivals = poisson_arrivals(rate, n, np.random.default_rng(seed))
    return uniform_requests(generator, arrivals, prompt_len, output_len)


def serving_records(report):
    """JSON-stable per-request tuples for bitwise comparison."""
    return [
        (r.request_id, r.arrival_s, r.start_s, r.first_token_s,
         r.finish_s, r.n_prompt_tokens, r.n_generated, r.energy_j)
        for r in sorted(report.requests, key=lambda r: r.request_id)
    ]


def cluster_records(report):
    return [
        (r.request_id, r.replica, r.arrival_s, r.start_s,
         r.first_token_s, r.finish_s, r.n_generated, r.energy_j)
        for r in sorted(report.requests, key=lambda r: r.request_id)
    ]


def json_round_trip(checkpoint):
    """Serialize a checkpoint to real bytes and back, as disk would."""
    return SimCheckpoint.from_dict(
        json.loads(json.dumps(checkpoint.to_dict(), sort_keys=True))
    )


class TestSimCheckpointEnvelope:
    def _checkpoint(self):
        return SimCheckpoint(kind=SERVING_KIND, engine="daop",
                             payload={"concurrency": 2,
                                      "scheduler": {"x": [1, 2]}})

    def test_round_trip_through_json(self):
        restored = json_round_trip(self._checkpoint())
        assert restored == self._checkpoint()

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(CheckpointError, match="unknown checkpoint"):
            SimCheckpoint(kind="warp-drive", engine="daop", payload={})

    def test_missing_payload_rejected(self):
        with pytest.raises(CheckpointError,
                           match="not a simulation checkpoint"):
            SimCheckpoint.from_dict({"version": 1, "kind": SERVING_KIND})
        with pytest.raises(CheckpointError,
                           match="not a simulation checkpoint"):
            SimCheckpoint.from_dict([1, 2, 3])

    def test_version_skew_rejected(self):
        data = self._checkpoint().to_dict()
        data["version"] = 99
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 99"):
            SimCheckpoint.from_dict(data)

    def test_mode_carrying_version_1_rejected(self):
        """Version 1 envelopes carry the removed execution-mode field."""
        data = SimCheckpoint(kind=SERVING_KIND, engine="daop", version=1,
                             payload={"concurrency": 2, "mode": "gathered",
                                      "scheduler": {}}).to_dict()
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 1"):
            SimCheckpoint.from_dict(data)

    def test_corruption_rejected(self):
        data = self._checkpoint().to_dict()
        data["payload"]["concurrency"] = 3  # flip a bit, keep the digest
        with pytest.raises(CheckpointError, match="corrupted"):
            SimCheckpoint.from_dict(data)
        data = self._checkpoint().to_dict()
        data["engine"] = "fiddler"
        with pytest.raises(CheckpointError, match="corrupted"):
            SimCheckpoint.from_dict(data)

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "sim.ckpt.json"
        save_checkpoint(str(path), self._checkpoint())
        assert load_checkpoint(str(path)) == self._checkpoint()

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            load_checkpoint(str(path))

    def test_load_rejects_truncated_file(self, tmp_path):
        """A checkpoint cut off mid-write (a crashed saver) is refused."""
        path = tmp_path / "full.json"
        save_checkpoint(str(path), self._checkpoint())
        text = path.read_text()
        truncated = tmp_path / "truncated.json"
        truncated.write_text(text[: len(text) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(truncated))


class TestServingResumeParity:
    def _simulator(self, tiny_bundle, platform, tiny_calibration,
                   engine="daop", concurrency=2):
        built = build_engine(engine, tiny_bundle, platform, 0.5,
                             tiny_calibration)
        return ServingSimulator(built, concurrency=concurrency)

    @pytest.mark.parametrize("cut", [1, 3, 6])
    def test_resume_matches_uninterrupted_run(
            self, tiny_bundle, platform, tiny_calibration, cut):
        specs = make_specs(tiny_bundle)
        reference = self._simulator(
            tiny_bundle, platform, tiny_calibration).run_requests(specs)

        first = self._simulator(tiny_bundle, platform, tiny_calibration)
        session = first.begin_session(specs)
        alive = True
        for _ in range(cut):
            alive = first.tick(session)
            if not alive:
                break
        checkpoint = json_round_trip(first.checkpoint(session))

        second = self._simulator(tiny_bundle, platform, tiny_calibration)
        resumed = second.restore(checkpoint)
        while second.tick(resumed):
            pass
        report = second.finish_session(resumed)
        assert serving_records(report) == serving_records(reference)

    def test_config_mismatch_rejected(self, tiny_bundle, platform,
                                      tiny_calibration):
        first = self._simulator(tiny_bundle, platform, tiny_calibration,
                                concurrency=2)
        checkpoint = first.checkpoint(
            first.begin_session(make_specs(tiny_bundle)))
        narrower = self._simulator(tiny_bundle, platform,
                                   tiny_calibration, concurrency=1)
        with pytest.raises(CheckpointError,
                           match="serving configuration mismatch"):
            narrower.restore(checkpoint)

    def test_foreign_engine_rejected(self, tiny_bundle, platform,
                                     tiny_calibration):
        first = self._simulator(tiny_bundle, platform, tiny_calibration,
                                engine="daop")
        checkpoint = first.checkpoint(
            first.begin_session(make_specs(tiny_bundle)))
        other = self._simulator(tiny_bundle, platform, tiny_calibration,
                                engine="fiddler")
        with pytest.raises(CheckpointError):
            other.restore(checkpoint)

    def test_checkpoint_events_emitted(self, tiny_bundle, platform,
                                       tiny_calibration):
        simulator = self._simulator(tiny_bundle, platform,
                                    tiny_calibration)
        seen = []
        simulator.events.subscribe(
            seen.append, kinds=[CHECKPOINT_SAVE, CHECKPOINT_RESTORE])
        session = simulator.begin_session(make_specs(tiny_bundle))
        simulator.tick(session)
        checkpoint = simulator.checkpoint(session)
        simulator.restore(checkpoint)
        kinds = [event.kind for event in seen]
        assert kinds == [CHECKPOINT_SAVE, CHECKPOINT_RESTORE]
        assert seen[0].payload["sim_kind"] == SERVING_KIND
        assert seen[0].payload["engine"] == "daop"


class TestClusterResumeParity:
    def _simulator(self, tiny_bundle, platform, tiny_calibration,
                   n_replicas=2, policy="round-robin", **kwargs):
        engines = [
            build_engine("fiddler", tiny_bundle, platform, 0.5,
                         tiny_calibration)
            for _ in range(n_replicas)
        ]
        return ClusterSimulator(engines, None, build_policy(policy),
                                **kwargs)

    @pytest.mark.parametrize("cut", [1, 4])
    def test_resume_matches_uninterrupted_run(
            self, tiny_bundle, platform, tiny_calibration, cut):
        specs = make_specs(tiny_bundle, n=5, rate=0.02)
        reference = self._simulator(
            tiny_bundle, platform, tiny_calibration).run_requests(specs)

        first = self._simulator(tiny_bundle, platform, tiny_calibration)
        session = first.begin_session(specs)
        for _ in range(cut):
            if not first.tick(session):
                break
        checkpoint = json_round_trip(first.checkpoint(session))

        second = self._simulator(tiny_bundle, platform, tiny_calibration)
        resumed = second.restore(checkpoint)
        while second.tick(resumed):
            pass
        report = second.finish_session(resumed)
        assert cluster_records(report) == cluster_records(reference)
        assert report.to_json() == reference.to_json()

    def test_kind_mismatch_rejected_both_ways(
            self, tiny_bundle, platform, tiny_calibration):
        cluster = self._simulator(tiny_bundle, platform, tiny_calibration)
        cluster_ckpt = cluster.checkpoint(
            cluster.begin_session(make_specs(tiny_bundle, n=2)))

        engine = build_engine("fiddler", tiny_bundle, platform, 0.5,
                              tiny_calibration)
        serving = ServingSimulator(engine)
        serving_ckpt = serving.checkpoint(
            serving.begin_session(make_specs(tiny_bundle, n=2)))

        with pytest.raises(CheckpointError,
                           match="cannot resume on a serving simulator"):
            serving.restore(cluster_ckpt)
        with pytest.raises(
                CheckpointError,
                match="cannot restore a 'serving' checkpoint"):
            cluster.restore(serving_ckpt)

    def test_hold_carrying_version_2_rejected(
            self, tiny_bundle, platform, tiny_calibration):
        """Version 2 cluster payloads carry the removed carry-placement
        and admission-hold fields; they must not resume."""
        cluster = self._simulator(tiny_bundle, platform, tiny_calibration)
        current = cluster.checkpoint(
            cluster.begin_session(make_specs(tiny_bundle, n=2)))
        payload = json.loads(json.dumps(current.payload))
        payload["carry_placement"] = True
        payload["admission"].update(batch_hold_s=0.0, crossover_tokens=0)
        data = SimCheckpoint(kind=current.kind, engine=current.engine,
                             payload=payload, version=2).to_dict()
        with pytest.raises(CheckpointError,
                           match="unsupported checkpoint version 2"):
            SimCheckpoint.from_dict(data)

    def test_fleet_config_mismatch_rejected(
            self, tiny_bundle, platform, tiny_calibration):
        first = self._simulator(tiny_bundle, platform, tiny_calibration,
                                n_replicas=2)
        checkpoint = first.checkpoint(
            first.begin_session(make_specs(tiny_bundle, n=3)))
        bigger = self._simulator(tiny_bundle, platform, tiny_calibration,
                                 n_replicas=3)
        with pytest.raises(CheckpointError,
                           match="checkpoint n_replicas mismatch"):
            bigger.restore(checkpoint)
        other_policy = self._simulator(tiny_bundle, platform,
                                       tiny_calibration,
                                       policy="join-shortest-queue")
        with pytest.raises(CheckpointError,
                           match="checkpoint policy mismatch"):
            other_policy.restore(checkpoint)
