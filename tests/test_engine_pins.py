"""Byte pins of every engine's observable behaviour.

Each pin is the sha256 of one finished result's token stream, timeline
(:func:`~repro.audit.timeline_signature` plus dependency edges), trace
events, ``EngineCounters`` and final placement matrix.  The runs cover
each engine's residency paths: cache hits, evictions, stream-through at
zero capacity, prefetches, eviction policies, DAOP's decode
re-allocation, and a continuous batch per caching baseline.  A refactor
of residency bookkeeping must reproduce every byte; a declared
behaviour change re-pins the affected runs and explains the delta.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.audit import timeline_signature
from repro.core import ENGINE_NAMES, build_engine
from repro.core.engine import SequenceRequest
from repro.memory.policies import LFU, PRIORITY
from repro.sched import ContinuousBatchScheduler
from repro.workloads import C4, SequenceGenerator

#: ``(engine, expert cache ratio) -> digest`` of ``generate()`` on the
#: golden recipe (tiny model, 8 blocks, C4 seed 3, 12 prompt and 6
#: teacher-forced tokens).  ECR 0 is moe-ondemand's stream-through path.
GENERATE_PINS = {
    ("daop", 0.25): "0cc7b699b564fa2853b770115768e8f6aab9fb319deb713d67ee780fe34fb9f1",
    ("daop", 0.5): "e711edd5a6763ae4ddba8c344d343f783947de0dbd90ce8bf5481d7659853f26",
    ("deepspeed-mii", 0.25): "1377fb070ecdd5ff04fdc246ccacda46c40624cef53697c99903ddc67596e8bd",
    ("deepspeed-mii", 0.5): "1377fb070ecdd5ff04fdc246ccacda46c40624cef53697c99903ddc67596e8bd",
    ("fiddler", 0.25): "655246d45de046ca93a3c87f6347c3ca04fa21ddbf5dbb3c422e1c3cd77e8a86",
    ("fiddler", 0.5): "19192c5f2c5e44c22d75378afecf0f0c4f8c4cc953d5384c85d4e040dca5d036",
    ("mixtral-offloading", 0.25): "8bb79c0589595034db4bb93a8121d32d270f5bf9c82d9c19854fe80878703bf6",
    ("mixtral-offloading", 0.5): "62f0d021c06142fc6d701828cc63f6c17850449596fa4f637a58e14239220032",
    ("moe-infinity", 0.25): "bd77a5e24ec14916d0176ed60ac09daf7dff550cc6033eee3222d7028f500317",
    ("moe-infinity", 0.5): "643f92114f21f8883aa0d24942d7f0ad6cfd0e1b8b8139ec36ac7ff91be1cb52",
    ("moe-ondemand", 0.0): "7107008d37693b24dd6b164a7fd68cb3d3f654f4b3d80337d4e00cb1f16ccb23",
    ("moe-ondemand", 0.25): "ef0d23b6428ecd66a8315a0c797d829022c1a2a6dafdd01d52b7760056241d3a",
    ("moe-ondemand", 0.5): "3d1d28da97c193f459d66634bbf07f315b4a433b429cc026fa75b0e9f87efb3c",
    ("official", 0.25): "5729570c4eb781b99e50a28fe1aed02755358cb055cb1303beabfc690b6ac820",
    ("official", 0.5): "5729570c4eb781b99e50a28fe1aed02755358cb055cb1303beabfc690b6ac820",
    ("pregated-moe", 0.25): "f44099c48601014f0c1866516100d2ff3fcca049d38b1ee840d701d779e62dab",
    ("pregated-moe", 0.5): "af5cb59e87a6386a902947a637480d9fd3d204a7b022832297480168cb4bf58b",
}

#: Variant runs on the golden recipe: ``label -> digest``.
VARIANT_PINS = {
    "moe-ondemand-lfu": "ff35b1dea76c008718f9515a32b824433a5339da3e4f5ab89f1547692e90c879",
    "moe-ondemand-priority": "75d1818ab452a298b2807d86658227cde7d5456561bc70d5a1cef8d0f4d759a8",
    "daop-realloc-2": "67c55328c1dcfbd9956a7dbd4c74e0855bd9338e23070c874ced87b7cfa2fb5d",
}

#: ``engine -> [digest per record, in seq_id order]`` of a
#: ``ContinuousBatchScheduler(max_batch=4)`` run at ECR 0.25.
BATCH_PINS = {
    "moe-ondemand": [
        "2913e93603cb725b59e3479aa467b13b31c88fff63559c7170b17f0a6c678db1",
        "2fdf4884aad51715d8aef9a54e0675999913053a7449d27f4d33d2d47f955a49",
        "725f7ae8def942c33e3a5dedeac8a6e60f7b6b63f6bbc2a19fb5f8e1d4db3ba6",
        "065ad8913bba72fa092365c9de90d062fde8b231ff77d7d2fd5c0ff747226a93",
        "cd4343cba5e6e2818c47415ccbe1e0f7d17799df4b72138b0d4d586172aaee8a",
        "5524662b2bb75c03c49b4b6689384db7d34df8eaf65e1e315d50fc45486142e0",
    ],
    "mixtral-offloading": [
        "c197aa4f80fceecd7476c05bd5e7be4c25bc65e29f706c5c7ce995e4b4214a6a",
        "c6cc3f95c23ed36409e0823a3dfacd8effccee6f1c3ea511e2001e54b9489464",
        "f82a76ad4c5158b64ae01945ea7885d75f3b871dc17c4aff62390491d69bc4a6",
        "1bedcab8dae5d3d12047613b76df18152be7810f4cc4113e11c94be583c22746",
        "2caa9687ac754bbddc03860e63c3d5273c14c2e2e9acc610929986d538704884",
        "f46bb5745beeffe0516f48008158eaaf44bce641f382a30dc4d6d9a1e3277bec",
    ],
    "pregated-moe": [
        "bd5cb63713bff11a292a4837ef888e28fef7c290ac2c28b6f2c397fcd40671d8",
        "fb1492f65caba02053d56470dc963c1c8277f9fa953978103ee9b0b8c35ff4d4",
        "13576f226bd0025a205bfb918715c2d1de93a7cc76e0612ee002a56095b500b5",
        "6bf14b95538888254e8b96dc38837863fcbd978736f96650656eef0a07825f4f",
        "a08c3c9f323fc66fc76d54082fd9d6162cca553b6d187d8140c03213da179274",
        "bc165c2cd1fb0e342bb39e2b1555e7fa137509c9c3e9ea0e9c8aa648a110dfb3",
    ],
    "moe-infinity": [
        "e5d1f7d580f7e04b8a5b0efc1eecbb253784f8ffae7d9f556cb1e44560a95b10",
        "3d975bc19fb8b22da29d4b5cc63133a5ce5685e09e1dca9479916040a2c27e58",
        "50fef3dc5875d90f47074f323fc80cf1cf8655b2881da7f13176e2af4a791b1e",
        "467f246805bab8700bac6d5408e857bb1e3ec27803396d29068fdbac3f307e7a",
        "25c864e168f2dcdeea2d9aa6fd086a667cca84586e03e9f910d4abcdba792253",
        "0454c957ae37673dcc69d4abea19c4d52fb37edb22d887d4d6b9b78fa225f40f",
    ],
}

CACHING_BASELINES = ("moe-ondemand", "mixtral-offloading", "pregated-moe",
                     "moe-infinity")


def result_digest(result) -> str:
    """sha256 over a result's tokens, schedule, trace, counters and
    final placement."""
    body = {
        "tokens": result.tokens.tolist(),
        "timeline": [list(op) for op in timeline_signature(result.timeline)],
        "deps": [list(op.dep_indices) for op in result.timeline.ops],
        "trace": result.trace.to_state_dict(),
        "counters": result.stats.counters.to_state_dict(),
        "placement": result.placement.as_matrix().astype(int).tolist(),
    }
    blob = json.dumps(body, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def golden_generate(engine, n_new=6):
    """``generate()`` on the golden recipe with ``n_new`` tokens."""
    sequence = SequenceGenerator(C4, engine.bundle.vocab,
                                 seed=3).sample_sequence(12, n_new)
    return engine.generate(sequence.prompt_tokens, n_new,
                           forced_tokens=sequence.continuation_tokens)


def batch_requests(bundle):
    """Six overlapping requests: four share the batch, two queue."""
    generator = SequenceGenerator(C4, bundle.vocab, seed=5)
    requests = []
    for i in range(6):
        sequence = generator.sample_sequence(10, 6)
        requests.append(SequenceRequest(
            prompt_tokens=sequence.prompt_tokens, max_new_tokens=6,
            seq_id=i,
        ))
    return requests, np.array([0.0, 0.0, 0.01, 0.02, 0.03, 0.04])


def test_pins_cover_every_engine():
    assert {name for name, _ in GENERATE_PINS} == set(ENGINE_NAMES)
    assert set(BATCH_PINS) == set(CACHING_BASELINES)


@pytest.mark.parametrize("name,ecr", sorted(GENERATE_PINS))
def test_generate_pin(name, ecr, tiny_bundle, platform, tiny_calibration):
    engine = build_engine(name, tiny_bundle, platform, ecr,
                          tiny_calibration)
    assert result_digest(golden_generate(engine)) == \
        GENERATE_PINS[name, ecr]


def _variant(label, bundle, platform, calibration):
    if label == "moe-ondemand-lfu":
        engine = build_engine("moe-ondemand", bundle, platform, 0.5,
                              calibration, eviction_policy=LFU)
        return golden_generate(engine)
    if label == "moe-ondemand-priority":
        engine = build_engine("moe-ondemand", bundle, platform, 0.5,
                              calibration, eviction_policy=PRIORITY)
        return golden_generate(engine)
    # DAOP's decode re-allocation: 16 tokens give it three swaps.
    engine = build_engine("daop", bundle, platform, 0.5, calibration,
                          decode_realloc_interval=2)
    result = golden_generate(engine, n_new=16)
    assert result.stats.counters.decode_swaps > 0
    return result


@pytest.mark.parametrize("label", ["moe-ondemand-lfu",
                                   "moe-ondemand-priority",
                                   "daop-realloc-2"])
def test_variant_pin(label, tiny_bundle, platform, tiny_calibration):
    result = _variant(label, tiny_bundle, platform, tiny_calibration)
    assert result_digest(result) == VARIANT_PINS[label]


@pytest.mark.parametrize("name", CACHING_BASELINES)
def test_batch_pin(name, tiny_bundle, platform, tiny_calibration):
    engine = build_engine(name, tiny_bundle, platform, 0.25,
                          tiny_calibration)
    requests, arrivals = batch_requests(tiny_bundle)
    report = ContinuousBatchScheduler(engine, max_batch=4).run(requests,
                                                               arrivals)
    records = sorted(report.records, key=lambda record: record.seq_id)
    assert [result_digest(record.result) for record in records] == \
        BATCH_PINS[name]
