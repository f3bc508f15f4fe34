"""Byte pins of every engine's observable behaviour.

Each pin is the sha256 of one finished result's token stream, timeline
(:func:`~repro.audit.timeline_signature` plus dependency edges), trace
events, ``EngineCounters`` and final placement matrix.  The runs cover
each engine's residency paths: cache hits, evictions, stream-through at
zero capacity, prefetches, eviction policies, DAOP's decode
re-allocation, DAOP without pre-calculation, and a continuous batch per
caching baseline and for DAOP.  A refactor of residency bookkeeping
must reproduce every byte; a declared behaviour change re-pins the
affected runs and explains the delta.
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
    "daop-no-precalc": "5662862bbc0709ddf4c6975883ecbda76a221dae4e662aec3b67beeec3ba3078",
    "daop-no-precalc-realloc-2": "609f5b53723bd934b12efb19d2a12974611b48970df78ff3cad35cdb684cdf30",
}

#: ``engine -> [digest per record, in seq_id order]`` of a
#: ``ContinuousBatchScheduler(max_batch=4)`` run at ECR 0.25: every
#: caching baseline, and DAOP's gathered pre-calculation rounds.
BATCH_PINS = {
    "daop": [
        "7600dd511a3ab72f61aa5a29dd2db2016024b531dc2e9f74b674b25bfaf27a32",
        "0fad9d71c6368178177e4087d486b35cb48f5a00f65261cb3fca31037f57fb2e",
        "82bc0fd8bcbd36ba06a03d2fa023286a75996a2c22ab7c3d57a2037a037a65d0",
        "5de991af2be04caae0736b9dd228960af61aa1732f7a981dc49a941d7925c2a6",
        "a39fffe6a9bfc917cd4d336593ed03db35e2235789b78a631f137c77394b9d3e",
        "bbcaa283c9af4436212a15d5e99d7b670501cad190227abe1b6dfbb2e9001c0b",
    ],
    "moe-ondemand": [
        "a0ff7d97712d34c4361a8aae16bfe27926f5bfa8f02f9a6d3708233eda8721b7",
        "3c47b19ac5631d68e1b5bc98a072e68e35ddf57e4af04aa67961d2b29356091f",
        "59a5b84bf7c290393623d3ddefdfcc513d3e4534282e8001023445b082ced620",
        "88628647f3fbe8d26f2646e00c720152d23393493d8e2aafab34b87472d7c871",
        "6189b5edd80b819aa877d5351dc66d307c21804ab4cf6a80c9664af46399bfe5",
        "5dc5570ffbaac19ff9ef65486581c14f0359050d9185b1fdda189c8e604912ac",
    ],
    "mixtral-offloading": [
        "750164a1d8d9b6f0a7f51e9515038d36ede9e86ac84e26885fc1fe1ce9d18a5f",
        "c624973dd81323c66b403e86491445b174dc8cafac5718f10046606bb334c973",
        "66ae6be978173c1751fc7e4ab9e760dc62986f2985dc8f892956d9b7e062aae7",
        "7f7f600605db0d13b12ea4b464932e5d50257b34a50d9ada4c0413903d5e7913",
        "9a21bebc89741b08aec63823ecb6429edba584b894bc0f40593ed1621d0ca409",
        "53c4d3033fb47c8b5bb7937c2f55a8d8d9415ddce29d491f22b002dc5944ceb8",
    ],
    "pregated-moe": [
        "edb41a8e112304178b37b6773305ed7f4e2e0f04638caec35d3d900ab342e5c6",
        "b79eaf9d697c4dc86df8aa3740054f4f029291a6b5eaa32da2e2d8ad1583a706",
        "353c4b06a4241eae0aaec723769ba5772ea1e247600e59d040f945d78ad01456",
        "e19fdfd3ed49c8d70e3070c062d70e1ad2efbe8db73a88c5e23b36d253d5d4c1",
        "ec37ade6cff06f3a8a76c4f97d3b33363eb3ee8649e7bf45937d50f3380d8b76",
        "4b82bbfc3de66be30150761ab8e1170745c8f609f11c2a4a6f23096594bb9b4b",
    ],
    "moe-infinity": [
        "ab11f9a376daa8bd96af18568c4d7648e1d81d9a110829c7b2bb21f75bd62f6e",
        "5d01032682d09925ceb770898569d97b0392b9b1de05ac762456f3b9c7e7cf82",
        "75cd798fe9aaa55485935e59a6ce02d45f643888a8e813142ce1c2f8d32db822",
        "6561d87cd05e8578a17b1964fc83acde1bd4a7194d6afe8683c508800afd6c55",
        "e50b6feb301dd9aba563917a385898ca5138e3b58fa224a888410c67f29bbbab",
        "400c9ab0cf2e35c4d19141cb7b2f3337b3df6da03c53c75bb3815cef3f1fab45",
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
    assert set(BATCH_PINS) == set(CACHING_BASELINES) | {"daop"}


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
    if label == "daop-no-precalc":
        engine = build_engine("daop", bundle, platform, 0.5, calibration,
                              enable_precalc=False)
        return golden_generate(engine)
    # DAOP's decode re-allocation: 16 tokens give it three swaps, with
    # pre-calculation on or off.
    engine = build_engine(
        "daop", bundle, platform, 0.5, calibration,
        decode_realloc_interval=2,
        enable_precalc=label != "daop-no-precalc-realloc-2",
    )
    result = golden_generate(engine, n_new=16)
    assert result.stats.counters.decode_swaps > 0
    return result


@pytest.mark.parametrize("label", ["moe-ondemand-lfu",
                                   "moe-ondemand-priority",
                                   "daop-realloc-2", "daop-no-precalc",
                                   "daop-no-precalc-realloc-2"])
def test_variant_pin(label, tiny_bundle, platform, tiny_calibration):
    result = _variant(label, tiny_bundle, platform, tiny_calibration)
    assert result_digest(result) == VARIANT_PINS[label]


def test_realloc_runs_without_precalc(tiny_bundle, platform,
                                      tiny_calibration, audit_result):
    """Decode re-allocation does not depend on pre-calculation: with it
    off, DAOP still swaps every ``decode_realloc_interval`` tokens, and
    its true-gated blocks wait on the swap uploads."""
    engine = build_engine("daop", tiny_bundle, platform, 0.5,
                          tiny_calibration, enable_precalc=False,
                          decode_realloc_interval=2)
    result = golden_generate(engine, n_new=16)
    assert result.stats.counters.decode_swaps > 0
    audit_result(engine, result)


@pytest.mark.parametrize("name", CACHING_BASELINES + ("daop",))
def test_batch_pin(name, tiny_bundle, platform, tiny_calibration):
    engine = build_engine(name, tiny_bundle, platform, 0.25,
                          tiny_calibration)
    requests, arrivals = batch_requests(tiny_bundle)
    report = ContinuousBatchScheduler(engine, max_batch=4).run(requests,
                                                               arrivals)
    records = sorted(report.records, key=lambda record: record.seq_id)
    assert [result_digest(record.result) for record in records] == \
        BATCH_PINS[name]
