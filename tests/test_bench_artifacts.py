"""The committed benchmark artifacts regenerate byte for byte.

``BENCH_batch.json`` (simulated throughput, TTFT and TPOT of the
continuous-batching scheduler) and ``BENCH_compute.json`` (counted work
of the forward-compute cache) are deterministic.  Each test reruns the
CLI at the committed configuration and requires the exact bytes, so any
change to a simulated number or a cache counter fails here until the
artifact is regenerated and the change explained.
"""

import difflib
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The configuration ``BENCH_batch.json`` was generated with.
BATCH_ARGS = (
    "bench-batch", "--model", "tiny", "--requests", "8",
    "--input-len", "32", "256", "--output-len", "16", "8",
    "--batch-sizes", "1", "4", "--engines", "fiddler", "daop",
)

#: The configuration ``BENCH_compute.json`` was generated with.
COMPUTE_ARGS = ("bench-compute", "--model", "mixtral")


@pytest.mark.parametrize("artifact, args", [
    ("BENCH_batch.json", BATCH_ARGS),
    ("BENCH_compute.json", COMPUTE_ARGS),
], ids=["batch", "compute"])
def test_artifact_regenerates_exactly(artifact, args, tmp_path, capsys):
    out = tmp_path / artifact
    assert main([*args, "--json", str(out)]) == 0
    capsys.readouterr()
    committed = (REPO_ROOT / artifact).read_text()
    regenerated = out.read_text()
    if regenerated != committed:
        diff = "".join(list(difflib.unified_diff(
            committed.splitlines(keepends=True),
            regenerated.splitlines(keepends=True),
            f"committed {artifact}", f"regenerated {artifact}",
        ))[:40])
        pytest.fail(
            f"{artifact} no longer regenerates byte for byte. If the "
            f"change is intended, regenerate it with `repro "
            f"{' '.join(args)} --json {artifact}` and explain the change "
            f"in CHANGES.md.\n{diff}"
        )
