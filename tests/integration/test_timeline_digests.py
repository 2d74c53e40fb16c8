"""Pinned simulated timelines: final clock and a digest of every record.

Each case runs a whole system and compares ``clock_usec`` plus a sha256 of
the sorted ``BatchRecord.to_dict()`` items of every record against values
recorded before the structure-of-arrays fault pipeline was deleted (both
pipelines produced these exact values).  The cases cover replay-heavy
streaming, eviction under fault, write faults, irregular access, PTX
prefetch storms, every builtin chaos profile and every bundled
``examples/chaos/*.json`` profile, so any change to the fault path that
moves a timeline fails here.

A deliberate timeline change re-records the table: run each case and
paste the new ``(clock_usec, digest)`` pairs, and say why in the change.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.api import UvmSystem
from repro.config import default_config
from repro.inject.profiles import BUILTIN_PROFILES
from repro.units import MB
from repro.workloads import WORKLOAD_REGISTRY

CHAOS_DIR = Path(__file__).resolve().parents[2] / "examples" / "chaos"

#: case → (clock_usec, sha256 of the record stream).
DIGESTS = {
    "vecadd": (752.0757950822667, "b61fa591b8e812518d9f1f5895c9e092e76ae25c1a6fe7675d0e75112a17a30f"),
    "stream": (20605.71431460037, "2d33f9bbc25d09d465bdda907bd427770ac421a54d83e8322e79fe67fd3bbc4f"),
    "sgemm": (17879.256996359854, "8ac28199d60adbdc5a1d6cdaa8e3eab3f400a9bf5568fa5da02aebd3b7bf58a2"),
    "bfs": (774.2176900142235, "839ab2e2714d6b9fc0f3fc5176113b4fa83328c11b44da4b0bb41feaddbd8d61"),
    "prefetch-kernel": (1105.2551154292496, "10d524f32b09259d64776662e7ebd9c9353988065742a3415c9235876d4d035c"),
    "stream@4MiB": (77927.44835339431, "a0773bb0c387e887de01316a8e6d09ff7a12fe169f371242a113b37eb4ba8d64"),
    "vecadd/crashy/seed0": (752.0757950822667, "b61fa591b8e812518d9f1f5895c9e092e76ae25c1a6fe7675d0e75112a17a30f"),
    "vecadd/crashy/seed7": (733.9586577183362, "d50d7717aa01132425ce4b125c0bb562ba80c070b32416a2d63883b0be7e0919"),
    "vecadd/dma-flaky/seed0": (749.5960733312639, "5c5c1088d0f8ac7ab622c64b87d4281605d0b6b8c96d3a6e2fc4aec7ff2183f2"),
    "vecadd/dma-flaky/seed7": (737.5517672567495, "33ffcf3dac5f9c3231112ec90c59d9a19a46bbc0c0dd31ecd533f53fcf4187a5"),
    "vecadd/flaky-interconnect/seed0": (799.1604490988566, "8e0024defb36e924d260ee9e967b649b24b75518cc961ef16e37650cdd4b6bc5"),
    "vecadd/flaky-interconnect/seed7": (798.6542349581276, "4db67cec5912eaa494f5b6708441de4e13d179acdb1d8f20dfa98497f11d96ba"),
    "vecadd/kitchen-sink/seed0": (995.6881590352605, "913a92a4faa2144c3cfe35cf28ad5326e132eeaaeb857a58fe4be74f4b5dc1f6"),
    "vecadd/kitchen-sink/seed7": (922.4020338962121, "ec18e0e9c2dcfafca7ceabea326d438b81ca224880345f38cb76b3143ab547e8"),
    "vecadd/memory-pressure/seed0": (752.0757950822667, "b61fa591b8e812518d9f1f5895c9e092e76ae25c1a6fe7675d0e75112a17a30f"),
    "vecadd/memory-pressure/seed7": (1049.8143182677338, "8dfcfa560b298683433e4909846a555d2bdd491cecd2581dbedec3fe63191e1d"),
    "vecadd/overflow-storm/seed0": (850.5842605402472, "8c3e49268a4d8c8379f79a98fc1390e295d15f11eee08d2228bb39618ddb803f"),
    "vecadd/overflow-storm/seed7": (824.7368017438138, "e51bc8bd20c51dee0e281e62549c7d68368e747613a3d4452b6bc83779c65e03"),
    "vecadd/utlb-churn/seed0": (752.0757950822667, "b61fa591b8e812518d9f1f5895c9e092e76ae25c1a6fe7675d0e75112a17a30f"),
    "vecadd/utlb-churn/seed7": (733.9586577183362, "d50d7717aa01132425ce4b125c0bb562ba80c070b32416a2d63883b0be7e0919"),
    "stream/crash_midrun.json/seed3": (20840.807522295003, "60b9dab245317b4dc3cd5e952e2e8205385267edb710fe5223e71f40b74d6611"),
    "stream/fault_storm.json/seed3": (19249.247198585337, "0f48170bd6e61af3c1d6b74caa4777ca17877b4b6656637ec744b953118eec08"),
    "stream/flaky_link.json/seed3": (21888.050437514623, "cba4ee29a34d9166742dd97969a78362e83c7756f0807db650dbf23e632d9321"),
    "stream/host_pressure.json/seed3": (20631.974700426792, "c4bd688fc370b793bee5c8ee517b2c82c1a856f2e67acbe27db5e787b412faee"),
}


def timeline_digest(
    workload: str, *, seed: int = 0, gpu_mem_mb: int = 16, profile=None
):
    """Run ``workload`` on an 8-SM system with obs off; return
    ``(clock_usec, sha256 of the sorted record items)``."""
    cfg = default_config()
    cfg.seed = seed
    cfg.gpu.memory_bytes = gpu_mem_mb * MB
    cfg.gpu.num_sms = 8
    cfg.obs = cfg.obs.disabled()
    if profile is not None:
        cfg.inject.enabled = True
        cfg.inject.profile = profile
    cfg.validate()
    system = UvmSystem(cfg)
    WORKLOAD_REGISTRY[workload]().run(system)
    records = repr([tuple(sorted(r.to_dict().items())) for r in system.records])
    return system.clock.now, hashlib.sha256(records.encode()).hexdigest()


class TestWorkloadDigests:
    # vecadd: replay-heavy streaming; stream: eviction under fault at
    # 16 MiB (oversubscribed); sgemm: reuse + write faults; bfs: irregular;
    # prefetch-kernel: PTX prefetch storms through the µTLB bypass path.
    @pytest.mark.parametrize(
        "workload", ["vecadd", "stream", "sgemm", "bfs", "prefetch-kernel"]
    )
    def test_timeline_digest(self, workload):
        assert timeline_digest(workload) == DIGESTS[workload]

    def test_evict_under_fault_pressure(self):
        """A 4 MiB GPU forces continuous evict-under-fault: flushed and
        unserviced faults re-demand through the replay path."""
        assert timeline_digest("stream", gpu_mem_mb=4) == DIGESTS["stream@4MiB"]


class TestChaosProfileDigests:
    """Injection drives the overflow, duplicate-entry, µTLB-stall and
    retry paths; every profile × seed keeps its pinned timeline."""

    @pytest.mark.parametrize("profile", sorted(BUILTIN_PROFILES))
    @pytest.mark.parametrize("seed", [0, 7])
    def test_builtin_profiles(self, profile, seed):
        got = timeline_digest("vecadd", seed=seed, profile=profile)
        assert got == DIGESTS[f"vecadd/{profile}/seed{seed}"]

    @pytest.mark.parametrize(
        "profile_file", sorted(p.name for p in CHAOS_DIR.glob("*.json"))
    )
    def test_example_profile_files(self, profile_file):
        got = timeline_digest("stream", seed=3, profile=str(CHAOS_DIR / profile_file))
        assert got == DIGESTS[f"stream/{profile_file}/seed3"]

