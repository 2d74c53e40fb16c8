"""Crash-bundle integration: every chaos profile, crashed at the same
batch, writes a schema-valid diagnostic bundle; equal seeds produce
byte-identical bundles; a traced run's bundle keeps the same newest window;
the event ring never rewinds on a recovered crash; and the ring never moves
the timeline.
"""

import json
from pathlib import Path

import jsonschema
import pytest

from repro.api import UvmSystem
from repro.config import default_config
from repro.errors import InjectedCrash
from repro.inject.profiles import BUILTIN_PROFILES
from repro.obs.analyze import analyze_bundle
from repro.obs.bundle import (
    BUNDLE_SCHEMA,
    EVENTS_NAME,
    MANIFEST_NAME,
    read_manifest,
)
from repro.obs.flight import FLIGHT_CAPACITY
from repro.units import MB
from repro.workloads import WORKLOAD_REGISTRY

REPO_ROOT = Path(__file__).resolve().parents[2]
SCHEMA = json.loads(
    (REPO_ROOT / "docs" / "schemas" / "bundle.schema.json").read_text()
)
EXAMPLE_PROFILES = sorted(
    str(p) for p in (REPO_ROOT / "examples" / "chaos").glob("*.json")
)
PROFILES = sorted(BUILTIN_PROFILES) + EXAMPLE_PROFILES

CRASH_BATCH = 4


def _crash_run(profile, seed, bundle_root, trace=False, crash_batch=CRASH_BATCH):
    """Run stream under ``profile`` with a forced unrecovered crash; the
    inline site merges over the profile, so every profile dies at the same
    batch and the bundle is the only artifact under test.  Returns the
    bundle directory and the crashed system."""
    cfg = default_config()
    cfg.gpu.memory_bytes = 32 * MB
    cfg.seed = seed
    cfg.inject.enabled = True
    cfg.inject.profile = profile
    cfg.inject.sites = {"engine.crash": {"at_batch": crash_batch}}
    cfg.inject.crash_recovery = False
    cfg.inject.checkpoint_every = 2
    cfg.obs.bundle_dir = str(bundle_root)
    system = UvmSystem(cfg, trace=trace)
    with pytest.raises(InjectedCrash):
        WORKLOAD_REGISTRY["stream"]().run(system)
    bundle = system.engine.last_bundle
    assert bundle is not None
    return bundle, system


class TestBundleOnCrash:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "profile", PROFILES, ids=[Path(p).stem for p in PROFILES]
    )
    def test_schema_valid_and_analyzable(self, profile, seed, tmp_path):
        bundle, _ = _crash_run(profile, seed, tmp_path)
        manifest = read_manifest(bundle)
        jsonschema.validate(manifest, SCHEMA)
        assert manifest["schema"] == BUNDLE_SCHEMA
        assert manifest["error"]["type"] == "InjectedCrash"
        assert manifest["error"]["batch_id"] == CRASH_BATCH
        assert manifest["seed"] == seed
        report = analyze_bundle(bundle)
        assert report["failing_batch"] == CRASH_BATCH
        assert report["checkpoint"] is not None
        assert report["event_tail"]

    @pytest.mark.parametrize("profile", ["crashy", "kitchen-sink"])
    def test_equal_seeds_byte_identical(self, profile, tmp_path):
        a, _ = _crash_run(profile, 0, tmp_path / "a")
        b, _ = _crash_run(profile, 0, tmp_path / "b")
        assert (a / EVENTS_NAME).read_bytes() == (b / EVENTS_NAME).read_bytes()
        assert (a / MANIFEST_NAME).read_bytes() == (
            b / MANIFEST_NAME
        ).read_bytes()

    def test_analyze_cli_renders_bundle(self, tmp_path, capsys):
        from repro.cli import main

        bundle, _ = _crash_run("crashy", 0, tmp_path)
        assert main(["analyze", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "crash bundle" in out
        assert "InjectedCrash" in out
        assert f"failing batch: {CRASH_BATCH}" in out
        assert "flight-recorder tail:" in out

    def test_traced_bundle_keeps_the_newest_window(self, tmp_path):
        # Late enough that the traced ring holds more than one window.
        bundle, system = _crash_run("crashy", 0, tmp_path, trace=True, crash_batch=20)
        ring = system.obs.flight
        assert len(ring) > FLIGHT_CAPACITY  # the window really cuts
        manifest = read_manifest(bundle)
        jsonschema.validate(manifest, SCHEMA)
        lines = (bundle / EVENTS_NAME).read_text().splitlines()
        assert [json.loads(line) for line in lines] == ring.to_dicts(FLIGHT_CAPACITY)
        assert len(lines) == manifest["flight"]["recorded"] == FLIGHT_CAPACITY
        assert manifest["flight"]["dropped"] == len(ring) - FLIGHT_CAPACITY
        assert analyze_bundle(bundle)["failing_batch"] == 20


class TestRingAcrossRecovery:
    def test_recovered_crash_keeps_rolled_back_events(self):
        cfg = default_config()
        cfg.gpu.memory_bytes = 32 * MB
        cfg.inject.enabled = True
        cfg.inject.sites = {"engine.crash": {"at_batch": 3}}
        cfg.inject.checkpoint_every = 2
        system = UvmSystem(cfg, trace=True)
        WORKLOAD_REGISTRY["stream"]().run(system)
        events = system.obs.flight.events()
        kinds = [kind for _, kind, _ in events]
        crash = kinds.index("crash.injected")
        # The rolled-back batch 3 stays in the ring, then the crash, then
        # the recovery (stamped at the restored, earlier clock).
        assert events[crash - 1][1] == "batch.close"
        assert events[crash - 1][2][0] == 3
        assert events[crash + 1][1:] == ("crash.recovered", (3,))
        assert events[crash + 1][0] < events[crash][0]
        # The replay opens batch 3 again and records its faults again.
        assert events[crash + 2][1:] == ("batch.open", (3, "fault"))
        faults_of_3 = [
            i for i, (_, kind, args) in enumerate(events)
            if kind == "fault" and args[0] == 3
        ]
        assert min(faults_of_3) < crash < max(faults_of_3)


class TestTimelineNeutrality:
    def _run(self, flight: bool, trace: bool = False):
        cfg = default_config()
        cfg.gpu.memory_bytes = 32 * MB
        cfg.obs.flight_recorder = flight
        system = UvmSystem(cfg, trace=trace)
        result = WORKLOAD_REGISTRY["stream"]().run(system)
        return system, result

    def test_flight_on_off_identical_timeline(self):
        sys_off, res_off = self._run(flight=False)
        off_records = [r.to_dict() for r in res_off.records]
        # The off-run is the null ring.
        assert len(sys_off.engine.flight) == 0
        for flight, trace in ((True, False), (False, True)):
            sys_on, res_on = self._run(flight=flight, trace=trace)
            assert sys_on.clock.now == sys_off.clock.now
            assert res_on.num_batches == res_off.num_batches
            assert [r.to_dict() for r in res_on.records] == off_records
            # The on-run actually recorded something; a traced one holds
            # every fault.
            assert len(sys_on.engine.flight) > 0
            faults = sys_on.obs.flight.select("fault")
            assert len(faults) == (res_on.total_faults if trace else 0)
