"""Metrics totals reconcile exactly with the per-batch + engine ledgers.

Resilience events are double-entry bookkeeping: each one lands in a
BatchRecord counter (or, for the CPU-touch D2H path, an EngineCounters
field) *and* ticks a metric family.  Across every bundled chaos profile and
several seeds the two ledgers must agree to the unit — a drift means some
path charges one ledger without the other (the engine-side gap these
identities were added to catch).

Batch and fault counters reconcile with the flight ring, not with the
records: a recovered crash rewinds the batch log to the checkpoint but
never rewinds metrics or the ring, so the rolled-back batches stay counted
in both.  The profiles run on ``stream`` (~42 batches), long enough for
``crash_midrun``'s crash at batch 10 to fire.
"""

from pathlib import Path

import pytest

from repro.api import UvmSystem
from repro.config import default_config
from repro.units import MB
from repro.workloads import WORKLOAD_REGISTRY

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples" / "chaos"
PROFILES = sorted(EXAMPLES_DIR.glob("*.json"))


def metric_value(snap, name, **labels):
    family = snap.get(name)
    if family is None:
        return 0.0
    for series in family["series"]:
        if series["labels"] == labels:
            return series["value"]
    return 0.0


def run_profile(profile, seed):
    cfg = default_config()
    cfg.seed = seed
    cfg.gpu.memory_bytes = 16 * MB
    cfg.gpu.num_sms = 8
    cfg.check.enabled = True
    cfg.check.mode = "report"
    cfg.inject.enabled = True
    cfg.inject.profile = str(profile)
    cfg.inject.checkpoint_every = 8
    cfg.validate()
    system = UvmSystem(cfg)
    WORKLOAD_REGISTRY["stream"]().run(system)
    return system


def assert_reconciles(system):
    records = system.records
    engine = system.engine
    snap = system.metrics_snapshot()

    def total(name):
        return sum(getattr(r, name) for r in records)

    assert metric_value(snap, "uvm_retries_total", site="dma") == total("retries_dma")
    assert metric_value(snap, "uvm_retries_total", site="populate") == total(
        "retries_populate"
    )
    # The ce site is shared: driver in-batch retries + engine D2H retries.
    assert (
        metric_value(snap, "uvm_retries_total", site="ce")
        == total("retries_transfer") + engine.counters.d2h_retries
    )
    assert (
        metric_value(snap, "uvm_ce_failovers_total")
        == total("ce_failovers") + engine.counters.d2h_failovers
    )
    assert metric_value(snap, "uvm_degrade_total", kind="prefetch-fallback") == total(
        "prefetch_fallbacks"
    )
    assert metric_value(snap, "uvm_degrade_total", kind="dma-defer") + metric_value(
        snap, "uvm_degrade_total", kind="transfer-defer"
    ) == total("blocks_deferred")

    flight = system.obs.flight
    assert flight.dropped == 0
    closed = [e for e in flight if e[1] in ("batch.close", "batch.abort")]
    batches = metric_value(snap, "uvm_batches_total", kind="fault") + metric_value(
        snap, "uvm_batches_total", kind="hinted"
    )
    assert batches == len(closed)
    assert metric_value(snap, "uvm_faults_total", kind="raw") == sum(
        args[1] for _, _, args in closed
    )
    assert system.sanitizer.total_violations == 0


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.stem)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_profile_totals_reconcile(profile, seed):
    system = run_profile(profile, seed)
    assert_reconciles(system)
    summary = system.injector.summary()
    if "engine.crash" in summary["sites"]:
        # The crash must fire and be recovered, or the case is vacuous.
        assert summary["crashes"] == 1
        assert summary["recoveries"] == 1
        # The batch log was rewound to the checkpoint; the counter was not.
        snap = system.metrics_snapshot()
        assert metric_value(snap, "uvm_batches_total", kind="fault") > len(
            system.records
        )


@pytest.mark.parametrize("seed", [0, 7])
def test_engine_d2h_path_reconciles(seed):
    """Force traffic through the no-BatchRecord path: device-resident pages
    touched from the CPU under a flaky interconnect."""
    cfg = default_config()
    cfg.seed = seed
    cfg.gpu.memory_bytes = 16 * MB
    cfg.check.enabled = True
    cfg.check.mode = "report"
    cfg.inject.enabled = True
    cfg.inject.sites = {"ce.transfer_fault": {"rate": 0.4}, "ce.stuck": {"rate": 0.2}}
    cfg.validate()
    system = UvmSystem(cfg)
    alloc = system.managed_alloc(2 * MB)
    system.host_touch(alloc)
    engine = system.engine
    from repro.errors import RetryExhausted

    for _ in range(16):
        try:
            system.mem_prefetch(alloc)
            system.host_touch(alloc)
        except RetryExhausted:
            # Exhaustion mid-burst still keeps both ledgers in step.
            break
        if engine.counters.d2h_retries + engine.counters.d2h_failovers > 0:
            break
    assert engine.counters.d2h_retries + engine.counters.d2h_failovers > 0
    assert engine.counters.d2h_backoff_usec > 0
    assert_reconciles(system)
