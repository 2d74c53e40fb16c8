"""Declarative catalog of every metric family and span name the simulator
emits.

The registry API registers families lazily at call sites, which is
ergonomic but drift-prone: rename a family at its one registration site
and every dashboard, reconciliation identity, and cross-run diff silently
loses the series.  This module is the single declarative source of truth
the ``metric-drift`` whole-program pass (:mod:`repro.check.program`)
checks every call site in ``src/`` against:

* a family registered anywhere but missing here → ``metric-undeclared``;
* kind / label-key disagreement with the declaration → ``metric-mismatch``;
* an entry here that no call site emits → ``metric-unused``;
* a ``span(...)`` name missing from :data:`SPAN_CATALOG` →
  ``span-undeclared``;
* an entry with a missing or unknown ``unit`` → ``metric-no-unit``.

Every entry declares its measurement ``unit`` (one of
:data:`repro.check.program.dims.UNIT_VOCAB`): ``bytes``/``us``/``wall_s``
are strong dimensions the ``dimensions`` pass checks emission arguments
against, while count-like units (``pages``, ``faults``, ``batches``, …)
additionally reject any strongly-dimensioned argument — a page *id*
observed into a ``pages`` counter is a bug, not a count.

The pass parses this file *statically* (the dict literals below must stay
literals — no comprehensions, no computed keys).  A runtime cross-check in
``tests/unit/check/test_obs_catalog.py`` additionally runs a real workload
and asserts the registered families agree with these declarations, so the
catalog can drift from reality in neither direction.

When adding a metric: register it at the call site, declare it here with a
unit, done — CI's ``lint-program`` job fails on any half alone.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: family name → {"kind": counter|gauge|histogram, "labels": (keys...),
#: "help": one-liner, "unit": measurement unit}.  Keep alphabetical; keep
#: values literal.
METRIC_CATALOG: Dict[str, dict] = {
    "uvm_batch_faults": {
        "kind": "histogram",
        "labels": (),
        "help": "Raw faults per batch",
        "unit": "faults",
    },
    "uvm_batch_service_usec": {
        "kind": "histogram",
        "labels": (),
        "help": "Batch servicing time (simulated us)",
        "unit": "us",
    },
    "uvm_batches_total": {
        "kind": "counter",
        "labels": ("kind",),
        "help": "Batches through the servicing path",
        "unit": "batches",
    },
    "uvm_bundles_written_total": {
        "kind": "counter",
        "labels": (),
        "help": "Crash bundles written",
        "unit": "bundles",
    },
    "uvm_bytes_total": {
        "kind": "counter",
        "labels": ("dir",),
        "help": "Bytes migrated over the interconnect",
        "unit": "bytes",
    },
    "uvm_ce_bursts_total": {
        "kind": "counter",
        "labels": ("dir",),
        "help": "Copy-engine burst operations",
        "unit": "bursts",
    },
    "uvm_ce_bytes_total": {
        "kind": "counter",
        "labels": ("dir",),
        "help": "Bytes moved by the copy engines",
        "unit": "bytes",
    },
    "uvm_ce_failovers_total": {
        "kind": "counter",
        "labels": (),
        "help": "Copy-engine failovers after stuck bursts",
        "unit": "count",
    },
    "uvm_crash_recoveries_total": {
        "kind": "counter",
        "labels": (),
        "help": "Injected crashes recovered from a checkpoint",
        "unit": "recoveries",
    },
    "uvm_degrade_total": {
        "kind": "counter",
        "labels": ("kind",),
        "help": "Graceful degradations on the fault path",
        "unit": "count",
    },
    "uvm_engine_rounds_total": {
        "kind": "counter",
        "labels": (),
        "help": "GPU fault-generation rounds",
        "unit": "rounds",
    },
    "uvm_evictions_total": {
        "kind": "counter",
        "labels": ("policy",),
        "help": "VABlocks evicted from device memory",
        "unit": "evictions",
    },
    "uvm_faults_total": {
        "kind": "counter",
        "labels": ("kind",),
        "help": "Faults fetched from the HW buffer",
        "unit": "faults",
    },
    "uvm_fleet_kills_total": {
        "kind": "counter",
        "labels": ("signal",),
        "help": "Worker kill escalations by signal",
        "unit": "kills",
    },
    "uvm_fleet_ledger_writes_total": {
        "kind": "counter",
        "labels": (),
        "help": "Run-ledger mutations committed",
        "unit": "writes",
    },
    "uvm_fleet_resumes_total": {
        "kind": "counter",
        "labels": (),
        "help": "Jobs resumed from an engine checkpoint",
        "unit": "resumes",
    },
    "uvm_fleet_retries_total": {
        "kind": "counter",
        "labels": ("class",),
        "help": "Fleet-level job retries by failure class",
        "unit": "retries",
    },
    "uvm_hostos_total": {
        "kind": "counter",
        "labels": ("op",),
        "help": "Host-OS operations on the fault path",
        "unit": "ops",
    },
    "uvm_injected_total": {
        "kind": "counter",
        "labels": ("site",),
        "help": "Injected faults by site",
        "unit": "faults",
    },
    "uvm_kernel_time_usec": {
        "kind": "histogram",
        "labels": (),
        "help": "Kernel wall time (simulated us)",
        "unit": "us",
    },
    "uvm_kernels_total": {
        "kind": "counter",
        "labels": (),
        "help": "Kernel launches run",
        "unit": "kernels",
    },
    "uvm_pages_total": {
        "kind": "counter",
        "labels": ("op",),
        "help": "Pages handled on the fault path",
        "unit": "pages",
    },
    "uvm_peer_pages_total": {
        "kind": "counter",
        "labels": ("mode",),
        "help": "Pages moved between devices",
        "unit": "pages",
    },
    "uvm_peer_time_usec_total": {
        "kind": "counter",
        "labels": ("mode",),
        "help": "Simulated time spent on cross-device migration",
        "unit": "us",
    },
    "uvm_resident_vablocks": {
        "kind": "gauge",
        "labels": (),
        "help": "GPU-allocated VABlocks tracked by the eviction policy",
        "unit": "vablocks",
    },
    "uvm_retries_total": {
        "kind": "counter",
        "labels": ("site",),
        "help": "Driver retries after transient fault-path failures",
        "unit": "retries",
    },
    "uvm_san_violations_total": {
        "kind": "counter",
        "labels": ("rule",),
        "help": "UVMSan invariant violations detected",
        "unit": "violations",
    },
}

#: span name → {"help": one-line description, "unit": duration unit}.
#: Covers ``obs.span(...)`` / ``spans.span(...)`` context spans and the
#: manual ``spans.record(...)`` replayed spans.  Every span duration is
#: simulated microseconds.  Keep alphabetical; keep literal.
SPAN_CATALOG: Dict[str, dict] = {
    "driver.batch": {
        "help": "one batch envelope, reconciled against BatchRecord",
        "unit": "us",
    },
    "driver.fetch": {
        "help": "drain the HW fault buffer into the batch",
        "unit": "us",
    },
    "driver.preprocess": {
        "help": "dedup/sort/group faults into VABlock work",
        "unit": "us",
    },
    "driver.replay": {
        "help": "replay the stalled warps after servicing",
        "unit": "us",
    },
    "driver.vablock": {
        "help": "per-VABlock servicing slice (manual span)",
        "unit": "us",
    },
    "driver.wake": {
        "help": "batch-trigger wakeup latency",
        "unit": "us",
    },
    "engine.host_touch": {
        "help": "CPU-side touch of managed pages",
        "unit": "us",
    },
    "engine.launch": {
        "help": "one kernel launch end-to-end",
        "unit": "us",
    },
    "engine.resume": {
        "help": "resume a kernel after checkpoint restore",
        "unit": "us",
    },
}


def metric_declaration(name: str) -> dict:
    """The declaration for ``name`` (raises KeyError when undeclared)."""
    return METRIC_CATALOG[name]


def declared_label_keys(name: str) -> Tuple[str, ...]:
    return tuple(METRIC_CATALOG[name]["labels"])


def validate_registry(registry) -> list:
    """Runtime cross-check: every family a live registry holds must match
    its declaration.  Returns human-readable problem strings (empty = ok).

    Used by the catalog unit test after a real workload run, closing the
    loop the static pass cannot: the pass proves call sites agree with the
    catalog, this proves the *runtime* registry does too.
    """
    problems = []
    snapshot = registry.snapshot()
    for name in sorted(snapshot):
        decl = METRIC_CATALOG.get(name)
        family = registry.family(name)
        if decl is None:
            problems.append(f"{name}: registered at runtime but undeclared")
            continue
        if family.kind != decl["kind"]:
            problems.append(
                f"{name}: declared {decl['kind']}, registered {family.kind}"
            )
        if tuple(family.label_names) != tuple(decl["labels"]):
            problems.append(
                f"{name}: declared labels {tuple(decl['labels'])!r}, "
                f"registered {tuple(family.label_names)!r}"
            )
        if family.help != decl["help"]:
            problems.append(
                f"{name}: declared help {decl['help']!r}, "
                f"registered {family.help!r}"
            )
        if not decl.get("unit"):
            problems.append(f"{name}: declaration carries no unit")
    return problems
