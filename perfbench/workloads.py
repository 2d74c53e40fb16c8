"""The benchmark's three workloads and what one run of them yields.

Each workload is a paper scenario chosen to load a different layer (see
``WHY`` and ``BENCHMARK.json``).  ``build(name, seed)`` returns a fresh
``(SystemConfig, Workload)`` pair; the seed feeds ``SystemConfig.seed`` and,
on ``random-sparse``, the access pattern too.

``anchors`` are the simulated results every timed run must reproduce bit
for bit; ``counts`` are the per-layer work counts read from the run's batch
records and generated steps.  Both are deterministic for a given seed.
"""

from __future__ import annotations

from repro.api import RunResult, UvmSystem
from repro.config import CheckConfig, SystemConfig, default_config
from repro.gpu.warp import KernelLaunch
from repro.workloads import RandomAccess, Sgemm, StreamTriad, Workload

MB = 1 << 20

WHY = {
    "stream-oversub": (
        "Fig 13: many small batches with eviction and refault under default "
        "obs, so batch assembly and per-batch instrumentation dominate"
    ),
    "sgemm-oversub": (
        "Fig 12: ~50k faults in 232 batches with obs off, so the GPU issue "
        "model and workload generation dominate"
    ),
    "random-sparse": (
        "Tables 2/3 Random: faults in scattered VABlocks, so prefetch expand, "
        "DMA/radix mapping and unmap dominate"
    ),
}

DEFAULT_SEED = 0


def build(name: str, seed: int) -> "tuple[SystemConfig, Workload]":
    """A fresh config and workload for ``name`` under ``seed``."""
    cfg = default_config()
    cfg.seed = seed
    cfg.check = CheckConfig(enabled=False)
    if name == "stream-oversub":
        cfg.gpu.memory_bytes = 32 * MB
        cfg.driver.prefetch_enabled = False
        return cfg, StreamTriad(nbytes=16 * MB, sweeps=3)
    if name == "sgemm-oversub":
        cfg.gpu.memory_bytes = 32 * MB
        cfg.driver.prefetch_enabled = False
        cfg.obs = cfg.obs.disabled()
        return cfg, Sgemm(n=2048, tile=256)
    if name == "random-sparse":
        cfg.gpu.memory_bytes = 2048 * MB
        cfg.driver.prefetch_enabled = True
        cfg.obs = cfg.obs.disabled()
        return cfg, RandomAccess(
            nbytes=1024 * MB, num_programs=80, accesses_per_program=192, seed=seed
        )
    raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")


def anchors(system: UvmSystem, result: RunResult) -> dict:
    """The simulated outcome a correct run reproduces exactly."""
    return {
        "batches": result.num_batches,
        "faults_raw": result.total_faults,
        "evictions": sum(r.evictions for r in result.records),
        "clock_usec": system.clock.now,
    }


def counts(steps: list, result: RunResult) -> dict:
    """Per-layer work counts of one run (all exact, none timed)."""
    records = result.records
    total = {
        field: sum(getattr(r, field) for r in records)
        for field in (
            "num_faults_raw",
            "num_faults_unique",
            "dropped_at_flush",
            "num_vablocks",
            "pages_prefetched",
            "evictions",
            "pages_evicted",
            "dma_mappings_created",
            "radix_nodes_allocated",
            "pages_unmapped",
            "bytes_h2d",
            "bytes_d2h",
        )
    }
    pages_listed = sum(
        len(phase.reads) + len(phase.writes) + len(phase.prefetches)
        for step in steps
        if isinstance(step, KernelLaunch)
        for program in step.programs
        for phase in program.phases
    )
    batches = len(records)
    return {
        "workloads.pages_listed": pages_listed,
        "gpu.faults_raw": total["num_faults_raw"],
        "gpu.dropped_at_flush": total["dropped_at_flush"],
        "core.batches": batches,
        "core.faults_unique": total["num_faults_unique"],
        "core.dedup_ratio": total["num_faults_unique"] / max(total["num_faults_raw"], 1),
        "core.vablocks_per_batch": total["num_vablocks"] / max(batches, 1),
        "core.pages_prefetched": total["pages_prefetched"],
        "core.evictions": total["evictions"],
        "core.pages_evicted": total["pages_evicted"],
        "hostos.dma_mappings": total["dma_mappings_created"],
        "hostos.radix_nodes": total["radix_nodes_allocated"],
        "hostos.pages_unmapped": total["pages_unmapped"],
        "gpu.copy_engine.bytes_h2d": total["bytes_h2d"],
        "gpu.copy_engine.bytes_d2h": total["bytes_d2h"],
    }
