"""Wall-clock microbenchmarks for the simulator's hot paths.

Unlike the ``bench_fig*`` suite (which times whole experiments), this file
times the *mechanics* the campaign runner leans on, pairing each optimized
hot path with a faithful re-creation of its previous implementation:

- ``checkpoint``: one pickle round trip (capture + restore) vs the two
  recursive ``copy.deepcopy`` passes the old capture/restore cost.
- ``advise_grouping``: one-pass ``setdefault`` grouping of hinted pages by
  VABlock vs the old per-block rescan of the whole page list.
- ``replay_target``: ``sorted(faulted)`` on the already-unique fault list
  vs the old unconditional ``sorted(set(faulted) | prefetched)`` rebuild.
- ``metric_labels``: cached label-handle ``inc()`` vs per-call
  ``family.labels(...).inc()`` lookup.

Results (plus an end-to-end workload timing with its ``batches_per_sec``
headline, a UVMSan timeline-identity check, and the whole-program lint's
per-pass wall time) are written to ``BENCH_perf.json`` at the repo root.
The suite asserts at least one pair shows a >= 1.2x speedup and that the
sanitizer observes a bit-identical timeline around every optimisation.

Run either way::

    python benchmarks/bench_simperf.py
    pytest benchmarks/bench_simperf.py --benchmark-disable
"""

from __future__ import annotations

import copy
import json
import pickle
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # script mode without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import UvmSystem
from repro.config import default_config
from repro.obs.metrics import MetricsRegistry
from repro.sim.checkpoint import _build_state
from repro.units import vablock_of_page
from repro.workloads import WORKLOAD_REGISTRY

PERF_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: Minimum speedup at least one timed pair must demonstrate.
SPEEDUP_FLOOR = 1.2


def _best_usec(fn, number: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` mean wall time per call, in microseconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best * 1e6


def _fresh_system(check_enabled: bool = False, check_mode: str = "raise") -> UvmSystem:
    cfg = default_config()
    cfg.gpu.memory_bytes = 32 << 20
    cfg.obs = cfg.obs.disabled()
    cfg.check.enabled = check_enabled
    cfg.check.mode = check_mode
    return UvmSystem(cfg)


def _warmed_engine():
    """An engine with real post-run state (page table, VABlocks, batch log)."""
    system = _fresh_system()
    WORKLOAD_REGISTRY["stream"]().run(system)
    return system.engine


# ------------------------------------------------------------- timed pairs


def _pair_checkpoint(engine) -> dict:
    state = _build_state(engine)

    def baseline():
        # Old capture + old restore: one deepcopy pass each.
        copy.deepcopy(state)
        copy.deepcopy(state)

    def optimized():
        pickle.loads(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))

    return {
        "baseline_usec": _best_usec(baseline, number=3),
        "optimized_usec": _best_usec(optimized, number=3),
    }


def _pair_advise_grouping() -> dict:
    pages = list(range(0, 8192))  # 16 VABlocks' worth, sorted

    def baseline():
        # Old shape: rescan the whole page list once per touched block.
        block_ids = sorted({vablock_of_page(p) for p in pages})
        return {
            block_id: [p for p in pages if vablock_of_page(p) == block_id]
            for block_id in block_ids
        }

    def optimized():
        by_block: dict = {}
        for page in pages:
            by_block.setdefault(vablock_of_page(page), []).append(page)
        return by_block

    assert baseline() == optimized()
    return {
        "baseline_usec": _best_usec(baseline, number=20),
        "optimized_usec": _best_usec(optimized, number=20),
    }


def _pair_replay_target() -> dict:
    faulted = list(range(0, 1024, 2))  # unique + sorted, as the dedup stage emits
    prefetched: set = set()

    def baseline():
        return sorted(set(faulted) | prefetched)

    def optimized():
        return sorted(faulted)

    assert baseline() == optimized()
    return {
        "baseline_usec": _best_usec(baseline, number=200),
        "optimized_usec": _best_usec(optimized, number=200),
    }


def _pair_metric_labels() -> dict:
    registry = MetricsRegistry(enabled=True)
    family = registry.counter("bench_retries_total", "bench", labels=("site",))
    handle = family.labels("dma")

    def baseline():
        family.labels("dma").inc()

    def optimized():
        handle.inc()

    return {
        "baseline_usec": _best_usec(baseline, number=5000),
        "optimized_usec": _best_usec(optimized, number=5000),
    }


# ------------------------------------------------------------ whole-suite


def _end_to_end() -> dict:
    t0 = time.perf_counter()
    system = _fresh_system()
    result = WORKLOAD_REGISTRY["stream"]().run(system)
    wall = time.perf_counter() - t0
    return {
        "workload": "stream",
        "wall_sec": round(wall, 4),
        "batches": result.num_batches,
        "batches_per_sec": round(result.num_batches / wall, 1),
        "clock_usec": system.clock.now,
    }


def _lint_timing() -> dict:
    """Time the whole-program analysis over ``src/repro`` using the
    engine's own per-pass timings, so the gate can hold a wall ceiling on
    the interprocedural fixpoints (sim-taint, dimensions, and the
    protocol/lifecycle family's path walks and closure comparisons)."""
    from repro.check.program import run_analysis

    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    report = run_analysis([str(src)])
    return {
        "total_sec": round(report.timings.get("total", 0.0), 3),
        "ir_sec": round(report.timings.get("ir", 0.0), 3),
        "dimensions_sec": round(report.timings.get("dimensions", 0.0), 3),
        "lifecycle_sec": round(report.timings.get("lifecycle", 0.0), 3),
        "snapshot_sec": round(report.timings.get("snapshot", 0.0), 3),
        "raw_findings": sum(report.raw_by_pass.values()),
    }


def _uvmsan_identity() -> dict:
    """The optimized paths must be invisible to UVMSan: the same workload
    with the sanitizer off and on (report mode) yields the identical
    simulated timeline and zero violations."""
    plain = _fresh_system()
    plain_result = WORKLOAD_REGISTRY["stream"]().run(plain)
    checked = _fresh_system(check_enabled=True, check_mode="report")
    checked_result = WORKLOAD_REGISTRY["stream"]().run(checked)
    summary = checked.engine.sanitizer.summary()
    return {
        "timeline_identical": (
            plain.clock.now == checked.clock.now
            and plain_result.num_batches == checked_result.num_batches
            and plain_result.total_faults == checked_result.total_faults
        ),
        "clock_usec": plain.clock.now,
        "batches": plain_result.num_batches,
        "violations": summary["violations"],
    }


def run_suite() -> dict:
    engine = _warmed_engine()
    hot_paths = {
        "checkpoint": _pair_checkpoint(engine),
        "advise_grouping": _pair_advise_grouping(),
        "replay_target": _pair_replay_target(),
        "metric_labels": _pair_metric_labels(),
    }
    for stats in hot_paths.values():
        stats["speedup"] = round(stats["baseline_usec"] / stats["optimized_usec"], 3)
        stats["baseline_usec"] = round(stats["baseline_usec"], 3)
        stats["optimized_usec"] = round(stats["optimized_usec"], 3)
    report = {
        "suite": "simperf",
        "hot_paths": hot_paths,
        "end_to_end": _end_to_end(),
        "uvmsan": _uvmsan_identity(),
        "lint": _lint_timing(),
    }
    PERF_PATH.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _check(report: dict) -> None:
    speedups = {
        name: stats["speedup"] for name, stats in report["hot_paths"].items()
    }
    assert max(speedups.values()) >= SPEEDUP_FLOOR, speedups
    assert report["end_to_end"]["batches_per_sec"] > 0, report["end_to_end"]
    assert report["uvmsan"]["timeline_identical"], report["uvmsan"]
    assert report["uvmsan"]["violations"] == 0, report["uvmsan"]


def bench_simperf_hot_paths():
    report = run_suite()
    _check(report)


def main() -> int:
    report = run_suite()
    print(json.dumps(report, indent=2, sort_keys=True))
    _check(report)
    print(f"\nwrote {PERF_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
