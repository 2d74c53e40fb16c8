"""One measured workload run, in a process of its own.

``run.py`` starts one of these per sample, because ``ru_maxrss`` never
falls and peak memory must belong to a single run.  Modes:

- ``plain``: tracing off; reports timings, anchors and per-layer counts;
- ``traced``: the same run under :class:`layers.LayerTracer`;
- ``checked``: UVMSan on in report mode; reports its violation count.

Every sample also times :func:`reference_task` just before and just after
the run, so ``run.py`` can cancel the host's speed drift (see there).

Prints one JSON object on stdout.  Run directly for a single sample::

    python3 perfbench/child.py --workload sgemm-oversub --seed 0 --mode plain
"""

from __future__ import annotations

import argparse
import contextlib
import heapq
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import UvmSystem  # noqa: E402
from repro.config import CheckConfig  # noqa: E402

from layers import LayerTracer  # noqa: E402
from workloads import anchors, build, counts  # noqa: E402

MODES = ("plain", "traced", "checked")

#: Passes of :func:`reference_task`: two take about 0.2 s on a shared
#: 2-vCPU Xeon VM, where the benchmark was tuned.
REFERENCE_PASSES = 2


class _Record:
    __slots__ = ("page", "sm", "t")

    def __init__(self, page: int, sm: int, t: float) -> None:
        self.page = page
        self.sm = sm
        self.t = t


def _reference_pass(rounds: int = 40_000) -> None:
    records = [_Record((i * 7919) % 262_139, i % 80, i * 0.5) for i in range(rounds)]
    by_block: dict = {}
    for record in records:
        by_block.setdefault(record.page >> 9, []).append(record)
    live: set = set()
    heap: list = []
    for i in range(rounds):
        record = records[(i * 104_729) % rounds]
        if record.page in live:
            live.discard(record.page)
        else:
            live.add(record.page)
        heapq.heappush(heap, (record.t, i))
        if len(heap) > 256:
            heapq.heappop(heap)
        if i % 4096 == 0:
            sorted(live)


def reference_task(passes: int = REFERENCE_PASSES) -> float:
    """Wall time of fixed pure-Python work shaped like the simulator's:
    slotted records, dict grouping, set toggles, a heap and sorts, over a
    working set of ~12 MB (below every workload's own peak, so it never
    sets ``peak_rss_mb``).  It shares no code with the simulator, so its
    time tracks only the host's speed."""
    start = time.perf_counter()
    for _ in range(passes):
        _reference_pass()
    return time.perf_counter() - start


def measure(workload: str, seed: int, mode: str) -> dict:
    """Build, set up and run ``workload`` once; return what ``mode`` reports."""
    cfg, wl = build(workload, seed)
    if mode == "checked":
        cfg.check = CheckConfig(enabled=True, mode="report")
    tracer = LayerTracer(type(wl)) if mode == "traced" else contextlib.nullcontext()
    reference_before = reference_task()
    with tracer:
        start = time.perf_counter()
        system = UvmSystem(cfg)
        steps = wl.steps(system)
        setup_done = time.perf_counter()
        result = system.run(steps, name=wl.name)
        end = time.perf_counter()
    # Linux reports ru_maxrss in KiB.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference_after = reference_task()
    out = {
        "setup_s": setup_done - start,
        "wall_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "anchors": anchors(system, result),
        "reference_s": (reference_before + reference_after) / 2,
    }
    if mode == "plain":
        out["counts"] = counts(steps, result)
    elif mode == "traced":
        out["self_s"] = tracer.self_s
        out["calls"] = tracer.calls
    else:
        out["violations"] = system.sanitizer.summary()["violations"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.mode)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
