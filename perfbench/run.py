"""Repo benchmark: wall time per simulated fault on three paper workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-oversub --seed 0 --seconds 30 --trace 0

One invocation is a closed loop with one client: it runs one workload sample
at a time, each in a fresh process (see ``child.py``), until ``--seconds``
have passed, and reports medians over the samples.

- ``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``setup_s``,
  ``us_per_fault``, ``us_per_batch``, ``sim_per_wall``, ``peak_rss_mb``.
- ``--trace 1`` alternates untraced and traced samples and reports the
  per-layer metrics: each layer's self time and call count from the traced
  samples, the exact work counts from the untraced ones, and
  ``trace_overhead``, the ratio of their median wall times.

Before the timed loop, one UVMSan run (report mode) must find zero
violations and reproduce the committed anchors for the seed; seeds without
committed anchors take that checked run's anchors as the reference.  A
timed sample that raises or whose anchors differ from the reference counts
as failed, and its timing is dropped.

Host times are reported at a fixed reference speed.  On a shared 2-vCPU
VM the host's speed drifts by +-20% over tens of seconds, which no statistic
over one run's samples removes; so every sample times ``child.reference_task`` (fixed
pure-Python work sharing no code with the simulator) just before and after
its run, and each of its host times is scaled by
``REFERENCE_S / reference time``.  This cut the spread of 30-second medians
of ``sgemm-oversub`` wall time from 18% to 3% of their median.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ANCHORS_PATH = HERE / "anchors.json"
WORKLOADS = ("stream-oversub", "sgemm-oversub", "random-sparse")

#: Nominal wall time of ``child.reference_task``: host times are reported
#: as if every sample ran at the speed where the task takes this long.
REFERENCE_S = 0.25

#: A sample that takes longer than this is killed and counted as failed.
SAMPLE_TIMEOUT_S = 120


def run_sample(workload: str, seed: int, mode: str) -> "dict | None":
    """One ``child.py`` run; ``None`` if it failed to produce a result."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} sample timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {mode} sample failed:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def committed_anchors(workload: str, seed: int) -> "dict | None":
    table = json.loads(ANCHORS_PATH.read_text())
    return table.get(workload, {}).get(str(seed))


def check_run(workload: str, seed: int) -> "tuple[dict | None, list]":
    """The UVMSan run.  Returns the reference anchors (the committed ones
    when the seed has them, else the checked run's) and the problems found."""
    checked = run_sample(workload, seed, "checked")
    expected = committed_anchors(workload, seed)
    if checked is None:
        return expected, ["UVMSan run raised"]
    problems = []
    if checked["violations"]:
        problems.append(f"UVMSan reported {checked['violations']} violations")
    if expected is None:
        return checked["anchors"], problems
    if checked["anchors"] != expected:
        problems.append(f"UVMSan run anchors {checked['anchors']} != committed {expected}")
    return expected, problems


def at_reference_speed(sample: dict) -> dict:
    """Scale a sample's host times to the reference speed (see above)."""
    scale = REFERENCE_S / sample["reference_s"]
    sample["setup_s"] *= scale
    sample["wall_s"] *= scale
    if "self_s" in sample:
        sample["self_s"] = {k: v * scale for k, v in sample["self_s"].items()}
    return sample


def timed_loop(workload: str, seed: int, seconds: float, modes, reference: dict):
    """Run samples, cycling through ``modes``, until ``seconds`` have passed
    and every mode has run once.  Returns ``(samples by mode, attempted,
    failed)``; a sample whose anchors differ from ``reference`` is failed."""
    samples = {mode: [] for mode in modes}
    attempted = failed = 0
    deadline = time.monotonic() + seconds
    while attempted < len(modes) or time.monotonic() < deadline:
        mode = modes[attempted % len(modes)]
        attempted += 1
        sample = run_sample(workload, seed, mode)
        if sample is None or sample["anchors"] != reference:
            failed += 1
            continue
        samples[mode].append(at_reference_speed(sample))
    return samples, attempted, failed


def end_to_end_metrics(plain: list, reference: dict) -> dict:
    wall = statistics.median(s["wall_s"] for s in plain)
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in plain), "s"),
        "us_per_fault": (wall * 1e6 / reference["faults_raw"], "us"),
        "us_per_batch": (wall * 1e6 / reference["batches"], "us"),
        "sim_per_wall": (reference["clock_usec"] / (wall * 1e6), "ratio"),
        "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in plain), "MB"),
    }


COUNT_UNITS = {
    "workloads.pages_listed": "pages",
    "gpu.faults_raw": "faults",
    "gpu.dropped_at_flush": "faults",
    "core.batches": "batches",
    "core.faults_unique": "faults",
    "core.dedup_ratio": "ratio",
    "core.vablocks_per_batch": "blocks/batch",
    "core.pages_prefetched": "pages",
    "core.evictions": "vablocks",
    "core.pages_evicted": "pages",
    "hostos.dma_mappings": "pages",
    "hostos.radix_nodes": "nodes",
    "hostos.pages_unmapped": "pages",
    "gpu.copy_engine.bytes_h2d": "bytes",
    "gpu.copy_engine.bytes_d2h": "bytes",
}


def per_layer_metrics(plain: list, traced: list) -> dict:
    metrics = {}
    for layer in traced[0]["self_s"]:
        metrics[f"{layer}.self_s"] = (
            statistics.median(s["self_s"][layer] for s in traced), "s"
        )
        metrics[f"{layer}.calls"] = (traced[0]["calls"][layer], "calls")
    metrics["trace_overhead"] = (
        statistics.median(s["wall_s"] for s in traced)
        / statistics.median(s["wall_s"] for s in plain),
        "ratio",
    )
    for name, value in plain[0]["counts"].items():
        metrics[name] = (value, COUNT_UNITS[name])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    reference, problems = check_run(args.workload, args.seed)
    for problem in problems:
        print(f"perfbench: correctness check failed: {problem}", file=sys.stderr)
    if reference is None:
        return 1
    modes = ("plain", "traced") if args.trace else ("plain",)
    samples, attempted, failed = timed_loop(
        args.workload, args.seed, args.seconds, modes, reference
    )
    if any(not runs for runs in samples.values()):
        print("perfbench: every sample of a mode failed", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(samples["plain"], samples["traced"])
    else:
        metrics = end_to_end_metrics(samples["plain"], reference)

    print(f"workload {args.workload}  seed {args.seed}  anchors {reference}")
    print(f"samples {len(samples['plain'])} untraced"
          + (f", {len(samples['traced'])} traced" if args.trace else "")
          + f"  failed_runs {failed}/{attempted}")
    if args.trace:
        traced_wall = statistics.median(s["wall_s"] for s in samples["traced"])
        print(f"traced wall_s {traced_wall:.6g} s (self-time shares below are of this)")
    for name, (value, unit) in metrics.items():
        share = f"  {value / traced_wall:6.1%}" if name.endswith(".self_s") else ""
        print(f"  {name:32s} {value:>16.6g} {unit}{share}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
