"""Deterministic tests of the benchmark itself (not of the simulator).

Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from child import measure  # noqa: E402
from layers import LAYERS, LayerTracer  # noqa: E402
from workloads import DEFAULT_SEED, build  # noqa: E402

PREFETCH_ON = {"random-sparse"}
OBS_ON = {"stream-oversub"}


@pytest.fixture(scope="module")
def traced_runs():
    return {w: measure(w, DEFAULT_SEED, "traced") for w in run.WORKLOADS}


def _bindings(workload_cls):
    return [
        (owner, attr, vars(owner).get(attr))
        for _layer, owner, attr in LayerTracer(workload_cls).targets
    ]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_restores_class_level_wraps(workload, traced_runs):
    _cfg, wl = build(workload, DEFAULT_SEED)
    before = _bindings(type(wl))
    measure(workload, DEFAULT_SEED, "traced")
    assert _bindings(type(wl)) == before
    # ``steps`` is inherited on sgemm's class; the wrap must not linger there.
    for owner, attr, original in before:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
    plain = measure(workload, DEFAULT_SEED, "plain")
    assert plain["anchors"] == traced_runs[workload]["anchors"]


def test_wraps_restored_when_the_run_raises():
    _cfg, wl = build("random-sparse", DEFAULT_SEED)
    before = _bindings(type(wl))
    with pytest.raises(RuntimeError):
        with LayerTracer(type(wl)):
            raise RuntimeError("boom")
    assert _bindings(type(wl)) == before


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_self_times_fit_in_traced_wall(workload, traced_runs):
    traced = traced_runs[workload]
    assert set(traced["self_s"]) == set(LAYERS)
    assert all(t >= 0.0 for t in traced["self_s"].values())
    assert sum(traced["self_s"].values()) <= traced["wall_s"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_switched_off_layers_see_no_calls(workload, traced_runs):
    calls = traced_runs[workload]["calls"]
    assert (calls["core.prefetch"] > 0) == (workload in PREFETCH_ON)
    assert (calls["obs"] > 0) == (workload in OBS_ON)
    assert calls["core.driver"] == traced_runs[workload]["anchors"]["batches"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_default_seed_reproduces_committed_anchors(workload, traced_runs):
    assert traced_runs[workload]["anchors"] == run.committed_anchors(workload, DEFAULT_SEED)


def test_same_seed_gives_identical_anchors():
    seed = 1000  # not in the committed table
    first = measure("random-sparse", seed, "plain")
    assert measure("random-sparse", seed, "plain")["anchors"] == first["anchors"]
    assert first["anchors"] != run.committed_anchors("random-sparse", DEFAULT_SEED)


def test_perturbed_anchor_fails_the_run():
    reference = dict(run.committed_anchors("random-sparse", DEFAULT_SEED))
    _samples, attempted, failed = run.timed_loop(
        "random-sparse", DEFAULT_SEED, 0, ("plain",), reference
    )
    assert (attempted, failed) == (1, 0)
    reference["clock_usec"] = reference["clock_usec"] + 1e-9
    samples, attempted, failed = run.timed_loop(
        "random-sparse", DEFAULT_SEED, 0, ("plain",), reference
    )
    assert (attempted, failed) == (1, 1)
    assert samples["plain"] == []


def test_perturbed_committed_anchor_fails_the_check(monkeypatch):
    reference = dict(run.committed_anchors("random-sparse", DEFAULT_SEED))
    reference["batches"] += 1
    monkeypatch.setattr(run, "committed_anchors", lambda workload, seed: reference)
    anchors, problems = run.check_run("random-sparse", DEFAULT_SEED)
    assert anchors == reference
    assert problems and "committed" in problems[0]


def test_benchmark_json_names_what_run_reports(traced_runs):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    plain = measure("random-sparse", DEFAULT_SEED, "plain")
    reference = plain["anchors"]
    end_to_end = run.end_to_end_metrics([plain], reference)
    assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end)
    per_layer = run.per_layer_metrics([plain], [traced_runs["random-sparse"]])
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert units == {name: unit for name, (_v, unit) in {**end_to_end, **per_layer}.items()}
