"""Tests for the A/B comparison tool, the compare CLI, and module doctests."""

import doctest

import pytest

from repro.analysis.compare import Comparison, ComparisonRow, compare_configs
from repro.cli import main
from repro.config import default_config
from repro.units import MB
from repro.workloads import StreamTriad


class TestCompareConfigs:
    def make(self):
        def cfg(**kw):
            c = default_config(**kw)
            c.gpu.memory_bytes = 32 * MB
            return c

        return compare_configs(
            lambda: StreamTriad(nbytes=4 * MB),
            cfg(prefetch_enabled=True),
            cfg(prefetch_enabled=False),
            label_a="pf on",
            label_b="pf off",
        )

    def test_prefetch_wins_on_batches(self):
        comparison = self.make()
        assert comparison.metric("batches").ratio < 0.6

    def test_unmap_unchanged(self):
        """§5.2: prefetching cannot mitigate the unmap cost."""
        comparison = self.make()
        row = comparison.metric("time: unmap_mapping_range (host OS)")
        assert row.a == pytest.approx(row.b, rel=0.2)

    def test_fault_service_mostly_eliminated(self):
        comparison = self.make()
        row = comparison.metric("time: per-page fault service + block locks")
        assert row.ratio < 0.6

    def test_render_contains_labels(self):
        out = self.make().render()
        assert "pf on" in out and "pf off" in out

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            self.make().metric("nope")

    def test_ratio_guards_zero(self):
        row = ComparisonRow("x", 1.0, 0.0)
        assert row.ratio == float("inf")


class TestCompareCli:
    def test_compare_default(self, capsys):
        assert main(["compare", "vecadd", "--gpu-mb", "16"]) == 0
        out = capsys.readouterr().out
        assert "prefetch on" in out and "prefetch off" in out

    def test_compare_batch_sizes(self, capsys):
        assert main(["compare", "vecadd", "--gpu-mb", "16",
                     "--batch-sizes", "64", "512"]) == 0
        out = capsys.readouterr().out
        assert "cap 64" in out and "cap 512" in out

    def test_compare_unknown(self, capsys):
        assert main(["compare", "nope"]) == 2


class TestDoctests:
    """Run the executable examples embedded in docstrings."""

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.units",
            "repro.sim.rng",
            "repro.sim.clock",
            "repro.gpu.copy_engine",
            "repro.hostos.cpu",
            "repro.hostos.radix_tree",
            "repro.core.residency",
            "repro.analysis.fits",
            "repro.analysis.timeseries",
            "repro.analysis.report",
            "repro.apps.gemm",
            "repro.apps.triad",
            "repro.apps.fft",
            "repro.apps.multigrid",
            "repro.apps.graph",
            "repro.workloads.base",
        ],
    )
    def test_module_doctests(self, module_name):
        module = __import__(module_name, fromlist=["_"])
        results = doctest.testmod(module, verbose=False)
        assert results.failed == 0, f"{results.failed} doctest failures in {module_name}"
