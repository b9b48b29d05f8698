"""The benchmark's tracer, bench/spans.py, run against this checkout.

The tracer wraps module functions by name and reads the result of
`refiner.kb_reconcile`, so renaming a traced function or reshaping that
result fails here, not only in a traced benchmark run. So does a change
that leaves a per-layer metric of BENCHMARK.json unmeasured, which the
traced benchmark counts as a failed operation.
"""

import importlib.util
import json
import pathlib
import sys

from intentrefine import cli

from conftest import FIXTURES

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _traced_metrics(op):
    """The per-layer metrics of BENCHMARK.json for `op` that bench/spans.py
    computes; the cli.* and trace.* ones are measured by bench/run.py."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"].split(".", 1) for m in spec["per_layer"]]
    return {name for o, name in names
            if o == op and not name.startswith(("cli.", "trace."))}


def test_traced_runs_measure_every_per_layer_metric(tmp_path, monkeypatch):
    spans = _load_spans(monkeypatch)
    argv = [
        "run",
        "--topology", str(FIXTURES / "scenario1" / "topology.yaml"),
        "--hspl", str(FIXTURES / "scenario1" / "hspl.xml"),
        "--knowledge", str(FIXTURES / "scenario1" / "knowledge.json"),
        "--catalog", str(FIXTURES / "catalog.json"),
        "--kb", str(tmp_path / "kb.json"),
        "--out", str(tmp_path / "out"),
    ]
    tracer = spans.Tracer()

    def traced_run():
        # Installed per op, as the benchmark does: the wrappers append to the
        # span list that was current when they were installed.
        tracer.install()
        try:
            assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
        return spans.layer_metrics(tracer.take())

    cold, warm = traced_run(), traced_run()

    assert _traced_metrics("run_cold") <= set(cold)
    assert _traced_metrics("run_warm") <= set(warm)
    assert cold["refiner.kb_hit_ratio"] == 0.0
    assert warm["refiner.kb_hit_ratio"] == 1.0
    for metrics in (cold, warm):
        assert metrics["refiner.place_calls"] == 1
        assert metrics["refiner.cover_size"] == 2
        assert metrics["refiner.place_yield"] == 1.0
        assert metrics["refiner.artifacts"] == 4
