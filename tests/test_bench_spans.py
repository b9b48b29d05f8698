"""The benchmark's tracer, bench/spans.py, run against this checkout.

The tracer wraps module functions by name and reads the result of
`refiner.kb_reconcile`, so renaming a traced function or reshaping that
result fails here, not only in a traced benchmark run. So does a change
that leaves a per-layer metric of BENCHMARK.json unmeasured in `run` or
`verify`, which the traced benchmark counts as a failed operation.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from intentrefine import cli, topology

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


def _traced_run(spans, tracer, argv):
    # Installed per op, as the benchmark does: the wrappers append to the
    # span list that was current when they were installed.
    tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return spans.layer_metrics(tracer.take())


def _run_argv(scenario, tmp_path, knowledge, *extra):
    return [
        "run",
        "--topology", str(FIXTURES / scenario / "topology.yaml"),
        "--hspl", str(FIXTURES / scenario / "hspl.xml"),
        "--knowledge", str(knowledge),
        "--catalog", str(FIXTURES / "catalog.json"),
        "--kb", str(tmp_path / "kb.json"),
        "--out", str(tmp_path / "out"),
        *extra,
    ]


def test_traced_runs_measure_every_per_layer_metric(tmp_path, monkeypatch):
    spans = _load_spans(monkeypatch)
    argv = _run_argv("scenario1", tmp_path, FIXTURES / "scenario1" / "knowledge.json")
    tracer = spans.Tracer()
    cold, warm = (_traced_run(spans, tracer, argv) for _ in range(2))

    assert _traced_metrics("run_cold") <= set(cold)
    assert _traced_metrics("run_warm") <= set(warm)
    assert cold["refiner.kb_hit_ratio"] == 0.0
    assert warm["refiner.kb_hit_ratio"] == 1.0
    # the counts of the paths themselves, built here as the run builds none
    t = topology.parse_topology((FIXTURES / "scenario1" / "topology.yaml").read_text())
    paths = list(topology.enumerate_paths(t, "Eve", "Bob"))
    candidates = {d for p in paths for d in p.devices(t)
                  if "IpTables" in t.nodes[d].controls}
    for metrics in (cold, warm):
        assert metrics["topology.paths"] == len(paths) == 3
        assert metrics["refiner.candidates"] == len(candidates) == 4
        assert metrics["refiner.place_calls"] == 1
        assert metrics["refiner.cover_size"] == 2
        assert metrics["refiner.place_yield"] == 1.0
        assert metrics["refiner.artifacts"] == 4


def test_traced_run_with_cti_measures_the_extractor(tmp_path, monkeypatch):
    """The CLI imports the extractor only for `--cti`, and calls it through
    the module, so the wrappers installed on the module's attributes see it."""
    spans = _load_spans(monkeypatch)
    argv = _run_argv("scenario1", tmp_path, FIXTURES / "scenario1" / "knowledge.json",
                     "--cti", str(FIXTURES / "scenario1" / "cti.txt"))
    cold = _traced_run(spans, spans.Tracer(), argv)

    assert _traced_metrics("run_cold") <= set(cold)
    assert cold["extractor.indicators"] == 1
    assert cold["extractor.extract_s"] > 0
    assert cold["extractor.to_knowledge_s"] > 0


def test_traced_run_with_a_stale_intent_measures_every_metric(tmp_path, monkeypatch):
    """Scenario 2 recorded with its url fact, then run with an added address
    fact: the stale intent counts as a miss, so the hit ratio stays defined."""
    spans = _load_spans(monkeypatch)
    knowledge = json.loads((FIXTURES / "scenario2" / "knowledge.json").read_text())
    knowledge["facts"].append('(entity (destination-ip-address "172.20.0.2"))')
    both = tmp_path / "knowledge.json"
    both.write_text(json.dumps(knowledge))
    tracer = spans.Tracer()

    recorded = _run_argv("scenario2", tmp_path, FIXTURES / "scenario2" / "knowledge.json")
    assert cli.main(recorded) == 0
    stale = _traced_run(spans, tracer, _run_argv("scenario2", tmp_path, both))

    assert _traced_metrics("run_warm") <= set(stale)
    assert stale["refiner.kb_hit_ratio"] == 0.0
    assert stale["refiner.place_calls"] == 2


def _ladder_topology(path, stages):
    """Scenario 1's Eve and Bob joined by `stages` stages of two devices in
    parallel between subnets: 2**stages paths."""
    nodes = ["  - {id: Eve, kind: endpoint, ip: 80.71.158.96}",
             "  - {id: Bob, kind: endpoint, ip: 172.19.0.3}"]
    nodes += [f"  - {{id: S{i}, kind: subnet}}" for i in range(stages + 1)]
    links = ["  - [Eve, S0]", f"  - [Bob, S{stages}]"]
    for i in range(stages):
        for side in "ab":
            nodes.append(f"  - {{id: L{i}{side}, kind: device, controls: [IpTables]}}")
            links += [f"  - [S{i}, L{i}{side}]", f"  - [L{i}{side}, S{i + 1}]"]
    path.write_text("\n".join(["nodes:", *nodes, "links:", *links, ""]))
    return path


# A 4-stage ladder's report joins 4 heads to 4 tails each.
@pytest.mark.parametrize("stages", [None, 4], ids=["scenario1", "ladder"])
def test_traced_verify_measures_every_per_layer_metric(tmp_path, monkeypatch, capsys, stages):
    """The counts of verify's lazy report, read after the op as the
    benchmark reads them: len() of evaluate_flow's result, and the report
    of verify_deployment iterated once more."""
    spans = _load_spans(monkeypatch)
    topology_path = FIXTURES / "scenario1" / "topology.yaml"
    if stages:
        topology_path = _ladder_topology(tmp_path / "ladder.yaml", stages)
    argv = _run_argv("scenario1", tmp_path, FIXTURES / "scenario1" / "knowledge.json")
    argv[argv.index("--topology") + 1] = str(topology_path)
    assert cli.main(argv) == 0
    capsys.readouterr()
    metrics = _traced_run(spans, spans.Tracer(), [
        "verify",
        "--topology", str(topology_path),
        "--catalog", str(FIXTURES / "catalog.json"),
        "--artifacts", str(tmp_path / "out" / "artifacts.json"),
        "--subject", "Eve", "--object", "Bob",
        "--src-ip", "80.71.158.96", "--dst-ip", "172.19.0.3",
    ])

    out = capsys.readouterr().out
    assert _traced_metrics("verify") <= set(metrics)
    # verify joins segment routes and never enumerates paths
    assert metrics["topology.enumerate_calls"] == 0
    assert metrics["verifier.paths"] == (2 ** stages if stages else 3) == sum(
        line.startswith(("BLOCKED ", "ALLOWED ")) for line in out.splitlines())
    assert metrics["verifier.report_bytes"] == len(out.encode())
