"""End-to-end acceptance suite.

One test per release criterion; each prints a PASS line on success (run with
`pytest tests/test_acceptance.py -v -s` to see them). Golden outputs are
asserted byte-for-byte; placement minimality is checked against an exhaustive
subset-enumeration oracle on randomized topologies.
"""

import json
import pathlib
import random

import pytest

from intentrefine import (
    capability,
    cli,
    converter,
    extractor,
    factbase,
    refiner,
    topology,
    verifier,
)
from intentrefine.errors import Unenforceable, UnknownSlot
from intentrefine.verifier import FlowSpec

from conftest import EXIT_CODES_BY_NAME, FIXTURES, read_fixture
from randomtopo import oracle_min_cover, oracle_verdicts, random_topology

GOLDEN_IPTABLES = (
    "iptables -A FORWARD -m conntrack --ctstate NEW,ESTABLISHED "
    "-s 80.71.158.96 -d 172.19.0.3 -j DROP\n"
    "iptables -A FORWARD -m conntrack --ctstate ESTABLISHED,RELATED "
    "-s 172.19.0.3 -d 80.71.158.96 -j DROP\n"
)

GOLDEN_MODSECURITY = (
    'SecRule REQUEST_HEADERS:Host "@rx ^hadleyshope\\.3utilities\\.com$" \\\n'
    '  "deny, id:1"\n'
)


def run_pipeline(scenario, out_dir, kb_path=None, topology_name="topology.yaml"):
    args = [
        "run",
        "--topology", str(FIXTURES / scenario / topology_name),
        "--hspl", str(FIXTURES / scenario / "hspl.xml"),
        "--knowledge", str(FIXTURES / scenario / "knowledge.json"),
        "--catalog", str(FIXTURES / "catalog.json"),
        "--out", str(out_dir),
    ]
    if kb_path:
        args += ["--kb", str(kb_path)]
    return cli.main(args)


def read_tree(out_dir):
    return {
        p.name: p.read_text()
        for p in sorted(pathlib.Path(out_dir).iterdir())
        if not p.name.startswith(".")
    }


def test_criterion_1_scenario1_reproduction(tmp_path, catalog, scenario1_topology):
    paths = topology.enumerate_paths(scenario1_topology, "Eve", "Bob")
    assert [p.devices(scenario1_topology) for p in paths] == [
        ("FW1", "FW4"),
        ("FW1", "FW5"),
        ("FW2", "FW3"),
    ]

    assert run_pipeline("scenario1", tmp_path / "out") == 0
    tree = read_tree(tmp_path / "out")
    artifacts = json.loads(tree["artifacts.json"])
    assert sorted({a["device"] for a in artifacts}) == ["FW1", "FW3"]
    assert tree["FW1.rules"] == GOLDEN_IPTABLES
    assert tree["FW3.rules"] == GOLDEN_IPTABLES
    print("criterion 1 (scenario-1 reproduction): PASS")


def test_criterion_2_scenario2_reproduction(tmp_path, scenario2_topology):
    paths = topology.enumerate_paths(scenario2_topology, "Alice", "WebServer")
    assert [list(p.intermediate) for p in paths] == [
        ["Subnet1", "FW1", "Subnet2", "FW3", "WAF", "Subnet3"],
        ["Subnet1", "FW2", "Subnet2", "FW3", "WAF", "Subnet3"],
    ]

    assert run_pipeline("scenario2", tmp_path / "out") == 0
    tree = read_tree(tmp_path / "out")
    artifacts = json.loads(tree["artifacts.json"])
    assert [(a["device"], a["nsf"]) for a in artifacts] == [("WAF", "ModSecurity")]
    assert tree["WAF.rules"] == GOLDEN_MODSECURITY
    print("criterion 2 (scenario-2 reproduction): PASS")


def test_criterion_3_adaptive_schema(scenario1_knowledge):
    # second report arrives after the first: schema grows, facts survive
    indicators = extractor.extract_indicators(read_fixture("scenario2", "cti.txt"))
    grown = extractor.indicators_to_knowledge(indicators, scenario1_knowledge)
    assert grown.templates["entity"].slots == ("destination-ip-address", "url")
    assert grown.facts[: len(scenario1_knowledge.facts)] == scenario1_knowledge.facts

    # counterfactual: the url fact against the unextended schema must fail
    url_fact = factbase.Fact(
        template="entity", bindings=(("url", "hadleyshope.3utilities.com"),)
    )
    with pytest.raises(UnknownSlot):
        factbase.validate_fact(scenario1_knowledge, url_fact)
    print("criterion 3 (adaptive schema): PASS")


def test_criterion_4_minimality_property_suite(catalog):
    rng = random.Random(20240826)
    solvable = unenforceable = 0
    intent = refiner.HsplPolicy(
        id="h", subject="A", action="deny-access", object="B"
    )
    knowledge = factbase.parse_knowledge(json.dumps({
        "templates": ["(deftemplate entity (slot destination-ip-address (type STRING)))"],
        "facts": ['(entity (destination-ip-address "10.0.0.1"))'],
    }))
    flow = FlowSpec(src_ip="10.0.0.1", dst_ip="10.0.0.9")

    while solvable + unenforceable < 200:
        t = random_topology(rng)
        paths = topology.enumerate_paths(t, "A", "B")
        if not paths or len(paths) > 10:
            continue
        capable_per_path = [
            frozenset(d for d in p.devices(t) if t.nodes[d].controls) for p in paths
        ]
        expected = oracle_min_cover(capable_per_path)

        if expected is None:
            with pytest.raises(Unenforceable):
                refiner.select_enforcement_set(
                    paths, t, catalog, capability.NETWORK_REQUIRED
                )
            unenforceable += 1
            continue

        devices, _ = refiner.select_enforcement_set(
            paths, t, catalog, capability.NETWORK_REQUIRED
        )
        # exact minimality and full coverage
        assert len(devices) == len(expected)
        assert all(devices & s for s in capable_per_path)

        artifacts, _, _ = refiner.refine(t, [intent], knowledge, catalog)
        blocked, _ = verifier.verify_deployment(t, artifacts, catalog, flow, "A", "B")
        assert blocked
        # removing any selected device opens a verifier-detected bypass
        for removed in devices:
            partial = [a for a in artifacts if a.device != removed]
            still_blocked, _ = verifier.verify_deployment(
                t, partial, catalog, flow, "A", "B"
            )
            assert not still_blocked
        solvable += 1

    assert solvable + unenforceable >= 200
    print(
        f"criterion 4 (minimality suite, {solvable} solvable / "
        f"{unenforceable} unenforceable instances): PASS"
    )


def test_criterion_5_verifier_behavioral_suite(
    tmp_path, catalog, scenario1_topology, scenario1_knowledge, scenario1_intent,
    scenario2_topology, scenario2_knowledge, scenario2_intent,
):
    s1_artifacts, _, _ = refiner.refine(
        scenario1_topology, [scenario1_intent], scenario1_knowledge, catalog
    )
    malicious = FlowSpec(src_ip="80.71.158.96", dst_ip="172.19.0.3")
    verdicts = oracle_verdicts(verifier.evaluate_flow(
        scenario1_topology, s1_artifacts, catalog, malicious, "Eve", "Bob"
    ))
    assert [device for _, device in verdicts] == ["FW1", "FW1", "FW3"]

    s2_artifacts, _, _ = refiner.refine(
        scenario2_topology, [scenario2_intent], scenario2_knowledge, catalog
    )
    bad_host = FlowSpec(
        src_ip="172.20.0.2", dst_ip="172.20.0.3", l7_host="hadleyshope.3utilities.com"
    )
    good_host = FlowSpec(
        src_ip="172.20.0.2", dst_ip="172.20.0.3", l7_host="allowed.utilities.com"
    )
    bad = oracle_verdicts(verifier.evaluate_flow(
        scenario2_topology, s2_artifacts, catalog, bad_host, "Alice", "WebServer"
    ))
    good = oracle_verdicts(verifier.evaluate_flow(
        scenario2_topology, s2_artifacts, catalog, good_host, "Alice", "WebServer"
    ))
    assert [device for _, device in bad] == ["WAF"] * 2
    assert [device for _, device in good] == [None] * 2

    # network-only devices cannot distinguish flows differing only in l7 host
    with_host = FlowSpec(
        src_ip="80.71.158.96", dst_ip="172.19.0.3", l7_host="any.example.com"
    )
    assert oracle_verdicts(verifier.evaluate_flow(
        scenario1_topology, s1_artifacts, catalog, with_host, "Eve", "Bob"
    )) == verdicts
    print("criterion 5 (verifier behavioral suite): PASS")


def test_criterion_6_determinism_and_reuse(tmp_path, caplog):
    out = tmp_path / "out"
    kb = tmp_path / "kb.json"
    assert run_pipeline("scenario1", out, kb_path=kb) == 0
    first = read_tree(out)
    first_kb = kb.read_text()
    assert first_kb == (
        '{"placements":[{"intents":{"hspl1":["Eve","deny-access","Bob"]},'
        '"placement":{"network":{"FW1":"IpTables","FW3":"IpTables"}}}]}\n')

    with caplog.at_level("INFO"):
        assert run_pipeline("scenario1", out, kb_path=kb) == 0
    assert read_tree(out) == first
    assert kb.read_text() == first_kb
    messages = [r.message for r in caplog.records]
    assert any("event=kb_reuse intent=hspl1 result=hit" in m for m in messages)
    assert not any("result=miss" in m or "corrupt" in m for m in messages)

    # one removed link moves the placement: the record is stale, with the
    # device the new placement no longer holds
    modified = tmp_path / "modified.yaml"
    modified.write_text(
        read_fixture("scenario1", "topology.yaml").replace("  - [FW2, FW3]\n", "")
    )
    caplog.clear()
    with caplog.at_level("INFO"):
        code = cli.main([
            "run",
            "--topology", str(modified),
            "--hspl", str(FIXTURES / "scenario1" / "hspl.xml"),
            "--knowledge", str(FIXTURES / "scenario1" / "knowledge.json"),
            "--catalog", str(FIXTURES / "catalog.json"),
            "--out", str(out),
            "--kb", str(kb),
        ])
    assert code == 0
    reuse = [r.message for r in caplog.records if "event=kb_reuse" in r.message]
    assert reuse == ["stage=refiner event=kb_reuse intent=hspl1 "
                     "result=stale added= removed=network:FW3:IpTables"]
    print("criterion 6 (determinism and reuse): PASS")


def test_criterion_7_roundtrip_and_unenforceability(tmp_path, capsys):
    out = tmp_path / "out"
    for scenario in ("scenario1", "scenario2"):
        assert run_pipeline(scenario, out / scenario) == 0
        for path in pathlib.Path(out / scenario).glob("*.mspl.xml"):
            text = path.read_text()
            policy = converter.parse_mspl(text)
            assert converter.serialize_mspl(policy) == text

    code = run_pipeline(
        "scenario1", out / "unenforceable",
        topology_name="topology_unenforceable.yaml",
    )
    assert code == EXIT_CODES_BY_NAME["Unenforceable"]
    err = capsys.readouterr().err
    assert "FW2" in err and "FW3" in err
    assert not pathlib.Path(out / "unenforceable").exists() or not read_tree(
        out / "unenforceable"
    )
    print("criterion 7 (round-trip and unenforceability): PASS")
