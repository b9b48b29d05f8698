import ipaddress
import itertools
import math
import random
import re

import pytest
from hypothesis import given, strategies as st

from intentrefine import capability, cli, converter, refiner, topology, translator, verifier
from intentrefine.capability import CapabilityId
from intentrefine.errors import UnknownEndpoint, ValidationError
from intentrefine.verifier import FlowSpec, evaluate_flow, verify_deployment

from conftest import FIXTURES
from randomtopo import (grid_document, oracle_simple_paths, oracle_verdicts, random_topology,
                        series_parallel_topology)

MALICIOUS_FLOW = FlowSpec(src_ip="80.71.158.96", dst_ip="172.19.0.3")


def _lines(report):
    """The report's lines, read from its blocks of lines."""
    return "\n".join(report).split("\n")


def _artifacts(t, intent, knowledge, catalog):
    artifacts, _, _ = refiner.refine(t, [intent], knowledge, catalog)
    return artifacts


@pytest.fixture()
def scenario1_artifacts(scenario1_topology, scenario1_intent, scenario1_knowledge, catalog):
    return _artifacts(scenario1_topology, scenario1_intent, scenario1_knowledge, catalog)


@pytest.fixture()
def scenario2_artifacts(scenario2_topology, scenario2_intent, scenario2_knowledge, catalog):
    return _artifacts(scenario2_topology, scenario2_intent, scenario2_knowledge, catalog)


def test_scenario1_flow_blocked_everywhere(scenario1_topology, scenario1_artifacts, catalog):
    verdicts = oracle_verdicts(evaluate_flow(
        scenario1_topology, scenario1_artifacts, catalog, MALICIOUS_FLOW, "Eve", "Bob"
    ))
    assert [device for _, device in verdicts] == ["FW1", "FW1", "FW3"]


def test_blocking_device_lies_on_its_path(scenario1_topology, scenario1_artifacts, catalog):
    verdicts = oracle_verdicts(evaluate_flow(
        scenario1_topology, scenario1_artifacts, catalog, MALICIOUS_FLOW, "Eve", "Bob"
    ))
    paths = topology.enumerate_paths(scenario1_topology, "Eve", "Bob")
    assert [route for route, _ in verdicts] == [
        repr(list(p.intermediate))[1:-1] for p in paths
    ]
    for route, device in verdicts:
        assert repr(device) in route.split(", ")


def test_no_artifacts_allows_everything(scenario1_topology, catalog):
    verdicts = oracle_verdicts(evaluate_flow(
        scenario1_topology, [], catalog, MALICIOUS_FLOW, "Eve", "Bob"
    ))
    assert [device for _, device in verdicts] == [None] * 3


def test_scenario2_malicious_host_blocked_at_waf(scenario2_topology, scenario2_artifacts, catalog):
    flow = FlowSpec(
        src_ip="172.20.0.2", dst_ip="172.20.0.3", l7_host="hadleyshope.3utilities.com"
    )
    verdicts = oracle_verdicts(evaluate_flow(
        scenario2_topology, scenario2_artifacts, catalog, flow, "Alice", "WebServer"
    ))
    assert [device for _, device in verdicts] == ["WAF"] * 2


def test_scenario2_benign_host_allowed(scenario2_topology, scenario2_artifacts, catalog):
    flow = FlowSpec(
        src_ip="172.20.0.2", dst_ip="172.20.0.3", l7_host="allowed.utilities.com"
    )
    verdicts = oracle_verdicts(evaluate_flow(
        scenario2_topology, scenario2_artifacts, catalog, flow, "Alice", "WebServer"
    ))
    assert [device for _, device in verdicts] == [None, None]


def test_network_devices_blind_to_l7_host(scenario1_topology, scenario1_artifacts, catalog):
    # flows differing only in the HTTP host get identical verdicts at
    # network-only devices
    plain = oracle_verdicts(evaluate_flow(
        scenario1_topology, scenario1_artifacts, catalog, MALICIOUS_FLOW, "Eve", "Bob"
    ))
    with_host = oracle_verdicts(evaluate_flow(
        scenario1_topology,
        scenario1_artifacts,
        catalog,
        FlowSpec(src_ip="80.71.158.96", dst_ip="172.19.0.3", l7_host="any.example.com"),
        "Eve",
        "Bob",
    ))
    assert list(plain) == list(with_host)


def test_verify_deployment_true_for_full_deployment(scenario1_topology, scenario1_artifacts, catalog):
    blocked, report = verify_deployment(
        scenario1_topology, scenario1_artifacts, catalog, MALICIOUS_FLOW, "Eve", "Bob"
    )
    assert blocked
    assert all(line.startswith("BLOCKED") for line in _lines(report))


def test_removing_a_selected_device_creates_bypass(scenario1_topology, scenario1_artifacts, catalog):
    for removed in {"FW1", "FW3"}:
        partial = [a for a in scenario1_artifacts if a.device != removed]
        blocked, report = verify_deployment(
            scenario1_topology, partial, catalog, MALICIOUS_FLOW, "Eve", "Bob"
        )
        assert not blocked
        assert any("bypass" in line for line in report)


def test_empty_path_set_vacuously_blocked(catalog):
    doc = """
nodes:
  - {id: A, kind: endpoint, ip: 1.1.1.1}
  - {id: B, kind: endpoint, ip: 2.2.2.2}
  - {id: S1, kind: subnet}
  - {id: S2, kind: subnet}
links:
  - [A, S1]
  - [B, S2]
"""
    t = topology.parse_topology(doc)
    blocked, report = verify_deployment(
        t, [], catalog, FlowSpec(src_ip="1.1.1.1", dst_ip="2.2.2.2"), "A", "B"
    )
    assert blocked
    assert any("warning" in line for line in report)


def test_flow_requires_distinct_ips():
    with pytest.raises(ValidationError):
        FlowSpec(src_ip="1.1.1.1", dst_ip="1.1.1.1")


def test_unknown_endpoint_rejected(scenario1_topology, catalog):
    with pytest.raises(UnknownEndpoint):
        evaluate_flow(scenario1_topology, [], catalog, MALICIOUS_FLOW, "Eve", "Mallory")


# --- agreement with the translator -------------------------------------------

ONE_DEVICE = """
nodes:
  - {id: A, kind: endpoint, ip: 10.0.0.100}
  - {id: B, kind: endpoint, ip: 10.0.0.101}
  - {id: S1, kind: subnet}
  - {id: S2, kind: subnet}
  - {id: FW, kind: device, controls: [IpTables]}
links:
  - [A, S1]
  - [S1, FW]
  - [FW, S2]
  - [S2, B]
"""

# A small address pool, so that generated rules often match generated flows.
addresses = st.integers(0, 7).map(lambda i: f"10.0.0.{i}")


@st.composite
def address_details(draw):
    kind = draw(st.sampled_from(["exact", "range", "union"]))
    if kind == "exact":
        return draw(addresses)
    if kind == "range":
        begin, end = sorted(draw(st.lists(st.integers(0, 7), min_size=2, max_size=2)))
        return f"10.0.0.{begin}-10.0.0.{end}"
    return ",".join(draw(st.lists(addresses, min_size=2, max_size=3, unique=True)))


@st.composite
def iptables_artifacts(draw):
    instances = []
    for capability_id in (CapabilityId.IP_SOURCE, CapabilityId.IP_DESTINATION):
        detail = draw(st.none() | address_details())
        if detail is not None:
            instances.append(refiner.CapabilityInstance(capability_id, detail))
    if draw(st.booleans()):
        instances.append(refiner.CapabilityInstance(CapabilityId.STATE, "NEW"))
    instances.append(refiner.CapabilityInstance(CapabilityId.DROP, "drop"))
    return refiner.RuleArtifact("h", "FW", "IpTables", tuple(instances))


def _oracle_drops(rules_text: str, f: FlowSpec) -> bool:
    """Whether any rendered iptables line drops the flow, read from its flags.
    Connection state is not part of a flow, so --ctstate matches it."""
    src, dst = ipaddress.ip_address(f.src_ip), ipaddress.ip_address(f.dst_ip)

    def in_range(value, address):
        begin, end = value.split("-")
        return ipaddress.ip_address(begin) <= address <= ipaddress.ip_address(end)

    checks = {
        "-s": lambda v: ipaddress.ip_address(v) == src,
        "-d": lambda v: ipaddress.ip_address(v) == dst,
        "--src-range": lambda v: in_range(v, src),
        "--dst-range": lambda v: in_range(v, dst),
    }
    for line in rules_text.splitlines():
        words = line.split()
        assert words[:3] == ["iptables", "-A", "FORWARD"] and words[-2:] == ["-j", "DROP"]
        if all(
            checks[flag](value)
            for flag, value in zip(words, words[1:])
            if flag in checks
        ):
            return True
    return False


@given(
    artifacts=st.lists(iptables_artifacts(), min_size=1, max_size=4),
    flow=st.lists(addresses, min_size=2, max_size=2, unique=True),
)
def test_verifier_agrees_with_rendered_iptables_rules(catalog, artifacts, flow):
    t = topology.parse_topology(ONE_DEVICE)
    f = FlowSpec(src_ip=flow[0], dst_ip=flow[1])
    policy = converter.build_mspl(artifacts)["FW"]
    rules = translator.rules_file_content(translator.translate_policy(policy))
    [(_, device)] = oracle_verdicts(evaluate_flow(t, artifacts, catalog, f, "A", "B"))
    assert (device is not None) == _oracle_drops(rules, f)


ONE_WAF = ONE_DEVICE.replace("{id: FW, kind: device, controls: [IpTables]}",
                             "{id: FW, kind: device, controls: [ModSecurity]}")

# A small pool of host names, one letter or an escaped dot apart, so that
# generated rules often match generated flows.
hosts = st.sampled_from(["ab.example.com", "abxexample.com", "a-b.example.com", "ab.example"])


@st.composite
def in_any_case(draw, names):
    return "".join(c.upper() if draw(st.booleans()) else c for c in draw(names))


@st.composite
def modsecurity_artifacts(draw):
    return refiner.RuleArtifact("h", "FW", "ModSecurity", (
        refiner.CapabilityInstance(CapabilityId.HTTP_HOST, draw(in_any_case(hosts))),
        refiner.CapabilityInstance(CapabilityId.DENY, "deny"),
    ))


def _oracle_denies(rules_text: str, host: str | None) -> bool:
    """Whether any rendered SecRule denies a request with Host `host`, read
    as ModSecurity's @rx reads its pattern: a search, case-sensitive unless
    the rule lower-cases the header first."""
    patterns = re.findall(r'^SecRule REQUEST_HEADERS:Host "@rx (.*)" \\$', rules_text, re.M)
    assert len(patterns) == rules_text.count("SecRule") and "t:lowercase" not in rules_text
    return host is not None and any(re.search(p, host) for p in patterns)


@given(
    artifacts=st.lists(modsecurity_artifacts(), min_size=1, max_size=4),
    host=st.none() | in_any_case(hosts),
)
def test_verifier_agrees_with_rendered_modsecurity_rules(catalog, artifacts, host):
    t = topology.parse_topology(ONE_WAF)
    f = FlowSpec(src_ip="10.0.0.100", dst_ip="10.0.0.101", l7_host=host)
    policy = converter.build_mspl(artifacts)["FW"]
    rules = translator.rules_file_content(translator.translate_policy(policy))
    [(_, device)] = oracle_verdicts(evaluate_flow(t, artifacts, catalog, f, "A", "B"))
    assert (device is not None) == _oracle_denies(rules, host)


def test_report_shows_each_path_as_the_repr_of_its_node_list(catalog):
    # ids of every character class a node id may hold
    t = topology.parse_topology("""
nodes:
  - {id: A, kind: endpoint, ip: 10.0.0.1}
  - {id: B, kind: endpoint, ip: 10.0.0.9}
  - {id: S.1, kind: subnet}
  - {id: SB, kind: subnet}
  - {id: FW-a_2, kind: device, controls: [IpTables]}
  - {id: FW.b-2_, kind: device, controls: [IpTables]}
links:
  - [A, S.1]
  - [S.1, FW-a_2]
  - [S.1, FW.b-2_]
  - [FW-a_2, SB]
  - [FW.b-2_, SB]
  - [B, SB]
""")
    rule = refiner.RuleArtifact("h", "FW-a_2", "IpTables", (
        refiner.CapabilityInstance(CapabilityId.IP_SOURCE, "10.0.0.1"),
        refiner.CapabilityInstance(CapabilityId.IP_DESTINATION, "10.0.0.9"),
        refiner.CapabilityInstance(CapabilityId.DROP, "drop"),
    ))
    flow = FlowSpec(src_ip="10.0.0.1", dst_ip="10.0.0.9")
    blocked, report = verify_deployment(t, [rule], catalog, flow, "A", "B")
    first, second = topology.enumerate_paths(t, "A", "B")
    assert first.intermediate == ("S.1", "FW-a_2", "SB")
    assert not blocked
    assert list(report) == [
        f"BLOCKED path {repr(list(first.intermediate))} at FW-a_2",
        f"ALLOWED (bypass) path {repr(list(second.intermediate))}",
    ]


# At least test_end_to_end's EXAMPLES, and enough that some instance holds
# a segment route that is a prefix of another: there the order of two
# paths, and of their routes' text, turns on the node after the shorter.
ORACLE_EXAMPLES = 300


def _drop_rule(device, src_ip, dst_ip):
    return refiner.RuleArtifact("h", device, "IpTables", (
        refiner.CapabilityInstance(CapabilityId.IP_SOURCE, src_ip),
        refiner.CapabilityInstance(CapabilityId.IP_DESTINATION, dst_ip),
        refiner.CapabilityInstance(CapabilityId.DROP, "drop"),
    ))


def test_report_equals_one_built_from_oracle_paths(catalog):
    """verify's report, built from segment routes, against lines built from
    the oracle's tuple-sorted paths, each shown as the repr of its node list
    and blocked at its first device with a rule matching the flow."""
    prefixed = 0
    for seed in range(ORACLE_EXAMPLES):
        rng = random.Random(seed)
        t = (random_topology if seed % 2 else series_parallel_topology)(rng)
        endpoints = sorted(n.id for n in t.nodes.values() if n.kind == "endpoint")
        subject, obj = rng.sample(endpoints, 2)
        f = FlowSpec(t.nodes[subject].ip, t.nodes[obj].ip)
        capable = sorted(n.id for n in t.nodes.values() if n.controls)
        ruled = [d for d in capable if rng.random() < 0.5]
        # a rule for another source leaves its device passing the flow
        blocking = {d for d in ruled if rng.random() < 0.8}
        artifacts = [_drop_rule(d, f.src_ip if d in blocking else "10.0.0.2", f.dst_ip)
                     for d in ruled]

        paths = oracle_simple_paths(t, subject, obj)
        segments = topology.route_segments(t, subject, obj)
        product = sorted(
            tuple(itertools.chain.from_iterable(routes))
            for routes in itertools.product(*segments)
        ) if segments else []
        assert product == [p.intermediate for p in topology.enumerate_paths(t, subject, obj)]
        assert product == paths
        prefixed += any(a != b and a == b[:len(a)]
                        for routes in segments for a in routes for b in routes)

        blocked, report = verify_deployment(t, artifacts, catalog, f, subject, obj)
        devices = [next((n for n in p if n in blocking), None) for p in paths]
        expected = [
            f"ALLOWED (bypass) path {list(p)!r}" if d is None
            else f"BLOCKED path {list(p)!r} at {d}"
            for p, d in zip(paths, devices)
        ] or [f"warning: no paths between {subject} and {obj}"]
        assert (blocked, _lines(report)) == (None not in devices, expected), seed
    assert prefixed


def _stages_document(widths):
    """A to B through one stage of `widths[i]` devices in parallel between
    consecutive subnets, for each i: a stage of one device is a link of a
    chain, whose every node is a segment of one route."""
    nodes = ["  - {id: A, kind: endpoint, ip: 10.0.0.1}",
             "  - {id: B, kind: endpoint, ip: 10.0.0.9}"]
    nodes += [f"  - {{id: S{i}, kind: subnet}}" for i in range(len(widths) + 1)]
    links = ["  - [A, S0]", f"  - [B, S{len(widths)}]"]
    for i, width in enumerate(widths):
        for j in range(width):
            nodes.append(f"  - {{id: D{i}x{j}, kind: device, controls: [IpTables]}}")
            links += [f"  - [S{i}, D{i}x{j}]", f"  - [D{i}x{j}, S{i + 1}]"]
    return "\n".join(["nodes:", *nodes, "links:", *links, ""])


def _stages_topology(widths):
    return topology.parse_topology(_stages_document(widths))


@pytest.mark.parametrize("widths", [
    [1] * 6, [1] * 5 + [2] * 5, [2] * 5 + [1] * 5, [3, 1, 1, 2, 2, 1, 2],
    [2, 2, 7], [9, 2, 2], [2] * 9,
], ids=["chain", "chain-ladder", "ladder-chain", "mixed", "wide-last", "wide-first",
        "ladder"])
def test_report_reads_twice_to_one_line_per_counted_path(catalog, widths):
    """The report is formatted anew on each reading, to the same lines, one
    for each path that len(evaluate_flow(...)) counts, whatever the shape of
    the segments that the heads and the tails are joined from."""
    t = _stages_topology(widths)
    f = FlowSpec("10.0.0.1", "10.0.0.9")
    rng = random.Random(str(widths))
    # a device of a chain would block every path
    blocking = {f"D{i}x{j}" for i, width in enumerate(widths) if width > 1
                for j in range(width) if rng.random() < 0.3}
    artifacts = [_drop_rule(d, f.src_ip, f.dst_ip) for d in sorted(blocking)]

    paths = oracle_simple_paths(t, "A", "B")
    devices = [next((n for n in p if n in blocking), None) for p in paths]
    expected = [
        f"ALLOWED (bypass) path {list(p)!r}" if d is None
        else f"BLOCKED path {list(p)!r} at {d}"
        for p, d in zip(paths, devices)
    ]
    blocked, report = verify_deployment(t, artifacts, catalog, f, "A", "B")
    assert blocked == (None not in devices)
    assert _lines(report) == _lines(report) == expected
    assert len(evaluate_flow(t, artifacts, catalog, f, "A", "B")) == len(expected)


@pytest.mark.parametrize("widths, blocking", [
    ([2] + [1] * 3000 + [2], {"D0x1", "D3001x1"}),
    ([1] * 3000, {"D1500x0"}),
], ids=["chain-between-choices", "long-chain"])
def test_report_of_a_long_chain_equals_the_oracle_join(catalog, widths, blocking):
    """A chain of thousands of segments, alone or between two choices, is
    reported as the oracle's plain product of the segment verdicts, in
    blocks bounded as for any shape: no depth of recursion grows with it."""
    t = _stages_topology(widths)
    f = FlowSpec("10.0.0.1", "10.0.0.9")
    artifacts = [_drop_rule(d, f.src_ip, f.dst_ip) for d in sorted(blocking)]
    stages = [[f"D{i}x{j}" for j in range(width)] for i, width in enumerate(widths)]
    paths = [[node for i, device in enumerate(devices) for node in (f"S{i}", device)]
             + [f"S{len(widths)}"] for devices in itertools.product(*stages)]

    blocked, report = verify_deployment(t, artifacts, catalog, f, "A", "B")
    verdicts = oracle_verdicts(report)
    assert [route for route, _ in verdicts] == [repr(p)[1:-1] for p in paths]
    assert [device for _, device in verdicts] == [
        next((n for n in p if n in blocking), None) for p in paths]
    assert blocked == (None not in (device for _, device in verdicts))
    assert _lines(report) == [
        f"ALLOWED (bypass) path [{route}]" if device is None
        else f"BLOCKED path [{route}] at {device}"
        for route, device in verdicts
    ]
    bound = 2 * math.isqrt(len(report)) + 1
    assert all(block.count("\n") < bound for block in report)


DISCONNECTED = """
nodes:
  - {id: A, kind: endpoint, ip: 10.0.0.1}
  - {id: B, kind: endpoint, ip: 10.0.0.9}
  - {id: S1, kind: subnet}
  - {id: S2, kind: subnet}
links:
  - [A, S1]
  - [B, S2]
"""

# The shapes of test_report_reads_twice_to_one_line_per_counted_path, each
# with its blocking devices: a 2x4 grid, whose one tail groups its heads; a
# ladder that nothing blocks, so no head carries a device; and no path.
BLOCK_SHAPES = {
    **{f"stages-{name}": (_stages_document(widths), 0.3) for name, widths in [
        ("chain", [1] * 6), ("chain-ladder", [1] * 5 + [2] * 5),
        ("ladder-chain", [2] * 5 + [1] * 5), ("mixed", [3, 1, 1, 2, 2, 1, 2]),
        ("wide-last", [2, 2, 7]), ("wide-first", [9, 2, 2]), ("ladder", [2] * 9)]},
    "grid-2x4": (grid_document(4, ("A", "10.0.0.1"), ("B", "10.0.0.9")), 0.3),
    "bypass": (_stages_document([2] * 9), 0),
    "no-path": (DISCONNECTED, 0),
}


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_report_blocks_are_bounded_and_written_one_a_line(tmp_path, capsys, shape, catalog):
    """Each item of the report is a non-empty block of whole lines joined by
    "\\n", of at most about the square root of the paths' count, and verify
    writes each followed by one newline: so the block bytes, counted as
    bench/spans.py counts them, are verify's stdout."""
    document, share = BLOCK_SHAPES[shape]
    t = topology.parse_topology(document)
    f = FlowSpec("10.0.0.1", "10.0.0.9")
    rng = random.Random(shape)
    blocking = [d for d in sorted(t.nodes) if t.nodes[d].controls and rng.random() < share]
    artifacts = [_drop_rule(d, f.src_ip, f.dst_ip) for d in blocking]

    blocked, report = verify_deployment(t, artifacts, catalog, f, "A", "B")
    bound = 2 * math.isqrt(len(evaluate_flow(t, artifacts, catalog, f, "A", "B"))) + 1
    for block in report:
        assert block and block[0] != "\n" and block[-1] != "\n"
        assert block.count("\n") < bound

    (tmp_path / "topology.yaml").write_text(document)
    (tmp_path / "artifacts.json").write_text(refiner.artifacts_to_json(artifacts))
    code = cli.main(["verify", "--topology", str(tmp_path / "topology.yaml"),
                     "--catalog", str(FIXTURES / "catalog.json"),
                     "--artifacts", str(tmp_path / "artifacts.json"),
                     "--subject", "A", "--object", "B",
                     "--src-ip", f.src_ip, "--dst-ip", f.dst_ip])
    out = capsys.readouterr().out
    assert code == (0 if blocked else cli.EXIT_BYPASS)
    assert sum(len(block.encode()) + 1 for block in report) == len(out.encode())
