import random

import pytest

from intentrefine import topology
from intentrefine.errors import DocumentSyntaxError, UnknownEndpoint, ValidationError

from conftest import read_fixture
from randomtopo import oracle_simple_paths, random_topology


def test_scenario2_parse_counts(scenario2_topology):
    assert len(scenario2_topology.nodes) == 9
    assert len(scenario2_topology.links) == 9


def test_empty_document_is_valid():
    t = topology.parse_topology("")
    assert t.nodes == {} and not t.links


def test_dangling_link_rejected():
    doc = """
name: bad
nodes:
  - {id: Subnet1, kind: subnet}
links:
  - [FW9, Subnet1]
"""
    with pytest.raises(ValidationError):
        topology.parse_topology(doc)


def test_duplicate_id_rejected():
    doc = """
nodes:
  - {id: FW1, kind: device}
  - {id: FW1, kind: device}
"""
    with pytest.raises(ValidationError):
        topology.parse_topology(doc)


def test_missing_kind_rejected():
    with pytest.raises(ValidationError):
        topology.parse_topology("nodes:\n  - {id: FW1}\n")


def test_malformed_yaml_reports_syntax_error():
    with pytest.raises(DocumentSyntaxError):
        topology.parse_topology("nodes: [\n")


def test_endpoint_needs_exactly_one_subnet():
    doc = """
nodes:
  - {id: A, kind: endpoint}
  - {id: S1, kind: subnet}
  - {id: S2, kind: subnet}
links:
  - [A, S1]
  - [A, S2]
"""
    with pytest.raises(ValidationError):
        topology.parse_topology(doc)


def test_declaration_order_is_irrelevant():
    base = read_fixture("scenario1", "topology.yaml")
    t1 = topology.parse_topology(base)
    lines = base.splitlines()
    # reverse the node block (lines 2..12) and the link block
    shuffled = (
        [lines[0], lines[1]]
        + list(reversed(lines[2:13]))
        + [lines[13]]
        + list(reversed(lines[14:]))
    )
    t2 = topology.parse_topology("\n".join(shuffled))
    assert t1.canonical() == t2.canonical()


def test_resolve_endpoint(scenario1_topology):
    assert topology.resolve_endpoint(scenario1_topology, "Eve").ip == "80.71.158.96"
    assert topology.resolve_endpoint(scenario1_topology, "Bob").ip == "172.19.0.3"
    with pytest.raises(UnknownEndpoint):
        topology.resolve_endpoint(scenario1_topology, "Mallory")
    with pytest.raises(UnknownEndpoint):
        topology.resolve_endpoint(scenario1_topology, "FW1")


def test_scenario1_paths_device_subsequences(scenario1_topology):
    paths = topology.enumerate_paths(scenario1_topology, "Eve", "Bob")
    assert [p.devices(scenario1_topology) for p in paths] == [
        ("FW1", "FW4"),
        ("FW1", "FW5"),
        ("FW2", "FW3"),
    ]


def test_scenario2_paths_full_intermediates(scenario2_topology):
    paths = topology.enumerate_paths(scenario2_topology, "Alice", "WebServer")
    assert [list(p.intermediate) for p in paths] == [
        ["Subnet1", "FW1", "Subnet2", "FW3", "WAF", "Subnet3"],
        ["Subnet1", "FW2", "Subnet2", "FW3", "WAF", "Subnet3"],
    ]


def test_disconnected_endpoints_have_no_paths():
    doc = """
nodes:
  - {id: A, kind: endpoint}
  - {id: B, kind: endpoint}
  - {id: S1, kind: subnet}
  - {id: S2, kind: subnet}
links:
  - [A, S1]
  - [B, S2]
"""
    t = topology.parse_topology(doc)
    assert topology.enumerate_paths(t, "A", "B") == []


def test_paths_are_simple_and_link_consistent(scenario1_topology):
    t = scenario1_topology
    for path in topology.enumerate_paths(t, "Eve", "Bob"):
        seq = ("Eve",) + path.intermediate + ("Bob",)
        assert len(set(seq)) == len(seq)
        for a, b in zip(seq, seq[1:]):
            assert frozenset((a, b)) in t.links


def test_path_symmetry_up_to_reversal(scenario1_topology):
    forward = topology.enumerate_paths(scenario1_topology, "Eve", "Bob")
    backward = topology.enumerate_paths(scenario1_topology, "Bob", "Eve")
    assert sorted(p.intermediate for p in forward) == sorted(
        tuple(reversed(p.intermediate)) for p in backward
    )


def test_enumeration_matches_dfs_oracle_on_random_topologies():
    rng = random.Random(1234)
    for _ in range(60):
        t = random_topology(rng)
        got = [p.intermediate for p in topology.enumerate_paths(t, "A", "B")]
        assert got == oracle_simple_paths(t, "A", "B")


def _scenario2_with_domain(domain):
    return read_fixture("scenario2", "topology.yaml").replace(
        "domains: [allowed.utilities.com,", f"domains: ['{domain}',"
    )


@pytest.mark.parametrize("domain", [
    'a"b.com', "a b.com", "-a.com", "a-.com", "a..com", "a.com.", "a_b.com",
    "x" * 64 + ".com", ".".join(["a" * 63] * 4) + ".com",
])
def test_domain_must_be_an_rfc1123_host_name(domain):
    with pytest.raises(ValidationError, match="RFC 1123"):
        topology.parse_topology(_scenario2_with_domain(domain))


def test_rfc1123_domains_are_accepted_lower_case():
    t = topology.parse_topology(_scenario2_with_domain("Sub-1.3Utilities.COM"))
    assert "sub-1.3utilities.com" in t.nodes["WebServer"].domains


def test_domains_must_be_a_list():
    doc = read_fixture("scenario2", "topology.yaml").replace(
        "domains: [allowed.utilities.com, hadleyshope.3utilities.com]",
        "domains: allowed.utilities.com",
    )
    with pytest.raises(ValidationError, match="domains must be a list"):
        topology.parse_topology(doc)
