import pathlib
import random
import re
import subprocess
import sys

import pytest
import yaml
from hypothesis import assume, given, strategies as st

from intentrefine import topology
from intentrefine.errors import (
    DocumentSyntaxError, PipelineError, UnknownEndpoint, ValidationError)

from conftest import FIXTURES, read_fixture
from randomtopo import (
    link_set, one_line_layout, oracle_simple_paths, random_topology,
    series_parallel_topology)


def test_scenario2_parse_counts(scenario2_topology):
    assert len(scenario2_topology.nodes) == 9
    assert len(link_set(scenario2_topology)) == 9


def test_empty_document_is_valid():
    t = topology.parse_topology("")
    assert t.nodes == {} and not link_set(t)


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
    assert t1 == t2


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
    assert list(topology.enumerate_paths(t, "A", "B")) == []


def test_paths_are_simple_and_link_consistent(scenario1_topology):
    t = scenario1_topology
    for path in topology.enumerate_paths(t, "Eve", "Bob"):
        seq = ("Eve",) + path.intermediate + ("Bob",)
        assert len(set(seq)) == len(seq)
        for a, b in zip(seq, seq[1:]):
            assert frozenset((a, b)) in link_set(t)


def test_path_symmetry_up_to_reversal(scenario1_topology):
    forward = topology.enumerate_paths(scenario1_topology, "Eve", "Bob")
    backward = topology.enumerate_paths(scenario1_topology, "Bob", "Eve")
    assert sorted(p.intermediate for p in forward) == sorted(
        tuple(reversed(p.intermediate)) for p in backward
    )


def _assert_segment_shape(t, subject, obj, segments):
    """Every path starts at the subject's subnet and ends at the object's,
    and each segment's routes start at one node: its separator."""
    if not segments:
        return
    [subnet], [object_subnet] = t.neighbors(subject), t.neighbors(obj)
    assert () not in (route for routes in segments for route in routes)
    assert all(len({route[0] for route in routes}) == 1 for routes in segments)
    assert segments[0][0][0] == subnet
    assert segments[-1] == [(object_subnet,)]


def test_enumeration_matches_dfs_oracle_on_random_topologies(monkeypatch):
    rng, anchors = random.Random(1234), random.Random(1)
    for _ in range(60):
        t = random_topology(rng)
        _assert_matches_oracle(t, "A", "B", anchors, monkeypatch)


def test_the_route_from_an_endpoint_to_itself_is_its_subnet(scenario1_topology):
    # reachable through `verify --subject X --object X`
    paths = topology.enumerate_paths(scenario1_topology, "Eve", "Eve")
    assert [p.intermediate for p in paths] == [
        tuple(scenario1_topology.neighbors("Eve"))]


def test_enumeration_matches_dfs_oracle_on_series_parallel_topologies(monkeypatch):
    rng, anchors = random.Random(2024), random.Random(1)
    for _ in range(150):
        t = series_parallel_topology(rng)
        for subject, obj in (("A", "B"), ("B", "A")):
            _assert_matches_oracle(t, subject, obj, anchors, monkeypatch)


def _ladder(first, last, stages, prefix):
    """Node kinds and links of `stages` stages of two devices in parallel
    between subnets, from the existing node `first` to the subnet `last`."""
    subnets = [first, *(f"{prefix}M{i}" for i in range(1, stages)), last]
    kinds = {s: "subnet" for s in subnets[1:]}
    links = []
    for i in range(stages):
        for side in "ab":
            device = f"{prefix}L{i}{side}"
            kinds[device] = "device"
            links += [(subnets[i], device), (device, subnets[i + 1])]
    return kinds, links


def _counting_neighbors(monkeypatch):
    calls = []
    neighbors = topology.Topology.neighbors

    def counted(self, node_id):
        calls.append(node_id)
        return neighbors(self, node_id)

    monkeypatch.setattr(topology.Topology, "neighbors", counted)
    return calls


def _topology(kinds, links):
    return topology.parse_topology("\n".join([
        "nodes:", *(f"  - {{id: {n}, kind: {kind}}}" for n, kind in kinds.items()),
        "links:", *(f"  - [{a}, {b}]" for a, b in links),
    ]))


def _assert_no_other_endpoint_searched(t, subject, obj):
    """_blocks' tree holds no endpoint but the subject and, when some path
    reaches it, the object."""
    parent, _ = topology._blocks(t, subject, obj)
    endpoints = {n for n in parent if t.nodes[n].kind == topology.ENDPOINT}
    reached = {obj} if oracle_simple_paths(t, subject, obj) else set()
    assert endpoints == {subject, *reached}


def _assert_matches_oracle(t, subject, obj, anchors, monkeypatch):
    """enumerate_paths gives the oracle's paths, in route_segments' shape.
    An 8-stage dead-end ladder hung off a node drawn from `anchors` (no
    endpoint) changes no segment, and is looked at no more than twice a
    node: it lies on no route, so no segment walks it."""
    calls = _counting_neighbors(monkeypatch)
    paths = topology.enumerate_paths(t, subject, obj)
    plain = len(calls)
    assert [p.intermediate for p in paths] == oracle_simple_paths(t, subject, obj)
    _assert_segment_shape(t, subject, obj, paths.segments)
    _assert_no_other_endpoint_searched(t, subject, obj)

    anchor = anchors.choice(
        sorted(n for n, node in t.nodes.items() if node.kind != topology.ENDPOINT))
    kinds, links = _ladder(anchor, "XEnd", 8, "X")
    kinds.update((n, node.kind) for n, node in t.nodes.items())
    hung = _topology(kinds, [*map(sorted, link_set(t)), *links])
    calls.clear()
    assert topology.route_segments(hung, subject, obj) == paths.segments
    assert len(calls) - plain <= 2 * (len(hung.nodes) - len(t.nodes))
    monkeypatch.undo()


@pytest.mark.parametrize("anchor", ["SA", "FW1"])
def test_a_ladder_hanging_off_a_route_is_never_walked(monkeypatch, anchor):
    # 2**12 simple routes lead into the ladder from SA or FW1, and none
    # reaches B; off FW1 it hangs inside the segment SA-FW1|FW2-SB
    kinds, links = _ladder(anchor, "End", 12, "X")
    kinds.update({"A": "endpoint", "B": "endpoint", "SA": "subnet", "SB": "subnet",
                  "FW1": "device", "FW2": "device"})
    links += [("A", "SA"), ("SA", "FW1"), ("SA", "FW2"), ("FW1", "SB"), ("FW2", "SB"),
              ("SB", "B")]
    t = _topology(kinds, links)
    calls = _counting_neighbors(monkeypatch)
    paths = topology.enumerate_paths(t, "A", "B")
    assert [p.intermediate for p in paths] == [("SA", "FW1", "SB"), ("SA", "FW2", "SB")]
    # each node is looked at a bounded number of times, not once per route
    assert len(calls) <= 3 * len(t.nodes)
    calls.clear()
    paths = topology.enumerate_paths(t, "A", "A")
    assert [p.intermediate for p in paths] == [("SA",)]
    assert len(calls) <= 3 * len(t.nodes)


def test_each_stage_of_a_ladder_is_walked_on_its_own(monkeypatch):
    kinds, links = _ladder("SA", "SB", 12, "")
    kinds.update({"A": "endpoint", "B": "endpoint", "SA": "subnet"})
    links += [("A", "SA"), ("SB", "B")]
    t = _topology(kinds, links)
    calls = _counting_neighbors(monkeypatch)
    paths = topology.enumerate_paths(t, "A", "B")
    assert len(paths) == 2 ** 12
    assert len(calls) <= 4 * len(t.nodes)
    monkeypatch.undo()
    assert [p.intermediate for p in paths] == oracle_simple_paths(t, "A", "B")


def test_no_other_endpoint_is_searched():
    """50 more endpoints, half on each end's subnet, lie on no route: the
    search for the segments enters none of them."""
    kinds = {"A": "endpoint", "B": "endpoint", "SA": "subnet", "SB": "subnet",
             "FW1": "device", "FW2": "device"}
    kinds.update((f"E{i}", "endpoint") for i in range(50))
    links = [("A", "SA"), ("SA", "FW1"), ("SA", "FW2"), ("FW1", "SB"), ("FW2", "SB"),
             ("SB", "B"), *((f"E{i}", "SA" if i % 2 else "SB") for i in range(50))]
    t = _topology(kinds, links)
    for subject, obj in (("A", "B"), ("B", "A"), ("E1", "E0"), ("E1", "E3"), ("A", "E3")):
        _assert_no_other_endpoint_searched(t, subject, obj)
        assert [p.intermediate for p in topology.enumerate_paths(t, subject, obj)] == (
            oracle_simple_paths(t, subject, obj))


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


# --- the YAML loader -----------------------------------------------------------

# Text with what a YAML emitter must quote or escape drawn often: quotes,
# backslashes, control characters, line breaks and non-BMP characters.
yaml_text = st.text(st.one_of(
    st.characters(exclude_categories=("Cs",)),
    st.sampled_from("'\"\\\x00\x07\x1b\t\n\r\x85\u2028\ufeff: #-\U0001F600\U0010FFFF"),
))
yaml_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | yaml_text,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(yaml_text, children, max_size=4),
    max_leaves=12,
)


@given(value=yaml_values, flow=st.sampled_from([None, True, False]),
       allow_unicode=st.booleans())
def test_loader_reads_what_safe_dump_writes_as_safe_load_does(value, flow, allow_unicode):
    document = yaml.safe_dump(
        value, default_flow_style=flow, allow_unicode=allow_unicode)
    assert yaml.load(document, Loader=topology._yaml_loader()) == yaml.safe_load(document)


# Fragments of YAML syntax, so that arbitrary text often reaches the parser's
# and the constructor's error paths: indicators, explicit tags on values they
# cannot build, an impossible date and an escape past U+10FFFF.
YAML_FRAGMENTS = [
    "\n", "  ", "- ", ": ", "? ", "[", "]", "{", "}", ",", "&a ", "*a", "*b", "|",
    ">", "#", "'", '"', "\\", "%YAML 1.1\n", "---\n", "...\n", "\t", "<<: ",
    "!!int ", "!!float ", "!!bool ", "!!timestamp ", "!!binary ", "!!set ",
    "!!omap ", "!!str ", "!local ", "x", "0x", "1:2", "2020-13-45", "\\U0011FFFF",
    "nodes", "links", "id", "kind", "device", "controls", "\U0001F600", "\x00",
]


@given(document=st.text() | st.lists(st.sampled_from(YAML_FRAGMENTS)).map("".join))
def test_parse_topology_raises_only_pipeline_errors(document):
    try:
        topology.parse_topology(document)
    except PipelineError:
        pass


UNCONSTRUCTIBLE = {
    "int-tag": "name: !!int x\n",
    "empty-int": "name: !!int ''\n",
    "bool-tag": "name: !!bool maybe\n",
    "timestamp-tag": "name: !!timestamp x\n",
    "impossible-date": "name: 2020-13-45\n",
    "escape-past-unicode": 'name: "\\U0011FFFF"\n',
    "nested-100000": "nodes: " + "[" * 100_000 + "]" * 100_000 + "\n",
}


@pytest.mark.parametrize("case", sorted(UNCONSTRUCTIBLE))
def test_unconstructible_yaml_is_a_syntax_error(case):
    with pytest.raises(DocumentSyntaxError, match="malformed topology document"):
        topology.parse_topology(UNCONSTRUCTIBLE[case])


# --- the one-line-per-entry layout, read without PyYAML -------------------------

# Plain scalars of the layout, all of which YAML reads as strings.
LAYOUT_STRINGS = st.sampled_from([
    "FW1", "id", "kind", "name", "nodes", "links", "device", "a.b-c_d", "_", "x-",
    "yesterday", "Nope", "onto", "y", "n", "NuLL", "oN", "10.0.0.1", "999.01.0.12",
]) | st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,5}", fullmatch=True).filter(
    lambda s: isinstance(yaml.safe_load(s), str))
# The same, mixed with words and numbers YAML reads as no string (booleans,
# null, floats, ints, a sexagesimal time, a date, infinity) and with text
# that is no plain scalar of the layout.
LAYOUT_SCALARS = LAYOUT_STRINGS | st.sampled_from([
    "yes", "Yes", "On", "ON", "off", "no", "True", "FALSE", "~", "null", "Null",
    "NULL", "1.50", "0x1F", "1_000", "12:30", "2020-01-01", ".inf",
    "1.2.3", "1.2.3.4.5", "1e3", "-a", "a b", "a:b",
])


def _layout_parts(scalars):
    """(name, nodes, links) of a document in the layout, for one_line_layout."""
    values = scalars | st.lists(scalars, max_size=3)
    return st.tuples(
        st.none() | values,
        st.lists(st.lists(st.tuples(scalars, values), max_size=4), min_size=1, max_size=4),
        st.lists(st.lists(scalars, max_size=3), min_size=1, max_size=4),
    )


# The layout's plain scalars, as the layout defines them: YAML reads some
# of these as no string, and the layout leaves those out.
LAYOUT_PLAIN = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*|[0-9]+(?:\.[0-9]+){3}")


def _scalars(value):
    return value if isinstance(value, list) else [value]


@given(parts=_layout_parts(LAYOUT_SCALARS))
def test_the_layout_reader_reads_what_pyyaml_reads_or_nothing(parts):
    """The reader returns PyYAML's value or None, and None exactly when a
    scalar is no plain scalar of the layout that PyYAML reads as a string,
    or a node repeats a key."""
    name, nodes, links = parts
    document = one_line_layout(name, nodes, links)
    raw = topology._read_layout(document)
    if raw is not None:
        assert raw == yaml.load(document, Loader=topology._yaml_loader())
    named = [] if name is None else [name]
    scalars = [s for v in [*named, *links] for s in _scalars(v)]
    scalars += [s for pairs in nodes for k, v in pairs for s in [k, *_scalars(v)]]
    in_layout = all(
        LAYOUT_PLAIN.fullmatch(s) and isinstance(yaml.safe_load(s), str)
        for s in scalars
    ) and all(len(dict(pairs)) == len(pairs) for pairs in nodes)
    assert (raw is not None) == in_layout


def _defective(parts, defect, data):
    """The document of `parts`, in the layout, with one defect that takes
    it out of the layout."""
    name, nodes, links = parts
    i = data.draw(st.integers(0, len(nodes) - 1))
    if defect == "repeated-key":
        nodes = [*nodes[:i], [*nodes[i], ("id", "a"), ("id", "b")], *nodes[i + 1:]]
    elif defect == "no-space-after-colon":
        nodes = [*nodes[:i], [("controls", ["IpTables"]), *nodes[i]], *nodes[i + 1:]]
    elif defect == "empty-block":
        nodes, links = data.draw(st.sampled_from([([], links), (nodes, [])]))
    document = one_line_layout(name, nodes, links)
    lines = document.splitlines(keepends=True)
    if defect == "character":
        at = data.draw(st.integers(0, len(document)))
        return document[:at] + data.draw(st.sampled_from("'\"#\t&*!|>%@`")) + document[at:]
    if defect == "no-space-after-colon":
        return document.replace("controls: [", "controls:[", 1)
    if defect == "crlf":
        return document.replace("\n", "\r\n")
    if defect == "bom":
        return "\ufeff" + document
    if defect == "trailing-space":
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[j] = lines[j][:-1] + " \n"
    elif defect == "indentation":
        j = data.draw(st.sampled_from(
            [j for j, line in enumerate(lines) if line.startswith("  - ")]))
        lines[j] = data.draw(st.sampled_from(["", " ", "   ", "    ", "\t"])) + lines[j][2:]
    return "".join(lines)


LAYOUT_DEFECTS = ["character", "crlf", "bom", "trailing-space", "indentation",
                  "no-space-after-colon", "repeated-key", "empty-block"]


@given(parts=_layout_parts(LAYOUT_STRINGS), defect=st.sampled_from(LAYOUT_DEFECTS),
       data=st.data())
def test_the_layout_reader_refuses_what_is_not_in_the_layout(parts, defect, data):
    assume(topology._read_layout(one_line_layout(*parts)) is not None)
    assert topology._read_layout(_defective(parts, defect, data)) is None


@pytest.mark.parametrize("path", sorted(
    str(p.relative_to(FIXTURES)) for p in FIXTURES.glob("*/*.yaml")))
def test_the_layout_reader_reads_every_fixture_topology(path):
    document = read_fixture(path)
    raw = topology._read_layout(document)
    assert raw is not None and raw == yaml.safe_load(document)


# Runs of text on which a search for a scalar or a pair could fail late at
# each position, as each document, node line, link line and name: in one
# subprocess, so quadratic time fails on the timeout.
LONG_RUNS_PROBE = """
from intentrefine import topology

n = 10 ** 6
for run in ("a" * n, "1" * n, "1." * n, "a: [" * (n // 4), "k: [" + "a, " * (n // 3),
            "a: " * (n // 3), "a:" * (n // 2), "a1." * (n // 3)):
    for document in (run, "nodes:\\n  - {" + run + "}\\nlinks:\\n  - [a]\\n",
                     "nodes:\\n  - {a: b}\\nlinks:\\n  - [" + run + "]\\n",
                     "name: " + run + "\\nnodes:\\n  - {a: b}\\nlinks:\\n  - [a]\\n"):
        topology._read_layout(document)
"""


def test_the_layout_reader_takes_linear_time_on_long_runs():
    src = str(pathlib.Path(topology.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", LONG_RUNS_PROBE], capture_output=True,
                          text=True, timeout=60, env={"PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
