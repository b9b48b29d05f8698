import json
import random

import pytest
from hypothesis import example, given, strategies as st

from intentrefine import (
    capability, cli, converter, factbase, refiner, topology, translator)
from intentrefine.capability import CapabilityId
from intentrefine.errors import (
    DocumentSyntaxError,
    NothingToEnforce,
    Unenforceable,
    UnsupportedAction,
    ValidationError,
)
from intentrefine.refiner import (
    bind_intent,
    build_artifacts,
    kb_reconcile,
    kb_update,
    parse_hspl,
    select_enforcement_set,
)

from conftest import FIXTURES, read_fixture
from randomtopo import oracle_min_cover, random_topology, series_parallel_topology


# --- parse_hspl -------------------------------------------------------------

def test_parse_scenario1_hspl(scenario1_intent):
    assert scenario1_intent == refiner.HsplPolicy(
        id="hspl1", subject="Eve", action="deny-access", object="Bob"
    )


def test_parse_scenario2_hspl(scenario2_intent):
    assert scenario2_intent.subject == "Alice"
    assert scenario2_intent.object == "WebServer"


def test_parse_multiple_hspl_elements():
    doc = (
        read_fixture("scenario1", "hspl.xml")
        + read_fixture("scenario2", "hspl.xml")
    )
    intents = parse_hspl(doc)
    assert [i.id for i in intents] == ["hspl1", "hspl2"]


def test_nested_hspl_read_alike_as_root_wrapped_or_with_a_sibling():
    """An <hspl> nested in another is read, in document order, whether the
    outer one is the document's root, is wrapped in <hspls>, or has a
    sibling, which makes the document a fragment."""
    def intent(hspl_id, inner=""):
        return (f'<hspl id="{hspl_id}"><subject>A</subject><action>is not authorized to access'
                f'</action><object>B</object>{inner}</hspl>')

    nested = intent("a", intent("b"))
    assert [i.id for i in parse_hspl(nested)] == ["a", "b"]
    assert [i.id for i in parse_hspl(f"<hspls>{nested}</hspls>")] == ["a", "b"]
    assert [i.id for i in parse_hspl(nested + intent("c"))] == ["a", "b", "c"]


def test_unsupported_action():
    doc = """<hspl id="h"><subject>A</subject><action>must log</action><object>B</object></hspl>"""
    with pytest.raises(UnsupportedAction):
        parse_hspl(doc)


def test_duplicate_hspl_id():
    one = read_fixture("scenario1", "hspl.xml")
    with pytest.raises(ValidationError):
        parse_hspl(one + one)


def test_malformed_hspl():
    # an element left open is reported at the document's end, as ElementTree
    # reports it, not at the wrapper's closing tag past that end
    for document, position in (("<hspl id='x'><subject>", "line 1, column 22"),
                               ("<hspl id='x'>\n<subject>", "line 2, column 9"),
                               ("<hspl id='x'>\r\n<subject>", "line 2, column 9")):
        with pytest.raises(DocumentSyntaxError, match=f"^malformed HSPL document: "
                           f"no element found: {position}$"):
            parse_hspl(document)
    # an error other than a second root is the one ElementTree gives for the
    # document itself, not for the document wrapped in <hspls>
    for document, error in (("<hspl id='x'><subject", "unclosed token: line 1, column 13"),
                            ("hello <hspl", "syntax error: line 1, column 0")):
        with pytest.raises(DocumentSyntaxError, match=f"^malformed HSPL document: {error}$"):
            parse_hspl(document)
    # positions are in the document as given, though a fragment is read
    # wrapped in <hspls>: a single root, the second of two, and a later line
    bad = '<hspl id="b"><subject>Bob</subjec></hspl>'
    intent = ('<hspl id="a"><subject>A</subject><action>is not authorized to access'
              '</action><object>B</object></hspl>')
    for document, position in ((bad, "line 1, column 27"), (intent + bad, "line 1, column 129"),
                               (intent + "\n" + bad, "line 2, column 27")):
        with pytest.raises(DocumentSyntaxError, match=f"^malformed HSPL document: "
                           f"mismatched tag: {position}$"):
            parse_hspl(document)


def test_hspl_fragment_after_an_xml_declaration():
    """A fragment of several roots may start with an XML declaration: the
    wrapper goes after it, and only the positions after the wrapper shift."""
    intent = ('<hspl id="{}"><subject>A</subject><action>is not authorized to access'
              '</action><object>B</object></hspl>')
    declaration = '<?xml version="1.0"?>'
    for between in ("", "\n"):
        document = declaration + between + intent.format("a") + intent.format("b")
        assert [p.id for p in parse_hspl(document)] == ["a", "b"]
    bad = '<hspl id="b"><subject>Bob</subjec></hspl>'
    for document, error in (
            (declaration + intent.format("a") + bad, "mismatched tag: line 1, column 150"),
            (declaration + "\n" + intent.format("a") + bad, "mismatched tag: line 2, column 129"),
            ('<?xml version="1.0" x?>' + intent.format("a") + bad,
             "XML declaration not well-formed: line 1, column 21")):
        with pytest.raises(DocumentSyntaxError, match=f"^malformed HSPL document: {error}$"):
            parse_hspl(document)


# --- bind_intent ------------------------------------------------------------

def test_bind_scenario1(scenario1_topology, scenario1_intent, scenario1_knowledge):
    results = bind_intent(scenario1_topology, scenario1_intent, scenario1_knowledge)
    assert len(results) == 1
    _fact, rset, bindings = results[0]
    assert rset.layer == "network"
    assert [(b.direction, b.src_ip, b.dst_ip) for b in bindings] == [
        ("forward", "80.71.158.96", "172.19.0.3"),
        ("reverse", "172.19.0.3", "80.71.158.96"),
    ]


def test_bind_scenario2(scenario2_topology, scenario2_intent, scenario2_knowledge):
    results = bind_intent(scenario2_topology, scenario2_intent, scenario2_knowledge)
    assert len(results) == 1
    _fact, rset, bindings = results[0]
    assert rset.layer == "application"
    assert [(b.direction, b.host) for b in bindings] == [
        (None, "hadleyshope.3utilities.com")
    ]


def test_bind_skips_unrelated_fact(scenario1_topology, scenario1_intent):
    k = factbase.parse_knowledge(
        '{"templates": ["(deftemplate entity (slot destination-ip-address (type STRING)))"],'
        ' "facts": ["(entity (destination-ip-address \\"9.9.9.9\\"))"]}'
    )
    with pytest.raises(NothingToEnforce):
        bind_intent(scenario1_topology, scenario1_intent, k)


SKIPPED_FACTS = (
    '{"templates": ["(deftemplate entity (slot destination-ip-address (type STRING))'
    ' (slot url (type STRING)))"], "facts": ['
    '"(entity (destination-ip-address \\"80.71.158.96\\"))",'
    ' "(entity (destination-ip-address \\"9.9.9.9\\"))",'
    ' "(entity (url \\"elsewhere.example.com\\"))"]}'
)


@pytest.mark.parametrize("level, shown", [("INFO", False), ("DEBUG", True)])
def test_bind_skip_lines_are_debug(scenario1_topology, scenario1_intent, caplog,
                                   level, shown):
    k = factbase.parse_knowledge(SKIPPED_FACTS)
    with caplog.at_level(level, logger="intentrefine"):
        assert len(bind_intent(scenario1_topology, scenario1_intent, k)) == 1
    skipped = [r for r in caplog.records if r.message.endswith("; skipped")]
    assert [r.message for r in skipped] == (
        ["intent hspl1: 2 of 3 facts match no endpoint; skipped"] if shown else [])
    assert all(r.levelname == "DEBUG" for r in skipped)


def full_scan_bind(t, intent, k):
    """bind_intent as every fact was once checked against every intent:
    the reference the indexed lookup must equal."""
    subject = topology.resolve_endpoint(t, intent.subject)
    obj = topology.resolve_endpoint(t, intent.object)
    results = []
    for fact in k.facts:
        for rset in capability.derive_required(fact):
            if rset.layer == capability.LAYER_NETWORK:
                ips = {v for name, v in fact.bindings if name.endswith("ip-address")}
                if not (ips & ({subject.ip, obj.ip} - {None})):
                    continue
                for e in (subject, obj):
                    if e.ip is None:
                        raise ValidationError(
                            f"intent {intent.id!r}: endpoint {e.id!r} has no ip address"
                        )
                bindings = [
                    refiner.ConditionBinding("forward", subject.ip, obj.ip),
                    refiner.ConditionBinding("reverse", obj.ip, subject.ip),
                ]
            else:
                host = fact.get("url")
                if host is None or host.lower() not in obj.domains:
                    continue
                bindings = [refiner.ConditionBinding(host=host.lower())]
            results.append((fact, rset, bindings))
    if not results:
        raise NothingToEnforce(
            f"intent {intent.id!r}: no knowledge fact is relevant to "
            f"{intent.subject!r}/{intent.object!r}"
        )
    return results


BIND_IPS = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
BIND_HOSTS = ["a.example.com", "b.example.com"]
# Slot values: addresses and hosts in any slot, hosts also upper-cased.
BIND_VALUES = st.sampled_from(
    BIND_IPS + BIND_HOSTS + ["A.Example.COM", "B.EXAMPLE.com", "9.9.9.9"])
BIND_SLOTS = st.sampled_from(
    ["source-ip-address", "destination-ip-address", "url", "comment"])
BIND_FACTS = st.lists(
    st.lists(st.tuples(BIND_SLOTS, BIND_VALUES), min_size=1, max_size=3).map(
        lambda bindings: factbase.Fact("entity", tuple(bindings))),
    max_size=8,
)
# Four endpoints on one subnet, each with or without an address and domains.
BIND_ENDPOINTS = st.lists(
    st.tuples(st.one_of(st.none(), st.sampled_from(BIND_IPS)),
              st.lists(st.sampled_from(BIND_HOSTS), unique=True, max_size=2)),
    min_size=4, max_size=4,
)


def _bind_topology(endpoints):
    nodes = ["  - {id: S, kind: subnet}"]
    for i, (ip, domains) in enumerate(endpoints):
        fields = [f"id: E{i}", "kind: endpoint"]
        if ip is not None:
            fields.append(f"ip: {ip}")
        if domains:
            fields.append(f"domains: [{', '.join(domains)}]")
        nodes.append(f"  - {{{', '.join(fields)}}}")
    links = [f"  - [E{i}, S]" for i in range(len(endpoints))]
    return topology.parse_topology("\n".join(["nodes:", *nodes, "links:", *links]))


def _outcome(bind, t, intent, k):
    try:
        return bind(t, intent, k)
    except (ValidationError, NothingToEnforce) as exc:
        return type(exc), str(exc)


@given(BIND_FACTS, BIND_ENDPOINTS, st.integers(0, 3), st.integers(0, 3))
def test_bind_intent_equals_a_scan_of_every_fact(facts, endpoints, subject, obj):
    t = _bind_topology(endpoints)
    intent = refiner.HsplPolicy("h", f"E{subject}", "deny-access", f"E{obj}")
    k = factbase.Knowledge(facts=tuple(facts))
    assert _outcome(bind_intent, t, intent, k) == _outcome(full_scan_bind, t, intent, k)


def _shared_subnet_topology(attackers):
    """`attackers` endpoints on one subnet, FW1 and FW2 in parallel, then a
    WAF, in front of a server with an address and two served domains. One
    more endpoint, Z, reaches the WAF through FW3 alone."""
    route = [("SA", "FW1"), ("SA", "FW2"), ("FW1", "SM"), ("FW2", "SM"),
             ("SM", "WAF"), ("WAF", "SB"), ("Server", "SB"),
             ("Z", "SZ"), ("SZ", "FW3"), ("FW3", "SM")]
    return topology.parse_topology("\n".join([
        "nodes:",
        "  - {id: Server, kind: endpoint, ip: 10.1.0.1, "
        "domains: [a.example.com, b.example.com]}",
        "  - {id: Z, kind: endpoint, ip: 10.2.0.1}",
        *(f"  - {{id: A{i}, kind: endpoint, ip: 10.0.0.{i + 1}}}"
          for i in range(attackers)),
        *(f"  - {{id: {s}, kind: subnet}}" for s in ("SA", "SM", "SB", "SZ")),
        *(f"  - {{id: {d}, kind: device, controls: [IpTables]}}"
          for d in ("FW1", "FW2", "FW3")),
        "  - {id: WAF, kind: device, controls: [ModSecurity]}",
        "links:",
        *(f"  - [A{i}, SA]" for i in range(attackers)),
        *(f"  - [{a}, {b}]" for a, b in route),
    ]))


def _attacker_knowledge(attackers, *extra):
    return factbase.Knowledge(facts=(
        *extra,
        *(factbase.Fact("entity", (("source-ip-address", f"10.0.0.{i + 1}"),))
          for i in range(attackers)),
        factbase.Fact("entity", (("source-ip-address", "10.2.0.1"),)),
        factbase.Fact("entity", (("url", "a.example.com"),)),
        factbase.Fact("entity", (("url", "B.example.com"),)),
    ))


def _attacker_intents(attackers):
    return [refiner.HsplPolicy(f"h{i}", f"A{i}", "deny-access", "Server")
            for i in range(attackers)]


def test_a_fact_with_no_derivable_requirement_warns_once_per_refine(catalog, caplog):
    k = _attacker_knowledge(3, factbase.Fact("entity", (("comment", "10.0.0.1"),)))
    with caplog.at_level("INFO", logger="intentrefine"):
        refiner.refine(_shared_subnet_topology(3), _attacker_intents(3), k, catalog)
    warnings = [r.message for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == [
        "skipping fact with no derivable requirement: "
        "Fact(template='entity', bindings=(('comment', '10.0.0.1'),))"
    ]


def test_intents_on_one_subnet_pair_enumerate_and_place_once(catalog, monkeypatch,
                                                              caplog):
    attackers = 6
    t = _shared_subnet_topology(attackers)
    k = _attacker_knowledge(attackers)
    intents = _attacker_intents(attackers)
    intents.insert(3, refiner.HsplPolicy("hz", "Z", "deny-access", "Server"))
    intents.insert(5, refiner.HsplPolicy("ha", "A0", "deny-access", "Z"))

    # refining each intent alone, on the KB the previous one left
    alone, kb = [], None
    for intent in intents:
        artifacts, _report, kb = refiner.refine(t, [intent], k, catalog, kb)
        alone += artifacts

    calls = {"enumerate_paths": 0, "select_enforcement_set": 0}

    def counted(module, name):
        original = getattr(module, name)

        def call(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, call)

    counted(topology, "enumerate_paths")
    counted(refiner, "select_enforcement_set")
    with caplog.at_level("INFO", logger="intentrefine"):
        artifacts, report, together = refiner.refine(t, intents, k, catalog)
    # path families SA-SB, SZ-SB and SA-SZ; the last binds no url fact
    assert calls == {"enumerate_paths": 3, "select_enforcement_set": 5}
    assert artifacts == alone
    assert refiner.kb_to_json(together) == refiner.kb_to_json(kb)
    assert report.misses == [i.id for i in intents]
    selections = [r.message for r in caplog.records if "event=selection" in r.message]
    placed = {"hz": [("network", "FW3"), ("application", "WAF")],
              "ha": [("network", "FW3")]}
    assert selections == [
        f"stage=refiner event=selection intent={i.id} layer={layer} devices={devices}"
        for i in intents
        for layer, devices in placed.get(
            i.id, [("network", "FW1,FW2"), ("application", "WAF")])
    ]


# --- select_enforcement_set -------------------------------------------------

def test_scenario1_selection(scenario1_topology, catalog):
    paths = topology.enumerate_paths(scenario1_topology, "Eve", "Bob")
    devices, controls = select_enforcement_set(
        paths, scenario1_topology, catalog, capability.NETWORK_REQUIRED
    )
    assert devices == {"FW1", "FW3"}
    assert controls == {"FW1": "IpTables", "FW3": "IpTables"}


def test_scenario2_selection(scenario2_topology, catalog):
    paths = topology.enumerate_paths(scenario2_topology, "Alice", "WebServer")
    devices, controls = select_enforcement_set(
        paths, scenario2_topology, catalog, capability.APPLICATION_REQUIRED
    )
    assert devices == {"WAF"}
    assert controls == {"WAF": "ModSecurity"}


def test_device_free_path_unenforceable(catalog):
    doc = """
nodes:
  - {id: A, kind: endpoint}
  - {id: B, kind: endpoint}
  - {id: S1, kind: subnet}
  - {id: S2, kind: subnet}
links:
  - [A, S1]
  - [B, S2]
  - [S1, S2]
"""
    t = topology.parse_topology(doc)
    paths = topology.enumerate_paths(t, "A", "B")
    with pytest.raises(Unenforceable) as exc:
        select_enforcement_set(paths, t, catalog, capability.NETWORK_REQUIRED)
    [path] = paths
    assert str(exc.value) == (f"path {list(path.intermediate)} has no device with a "
                              "satisfying network-layer control")


def test_shared_device_consolidates(catalog):
    # one capable device lies on every path: selection must be that singleton
    doc = """
nodes:
  - {id: A, kind: endpoint}
  - {id: B, kind: endpoint}
  - {id: S1, kind: subnet}
  - {id: S2, kind: subnet}
  - {id: S3, kind: subnet}
  - {id: FWa, kind: device, controls: [IpTables]}
  - {id: FWb, kind: device, controls: [IpTables]}
  - {id: Mid, kind: device, controls: [IpTables]}
links:
  - [A, S1]
  - [S1, FWa]
  - [S1, FWb]
  - [FWa, S2]
  - [FWb, S2]
  - [S2, Mid]
  - [Mid, S3]
  - [B, S3]
"""
    t = topology.parse_topology(doc)
    paths = topology.enumerate_paths(t, "A", "B")
    assert len(paths) == 2
    devices, _ = select_enforcement_set(paths, t, catalog, capability.NETWORK_REQUIRED)
    assert devices == {"Mid"}


def test_selection_matches_bruteforce_on_random_topologies(catalog):
    rng = random.Random(99)
    checked = 0
    while checked < 40:
        t = random_topology(rng)
        paths = topology.enumerate_paths(t, "A", "B")
        if not paths or len(paths) > 10:
            continue
        capable_per_path = [
            frozenset(
                d for d in p.devices(t) if t.nodes[d].controls
            )
            for p in paths
        ]
        expected = oracle_min_cover(capable_per_path)
        if expected is None:
            with pytest.raises(Unenforceable):
                select_enforcement_set(paths, t, catalog, capability.NETWORK_REQUIRED)
        else:
            devices, _ = select_enforcement_set(
                paths, t, catalog, capability.NETWORK_REQUIRED
            )
            assert len(devices) == len(expected)
            assert all(devices & s for s in capable_per_path)
            # irredundancy
            for d in devices:
                reduced = devices - {d}
                assert any(not (reduced & s) for s in capable_per_path)
        checked += 1


# control satisfying each layer's requirement in the fixture catalog
SATISFYING = {"network": "IpTables", "application": "ModSecurity"}
CONTROL_CHOICES = [(), ("IpTables",), ("ModSecurity",), ("IpTables", "ModSecurity")]


def _with_random_controls(rng, t):
    return t._replace(nodes={
        n.id: (n._replace(controls=rng.choice(CONTROL_CHOICES))
               if n.kind == topology.DEVICE else n)
        for n in t.nodes.values()
    })


def _placed_as_lexicographic_oracle(t, subject, obj, catalog, required):
    """Check select_enforcement_set between two endpoints against
    oracle_min_cover over the sorted paths: the devices and controls, or
    the witness, the first path in order with no capable device. Returns
    whether the intent was enforceable, or None when there is no path."""
    found = topology.enumerate_paths(t, subject, obj)
    paths = list(found)
    if not paths:
        return None
    control = SATISFYING[required.layer]
    capable_per_path = [
        frozenset(d for d in p.devices(t) if control in t.nodes[d].controls)
        for p in paths
    ]
    expected = oracle_min_cover(capable_per_path)
    if expected is None:
        with pytest.raises(Unenforceable) as exc:
            select_enforcement_set(found, t, catalog, required)
        witness = paths[capable_per_path.index(frozenset())]
        assert str(exc.value) == (f"path {list(witness.intermediate)} has no device "
                                  f"with a satisfying {required.layer}-layer control")
        return False
    devices, controls = select_enforcement_set(found, t, catalog, required)
    assert devices == expected
    assert controls == {d: control for d in expected}
    return True


@pytest.mark.parametrize(
    "required", [capability.NETWORK_REQUIRED, capability.APPLICATION_REQUIRED],
    ids=["network", "application"],
)
def test_selection_equals_lexicographic_oracle(catalog, required):
    rng = random.Random(7)
    checked = enforceable = 0
    # both directions of 150 connected instances; random meshes leave dead
    # ends hanging off the separators
    while checked < 300:
        t = _with_random_controls(rng, random_topology(rng))
        for subject, obj in (("A", "B"), ("B", "A")):
            placed = _placed_as_lexicographic_oracle(t, subject, obj, catalog, required)
            if placed is not None:
                enforceable += placed
                checked += 1
    assert enforceable >= 60


@pytest.mark.parametrize(
    "required", [capability.NETWORK_REQUIRED, capability.APPLICATION_REQUIRED],
    ids=["network", "application"],
)
def test_selection_equals_lexicographic_oracle_on_series_parallel_topologies(
        catalog, required):
    rng = random.Random(11)
    checked = enforceable = 0
    while checked < 200:
        t = _with_random_controls(rng, series_parallel_topology(rng))
        for subject, obj in (("A", "B"), ("B", "A")):
            placed = _placed_as_lexicographic_oracle(t, subject, obj, catalog, required)
            if placed is not None:
                enforceable += placed
                checked += 1
    assert enforceable >= 50


def test_many_disjoint_chains_pick_first_device_of_each(catalog):
    # C(200, 20) subsets: out of reach of a search by cardinality
    rows = [[f"C{i:02d}D{j}" for j in range(10)] for i in range(20)]
    nodes = ["  - {id: A, kind: endpoint}", "  - {id: B, kind: endpoint}",
             "  - {id: SA, kind: subnet}", "  - {id: SB, kind: subnet}"]
    links = ["  - [A, SA]", "  - [B, SB]"]
    for row in rows:
        nodes += [f"  - {{id: {d}, kind: device, controls: [IpTables]}}" for d in row]
        links += [f"  - [{a}, {b}]" for a, b in zip(["SA", *row], [*row, "SB"])]
    t = topology.parse_topology("\n".join(["nodes:", *nodes, "links:", *links]))
    paths = topology.enumerate_paths(t, "A", "B")
    assert len(paths) == 20
    devices, _ = select_enforcement_set(paths, t, catalog, capability.NETWORK_REQUIRED)
    assert devices == {row[0] for row in rows}


def test_ladder_picks_lexicographically_first_pair(catalog):
    # stages of two parallel devices between subnets; stage names count down
    # from the subject, so the first pair in order is the stage next to B
    stages = 12
    nodes = ["  - {id: A, kind: endpoint}", "  - {id: B, kind: endpoint}"]
    links = ["  - [A, S0]", f"  - [B, S{stages}]"]
    nodes += [f"  - {{id: S{i}, kind: subnet}}" for i in range(stages + 1)]
    for i in range(stages):
        for side in "ab":
            d = f"L{stages - 1 - i:02d}{side}"
            nodes.append(f"  - {{id: {d}, kind: device, controls: [IpTables]}}")
            links += [f"  - [S{i}, {d}]", f"  - [{d}, S{i + 1}]"]
    t = topology.parse_topology("\n".join(["nodes:", *nodes, "links:", *links]))
    paths = topology.enumerate_paths(t, "A", "B")
    assert len(paths) == 2 ** stages
    devices, controls = select_enforcement_set(
        paths, t, catalog, capability.NETWORK_REQUIRED
    )
    assert devices == {"L00a", "L00b"}
    assert controls == {"L00a": "IpTables", "L00b": "IpTables"}


def test_unsaturated_candidates_need_no_residual_search(catalog, monkeypatch):
    # one unit of flow saturates every device of a chain; once the first is
    # kept and its flow removed, the others are unsaturated and decided at once
    devices = [f"D{i:03d}" for i in range(200)]
    route = ["A", "SA", *devices, "SB", "B"]
    t = topology.parse_topology("\n".join([
        "nodes:",
        "  - {id: A, kind: endpoint}", "  - {id: B, kind: endpoint}",
        "  - {id: SA, kind: subnet}", "  - {id: SB, kind: subnet}",
        *(f"  - {{id: {d}, kind: device, controls: [IpTables]}}" for d in devices),
        "links:", *(f"  - [{a}, {b}]" for a, b in zip(route, route[1:])),
    ]))
    paths = topology.enumerate_paths(t, "A", "B")
    searches = []
    residual_tree = refiner._residual_tree

    def counted(residual, start):
        searches.append(start)
        return residual_tree(residual, start)

    monkeypatch.setattr(refiner, "_residual_tree", counted)
    selected, _ = select_enforcement_set(paths, t, catalog, capability.NETWORK_REQUIRED)
    assert selected == {"D000"}
    assert len(searches) <= 10


# --- build_artifacts --------------------------------------------------------

def _scenario1_artifacts(t, intent, knowledge, catalog):
    (entry,) = bind_intent(t, intent, knowledge)
    _fact, rset, bindings = entry
    paths = topology.enumerate_paths(t, intent.subject, intent.object)
    _devices, controls = select_enforcement_set(paths, t, catalog, rset)
    return build_artifacts(intent, rset, bindings, controls, catalog)


def _detail(artifact, capability):
    """The detail of the artifact's first instance of `capability`, or None."""
    return next(
        (i.detail for i in artifact.capabilities if i.capability == capability), None
    )


def test_scenario1_artifacts(scenario1_topology, scenario1_intent, scenario1_knowledge, catalog):
    artifacts = _scenario1_artifacts(
        scenario1_topology, scenario1_intent, scenario1_knowledge, catalog
    )
    assert [(a.device, a.nsf) for a in artifacts] == [
        ("FW1", "IpTables"),
        ("FW1", "IpTables"),
        ("FW3", "IpTables"),
        ("FW3", "IpTables"),
    ]
    forward = artifacts[0]
    assert _detail(forward, CapabilityId.IP_SOURCE) == "80.71.158.96"
    assert _detail(forward, CapabilityId.IP_DESTINATION) == "172.19.0.3"
    assert _detail(forward, CapabilityId.STATE) == "NEW,ESTABLISHED"
    assert _detail(forward, CapabilityId.DROP) == "drop"
    reverse = artifacts[1]
    assert _detail(reverse, CapabilityId.IP_SOURCE) == "172.19.0.3"
    assert _detail(reverse, CapabilityId.STATE) == "ESTABLISHED,RELATED"


def test_stateless_control_omits_state(scenario1_topology, scenario1_intent, scenario1_knowledge):
    stateless = capability.load_catalog(
        '{"IpTables": {"layer": "network", "stateful": false, "capabilities": ['
        '"IpSourceAddressConditionCapability", "IpDestinationAddressConditionCapability",'
        '"DropActionCapability"]}}'
    )
    artifacts = _scenario1_artifacts(
        scenario1_topology, scenario1_intent, scenario1_knowledge, stateless
    )
    assert len(artifacts) == 4
    assert all(_detail(a, CapabilityId.STATE) is None for a in artifacts)


def test_scenario2_single_artifact(scenario2_topology, scenario2_intent, scenario2_knowledge, catalog):
    artifacts = _scenario1_artifacts(
        scenario2_topology, scenario2_intent, scenario2_knowledge, catalog
    )
    assert len(artifacts) == 1
    a = artifacts[0]
    assert (a.device, a.nsf) == ("WAF", "ModSecurity")
    assert _detail(a, CapabilityId.HTTP_HOST) == "hadleyshope.3utilities.com"
    assert _detail(a, CapabilityId.DENY) == "deny"


def test_artifact_json_roundtrip(scenario1_topology, scenario1_intent, scenario1_knowledge, catalog):
    artifacts = _scenario1_artifacts(
        scenario1_topology, scenario1_intent, scenario1_knowledge, catalog
    )
    text = refiner.artifacts_to_json(artifacts)
    assert refiner.artifacts_from_json(text) == artifacts


def _reference_artifacts_json(artifacts):
    """What artifacts_to_json wrote when it called json.dumps."""
    doc = [
        {
            "hsplid": a.hsplid,
            "device": a.device,
            "nsf": a.nsf,
            "capabilities": [
                {"capability": inst.capability, "detail": inst.detail}
                for inst in a.capabilities
            ],
        }
        for a in artifacts
    ]
    return json.dumps(doc, indent=2) + "\n"


# Quotes, backslashes, control, non-ASCII and non-BMP characters drawn often,
# the characters json escapes.
json_text = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u2028\xe9\U0001F600'))
capability_tuples = st.lists(
    st.builds(refiner.CapabilityInstance, st.sampled_from(capability.CAPABILITY_IDS), json_text),
    max_size=5,
).map(tuple)
rule_artifacts = st.builds(
    refiner.RuleArtifact,
    hsplid=json_text,
    device=json_text,
    nsf=json_text,
    capabilities=capability_tuples,
)


@st.composite
def pooled_rule_artifacts(draw, ids=json_text):
    """Artifacts whose capabilities come from a pool of at most three tuples,
    so that they repeat: as the pool's object, or as an equal copy. Their
    hsplid, device and nsf are drawn from `ids`."""
    pool = draw(st.lists(capability_tuples, min_size=1, max_size=3))
    capabilities = st.sampled_from(pool) | st.sampled_from(pool).map(
        lambda c: tuple(refiner.CapabilityInstance(*i) for i in c))
    artifact = st.builds(refiner.RuleArtifact, hsplid=ids, device=ids,
                         nsf=ids, capabilities=capabilities)
    return draw(st.lists(artifact, max_size=8))


@given(artifacts=st.lists(rule_artifacts, max_size=4) | pooled_rule_artifacts())
@example(artifacts=[])
@example(artifacts=[refiner.RuleArtifact("h", "FW1", "IpTables", ())])
def test_artifacts_to_json_writes_what_json_dumps_writes(artifacts):
    assert refiner.artifacts_to_json(artifacts) == _reference_artifacts_json(artifacts)


@given(artifacts=pooled_rule_artifacts(ids=st.text("Az09_.-", min_size=1)))
def test_artifacts_read_back_as_written(artifacts):
    assert refiner.artifacts_from_json(refiner.artifacts_to_json(artifacts)) == artifacts


# --- knowledge base ---------------------------------------------------------

SCENARIO1_PLACEMENT = {"network": {"FW1": "IpTables", "FW3": "IpTables"}}


def test_kb_cycle(scenario1_topology, scenario1_intent, scenario1_knowledge, catalog):
    t = scenario1_topology
    intents = [scenario1_intent]

    empty, paths, report = kb_reconcile(None, t, intents)
    assert report.misses == ["hspl1"] and not report.hits
    assert len(paths["hspl1"]) == 3
    assert not empty.intents and not empty.placements

    _, _, kb = refiner.refine(t, intents, scenario1_knowledge, catalog)
    assert kb.intents == {"hspl1": scenario1_intent}
    assert kb.placements == {"hspl1": SCENARIO1_PLACEMENT}
    assert kb_update(empty, intents, {"hspl1": SCENARIO1_PLACEMENT}) == kb

    kept, paths2, report2 = kb_reconcile(kb, t, intents)
    assert report2.hits == ["hspl1"] and not report2.misses
    assert len(paths2["hspl1"]) == 3 and kept.placements == kb.placements

    # idempotent update
    kb2 = kb_update(kept, intents, kept.placements)
    assert refiner.kb_to_json(kb2) == refiner.kb_to_json(kb)


def test_kb_hit_records_this_runs_placement(
    scenario1_topology, scenario1_intent, scenario1_knowledge, catalog
):
    """A record that is no minimum cut (FW4 is one device too many) is stale,
    and the run records its own placement in its place."""
    t, intents = scenario1_topology, [scenario1_intent]
    cold, _, kb = refiner.refine(t, intents, scenario1_knowledge, catalog)
    superset = {"network": {**SCENARIO1_PLACEMENT["network"], "FW4": "IpTables"}}
    recorded = kb_update(kb, intents, {"hspl1": superset})

    warm, report, kb2 = refiner.refine(
        t, intents, scenario1_knowledge, catalog, kb=recorded
    )
    assert not report.hits and report.misses == ["hspl1"]
    assert report.stale == {"hspl1": ([], ["network:FW4:IpTables"])}
    assert warm == cold and kb2 == kb


def test_kb_topology_change_forces_recompute(
    scenario1_topology, scenario1_intent, scenario1_knowledge, catalog
):
    """A topology edit that moves the placement makes the record stale, with
    what the placement lost; the run records the new placement."""
    intents = [scenario1_intent]
    _, _, kb = refiner.refine(scenario1_topology, intents, scenario1_knowledge, catalog)

    modified = topology.parse_topology(
        read_fixture("scenario1", "topology.yaml").replace("  - [FW2, FW3]\n", "")
    )
    kept, paths2, report = kb_reconcile(kb, modified, intents)
    assert report.hits == ["hspl1"] and not report.misses
    assert kept == kb and len(paths2["hspl1"]) == 2

    _, report2, kb2 = refiner.refine(
        modified, intents, scenario1_knowledge, catalog, kb=kb
    )
    assert not report2.hits and report2.misses == ["hspl1"]
    assert report2.stale == {"hspl1": ([], ["network:FW3:IpTables"])}
    assert kb2.placements == {"hspl1": {"network": {"FW1": "IpTables"}}}


def test_kb_catalog_change_forces_recompute(
    scenario1_topology, scenario1_intent, scenario1_knowledge, catalog
):
    """A catalog edit that moves no device is a hit: a record holds devices
    and controls, not rules. The rules are recomputed all the same, and
    differ from the cold run's."""
    intents = [scenario1_intent]
    cold, _, kb = refiner.refine(
        scenario1_topology, intents, scenario1_knowledge, catalog
    )

    stateless = capability.load_catalog(
        read_fixture("catalog.json").replace('"stateful": true', '"stateful": false')
    )
    warm, report, kb2 = refiner.refine(
        scenario1_topology, intents, scenario1_knowledge, stateless, kb=kb
    )
    assert report == refiner.ReuseReport(["hspl1"], [], {})
    assert kb2 == kb

    def rules(artifacts):
        return {device: translator.rules_file_content(translator.translate_policy(p))
                for device, p in converter.build_mspl(artifacts).items()}

    stateful_rules, stateless_rules = rules(cold), rules(warm)
    assert stateful_rules.keys() == stateless_rules.keys() == {"FW1", "FW3"}
    for device, text in stateless_rules.items():
        assert "--ctstate" in stateful_rules[device] and "--ctstate" not in text


def test_kb_persistence_roundtrip(
    scenario1_topology, scenario1_intent, scenario1_knowledge, catalog, tmp_path
):
    _, _, kb = refiner.refine(
        scenario1_topology, [scenario1_intent], scenario1_knowledge, catalog
    )
    path = str(tmp_path / "kb.json")
    refiner.save_kb(kb, path)
    loaded, text = refiner.load_kb(path)
    assert loaded == kb
    assert refiner.kb_to_json(loaded) == refiner.kb_to_json(kb) == text


KB_PLACEMENTS = st.dictionaries(
    st.sampled_from(["network", "application", "transport"]),
    st.dictionaries(st.sampled_from(["FW1", "FW2", "WAF", "a.b-c_9"]),
                    st.sampled_from(["IpTables", "ModSecurity"]), max_size=3),
    max_size=2)


def _reordered(placement):
    """An equal placement built in reverse key order."""
    return {layer: dict(reversed(placement[layer].items())) for layer in reversed(placement)}


@st.composite
def pooled_kbs(draw):
    """A KB whose intents draw their placements from a pool of at most three
    (equal ones among them): as the pool's object, or as an equal copy."""
    pool = draw(st.lists(KB_PLACEMENTS, min_size=1, max_size=3))
    placement = st.sampled_from(pool) | st.sampled_from(pool).map(_reordered)
    ids = draw(st.lists(st.text("Az09_.-", min_size=1, max_size=4), unique=True, max_size=8))
    kb = refiner.KnowledgeBase({}, {})
    for hid in ids:
        kb.intents[hid] = refiner.HsplPolicy(
            hid, draw(json_text), draw(st.sampled_from(["deny-access", ""]) | json_text),
            draw(json_text))
        kb.placements[hid] = draw(placement)
    return kb


@given(kb=pooled_kbs(), order=st.randoms(use_true_random=False))
@example(kb=refiner.KnowledgeBase(
    {"a": refiner.HsplPolicy("a", "A", "deny-access", "B"),
     "b": refiner.HsplPolicy("b", "B", "deny-access", "A")},
    {"a": {}, "b": {"network": {}}}), order=random.Random(0))
def test_kb_reads_back_as_written_one_group_per_placement(tmp_path_factory, kb, order):
    text = refiner.kb_to_json(kb)
    path = tmp_path_factory.mktemp("kb") / "kb.json"
    path.write_text(text, encoding="utf-8")
    assert refiner.load_kb(str(path)) == (kb, text)

    # neither the order of the intents nor that of a placement's keys shows
    ids = list(kb.intents)
    order.shuffle(ids)
    shuffled = refiner.KnowledgeBase(
        {hid: kb.intents[hid] for hid in ids},
        {hid: _reordered(kb.placements[hid]) for hid in ids})
    assert refiner.kb_to_json(shuffled) == text

    groups = json.loads(text)["placements"]
    placements = [g["placement"] for g in groups]
    assert all(placements.count(p) == 1 for p in placements)
    assert all(p in placements for p in kb.placements.values())
    assert sorted(hid for g in groups for hid in g["intents"]) == sorted(kb.intents)
    assert all(g["intents"] for g in groups)


def test_corrupt_kb_treated_as_absent(tmp_path, caplog):
    path = tmp_path / "kb.json"
    path.write_text('{"intents": {"hspl1": {"subject": "Eve", "action": '
                    '"deny-access", "object": "Bob"}}}')
    with caplog.at_level("WARNING"):
        assert refiner.load_kb(str(path)) == (None, path.read_text())
    assert any("corrupt" in rec.message.lower() for rec in caplog.records)


@pytest.mark.parametrize("document", [
    "not json",
    "[]",
    '{"intents": []}',
    '{"intents": {"h": "x"}}',
    '{"intents": {"h": {"subject": "A", "action": "deny-access",'
    ' "object": "B", "placement": {"network": ["FW1"]}}}}',
    '{"intents": {"h": {"subject": "A", "action": "deny-access",'
    ' "object": "B", "placement": {"network": {"FW1": 1}}}}}',
    '{"intents": {"h": {"subject": "A", "action": "deny-access",'
    ' "object": "B", "placement": {"network": {"FW1": "Ip Tables"}}}}}',
    '{"intents": {"h": {"subject": "A", "action": "deny-access",'
    ' "object": "B", "placement": {"network": {"FW1\\n": "IpTables"}}}}}',
    '{"intents": {"h": {"subject": "A", "action": "deny-access",'
    ' "object": "B", "placement": {"net=work": {"FW1": "IpTables"}}}}}',
    '{"placements": {}}',
    '{"placements": "x"}',
    '{"placements": [["h"]]}',
    '{"placements": [{"intents": [["h", "A", "deny-access", "B"]],'
    ' "placement": {}}]}',
    '{"placements": [{"intents": {"h": ["A", "deny-access"]}, "placement": {}}]}',
    '{"placements": [{"intents": {"h": ["A", 1, "B"]}, "placement": {}}]}',
    '{"placements": [{"intents": {"h": "ABC"}, "placement": {}}]}',
    '{"placements": [{"intents": {"h": {"A": 1, "B": 2, "C": 3}}, "placement": {}}]}',
    '{"placements": [{"intents": {"h": ["A", "deny-access", "B"]}, "placement": {}},'
    ' {"intents": {"h": ["A", "deny-access", "B"]},'
    ' "placement": {"network": {"FW1": "IpTables"}}}]}',
    '{"placements": [{"intents": {"h": ["A", "deny-access", "B"]},'
    ' "placement": {"net=work": {"FW1": "IpTables"}}}]}',
    '{"placements": [{"intents": {"h": ["A", "deny-access", "B"]},'
    ' "placement": {"network": {"FW1\\n": "IpTables"}}}]}',
    '{"placements": [{"intents": {"h": ["A", "deny-access", "B"]},'
    ' "placement": {"network": {"FW1": "Ip Tables"}}}]}',
    '{"placements": [{"intents": {"h": ["A", "deny-access", "B"]},'
    ' "placement": {"network": {"FW1": null}}}]}',
], ids=["syntax", "list", "intents-list", "entry-string", "devices-list",
        "control-type", "control-not-an-id", "device-not-an-id", "layer-not-an-id",
        "placements-mapping", "placements-string", "group-list", "group-intents-list",
        "record-two-strings", "record-number", "record-string", "record-mapping",
        "intent-in-two-groups", "group-layer-not-an-id", "group-device-not-an-id",
        "group-control-not-an-id", "group-control-type"])
def test_malformed_kb_treated_as_absent(tmp_path, caplog, document):
    path = tmp_path / "kb.json"
    path.write_text(document)
    with caplog.at_level("WARNING"):
        assert refiner.load_kb(str(path)) == (None, path.read_text())
    assert any("corrupt" in rec.message.lower() for rec in caplog.records)


FW1_FW3 = ["network:FW1:IpTables", "network:FW3:IpTables"]


@pytest.mark.parametrize("placement, added, removed", [
    ({"network": {"FW1": "IpTables", "Ghost": "IpTables"}},
     ["network:FW3:IpTables"], ["network:Ghost:IpTables"]),
    ({"network": {"FW1": "IpTables", "Subnet2": "IpTables"}},
     ["network:FW3:IpTables"], ["network:Subnet2:IpTables"]),
    ({"network": {"FW1": "ModSecurity", "FW3": "IpTables"}},
     ["network:FW1:IpTables"], ["network:FW1:ModSecurity"]),
    ({"network": {"FW1": "IpTables"}}, ["network:FW3:IpTables"], []),
    ({"network": {}}, FW1_FW3, []),
    ({}, FW1_FW3, []),
    ({"transport": {"FW1": "IpTables", "FW3": "IpTables"}},
     FW1_FW3, ["transport:FW1:IpTables", "transport:FW3:IpTables"]),
], ids=["unknown-device", "subnet", "other-control", "dropped-device", "empty",
        "empty-record", "unknown-layer"])
def test_kb_record_failing_the_check_discards_the_kb(
    tmp_path, caplog, capsys, placement, added, removed
):
    """A record that is not this run's placement is stale: it is logged with
    what changed, never reaches the outputs, and is replaced in the KB."""
    def run(name):
        return cli.main([str(a) for a in (
            "run",
            "--topology", FIXTURES / "scenario1" / "topology.yaml",
            "--hspl", FIXTURES / "scenario1" / "hspl.xml",
            "--knowledge", FIXTURES / "scenario1" / "knowledge.json",
            "--catalog", FIXTURES / "catalog.json",
            "--out", tmp_path / name / "out",
            "--kb", tmp_path / name / "kb.json",
        )])

    def files(name):
        return {p.relative_to(tmp_path / name): p.read_text()
                for p in sorted((tmp_path / name).rglob("*")) if p.is_file()}

    (tmp_path / "cold").mkdir()
    assert run("cold") == 0
    kb = json.loads((tmp_path / "cold" / "kb.json").read_text())
    [group] = kb["placements"]
    assert list(group["intents"]) == ["hspl1"]
    group["placement"] = placement
    (tmp_path / "warm").mkdir()
    (tmp_path / "warm" / "kb.json").write_text(json.dumps(kb))

    with caplog.at_level("INFO"):
        assert run("warm") == 0
    assert [r.message for r in caplog.records if "event=kb_reuse" in r.message] == [
        "stage=refiner event=kb_reuse intent=hspl1 result=stale "
        f"added={','.join(added)} removed={','.join(removed)}"
    ]
    assert "Traceback" not in capsys.readouterr().err
    assert files("warm") == files("cold")


def test_kb_record_of_another_intent_is_carried_over(
    scenario1_topology, scenario1_intent, scenario1_knowledge, catalog
):
    """A record of an intent this run does not place is kept as it is, even
    one that no run could have placed."""
    t, intents = scenario1_topology, [scenario1_intent]
    _, _, kb = refiner.refine(t, intents, scenario1_knowledge, catalog)
    other = refiner.HsplPolicy("other", "Bob", "deny-access", "Eve")
    bad = {"transport": {"Ghost": "IpTables"}}
    recorded = kb_update(kb, [other], {"other": bad})

    _, report, kb2 = refiner.refine(
        t, intents, scenario1_knowledge, catalog, kb=recorded
    )
    assert report.hits == ["hspl1"] and not report.misses and not report.stale
    assert kb2 == recorded


def test_kb_record_for_disconnected_endpoints_discards_the_kb(
    scenario1_topology, scenario1_intent, scenario1_knowledge, catalog
):
    """A record of a placement between endpoints that are now disconnected
    does not stand in for the "no path" failure."""
    broken = topology.parse_topology(
        read_fixture("scenario1", "topology.yaml")
        .replace("  - [Subnet1, FW1]\n", "").replace("  - [Subnet1, FW2]\n", "")
    )
    assert list(topology.enumerate_paths(broken, "Eve", "Bob")) == []
    kb = refiner.KnowledgeBase(
        intents={"hspl1": scenario1_intent},
        placements={"hspl1": {"network": {"FW1": "IpTables"}}},
    )
    messages = []
    for recorded in (None, kb):
        with pytest.raises(Unenforceable) as exc:
            refiner.refine(
                broken, [scenario1_intent], scenario1_knowledge, catalog, kb=recorded
            )
        messages.append(str(exc.value))
    assert messages == ["intent 'hspl1': no path between 'Eve' and 'Bob'"] * 2


def test_path_without_a_capable_device_names_the_intent(
    scenario1_intent, scenario1_knowledge, catalog
):
    """As the no-path failure does, the error names the intent, and then the
    path that select_enforcement_set found uncovered."""
    bare = topology.parse_topology(
        read_fixture("scenario1", "topology.yaml").replace("[IpTables]", "[]")
    )
    with pytest.raises(Unenforceable) as exc:
        refiner.refine(bare, [scenario1_intent], scenario1_knowledge, catalog)
    assert str(exc.value) in {
        f"intent 'hspl1': path {list(p.intermediate)} has no device with a "
        "satisfying network-layer control" for p in topology.enumerate_paths(bare, "Eve", "Bob")}


def test_missing_kb_file():
    assert refiner.load_kb("/nonexistent/kb.json") == (None, None)
