import pytest
from hypothesis import given, strategies as st

from intentrefine import converter, translator, verifier
from intentrefine.capability import CapabilityId
from intentrefine.converter import (
    MatchOperator,
    MsplCondition,
    MsplPolicy,
    MsplRule,
    build_mspl,
    parse_mspl,
    serialize_mspl,
)
from intentrefine.errors import DocumentSyntaxError, InconsistentNsf, NormalizationError
from intentrefine.refiner import CapabilityInstance, RuleArtifact

from randomtopo import oracle_verdicts


def _artifact(device="FW1", nsf="IpTables", src="80.71.158.96", dst="172.19.0.3",
              states="NEW,ESTABLISHED"):
    caps = [
        CapabilityInstance(CapabilityId.IP_SOURCE, src),
        CapabilityInstance(CapabilityId.IP_DESTINATION, dst),
    ]
    if states:
        caps.append(CapabilityInstance(CapabilityId.STATE, states))
    caps.append(CapabilityInstance(CapabilityId.DROP, "drop"))
    return RuleArtifact(hsplid="hspl1", device=device, nsf=nsf, capabilities=tuple(caps))


WAF_ARTIFACT = RuleArtifact(
    hsplid="hspl2",
    device="WAF",
    nsf="ModSecurity",
    capabilities=(
        CapabilityInstance(CapabilityId.HTTP_HOST, "hadleyshope.3utilities.com"),
        CapabilityInstance(CapabilityId.DENY, "deny"),
    ),
)


def test_build_groups_by_device():
    artifacts = [
        _artifact(device="FW1"),
        _artifact(device="FW1", src="172.19.0.3", dst="80.71.158.96",
                  states="ESTABLISHED,RELATED"),
        _artifact(device="FW3"),
        _artifact(device="FW3", src="172.19.0.3", dst="80.71.158.96",
                  states="ESTABLISHED,RELATED"),
    ]
    policies = build_mspl(artifacts)
    assert set(policies) == {"FW1", "FW3"}
    for policy in policies.values():
        assert policy.nsf_name == "IpTables"
        assert len(policy.rules) == 2
    # rule count conservation
    assert sum(len(p.rules) for p in policies.values()) == len(artifacts)


def test_build_waf_policy():
    policies = build_mspl([WAF_ARTIFACT])
    assert set(policies) == {"WAF"}
    (rule,) = policies["WAF"].rules
    assert rule.action == "deny"
    assert rule.conditions == (
        MsplCondition(
            CapabilityId.HTTP_HOST, MatchOperator.EXACT, ("hadleyshope.3utilities.com",)
        ),
    )


def test_build_empty():
    assert build_mspl([]) == {}


def test_inconsistent_nsf_rejected():
    with pytest.raises(InconsistentNsf):
        build_mspl([_artifact(), _artifact(nsf="ModSecurity")])


def test_state_detail_normalized_to_canonical_order():
    a = _artifact(states="ESTABLISHED,NEW")
    (policy,) = build_mspl([a]).values()
    state = policy.rules[0].conditions[2]
    assert state.values == ("NEW", "ESTABLISHED")


def test_bad_address_detail_rejected():
    with pytest.raises(NormalizationError):
        build_mspl([_artifact(src="not-an-ip")])


def test_bad_state_detail_rejected():
    with pytest.raises(NormalizationError):
        build_mspl([_artifact(states="NEW,FROZEN")])


def test_each_distinct_detail_is_normalized_once(monkeypatch):
    artifacts = [_artifact(device=device, states=states)
                 for device in ("FW1", "FW2")
                 for states in ("NEW,ESTABLISHED", "ESTABLISHED,RELATED", "NEW")]
    normalized = []
    condition_of = converter.condition_of

    def counted(inst):
        normalized.append(inst)
        return condition_of(inst)

    monkeypatch.setattr(converter, "condition_of", counted)
    policies = build_mspl(artifacts)
    # source, destination, three state sets and the action
    assert len(normalized) == len(set(normalized)) == 6
    assert policies["FW1"].rules == policies["FW2"].rules
    assert [r.conditions[2].values for r in policies["FW1"].rules] == [
        ("NEW", "ESTABLISHED"), ("ESTABLISHED", "RELATED"), ("NEW",)]


def _bulk_like_artifacts(intents=50, hosts=10):
    """Each intent's forward and reverse rules on FW1 and FW2, and its rule
    for each of `hosts` hosts on the WAF; every tuple a fresh object."""
    artifacts = []
    for i in range(intents):
        src = f"10.1.0.{i}"
        for device in ("FW1", "FW2"):
            artifacts.append(_artifact(device, src=src, dst="172.20.0.3")._replace(hsplid=f"i{i}"))
            artifacts.append(_artifact(device, src="172.20.0.3", dst=src,
                                       states="ESTABLISHED,RELATED")._replace(hsplid=f"i{i}"))
        for h in range(hosts):
            artifacts.append(WAF_ARTIFACT._replace(hsplid=f"i{i}", capabilities=(
                CapabilityInstance(CapabilityId.HTTP_HOST, f"h{h}.example.com"),
                CapabilityInstance(CapabilityId.DENY, "deny"),
            )))
    return artifacts


def test_each_distinct_shape_is_checked_and_rendered_once(
        monkeypatch, scenario2_topology, catalog):
    """build_mspl and evaluate_flow check each distinct capability tuple
    once, translate_policy checks each distinct rule kind (condition
    capabilities and action) and escapes each distinct host once, and
    evaluate_flow checks each device's distinct rule kinds once, per call."""
    calls = {}
    for module, name in ((converter, "check_capabilities"), (translator, "check_rule"),
                         (translator, "escape_modsecurity_regex")):
        def counted(*args, _original=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)

    artifacts = _bulk_like_artifacts()
    policies = build_mspl(artifacts)
    # 100 address shapes, shared by FW1 and FW2, and 10 host shapes
    assert calls == {"check_capabilities": 110}
    # each device's rules are of one kind
    for device, expected in (("FW1", {"check_rule": 1}), ("FW2", {"check_rule": 1}),
                             ("WAF", {"check_rule": 1, "escape_modsecurity_regex": 10})):
        calls.clear()
        assert len(translator.translate_policy(policies[device])) == len(policies[device].rules)
        assert calls == expected
    calls.clear()
    flow = verifier.FlowSpec("10.1.0.7", "172.20.0.3")
    verdicts = oracle_verdicts(verifier.evaluate_flow(scenario2_topology, artifacts, catalog,
                                                      flow, "Alice", "WebServer"))
    assert {device for _, device in verdicts} == {"FW1", "FW2"}
    # through translator.check_policy: one kind on each of FW1, FW2 and WAF
    assert calls == {"check_capabilities": 110, "check_rule": 3}


def test_parse_mspl_checks_each_distinct_condition_once(monkeypatch):
    """parse_mspl normalizes each distinct condition of a document once, and
    still reads back the policy serialize_mspl wrote."""
    normalized = []
    condition_of = converter.condition_of

    def counted(inst):
        normalized.append(inst)
        return condition_of(inst)

    monkeypatch.setattr(converter, "condition_of", counted)
    policies = build_mspl(_bulk_like_artifacts())
    normalized.clear()
    # FW1's 100 rules: 51 source and 51 destination addresses (50 intents'
    # and the server's) and two state sets; the WAF's 500 rules: 10 hosts
    for device, distinct in (("FW1", 104), ("WAF", 10)):
        assert parse_mspl(serialize_mspl(policies[device])) == policies[device]
        assert len(normalized) == len(set(normalized)) == distinct
        normalized.clear()


def test_the_first_bad_detail_in_artifact_order_is_reported():
    artifacts = [_artifact(), _artifact(dst="9.9.9"), _artifact(), _artifact(src="8.8.8")]
    with pytest.raises(NormalizationError, match="'9.9.9'"):
        build_mspl(artifacts)


def test_descending_range_rejected():
    with pytest.raises(NormalizationError):
        build_mspl([_artifact(src="10.0.0.9-10.0.0.1")])


def test_range_and_union_operators():
    a = _artifact(src="10.0.0.1-10.0.0.9", dst="1.1.1.1,2.2.2.2", states=None)
    (policy,) = build_mspl([a]).values()
    src, dst = policy.rules[0].conditions
    assert src.operator == MatchOperator.RANGE and src.values == ("10.0.0.1", "10.0.0.9")
    assert dst.operator == MatchOperator.UNION and dst.values == ("1.1.1.1", "2.2.2.2")


def test_serialized_form_matches_expected_layout():
    policies = build_mspl([_artifact()])
    text = serialize_mspl(policies["FW1"])
    assert text.startswith("<?xml version='1.0' encoding='utf-8'?>\n")
    assert (
        '<ipSourceAddressConditionCapability operator="exactMatch">\n'
        "      <capabilityIpValue>\n"
        "        <exactMatch>80.71.158.96</exactMatch>\n"
        "      </capabilityIpValue>\n"
        "    </ipSourceAddressConditionCapability>" in text
    )
    assert "<actionCapability>drop</actionCapability>" in text
    # canonical condition order: source before destination before state
    assert text.index("ipSourceAddress") < text.index("ipDestinationAddress") < text.index("stateCondition")


def test_empty_policy_serializes():
    text = serialize_mspl(MsplPolicy(nsf_name="IpTables", rules=()))
    assert "<policy" in text
    assert parse_mspl(text) == MsplPolicy(nsf_name="IpTables", rules=())


def test_roundtrip_fixpoint_all_shapes():
    artifacts = [
        _artifact(),
        _artifact(src="10.0.0.1-10.0.0.9", dst="1.1.1.1,2.2.2.2", states=None),
        WAF_ARTIFACT,
    ]
    for policy in build_mspl(artifacts).values():
        text = serialize_mspl(policy)
        parsed = parse_mspl(text)
        assert parsed == policy
        assert serialize_mspl(parsed) == text


def test_serialization_is_deterministic():
    policies1 = build_mspl([_artifact(), WAF_ARTIFACT])
    policies2 = build_mspl([_artifact(), WAF_ARTIFACT])
    for device in policies1:
        assert serialize_mspl(policies1[device]) == serialize_mspl(policies2[device])


@pytest.mark.parametrize("host", ['a"b.com', "a b.com", "-a.com", "a..com", ""])
def test_host_detail_must_be_an_rfc1123_host_name(host):
    waf = RuleArtifact(
        hsplid="h", device="WAF", nsf="ModSecurity",
        capabilities=(CapabilityInstance(CapabilityId.HTTP_HOST, host),
                      CapabilityInstance(CapabilityId.DENY, "deny")),
    )
    with pytest.raises(NormalizationError, match="RFC 1123"):
        build_mspl([waf])


def test_whitespace_in_ids_survives_the_roundtrip():
    (policy,) = build_mspl([_artifact()]).values()
    rule = policy.rules[0]
    policy = MsplPolicy(
        nsf_name="Ip\tTables\r\n",
        rules=(MsplRule(id="a\nb", conditions=rule.conditions, action=rule.action),),
    )
    text = serialize_mspl(policy)
    assert '<policy nsfName="Ip&#9;Tables&#13;&#10;">' in text
    assert '<rule id="a&#10;b">' in text
    assert parse_mspl(text) == policy


# Characters XML 1.0 allows in a document, with the ones that need escaping
# drawn often.
XML_CHARS = st.one_of(
    st.sampled_from("\t\n\r &<>\"'"),
    st.characters(blacklist_categories=("Cs",)).filter(
        lambda c: c in "\t\n\r" or "\x20" <= c <= "\ufffd" or c >= "\U00010000"
    ),
)
XML_TEXT = st.text(XML_CHARS, max_size=12)


@given(nsf_name=XML_TEXT, ids=st.lists(XML_TEXT, max_size=3))
def test_mspl_fixpoint_for_any_xml_legal_id_and_nsf_name(nsf_name, ids):
    shapes = [
        rule
        for policy in build_mspl([
            _artifact(),
            _artifact(src="10.0.0.1-10.0.0.9", dst="1.1.1.1,2.2.2.2", states=None),
            WAF_ARTIFACT,
        ]).values()
        for rule in policy.rules
    ]
    policy = MsplPolicy(
        nsf_name=nsf_name,
        rules=tuple(
            MsplRule(id=rule_id, conditions=shape.conditions, action=shape.action)
            for rule_id, shape in zip(ids, shapes)
        ),
    )
    text = serialize_mspl(policy)
    parsed = parse_mspl(text)
    assert parsed == policy
    assert serialize_mspl(parsed) == text


def _policy_with(condition_xml):
    return (
        "<policy nsfName=\"IpTables\">\n  <rule id=\"r\">\n"
        f"{condition_xml}"
        "    <actionCapability>drop</actionCapability>\n  </rule>\n</policy>\n"
    )


def _address(operator, values_xml):
    return (
        f'<ipSourceAddressConditionCapability operator="{operator}">'
        f"<capabilityIpValue>{values_xml}</capabilityIpValue>"
        "</ipSourceAddressConditionCapability>"
    )


NON_CANONICAL_CONDITIONS = {
    "injected-address": _address(
        "exactMatch", "<exactMatch>1.2.3.4 -j ACCEPT ; rm -rf /</exactMatch>"),
    "empty-exact": _address("exactMatch", ""),
    "two-exact-values": _address(
        "exactMatch",
        "<exactMatch>1.1.1.1</exactMatch><exactMatch>2.2.2.2</exactMatch>"),
    "one-member-union": _address("union", "<exactMatch>1.1.1.1</exactMatch>"),
    "descending-range": _address(
        "range", "<range><begin>10.0.0.9</begin><end>10.0.0.1</end></range>"),
    "range-of-non-addresses": _address(
        "range", "<range><begin>a</begin><end>b</end></range>"),
    "unknown-state": (
        '<stateConditionCapability operator="exactMatch"><capabilityStateValue>'
        "<state>FROZEN</state></capabilityStateValue></stateConditionCapability>"),
    "host-with-quote": (
        '<httpHostHeaderConditionCapability operator="exactMatch">'
        "<capabilityStringValue><exactMatch>a&quot;b.com</exactMatch>"
        "</capabilityStringValue></httpHostHeaderConditionCapability>"),
}


@pytest.mark.parametrize("case", sorted(NON_CANONICAL_CONDITIONS))
def test_parse_rejects_values_the_converter_would_not_write(case):
    with pytest.raises(NormalizationError):
        parse_mspl(_policy_with(NON_CANONICAL_CONDITIONS[case]))


RANGE = "<range><begin>10.0.0.1</begin><end>10.0.0.9</end></range>"
EXACT = "<exactMatch>1.1.1.1</exactMatch>"
VALUE = f"<capabilityIpValue>{EXACT}</capabilityIpValue>"

# Documents with an element that build_mspl never writes and that a reading
# of the other elements alone would drop, deploying less than the document
# says. The values are all canonical.
UNREAD_ELEMENTS = {
    "misspelt-rule": _policy_with(_address("exactMatch", EXACT)).replace("rule", "rul"),
    "second-range": _address("range", RANGE * 2),
    "exact-match-beside-a-range": _address("range", RANGE + EXACT),
    "range-beside-an-exact-match": _address("exactMatch", EXACT + RANGE),
    "range-without-its-end": _address("range", "<range><begin>10.0.0.1</begin></range>"),
    "end-before-begin": _address(
        "range", "<range><end>10.0.0.9</end><begin>10.0.0.1</begin></range>"),
    "second-value-container": _address("exactMatch", EXACT).replace(VALUE, VALUE * 2),
    "element-beside-the-container": _address("exactMatch", EXACT).replace(
        VALUE, VALUE + "<note/>"),
    "exact-match-beside-a-state": (
        '<stateConditionCapability operator="exactMatch"><capabilityStateValue>'
        f"<state>NEW</state>{EXACT}</capabilityStateValue></stateConditionCapability>"),
    # a value or action element holding an element: its text alone is a
    # valid value, and the text after the child belongs to the child
    "element-inside-a-value": _address(
        "exactMatch", "<exactMatch>1.1.1.1<x>9</x>2.2.2.2</exactMatch>"),
    "element-inside-the-action": _policy_with(_address("exactMatch", EXACT)).replace(
        "<actionCapability>drop</actionCapability>",
        "<actionCapability>drop<y/>deny</actionCapability>"),
}


@pytest.mark.parametrize("case", sorted(UNREAD_ELEMENTS))
def test_parse_rejects_an_element_it_would_not_read(case):
    document = UNREAD_ELEMENTS[case]
    if not document.startswith("<policy"):
        document = _policy_with(document)
    with pytest.raises(DocumentSyntaxError):
        parse_mspl(document)


def test_parse_accepts_every_shape_the_converter_writes():
    artifacts = [
        _artifact(),
        _artifact(src="10.0.0.1-10.0.0.9", dst="1.1.1.1,2.2.2.2",
                  states="ESTABLISHED,RELATED"),
        WAF_ARTIFACT,
    ]
    for policy in build_mspl(artifacts).values():
        assert parse_mspl(serialize_mspl(policy)) == policy
