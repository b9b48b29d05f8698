
import itertools
import re

import pytest
from hypothesis import given, strategies as st

from intentrefine import translator
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
from intentrefine.refiner import CapabilityInstance, RuleArtifact
from intentrefine.errors import UnknownControl, UnsupportedCapability
from intentrefine.translator import check_renderer_totality, translate_policy

LISTING_FORWARD = (
    "iptables -A FORWARD -m conntrack --ctstate NEW,ESTABLISHED "
    "-s 80.71.158.96 -d 172.19.0.3 -j DROP"
)
LISTING_REVERSE = (
    "iptables -A FORWARD -m conntrack --ctstate ESTABLISHED,RELATED "
    "-s 172.19.0.3 -d 80.71.158.96 -j DROP"
)


def _ip_rule(src="80.71.158.96", dst="172.19.0.3", states=("NEW", "ESTABLISHED"),
             src_op=MatchOperator.EXACT, dst_op=MatchOperator.EXACT):
    conditions = [
        MsplCondition(CapabilityId.IP_SOURCE, src_op, src if isinstance(src, tuple) else (src,)),
        MsplCondition(CapabilityId.IP_DESTINATION, dst_op, dst if isinstance(dst, tuple) else (dst,)),
    ]
    if states:
        conditions.append(
            MsplCondition(CapabilityId.STATE, MatchOperator.EXACT, states)
        )
    return MsplRule(id="hspl1", conditions=tuple(conditions), action="drop")


def render(nsf_name, rule, rule_number=1):
    """One rule, the `rule_number`-th of its policy, as translate_policy
    renders it for control `nsf_name`: the per-rule oracle."""
    _, _, text, number, _ = translator.RENDERERS[nsf_name]
    return text(rule.conditions) + number.format(rule_number)


def _host_rule(host="hadleyshope.3utilities.com"):
    return MsplRule(
        id="hspl2",
        conditions=(
            MsplCondition(CapabilityId.HTTP_HOST, MatchOperator.EXACT, (host,)),
        ),
        action="deny",
    )


def test_iptables_forward_matches_expected_bytes():
    assert render("IpTables", _ip_rule()) == LISTING_FORWARD


def test_iptables_reverse_matches_expected_bytes():
    rule = _ip_rule(src="172.19.0.3", dst="80.71.158.96",
                    states=("ESTABLISHED", "RELATED"))
    assert render("IpTables", rule) == LISTING_REVERSE


def test_iptables_stateless_omits_conntrack():
    text = render("IpTables", _ip_rule(states=None))
    assert text == "iptables -A FORWARD -s 80.71.158.96 -d 172.19.0.3 -j DROP"


def test_iptables_range_uses_iprange():
    rule = _ip_rule(src=("10.0.0.1", "10.0.0.9"), src_op=MatchOperator.RANGE,
                    states=None)
    text = render("IpTables", rule)
    assert "-m iprange --src-range 10.0.0.1-10.0.0.9" in text
    assert "-s " not in text


def test_iptables_rejects_host_condition():
    rule = _host_rule()._replace(action="drop")
    with pytest.raises(UnsupportedCapability):
        translate_policy(MsplPolicy(nsf_name="IpTables", rules=(rule,)))


def test_modsecurity_matches_expected_bytes():
    assert render("ModSecurity", _host_rule(), 1) == (
        'SecRule REQUEST_HEADERS:Host "@rx ^hadleyshope\\.3utilities\\.com$" \\\n'
        '  "deny, id:1"'
    )


def test_modsecurity_id_and_escaping():
    rule = render("ModSecurity", _host_rule(host="a.b"), 7)
    assert rule == 'SecRule REQUEST_HEADERS:Host "@rx ^a\\.b$" \\\n  "deny, id:7"'


def test_modsecurity_escapes_all_metacharacters():
    escaped = translator.escape_modsecurity_regex(r"a.b\c+d*e?f(g)h[i]j{k}l|m^n$o")
    assert escaped == r"a\.b\\c\+d\*e\?f\(g\)h\[i\]j\{k\}l\|m\^n\$o"


# RFC 1123 host names: dot-separated labels of letters, digits and inner hyphens
host_labels = st.from_regex(r"[a-z0-9](?:[a-z0-9-]{0,8}[a-z0-9])?", fullmatch=True)
host_names = st.lists(host_labels, min_size=1, max_size=4).map(".".join)


@given(host=host_names)
def test_modsecurity_operand_is_anchored_literals_and_escaped_dots(host):
    """The `@rx` operand holds only literals and `\\.` between `^` and `$`,
    which Python's `re` and PCRE read alike. So it matches the one host it is
    built from, which is how the renderer's match test reads it."""
    [text] = translate_policy(MsplPolicy("ModSecurity", (_host_rule(host),)))
    operand = re.fullmatch(r'SecRule REQUEST_HEADERS:Host "@rx (.*)" \\\n  "deny, id:1"',
                           text).group(1)
    assert re.fullmatch(r"\^(?:[a-z0-9-]|\\\.)+\$", operand), operand


def test_modsecurity_rejects_address_conditions():
    rule = _ip_rule()._replace(action="deny")
    with pytest.raises(UnsupportedCapability):
        translate_policy(MsplPolicy(nsf_name="ModSecurity", rules=(rule,)))


@pytest.mark.parametrize("nsf_name, rule", [
    ("ModSecurity", MsplRule(id="h", conditions=(), action="deny")),
    ("IpTables", _ip_rule()._replace(action="deny")),
    ("IpTables", _ip_rule()._replace(action="accept")),
], ids=["modsecurity-without-host", "iptables-deny", "unknown-action"])
def test_rule_outside_its_renderer_table_is_rejected(nsf_name, rule):
    with pytest.raises(UnsupportedCapability):
        translate_policy(MsplPolicy(nsf_name=nsf_name, rules=(rule,)))


def test_each_rule_shape_is_checked_with_its_action():
    rules = (_ip_rule(), _ip_rule()._replace(id="later", action="deny"))
    with pytest.raises(UnsupportedCapability, match="rule 'later'"):
        translate_policy(MsplPolicy(nsf_name="IpTables", rules=rules))


def test_translate_policy_empty():
    assert translate_policy(MsplPolicy(nsf_name="IpTables", rules=())) == []


def test_translate_unknown_control():
    with pytest.raises(UnknownControl):
        translate_policy(MsplPolicy(nsf_name="Teleporter", rules=()))


def test_union_expands_to_one_line_per_member():
    rule = _ip_rule(src=("1.1.1.1", "2.2.2.2"), src_op=MatchOperator.UNION,
                    states=None)
    lines = translate_policy(MsplPolicy(nsf_name="IpTables", rules=(rule,)))
    assert lines == [
        "iptables -A FORWARD -s 1.1.1.1 -d 172.19.0.3 -j DROP",
        "iptables -A FORWARD -s 2.2.2.2 -d 172.19.0.3 -j DROP",
    ]


def test_modsecurity_ids_sequential_per_policy():
    policy = MsplPolicy(
        nsf_name="ModSecurity", rules=(_host_rule("a.example.com"), _host_rule("b.example.com"))
    )
    texts = translate_policy(policy)
    assert '"deny, id:1"' in texts[0]
    assert '"deny, id:2"' in texts[1]


def test_translation_deterministic():
    policy = MsplPolicy(nsf_name="IpTables", rules=(_ip_rule(),))
    assert translate_policy(policy) == translate_policy(policy)


def test_faithfulness_every_detail_appears():
    policy = MsplPolicy(
        nsf_name="IpTables",
        rules=(_ip_rule(), _ip_rule(src="172.19.0.3", dst="80.71.158.96",
                                    states=("ESTABLISHED", "RELATED"))),
    )
    for rule, rendered in zip(policy.rules, translate_policy(policy)):
        for cond in rule.conditions:
            for value in cond.values:
                assert value in rendered or value in rendered.replace(
                    ",", " "
                )


def test_totality_check_accepts_default_catalog(catalog):
    check_renderer_totality(catalog)


def test_totality_check_flags_unrenderable_capability():
    from intentrefine import capability

    bad = capability.load_catalog(
        '{"ModSecurity": {"layer": "application", "capabilities": ['
        '"HttpHostHeaderConditionCapability", "DenyActionCapability",'
        '"DropActionCapability"]}}'
    )
    with pytest.raises(UnsupportedCapability):
        check_renderer_totality(bad)


# --- repeated rule shapes ---------------------------------------------------

addresses = st.integers(0, 5).map(lambda i: f"10.0.0.{i}")
address_details = st.one_of(
    addresses,
    st.lists(st.integers(0, 5), min_size=2, max_size=2).map(
        lambda ends: "10.0.0.{}-10.0.0.{}".format(*sorted(ends))),
    st.lists(addresses, min_size=2, max_size=3, unique=True).map(",".join),
)


@st.composite
def address_capabilities(draw):
    instances = [CapabilityInstance(c, draw(address_details))
                 for c in (CapabilityId.IP_SOURCE, CapabilityId.IP_DESTINATION)
                 if draw(st.booleans())]
    if draw(st.booleans()):
        instances.append(CapabilityInstance(CapabilityId.STATE, "NEW,ESTABLISHED"))
    return tuple(instances) + (CapabilityInstance(CapabilityId.DROP, "drop"),)


host_capabilities = st.sampled_from(["a.example.com", "b-c.example.org", "x.y"]).map(
    lambda host: (CapabilityInstance(CapabilityId.HTTP_HOST, host),
                  CapabilityInstance(CapabilityId.DENY, "deny")))


@st.composite
def repeated_shape_policies(draw):
    """The policies of an IpTables and a ModSecurity device whose rules draw
    their ids and capabilities from small pools, so that both repeat."""
    ids = draw(st.lists(st.sampled_from(["h1", "h2", "h3"]), min_size=1, max_size=3))
    artifacts = []
    for device, nsf, capabilities in (("FW", "IpTables", address_capabilities()),
                                      ("WAF", "ModSecurity", host_capabilities)):
        pool = draw(st.lists(capabilities, min_size=1, max_size=3))
        artifacts += [RuleArtifact(draw(st.sampled_from(ids)), device, nsf,
                                   draw(st.sampled_from(pool)))
                      for _ in range(draw(st.integers(1, 8)))]
    return list(build_mspl(draw(st.permutations(artifacts))).values())


def _expanded(rules):
    """One rule per member combination of each rule's union conditions."""
    for rule in rules:
        alternatives = [
            [c._replace(operator=MatchOperator.EXACT, values=(v,)) for v in c.values]
            if c.operator == MatchOperator.UNION else [c]
            for c in rule.conditions
        ]
        for combo in itertools.product(*alternatives):
            yield rule._replace(conditions=combo)


@given(policies=repeated_shape_policies())
def test_translation_equals_the_per_rule_renderers(policies):
    for policy in policies:
        assert translate_policy(policy) == [
            render(policy.nsf_name, rule, n)
            for n, rule in enumerate(_expanded(policy.rules), start=1)
        ]
        assert parse_mspl(serialize_mspl(policy)) == policy
