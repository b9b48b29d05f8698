"""Aggregate rule artifacts into per-device MSPL policy documents.

Serialization is hand-rolled so the XML is byte-deterministic: fixed header,
two-space indentation, canonical condition order (source address, destination
address, state, host), a trailing action element, and XML-escaped values.
parse_mspl is the exact inverse, so serialize-parse-serialize is a fixpoint,
and it accepts only elements and conditions build_mspl could have written,
so it drops none. A rule carries each capability at most once and exactly
one action (check_capabilities).
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .capability import ACTION_CAPABILITIES, CapabilityId
from .errors import DocumentSyntaxError, InconsistentNsf, NormalizationError
from .refiner import CapabilityInstance, RuleArtifact
from .topology import ipv4_int, is_host_name

XML_HEADER = "<?xml version='1.0' encoding='utf-8'?>"

STATE_ORDER = ("NEW", "ESTABLISHED", "RELATED")

# Each condition capability's MSPL element and value container, in the
# canonical order of conditions within a rule.
CONDITION_ELEMENTS = {
    CapabilityId.IP_SOURCE: ("ipSourceAddressConditionCapability", "capabilityIpValue"),
    CapabilityId.IP_DESTINATION: (
        "ipDestinationAddressConditionCapability", "capabilityIpValue"),
    CapabilityId.STATE: ("stateConditionCapability", "capabilityStateValue"),
    CapabilityId.HTTP_HOST: ("httpHostHeaderConditionCapability", "capabilityStringValue"),
}
CAPABILITY_BY_ELEMENT = {e: c for c, (e, _) in CONDITION_ELEMENTS.items()}

ACTION_KEYWORDS = {CapabilityId.DROP: "drop", CapabilityId.DENY: "deny"}
CAPABILITY_BY_ACTION = {k: c for c, k in ACTION_KEYWORDS.items()}


class MatchOperator:
    """The MSPL match operators: plain strings, as documents carry them."""

    EXACT = "exactMatch"
    RANGE = "range"
    UNION = "union"


MATCH_OPERATORS = (MatchOperator.EXACT, MatchOperator.RANGE, MatchOperator.UNION)

# capability: a capability id; operator: a MatchOperator; values: a tuple of str
MsplCondition = namedtuple("MsplCondition", "capability operator values")

# conditions: a tuple of MsplCondition, in canonical order; action: a keyword
MsplRule = namedtuple("MsplRule", "id conditions action")

# rules: a tuple of MsplRule
MsplPolicy = namedtuple("MsplPolicy", "nsf_name rules")


# --- normalization ----------------------------------------------------------

def ip_key(value: str) -> int:
    key = ipv4_int(value)
    if key is None:
        raise NormalizationError(f"not an IPv4 address: {value!r}")
    return key


def _normalize_address(capability: CapabilityId, detail: str) -> MsplCondition:
    detail = detail.strip()
    if "," in detail:
        values = tuple(v.strip() for v in detail.split(","))
        for v in values:
            ip_key(v)
        return MsplCondition(capability, MatchOperator.UNION, values)
    if "-" in detail:
        begin, _, end = detail.partition("-")
        begin, end = begin.strip(), end.strip()
        if ip_key(begin) > ip_key(end):
            raise NormalizationError(f"descending address range {detail!r}")
        return MsplCondition(capability, MatchOperator.RANGE, (begin, end))
    ip_key(detail)
    return MsplCondition(capability, MatchOperator.EXACT, (detail,))


def _normalize_state(detail: str) -> MsplCondition:
    states = {s.strip().upper() for s in detail.split(",") if s.strip()}
    unknown = states - set(STATE_ORDER)
    if unknown or not states:
        raise NormalizationError(f"bad connection-state set {detail!r}")
    ordered = tuple(s for s in STATE_ORDER if s in states)
    return MsplCondition(CapabilityId.STATE, MatchOperator.EXACT, ordered)


def _normalize_host(detail: str) -> MsplCondition:
    host = detail.strip().lower()
    if not is_host_name(host):
        raise NormalizationError(f"not an RFC 1123 host name: {host!r}")
    return MsplCondition(CapabilityId.HTTP_HOST, MatchOperator.EXACT, (host,))


def condition_of(inst: CapabilityInstance) -> MsplCondition | None:
    """The normalized condition of one capability instance; None for an action."""
    if inst.capability in ACTION_CAPABILITIES:
        return None
    if inst.capability == CapabilityId.STATE:
        return _normalize_state(inst.detail)
    if inst.capability == CapabilityId.HTTP_HOST:
        return _normalize_host(inst.detail)
    return _normalize_address(inst.capability, inst.detail)


def check_capabilities(rule_id: str, carried: list[CapabilityId]) -> None:
    """NormalizationError unless a rule carries each capability at most once
    and exactly one action: the one reading of a rule that build_mspl and
    parse_mspl share."""
    actions = ACTION_CAPABILITIES.intersection(carried)
    if len(set(carried)) < len(carried) or len(actions) != 1:
        raise NormalizationError(
            f"rule {rule_id!r} must carry each capability at most once and "
            f"exactly one action, got {list(carried)}"
        )


def build_mspl(artifacts: list[RuleArtifact]) -> dict[str, MsplPolicy]:
    """One policy per device, artifact order preserved within each policy,
    each rule's conditions in canonical order.

    Raises InconsistentNsf at the first artifact whose device already has
    another control. Each distinct capabilities tuple is read once, and kept
    only after check_capabilities has passed and every detail has
    normalized; so an invalid tuple raises at the first artifact carrying
    it, naming that artifact's rule.
    """
    nsf_per_device: dict[str, str] = {}
    rules_per_device: dict[str, list[MsplRule]] = {}
    # capabilities tuple -> (conditions, action keyword)
    shapes: dict[tuple, tuple] = {}
    normalized = functools.cache(condition_of)
    for artifact in artifacts:
        known = nsf_per_device.setdefault(artifact.device, artifact.nsf)
        if known != artifact.nsf:
            raise InconsistentNsf(
                f"device {artifact.device!r} assigned both {known!r} and {artifact.nsf!r}"
            )
        shape = shapes.get(artifact.capabilities)
        if shape is None:
            carried = tuple(i.capability for i in artifact.capabilities)
            check_capabilities(artifact.hsplid, carried)
            conditions = {i.capability: normalized(i) for i in artifact.capabilities}
            [action] = ACTION_CAPABILITIES.intersection(carried)
            shape = shapes[artifact.capabilities] = (
                tuple(conditions[c] for c in CONDITION_ELEMENTS if c in conditions),
                ACTION_KEYWORDS[action],
            )
        rules_per_device.setdefault(artifact.device, []).append(
            MsplRule(artifact.hsplid, *shape)
        )
    return {
        device: MsplPolicy(nsf_name=nsf_per_device[device], rules=tuple(rules))
        for device, rules in rules_per_device.items()
    }


# --- serialization ----------------------------------------------------------

def _escape(value: str) -> str:
    """Escape the XML markup characters of text and attribute values, and
    tab, newline and carriage return, which a parser would read as a space
    in an attribute."""
    value = value.replace("&", "&amp;").replace("<", "&lt;")
    value = value.replace(">", "&gt;").replace('"', "&quot;")
    return value.replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;")


def _condition_element(cond: MsplCondition) -> str:
    """`cond`'s element as a rule holds it: indented, without a final newline."""
    name, container = CONDITION_ELEMENTS[cond.capability]
    lines = [f'    <{name} operator="{cond.operator}">', f"      <{container}>"]
    if cond.capability == CapabilityId.STATE:
        for value in cond.values:
            lines.append(f"        <state>{_escape(value)}</state>")
    elif cond.operator == MatchOperator.RANGE:
        lines.append("        <range>")
        lines.append(f"          <begin>{_escape(cond.values[0])}</begin>")
        lines.append(f"          <end>{_escape(cond.values[1])}</end>")
        lines.append("        </range>")
    else:
        for value in cond.values:
            lines.append(f"        <exactMatch>{_escape(value)}</exactMatch>")
    lines.append(f"      </{container}>")
    lines.append(f"    </{name}>")
    return "\n".join(lines)


def serialize_mspl(p: MsplPolicy) -> str:
    nsf_name = _escape(p.nsf_name)
    if not p.rules:
        return f'{XML_HEADER}\n<policy nsfName="{nsf_name}"/>\n'
    # Each distinct rule id, condition and action is written out once.
    opening = functools.cache(lambda rule_id: f'  <rule id="{_escape(rule_id)}">')
    elements = functools.cache(_condition_element)
    closing = functools.cache(
        lambda action: f"    <actionCapability>{_escape(action)}</actionCapability>\n  </rule>"
    )
    lines = [XML_HEADER, f'<policy nsfName="{nsf_name}">']
    for rule in p.rules:
        lines.append(opening(rule.id))
        lines.extend(map(elements, rule.conditions))
        lines.append(closing(rule.action))
    lines.append("</policy>")
    return "\n".join(lines) + "\n"


def _checked(cond: MsplCondition) -> MsplCondition:
    """`cond` if it is the condition build_mspl makes of its own values, as
    one capability detail; NormalizationError otherwise."""
    separator = "-" if cond.operator == MatchOperator.RANGE else ","
    detail = CapabilityInstance(cond.capability, separator.join(cond.values))
    if condition_of(detail) != cond:
        raise NormalizationError(
            f"non-canonical <{CONDITION_ELEMENTS[cond.capability][0]}> "
            f"{cond.operator} condition {list(cond.values)}"
        )
    return cond


def _tags(el) -> list[str]:
    return [child.tag for child in el]


def _text(el) -> str:
    """The stripped text of a value or action element, which holds no
    element: the text after a child would belong to the child."""
    if len(el):
        raise DocumentSyntaxError(f"<{el.tag}> holds <{el[0].tag}>, not only text")
    return (el.text or "").strip()


def parse_mspl(document: str) -> MsplPolicy:
    from xml.etree import ElementTree as ET

    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise DocumentSyntaxError(f"malformed MSPL document: {exc}")
    if root.tag != "policy" or "nsfName" not in root.attrib:
        raise DocumentSyntaxError("MSPL root must be <policy nsfName=...>")

    rules = []
    checked = functools.cache(_checked)  # each distinct condition is checked once
    for rule_el in root:
        if rule_el.tag != "rule":
            raise DocumentSyntaxError(f"<policy> holds <{rule_el.tag}>, not a <rule>")
        conditions = []
        actions = []
        for el in rule_el:
            if el.tag == "actionCapability":
                actions.append(_text(el))
                continue
            capability = CAPABILITY_BY_ELEMENT.get(el.tag)
            if capability is None:
                raise DocumentSyntaxError(f"unknown condition element <{el.tag}>")
            operator = el.get("operator", "")
            if operator not in MATCH_OPERATORS:
                raise DocumentSyntaxError(
                    f"unknown operator on <{el.tag}>: {el.get('operator')!r}"
                )
            container_tag = CONDITION_ELEMENTS[capability][1]
            if _tags(el) != [container_tag]:
                raise DocumentSyntaxError(f"<{el.tag}> must hold one <{container_tag}>")
            [container] = el
            if capability != CapabilityId.STATE and operator == MatchOperator.RANGE:
                if _tags(container) != ["range"] or _tags(container[0]) != ["begin", "end"]:
                    raise DocumentSyntaxError(
                        f"<{container_tag}> must hold one <range> of <begin> then <end>"
                    )
                [container] = container
            else:
                value_tag = "state" if capability == CapabilityId.STATE else "exactMatch"
                if set(_tags(container)) - {value_tag}:
                    raise DocumentSyntaxError(
                        f"<{container_tag}> may hold only <{value_tag}> elements"
                    )
            values = tuple(map(_text, container))
            conditions.append(checked(MsplCondition(capability, operator, values)))
        rule_id = rule_el.get("id", "")
        if not actions or not set(actions) <= CAPABILITY_BY_ACTION.keys():
            raise DocumentSyntaxError(f"rule {rule_id!r}: bad action {actions}")
        check_capabilities(
            rule_id,
            [c.capability for c in conditions] + [CAPABILITY_BY_ACTION[a] for a in actions],
        )
        rules.append(MsplRule(id=rule_id, conditions=tuple(conditions), action=actions[0]))
    return MsplPolicy(nsf_name=root.get("nsfName", ""), rules=tuple(rules))
