"""Render MSPL policies into each control's native configuration language,
and say which flows each rendered rule matches.

Renderers are registered per control name in RENDERERS; translation is a pure
function of the policy, so equal input yields byte-equal output. Union
conditions expand to one rendered rule per value combination before rendering.
Each renderer's match test reads a rule from the same values its text is
written from, so a rule matches a flow as the rendered rule reads it
(rule_matches); `verify` asks nothing else.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Sequence

from .capability import Catalog, CapabilityId
from .converter import (
    CAPABILITY_BY_ACTION, MatchOperator, MsplCondition, MsplPolicy, MsplRule, ip_key)
from .errors import UnknownControl, UnsupportedCapability

MODSEC_ESCAPE_RE = re.compile(r"[.\\+*?()\[\]{}|^$]")


def _expand_unions(rule: MsplRule) -> tuple[MsplRule, ...]:
    """One rule per member combination of the union conditions; the rule
    itself when it has none."""
    if all(cond.operator != MatchOperator.UNION for cond in rule.conditions):
        return (rule,)
    alternatives = []
    for cond in rule.conditions:
        if cond.operator == MatchOperator.UNION:
            alternatives.append(
                [
                    MsplCondition(cond.capability, MatchOperator.EXACT, (value,))
                    for value in cond.values
                ]
            )
        else:
            alternatives.append([cond])
    return tuple(
        MsplRule(id=rule.id, conditions=tuple(combo), action=rule.action)
        for combo in itertools.product(*alternatives)
    )


def _address_flags(cond: MsplCondition, exact_flag: str, range_flag: str) -> list[str]:
    if cond.operator == MatchOperator.RANGE:
        return ["-m", "iprange", range_flag, f"{cond.values[0]}-{cond.values[1]}"]
    return [exact_flag, cond.values[0]]


def _address_matches(cond: MsplCondition | None, ip: str) -> bool:
    """Whether `ip` matches the flags _address_flags writes of `cond`: its
    exact address, or its range, inclusive; any address when it is absent."""
    if cond is None:
        return True
    if cond.operator == MatchOperator.RANGE:
        return ip_key(cond.values[0]) <= ip_key(ip) <= ip_key(cond.values[1])
    return ip == cond.values[0]


def _iptables_text(conditions: Sequence[MsplCondition]) -> str:
    """Single iptables command on the FORWARD chain, fixed flag order:
    conntrack state, source, destination, jump target."""
    by_capability = {c.capability: c for c in conditions}
    parts = ["iptables", "-A", "FORWARD"]
    state = by_capability.get(CapabilityId.STATE)
    if state is not None:
        parts += ["-m", "conntrack", "--ctstate", ",".join(state.values)]
    src = by_capability.get(CapabilityId.IP_SOURCE)
    if src is not None:
        parts += _address_flags(src, "-s", "--src-range")
    dst = by_capability.get(CapabilityId.IP_DESTINATION)
    if dst is not None:
        parts += _address_flags(dst, "-d", "--dst-range")
    parts += ["-j", "DROP"]
    return " ".join(parts)


def _iptables_matches(conditions: Sequence[MsplCondition], src_ip: str, dst_ip: str,
                      host: str | None) -> bool:
    """Whether the command _iptables_text writes matches a flow from `src_ip`
    to `dst_ip`. A flow carries no connection state, so `--ctstate` matches
    any flow."""
    by_capability = {c.capability: c for c in conditions}
    return (_address_matches(by_capability.get(CapabilityId.IP_SOURCE), src_ip)
            and _address_matches(by_capability.get(CapabilityId.IP_DESTINATION), dst_ip))


def escape_modsecurity_regex(host: str) -> str:
    return MODSEC_ESCAPE_RE.sub(lambda m: "\\" + m.group(0), host)


def _host_operand(host: str) -> str:
    """The `@rx` operand that matches Host `host`: fully escaped, anchored."""
    return f"^{escape_modsecurity_regex(host)}$"


def _modsecurity_text(conditions: Sequence[MsplCondition]) -> str:
    """Anchored host-header SecRule, up to its id."""
    operand = _host_operand(conditions[0].values[0])
    return f'SecRule REQUEST_HEADERS:Host "@rx {operand}" \\\n  "deny, id:'


def _modsecurity_matches(conditions: Sequence[MsplCondition], src_ip: str, dst_ip: str,
                         host: str | None) -> bool:
    """Whether the SecRule _modsecurity_text writes matches a request with
    Host `host` (None for none). Between its anchors the operand holds only
    literals and escapes, so, with `$` read as the end of the header, it
    matches the one host it is built from, case-sensitively: the host whose
    operand equals it, since the escaping is one-to-one."""
    return host is not None and _host_operand(host) == _host_operand(conditions[0].values[0])


# Per control: the capabilities every rule must carry (its action included),
# those a rule may carry besides, the rule's text as far as its conditions
# decide it, the format of the text that follows, given the rule's 1-based
# number in the policy, and the rule's match test: whether the rule with these
# conditions matches a flow from a source to a destination address, with an
# HTTP host or None. iptables rules carry no id; ModSecurity ids are numbered
# per policy file.
RENDERERS = {
    "IpTables": ({CapabilityId.DROP},
                 {CapabilityId.IP_SOURCE, CapabilityId.IP_DESTINATION, CapabilityId.STATE},
                 _iptables_text, "", _iptables_matches),
    "ModSecurity": ({CapabilityId.HTTP_HOST, CapabilityId.DENY}, set(),
                    _modsecurity_text, '{}"', _modsecurity_matches),
}


def check_renderer_totality(catalog: Catalog) -> None:
    """Every capability a renderable control declares must have a mapping.

    A declared-but-unrenderable capability is a configuration error caught at
    startup rather than during translation.
    """
    for name, spec in catalog.items():
        if name not in RENDERERS:
            continue
        required, optional = RENDERERS[name][:2]
        missing = spec.capabilities - required - optional
        if missing:
            raise UnsupportedCapability(
                f"control {name!r} declares capabilities its renderer cannot "
                f"map: {sorted(missing)}"
            )


def check_rule(
    nsf_name: str, rule_id: str, conditions: Sequence[MsplCondition], action: str
) -> None:
    """UnsupportedCapability unless control `nsf_name`'s renderer can map a
    rule with `conditions` and action keyword `action`: the rule carries every
    capability the renderer requires and none it cannot render. `nsf_name`
    must have a renderer."""
    required, optional = RENDERERS[nsf_name][:2]
    carried = {c.capability for c in conditions}
    carried.add(CAPABILITY_BY_ACTION.get(action))
    if not required <= carried or carried - required - optional:
        raise UnsupportedCapability(
            f"{nsf_name} renderer cannot map rule {rule_id!r}: conditions "
            f"{[c.capability for c in conditions]}, action {action!r}"
        )


def check_policy(p: MsplPolicy) -> dict[tuple, MsplRule]:
    """Each distinct (conditions, action) of the policy -> its first rule,
    in rule order.

    Raises UnknownControl when the policy's control has no renderer, and
    UnsupportedCapability at the first rule outside its renderer's table
    (see check_rule). Its verdict, and its message but for the rule id,
    depend only on the rule's kind: its condition capabilities and its
    action. So each distinct kind is checked once, at its first rule."""
    if p.nsf_name not in RENDERERS:
        raise UnknownControl(f"no renderer registered for control {p.nsf_name!r}")
    shapes: dict[tuple, MsplRule] = {}
    kinds = set()
    for rule in p.rules:
        shape = rule.conditions, rule.action
        if shape in shapes:
            continue
        kind = tuple(c.capability for c in rule.conditions), rule.action
        if kind not in kinds:
            check_rule(p.nsf_name, rule.id, rule.conditions, rule.action)
            kinds.add(kind)
        shapes[shape] = rule
    return shapes


def translate_policy(p: MsplPolicy) -> list[str]:
    """Deterministically render a policy, one rule per expanded combination.

    Raises what check_policy raises. Each distinct (conditions, action) of
    the policy is expanded and rendered once."""
    shapes = check_policy(p)
    text, number = RENDERERS[p.nsf_name][2:4]
    # each shape's expanded rules, as far as their conditions decide them
    texts = {
        shape: [text(e.conditions) for e in _expand_unions(rule)]
        for shape, rule in shapes.items()
    }
    unnumbered = (t for rule in p.rules for t in texts[rule.conditions, rule.action])
    return [t + number.format(n) for n, t in enumerate(unnumbered, start=1)]


def rule_matches(nsf_name: str, rule: MsplRule, src_ip: str, dst_ip: str,
                 host: str | None) -> bool:
    """Whether any rule that translate_policy renders of `rule` for control
    `nsf_name` matches a flow from `src_ip` to `dst_ip` with HTTP host `host`
    (None for none), as the control's match test reads it. `rule` must be
    one check_policy accepts."""
    matches = RENDERERS[nsf_name][4]
    return any(matches(e.conditions, src_ip, dst_ip, host) for e in _expand_unions(rule))


def rules_file_content(rules: list[str]) -> str:
    return "".join(rule + "\n" for rule in rules)
