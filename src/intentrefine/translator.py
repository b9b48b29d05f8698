"""Render MSPL policies into each control's native configuration language.

Renderers are registered per control name in RENDERERS; translation is a pure
function of the policy, so equal input yields byte-equal output. Union
conditions expand to one rendered rule per value combination before rendering.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Sequence

from .capability import Catalog, CapabilityId
from .converter import (
    CAPABILITY_BY_ACTION, MatchOperator, MsplCondition, MsplPolicy, MsplRule)
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


def escape_modsecurity_regex(host: str) -> str:
    return MODSEC_ESCAPE_RE.sub(lambda m: "\\" + m.group(0), host)


def _modsecurity_text(conditions: Sequence[MsplCondition]) -> str:
    """Anchored host-header SecRule, up to its id."""
    escaped = escape_modsecurity_regex(conditions[0].values[0])
    return f'SecRule REQUEST_HEADERS:Host "@rx ^{escaped}$" \\\n  "deny, id:'


# Per control: the capabilities every rule must carry (its action included),
# those a rule may carry besides, the rule's text as far as its conditions
# decide it, and the format of the text that follows, given the rule's 1-based
# number in the policy. iptables rules carry no id; ModSecurity ids are
# numbered per policy file.
RENDERERS = {
    "IpTables": ({CapabilityId.DROP},
                 {CapabilityId.IP_SOURCE, CapabilityId.IP_DESTINATION, CapabilityId.STATE},
                 _iptables_text, ""),
    "ModSecurity": ({CapabilityId.HTTP_HOST, CapabilityId.DENY}, set(),
                    _modsecurity_text, '{}"'),
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
    _, _, text, number = RENDERERS[p.nsf_name]
    # each shape's expanded rules, as far as their conditions decide them
    texts = {
        shape: [text(e.conditions) for e in _expand_unions(rule)]
        for shape, rule in shapes.items()
    }
    unnumbered = (t for rule in p.rules for t in texts[rule.conditions, rule.action])
    return [t + number.format(n) for n, t in enumerate(unnumbered, start=1)]


def rules_file_content(rules: list[str]) -> str:
    return "".join(rule + "\n" for rule in rules)
