"""Symbolic flow verifier: replay a synthetic flow against deployed artifacts.

No packets are processed. A device blocks the flow when one of its rules, read
as the converter's conditions that the translator renders, admits the flow on
every condition: an address by exact value, union member or range; the HTTP
host only at a control that inspects the application layer; any connection
state. Each path is blocked at its first blocking device.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import topology as topo
from .capability import Catalog, CapabilityId, ControlSpec, LAYER_APPLICATION
from .converter import MatchOperator, MsplCondition, condition_of, ip_key
from .errors import ValidationError
from .refiner import RuleArtifact
from .topology import Path, Topology

logger = logging.getLogger(__name__)

OUTCOME_BLOCKED = "BLOCKED"
OUTCOME_ALLOWED = "ALLOWED"


@dataclass(frozen=True)
class FlowSpec:
    src_ip: str
    dst_ip: str
    l7_host: str | None = None

    def __post_init__(self):
        topo.require_ipv4(self.src_ip, "flow source")
        topo.require_ipv4(self.dst_ip, "flow destination")
        if self.src_ip == self.dst_ip:
            raise ValidationError("flow source and destination must differ")


@dataclass(frozen=True)
class PathVerdict:
    path: Path
    outcome: str
    device: str | None = None


def _admits(cond: MsplCondition, f: FlowSpec, control: ControlSpec | None) -> bool:
    if cond.capability == CapabilityId.HTTP_HOST:
        inspects = control is not None and control.layer == LAYER_APPLICATION
        return inspects and (f.l7_host or "").lower() == cond.values[0]
    if cond.capability == CapabilityId.STATE:
        return True
    ip = f.src_ip if cond.capability == CapabilityId.IP_SOURCE else f.dst_ip
    if cond.operator == MatchOperator.RANGE:
        return ip_key(cond.values[0]) <= ip_key(ip) <= ip_key(cond.values[1])
    return ip in cond.values


def evaluate_flow(
    t: Topology,
    artifacts: list[RuleArtifact],
    catalog: Catalog,
    f: FlowSpec,
    subject: str,
    obj: str,
) -> list[PathVerdict]:
    """Verdict per enumerated path: its first blocking device blocks the flow.

    Every detail of every artifact is parsed before any device is decided,
    so a malformed one raises whatever the flow, as it does in `convert`.
    """
    paths = topo.enumerate_paths(t, subject, obj)
    conditions = [list(map(condition_of, a.capabilities)) for a in artifacts]
    blocking: set[str] = set()
    for a, conds in zip(artifacts, conditions):
        control = catalog.controls.get(a.nsf)
        if a.device not in blocking and all(
            cond is None or _admits(cond, f, control) for cond in conds
        ):
            blocking.add(a.device)

    firsts = [next((n for n in p.intermediate if n in blocking), None) for p in paths]
    return [
        PathVerdict(p, OUTCOME_ALLOWED if d is None else OUTCOME_BLOCKED, d)
        for p, d in zip(paths, firsts)
    ]


def verify_deployment(
    t: Topology,
    artifacts: list[RuleArtifact],
    catalog: Catalog,
    f: FlowSpec,
    subject: str,
    obj: str,
) -> tuple[bool, list[str]]:
    """True iff the flow is blocked on every path; report lists bypasses."""
    verdicts = evaluate_flow(t, artifacts, catalog, f, subject, obj)
    if not verdicts:
        logger.warning("no paths between %s and %s; vacuously blocked", subject, obj)
        return True, [f"warning: no paths between {subject} and {obj}"]
    report = [
        f"BLOCKED path {list(v.path.intermediate)} at {v.device}"
        if v.outcome == OUTCOME_BLOCKED
        else f"ALLOWED (bypass) path {list(v.path.intermediate)}"
        for v in verdicts
    ]
    return all(v.outcome == OUTCOME_BLOCKED for v in verdicts), report
