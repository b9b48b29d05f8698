"""Symbolic flow verifier: replay a synthetic flow against deployed artifacts.

No packets are processed. A device blocks the flow when one of its rules, read
as the converter's MSPL rule that the translator renders, admits the flow on
every condition: an address by exact value, union member or range; the HTTP
host only at a control that inspects the application layer; any connection
state. Each path is blocked at its first blocking device.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import topology as topo
from .capability import Catalog, CapabilityId, ControlSpec, LAYER_APPLICATION
from .converter import (
    MatchOperator, MsplCondition, check_capabilities, condition_of, ip_key)
from .errors import ValidationError
from .refiner import RuleArtifact
from .topology import Path, Topology

logger = logging.getLogger(__name__)


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
) -> list[tuple[Path, str | None]]:
    """Each enumerated path with its first blocking device, or None when the
    flow passes it.

    Every artifact passes the converter's checks before any device is
    decided, so a malformed one raises whatever the flow, as it does in
    `convert`.
    """
    paths = topo.enumerate_paths(t, subject, obj)
    conditions = []
    for a in artifacts:
        check_capabilities(a.hsplid, [i.capability for i in a.capabilities])
        conditions.append(list(map(condition_of, a.capabilities)))
    blocking: set[str] = set()
    for a, conds in zip(artifacts, conditions):
        control = catalog.get(a.nsf)
        if a.device not in blocking and all(
            cond is None or _admits(cond, f, control) for cond in conds
        ):
            blocking.add(a.device)
    return [
        (p, next((n for n in p.intermediate if n in blocking), None)) for p in paths
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
        f"ALLOWED (bypass) path {list(p.intermediate)}"
        if device is None
        else f"BLOCKED path {list(p.intermediate)} at {device}"
        for p, device in verdicts
    ]
    return all(device is not None for _, device in verdicts), report
