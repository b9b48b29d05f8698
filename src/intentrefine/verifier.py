"""Symbolic flow verifier: replay a synthetic flow against deployed artifacts.

No packets are processed. A device blocks the flow when one of its rules, read
as the converter's MSPL rule that the translator renders, admits the flow on
every condition: an address by exact value, union member or range; the HTTP
host only at a control that inspects the application layer; any connection
state. Each path is blocked at its first blocking device.
"""

from __future__ import annotations

import logging
from collections import namedtuple

from . import topology as topo
from .capability import Catalog, CapabilityId, ControlSpec, LAYER_APPLICATION
from .converter import MatchOperator, MsplCondition, Shapes, check_nsf, ip_key
from .errors import UnknownControl, ValidationError
from .refiner import RuleArtifact
from .topology import Path, Topology
from .translator import RENDERERS, check_rule

logger = logging.getLogger(__name__)


class FlowSpec(namedtuple("FlowSpec", "src_ip dst_ip l7_host")):
    """Two distinct IPv4 addresses, and an optional HTTP host."""

    __slots__ = ()

    def __new__(cls, src_ip, dst_ip, l7_host=None):
        topo.require_ipv4(src_ip, "flow source")
        topo.require_ipv4(dst_ip, "flow destination")
        if src_ip == dst_ip:
            raise ValidationError("flow source and destination must differ")
        return super().__new__(cls, src_ip, dst_ip, l7_host)


def _admits(cond: MsplCondition, f: FlowSpec, control: ControlSpec) -> bool:
    if cond.capability == CapabilityId.HTTP_HOST:
        inspects = control.layer == LAYER_APPLICATION
        return inspects and (f.l7_host or "").lower() == cond.values[0]
    if cond.capability == CapabilityId.STATE:
        return True
    ip = f.src_ip if cond.capability == CapabilityId.IP_SOURCE else f.dst_ip
    if cond.operator == MatchOperator.RANGE:
        return ip_key(cond.values[0]) <= ip_key(ip) <= ip_key(cond.values[1])
    return ip in cond.values


def _check_deployable(
    t: Topology,
    catalog: Catalog,
    nsf_per_device: dict[str, str],
    a: RuleArtifact,
    shape: tuple,
) -> None:
    """What `convert` and `translate` check of an artifact of `shape` (as
    converter.Shapes reads it), and that its device is a topology device
    listing its control."""
    check_nsf(nsf_per_device, a)
    if a.nsf not in catalog or a.nsf not in RENDERERS:
        raise UnknownControl(
            f"rule {a.hsplid!r} on {a.device!r}: control {a.nsf!r} is not in "
            f"the catalog or has no renderer"
        )
    carried, conditions, action = shape
    # named in the error in the artifact's order
    by_capability = {c.capability: c for c in conditions}
    check_rule(a.nsf, a.hsplid, [by_capability[c] for c in carried if c in by_capability],
               action)
    node = t.nodes.get(a.device)
    if node is None or a.nsf not in node.controls:
        raise ValidationError(
            f"rule {a.hsplid!r}: {a.device!r} is not a device of topology "
            f"{t.name!r} listing control {a.nsf!r}"
        )


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

    Every artifact passes the checks `convert` and `translate` make of it
    before any device is decided, and its device must be a topology device
    listing its control; so a deployment that no stage could render raises
    whatever the flow. Each distinct (device, control, capabilities) is
    checked and decided once.
    """
    paths = topo.enumerate_paths(t, subject, obj)
    nsf_per_device: dict[str, str] = {}
    # (device, control, carried capability ids) of each artifact
    # _check_deployable passed, which decide its outcome for any later one
    deployable: set[tuple] = set()
    shapes = Shapes()
    # (device, control, capabilities) of each artifact that passed every
    # check -> its conditions; in artifact order
    rules: dict[tuple, tuple[MsplCondition, ...]] = {}
    for a in artifacts:
        rule = a.device, a.nsf, a.capabilities
        if rule in rules:
            continue
        shape = shapes.of(a.hsplid, a.capabilities)
        carried, conditions, _ = shape
        if (a.device, a.nsf, carried) not in deployable:
            _check_deployable(t, catalog, nsf_per_device, a, shape)
            deployable.add((a.device, a.nsf, carried))
        rules[rule] = conditions
    blocking: set[str] = set()
    for (device, nsf, _), conditions in rules.items():
        control = catalog[nsf]
        if device not in blocking and all(_admits(c, f, control) for c in conditions):
            blocking.add(device)
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
    # each path as `repr(list(p.intermediate))` shows it, from node reprs
    # computed once
    shown = {n: repr(n) for n in t.nodes}
    report = []
    for p, device in verdicts:
        route = f"[{', '.join(map(shown.__getitem__, p.intermediate))}]"
        report.append(
            f"ALLOWED (bypass) path {route}" if device is None
            else f"BLOCKED path {route} at {device}"
        )
    return all(device is not None for _, device in verdicts), report
