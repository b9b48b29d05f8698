"""Core allocator: bind intents to topology facts, place enforcement devices,
emit rule artifacts, and maintain the reuse knowledge base.

Enforcement placement picks the fewest devices that hit every path between
an intent's endpoints: a minimum subject-object vertex cut in which only
capable devices may be cut, found by max-flow (see select_enforcement_set).
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
from collections import deque
from dataclasses import dataclass, field
from xml.etree import ElementTree as ET

from . import capability as cap
from . import topology as topo
from .capability import Catalog, CapabilityId, RequiredSet, control_satisfies
from .errors import (
    CorruptKnowledgeBase,
    DocumentSyntaxError,
    NoDerivableRequirement,
    NothingToEnforce,
    PersistError,
    Unenforceable,
    UnsupportedAction,
    ValidationError,
)
from .factbase import Fact, Knowledge
from .topology import Path, Topology

logger = logging.getLogger(__name__)

ACTION_DENY_ACCESS = "deny-access"
ACTION_SURFACE = "is not authorized to access"

STATES_FORWARD = "NEW,ESTABLISHED"
STATES_REVERSE = "ESTABLISHED,RELATED"

DIRECTION_FORWARD = "forward"
DIRECTION_REVERSE = "reverse"


@dataclass(frozen=True)
class HsplPolicy:
    id: str
    subject: str
    action: str
    object: str


@dataclass(frozen=True)
class CapabilityInstance:
    capability: CapabilityId
    detail: str


@dataclass(frozen=True)
class RuleArtifact:
    hsplid: str
    device: str
    nsf: str
    capabilities: tuple[CapabilityInstance, ...]

    def detail_of(self, capability: CapabilityId) -> str | None:
        for inst in self.capabilities:
            if inst.capability == capability:
                return inst.detail
        return None


@dataclass(frozen=True)
class ConditionBinding:
    """Concrete values for one rule of a requirement."""

    direction: str | None = None
    src_ip: str | None = None
    dst_ip: str | None = None
    host: str | None = None


@dataclass
class KnowledgeBase:
    topology_hash: str
    intents: dict[str, HsplPolicy] = field(default_factory=dict)
    paths: dict[str, list[Path]] = field(default_factory=dict)
    device_inventory: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass
class ReuseReport:
    """Which parts of a run came from the knowledge base."""

    hits: list[str] = field(default_factory=list)
    misses: list[str] = field(default_factory=list)
    inventory_reused: bool = False


# --- HSPL parsing -----------------------------------------------------------

def parse_hspl(document: str) -> list[HsplPolicy]:
    """Parse `<hspl id=...>` elements, in document order."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError:
        try:
            root = ET.fromstring(f"<hspls>{document}</hspls>")
        except ET.ParseError as exc:
            raise DocumentSyntaxError(f"malformed HSPL document: {exc}")

    elements = [root] if root.tag == "hspl" else list(root.iter("hspl"))
    if not elements:
        raise DocumentSyntaxError("no <hspl> elements found")

    policies = []
    seen_ids = set()
    for el in elements:
        hspl_id = el.get("id", "").strip()
        subject = (el.findtext("subject") or "").strip()
        action = (el.findtext("action") or "").strip()
        obj = (el.findtext("object") or "").strip()
        if not hspl_id or not subject or not obj:
            raise DocumentSyntaxError("hspl element missing id, subject, or object")
        if hspl_id in seen_ids:
            raise ValidationError(f"duplicate hspl id {hspl_id!r}")
        seen_ids.add(hspl_id)
        if subject == obj:
            raise ValidationError(f"hspl {hspl_id!r}: subject equals object")
        if action != ACTION_SURFACE:
            raise UnsupportedAction(f"hspl {hspl_id!r}: unsupported action {action!r}")
        policies.append(
            HsplPolicy(id=hspl_id, subject=subject, action=ACTION_DENY_ACCESS, object=obj)
        )
    return policies


# --- intent binding ---------------------------------------------------------

def bind_intent(
    t: Topology, intent: HsplPolicy, k: Knowledge
) -> list[tuple[Fact, RequiredSet, list[ConditionBinding]]]:
    """Match knowledge facts to the intent's endpoints and produce concrete
    condition bindings for each implied requirement.

    A fact is relevant when one of its IP values equals the subject's or
    object's address, or a url value is among the object's served domains.
    """
    subject = topo.resolve_endpoint(t, intent.subject)
    obj = topo.resolve_endpoint(t, intent.object)

    results: list[tuple[Fact, RequiredSet, list[ConditionBinding]]] = []
    for fact in k.facts:
        try:
            required_sets = cap.derive_required(fact)
        except NoDerivableRequirement:
            logger.warning("skipping fact with no derivable requirement: %s", fact)
            continue
        for rset in required_sets:
            if rset.layer == cap.LAYER_NETWORK:
                ips = {v for name, v in fact.bindings if name.endswith("ip-address")}
                endpoint_ips = {subject.ip, obj.ip} - {None}
                if not (ips & endpoint_ips):
                    logger.debug(
                        "intent %s: fact IPs %s match no endpoint; skipped",
                        intent.id, sorted(ips),
                    )
                    continue
                for e in (subject, obj):
                    if e.ip is None:
                        raise ValidationError(
                            f"intent {intent.id!r}: endpoint {e.id!r} has no ip address"
                        )
                bindings = [
                    ConditionBinding(
                        direction=DIRECTION_FORWARD, src_ip=subject.ip, dst_ip=obj.ip
                    ),
                    ConditionBinding(
                        direction=DIRECTION_REVERSE, src_ip=obj.ip, dst_ip=subject.ip
                    ),
                ]
            else:
                host = fact.get("url")
                if host is None or host.lower() not in obj.domains:
                    logger.debug(
                        "intent %s: url fact %r not served by %s; skipped",
                        intent.id, host, obj.id,
                    )
                    continue
                bindings = [ConditionBinding(host=host.lower())]
            results.append((fact, rset, bindings))

    if not results:
        raise NothingToEnforce(
            f"intent {intent.id!r}: no knowledge fact is relevant to "
            f"{intent.subject!r}/{intent.object!r}"
        )
    return results


# --- enforcement placement --------------------------------------------------

def _satisfying_controls(t: Topology, device: str, catalog: Catalog, r: RequiredSet):
    return sorted(
        name
        for name in t.nodes[device].controls
        if name in catalog.controls
        and control_satisfies(catalog.controls[name], r)
    )


_ENDS = ""  # not a valid node id
_IN, _OUT = 0, 1


def _residual_tree(residual, start):
    """Breadth-first tree of the vertices reachable from `start` through arcs
    with residual capacity, as a child -> parent map."""
    parent = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v, capacity in residual[u].items():
            if capacity and v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def _push_unit(residual, parent, end):
    """Send one unit of flow along the tree path from its root to `end`."""
    v = end
    while (u := parent[v]) is not None:
        residual[u][v] -= 1
        residual[v][u] += 1
        v = u


def select_enforcement_set(
    paths: list[Path],
    t: Topology,
    catalog: Catalog,
    r: RequiredSet,
) -> tuple[set[str], dict[str, str]]:
    """Minimum set of devices covering every path with a satisfying control.

    `paths` must be every simple path between two endpoints (as from
    `enumerate_paths`). Capability belongs to the device, not the path, so
    the simple source-sink paths of the graph the paths form are exactly
    `paths`, and a minimum cover is a minimum vertex cut of that graph in
    which only capable devices may be cut (Menger). The cut is found by
    max-flow: every node is split into an in- and an out-vertex, joined by an
    arc of capacity 1 for a capable device and unbounded otherwise.

    Ties break lexicographically on the sorted device-id tuple: candidates
    are taken in sorted order, and each is kept only if removing it, together
    with the devices already kept, lowers the cut by exactly one. Raises
    Unenforceable (carrying the offending path) for the first path that has
    no capable device.
    """
    if not paths:
        raise ValidationError("select_enforcement_set requires at least one path")

    nodes = set().union(*(p.intermediate for p in paths))
    controls = {
        n: _satisfying_controls(t, n, catalog, r)
        for n in nodes
        if t.nodes[n].kind == topo.DEVICE
    }
    capable = {n for n, names in controls.items() if names}

    steps: set[tuple[str, str]] = set()
    for path in paths:
        if capable.isdisjoint(path.intermediate):
            raise Unenforceable(
                f"path {list(path.intermediate)} has no device with a "
                f"satisfying {r.layer}-layer control",
                path=path,
            )
        seq = (_ENDS, *path.intermediate, _ENDS)
        steps.update(zip(seq, seq[1:]))

    # Arc (n, _IN) -> (n, _OUT) is node n; _ENDS is the subject on the out
    # side (the source) and the object on the in side (the sink).
    residual: dict[tuple[str, int], dict[tuple[str, int], float]] = {}

    def arc(u, v, capacity):
        residual.setdefault(u, {})[v] = capacity
        residual.setdefault(v, {}).setdefault(u, 0)

    for a, b in steps:
        arc((a, _OUT), (b, _IN), math.inf)
    for n in nodes:
        arc((n, _IN), (n, _OUT), 1 if n in capable else math.inf)

    source, sink = (_ENDS, _OUT), (_ENDS, _IN)
    while sink in (tree := _residual_tree(residual, source)):
        _push_unit(residual, tree, sink)

    selected: set[str] = set()
    for d in sorted(capable):
        u, w = (d, _IN), (d, _OUT)
        # d lies in some minimum cut iff no residual path leads from its in-
        # to its out-vertex (Picard & Queyranne 1980); an unsaturated arc is
        # such a path by itself.
        if w in _residual_tree(residual, u):
            continue
        selected.add(d)
        # Remove d along with the unit of flow through it; what is left is a
        # maximum flow of the graph without d, one unit smaller.
        residual[w][u] = 0
        _push_unit(residual, _residual_tree(residual, u), source)
        _push_unit(residual, _residual_tree(residual, sink), w)

    control_per_device = {d: controls[d][0] for d in selected}
    return selected, control_per_device


# --- artifact construction --------------------------------------------------

def build_artifacts(
    intent: HsplPolicy,
    rset: RequiredSet,
    bindings: list[ConditionBinding],
    selection: tuple[set[str], dict[str, str]],
    catalog: Catalog,
) -> list[RuleArtifact]:
    """One artifact per selected device per binding, forward before reverse.

    Stateful network controls get a connection-state condition per direction;
    stateless ones omit it. Application requirements yield a single host rule.
    """
    devices, control_per_device = selection
    artifacts: list[RuleArtifact] = []
    for device in sorted(devices):
        control_name = control_per_device[device]
        control = catalog.controls[control_name]
        for binding in bindings:
            instances: list[CapabilityInstance] = []
            if rset.layer == cap.LAYER_NETWORK:
                instances.append(
                    CapabilityInstance(CapabilityId.IP_SOURCE, binding.src_ip)
                )
                instances.append(
                    CapabilityInstance(CapabilityId.IP_DESTINATION, binding.dst_ip)
                )
                if control.stateful:
                    states = (
                        STATES_FORWARD
                        if binding.direction == DIRECTION_FORWARD
                        else STATES_REVERSE
                    )
                    instances.append(CapabilityInstance(CapabilityId.STATE, states))
                instances.append(CapabilityInstance(CapabilityId.DROP, "drop"))
            else:
                instances.append(
                    CapabilityInstance(CapabilityId.HTTP_HOST, binding.host)
                )
                instances.append(CapabilityInstance(CapabilityId.DENY, "deny"))
            artifacts.append(
                RuleArtifact(
                    hsplid=intent.id,
                    device=device,
                    nsf=control_name,
                    capabilities=tuple(instances),
                )
            )
    return artifacts


def artifacts_to_json(artifacts: list[RuleArtifact]) -> str:
    doc = [
        {
            "hsplid": a.hsplid,
            "device": a.device,
            "nsf": a.nsf,
            "capabilities": [
                {"capability": inst.capability.value, "detail": inst.detail}
                for inst in a.capabilities
            ],
        }
        for a in artifacts
    ]
    return json.dumps(doc, indent=2) + "\n"


def artifacts_from_json(document: str) -> list[RuleArtifact]:
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(f"malformed artifact document: {exc}")
    try:
        return [
            RuleArtifact(
                hsplid=_string(entry["hsplid"]),
                device=_string(entry["device"]),
                nsf=_string(entry["nsf"]),
                capabilities=tuple(
                    CapabilityInstance(
                        CapabilityId(c["capability"]), _string(c["detail"])
                    )
                    for c in entry["capabilities"]
                ),
            )
            for entry in raw
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentSyntaxError(f"malformed artifact document: {exc!r}")


def _string(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


# --- knowledge base ---------------------------------------------------------

def kb_to_json(kb: KnowledgeBase) -> str:
    doc = {
        "topology_hash": kb.topology_hash,
        "intents": {
            i.id: {"subject": i.subject, "action": i.action, "object": i.object}
            for i in kb.intents.values()
        },
        "paths": {
            hid: [list(p.intermediate) for p in paths]
            for hid, paths in kb.paths.items()
        },
        "device_inventory": {
            d: list(controls) for d, controls in kb.device_inventory.items()
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def kb_from_json(document: str) -> KnowledgeBase:
    try:
        raw = json.loads(document)
        kb = KnowledgeBase(
            topology_hash=raw["topology_hash"],
            intents={
                hid: HsplPolicy(
                    id=hid,
                    subject=entry["subject"],
                    action=entry["action"],
                    object=entry["object"],
                )
                for hid, entry in raw["intents"].items()
            },
            paths={
                hid: [Path(intermediate=tuple(p)) for p in paths]
                for hid, paths in raw["paths"].items()
            },
            device_inventory={
                d: tuple(controls)
                for d, controls in raw["device_inventory"].items()
            },
        )
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise CorruptKnowledgeBase(f"unreadable knowledge base: {exc}")
    if not re.fullmatch(r"[0-9a-f]{64}", kb.topology_hash or ""):
        raise CorruptKnowledgeBase("topology_hash is not a sha256 digest")
    for hid in kb.paths:
        if hid not in kb.intents:
            raise CorruptKnowledgeBase(f"paths present for unknown intent {hid!r}")
    return kb


def load_kb(path: str) -> KnowledgeBase | None:
    """Read a persisted knowledge base; a corrupt one is treated as absent."""
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            return kb_from_json(fh.read())
    except CorruptKnowledgeBase as exc:
        logger.warning("ignoring corrupt knowledge base %s: %s", path, exc)
        return None


def save_kb(kb: KnowledgeBase, path: str) -> None:
    try:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(kb_to_json(kb))
        os.replace(tmp, path)
    except OSError as exc:
        raise PersistError(f"cannot persist knowledge base to {path}: {exc}")


def _build_inventory(t: Topology) -> dict[str, tuple[str, ...]]:
    return {
        n.id: n.controls
        for n in sorted(t.nodes.values(), key=lambda n: n.id)
        if n.kind == topo.DEVICE
    }


def kb_reconcile(
    kb: KnowledgeBase | None, t: Topology, intents: list[HsplPolicy]
) -> tuple[dict[str, list[Path]], dict[str, tuple[str, ...]], ReuseReport]:
    """Return per-intent paths and the device inventory, reusing cached
    results when the topology hash matches and the intent is unchanged. A KB
    whose reused paths name a node that is not a topology device or subnet is
    corrupt and, as in load_kb, treated as absent."""
    report = ReuseReport()
    reusable = kb is not None and kb.topology_hash == t.digest()
    cached = {
        i.id: kb.paths[i.id]
        for i in intents
        if reusable and kb.intents.get(i.id) == i and i.id in kb.paths
    }
    interior = {n for n, node in t.nodes.items() if node.kind != topo.ENDPOINT}
    named = set().union(*(p.intermediate for ps in cached.values() for p in ps))
    if stray := sorted(named - interior):
        logger.warning("ignoring corrupt knowledge base: cached paths name %s", stray)
        reusable, cached = False, {}

    paths: dict[str, list[Path]] = {}
    for intent in intents:
        if intent.id in cached:
            paths[intent.id] = list(cached[intent.id])
            report.hits.append(intent.id)
        else:
            paths[intent.id] = topo.enumerate_paths(t, intent.subject, intent.object)
            report.misses.append(intent.id)

    if reusable:
        inventory = dict(kb.device_inventory)
        report.inventory_reused = True
    else:
        inventory = _build_inventory(t)
    return paths, inventory, report


def kb_update(
    kb: KnowledgeBase | None,
    t: Topology,
    intents: list[HsplPolicy],
    paths: dict[str, list[Path]],
) -> KnowledgeBase:
    """Merge new results into the knowledge base.

    A topology change evicts all old paths; the hash is always refreshed.
    """
    digest = t.digest()
    merged = KnowledgeBase(topology_hash=digest, device_inventory=_build_inventory(t))
    if kb is not None and kb.topology_hash == digest:
        merged.intents.update(kb.intents)
        merged.paths.update(kb.paths)
    for intent in intents:
        merged.intents[intent.id] = intent
        merged.paths[intent.id] = list(paths[intent.id])
    return merged


# --- end-to-end refinement --------------------------------------------------

def refine(
    t: Topology,
    intents: list[HsplPolicy],
    k: Knowledge,
    catalog: Catalog,
    kb: KnowledgeBase | None = None,
) -> tuple[list[RuleArtifact], dict[str, list[Path]], ReuseReport, KnowledgeBase]:
    """Run binding, placement, and artifact construction for every intent.

    Placement depends only on the intent's paths and the required set, so it
    runs once per distinct required set of an intent, not once per fact.
    """
    paths, _inventory, report = kb_reconcile(kb, t, intents)
    artifacts: list[RuleArtifact] = []
    for intent in intents:
        intent_paths = paths[intent.id]
        if not intent_paths:
            raise Unenforceable(
                f"intent {intent.id!r}: no path between "
                f"{intent.subject!r} and {intent.object!r}"
            )
        selections: dict[RequiredSet, tuple[set[str], dict[str, str]]] = {}
        for _fact, rset, bindings in bind_intent(t, intent, k):
            selection = selections.get(rset)
            if selection is None:
                selection = select_enforcement_set(intent_paths, t, catalog, rset)
                selections[rset] = selection
                logger.info(
                    "stage=refiner event=selection intent=%s layer=%s devices=%s",
                    intent.id, rset.layer, ",".join(sorted(selection[0])),
                )
            artifacts.extend(
                build_artifacts(intent, rset, bindings, selection, catalog)
            )
    # A KB that kb_reconcile did not reuse is not merged into either.
    updated = kb_update(kb if report.inventory_reused else None, t, intents, paths)
    return artifacts, paths, report, updated
