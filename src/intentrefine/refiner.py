"""Core allocator: bind intents to topology facts, place enforcement devices,
emit rule artifacts, and maintain the reuse knowledge base.

Enforcement placement picks the fewest devices that hit every path between
an intent's endpoints: a minimum subject-object vertex cut in which only
capable devices may be cut, found by max-flow on the topology's links among
the nodes of those paths, read from their route segments without building a
path (see select_enforcement_set).
The knowledge base is the record of the last deployment: each intent's
placement. A run reports, per intent, whether that record was absent, equal
to the new placement, or stale.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections import deque, namedtuple
from json.encoder import encode_basestring_ascii as _quote

from . import capability as cap
from . import topology as topo
from .capability import (
    CAPABILITY_IDS, Catalog, CapabilityId, RequiredSet, control_satisfies)
from .errors import (
    ID_RE,
    DocumentSyntaxError,
    LazyLogger,
    NothingToEnforce,
    Unenforceable,
    UnsupportedAction,
    ValidationError,
    require_id,
    write_atomic,
)
from .factbase import Fact, Knowledge
from .topology import Topology

logger = LazyLogger(__name__)

ACTION_DENY_ACCESS = "deny-access"
ACTION_SURFACE = "is not authorized to access"

STATES_FORWARD = "NEW,ESTABLISHED"
STATES_REVERSE = "ESTABLISHED,RELATED"

DIRECTION_FORWARD = "forward"
DIRECTION_REVERSE = "reverse"


HsplPolicy = namedtuple("HsplPolicy", "id subject action object")

# capability: one of capability.CAPABILITY_IDS
CapabilityInstance = namedtuple("CapabilityInstance", "capability detail")

# capabilities: a tuple of CapabilityInstance
RuleArtifact = namedtuple("RuleArtifact", "hsplid device nsf capabilities")

# Concrete values for one rule of a requirement; each may be None.
ConditionBinding = namedtuple(
    "ConditionBinding", "direction src_ip dst_ip host", defaults=(None,) * 4
)

# An intent's placement: for each layer, the selected devices and the
# control each enforces with.
Placement = dict[str, dict[str, str]]

# Placements of earlier runs: `intents` maps an intent id to its HsplPolicy
# and `placements` to its Placement. The two dicts are filled in place.
KnowledgeBase = namedtuple("KnowledgeBase", "intents placements")

# How each intent's knowledge-base record compares with this run's placement:
# a hit equals it; a miss has no record of the unchanged intent, or a stale
# one that differs. `hits` and `misses` are lists of intent ids; `stale` maps
# a stale intent to the `layer:device:control` entries its placement added
# to and removed from its record, each sorted. All three are filled in place.
ReuseReport = namedtuple("ReuseReport", "hits misses stale")


# --- HSPL parsing -----------------------------------------------------------

def _expat_end(text: str) -> tuple[int, int]:
    """The line and column at which expat's positions put the end of `text`:
    a line ends at "\r\n", "\r" or "\n", and a column counts characters."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.count("\n") + 1, len(text) - text.rfind("\n") - 1


def parse_hspl(document: str) -> list[HsplPolicy]:
    """Parse `<hspl id=...>` elements, in document order."""
    from xml.etree import ElementTree as ET

    try:
        root = ET.fromstring(document)
    except ET.ParseError as first:
        # a fragment of several roots is read wrapped in one, after any XML
        # declaration, which must stay at the start
        cut = document.index("?>") + 2 if document.startswith("<?xml") and "?>" in document else 0
        wrapper = "<hspls>"
        try:
            root = ET.fromstring(f"{document[:cut]}{wrapper}{document[cut:]}</hspls>")
        except ET.ParseError as exc:
            from xml.parsers.expat import ErrorString, errors

            # the document's own error, unless it is a fragment's second root
            if ErrorString(first.code) != errors.XML_ERROR_JUNK_AFTER_DOC_ELEMENT:
                raise DocumentSyntaxError(f"malformed HSPL document: {first}")
            # the position in `document`: the wrapper shifts the rest of its line
            line, column = exc.position
            at_line, at_column = _expat_end(document[:cut])
            if line == at_line and column >= at_column + len(wrapper):
                column -= len(wrapper)
            message, end = ErrorString(exc.code), _expat_end(document)
            if (line, column) >= end:  # the closing wrapper met an element left open
                message, (line, column) = errors.XML_ERROR_NO_ELEMENTS, end
            raise DocumentSyntaxError(
                f"malformed HSPL document: {message}: line {line}, column {column}")

    elements = list(root.iter("hspl"))  # the root too, when it is one
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
        require_id(hspl_id, "hspl id")
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

def _fact_index(k: Knowledge) -> tuple[dict[str, list[int]], list]:
    """Each lower-cased binding value -> the ascending positions in `k.facts`
    of the facts that bind it; and, per position, the fact's required sets
    (capability.derive_required). Built on first use and kept in `k`'s
    instance dict, so refine and each of its bind_intent calls share it."""
    derived = vars(k)
    if "fact_index" not in derived:
        index: dict[str, list[int]] = {}
        required = []
        for position, fact in enumerate(k.facts):
            for value in {v.lower() for _, v in fact.bindings}:
                index.setdefault(value, []).append(position)
            required.append(cap.derive_required(fact))
        derived["fact_index"] = (index, required)
    return derived["fact_index"]


def bind_intent(
    t: Topology, intent: HsplPolicy, k: Knowledge
) -> list[tuple[Fact, RequiredSet, list[ConditionBinding]]]:
    """Match knowledge facts to the intent's endpoints and produce concrete
    condition bindings for each implied requirement.

    A fact is relevant when one of its IP values equals the subject's or
    object's address, or a url value is among the object's served domains.
    Only the facts that bind one of those values (looked up lower-cased in
    the _fact_index) are checked, in fact order. A fact with no derivable
    requirement is skipped here; refine warns of it once.
    """
    subject = topo.resolve_endpoint(t, intent.subject)
    obj = topo.resolve_endpoint(t, intent.object)

    index, required = _fact_index(k)
    values = {subject.ip, obj.ip, *obj.domains} - {None}
    candidates = sorted(set().union(*(index.get(v.lower(), ()) for v in values)))

    results: list[tuple[Fact, RequiredSet, list[ConditionBinding]]] = []
    relevant = 0
    for position in candidates:
        fact = k.facts[position]
        bound = len(results)
        for rset in required[position]:
            if rset.layer == cap.LAYER_NETWORK:
                ips = {v for name, v in fact.bindings if name.endswith("ip-address")}
                endpoint_ips = {subject.ip, obj.ip} - {None}
                if not (ips & endpoint_ips):
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
                    continue
                bindings = [ConditionBinding(host=host.lower())]
            results.append((fact, rset, bindings))
        relevant += len(results) > bound

    logger.debug(
        "intent %s: %d of %d facts match no endpoint; skipped",
        intent.id, len(k.facts) - relevant, len(k.facts),
    )
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
        if name in catalog and control_satisfies(catalog[name], r)
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


def _flow_tree(residual, start):
    """Breadth-first tree of the vertices from which flow reaches `start`,
    following flow-carrying arcs backwards, as a child -> parent map.

    An arc u -> v carries flow when the reverse entry residual[v][u] is
    positive. Real arcs join an out-vertex to another node's in-vertex, and
    a node's in-vertex to its own out-vertex; so the reverse entries are
    those from an in-vertex to another node, or from an out-vertex to its
    own node.
    """
    parent = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        node, side = u
        for v, capacity in residual[u].items():
            if capacity and v not in parent and (v[0] != node) == (side == _IN):
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
    paths: topo.Paths,
    t: Topology,
    catalog: Catalog,
    r: RequiredSet,
) -> tuple[set[str], dict[str, str]]:
    """Minimum set of devices covering every path with a satisfying control.

    `paths` must be every simple path between two endpoints, as
    `enumerate_paths` returns them; only their route segments are read, and
    no path is built. Capability belongs to the device, not the path, so a
    minimum cover is a minimum vertex cut between the endpoints in which
    only capable devices may be cut (Menger). The cut is found by max-flow
    on the graph of the topology's links among the nodes of the segment
    routes, which are the nodes on the paths, taken in both orientations,
    with the source on the subject's subnet, where every path starts, and
    the sink on the object's: any route of that graph holds one of `paths`,
    so both have the same vertex cuts. Every node is split into an in- and an
    out-vertex, joined by an arc of capacity 1 for a capable device and
    unbounded otherwise.

    Ties break lexicographically on the sorted device-id tuple: candidates
    are taken in sorted order, and each is kept only if removing it, together
    with the devices already kept, lowers the cut by exactly one. Unenforceable
    names the first path that avoids every capable device (Paths.avoiding).
    """
    segments = paths.segments
    nodes = {n for routes in segments for route in routes for n in route}
    controls = {
        n: _satisfying_controls(t, n, catalog, r)
        for n in nodes
        if t.nodes[n].kind == topo.DEVICE
    }
    capable = {n for n, names in controls.items() if names}
    if (path := paths.avoiding(capable)) is not None:
        raise Unenforceable(
            f"path {list(path.intermediate)} has no device with a "
            f"satisfying {r.layer}-layer control"
        )

    # Arc (n, _IN) -> (n, _OUT) is node n; _ENDS is the subject on the out
    # side (the source) and the object on the in side (the sink).
    residual: dict[tuple[str, int], dict[tuple[str, int], float]] = {}

    def arc(u, v, capacity):
        residual.setdefault(u, {})[v] = capacity
        residual.setdefault(v, {}).setdefault(u, 0)

    # Arcs go in in sorted order, so the flow found, and the searches made,
    # do not depend on string hashing.
    source, sink = (_ENDS, _OUT), (_ENDS, _IN)
    for n in sorted(nodes):
        arc((n, _IN), (n, _OUT), 1 if n in capable else math.inf)
        for m in t.neighbors(n):
            if m in nodes:
                arc((n, _OUT), (m, _IN), math.inf)
    arc(source, (segments[0][0][0], _IN), math.inf)
    arc((segments[-1][0][-1], _OUT), sink, math.inf)

    while sink in (tree := _residual_tree(residual, source)):
        _push_unit(residual, tree, sink)

    selected: set[str] = set()
    for d in sorted(capable):
        u, w = (d, _IN), (d, _OUT)
        # d lies in some minimum cut iff no residual path leads from its in-
        # to its out-vertex (Picard & Queyranne 1980); an unsaturated arc is
        # such a path by itself, and needs no search.
        if residual[u][w] or w in _residual_tree(residual, u):
            continue
        selected.add(d)
        # Remove d along with the unit of flow through it; what is left is a
        # maximum flow of the graph without d, one unit smaller. The unit is
        # traced along flow-carrying arcs only: a residual path could reroute
        # it and leave circulations that saturate later candidates.
        residual[w][u] = 0
        _push_unit(residual, _flow_tree(residual, u), source)
        _push_unit(residual, _flow_tree(residual, sink), w)

    control_per_device = {d: controls[d][0] for d in selected}
    return selected, control_per_device


# --- artifact construction --------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _capabilities(
    layer: str, binding: ConditionBinding, stateful: bool
) -> tuple[CapabilityInstance, ...]:
    """The capability instances of the rule for `binding` at `layer`, at a
    control that tracks connection state or not. Rules with equal arguments
    share one tuple, which later stages find by identity when they look it
    up once per distinct rule shape."""
    if layer != cap.LAYER_NETWORK:
        return (
            CapabilityInstance(CapabilityId.HTTP_HOST, binding.host),
            CapabilityInstance(CapabilityId.DENY, "deny"),
        )
    instances = [
        CapabilityInstance(CapabilityId.IP_SOURCE, binding.src_ip),
        CapabilityInstance(CapabilityId.IP_DESTINATION, binding.dst_ip),
    ]
    if stateful:
        states = (
            STATES_FORWARD if binding.direction == DIRECTION_FORWARD else STATES_REVERSE
        )
        instances.append(CapabilityInstance(CapabilityId.STATE, states))
    instances.append(CapabilityInstance(CapabilityId.DROP, "drop"))
    return tuple(instances)


def build_artifacts(
    intent: HsplPolicy,
    rset: RequiredSet,
    bindings: list[ConditionBinding],
    control_per_device: dict[str, str],
    catalog: Catalog,
) -> list[RuleArtifact]:
    """One artifact per selected device per binding, forward before reverse.

    Stateful network controls get a connection-state condition per direction;
    stateless ones omit it. Application requirements yield a single host rule.
    """
    artifacts: list[RuleArtifact] = []
    for device in sorted(control_per_device):
        control_name = control_per_device[device]
        stateful = catalog[control_name].stateful
        for binding in bindings:
            artifacts.append(RuleArtifact(
                intent.id, device, control_name,
                _capabilities(rset.layer, binding, stateful),
            ))
    return artifacts


def _capabilities_json(capabilities: tuple[CapabilityInstance, ...]) -> str:
    if not capabilities:
        return "[]"
    entries = ",\n".join(
        "      {\n"
        f'        "capability": {_quote(inst.capability)},\n'
        f'        "detail": {_quote(inst.detail)}\n'
        "      }"
        for inst in capabilities
    )
    return f"[\n{entries}\n    ]"


def artifacts_to_json(artifacts: list[RuleArtifact]) -> str:
    """The artifact list as `json.dumps(doc, indent=2) + "\n"` writes it.

    The fixed two-level layout is written directly: with `indent` set,
    json's encoder runs in Python, while its string escaping
    (`encode_basestring_ascii`) is in C. Each distinct capabilities tuple
    is written once.
    """
    if not artifacts:
        return "[]\n"
    written: dict[tuple, str] = {}
    entries = []
    for a in artifacts:
        capabilities = written.get(a.capabilities)
        if capabilities is None:
            capabilities = written[a.capabilities] = _capabilities_json(a.capabilities)
        entries.append(
            "  {\n"
            f'    "hsplid": {_quote(a.hsplid)},\n'
            f'    "device": {_quote(a.device)},\n'
            f'    "nsf": {_quote(a.nsf)},\n'
            f'    "capabilities": {capabilities}\n'
            "  }"
        )
    return "[\n" + ",\n".join(entries) + "\n]\n"


def artifacts_from_json(document: str) -> list[RuleArtifact]:
    """The artifacts of `document`, checked field by field in document
    order. Each distinct intent id, device and control is checked as an id
    once, and artifacts with equal capabilities share one tuple of
    instances, built once from the checked (capability, detail) pairs."""
    try:
        raw = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentSyntaxError(f"malformed artifact document: {exc}")
    ids: set[str] = set()  # the values found to be ids
    shared: dict[tuple, tuple[CapabilityInstance, ...]] = {}
    artifacts = []
    try:
        for entry in raw:
            hsplid = _string(entry["hsplid"])
            if hsplid not in ids:
                ids.add(require_id(hsplid, "hspl id"))
            device = _string(entry["device"])
            if device not in ids:
                ids.add(require_id(device, "device id"))
            nsf = _string(entry["nsf"])
            if nsf not in ids:
                ids.add(require_id(nsf, "control name"))
            pairs = tuple([
                (_capability(c["capability"]), _string(c["detail"]))
                for c in entry["capabilities"]
            ])
            capabilities = shared.get(pairs)
            if capabilities is None:
                capabilities = shared[pairs] = tuple(map(CapabilityInstance._make, pairs))
            artifacts.append(RuleArtifact(hsplid, device, nsf, capabilities))
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentSyntaxError(f"malformed artifact document: {exc!r}")
    return artifacts


def _string(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _capability(value: object) -> str:
    if value not in CAPABILITY_IDS:
        raise ValueError(f"{value!r} is not a valid CapabilityId")
    return value


def _kb_id(value: object) -> str:
    """A recorded layer, device or control: a string that is an id."""
    if not ID_RE.fullmatch(_string(value)):
        raise ValueError(f"not an id: {value!r}")
    return value


# --- knowledge base ---------------------------------------------------------

def _placement_key(placement: Placement) -> tuple:
    """The placement's sorted `(layer, device, control)` entries, then its
    sorted layers (which tell an empty layer from none): equal exactly for
    equal placements, and the order of kb_to_json's groups."""
    entries = sorted(
        (layer, device, control)
        for layer, controls in placement.items()
        for device, control in controls.items()
    )
    return tuple(entries), tuple(sorted(placement))


def kb_to_json(kb: KnowledgeBase) -> str:
    """One group per distinct placement, holding each intent that has it as
    `id: [subject, action, object]`: compact JSON with sorted keys and the
    groups in _placement_key order, so equal KBs give equal text."""
    groups: dict[tuple, dict] = {}
    for i in kb.intents.values():
        placement = kb.placements[i.id]
        key = _placement_key(placement)
        if key not in groups:
            groups[key] = {"intents": {}, "placement": placement}
        groups[key]["intents"][i.id] = [i.subject, i.action, i.object]
    doc = {"placements": [groups[key] for key in sorted(groups)]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _kb_placement(raw: object) -> Placement:
    """A recorded placement: a mapping of ids to mappings of ids to ids."""
    return {
        _kb_id(layer): {_kb_id(d): _kb_id(c) for d, c in controls.items()}
        for layer, controls in raw.items()
    }


def _kb_groups(raw: dict):
    """`(intent id, [subject, action, object], placement)` for each record
    of a KB document: kb_to_json's grouped layout, or the earlier one that
    held each intent's placement beside its strings. Intents of a group
    share one Placement."""
    if "placements" not in raw:
        for hid, entry in raw["intents"].items():
            record = [entry["subject"], entry["action"], entry["object"]]
            yield hid, record, _kb_placement(entry["placement"])
        return
    groups = raw["placements"]
    if not isinstance(groups, list):
        raise TypeError(f"placements is not a list: {groups!r}")
    for group in groups:
        placement = _kb_placement(group["placement"])
        for hid, record in group["intents"].items():
            if type(record) is not list or len(record) != 3:
                raise ValueError(f"intent {hid!r}: not a record: {record!r}")
            yield hid, record, placement


def load_kb(path: str) -> tuple[KnowledgeBase | None, str | None]:
    """Read a persisted knowledge base: the KB, and the file's text for
    save_kb to compare with. The file may hold kb_to_json's grouped layout
    or the earlier per-intent one, compact or indented. One that is not
    UTF-8 text or in neither shape, or that names an intent twice, is
    corrupt: it is treated as absent, with a warning. A key that kb_to_json
    does not write, such as one an earlier version wrote, is ignored. The
    text is None when the file does not exist or is no UTF-8 text."""
    if not os.path.exists(path):
        return None, None
    text = None
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        raw = json.loads(text)
        kb = KnowledgeBase({}, {})
        for hid, (subject, action, obj), placement in _kb_groups(raw):
            if hid in kb.intents:
                raise ValueError(f"intent {hid!r} is recorded twice")
            kb.intents[hid] = HsplPolicy(
                hid, _string(subject), _string(action), _string(obj))
            kb.placements[hid] = placement
    except UnicodeDecodeError as exc:
        problem = str(exc)
    except (ValueError, RecursionError, KeyError, TypeError,
            AttributeError) as exc:
        problem = f"unreadable knowledge base: {exc!r}"
    else:
        return kb, text
    logger.warning("ignoring corrupt knowledge base %s: %s", path, problem)
    return None, text


def save_kb(kb: KnowledgeBase, path: str, earlier: str | None = None) -> None:
    """Write `kb` to `path`, unless `earlier`, the text load_kb read from
    it, already is kb_to_json's text of it."""
    text = kb_to_json(kb)
    if text != earlier:
        write_atomic(path, text, f"persist knowledge base to {path}")


def kb_reconcile(
    kb: KnowledgeBase | None, t: Topology, intents: list[HsplPolicy]
) -> tuple[KnowledgeBase, dict[str, topo.Paths], ReuseReport]:
    """The knowledge base this run builds on, every intent's paths (as
    enumerate_paths holds them: route segments, no path built), and which
    intents have a record.

    Whatever changed in the topology or catalog, the run builds on `kb`, or
    on an empty KB when there is none: a record is judged by its placement
    alone. An intent equal to its record is a hit until refine has compared
    the record with its placement; any other intent is a miss. Paths are
    enumerated once per distinct pair of the subnets the subject and the
    object attach to, on which alone they depend, as route_segments never
    walks through an endpoint; intents sharing the pair share one Paths.
    """
    kb = kb or KnowledgeBase({}, {})

    report = ReuseReport([], [], {})
    paths: dict[str, topo.Paths] = {}
    families: dict[tuple, topo.Paths] = {}
    for intent in intents:
        hit = kb.intents.get(intent.id) == intent
        (report.hits if hit else report.misses).append(intent.id)
        topo.resolve_endpoint(t, intent.subject)
        topo.resolve_endpoint(t, intent.object)
        family = t.neighbors(intent.subject), t.neighbors(intent.object)
        if family not in families:
            families[family] = topo.enumerate_paths(t, intent.subject, intent.object)
        paths[intent.id] = families[family]
    return kb, paths, report


def _entries(placement: Placement) -> set[str]:
    return {
        f"{layer}:{device}:{control}"
        for layer, controls in placement.items()
        for device, control in controls.items()
    }


def kb_update(
    kb: KnowledgeBase, intents: list[HsplPolicy], placements: dict[str, Placement]
) -> KnowledgeBase:
    """`kb` (as kb_reconcile returned it) with this run's intents and
    placements merged in; records of other intents are kept."""
    merged = KnowledgeBase(dict(kb.intents), dict(kb.placements))
    for intent in intents:
        merged.intents[intent.id] = intent
        merged.placements[intent.id] = placements[intent.id]
    return merged


# --- end-to-end refinement --------------------------------------------------

def refine(
    t: Topology,
    intents: list[HsplPolicy],
    k: Knowledge,
    catalog: Catalog,
    kb: KnowledgeBase | None = None,
) -> tuple[list[RuleArtifact], ReuseReport, KnowledgeBase]:
    """Run binding, placement, and artifact construction for every intent,
    and record each intent's placement in the knowledge base.

    Placement depends only on the intent's paths and the required set: it
    runs once per distinct Paths (kb_reconcile shares one among intents
    with the same attachment subnets) and required set, and intents sharing
    both share its control map. It reads the paths' route segments and
    builds no path, so its time and memory grow with the number of segment
    routes, not with their product.
    A hit whose record differs from the intent's placement becomes stale: it
    moves to the report's misses, and `report.stale` holds what changed.
    """
    base, paths, report = kb_reconcile(kb, t, intents)
    for fact, required in zip(k.facts, _fact_index(k)[1]):
        if not required:
            logger.warning("skipping fact with no derivable requirement: %s", fact)
    family_controls: dict[tuple, dict[str, str]] = {}  # by (Paths, RequiredSet)
    placements: dict[str, Placement] = {}
    artifacts: list[RuleArtifact] = []
    for intent in intents:
        intent_paths = paths[intent.id]
        if not intent_paths:
            raise Unenforceable(
                f"intent {intent.id!r}: no path between "
                f"{intent.subject!r} and {intent.object!r}"
            )
        placement: Placement = {}
        for _fact, rset, bindings in bind_intent(t, intent, k):
            controls = placement.get(rset.layer)
            if controls is None:
                controls = family_controls.get((intent_paths, rset))
                if controls is None:
                    try:
                        _devices, controls = select_enforcement_set(
                            intent_paths, t, catalog, rset
                        )
                    except Unenforceable as exc:
                        raise Unenforceable(f"intent {intent.id!r}: {exc}")
                    family_controls[intent_paths, rset] = controls
                placement[rset.layer] = controls
                logger.info(
                    "stage=refiner event=selection intent=%s layer=%s devices=%s",
                    intent.id, rset.layer, ",".join(sorted(controls)),
                )
            artifacts.extend(build_artifacts(intent, rset, bindings, controls, catalog))
        placements[intent.id] = placement

    for hid in list(report.hits):
        recorded, placed = base.placements[hid], placements[hid]
        if recorded != placed:
            report.hits.remove(hid)
            report.misses.append(hid)
            old, new = _entries(recorded), _entries(placed)
            report.stale[hid] = (sorted(new - old), sorted(old - new))
    return artifacts, report, kb_update(base, intents, placements)
