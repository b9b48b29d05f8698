"""Network topology model: parsing, endpoint resolution, simple-path enumeration.

The input format is a flat YAML document with `nodes` and `links` lists (see
tests/fixtures for full scenarios). A document in the one-line-per-entry
layout those fixtures use is read without PyYAML (`_read_layout`), so a
process reading one never imports it; every other document is read by
PyYAML. Topologies are immutable after parsing and all operations here are
pure.

Paths are held segment by segment: the nodes every route between two
endpoints passes through cut the routes into segments, and each segment is
walked only within the block (biconnected component) that joins its two
ends; one depth-first search finds both. `route_segments` returns each
segment's routes, and `enumerate_paths` wraps them in `Paths`, which joins
them into paths only when iterated. Placement reads the segments and never
joins them; the verifier decides and formats each segment route once before
joining.
"""

from __future__ import annotations

import functools
import ipaddress
import itertools
import math
import re
from collections import namedtuple

from .errors import (
    DocumentSyntaxError,
    UnknownEndpoint,
    ValidationError,
    require_id,
    require_list,
    shown,
)

_HOST_LABEL = r"[a-z0-9]([a-z0-9-]{0,61}[a-z0-9])?"
HOST_NAME_RE = re.compile(rf"{_HOST_LABEL}(\.{_HOST_LABEL})*")

# The one-line-per-entry layout: an optional `name: <value>` line, then
# `nodes:` and one `  - {key: value, ...}` line per node, then `links:` and
# one `  - [a, b]` line per link. A value is a plain scalar or a flow list of
# them, and a plain scalar an id-like word or a dotted quad. A scalar starts
# only after a character no scalar holds: a search that fails in a long run
# of scalar characters then fails at once at every later position of the
# run, and takes linear time.
_PLAIN = r"(?<![A-Za-z0-9_.-])(?:[A-Za-z_][A-Za-z0-9_.-]*|[0-9]+(?:\.[0-9]+){3})"
_SCALARS = re.compile(_PLAIN)
_PAIRS = re.compile(rf"({_PLAIN}): (\[(?:{_PLAIN}(?:, {_PLAIN})*)?\]|{_PLAIN})")
# The id-like words YAML 1.1 reads as a boolean or null, not as a string.
_NOT_STRINGS = frozenset(
    spelling
    for word in ("yes", "no", "true", "false", "on", "off", "null")
    for spelling in (word, word.title(), word.upper())
)


def _layout_value(value: str | list[str]) -> str:
    return f"[{', '.join(value)}]" if isinstance(value, list) else value


def _layout_pairs(text: str) -> dict:
    return {
        key: _SCALARS.findall(value) if value[0] == "[" else value
        for key, value in _PAIRS.findall(text)
    }


def _layout_text(raw: dict) -> str:
    """`raw` written in the one-line-per-entry layout."""
    lines = [f"name: {_layout_value(raw['name'])}"] if "name" in raw else []
    lines.append("nodes:")
    for node in raw["nodes"]:
        pairs = ", ".join(f"{k}: {_layout_value(v)}" for k, v in node.items())
        lines.append(f"  - {{{pairs}}}")
    lines.append("links:")
    lines += [f"  - {_layout_value(link)}" for link in raw["links"]]
    return "\n".join(lines) + "\n"


def _read_layout(document: str) -> dict | None:
    """What PyYAML reads from `document` (`yaml.load` with `_yaml_loader()`)
    when it is in the one-line-per-entry layout with both blocks non-empty;
    None for any other text.

    The document is read leniently, then accepted only if writing what was
    read back in the layout gives the document itself. The layout spells
    each value one way, so that proves every line is in the layout, every
    value a plain scalar or a list of them, and no node repeats a key; what
    is left is to refuse the words YAML reads as no string.
    """
    head, _, rest = document.partition("nodes:\n")
    nodes, _, links = rest.partition("links:\n")
    raw = _layout_pairs(head)
    raw["nodes"] = [_layout_pairs(line) for line in nodes.splitlines()]
    raw["links"] = [_SCALARS.findall(line) for line in links.splitlines()]
    if (
        raw["nodes"]
        and raw["links"]
        and _layout_text(raw) == document
        and _NOT_STRINGS.isdisjoint(_SCALARS.findall(document))
    ):
        return raw
    return None


@functools.cache
def _yaml_loader() -> type:
    """`yaml.SafeLoader`, on libyaml's C scanner and parser when PyYAML was
    built with libyaml. Built on first use: a process that reads only the
    one-line-per-entry layout never imports PyYAML."""
    import yaml

    if not yaml.__with_libyaml__:
        return yaml.SafeLoader

    class Loader(
        yaml.composer.Composer,
        yaml.cyaml.CParser,
        yaml.constructor.SafeConstructor,
        yaml.resolver.Resolver,
    ):
        """The composer stays PyYAML's: libyaml's recurses on the C stack, so
        deep nesting crashes the process, where this one raises
        RecursionError."""

        def __init__(self, stream):
            yaml.cyaml.CParser.__init__(self, stream)
            yaml.composer.Composer.__init__(self)
            yaml.constructor.SafeConstructor.__init__(self)
            yaml.resolver.Resolver.__init__(self)

    return Loader


def _load_yaml(document: str) -> object:
    """The value of a YAML document, read by PyYAML."""
    import yaml

    try:
        return yaml.load(document, Loader=_yaml_loader())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        raise DocumentSyntaxError(f"malformed topology document: {exc}", line=line)
    except (RecursionError, ValueError, LookupError, AttributeError) as exc:
        # Nesting deeper than the composer's recursion allows, or a value the
        # safe constructor cannot build under its tag (`!!int x`, the date
        # 2020-13-45, `!!timestamp x`).
        raise DocumentSyntaxError(f"malformed topology document: {exc!r}")


ENDPOINT = "endpoint"
SUBNET = "subnet"
DEVICE = "device"
NODE_KINDS = (ENDPOINT, SUBNET, DEVICE)


# ip: str or None; domains: frozenset of host names; controls: tuple of names
Node = namedtuple(
    "Node", "id kind ip domains controls", defaults=(None, frozenset(), ())
)


class Path(namedtuple("Path", "intermediate")):
    """Intermediate nodes of a simple route, endpoints excluded."""

    __slots__ = ()

    def devices(self, topo: Topology) -> tuple[str, ...]:
        """Project the path onto its device nodes only."""
        return tuple(n for n in self.intermediate if topo.nodes[n].kind == DEVICE)


class Topology(namedtuple("Topology", "name nodes adjacency")):
    """`nodes`: id -> Node; `adjacency`: id -> the sorted ids of its
    neighbors."""

    __slots__ = ()

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        return self.adjacency.get(node_id, ())


def require_ipv4(value: str, context: str) -> str:
    try:
        ipaddress.IPv4Address(value)
    except (ipaddress.AddressValueError, ValueError):
        raise ValidationError(f"{context}: not an IPv4 dotted-quad: {value!r}")
    return value


def is_host_name(host: str) -> bool:
    """Whether `host` is a lower-case RFC 1123 host name: dot-separated
    labels of letters, digits and inner hyphens, at most 253 characters."""
    return len(host) <= 253 and HOST_NAME_RE.fullmatch(host) is not None


def _text(value: object, place: str) -> str:
    """`value` as text. A collection is no scalar: its text could be far
    larger than the document (see errors.shown)."""
    if isinstance(value, (list, tuple, dict, set)):
        raise ValidationError(f"{place} must be a scalar, got {shown(value)}")
    return str(value)


def _parse_node(raw: object) -> Node:
    if not isinstance(raw, dict) or "id" not in raw:
        raise DocumentSyntaxError(
            f"node entry must be a mapping with an 'id': {shown(raw)}"
        )
    node_id = require_id(_text(raw["id"], "node id"), "node id")
    kind = raw.get("kind")
    if kind not in NODE_KINDS:
        raise ValidationError(f"node {node_id}: missing or unknown kind {shown(kind)}")
    ip = raw.get("ip")
    domains = require_list(
        raw.get("domains"), f"node {node_id}: domains", ValidationError
    )
    controls = require_list(
        raw.get("controls"), f"node {node_id}: controls", ValidationError
    )
    if ip is not None:
        if kind != ENDPOINT:
            raise ValidationError(f"node {node_id}: only endpoints carry an ip")
        ip = require_ipv4(_text(ip, f"node {node_id}: ip"), f"node {node_id}")
    if domains and kind != ENDPOINT:
        raise ValidationError(f"node {node_id}: only endpoints carry domains")
    domains = [_text(d, f"node {node_id}: domain").lower() for d in domains]
    for domain in domains:
        if not is_host_name(domain):
            raise ValidationError(
                f"node {node_id}: domain {domain!r} is not an RFC 1123 host name"
            )
    if controls and kind != DEVICE:
        raise ValidationError(f"node {node_id}: only devices carry controls")
    return Node(
        id=node_id,
        kind=kind,
        ip=ip,
        domains=frozenset(domains),
        controls=tuple(_text(c, f"node {node_id}: control") for c in controls),
    )


def parse_topology(document: str) -> Topology:
    """Parse and validate a topology document.

    Declaration order does not affect the result. Raises DocumentSyntaxError
    for malformed YAML and ValidationError for structural violations
    (duplicate ids, dangling links, endpoints not attached to exactly one
    subnet).
    """
    raw = _read_layout(document) or _load_yaml(document)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise DocumentSyntaxError("topology document must be a mapping")

    nodes: dict[str, Node] = {}
    for entry in require_list(raw.get("nodes"), "topology nodes"):
        node = _parse_node(entry)
        if node.id in nodes:
            raise ValidationError(f"duplicate node id {node.id!r}")
        nodes[node.id] = node

    links: set[frozenset[str]] = set()
    for entry in require_list(raw.get("links"), "topology links"):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise DocumentSyntaxError(f"link entry must be a pair: {shown(entry)}")
        a, b = (_text(end, "link end") for end in entry)
        if a == b:
            raise ValidationError(f"self-link on {a!r}")
        for end in (a, b):
            if end not in nodes:
                raise ValidationError(f"link references undeclared node {end!r}")
        links.add(frozenset((a, b)))

    adjacency: dict[str, set[str]] = {n: set() for n in nodes}
    for pair in links:
        a, b = tuple(pair)
        adjacency[a].add(b)
        adjacency[b].add(a)

    for node in nodes.values():
        if node.kind == ENDPOINT:
            attached = adjacency[node.id]
            if len(attached) != 1 or any(nodes[p].kind != SUBNET for p in attached):
                raise ValidationError(
                    f"endpoint {node.id} must attach to exactly one subnet"
                )

    return Topology(
        name=_text(raw.get("name", ""), "topology name"),
        nodes=nodes,
        adjacency={n: tuple(sorted(v)) for n, v in adjacency.items()},
    )


def resolve_endpoint(topo: Topology, name: str) -> Node:
    node = topo.nodes.get(name)
    if node is None or node.kind != ENDPOINT:
        raise UnknownEndpoint(f"no endpoint named {name!r} in topology {topo.name!r}")
    return node


def _walk(topo: Topology, start: str, end: str, region) -> list[tuple[str, ...]]:
    """The node sequences strictly between `start` and `end` of every simple
    route from one to the other whose inner nodes lie in `region`."""
    found: list[tuple[str, ...]] = []
    route: list[str] = []
    visited = {start}
    # Depth-first with an explicit stack of neighbor iterators, one per node
    # of the current route plus `start`, so a long route cannot exceed the
    # interpreter's recursion limit. A `for` over the top iterator resumes
    # where that node's scan stopped.
    pending = [iter(topo.neighbors(start))]
    while pending:
        for nxt in pending[-1]:
            if nxt == end:
                found.append(tuple(route))
            elif nxt not in visited and nxt in region:
                visited.add(nxt)
                route.append(nxt)
                pending.append(iter(topo.neighbors(nxt)))
                break
        else:
            pending.pop()
            if route:
                visited.remove(route.pop())
    return found


def _blocks(topo: Topology, root: str, obj: str) -> tuple[dict, dict]:
    """The depth-first tree of the nodes that endpoint `root` reaches, every
    endpoint but `root` and `obj` left out, as each node's parent, and its
    blocks (biconnected components): for each node c whose subtree no back
    arc leaves for a node discovered before its parent v, the list of the
    nodes other than v of the block that holds the link (v, c).

    One search computes lowpoints (Hopcroft & Tarjan 1973) and keeps a stack
    of the discovered nodes that no closed block holds yet. When c finishes
    as above, the nodes discovered since c are popped: with v, they form
    the block. Any other endpoint is skipped when first met: it is a leaf,
    so it lies on no route, closes a block of its own and moves no lowpoint.
    """
    order = {root: 0}
    low = {root: 0}
    parent = {root: None}
    blocks: dict[str, list[str]] = {}
    stack: list[str] = []
    # (node, its neighbor scan, the stack height at its discovery)
    pending = [(root, iter(topo.neighbors(root)), 0)]
    while pending:
        u, scan, _ = pending[-1]
        for v in scan:
            if v not in order:
                if v != obj and topo.nodes[v].kind == ENDPOINT:
                    continue
                order[v] = low[v] = len(order)
                parent[v] = u
                pending.append((v, iter(topo.neighbors(v)), len(stack)))
                stack.append(v)
                break
            if order[v] < low[u]:
                low[u] = order[v]
        else:
            _, _, height = pending.pop()
            if pending:
                p = pending[-1][0]
                if low[u] >= order[p]:
                    blocks[u] = stack[height:]
                    del stack[height:]
                elif low[u] < low[p]:
                    low[p] = low[u]
    return parent, blocks


def route_segments(topo: Topology, subject: str, obj: str) -> list[list[tuple[str, ...]]]:
    """The routes of each segment of the paths between two endpoints, the
    segments in the order every path passes them; empty when the endpoints
    are disconnected.

    Every path passes the endpoints' separators, the cut vertices on the
    tree path from `obj` up to `subject` (_blocks), in the same order, the
    first the subject's subnet and the last the object's. So the paths are
    the products of the routes of each segment, which runs from one
    separator to the next, or to the object. A segment's routes stay in the
    block that holds the link from its separator toward the object on that
    tree path; a block off the path, as a dead end hanging off any node,
    lies on no path and is never walked. An endpoint is a block of its own with its
    subnet, as parse_topology attaches it to exactly one, so no segment's
    block holds one. So every route of a segment starts at its separator,
    and the last segment is the one route `(object's subnet,)`.

    The product of the segments, taken in order, yields the paths sorted by
    node-id sequence: _walk meets each node's neighbors in sorted order, so
    a segment's routes come sorted as each route followed by the segment's
    far end, which starts every route of the next segment.
    """
    resolve_endpoint(topo, subject)
    resolve_endpoint(topo, obj)
    if subject == obj:
        return [[topo.neighbors(subject)]]  # the one route: the attachment subnet
    parent, blocks = _blocks(topo, subject, obj)
    if obj not in parent:
        return []
    segments = []
    end = child = obj
    while (v := parent[child]) != subject:
        if child in blocks:  # v is a separator
            segments.append([(v, *seq) for seq in _walk(topo, v, end, set(blocks[child]))])
            end = v
        child = v
    segments.reverse()
    return segments


class Paths:
    """The simple paths between two endpoints, endpoints excluded, held as
    their route_segments: every path is one route of each segment, joined
    in order. Iterating joins them one at a time, in route_segments' order."""

    __slots__ = ("segments",)

    def __init__(self, segments: list[list[tuple[str, ...]]]):
        self.segments = segments

    def __bool__(self) -> bool:
        """Whether the endpoints are connected. Unlike len(), which cannot
        exceed sys.maxsize, this holds at any number of paths."""
        return bool(self.segments)

    def __len__(self) -> int:
        """The number of paths: the product of the segments' route counts,
        0 when the endpoints are disconnected."""
        return math.prod(map(len, self.segments)) if self.segments else 0

    def __iter__(self):
        # product() of no segments would yield one empty path
        products = itertools.product(*self.segments) if self.segments else ()
        return (Path(tuple(itertools.chain.from_iterable(p))) for p in products)


def enumerate_paths(topo: Topology, subject: str, obj: str) -> Paths:
    """All simple paths between two endpoints, endpoints excluded, as the
    Paths of their route_segments; empty when the endpoints are
    disconnected."""
    return Paths(route_segments(topo, subject, obj))
