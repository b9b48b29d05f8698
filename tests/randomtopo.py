"""Random topology generation and independent brute-force oracles.

The oracles here deliberately avoid the library's own traversal and
placement code: path enumeration is a plain recursive walk over the raw
link list, and set cover is full subset enumeration.
"""

import itertools
import random

from intentrefine import topology


def random_topology(rng: random.Random, max_devices: int = 8):
    """Two endpoints on their own subnets plus a random device/subnet mesh."""
    n_devices = rng.randint(1, max_devices)
    n_subnets = rng.randint(0, 3)
    devices = [f"D{i}" for i in range(n_devices)]
    subnets = ["SA", "SB"] + [f"S{i}" for i in range(n_subnets)]

    nodes = [
        {"id": "A", "kind": "endpoint", "ip": "10.0.0.1"},
        {"id": "B", "kind": "endpoint", "ip": "10.0.0.9"},
    ]
    nodes += [{"id": s, "kind": "subnet"} for s in subnets]
    for d in devices:
        controls = ["IpTables"] if rng.random() < 0.8 else []
        nodes.append({"id": d, "kind": "device", "controls": controls})

    # subnets never link to each other directly, so every route crosses devices
    interior = devices + subnets
    subnet_set = set(subnets)
    links = {("A", "SA"), ("B", "SB")}
    for a, b in itertools.combinations(interior, 2):
        if a in subnet_set and b in subnet_set:
            continue
        if rng.random() < 0.35:
            links.add((a, b))

    doc = {"name": f"random-{rng.random()}", "nodes": nodes, "links": [list(l) for l in sorted(links)]}
    return _parsed_both_ways(doc)


def series_parallel_topology(rng: random.Random, max_stages: int = 5):
    """Endpoints A and B joined by a series of stages, each of one to three
    parallel branches of up to two nodes, with dangling meshes and chords.

    A mesh hangs off one node by one link, so it lies on no route unless a
    chord or B reaches it; a chord links two random non-endpoint nodes and
    may merge stages or add routes. An endpoint C on a random subnet is never
    walked through. B sometimes attaches to another random subnet (A's, a
    stage's or a mesh's), and one link is sometimes dropped, which may cut
    B off.
    """
    kinds: dict[str, str] = {"SA": "subnet", "SB": "subnet"}
    links: set[tuple[str, str]] = set()
    ids = itertools.count()

    def add(kind=None):
        kind = kind or rng.choice(("subnet", "device", "device"))
        node = f"{kind[0].upper()}{next(ids)}"
        kinds[node] = kind
        return node

    def link(a, b):
        if a != b:
            links.add((min(a, b), max(a, b)))

    joint = "SA"
    stages = rng.randint(1, max_stages)
    for stage in range(stages):
        nxt = "SB" if stage == stages - 1 else add()
        for _ in range(rng.randint(1, 3)):
            prev = joint
            for _ in range(rng.randint(0, 2)):
                node = add()
                link(prev, node)
                prev = node
            link(prev, nxt)
        joint = nxt
    if rng.random() < 0.1:
        links.discard(min(links))
    for _ in range(rng.randint(0, 2)):
        anchor = rng.choice(sorted(kinds))
        mesh = [add() for _ in range(rng.randint(1, 4))]
        link(anchor, mesh[0])
        for a, b in itertools.combinations(mesh, 2):
            if rng.random() < 0.5:
                link(a, b)
    interior = sorted(kinds)
    for _ in range(rng.randint(0, 2)):
        link(*rng.sample(interior, 2))

    subnets = [n for n in interior if kinds[n] == "subnet"]
    b_subnet = rng.choice(subnets) if rng.random() < 0.15 else "SB"
    nodes = [
        {"id": "A", "kind": "endpoint", "ip": "10.0.0.1"},
        {"id": "B", "kind": "endpoint", "ip": "10.0.0.9"},
        {"id": "C", "kind": "endpoint", "ip": "10.0.0.5"},
    ]
    for n in interior:
        entry = {"id": n, "kind": kinds[n]}
        if kinds[n] == "device":
            entry["controls"] = ["IpTables"] if rng.random() < 0.8 else []
        nodes.append(entry)
    links |= {("A", "SA"), ("B", b_subnet), ("C", rng.choice(subnets))}
    doc = {"name": f"series-parallel-{rng.random()}", "nodes": nodes,
           "links": [list(l) for l in sorted(links)]}
    return _parsed_both_ways(doc)


def one_line_layout(name, nodes, links):
    """A topology document in the one-line-per-entry layout: `name` is None
    or a value, `nodes` a list of (key, value) pair lists and `links` a list
    of lists, where a value is a string or a list of strings, each written
    as it is."""
    def value(v):
        return f"[{', '.join(v)}]" if isinstance(v, list) else v

    lines = [] if name is None else [f"name: {value(name)}"]
    lines.append("nodes:")
    lines += ["  - {" + ", ".join(f"{k}: {value(v)}" for k, v in pairs) + "}"
              for pairs in nodes]
    lines.append("links:")
    lines += [f"  - {value(link)}" for link in links]
    return "".join(f"{line}\n" for line in lines)


def grid_document(columns, subject, obj):
    """A topology document: a grid of two rows of `columns` capable devices,
    G<row>x<column>, each linked to its row's next device and to the other
    row's device of its column, from the subnet SA of `subject` to the
    subnet SB of `obj`, each an (id, ip) pair. The grid is one block of
    2 ** (columns + 1) routes."""
    last = columns - 1
    nodes = [[("id", node), ("kind", "endpoint"), ("ip", ip)] for node, ip in (subject, obj)]
    nodes += [[("id", subnet), ("kind", "subnet")] for subnet in ("SA", "SB")]
    nodes += [[("id", f"G{row}x{column}"), ("kind", "device"), ("controls", ["IpTables"])]
              for column in range(columns) for row in range(2)]
    links = [[subject[0], "SA"], [obj[0], "SB"]]
    for row in range(2):
        links += [["SA", f"G{row}x0"], [f"G{row}x{last}", "SB"]]
        links += [[f"G{row}x{column}", f"G{row}x{column + 1}"] for column in range(last)]
    links += [[f"G0x{column}", f"G1x{column}"] for column in range(columns)]
    return one_line_layout(None, nodes, links)


def _parsed_both_ways(doc):
    """`doc` parsed from `yaml.safe_dump`'s block style, which PyYAML reads,
    and from the one-line layout, which parse_topology reads without it. The
    two must give an equal topology."""
    import yaml

    block = topology.parse_topology(yaml.safe_dump(doc))
    line = one_line_layout(
        doc["name"], [list(node.items()) for node in doc["nodes"]], doc["links"])
    assert topology._read_layout(line) is not None, line
    assert topology.parse_topology(line) == block
    return block


def link_set(topo):
    """The topology's links, as a set of two-id frozensets."""
    return {frozenset((a, b)) for a, ends in topo.adjacency.items() for b in ends}


def oracle_simple_paths(topo, subject, obj):
    """Exhaustive DFS over the link set; endpoints never intermediate."""
    adjacency = {}
    for pair in link_set(topo):
        a, b = tuple(pair)
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)

    results = []

    def walk(current, seen, trail):
        for nxt in adjacency.get(current, ()):  # order irrelevant: results sorted
            if nxt == obj:
                results.append(tuple(trail))
            elif nxt not in seen and topo.nodes[nxt].kind != "endpoint":
                walk(nxt, seen | {nxt}, trail + [nxt])

    walk(subject, {subject}, [])
    return sorted(results)


def oracle_verdicts(report):
    """Each path's (route, first blocking device) of verify's report, in path
    order, by a plain product of its segments' verdicts; [] when there is no
    path."""
    if not report.segments:
        return []
    return [(", ".join(route for route, _ in combo),
             next((device for _, device in combo if device is not None), None))
            for combo in itertools.product(*report.segments)]


def oracle_min_cover(capable_per_path):
    """Smallest device subset hitting every path's capable set, or None."""
    if any(not s for s in capable_per_path):
        return None
    universe = sorted(set().union(*capable_per_path))
    for size in range(1, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            if all(set(combo) & s for s in capable_per_path):
                return set(combo)
    return None
