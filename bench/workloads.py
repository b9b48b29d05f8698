"""Seeded input generators for the benchmark workloads, with their oracles.

Every expected value here (paths, covers, rule files, indicator counts,
verify verdicts) follows from how the input was built. Nothing in this file
imports intentrefine, so the checks stay independent of the code under test.

The seed drives node ids, declaration order and indicator values. Ids have a
fixed length and a fixed rank pattern, so a different seed renames the
nodes without changing how much search the placement does.
"""

from __future__ import annotations

import json
import os
import random
import string
from dataclasses import dataclass, field

LADDER_STAGES = 13
CHAINS = 6
CHAIN_LENGTH = 5
BULK_ATTACKERS = 100
BULK_DOMAINS = 20

EXIT_OK = 0
EXIT_BYPASS = 18

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(BENCH_DIR, "goldens")
# Read-only: the paper scenarios and the control catalog every workload uses.
FIXTURES = os.path.join(os.path.dirname(BENCH_DIR), "tests", "fixtures")
CATALOG = os.path.join(FIXTURES, "catalog.json")
ENTITY_TEMPLATE = (
    "(deftemplate entity (slot source-ip-address (type STRING)) "
    "(slot url (type STRING)))"
)
KNOWLEDGE_ENVELOPE = json.dumps({"templates": [ENTITY_TEMPLATE], "facts": []}) + "\n"

FORWARD_STATES = "NEW,ESTABLISHED"
REVERSE_STATES = "ESTABLISHED,RELATED"


@dataclass(frozen=True)
class Flow:
    """One `verify` invocation and the verdict known for it in advance."""

    subject: str
    object: str
    src_ip: str
    dst_ip: str
    l7_host: str | None
    exit_code: int
    blocked: int  # BLOCKED lines expected; any other line is a bypass
    allowed: int
    blockers: frozenset[str]  # devices a BLOCKED line may name

    def args(self) -> list[str]:
        args = ["--subject", self.subject, "--object", self.object,
                "--src-ip", self.src_ip, "--dst-ip", self.dst_ip]
        if self.l7_host:
            args += ["--l7-host", self.l7_host]
        return args


@dataclass
class Case:
    """One pipeline instance: the inputs of `run` and what it must produce.

    `inputs` maps a CLI flag to a file name in the generated input directory,
    or to an absolute fixture path (`paper`).
    """

    name: str
    inputs: dict[str, str]
    intents: list[str]
    rules: dict[str, str]  # device -> exact rules file content
    facts: int  # facts in the emitted knowledge.json
    flows: list[Flow]

    @property
    def cover(self) -> list[str]:
        return sorted(self.rules)

    def output_names(self) -> set[str]:
        names = {"knowledge.json", "artifacts.json", "manifest.json"}
        for device in self.rules:
            names |= {f"{device}.mspl.xml", f"{device}.rules"}
        return names


@dataclass
class Workload:
    name: str
    params: dict
    files: dict[str, str] = field(default_factory=dict)  # generated inputs
    cases: list[Case] = field(default_factory=list)


# --- oracles ----------------------------------------------------------------

def iptables_rules(pairs: list[tuple[str, str]]) -> str:
    """Rules file of a stateful network device for (subject ip, object ip)
    pairs, forward rule before reverse rule, in intent order."""
    lines = []
    for src, dst in pairs:
        lines.append(f"iptables -A FORWARD -m conntrack --ctstate {FORWARD_STATES} "
                     f"-s {src} -d {dst} -j DROP\n")
        lines.append(f"iptables -A FORWARD -m conntrack --ctstate {REVERSE_STATES} "
                     f"-s {dst} -d {src} -j DROP\n")
    return "".join(lines)


def modsecurity_rules(hosts: list[str]) -> str:
    """Rules file of a host-header device, ids numbered from 1 per file."""
    return "".join(
        f'SecRule REQUEST_HEADERS:Host "@rx ^{host.replace(".", chr(92) + ".")}$" \\\n'
        f'  "deny, id:{number}"\n'
        for number, host in enumerate(hosts, start=1)
    )


# --- id and value generation ------------------------------------------------

_ALNUM = string.ascii_lowercase + string.digits


def _ids(rng: random.Random, prefix: str, count: int) -> list[str]:
    """`count` distinct fixed-length ids, sorted."""
    ids: set[str] = set()
    while len(ids) < count:
        ids.add(prefix + rng.choice(string.ascii_lowercase)
                + "".join(rng.choice(_ALNUM) for _ in range(5)))
    return sorted(ids)


def _ips(rng: random.Random, count: int) -> list[str]:
    """`count` distinct private addresses with three-digit octets."""
    ips: set[str] = set()
    while len(ips) < count:
        ips.add("10." + ".".join(str(rng.randint(100, 254)) for _ in range(3)))
    return sorted(ips)


def _domains(rng: random.Random, count: int) -> list[str]:
    domains: set[str] = set()
    while len(domains) < count:
        label = "".join(rng.choice(string.ascii_lowercase) for _ in range(8))
        domains.add(f"{label}.{rng.choice(('com', 'net', 'org'))}")
    return sorted(domains)


def _topology(rng: random.Random, name: str, nodes: list[str],
              links: list[tuple[str, str]]) -> str:
    nodes = list(nodes)
    links = [pair if rng.random() < 0.5 else pair[::-1] for pair in links]
    rng.shuffle(nodes)
    rng.shuffle(links)
    return (f"name: {name}\nnodes:\n" + "".join(f"  - {n}\n" for n in nodes)
            + "links:\n" + "".join(f"  - [{a}, {b}]\n" for a, b in links))


def _endpoint(node_id: str, ip: str, domains: list[str] = ()) -> str:
    extra = f", domains: [{', '.join(domains)}]" if domains else ""
    return f"{{id: {node_id}, kind: endpoint, ip: {ip}{extra}}}"


def _subnet(node_id: str) -> str:
    return f"{{id: {node_id}, kind: subnet}}"


def _device(node_id: str, control: str) -> str:
    return f"{{id: {node_id}, kind: device, controls: [{control}]}}"


def _hspl(intents: list[tuple[str, str, str]]) -> str:
    body = "".join(
        f'  <hspl id="{hid}">\n    <subject>{subject}</subject>\n'
        f"    <action>is not authorized to access</action>\n"
        f"    <object>{obj}</object>\n  </hspl>\n"
        for hid, subject, obj in intents
    )
    return f"<hspls>\n{body}</hspls>\n"


def _source_sentence(ip: str) -> str:
    return f"Scanning traffic was observed originating from {ip} in the last week."


def _single_attacker(rng: random.Random, name: str, nodes: list[str],
                     links: list[tuple[str, str]], first_subnet: str,
                     last_subnet: str, cover: list[str], paths: int,
                     params: dict) -> Workload:
    """Shared frame of `ladder` and `chains`: one attacker, one target, one
    intent, and an indicator learnt from a one-sentence report."""
    attacker, target = _ids(rng, "h", 2)
    attacker_ip, target_ip = _ips(rng, 2)
    hid = _ids(rng, "i", 1)[0]
    nodes = nodes + [_endpoint(attacker, attacker_ip), _endpoint(target, target_ip)]
    links = links + [(attacker, first_subnet), (target, last_subnet)]
    w = Workload(name=name, params=params)
    w.files = {
        "topology.yaml": _topology(rng, name, nodes, links),
        "hspl.xml": _hspl([(hid, attacker, target)]),
        "knowledge.json": KNOWLEDGE_ENVELOPE,
        "cti.txt": _source_sentence(attacker_ip) + "\n",
    }
    rules = iptables_rules([(attacker_ip, target_ip)])
    w.cases = [Case(
        name=name,
        inputs={"--topology": "topology.yaml", "--hspl": "hspl.xml",
                "--knowledge": "knowledge.json", "--cti": "cti.txt"},
        intents=[hid],
        rules={device: rules for device in cover},
        facts=1,
        flows=[Flow(attacker, target, attacker_ip, target_ip, None, EXIT_OK,
                    blocked=paths, allowed=0, blockers=frozenset(cover))],
    )]
    return w


# --- workloads --------------------------------------------------------------

def ladder(seed: int) -> Workload:
    """LADDER_STAGES stages, each two capable devices in parallel between
    consecutive subnets: 2**LADDER_STAGES simple paths, minimum cover 2."""
    rng = random.Random(f"ladder:{seed}")
    device_ids = _ids(rng, "d", 2 * LADDER_STAGES)
    subnets = _ids(rng, "s", LADDER_STAGES + 1)
    # Each stage owns two consecutive ranks, so the lexicographically first
    # pair of candidates is a cover. That pair always sits in the middle stage:
    # verify walks each path up to its first blocking device.
    order = list(range(1, LADDER_STAGES))
    rng.shuffle(order)
    order.insert(LADDER_STAGES // 2, 0)
    pairs = []
    for stage in range(LADDER_STAGES):
        pair = device_ids[2 * order[stage]: 2 * order[stage] + 2]
        rng.shuffle(pair)
        pairs.append(pair)
    nodes = [_subnet(s) for s in subnets]
    links = []
    for stage, pair in enumerate(pairs):
        for device in pair:
            nodes.append(_device(device, "IpTables"))
            links += [(subnets[stage], device), (device, subnets[stage + 1])]
    cover = sorted(device_ids[:2])
    return _single_attacker(rng, "ladder", nodes, links, subnets[0], subnets[-1],
                            cover, 2 ** LADDER_STAGES, {"stages": LADDER_STAGES})


def chains(seed: int) -> Workload:
    """CHAINS disjoint chains of CHAIN_LENGTH capable devices between two
    subnets: CHAINS simple paths, minimum cover one device per chain."""
    rng = random.Random(f"chains:{seed}")
    device_ids = _ids(rng, "d", CHAINS * CHAIN_LENGTH)
    source, sink = _ids(rng, "s", 2)
    nodes = [_subnet(source), _subnet(sink)]
    links = []
    cover = []
    # Chain c owns the next CHAIN_LENGTH ranks: the search visits the same
    # number of subsets for every seed, and the cover is each chain's minimum.
    for c in range(CHAINS):
        chain = device_ids[c * CHAIN_LENGTH:(c + 1) * CHAIN_LENGTH]
        cover.append(chain[0])
        rng.shuffle(chain)
        nodes += [_device(d, "IpTables") for d in chain]
        hops = [source] + chain + [sink]
        links += list(zip(hops, hops[1:]))
    return _single_attacker(rng, "chains", nodes, links, source, sink,
                            sorted(cover), CHAINS,
                            {"chains": CHAINS, "chain_length": CHAIN_LENGTH})


def bulk(seed: int) -> Workload:
    """FW1 and FW2 in parallel, then a WAF, in front of one web server;
    BULK_ATTACKERS endpoints share one subnet and each has one intent. The
    report lists every attacker address and BULK_DOMAINS served domains."""
    rng = random.Random(f"bulk:{seed}")
    attacker_ids = _ids(rng, "h", BULK_ATTACKERS)
    server = _ids(rng, "w", 1)[0]
    s_out, s_mid, s_in = _ids(rng, "s", 3)
    ips = _ips(rng, BULK_ATTACKERS + 2)
    rng.shuffle(ips)
    attacker_ips, server_ip, unlisted_ip = ips[:BULK_ATTACKERS], ips[-2], ips[-1]
    hosts = _domains(rng, BULK_DOMAINS)
    intent_ids = _ids(rng, "i", BULK_ATTACKERS)

    nodes = [_subnet(s) for s in (s_out, s_mid, s_in)]
    nodes += [_device("FW1", "IpTables"), _device("FW2", "IpTables"),
              _device("WAF", "ModSecurity"), _endpoint(server, server_ip, hosts)]
    nodes += [_endpoint(a, ip) for a, ip in zip(attacker_ids, attacker_ips)]
    links = [(s_out, "FW1"), (s_out, "FW2"), ("FW1", s_mid), ("FW2", s_mid),
             (s_mid, "WAF"), ("WAF", s_in), (server, s_in)]
    links += [(a, s_out) for a in attacker_ids]

    intents = list(zip(intent_ids, attacker_ids))
    rng.shuffle(intents)
    sentences = [(_source_sentence(ip), ("ip", ip)) for ip in attacker_ips]
    sentences += [(f"Payloads were staged at {h} for later retrieval.", ("url", h))
                  for h in hosts]
    rng.shuffle(sentences)
    report_hosts = [v for _, (kind, v) in sentences if kind == "url"]
    ip_of = dict(zip(attacker_ids, attacker_ips))

    w = Workload(name="bulk",
                 params={"attackers": BULK_ATTACKERS, "domains": BULK_DOMAINS})
    w.files = {
        "topology.yaml": _topology(rng, "bulk", nodes, links),
        "hspl.xml": _hspl([(hid, a, server) for hid, a in intents]),
        "knowledge.json": KNOWLEDGE_ENVELOPE,
        "cti.txt": "\n".join(s for s, _ in sentences) + "\n",
    }
    network = iptables_rules([(ip_of[a], server_ip) for _, a in intents])
    # One artifact per intent per served domain, in report order.
    waf = modsecurity_rules([h for _ in intents for h in report_hosts])
    probe = intents[rng.randrange(BULK_ATTACKERS)][1]
    w.cases = [Case(
        name="bulk",
        inputs={"--topology": "topology.yaml", "--hspl": "hspl.xml",
                "--knowledge": "knowledge.json", "--cti": "cti.txt"},
        intents=[hid for hid, _ in intents],
        rules={"FW1": network, "FW2": network, "WAF": waf},
        facts=BULK_ATTACKERS + BULK_DOMAINS,
        flows=[
            Flow(probe, server, ip_of[probe], server_ip, None, EXIT_OK,
                 blocked=2, allowed=0, blockers=frozenset({"FW1", "FW2"})),
            Flow(probe, server, unlisted_ip, server_ip, None, EXIT_BYPASS,
                 blocked=0, allowed=2, blockers=frozenset()),
        ],
    )]
    return w


def _golden(name: str) -> str:
    with open(os.path.join(GOLDENS, name), encoding="utf-8") as fh:
        return fh.read()


def paper(seed: int) -> Workload:
    """The two committed scenarios. Scenario 1 learns its indicator from the
    CTI report and scenario 2 reads its knowledge envelope, so both input
    routes run; the seed does not change these inputs."""
    s1, s2 = f"{FIXTURES}/scenario1", f"{FIXTURES}/scenario2"
    golden_iptables = _golden("scenario1.rules")
    golden_modsecurity = _golden("scenario2.WAF.rules")
    w = Workload(name="paper", params={"scenarios": 2})
    w.cases = [
        Case(
            name="scenario1",
            inputs={"--topology": f"{s1}/topology.yaml", "--hspl": f"{s1}/hspl.xml",
                    "--cti": f"{s1}/cti.txt"},
            intents=["hspl1"],
            rules={"FW1": golden_iptables, "FW3": golden_iptables},
            facts=1,
            flows=[Flow("Eve", "Bob", "80.71.158.96", "172.19.0.3", None, EXIT_OK,
                        blocked=3, allowed=0, blockers=frozenset({"FW1", "FW3"}))],
        ),
        Case(
            name="scenario2",
            inputs={"--topology": f"{s2}/topology.yaml", "--hspl": f"{s2}/hspl.xml",
                    "--knowledge": f"{s2}/knowledge.json"},
            intents=["hspl2"],
            rules={"WAF": golden_modsecurity},
            facts=1,
            flows=[Flow("Alice", "WebServer", "172.20.0.2", "172.20.0.3",
                        "hadleyshope.3utilities.com", EXIT_OK,
                        blocked=2, allowed=0, blockers=frozenset({"WAF"}))],
        ),
    ]
    return w


GENERATORS = {"paper": paper, "ladder": ladder, "chains": chains, "bulk": bulk}
