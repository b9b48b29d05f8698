"""One oracle across every stage, on random topologies through `cli.main`.

Each example draws a topology from tests/randomtopo.py, intents between
distinct pairs of its endpoints, and network-layer facts naming them. Whether
the intents are enforceable is decided by `oracle_simple_paths` and the
devices' controls, not by the library. An enforceable example must pass:

- `run`, then `verify` of each intent's flow, exits 0 with every path
  BLOCKED;
- dropping an intent's rules on any one device it was placed on makes
  `verify` exit 18 with a bypass path through that device, so no selected
  device is redundant;
- `refine`, then `convert` and `translate`, write the bytes `run` writes;
- a second `run` on the KB the first wrote logs only hits and writes the
  same bytes.

An unenforceable one must exit 10 and write nothing. No two intents share an
endpoint pair: one intent's reverse rule blocks the other direction's flow,
which would hide a bypass.
"""

import itertools
import json
import random

from intentrefine import cli, topology

from conftest import EXIT_CODES_BY_NAME, FIXTURES
from randomtopo import (
    link_set, oracle_simple_paths, random_topology, series_parallel_topology)

# Fixed: lowering it weakens the oracle.
EXAMPLES = 60

TEMPLATE = (
    "(deftemplate entity (slot source-ip-address (type STRING))"
    " (slot destination-ip-address (type STRING)))"
)


def run_cli(*args):
    return cli.main([str(a) for a in args])


def read_tree(out_dir):
    return {p.name: p.read_text() for p in sorted(out_dir.iterdir())
            if not p.name.startswith(".")}


def _example(seed):
    """(topology, intents as (id, subject, object), facts) of one example."""
    rng = random.Random(seed)
    generate = random_topology if seed % 2 else series_parallel_topology
    t = generate(rng)
    endpoints = sorted(n.id for n in t.nodes.values() if n.kind == "endpoint")
    pairs = list(itertools.combinations(endpoints, 2))
    # mostly pairs the oracle finds enforceable, so most examples run through
    enforceable = [pair for pair in pairs if _enforceable(t, *pair)]
    if enforceable and rng.random() < 0.8:
        pairs = enforceable
    intents = [
        (f"h{i}", *(pair if rng.random() < 0.5 else pair[::-1]))
        for i, pair in enumerate(rng.sample(pairs, rng.randint(1, len(pairs))))
    ]
    facts = []
    for _id, subject, obj in intents:
        if rng.random() < 0.5:
            facts.append(f'(entity (source-ip-address "{t.nodes[subject].ip}"))')
        else:
            facts.append(f'(entity (destination-ip-address "{t.nodes[obj].ip}"))')
    if rng.random() < 0.3:
        facts.insert(rng.randint(0, len(facts)),
                     '(entity (destination-ip-address "10.9.9.9"))')
    return t, intents, facts


def _document(t):
    """A topology document that parses to `t`: JSON, which PyYAML reads."""
    return json.dumps({
        "name": t.name,
        "nodes": [{"id": n.id, "kind": n.kind, "ip": n.ip,
                   "domains": sorted(n.domains), "controls": list(n.controls)}
                  for n in t.nodes.values()],
        "links": sorted(map(sorted, link_set(t))),
    })


def _enforceable(t, subject, obj):
    """Whether some route joins the endpoints and every one of them holds a
    device with a control, by the oracle's own walk."""
    paths = oracle_simple_paths(t, subject, obj)
    return bool(paths) and all(
        any(t.nodes[n].kind == "device" and t.nodes[n].controls for n in path)
        for path in paths
    )


def test_every_stage_agrees_on_random_topologies(tmp_path, capsys, caplog):
    enforced = 0
    for seed in range(EXAMPLES):
        t, intents, facts = _example(seed)
        work = tmp_path / str(seed)
        work.mkdir()
        files = {
            "topology": work / "topology.json",
            "hspl": work / "hspl.xml",
            "knowledge": work / "knowledge.json",
        }
        files["topology"].write_text(_document(t))
        assert topology.parse_topology(files["topology"].read_text()) == t, seed
        files["hspl"].write_text("<hspls>" + "".join(
            f'<hspl id="{hid}"><subject>{s}</subject>'
            f"<action>is not authorized to access</action><object>{o}</object></hspl>"
            for hid, s, o in intents) + "</hspls>")
        files["knowledge"].write_text(json.dumps({"templates": [TEMPLATE], "facts": facts}))
        inputs = ["--topology", files["topology"], "--hspl", files["hspl"],
                  "--knowledge", files["knowledge"],
                  "--catalog", FIXTURES / "catalog.json"]
        out, kb = work / "out", work / "kb.json"

        code = run_cli("run", *inputs, "--kb", kb, "--out", out)
        if not all(_enforceable(t, s, o) for _, s, o in intents):
            assert code == EXIT_CODES_BY_NAME["Unenforceable"], seed
            assert not out.exists() and not kb.exists(), seed
            continue
        assert code == 0, (seed, capsys.readouterr().err)
        enforced += 1
        tree = read_tree(out)
        artifacts = json.loads(tree["artifacts.json"])

        for hid, subject, obj in intents:
            flow = ["--topology", files["topology"], "--catalog", FIXTURES / "catalog.json",
                    "--subject", subject, "--object", obj,
                    "--src-ip", t.nodes[subject].ip, "--dst-ip", t.nodes[obj].ip]
            capsys.readouterr()
            assert run_cli("verify", *flow, "--artifacts", out / "artifacts.json") == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines and all(line.startswith("BLOCKED path ") for line in lines), seed

            devices = sorted({a["device"] for a in artifacts if a["hsplid"] == hid})
            assert devices, (seed, hid)
            for device in devices:
                dropped = work / "dropped.json"
                dropped.write_text(json.dumps([
                    a for a in artifacts if (a["hsplid"], a["device"]) != (hid, device)]))
                assert run_cli("verify", *flow, "--artifacts", dropped) == cli.EXIT_BYPASS
                bypasses = [line.split(" path ", 1)[1]
                            for line in capsys.readouterr().out.splitlines()
                            if line.startswith("ALLOWED (bypass) path ")]
                assert any(repr(device) in route for route in bypasses), (seed, hid, device)

        staged = work / "staged"
        assert run_cli("refine", *inputs, "--out", staged) == 0
        assert run_cli("convert", "--out", staged) == 0
        assert run_cli("translate", "--out", staged,
                       "--catalog", FIXTURES / "catalog.json") == 0
        assert read_tree(staged) == {
            name: text for name, text in tree.items()
            if name not in ("knowledge.json", "manifest.json")
        }, seed

        recorded = kb.read_text()
        caplog.clear()
        with caplog.at_level("INFO"):
            assert run_cli("run", *inputs, "--kb", kb, "--out", out) == 0
        reuse = [r.getMessage() for r in caplog.records if "event=kb_reuse" in r.getMessage()]
        assert reuse == [
            f"stage=refiner event=kb_reuse intent={hid} result=hit" for hid, _, _ in intents
        ], seed
        assert read_tree(out) == tree and kb.read_text() == recorded, seed
    # the examples are fixed; most are enforceable
    assert enforced >= EXAMPLES // 2
