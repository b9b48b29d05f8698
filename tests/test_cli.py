import ast
import contextlib
import json
import os
import pathlib
import random
import re
import resource
import signal
import stat
import subprocess
import sys

import pytest

from intentrefine import cli, converter, errors, factbase, refiner, topology, translator
from intentrefine.converter import MsplPolicy, MsplRule
from intentrefine.refiner import CapabilityInstance

from conftest import EXIT_CODES_BY_NAME, FIXTURES
from randomtopo import grid_document, link_set


def run_cli(*args):
    return cli.main([str(a) for a in args])


def scenario_flags(scenario, tmp_path, kb=True):
    flags = [
        "--topology", FIXTURES / scenario / "topology.yaml",
        "--hspl", FIXTURES / scenario / "hspl.xml",
        "--knowledge", FIXTURES / scenario / "knowledge.json",
        "--catalog", FIXTURES / "catalog.json",
        "--out", tmp_path / "out",
    ]
    if kb:
        flags += ["--kb", tmp_path / "kb.json"]
    return flags


def read_tree(out_dir):
    return {
        p.name: p.read_text()
        for p in sorted(pathlib.Path(out_dir).iterdir())
        if not p.name.startswith(".")
    }


def kb_records(path):
    """Each intent's record in the KB file at `path`: its
    `[subject, action, object]` and its group's placement."""
    return {hid: (record, group["placement"])
            for group in json.loads(path.read_text())["placements"]
            for hid, record in group["intents"].items()}


def per_intent_layout(kb_path):
    """The KB at `kb_path` as earlier versions wrote it: one entry per intent
    holding its strings and its placement."""
    return {"intents": {
        hid: {"subject": subject, "action": action, "object": obj, "placement": placement}
        for hid, ([subject, action, obj], placement) in kb_records(kb_path).items()}}


def test_run_scenario1_outputs(tmp_path):
    assert run_cli("run", *scenario_flags("scenario1", tmp_path)) == 0
    tree = read_tree(tmp_path / "out")
    assert set(tree) == {
        "knowledge.json", "artifacts.json", "FW1.mspl.xml", "FW1.rules",
        "FW3.mspl.xml", "FW3.rules", "manifest.json",
    }
    artifacts = json.loads(tree["artifacts.json"])
    assert [(a["device"], a["nsf"]) for a in artifacts] == [
        ("FW1", "IpTables")] * 2 + [("FW3", "IpTables")] * 2


def test_run_scenario2_outputs(tmp_path):
    assert run_cli("run", *scenario_flags("scenario2", tmp_path)) == 0
    tree = read_tree(tmp_path / "out")
    assert "WAF.rules" in tree and "WAF.mspl.xml" in tree


def test_manifest_lists_all_files_with_digests(tmp_path):
    run_cli("run", *scenario_flags("scenario1", tmp_path))
    tree = read_tree(tmp_path / "out")
    manifest = json.loads(tree["manifest.json"])
    assert set(manifest["files"]) == set(tree) - {"manifest.json"}
    import hashlib

    for name, digest in manifest["files"].items():
        assert hashlib.sha256(tree[name].encode()).hexdigest() == digest


def test_unenforceable_exit_code_and_no_partial_outputs(tmp_path):
    code = run_cli(
        "run",
        "--topology", FIXTURES / "scenario1" / "topology_unenforceable.yaml",
        "--hspl", FIXTURES / "scenario1" / "hspl.xml",
        "--knowledge", FIXTURES / "scenario1" / "knowledge.json",
        "--catalog", FIXTURES / "catalog.json",
        "--out", tmp_path / "out",
    )
    assert code == EXIT_CODES_BY_NAME["Unenforceable"]
    assert not (tmp_path / "out").exists() or not read_tree(tmp_path / "out")


def test_unenforceable_names_the_path(tmp_path, capsys):
    run_cli(
        "run",
        "--topology", FIXTURES / "scenario1" / "topology_unenforceable.yaml",
        "--hspl", FIXTURES / "scenario1" / "hspl.xml",
        "--knowledge", FIXTURES / "scenario1" / "knowledge.json",
        "--catalog", FIXTURES / "catalog.json",
        "--out", tmp_path / "out",
    )
    err = capsys.readouterr().err
    assert "Unenforceable" in err
    assert "FW2" in err and "FW3" in err


def test_missing_knowledge_slot_exit_code(tmp_path):
    bad = tmp_path / "knowledge.json"
    bad.write_text(json.dumps({
        "templates": ["(deftemplate entity (slot destination-ip-address (type STRING)))"],
        "facts": ['(entity (url "hadleyshope.3utilities.com"))'],
    }))
    code = run_cli(
        "run",
        "--topology", FIXTURES / "scenario2" / "topology.yaml",
        "--hspl", FIXTURES / "scenario2" / "hspl.xml",
        "--knowledge", bad,
        "--catalog", FIXTURES / "catalog.json",
        "--out", tmp_path / "out",
    )
    assert code == EXIT_CODES_BY_NAME["UnknownSlot"]


def test_extract_writes_knowledge(tmp_path):
    assert run_cli(
        "extract",
        "--cti", FIXTURES / "scenario1" / "cti.txt",
        "--out", tmp_path / "out",
    ) == 0
    envelope = json.loads((tmp_path / "out" / "knowledge.json").read_text())
    assert any("80.71.158.96" in f for f in envelope["facts"])


def test_stage_composability_equals_run(tmp_path):
    """extract -> refine -> convert -> translate == one run invocation."""
    run_dir = tmp_path / "single"
    staged_dir = tmp_path / "staged"

    assert run_cli(
        "run",
        "--topology", FIXTURES / "scenario1" / "topology.yaml",
        "--hspl", FIXTURES / "scenario1" / "hspl.xml",
        "--cti", FIXTURES / "scenario1" / "cti.txt",
        "--catalog", FIXTURES / "catalog.json",
        "--out", run_dir,
    ) == 0

    assert run_cli(
        "extract",
        "--cti", FIXTURES / "scenario1" / "cti.txt",
        "--out", staged_dir,
    ) == 0
    assert run_cli(
        "refine",
        "--topology", FIXTURES / "scenario1" / "topology.yaml",
        "--hspl", FIXTURES / "scenario1" / "hspl.xml",
        "--knowledge", staged_dir / "knowledge.json",
        "--catalog", FIXTURES / "catalog.json",
        "--out", staged_dir,
    ) == 0
    assert run_cli("convert", "--out", staged_dir) == 0
    assert run_cli(
        "translate", "--out", staged_dir, "--catalog", FIXTURES / "catalog.json"
    ) == 0

    run_tree = read_tree(run_dir)
    staged_tree = read_tree(staged_dir)
    for name in set(run_tree) - {"manifest.json"}:
        assert staged_tree[name] == run_tree[name], name


def test_verify_subcommand_blocked_and_bypass(tmp_path, capsys):
    out = tmp_path / "out"
    run_cli("run", *scenario_flags("scenario1", tmp_path, kb=False))
    code = run_cli(
        "verify",
        "--topology", FIXTURES / "scenario1" / "topology.yaml",
        "--catalog", FIXTURES / "catalog.json",
        "--artifacts", out / "artifacts.json",
        "--subject", "Eve", "--object", "Bob",
        "--src-ip", "80.71.158.96", "--dst-ip", "172.19.0.3",
    )
    assert code == 0
    assert capsys.readouterr().out.count("BLOCKED") == 3

    # strip FW3's artifacts: the FW2-FW3 path becomes a bypass
    artifacts = json.loads((out / "artifacts.json").read_text())
    partial = [a for a in artifacts if a["device"] != "FW3"]
    partial_path = tmp_path / "partial.json"
    partial_path.write_text(json.dumps(partial))
    code = run_cli(
        "verify",
        "--topology", FIXTURES / "scenario1" / "topology.yaml",
        "--catalog", FIXTURES / "catalog.json",
        "--artifacts", partial_path,
        "--subject", "Eve", "--object", "Bob",
        "--src-ip", "80.71.158.96", "--dst-ip", "172.19.0.3",
    )
    assert code == cli.EXIT_BYPASS
    assert "bypass" in capsys.readouterr().out


def test_rerun_is_byte_identical_and_cache_hits(tmp_path, caplog):
    flags = scenario_flags("scenario1", tmp_path)
    assert run_cli("run", *flags) == 0
    first = read_tree(tmp_path / "out")
    first_kb = (tmp_path / "kb.json").read_text()
    kb_file = (tmp_path / "kb.json").stat()

    with caplog.at_level("INFO"):
        assert run_cli("run", *flags) == 0
    second = read_tree(tmp_path / "out")
    assert second == first
    assert (tmp_path / "kb.json").read_text() == first_kb
    # a KB whose text would not change is not written again
    again = (tmp_path / "kb.json").stat()
    assert (again.st_ino, again.st_mtime_ns) == (kb_file.st_ino, kb_file.st_mtime_ns)
    messages = [r.message for r in caplog.records]
    assert any("event=kb_reuse intent=hspl1 result=hit" in m for m in messages)
    assert not any("result=miss" in m or "corrupt" in m for m in messages)


def test_topology_change_forces_recompute(tmp_path, caplog):
    flags = scenario_flags("scenario1", tmp_path)
    assert run_cli("run", *flags) == 0

    modified = tmp_path / "topology.yaml"
    base = (FIXTURES / "scenario1" / "topology.yaml").read_text()
    modified.write_text(base.replace("  - [FW2, FW3]\n", ""))
    flags[1] = modified
    with caplog.at_level("INFO"):
        assert run_cli("run", *flags) == 0
    reuse = [r.message for r in caplog.records if "event=kb_reuse" in r.message]
    assert reuse == ["stage=refiner event=kb_reuse intent=hspl1 "
                     "result=stale added= removed=network:FW3:IpTables"]
    assert kb_records(tmp_path / "kb.json") == {
        "hspl1": (["Eve", "deny-access", "Bob"], {"network": {"FW1": "IpTables"}})}


def test_topology_edit_off_every_route_is_a_hit_with_the_same_outputs(tmp_path, caplog):
    """A subnet hung off FW2 lies on no route of hspl1, so the placement
    stays: the rerun on the edited topology is a hit, and the outputs and KB
    stay byte-identical."""
    flags = scenario_flags("scenario1", tmp_path)
    assert run_cli("run", *flags) == 0
    first, first_kb = read_tree(tmp_path / "out"), (tmp_path / "kb.json").read_text()

    modified = tmp_path / "topology.yaml"
    base = (FIXTURES / "scenario1" / "topology.yaml").read_text()
    subnet4 = "  - {id: Subnet4, kind: subnet}\n"
    subnet5 = "  - {id: Subnet5, kind: subnet}\n"
    modified.write_text(base.replace(subnet4, subnet4 + subnet5) + "  - [FW2, Subnet5]\n")
    assert topology.parse_topology(modified.read_text()).neighbors("Subnet5") == ("FW2",)
    flags[1] = modified
    with caplog.at_level("INFO"):
        assert run_cli("run", *flags) == 0
    reuse = [r.message for r in caplog.records if "event=kb_reuse" in r.message]
    assert reuse == ["stage=refiner event=kb_reuse intent=hspl1 result=hit"]
    assert read_tree(tmp_path / "out") == first
    assert (tmp_path / "kb.json").read_text() == first_kb


def test_records_of_other_intents_survive_a_topology_change(tmp_path, caplog):
    """Scenario 2, then scenario 1 on the same KB, with its other topology:
    hspl2's record is kept as scenario 2 wrote it, so a rerun of scenario 2
    is a hit."""
    kb = tmp_path / "kb.json"
    assert run_cli("run", *scenario_flags("scenario2", tmp_path / "s2", kb=False),
                   "--kb", kb) == 0
    hspl2 = kb_records(kb)["hspl2"]
    assert run_cli("run", *scenario_flags("scenario1", tmp_path / "s1", kb=False),
                   "--kb", kb) == 0
    records = kb_records(kb)
    assert sorted(records) == ["hspl1", "hspl2"] and records["hspl2"] == hspl2

    caplog.clear()
    with caplog.at_level("INFO"):
        assert run_cli("run", *scenario_flags("scenario2", tmp_path / "s2", kb=False),
                       "--kb", kb) == 0
    reuse = [r.message for r in caplog.records if "event=kb_reuse" in r.message]
    assert reuse == ["stage=refiner event=kb_reuse intent=hspl2 result=hit"]


def test_kb_with_a_digest_entry_is_reused_and_rewritten_without_it(
        tmp_path, caplog, capsys):
    """Earlier versions wrote a sha256 digest of topology and catalog beside
    the records. Such a KB still loads: the key is ignored, the unchanged
    intent is a hit, and the run rewrites the KB without the key."""
    def with_digest(kb_path):
        doc = {"digest": "0123456789abcdef" * 4, **per_intent_layout(kb_path)}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    messages = _rerun_on_kb(tmp_path, caplog, capsys, with_digest)
    reuse = [m for m in messages if "event=kb_reuse" in m]
    assert reuse == ["stage=refiner event=kb_reuse intent=hspl1 result=hit"]
    assert not any("corrupt" in m for m in messages)
    assert "digest" not in (tmp_path / "kb.json").read_text()


MALFORMED_ARTIFACTS = [
    "[{}]",
    '{"a": 1}',
    "5",
    '[{"hsplid": "h", "device": "FW1", "nsf": "IpTables", "capabilities":'
    ' [{"capability": "NoSuchCapability", "detail": "x"}]}]',
    '[{"hsplid": "h", "device": ["FW1"], "nsf": "IpTables", "capabilities":'
    ' [{"capability": "DropActionCapability", "detail": "drop"}]}]',
]


@pytest.mark.parametrize("document", MALFORMED_ARTIFACTS)
def test_malformed_artifacts_exit_document_syntax(tmp_path, capsys, document):
    artifacts = tmp_path / "artifacts.json"
    artifacts.write_text(document)
    convert = run_cli("convert", "--artifacts", artifacts, "--out", tmp_path / "out")
    verify = run_cli(
        "verify",
        "--topology", FIXTURES / "scenario1" / "topology.yaml",
        "--catalog", FIXTURES / "catalog.json",
        "--artifacts", artifacts,
        "--subject", "Eve", "--object", "Bob",
        "--src-ip", "80.71.158.96", "--dst-ip", "172.19.0.3",
    )
    code = EXIT_CODES_BY_NAME["DocumentSyntaxError"]
    assert (convert, verify) == (code, code)
    err = capsys.readouterr().err
    assert err.count("error: DocumentSyntaxError: malformed artifact document") == 2
    assert "Traceback" not in err


def _address_rule(device, src, dst):
    return {
        "hsplid": "h", "device": device, "nsf": "IpTables", "capabilities": [
            {"capability": "IpSourceAddressConditionCapability", "detail": src},
            {"capability": "IpDestinationAddressConditionCapability", "detail": dst},
            {"capability": "DropActionCapability", "detail": "drop"},
        ],
    }


def verify_eve_to_bob(artifacts_path, src_ip="80.71.158.96"):
    return run_cli(
        "verify",
        "--topology", FIXTURES / "scenario1" / "topology.yaml",
        "--catalog", FIXTURES / "catalog.json",
        "--artifacts", artifacts_path,
        "--subject", "Eve", "--object", "Bob",
        "--src-ip", src_ip, "--dst-ip", "172.19.0.3",
    )


class WriteOnly:
    """A text stream with `write` and `flush` alone, as a caller capturing
    the output in process may pass."""

    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


def test_verify_writes_one_line_per_path_through_write_alone(tmp_path):
    flags = ["--topology", FIXTURES / "scenario1" / "topology.yaml",
             "--catalog", FIXTURES / "catalog.json"]
    flow = ["--subject", "Eve", "--object", "Bob",
            "--src-ip", "80.71.158.96", "--dst-ip", "172.19.0.3"]
    run_cli("run", *scenario_flags("scenario1", tmp_path, kb=False))
    artifacts = tmp_path / "out" / "artifacts.json"
    sink = WriteOnly()
    with contextlib.redirect_stdout(sink):
        code = run_cli("verify", *flags, "--artifacts", artifacts, *flow)
    assert code == 0
    t = topology.parse_topology((FIXTURES / "scenario1" / "topology.yaml").read_text())
    paths = topology.enumerate_paths(t, "Eve", "Bob")
    blockers = ["FW1", "FW1", "FW3"]
    assert "".join(sink.parts) == "".join(
        f"BLOCKED path {list(p.intermediate)} at {d}\n" for p, d in zip(paths, blockers))


def test_verify_honours_range_and_union_rules(tmp_path, capsys):
    """The verifier drops what the rendered --src-range/--dst-range and union
    rules drop, not only exact address pairs."""
    artifacts = tmp_path / "artifacts.json"
    artifacts.write_text(json.dumps([
        _address_rule("FW1", "80.71.158.0-80.71.158.255", "172.19.0.3"),
        _address_rule("FW3", "10.0.0.1,80.71.158.96", "172.19.0.0-172.19.0.255"),
    ]))
    assert verify_eve_to_bob(artifacts) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" at ", 1)[1] for line in out] == ["FW1", "FW1", "FW3"]

    assert verify_eve_to_bob(artifacts, src_ip="80.71.159.1") == cli.EXIT_BYPASS
    assert capsys.readouterr().out.count("bypass") == 3


@pytest.mark.parametrize("source", ["80.71.158.96", "9.9.9.9"],
                         ids=["matching-source", "other-source"])
def test_verify_rejects_a_malformed_detail_whatever_the_flow(tmp_path, capsys, source):
    """Under a rule source the flow does not match, matching never reads the
    destination; the detail is rejected all the same, as `convert` does."""
    artifacts = tmp_path / "artifacts.json"
    artifacts.write_text(json.dumps([_address_rule("FW1", source, "garbage")]))
    assert verify_eve_to_bob(artifacts) == EXIT_CODES_BY_NAME["NormalizationError"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: NormalizationError" in captured.err
    assert "Traceback" not in captured.err


SOURCE = "IpSourceAddressConditionCapability"
DESTINATION = "IpDestinationAddressConditionCapability"
DROP = "DropActionCapability"

# case -> the capabilities of one FW1 rule that carries a capability twice
REPEATED_CAPABILITIES = {
    "two-sources": [(SOURCE, "1.1.1.1"), (SOURCE, "80.71.158.96"),
                    (DESTINATION, "172.19.0.3"), (DROP, "drop")],
    "two-actions": [(SOURCE, "80.71.158.96"), (DESTINATION, "172.19.0.3"),
                    (DROP, "drop"), ("DenyActionCapability", "deny")],
    "drop-twice": [(SOURCE, "80.71.158.96"), (DESTINATION, "172.19.0.3"),
                   (DROP, "drop"), (DROP, "drop")],
}


def _mspl_of(capabilities):
    """The MSPL document of two FW1 rules, "h" and "later", each carrying
    `capabilities`, with each element written as serialize_mspl writes it."""
    instances = [CapabilityInstance(c, d) for c, d in capabilities]
    conditions = [converter.condition_of(i) for i in instances]
    actions = [i.detail for i, c in zip(instances, conditions) if c is None]
    rule = MsplRule("h", tuple(c for c in conditions if c), actions[0])
    document = converter.serialize_mspl(
        MsplPolicy("IpTables", (rule, rule._replace(id="later"))))
    extra = "".join(f"    <actionCapability>{a}</actionCapability>\n" for a in actions[1:])
    return document.replace("  </rule>", extra + "  </rule>")


@pytest.mark.parametrize("case", sorted(REPEATED_CAPABILITIES))
@pytest.mark.parametrize("command", ["convert", "translate", "verify"])
def test_a_rule_repeating_a_capability_exits_normalization(tmp_path, capsys, command, case):
    """convert, translate and verify read a rule the same way, so none of
    them keeps one of two values of a capability. The error names the first
    rule that carries it, though a later rule repeats it."""
    capabilities = REPEATED_CAPABILITIES[case]
    artifacts = tmp_path / "artifacts.json"
    artifacts.write_text(json.dumps([{
        "hsplid": hsplid, "device": "FW1", "nsf": "IpTables",
        "capabilities": [{"capability": c, "detail": d} for c, d in capabilities],
    } for hsplid in ("h", "later")]))
    out = tmp_path / "out"
    if command == "convert":
        code = run_cli("convert", "--artifacts", artifacts, "--out", out)
    elif command == "translate":
        out.mkdir()
        (out / "FW1.mspl.xml").write_text(_mspl_of(capabilities))
        code = run_cli("translate", "--out", out)
    else:
        code = verify_eve_to_bob(artifacts)
    assert code == EXIT_CODES_BY_NAME["NormalizationError"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: NormalizationError: rule 'h' must carry each capability" in captured.err
    assert "Traceback" not in captured.err
    written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert written == (["FW1.mspl.xml"] if command == "translate" else [])


def test_verify_rejects_a_flow_address_that_is_not_ipv4(tmp_path, capsys):
    run_cli("run", *scenario_flags("scenario1", tmp_path, kb=False))
    code = verify_eve_to_bob(tmp_path / "out" / "artifacts.json", src_ip="not-an-ip")
    assert code == EXIT_CODES_BY_NAME["ValidationError"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_address_less_endpoint_exits_validation(tmp_path, capsys):
    topology = tmp_path / "topology.yaml"
    base = (FIXTURES / "scenario1" / "topology.yaml").read_text()
    bob = "  - {id: Bob, kind: endpoint, ip: 172.19.0.3}\n"
    assert bob in base
    topology.write_text(base.replace(bob, "  - {id: Bob, kind: endpoint}\n"))
    flags = scenario_flags("scenario1", tmp_path)
    flags[1] = topology
    assert run_cli("run", *flags) == EXIT_CODES_BY_NAME["ValidationError"]
    err = capsys.readouterr().err
    assert "'Bob' has no ip address" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "kb.json").exists()


def _fw1_controls(value):
    fw1 = "{id: FW1, kind: device, controls: [IpTables]}"
    return lambda text: text.replace(fw1, fw1.replace("[IpTables]", value))


def _json_with(**entries):
    return lambda text: json.dumps({**json.loads(text), **entries})


def _catalog_capabilities_5(text):
    catalog = json.loads(text)
    catalog["IpTables"]["capabilities"] = 5
    return json.dumps(catalog)


# case -> (index of the input in scenario_flags, edit, error, message)
WRONG_SHAPES = {
    "topology-nodes": (1, lambda text: "nodes: 5\n",
                       "DocumentSyntaxError", "topology nodes must be a list"),
    "topology-links": (1, lambda text: text.split("links:")[0] + "links: 5\n",
                       "DocumentSyntaxError", "topology links must be a list"),
    "controls-number": (1, _fw1_controls("5"),
                        "ValidationError", "node FW1: controls must be a list"),
    "controls-string": (1, _fw1_controls("IpTables"),
                        "ValidationError", "node FW1: controls must be a list"),
    "knowledge-templates": (5, _json_with(templates=5),
                            "DocumentSyntaxError", "knowledge templates must be a list"),
    "knowledge-facts": (5, _json_with(facts=5),
                        "DocumentSyntaxError", "knowledge facts must be a list"),
    "catalog-capabilities": (7, _catalog_capabilities_5, "DocumentSyntaxError",
                             "control 'IpTables': capabilities must be a list"),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_input_of_the_wrong_shape_exits_with_its_code(tmp_path, capsys, case):
    index, edit, error, message = WRONG_SHAPES[case]
    flags = scenario_flags("scenario1", tmp_path)
    edited = tmp_path / pathlib.Path(flags[index]).name
    edited.write_text(edit(pathlib.Path(flags[index]).read_text()))
    flags[index] = edited
    assert run_cli("run", *flags) == EXIT_CODES_BY_NAME[error]
    err = capsys.readouterr().err
    assert f"error: {error}: {message}, got " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "kb.json").exists()


@pytest.mark.parametrize("stateful", ["no", "false", 0, 1])
def test_catalog_stateful_must_be_a_boolean(tmp_path, capsys, stateful):
    catalog = json.loads((FIXTURES / "catalog.json").read_text())
    catalog["IpTables"]["stateful"] = stateful
    flags = scenario_flags("scenario1", tmp_path)
    flags[7] = tmp_path / "catalog.json"
    flags[7].write_text(json.dumps(catalog))
    assert run_cli("run", *flags) == EXIT_CODES_BY_NAME["ValidationError"]
    err = capsys.readouterr().err
    assert "error: ValidationError: control 'IpTables': stateful must be true or false" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "kb.json").exists()


def test_extract_rejects_a_name_it_could_not_read_back(tmp_path, capsys):
    """A slot name written as a string would be written back as a string
    that never ends: extract exits 2 instead, and writes nothing."""
    knowledge = tmp_path / "knowledge.json"
    knowledge.write_text(json.dumps({
        "templates": ['(deftemplate entity (slot "url" (type STRING)))'], "facts": []}))
    code = run_cli("extract", "--knowledge", knowledge, "--out", tmp_path / "out")
    assert code == EXIT_CODES_BY_NAME["DocumentSyntaxError"] == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_extracted_fact_values_read_back_unchanged(tmp_path):
    """A value holding a quote or a backslash survives extract, and refine
    reads the extracted knowledge as it reads the original."""
    knowledge = tmp_path / "knowledge.json"
    knowledge.write_text(json.dumps({
        "templates": ["(deftemplate entity (slot destination-ip-address (type STRING))"
                      " (slot note (type STRING)))"],
        "facts": ['(entity (destination-ip-address "80.71.158.96"))',
                  '(entity (note "say \\"hi\\""))', '(entity (note "x\\\\y"))'],
    }))
    extracted = tmp_path / "extracted" / "knowledge.json"
    assert run_cli("extract", "--knowledge", knowledge, "--out", extracted.parent) == 0
    facts = factbase.parse_knowledge(extracted.read_text()).facts
    assert [f.bindings[0][1] for f in facts] == ["80.71.158.96", 'say "hi"', "x\\y"]
    for name, source in (("direct", knowledge), ("staged", extracted)):
        flags = scenario_flags("scenario1", tmp_path / name, kb=False)
        flags[5] = source
        assert run_cli("refine", *flags) == 0
    assert read_tree(tmp_path / "staged" / "out") == read_tree(tmp_path / "direct" / "out")


# Values the sweep puts in place of each value of an input document in turn.
SWEEP_VALUES = [None, 5, "x", [], {"a": 1}, "no"]
# And in place of each string value: characters that would split or forge a
# `key=value` log line, or a file name, if a value reached one unchecked; and
# nesting deeper than any recursive reader of a value could follow.
SWEEP_STRINGS = ["x\n", "x\ry", "x y=z", "(" * 100_000 + ")" * 100_000]

# Scenario 2's input documents, and the subcommands that read each one.
SWEPT_DOCUMENTS = {
    "topology": ["run", "verify"],
    "catalog": ["run", "verify", "translate"],
    "knowledge": ["run"],
    "artifacts": ["convert", "verify"],
    "kb": ["run"],
    "hspl": ["run"],
}

# The one form of every INFO line: one line per event.
INFO_LINE = re.compile(r"stage=\w+ event=\w+( [\w.]+=\S*)*")


def _positions(document, path=()):
    """The key path of every value in a JSON document, the root included."""
    yield path
    if isinstance(document, (dict, list)):
        items = document.items() if isinstance(document, dict) else enumerate(document)
        for key, value in items:
            yield from _positions(value, path + (key,))


def _at(document, path):
    for key in path:
        document = document[key]
    return document


def _hspl_text(document):
    """An HSPL document of `document`'s id, subject, action and object; one
    that is None is left out. Any other value is written as JSON."""
    from xml.etree import ElementTree as ET

    if not isinstance(document, dict):
        return json.dumps(document)
    hspl = ET.Element("hspl")
    if document.get("id") is not None:
        hspl.set("id", str(document["id"]))
    for tag in ("subject", "action", "object"):
        if document.get(tag) is not None:
            ET.SubElement(hspl, tag).text = str(document[tag])
    return ET.tostring(hspl, encoding="unicode")


def _replaced(document, path, value):
    if not path:
        return value
    copy = dict(document) if isinstance(document, dict) else list(document)
    copy[path[0]] = _replaced(document[path[0]], path[1:], value)
    return copy


@pytest.fixture(scope="module")
def scenario2_documents(tmp_path_factory):
    import yaml

    base = tmp_path_factory.mktemp("scenario2")
    assert run_cli("run", *scenario_flags("scenario2", base)) == 0
    return {
        "topology": yaml.safe_load((FIXTURES / "scenario2" / "topology.yaml").read_text()),
        "catalog": json.loads((FIXTURES / "catalog.json").read_text()),
        "knowledge": json.loads((FIXTURES / "scenario2" / "knowledge.json").read_text()),
        "artifacts": json.loads((base / "out" / "artifacts.json").read_text()),
        "kb": json.loads((base / "kb.json").read_text()),
        "mspl": (base / "out" / "WAF.mspl.xml").read_text(),
        "hspl": {"id": "hspl2", "subject": "Alice",
                 "action": "is not authorized to access", "object": "WebServer"},
    }


@pytest.mark.parametrize("swept", sorted(SWEPT_DOCUMENTS))
def test_every_replaced_input_value_exits_with_a_documented_code(
    tmp_path, capsys, caplog, scenario2_documents, swept
):
    """Each value of each document, replaced by each of SWEEP_VALUES, and a
    string value also by each of SWEEP_STRINGS: every subcommand reading the
    document exits with a documented code, prints no traceback, and logs
    every INFO line in INFO_LINE's form. Every position is visited; a
    sampled one would seldom be the one key a regression breaks."""
    files = {name: tmp_path / f"{name}.json" for name in SWEPT_DOCUMENTS}
    mspl_dir = tmp_path / "mspl"
    argvs = {
        "run": ["run", "--topology", files["topology"], "--hspl", files["hspl"],
                "--knowledge", files["knowledge"], "--catalog", files["catalog"],
                "--kb", files["kb"], "--out", tmp_path / "out"],
        "convert": ["convert", "--artifacts", files["artifacts"], "--out", tmp_path / "out"],
        "translate": ["translate", "--out", mspl_dir, "--catalog", files["catalog"]],
        "verify": ["verify", "--topology", files["topology"], "--catalog", files["catalog"],
                   "--artifacts", files["artifacts"], "--subject", "Alice",
                   "--object", "WebServer", "--src-ip", "172.20.0.2",
                   "--dst-ip", "172.20.0.3", "--l7-host", "hadleyshope.3utilities.com"],
    }
    mspl_dir.mkdir()
    (mspl_dir / "WAF.mspl.xml").write_text(scenario2_documents["mspl"])
    documented = {0, cli.EXIT_BYPASS, cli.EXIT_USAGE, *cli.EXIT_CODES.values()}
    failures = []
    caplog.set_level("INFO")
    swept_document = scenario2_documents[swept]
    for path in _positions(swept_document):
        strings = SWEEP_STRINGS if isinstance(_at(swept_document, path), str) else []
        for value in SWEEP_VALUES + strings:
            for name, file in files.items():
                document = scenario2_documents[name]
                if name == swept:
                    document = _replaced(document, path, value)
                file.write_text(_hspl_text(document) if name == "hspl"
                                else json.dumps(document))
            for command in SWEPT_DOCUMENTS[swept]:
                caplog.clear()
                try:
                    code = run_cli(*argvs[command])
                except Exception as exc:  # an uncaught error is a traceback
                    failures.append((command, path, value, repr(exc)))
                    continue
                err = capsys.readouterr().err
                if code not in documented or "Traceback" in err:
                    failures.append((command, path, value, code))
                failures.extend(
                    (command, path, value, r.getMessage()) for r in caplog.records
                    if r.levelname == "INFO" and not INFO_LINE.fullmatch(r.getMessage()))
    assert failures == []


def _rerun_on_kb(tmp_path, caplog, capsys, kb_doc):
    """Run scenario1 cold in its own directory, then on `kb_doc` (a document,
    or the text of one) as the KB; the second run must equal the cold one,
    outputs and KB. Returns its log."""
    cold = tmp_path / "cold"
    cold.mkdir()
    assert run_cli("run", *scenario_flags("scenario1", cold)) == 0
    kb = kb_doc(cold / "kb.json")
    (tmp_path / "kb.json").write_text(kb if isinstance(kb, str) else json.dumps(kb))
    caplog.clear()
    with caplog.at_level("INFO"):
        assert run_cli("run", *scenario_flags("scenario1", tmp_path)) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert read_tree(tmp_path / "out") == read_tree(cold / "out")
    assert (tmp_path / "kb.json").read_text() == (cold / "kb.json").read_text()
    return [r.message for r in caplog.records]


TAMPERED_PLACEMENTS = {
    "unknown-device": ({"FW1": "IpTables", "Ghost": "IpTables"},
                       "added=network:FW3:IpTables removed=network:Ghost:IpTables"),
    "other-control": ({"FW1": "ModSecurity", "FW3": "IpTables"},
                      "added=network:FW1:IpTables removed=network:FW1:ModSecurity"),
    "dropped-device": ({"FW1": "IpTables"},
                       "added=network:FW3:IpTables removed="),
}


@pytest.mark.parametrize("tampering", sorted(TAMPERED_PLACEMENTS))
def test_tampered_kb_record_is_treated_as_absent(tmp_path, caplog, capsys, tampering):
    """A tampered record never reaches the outputs: it is reported stale with
    what this run's placement changed, and the run records its own."""
    placement, diff = TAMPERED_PLACEMENTS[tampering]

    def tamper(kb_path):
        kb = json.loads(kb_path.read_text())
        [group] = kb["placements"]
        assert list(group["intents"]) == ["hspl1"]
        group["placement"]["network"] = placement
        return kb

    messages = _rerun_on_kb(tmp_path, caplog, capsys, tamper)
    reuse = [m for m in messages if "event=kb_reuse" in m]
    assert reuse == [f"stage=refiner event=kb_reuse intent=hspl1 result=stale {diff}"]
    assert not any("corrupt" in m for m in messages)


def test_kb_in_the_earlier_indented_layout_is_reused_and_rewritten_compact(
        tmp_path, caplog, capsys):
    """A KB is written as compact JSON with sorted keys. One written in an
    earlier layout, one entry per intent indented by two spaces, holds the
    same records: every intent is a hit, and the run rewrites the KB in the
    compact grouped layout."""
    def indented(kb_path):
        return json.dumps(per_intent_layout(kb_path), indent=2, sort_keys=True) + "\n"

    messages = _rerun_on_kb(tmp_path, caplog, capsys, indented)
    reuse = [m for m in messages if "event=kb_reuse" in m]
    assert reuse == ["stage=refiner event=kb_reuse intent=hspl1 result=hit"]
    text = (tmp_path / "kb.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


# The KB of scenario 2 then scenario 1 on one file, as the per-intent layout
# wrote it, and as the grouped layout writes it.
PER_INTENT_KB = (
    '{"intents":{"hspl1":{"action":"deny-access","object":"Bob","placement":'
    '{"network":{"FW1":"IpTables","FW3":"IpTables"}},"subject":"Eve"},'
    '"hspl2":{"action":"deny-access","object":"WebServer","placement":'
    '{"application":{"WAF":"ModSecurity"}},"subject":"Alice"}}}\n')
GROUPED_KB = (
    '{"placements":[{"intents":{"hspl2":["Alice","deny-access","WebServer"]},'
    '"placement":{"application":{"WAF":"ModSecurity"}}},'
    '{"intents":{"hspl1":["Eve","deny-access","Bob"]},'
    '"placement":{"network":{"FW1":"IpTables","FW3":"IpTables"}}}]}\n')


def test_kb_in_the_per_intent_layout_is_reused_and_rewritten_grouped(tmp_path, caplog):
    """A KB an earlier version wrote, one entry per intent, loads as it was:
    scenario 1's intent is a hit with a cold run's outputs, and the run
    rewrites the KB, scenario 2's record kept, one group per placement."""
    kb = tmp_path / "kb.json"
    for scenario in ("scenario2", "scenario1"):
        assert run_cli("run", *scenario_flags(scenario, tmp_path / scenario, kb=False),
                       "--kb", kb) == 0
    assert kb.read_text() == GROUPED_KB
    assert per_intent_layout(kb) == json.loads(PER_INTENT_KB)

    kb.write_text(PER_INTENT_KB)
    with caplog.at_level("INFO"):
        assert run_cli("run", *scenario_flags("scenario1", tmp_path / "warm", kb=False),
                       "--kb", kb) == 0
    messages = [r.message for r in caplog.records]
    assert [m for m in messages if "event=kb_reuse" in m] == [
        "stage=refiner event=kb_reuse intent=hspl1 result=hit"]
    assert not any("corrupt" in m for m in messages)
    assert read_tree(tmp_path / "warm" / "out") == read_tree(tmp_path / "scenario1" / "out")
    assert kb.read_text() == GROUPED_KB


def test_kb_in_the_path_cache_format_is_treated_as_absent(tmp_path, caplog, capsys):
    """A KB of the earlier format, which cached every simple path by topology
    digest, matching this topology and intent."""
    import hashlib

    from intentrefine import topology

    document = (FIXTURES / "scenario1" / "topology.yaml").read_text()
    t = topology.parse_topology(document)
    path_cache = {
        "topology_hash": hashlib.sha256(document.encode()).hexdigest(),
        "intents": {
            "hspl1": {"subject": "Eve", "action": "deny-access", "object": "Bob"}
        },
        "paths": {"hspl1": [list(p.intermediate)
                            for p in topology.enumerate_paths(t, "Eve", "Bob")]},
        "device_inventory": {n.id: list(n.controls) for n in t.nodes.values()
                             if n.kind == topology.DEVICE},
    }
    messages = _rerun_on_kb(tmp_path, caplog, capsys, lambda _cold_kb: path_cache)
    assert any("corrupt knowledge base" in m and "KeyError('placement')" in m
               for m in messages)
    assert any("event=kb_reuse intent=hspl1 result=miss" in m for m in messages)


def test_cached_intent_gaining_a_layer_matches_a_cold_run(tmp_path, caplog):
    """Scenario 2 recorded with its url fact only; a new address fact adds a
    network-layer placement, which makes the record stale, and the outputs
    and KB equal a cold run's."""
    knowledge = json.loads((FIXTURES / "scenario2" / "knowledge.json").read_text())
    knowledge["facts"].append('(entity (destination-ip-address "172.20.0.2"))')
    both = tmp_path / "knowledge.json"
    both.write_text(json.dumps(knowledge))

    warm = tmp_path / "warm"
    warm.mkdir()
    assert run_cli("run", *scenario_flags("scenario2", warm)) == 0
    flags = scenario_flags("scenario2", warm)
    flags[5] = both
    with caplog.at_level("INFO"):
        assert run_cli("run", *flags) == 0
    messages = [r.message for r in caplog.records]
    assert [m for m in messages if "event=kb_reuse" in m] == [
        "stage=refiner event=kb_reuse intent=hspl2 result=stale "
        "added=network:FW3:IpTables removed=",
    ]
    assert [m for m in messages if "event=selection" in m] == [
        "stage=refiner event=selection intent=hspl2 layer=application devices=WAF",
        "stage=refiner event=selection intent=hspl2 layer=network devices=FW3",
    ]

    cold = tmp_path / "cold"
    cold.mkdir()
    flags = scenario_flags("scenario2", cold)
    flags[5] = both
    assert run_cli("run", *flags) == 0
    assert read_tree(warm / "out") == read_tree(cold / "out")
    assert "FW3.rules" in read_tree(cold / "out")
    assert (warm / "kb.json").read_text() == (cold / "kb.json").read_text()


# Values an artifact's intent id or control once carried into MSPL: markup,
# which convert escaped; a control character and a noncharacter, which XML
# cannot hold; a lone surrogate, which UTF-8 cannot encode.
NON_IDS = ['a&b"<c>', "a\u0001b", "a\ud800b", "a\ufffeb"]


def test_artifact_id_outside_the_id_characters_exits_validation(tmp_path, capsys):
    """An artifact's hsplid and nsf must be ids, as its device must: convert
    and verify reject any other value before writing or deciding anything."""
    assert run_cli("run", *scenario_flags("scenario1", tmp_path, kb=False)) == 0
    doc = json.loads((tmp_path / "out" / "artifacts.json").read_text())
    artifacts = tmp_path / "artifacts.json"
    code = EXIT_CODES_BY_NAME["ValidationError"]
    for field, what in (("hsplid", "hspl id"), ("nsf", "control name")):
        for k, value in enumerate(NON_IDS):
            artifacts.write_text(json.dumps(doc[:-1] + [{**doc[-1], field: value}]))
            out = tmp_path / f"out-{field}-{k}"
            capsys.readouterr()
            assert run_cli("convert", "--artifacts", artifacts, "--out", out) == code
            assert verify_eve_to_bob(artifacts) == code
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: ValidationError: invalid {what} {value!r}\n" * 2
            assert not out.exists()


def test_node_id_with_a_trailing_newline_exits_validation(tmp_path, capsys):
    """`FW1\\n` would name the file `FW1\\n.rules` and split the log lines
    that name the device."""
    topology = tmp_path / "topology.yaml"
    topology.write_text((FIXTURES / "scenario1" / "topology.yaml").read_text().replace(
        "{id: FW1,", '{id: "FW1\\n",').replace("[Subnet1, FW1]", '[Subnet1, "FW1\\n"]'))
    flags = scenario_flags("scenario1", tmp_path)
    flags[1] = topology
    assert run_cli("run", *flags) == EXIT_CODES_BY_NAME["ValidationError"]
    err = capsys.readouterr().err
    assert "invalid node id 'FW1\\n'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "kb.json").exists()


def test_hspl_id_outside_the_id_characters_exits_validation(tmp_path, caplog, capsys):
    """An id holding a newline would forge a structured log line."""
    hspl = tmp_path / "hspl.xml"
    hspl.write_text((FIXTURES / "scenario1" / "hspl.xml").read_text().replace(
        'id="hspl1"', 'id="hspl1&#10;stage=refiner event=selection intent=forged"'))
    flags = scenario_flags("scenario1", tmp_path)
    flags[3] = hspl
    with caplog.at_level("INFO"):
        assert run_cli("run", *flags) == EXIT_CODES_BY_NAME["ValidationError"]
    assert not any("forged" in r.getMessage() for r in caplog.records)
    err = capsys.readouterr().err
    assert "invalid hspl id 'hspl1\\nstage=refiner" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "kb.json").exists()


def test_quote_in_served_domain_exits_validation(tmp_path, capsys):
    """A `"` in a host would end the ModSecurity rule's quoted operand."""
    topology = tmp_path / "topology.yaml"
    topology.write_text((FIXTURES / "scenario2" / "topology.yaml").read_text().replace(
        "domains: [allowed.utilities.com,", "domains: ['a\"b.com',"))
    knowledge = tmp_path / "knowledge.json"
    knowledge.write_text(json.dumps({
        "templates": ["(deftemplate entity (slot url (type STRING)))"],
        "facts": ['(entity (url "a\\"b.com"))'],
    }))
    flags = scenario_flags("scenario2", tmp_path)
    flags[1], flags[5] = topology, knowledge
    assert run_cli("run", *flags) == EXIT_CODES_BY_NAME["ValidationError"]
    err = capsys.readouterr().err
    assert "RFC 1123" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "kb.json").exists()


def test_quote_in_artifact_host_exits_normalization(tmp_path, capsys):
    artifacts = tmp_path / "artifacts.json"
    artifacts.write_text(json.dumps([{
        "hsplid": "h", "device": "WAF", "nsf": "ModSecurity", "capabilities": [
            {"capability": "HttpHostHeaderConditionCapability", "detail": 'a"b.com'},
            {"capability": "DenyActionCapability", "detail": "deny"},
        ],
    }]))
    code = run_cli("convert", "--artifacts", artifacts, "--out", tmp_path / "out")
    assert code == EXIT_CODES_BY_NAME["NormalizationError"]
    err = capsys.readouterr().err
    assert "RFC 1123" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_translate_rejects_an_injected_mspl_value(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("run", *scenario_flags("scenario1", tmp_path, kb=False)) == 0
    for rules in out.glob("*.rules"):
        rules.unlink()
    mspl = out / "FW1.mspl.xml"
    mspl.write_text(mspl.read_text().replace(
        "<exactMatch>80.71.158.96</exactMatch>",
        "<exactMatch>1.2.3.4 -j ACCEPT ; rm -rf /</exactMatch>", 1))
    code = run_cli("translate", "--out", out)
    assert code == EXIT_CODES_BY_NAME["NormalizationError"]
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not list(out.glob("*.rules"))


def test_run_on_a_chain_of_1500_devices(tmp_path):
    from intentrefine import topology

    devices = [f"D{i:04d}" for i in range(1500)]
    route = ["Eve", "S0", *devices, "S1", "Bob"]
    document = tmp_path / "topology.yaml"
    document.write_text(
        "name: chain\nnodes:\n"
        "  - {id: Eve, kind: endpoint, ip: 80.71.158.96}\n"
        "  - {id: Bob, kind: endpoint, ip: 172.19.0.3}\n"
        "  - {id: S0, kind: subnet}\n  - {id: S1, kind: subnet}\n"
        + "".join(f"  - {{id: {d}, kind: device, controls: [IpTables]}}\n"
                  for d in devices)
        + "links:\n" + "".join(f"  - [{a}, {b}]\n" for a, b in zip(route, route[1:]))
    )
    t = topology.parse_topology(document.read_text())
    (path,) = topology.enumerate_paths(t, "Eve", "Bob")
    assert list(path.intermediate) == route[1:-1]

    flags = scenario_flags("scenario1", tmp_path, kb=False)
    flags[1] = document
    assert run_cli("run", *flags) == 0
    assert set(read_tree(tmp_path / "out")) >= {"D0000.rules", "D0000.mspl.xml"}


def _ladder_flags(tmp_path, rungs, bare=lambda rung, side: False):
    """scenario_flags of scenario 1 with its topology replaced by a ladder:
    `rungs` rungs of two devices in parallel between consecutive subnets,
    from Eve's subnet S0 to Bob's. Rung i holds L<rungs-1-i>a and
    L<rungs-1-i>b, so the lexicographically first pair of devices is next
    to Bob; a device for which `bare(i, side)` holds has no control. Returns
    the flags and the topology."""
    nodes = ["  - {id: Eve, kind: endpoint, ip: 80.71.158.96}",
             "  - {id: Bob, kind: endpoint, ip: 172.19.0.3}"]
    nodes += [f"  - {{id: S{i}, kind: subnet}}" for i in range(rungs + 1)]
    links = ["  - [Eve, S0]", f"  - [Bob, S{rungs}]"]
    for i in range(rungs):
        for side in "ab":
            device = f"L{rungs - 1 - i:02d}{side}"
            controls = "[]" if bare(i, side) else "[IpTables]"
            nodes.append(f"  - {{id: {device}, kind: device, controls: {controls}}}")
            links += [f"  - [S{i}, {device}]", f"  - [{device}, S{i + 1}]"]
    document = tmp_path / "topology.yaml"
    document.write_text("\n".join(["nodes:", *nodes, "links:", *links, ""]))
    flags = scenario_flags("scenario1", tmp_path, kb=False)
    flags[1] = document
    return flags, topology.parse_topology(document.read_text())


def _selected(caplog):
    return [r.message.rsplit("devices=", 1)[1]
            for r in caplog.records if "event=selection" in r.message]


@pytest.fixture
def no_path_built(monkeypatch):
    """Fail the test wherever segment routes are joined into paths."""
    def joined(paths):
        raise AssertionError("a path was built")

    monkeypatch.setattr(topology.Paths, "__iter__", joined)


@pytest.mark.parametrize("rungs", [0, 40, 70], ids=["scenario1", "ladder40", "ladder70"])
def test_run_builds_no_path(tmp_path, caplog, no_path_built, rungs):
    """Placement reads route segments and joins none into a path, so a
    ladder of 2**70 paths, more than len() can count, places as scenario 1
    does."""
    if rungs:
        flags, t = _ladder_flags(tmp_path, rungs)
        cover = "L00a,L00b"
        paths = topology.enumerate_paths(t, "Eve", "Bob")
        assert paths
        if rungs == 40:
            assert len(paths) == 2 ** 40
    else:
        flags, cover = scenario_flags("scenario1", tmp_path), "FW1,FW3"

    with caplog.at_level("INFO", logger="intentrefine"):
        assert run_cli("run", *flags) == 0
    assert _selected(caplog) == [cover]


def test_unenforceable_ladder_names_a_real_path_without_a_capable_device(
        tmp_path, capsys, no_path_built):
    """Every rung of a 40-rung ladder has a bare device, and every third
    rung two: the first of the 2**14 paths with no capable device is named,
    found without building any path."""
    def bare(rung, side):
        return rung % 3 == 0 or side == "ab"[rung % 2]

    flags, t = _ladder_flags(tmp_path, 40, bare)
    assert run_cli("run", *flags) == EXIT_CODES_BY_NAME["Unenforceable"]
    err = capsys.readouterr().err
    witness = re.fullmatch(
        r"error: Unenforceable: intent 'hspl1': path (\[.*\]) has no device "
        r"with a satisfying network-layer control\n", err).group(1)
    path = ["Eve", *ast.literal_eval(witness), "Bob"]
    assert len(set(path)) == len(path)
    assert all(frozenset(link) in link_set(t) for link in zip(path, path[1:]))
    assert not any(t.nodes[n].controls for n in path)
    # the first in path order: side a wherever both devices of a rung are bare
    assert path[1::2] == [f"S{i}" for i in range(41)]
    assert path[2:-1:2] == [f"L{39 - i:02d}{'a' if i % 3 == 0 else 'ab'[i % 2]}"
                            for i in range(40)]


NESTED = "[" * 100_000 + "]" * 100_000

# case -> a topology document the YAML loader must reject with exit 2
HOSTILE_TOPOLOGIES = {
    "nested-100000": f"nodes: {NESTED}\n",
    "escape-past-unicode": 'name: "\\U0011FFFF"\nnodes: []\n',
}


@pytest.mark.parametrize("case", sorted(HOSTILE_TOPOLOGIES))
def test_hostile_topology_exits_document_syntax(tmp_path, case):
    """Run in its own process: a parser that recursed on the C stack would
    crash it rather than raise."""
    import subprocess
    import sys

    from intentrefine import topology

    document = tmp_path / "topology.yaml"
    document.write_text(HOSTILE_TOPOLOGIES[case])
    flags = scenario_flags("scenario1", tmp_path)
    flags[1] = document
    src = str(pathlib.Path(topology.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "intentrefine.cli", "run", *map(str, flags)],
        capture_output=True, text=True, timeout=120, env={"PYTHONPATH": src},
    )
    assert done.returncode == EXIT_CODES_BY_NAME["DocumentSyntaxError"], done.stderr
    assert "error: DocumentSyntaxError: " in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()


# case -> (document replaced by NESTED, subcommand reading it)
NESTED_DOCUMENTS = {
    "knowledge-run": ("knowledge", "run"),
    "catalog-run": ("catalog", "run"),
    "catalog-translate": ("catalog", "translate"),
    "catalog-verify": ("catalog", "verify"),
    "artifacts-convert": ("artifacts", "convert"),
    "artifacts-verify": ("artifacts", "verify"),
}


@pytest.mark.parametrize("case", sorted(NESTED_DOCUMENTS))
def test_deeply_nested_json_exits_document_syntax(tmp_path, capsys, case):
    document, command = NESTED_DOCUMENTS[case]
    assert run_cli("run", *scenario_flags("scenario1", tmp_path / "base", kb=False)) == 0
    files = {
        "knowledge": FIXTURES / "scenario1" / "knowledge.json",
        "catalog": FIXTURES / "catalog.json",
        "artifacts": tmp_path / "base" / "out" / "artifacts.json",
    }
    files[document] = tmp_path / f"{document}.json"
    files[document].write_text(NESTED)
    out = tmp_path / "out"
    argv = {
        "run": ["run", *scenario_flags("scenario1", tmp_path)],
        "translate": ["translate", "--out", tmp_path / "base" / "out",
                      "--catalog", files["catalog"]],
        "convert": ["convert", "--artifacts", files["artifacts"], "--out", out],
        "verify": ["verify", "--topology", FIXTURES / "scenario1" / "topology.yaml",
                   "--catalog", files["catalog"], "--artifacts", files["artifacts"],
                   "--subject", "Eve", "--object", "Bob",
                   "--src-ip", "80.71.158.96", "--dst-ip", "172.19.0.3"],
    }[command]
    if command == "run":
        argv[argv.index("--knowledge") + 1] = files["knowledge"]
        argv[argv.index("--catalog") + 1] = files["catalog"]
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_CODES_BY_NAME["DocumentSyntaxError"]
    captured = capsys.readouterr()
    assert "error: DocumentSyntaxError: " in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists() and not (tmp_path / "kb.json").exists()


@pytest.mark.parametrize("nested", ["document", "digest"])
def test_deeply_nested_kb_is_treated_as_absent(tmp_path, caplog, capsys, nested):
    cold = tmp_path / "cold"
    cold.mkdir()
    assert run_cli("run", *scenario_flags("scenario1", cold)) == 0
    kb = tmp_path / "kb.json"
    kb.write_text(NESTED if nested == "document" else f'{{"digest": {NESTED}}}')
    with caplog.at_level("INFO"):
        assert run_cli("run", *scenario_flags("scenario1", tmp_path)) == 0
    assert "Traceback" not in capsys.readouterr().err
    messages = [r.message for r in caplog.records]
    assert any("ignoring corrupt knowledge base" in m and "RecursionError" in m
               for m in messages)
    assert "stage=refiner event=kb_reuse intent=hspl1 result=miss" in messages
    assert read_tree(tmp_path / "out") == read_tree(cold / "out")
    assert kb.read_text() == (cold / "kb.json").read_text()


def _scenario1_artifacts_with(tmp_path, edit):
    """Scenario 1's artifacts, each passed through `edit` (artifact -> list)."""
    assert run_cli("run", *scenario_flags("scenario1", tmp_path / "base", kb=False)) == 0
    artifacts = json.loads((tmp_path / "base" / "out" / "artifacts.json").read_text())
    path = tmp_path / "artifacts.json"
    path.write_text(json.dumps([e for a in artifacts for e in edit(a)]))
    return path


def _on(name, **fields):
    """An edit setting `fields` on each artifact of device `name`."""
    return lambda a: [{**a, **fields} if a["device"] == name else a]


def _second_fw1_rule_on_modsecurity(a):
    if a["device"] == "FW1" and "ESTABLISHED,RELATED" in json.dumps(a):
        return [{**a, "nsf": "ModSecurity"}]
    return [a]


# case -> (edit of scenario 1's artifacts, error, whether convert and
# translate, which read no topology, reject them too)
UNDEPLOYABLE = {
    "control-not-in-catalog": (_on("FW1", nsf="Teleporter"), "UnknownControl", True),
    "network-rule-on-modsecurity": (
        _on("FW3", nsf="ModSecurity"), "UnsupportedCapability", True),
    "two-controls-on-one-device": (
        _second_fw1_rule_on_modsecurity, "InconsistentNsf", True),
    "device-without-the-control": (
        lambda a: [a, _address_rule("FW2", "80.71.158.96", "172.19.0.3")],
        "ValidationError", False),
    "device-not-in-topology": (_on("FW3", device="Ghost"), "ValidationError", False),
    # FW1's rules also on a device outside the topology: one shape, shared
    "shared-shape-on-a-device-not-in-topology": (
        lambda a: [a, {**a, "device": "Ghost"}] if a["device"] == "FW1" else [a],
        "ValidationError", False),
    # FW3's rules, which FW1's share, again on FW3 with another control
    "shared-shape-with-two-controls-on-one-device": (
        lambda a: [a, {**a, "nsf": "ModSecurity"}] if a["device"] == "FW3" else [a],
        "InconsistentNsf", True),
}


@pytest.mark.parametrize("case", sorted(UNDEPLOYABLE))
def test_verify_rejects_a_deployment_no_stage_can_render(tmp_path, capsys, case):
    """verify decides no device of a deployment that convert or translate
    would reject, or that puts a rule where the topology has no such control."""
    edit, error, pipeline_rejects = UNDEPLOYABLE[case]
    artifacts = _scenario1_artifacts_with(tmp_path, edit)
    capsys.readouterr()
    assert verify_eve_to_bob(artifacts) == EXIT_CODES_BY_NAME[error]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {error}: " in captured.err
    assert "Traceback" not in captured.err

    out = tmp_path / "out"
    codes = [run_cli("convert", "--artifacts", artifacts, "--out", out)]
    if codes[0] == 0:
        codes.append(run_cli("translate", "--out", out))
    assert (codes[-1] == EXIT_CODES_BY_NAME[error]) == pipeline_rejects
    assert "Traceback" not in capsys.readouterr().err


# scenario -> the verify flags of a flow its deployment blocks
VERIFIED_FLOWS = {
    "scenario1": ["--subject", "Eve", "--object", "Bob",
                  "--src-ip", "80.71.158.96", "--dst-ip", "172.19.0.3"],
    "scenario2": ["--subject", "Alice", "--object", "WebServer",
                  "--src-ip", "172.20.0.2", "--dst-ip", "172.20.0.3",
                  "--l7-host", "hadleyshope.3utilities.com"],
}

# Values a mutation puts in place of a detail, control or device: each one
# valid in some place and not in others.
MUTANT_DETAILS = ["not-an-ip", "10.0.0.9-10.0.0.1", "80.71.158.96,",
                  "80.71.158.0-80.71.158.255", "172.19.0.3", "1.1.1.1,2.2.2.2", "NEW,BOGUS",
                  "established", "", "Hadleyshope.3utilities.COM", 'a"b.com', "drop"]
MUTANT_CONTROLS = ["IpTables", "ModSecurity", "Teleporter", "Ip Tables"]
MUTANT_DEVICES = ["FW1", "FW1-a", "FW2", "FW3", "WAF", "Ghost", "FW 1"]
CAPABILITY_NAMES = [SOURCE, DESTINATION, "StateConditionCapability",
                    "HttpHostHeaderConditionCapability", DROP, "DenyActionCapability"]


def _mutant(artifact, rng):
    """`artifact` with one detail, control, device or capability changed."""
    a = {**artifact, "capabilities": [dict(c) for c in artifact["capabilities"]]}
    capabilities = a["capabilities"]
    kind = rng.choice(["detail", "control", "device", "capabilities"])
    if kind == "detail" and capabilities:
        rng.choice(capabilities)["detail"] = rng.choice(MUTANT_DETAILS)
    elif kind == "control":
        a["nsf"] = rng.choice(MUTANT_CONTROLS)
    elif kind == "device":
        a["device"] = rng.choice(MUTANT_DEVICES)
    elif capabilities and rng.random() < 0.4:
        capabilities.pop(rng.randrange(len(capabilities)))
    else:
        added = (dict(rng.choice(capabilities)) if capabilities and rng.random() < 0.5
                 else {"capability": rng.choice(CAPABILITY_NAMES),
                       "detail": rng.choice(MUTANT_DETAILS)})
        capabilities.insert(rng.randrange(len(capabilities) + 1), added)
    return a


def _mutated(artifacts, rng):
    """`artifacts` with one to three artifacts given one or two faults each,
    each either in place of the artifact or as a further artifact beside it;
    and sometimes an artifact repeated, as it is or under another intent."""
    artifacts = list(artifacts)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(artifacts))
        mutant = _mutant(artifacts[i], rng)
        if rng.random() < 0.4:
            mutant = _mutant(mutant, rng)
        if rng.random() < 0.3:
            artifacts.insert(rng.randrange(len(artifacts) + 1), mutant)
        else:
            artifacts[i] = mutant
    if rng.random() < 0.4:
        repeated = {**rng.choice(artifacts), "hsplid": rng.choice(["again", "hspl1"])}
        artifacts.insert(rng.randrange(len(artifacts) + 1), repeated)
    return artifacts


def _fixed_mutants(artifacts):
    """Cases drawn by hand, as (artifacts, the error line both commands give)."""
    fw1 = next(a for a in artifacts if a["device"] == "FW1")
    on_modsecurity = [{**a, "nsf": "ModSecurity"} if a["device"] == "FW1" else a
                      for a in artifacts]
    return [
        # two faults in one artifact: convert finds the control first
        (artifacts + [{**fw1, "nsf": "ModSecurity", "capabilities": [
            {**c, "detail": "not-an-ip"} if c["capability"] == SOURCE else c
            for c in fw1["capabilities"]]}],
         "error: InconsistentNsf: device 'FW1' assigned both 'IpTables' and "
         "'ModSecurity'"),
        # FW1 and FW1-a both fail in translate, which reads FW1-a.mspl.xml
        # first, though FW1 sorts first as an id
        (on_modsecurity + [{**fw1, "hsplid": "other", "device": "FW1-a",
                            "nsf": "ModSecurity"}],
         "error: UnsupportedCapability: ModSecurity renderer cannot map rule "
         "'other': conditions ['IpSourceAddressConditionCapability', "
         "'IpDestinationAddressConditionCapability', 'StateConditionCapability'], "
         "action 'drop'"),
    ]


def _error_lines(err):
    return [line for line in err.splitlines() if line.startswith("error: ")]


@pytest.mark.parametrize("scenario", sorted(VERIFIED_FLOWS))
def test_verify_rejects_what_convert_then_translate_reject(tmp_path, capsys, scenario):
    """Over seeded mutations of the scenario's artifacts, verify fails with
    convert's exit code and error line where convert fails, and otherwise
    with translate's where translate of convert's output fails."""
    assert run_cli("run", *scenario_flags(scenario, tmp_path / "base", kb=False)) == 0
    artifacts = json.loads((tmp_path / "base" / "out" / "artifacts.json").read_text())
    cases = [(_mutated(artifacts, random.Random(seed)), None) for seed in range(120)]
    if scenario == "scenario1":
        cases += _fixed_mutants(artifacts)
    path = tmp_path / "artifacts.json"
    codes = []
    for k, (case, error) in enumerate(cases):
        path.write_text(json.dumps(case))
        out = tmp_path / f"out{k}"
        capsys.readouterr()
        code = run_cli("convert", "--artifacts", path, "--out", out)
        if code == 0:
            code = run_cli("translate", "--out", out)
        errors = _error_lines(capsys.readouterr().err)
        verified = run_cli("verify", "--topology", FIXTURES / scenario / "topology.yaml",
                           "--catalog", FIXTURES / "catalog.json", "--artifacts", path,
                           *VERIFIED_FLOWS[scenario])
        captured = capsys.readouterr()
        if code:
            assert (verified, _error_lines(captured.err)) == (code, errors), case
            assert captured.out == ""
        else:
            assert verified in (0, cli.EXIT_BYPASS, 3), case
        if error is not None:
            assert errors == [error]
        codes.append(code)
    # the mutations reach every check of convert and translate
    assert set(codes) >= {0, 3, 11, 12, 13, 14}


@pytest.mark.parametrize("admits", [None, True, False])
def test_verify_matches_rules_only_through_the_renderers(tmp_path, capsys, monkeypatch, admits):
    """verify's verdicts follow the ModSecurity renderer's match test. As
    rendered, scenario 2's rule blocks the malicious host and lets the
    benign one pass; with a test swapped in that admits every host, or
    none, both are blocked, or both pass."""
    assert run_cli("run", *scenario_flags("scenario2", tmp_path, kb=False)) == 0
    if admits is not None:
        renderer = translator.RENDERERS["ModSecurity"]
        monkeypatch.setitem(translator.RENDERERS, "ModSecurity",
                            (*renderer[:4], lambda *_: admits))
    verdicts = {}
    for host in ("hadleyshope.3utilities.com", "allowed.utilities.com"):
        capsys.readouterr()
        code = run_cli("verify", "--topology", FIXTURES / "scenario2" / "topology.yaml",
                       "--catalog", FIXTURES / "catalog.json",
                       "--artifacts", tmp_path / "out" / "artifacts.json",
                       *VERIFIED_FLOWS["scenario2"][:-1], host)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        verdicts[host] = code, {line.split(" path ")[0] for line in lines}
    blocked, bypass = (0, {"BLOCKED"}), (cli.EXIT_BYPASS, {"ALLOWED (bypass)"})
    assert verdicts == {
        "hadleyshope.3utilities.com": bypass if admits is False else blocked,
        "allowed.utilities.com": blocked if admits else bypass,
    }


# subcommand -> the inputs it reads: a flag, or "mspl" for the policies
# translate reads from --out
INPUTS_READ = {
    "run": ["--topology", "--hspl", "--cti", "--knowledge", "--catalog"],
    "refine": ["--topology", "--hspl", "--cti", "--knowledge", "--catalog"],
    "extract": ["--cti", "--knowledge"],
    "convert": ["--artifacts"],
    "translate": ["--catalog", "mspl"],
    "verify": ["--topology", "--catalog", "--artifacts"],
}


@pytest.mark.parametrize("command, read", [
    (command, read) for command, reads in INPUTS_READ.items() for read in reads])
def test_undecodable_input_exits_document_syntax(tmp_path, capsys, command, read):
    base = tmp_path / "base"
    assert run_cli("run", *scenario_flags("scenario1", base, kb=False)) == 0
    s1 = FIXTURES / "scenario1"
    files = {"--topology": s1 / "topology.yaml", "--hspl": s1 / "hspl.xml",
             "--cti": s1 / "cti.txt", "--knowledge": s1 / "knowledge.json",
             "--catalog": FIXTURES / "catalog.json",
             "--artifacts": base / "out" / "artifacts.json"}
    mspl = tmp_path / "mspl"
    mspl.mkdir()
    files["mspl"] = mspl / "FW1.mspl.xml"
    files["mspl"].write_bytes((base / "out" / "FW1.mspl.xml").read_bytes())
    bad = files["mspl"] if read == "mspl" else tmp_path / "undecodable"
    bad.write_bytes(b"\xff" + files[read].read_bytes())
    files[read] = bad

    out = tmp_path / "out"
    flags = [flag for flag in INPUTS_READ[command] if flag != "mspl"]
    argv = [command, *(arg for flag in flags for arg in (flag, files[flag]))]
    if command == "translate":
        argv += ["--out", mspl]
    elif command == "verify":
        argv += ["--subject", "Eve", "--object", "Bob",
                 "--src-ip", "80.71.158.96", "--dst-ip", "172.19.0.3"]
    else:
        argv += ["--out", out]
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_CODES_BY_NAME["DocumentSyntaxError"]
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: DocumentSyntaxError: {bad} is not UTF-8 text")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert sorted(p.name for p in mspl.iterdir()) == ["FW1.mspl.xml"]


def test_undecodable_kb_is_treated_as_absent(tmp_path, caplog, capsys):
    cold = tmp_path / "cold"
    cold.mkdir()
    assert run_cli("run", *scenario_flags("scenario1", cold)) == 0
    kb = tmp_path / "kb.json"
    kb.write_bytes(b"\xff" + (cold / "kb.json").read_bytes())
    with caplog.at_level("INFO"):
        assert run_cli("run", *scenario_flags("scenario1", tmp_path)) == 0
    assert "Traceback" not in capsys.readouterr().err
    messages = [r.message for r in caplog.records]
    assert any(m.startswith(f"ignoring corrupt knowledge base {kb}: 'utf-8' codec")
               for m in messages)
    assert "stage=refiner event=kb_reuse intent=hspl1 result=miss" in messages
    assert read_tree(tmp_path / "out") == read_tree(cold / "out")
    assert kb.read_text() == (cold / "kb.json").read_text()


# Six levels of ten aliases: *l6 is a list of 10**6 strings, whose repr
# alone is 52 MB.
ALIASES = "l0: &l0 [a, a, a, a, a, a, a, a, a, a]\n" + "".join(
    f"l{n}: &l{n} [{', '.join([f'*l{n - 1}'] * 10)}]\n" for n in range(1, 7))

# case -> (what follows ALIASES in the topology document, error)
ALIASED_TOPOLOGIES = {
    "node-entry": ("nodes: [*l6]\n", "DocumentSyntaxError"),
    "nodes": ("nodes: {a: *l6}\n", "DocumentSyntaxError"),
    "link-pair": ("nodes: []\nlinks: [*l6]\n", "DocumentSyntaxError"),
    "link-end": ("nodes: [{id: S, kind: subnet}]\nlinks: [[*l6, S]]\n",
                 "ValidationError"),
    "name": ("name: *l6\nnodes: []\n", "ValidationError"),
    "node-id": ("nodes: [{id: *l6, kind: subnet}]\n", "ValidationError"),
    "kind": ("nodes: [{id: N, kind: *l6}]\n", "ValidationError"),
    "ip": ("nodes: [{id: N, kind: endpoint, ip: *l6}]\n", "ValidationError"),
    "domains": ("nodes: [{id: N, kind: endpoint, domains: {a: *l6}}]\n",
                "ValidationError"),
    "domain": ("nodes: [{id: N, kind: endpoint, domains: [*l6]}]\n",
               "ValidationError"),
    "control": ("nodes: [{id: N, kind: device, controls: [*l6]}]\n",
                "ValidationError"),
}


@pytest.mark.parametrize("case", sorted(ALIASED_TOPOLOGIES))
def test_aliased_topology_value_gives_a_short_message(tmp_path, capsys, case):
    rest, error = ALIASED_TOPOLOGIES[case]
    document = tmp_path / "topology.yaml"
    document.write_text(ALIASES + rest)
    assert len(document.read_bytes()) < 500
    capsys.readouterr()
    code = run_cli("verify", "--topology", document,
                   "--catalog", FIXTURES / "catalog.json",
                   "--artifacts", tmp_path / "absent.json", "--subject", "Eve",
                   "--object", "Bob", "--src-ip", "80.71.158.96", "--dst-ip", "172.19.0.3")
    assert code == EXIT_CODES_BY_NAME[error]
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {error}: ")
    assert len(captured.err.encode()) < 1024


def test_run_removes_the_files_of_an_earlier_run_it_does_not_write(tmp_path, caplog):
    assert run_cli("run", *scenario_flags("scenario1", tmp_path, kb=False)) == 0
    with caplog.at_level("INFO"):
        assert run_cli("run", *scenario_flags("scenario2", tmp_path, kb=False)) == 0
    alone = tmp_path / "alone"
    assert run_cli("run", *scenario_flags("scenario2", alone, kb=False)) == 0
    out = tmp_path / "out"
    assert read_tree(out) == read_tree(alone / "out")
    removed = [r.message for r in caplog.records if "event=removed" in r.message]
    assert removed == [f"stage=cli event=removed file={name}" for name in
                       ("FW1.mspl.xml", "FW1.rules", "FW3.mspl.xml", "FW3.rules")]

    for rules in out.glob("*.rules"):
        rules.unlink()
    assert run_cli("translate", "--out", out) == 0
    assert sorted(p.name for p in out.glob("*.rules")) == ["WAF.rules"]
    assert read_tree(out) == read_tree(alone / "out")


# case -> a manifest.json in --out, which run never reads
UNREADABLE_MANIFESTS = {
    "not-json": "{",
    "a-list": "[]",
    "no-files": '{"digests": {}}',
    "files-a-list": '{"files": ["kept"]}',
    "names-with-separators": json.dumps({"files": {
        name: "0" for name in ("../victim", "sub/kept", "", ".", "..", "a\0b")}}),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_MANIFESTS))
def test_run_ignores_what_it_cannot_read_in_a_manifest(tmp_path, caplog, case):
    """manifest.json is output only: whatever an earlier one holds, run
    removes nothing but its own kinds of file, and warns of nothing."""
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    (out / "sub" / "kept").write_text("kept")
    (out / "kept").write_text("kept")
    (tmp_path / "victim").write_text("kept")
    (out / "manifest.json").write_text(UNREADABLE_MANIFESTS[case])
    with caplog.at_level("INFO"):
        assert run_cli("run", *scenario_flags("scenario2", tmp_path, kb=False)) == 0
    for kept in (out / "sub" / "kept", out / "kept", tmp_path / "victim"):
        assert kept.read_text() == "kept"
    assert not any("event=removed" in r.message for r in caplog.records)
    assert not [r for r in caplog.records if r.levelname == "WARNING"]


def test_convert_and_translate_remove_the_files_of_earlier_policies(tmp_path, caplog):
    artifacts = {}
    for scenario in ("scenario1", "scenario2"):
        assert run_cli("run", *scenario_flags(scenario, tmp_path / scenario, kb=False)) == 0
        artifacts[scenario] = tmp_path / scenario / "out" / "artifacts.json"
    staged = tmp_path / "staged"
    assert run_cli("convert", "--artifacts", artifacts["scenario1"], "--out", staged) == 0
    assert run_cli("translate", "--out", staged) == 0
    with caplog.at_level("INFO"):
        assert run_cli("convert", "--artifacts", artifacts["scenario2"], "--out", staged) == 0
        assert run_cli("translate", "--out", staged) == 0
    alone = read_tree(tmp_path / "scenario2" / "out")
    assert read_tree(staged) == {
        name: text for name, text in alone.items()
        if name.endswith((".mspl.xml", ".rules"))
    }
    removed = [r.message for r in caplog.records if "event=removed" in r.message]
    assert removed == [f"stage=cli event=removed file={name}" for name in
                       ("FW1.mspl.xml", "FW3.mspl.xml", "FW1.rules", "FW3.rules")]


def _out_tree(out_dir):
    """Every file of `out_dir` as bytes, hidden ones included."""
    return {p.name: p.read_bytes() for p in sorted(pathlib.Path(out_dir).iterdir())}


def test_run_removes_the_files_convert_and_translate_wrote(tmp_path, caplog):
    """run prunes --out by the same rule as convert and translate: each file
    of its kinds that it did not write, whoever wrote it."""
    earlier = tmp_path / "scenario1"
    assert run_cli("run", *scenario_flags("scenario1", earlier, kb=False)) == 0
    out = tmp_path / "out"
    assert run_cli("convert", "--artifacts", earlier / "out" / "artifacts.json",
                   "--out", out) == 0
    assert run_cli("translate", "--out", out) == 0
    with caplog.at_level("INFO"):
        assert run_cli("run", *scenario_flags("scenario2", tmp_path, kb=False)) == 0
    alone = tmp_path / "alone"
    assert run_cli("run", *scenario_flags("scenario2", alone, kb=False)) == 0
    assert read_tree(out) == read_tree(alone / "out")
    removed = [r.message for r in caplog.records if "event=removed" in r.message]
    assert removed == [f"stage=cli event=removed file={name}" for name in
                       ("FW1.mspl.xml", "FW1.rules", "FW3.mspl.xml", "FW3.rules")]


@pytest.mark.parametrize("name", ["a b=c.mspl.xml", ".mspl.xml"])
def test_translate_renders_only_policies_a_stage_writes(tmp_path, caplog, name):
    """A valid policy under a name that is not `<id>.mspl.xml` is kept, and
    no rules file is made of it."""
    assert run_cli("run", *scenario_flags("scenario2", tmp_path, kb=False)) == 0
    out = tmp_path / "out"
    stray = out / name
    stray.write_text((out / "WAF.mspl.xml").read_text())
    before = _out_tree(out)
    with caplog.at_level("INFO"):
        assert run_cli("translate", "--out", out) == 0
    assert _out_tree(out) == before
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        f"ignoring {stray.name!r} in {out}: no stage writes that name"]


@pytest.mark.parametrize("command", ["extract", "refine", "convert", "translate", "run"])
def test_every_writing_command_is_idempotent(tmp_path, caplog, command):
    """Run twice into one --out, a command writes the same bytes and its
    second run removes nothing."""
    flags = scenario_flags("scenario1", tmp_path)
    out = tmp_path / "out"
    argv = {
        "extract": ["extract", "--cti", FIXTURES / "scenario1" / "cti.txt", "--out", out],
        "refine": ["refine", *flags],
        "convert": ["convert", "--out", out],
        "translate": ["translate", "--out", out],
        "run": ["run", *flags],
    }[command]
    if command in ("convert", "translate"):
        assert run_cli("refine", *flags) == 0
    if command == "translate":
        assert run_cli("convert", "--out", out) == 0
    assert run_cli(*argv) == 0
    first = _out_tree(out)
    caplog.clear()
    with caplog.at_level("INFO"):
        assert run_cli(*argv) == 0
    assert _out_tree(out) == first
    assert not any("event=removed" in r.message for r in caplog.records)


@pytest.mark.parametrize("command,name", [
    ("convert", "FW9.mspl.xml"), ("translate", "FW9.rules")])
def test_a_failed_removal_of_an_earlier_file_exits_persist(tmp_path, capsys,
                                                           command, name):
    assert run_cli("run", *scenario_flags("scenario2", tmp_path, kb=False)) == 0
    out = tmp_path / "out"
    (out / name).mkdir()
    assert run_cli(command, "--out", out) == EXIT_CODES_BY_NAME["PersistError"]
    assert capsys.readouterr().err.startswith(
        f"error: PersistError: cannot remove earlier output {name}: ")


@pytest.mark.parametrize("command", ["run", "refine"])
def test_a_kb_in_a_missing_directory_exits_persist(tmp_path, capsys, command):
    flags = scenario_flags("scenario1", tmp_path, kb=False)
    kb = tmp_path / "no-such-dir" / "kb.json"
    assert run_cli(command, *flags, "--kb", kb) == EXIT_CODES_BY_NAME["PersistError"]
    assert capsys.readouterr().err.splitlines()[-1].startswith(
        "error: PersistError: cannot lock the knowledge base: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "refine"])
@pytest.mark.parametrize("earlier", [False, True], ids=["absent", "earlier"])
def test_a_run_whose_outputs_cannot_be_written_records_nothing_in_the_kb(
        tmp_path, command, earlier):
    """The KB records a placement only once its outputs are written: with
    `--out` naming a file, the KB stays absent, or keeps its bytes."""
    kb = tmp_path / "kb.json"
    if earlier:
        assert run_cli("run", *scenario_flags("scenario2", tmp_path)) == 0
        before = kb.read_bytes()
    flags = scenario_flags("scenario1", tmp_path)
    flags[flags.index("--out") + 1] = tmp_path / "a-file"
    (tmp_path / "a-file").write_text("")
    assert run_cli(command, *flags) == cli.EXIT_USAGE
    assert kb.read_bytes() == before if earlier else not kb.exists()


@pytest.mark.parametrize("kb", [True, False], ids=["kb", "outputs"])
def test_a_write_cut_short_exits_persist_and_leaves_no_temporary_file(tmp_path, kb):
    """The child may write files of at most `size` bytes, and a longer write
    fails (SIGXFSZ ignored): an output cannot be written whole, or every
    output can and the KB, written after them and holding the records of
    other intents, cannot. The run exits 17, and no temporary file is left."""
    size = 150
    if kb:
        size = 4096
        assert run_cli("run", *scenario_flags("scenario1", tmp_path)) == 0
        outputs = read_tree(tmp_path / "out")
        assert max(len(text.encode()) for text in outputs.values()) < size
        record = json.loads((tmp_path / "kb.json").read_text())
        [group] = record["placements"]
        [entry] = group["intents"].values()
        group["intents"] = {f"other{i}": entry for i in range(200)}
        (tmp_path / "kb.json").write_text(json.dumps(record))
        assert (tmp_path / "kb.json").stat().st_size > size
        # all 201 intents share one placement: the rewrite is longer still
        loaded, _ = refiner.load_kb(str(tmp_path / "kb.json"))
        assert len(refiner.kb_to_json(loaded)) > size
        for p in (tmp_path / "out").iterdir():
            p.unlink()

    def limit():
        resource.setrlimit(resource.RLIMIT_FSIZE, (size, size))
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

    env = {"PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "intentrefine.cli", "run",
         *map(str, scenario_flags("scenario1", tmp_path, kb=kb))],
        capture_output=True, text=True, timeout=120, env=env, preexec_fn=limit,
    )
    assert done.returncode == EXIT_CODES_BY_NAME["PersistError"], done.stderr
    what = "persist knowledge base to " if kb else "write "
    assert done.stderr.splitlines()[-1].startswith(f"error: PersistError: cannot {what}")
    if kb:
        assert read_tree(tmp_path / "out") == outputs
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_outputs_and_kb_take_their_mode_from_the_umask(tmp_path, umask, mode):
    """Every file a run writes, cold or warm, is created as any file the user
    creates: mode 0o666 less the umask."""
    previous = os.umask(umask)
    try:
        for _ in range(2):
            assert run_cli("run", *scenario_flags("scenario1", tmp_path)) == 0
    finally:
        os.umask(previous)
    written = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert {p.name for p in written} >= {"kb.json", "kb.json.lock", "FW1.rules"}
    assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in written} == {
        p.name: mode for p in written}


# A file name that, logged raw, would end one INFO line and forge another.
FORGING_NAME = "a b=c\nstage=forged event=x"


@pytest.mark.parametrize("command,suffix", [
    ("convert", ".mspl.xml"), ("translate", ".rules"), ("run", ".rules")])
def test_a_stray_file_cannot_forge_an_info_line(tmp_path, caplog, command, suffix):
    """A file in --out of the command's kinds whose name no stage writes is
    kept, with one warning that shows it quoted."""
    flags = scenario_flags("scenario1", tmp_path, kb=False)
    assert run_cli("run", *flags) == 0
    out = tmp_path / "out"
    stray = out / (FORGING_NAME + suffix)
    stray.write_text("kept")
    caplog.clear()
    with caplog.at_level("INFO"):
        assert run_cli(command, *(flags if command == "run" else ["--out", out])) == 0
    assert stray.read_text() == "kept"
    assert all(INFO_LINE.fullmatch(r.getMessage())
               for r in caplog.records if r.levelname == "INFO")
    assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
        f"ignoring {stray.name!r} in {out}: no stage writes that name"]


def _replace(old, new):
    return lambda text: text.replace(old, new)


def _run_with(**edits):
    """`run` on scenario 1, each input named by its flag replaced by its
    edit of the fixture's text."""
    def argv(tmp_path):
        flags = scenario_flags("scenario1", tmp_path)
        for flag, edit in edits.items():
            i = flags.index(f"--{flag}") + 1
            edited = tmp_path / f"edited-{pathlib.Path(flags[i]).name}"
            edited.write_text(edit(pathlib.Path(flags[i]).read_text()))
            flags[i] = edited
        return ["run", *flags]
    return argv


def _convert_with(edit):
    """`convert` of scenario 1's artifacts, each passed through `edit`."""
    return lambda tmp_path: [
        "convert", "--artifacts", _scenario1_artifacts_with(tmp_path, edit),
        "--out", tmp_path / "out"]


def _run_into_out_with_directory(name):
    """`run` on scenario 1 into an --out holding a directory `name`."""
    def argv(tmp_path):
        (tmp_path / "out" / name).mkdir(parents=True)
        return ["run", *scenario_flags("scenario1", tmp_path)]
    return argv


# error -> a command line, given a fresh directory, that ends in it
REACHED = {
    "DocumentSyntaxError": _run_with(topology=lambda text: "nodes: 5\n"),
    "ValidationError": _run_with(hspl=_replace("<subject>Eve<", "<subject>Bob<")),
    "UnknownEndpoint": _run_with(hspl=_replace("<subject>Eve<", "<subject>Mallory<")),
    "UnknownTemplate": _run_with(knowledge=_replace("(entity (", "(ghost (")),
    "UnknownSlot": _run_with(knowledge=_replace("(destination-ip-address \\", "(url \\")),
    "UnsupportedAction": _run_with(hspl=_replace("is not authorized to", "may")),
    "Unenforceable": _run_with(topology=_replace("controls: [IpTables]", "controls: []")),
    "UnknownControl": _run_with(topology=_replace("IpTables", "Teleporter"),
                                catalog=_replace("IpTables", "Teleporter")),
    "UnsupportedCapability": _run_with(catalog=_replace(
        '"HttpHostHeaderConditionCapability",',
        '"HttpHostHeaderConditionCapability", "IpSourceAddressConditionCapability",')),
    "InconsistentNsf": _convert_with(_second_fw1_rule_on_modsecurity),
    "NormalizationError": _convert_with(
        lambda a: [_address_rule("FW1", "80.71.158.96", "garbage")]),
    "NothingToEnforce": _run_with(knowledge=_replace("80.71.158.96", "9.9.9.9")),
    "PersistError": _run_into_out_with_directory("FW1.rules"),
}


@pytest.mark.parametrize("error", sorted(REACHED))
def test_every_exit_code_is_reached_by_some_input(tmp_path, capsys, error):
    argv = REACHED[error](tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == EXIT_CODES_BY_NAME[error]
    err = capsys.readouterr().err
    assert f"error: {error}: " in err
    assert "Traceback" not in err


def test_every_pipeline_error_has_its_own_exit_code():
    """Each PipelineError subclass is a key of EXIT_CODES and subclasses no
    other, so main finds an error's code by its exact type. Retired codes
    leave gaps; the others keep their numbers."""
    classes = {
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.PipelineError)
    } - {errors.PipelineError}
    assert classes == set(cli.EXIT_CODES)
    assert all(c.__bases__ == (errors.PipelineError,) for c in classes)
    assert set(REACHED) == set(EXIT_CODES_BY_NAME)
    assert sorted(cli.EXIT_CODES.values()) == [2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 14, 15, 17]
    assert "6 UnknownSlot; 9 UnsupportedAction" in cli.EXIT_CODE_HELP
    assert "15 NothingToEnforce; 17 PersistError" in cli.EXIT_CODE_HELP


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
def test_verify_into_a_closed_pipe_keeps_its_verdict(tmp_path, buffering):
    """A reader that stops early is no usage error: verify exits with its
    verdict and writes nothing to stderr, whether its report reaches the
    closed pipe at exit (buffered) or line by line."""
    blocked = _scenario1_artifacts_with(tmp_path, lambda a: [a])
    bypassed = tmp_path / "bypassed.json"
    bypassed.write_text(json.dumps(
        [a for a in json.loads(blocked.read_text()) if a["device"] != "FW3"]))
    env = {"PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    for artifacts, code in ((blocked, 0), (bypassed, cli.EXIT_BYPASS)):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "intentrefine.cli", "verify",
                 "--topology", FIXTURES / "scenario1" / "topology.yaml",
                 "--catalog", FIXTURES / "catalog.json", "--artifacts", artifacts,
                 "--subject", "Eve", "--object", "Bob",
                 "--src-ip", "80.71.158.96", "--dst-ip", "172.19.0.3"],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (code, "")


@pytest.mark.parametrize("buffering", ["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_into_a_closed_pipe_exits_ok(argv, buffering):
    """The help is printed and the CLI exits before any command runs; a
    reader that stopped early makes that no error either."""
    env = {"PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
    if buffering == "unbuffered":
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "intentrefine.cli", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, "")


# A fresh process's environment: this checkout's src/, and nothing else
CHILD_ENV = {"PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}


def _cli_process(argv, **kwargs):
    """A fresh CLI process of this checkout, run to its end."""
    return subprocess.run([sys.executable, "-m", "intentrefine.cli", *map(str, argv)],
                          timeout=120, env=CHILD_ENV, **kwargs)


def _verify_argv(topology_path, artifacts):
    return ["verify", "--topology", topology_path,
            "--catalog", FIXTURES / "catalog.json", "--artifacts", artifacts,
            "--subject", "Eve", "--object", "Bob",
            "--src-ip", "80.71.158.96", "--dst-ip", "172.19.0.3"]


@pytest.mark.parametrize("case, code", [("blocked", 0), ("bypassed", cli.EXIT_BYPASS),
                                        ("help", 0)])
def test_a_stdout_closed_at_start_is_a_reader_that_left(tmp_path, case, code):
    """Python starts with sys.stdout None when descriptor 1 is closed. verify
    still exits with its verdict and --help with 0, and stderr stays empty."""
    blocked = _scenario1_artifacts_with(tmp_path, lambda a: [a])
    bypassed = tmp_path / "bypassed.json"
    bypassed.write_text(json.dumps(
        [a for a in json.loads(blocked.read_text()) if a["device"] != "FW3"]))
    argv = {"blocked": _verify_argv(FIXTURES / "scenario1" / "topology.yaml", blocked),
            "bypassed": _verify_argv(FIXTURES / "scenario1" / "topology.yaml", bypassed),
            "help": ["--help"]}[case]
    done = _cli_process(argv, stderr=subprocess.PIPE, text=True,
                        preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (code, "")


@pytest.mark.parametrize("argv", [
    _verify_argv(FIXTURES / "scenario1" / "topology.yaml", "/nonexistent.json"),
    ["verify", "--bogus"],
], ids=["missing-file", "usage"])
def test_a_stderr_closed_at_start_leaves_stdout_empty(argv):
    """print(file=None) writes to stdout, and Python starts with sys.stderr
    None when descriptor 2 is closed: the error line must not land on stdout.
    The exit code stays that of the error."""
    done = _cli_process(argv, stdout=subprocess.PIPE, text=True,
                        preexec_fn=lambda: os.close(2))
    assert (done.returncode, done.stdout) == (cli.EXIT_USAGE, "")


def _ladder_verify_argv(tmp_path, rungs, bypass):
    """verify's argv for scenario 1's flow on a `rungs`-rung ladder
    (_ladder_flags) against the artifacts `run` placed there, without those
    of L00a if `bypass`."""
    flags, _ = _ladder_flags(tmp_path, rungs)
    assert run_cli("run", *flags) == 0
    artifacts = tmp_path / "out" / "artifacts.json"
    if bypass:
        kept = [a for a in json.loads(artifacts.read_text()) if a["device"] != "L00a"]
        artifacts = tmp_path / "bypassed.json"
        artifacts.write_text(json.dumps(kept))
    return _verify_argv(flags[1], artifacts)


@pytest.mark.parametrize("bypass, code", [(False, 0), (True, cli.EXIT_BYPASS)],
                         ids=["blocked", "bypassed"])
def test_verify_into_a_pipe_closed_mid_report_keeps_its_verdict(tmp_path, bypass, code):
    """A reader that takes the first 64 KiB of a 12-rung ladder's 4 096-line
    report, a few of its heads' lines, and then closes the pipe: verify
    exits with its verdict, decided before the first line, and writes
    nothing to stderr."""
    argv = _ladder_verify_argv(tmp_path, 12, bypass)
    with subprocess.Popen([sys.executable, "-m", "intentrefine.cli", *map(str, argv)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV) as proc:
        head = proc.stdout.read(64 * 1024)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.wait(timeout=120)
    assert len(head) == 64 * 1024
    # the first path runs through L11a and L00a
    assert head.startswith(b"ALLOWED (bypass) path ['S0', 'L11a', " if bypass
                           else b"BLOCKED path ['S0', 'L11a', ")
    assert (proc.returncode, stderr) == (code, b"")


# The child reads its own peak resident memory as it exits: exec carries the
# spawning process's peak into the child's ru_maxrss, so that cannot tell.
PEAK_PROBE = """
import atexit, re, sys
out = sys.argv[1]
def peak():
    status = open("/proc/self/status").read()
    open(out, "w").write(re.search(r"VmHWM:\\s*(\\d+) kB", status)[1])
atexit.register(peak)
from intentrefine import cli
sys.exit(cli.main(sys.argv[2:]))
"""


def _grid_verify_argv(tmp_path, columns):
    """verify's argv for scenario 1's flow across a 2x`columns` grid
    (grid_document) from Eve's subnet to Bob's, against the artifacts `run`
    placed there."""
    document = tmp_path / "topology.yaml"
    document.write_text(grid_document(columns, ("Eve", "80.71.158.96"), ("Bob", "172.19.0.3")))
    flags = scenario_flags("scenario1", tmp_path, kb=False)
    flags[1] = document
    assert run_cli("run", *flags) == 0
    return _verify_argv(document, tmp_path / "out" / "artifacts.json")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc/self/status")
def test_verify_memory_stays_bounded_on_a_17_rung_ladder(tmp_path):
    """verify of a 17-rung ladder prints 131 072 lines (34 MiB). Held in
    lists, with their routes and verdicts, they take the process past
    100 MiB resident; it must peak under 40 MiB, holding no such list. So
    must verify of a 2x14 grid, whose 32 768 lines join one segment's
    routes to one tail: the report holds a bounded run of them at a time."""
    (tmp_path / "ladder").mkdir()
    (tmp_path / "grid").mkdir()
    for argv in (_ladder_verify_argv(tmp_path / "ladder", 17, False),
                 _grid_verify_argv(tmp_path / "grid", 14)):
        peak = tmp_path / "peak_kib"
        done = subprocess.run([sys.executable, "-c", PEAK_PROBE, peak, *map(str, argv)],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=120, env=CHILD_ENV)
        assert (done.returncode, done.stderr) == (0, "")
        assert int(peak.read_text()) < 40 * 1024
