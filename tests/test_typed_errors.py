"""Typed errors that the other tests do not name, one case each: the error
class and message of the reader that raises it, and for `verify`, which
runs through the CLI, the exit code too."""

import json

import pytest

from intentrefine import cli, converter, factbase, refiner, topology
from intentrefine.errors import DocumentSyntaxError, ValidationError

from conftest import EXIT_CODES_BY_NAME, FIXTURES, read_fixture


def _topology(node="", link=""):
    """A valid topology document, with one more node and one more link."""
    return ("nodes:\n  - {id: A, kind: endpoint}\n  - {id: S, kind: subnet}\n"
            f"{node}links:\n  - [A, S]\n{link}")


CONDITION = ('<ipSourceAddressConditionCapability operator="exactMatch"><capabilityIpValue>'
             "<exactMatch>1.1.1.1</exactMatch></capabilityIpValue>"
             "</ipSourceAddressConditionCapability>")


def _mspl(rule_body):
    return f'<policy nsfName="IpTables"><rule id="r">{rule_body}</rule></policy>'


INTENT = ("<hspl id='a'><subject>Eve</subject><action>is not authorized to access"
          "</action><object>Bob</object></hspl>")
OPEN_LATER_ROOT = INTENT + "<hspl id='b'><subject>"
TEMPLATE = "(deftemplate entity (slot url (type STRING)))"

# case -> (reader, document, error class, message)
UNNAMED_ERRORS = {
    "topology-ip-on-a-subnet": (
        topology.parse_topology, _topology("  - {id: T, kind: subnet, ip: 10.0.0.1}\n"),
        ValidationError, "node T: only endpoints carry an ip"),
    "topology-domains-on-a-device": (
        topology.parse_topology, _topology("  - {id: D, kind: device, domains: [a.com]}\n"),
        ValidationError, "node D: only endpoints carry domains"),
    "topology-controls-on-a-subnet": (
        topology.parse_topology, _topology("  - {id: T, kind: subnet, controls: [IpTables]}\n"),
        ValidationError, "node T: only devices carry controls"),
    "topology-self-link": (
        topology.parse_topology, _topology(link="  - [S, S]\n"),
        ValidationError, "self-link on 'S'"),
    "mspl-malformed-xml": (
        converter.parse_mspl, '<policy nsfName="IpTables">', DocumentSyntaxError,
        "malformed MSPL document: no element found: line 1, column 27"),
    "mspl-root-not-a-policy": (
        converter.parse_mspl, '<rule nsfName="IpTables"/>', DocumentSyntaxError,
        "MSPL root must be <policy nsfName=...>"),
    "mspl-policy-without-nsf-name": (
        converter.parse_mspl, "<policy/>", DocumentSyntaxError,
        "MSPL root must be <policy nsfName=...>"),
    "mspl-unknown-condition": (
        converter.parse_mspl,
        _mspl("<portCondition/><actionCapability>drop</actionCapability>"),
        DocumentSyntaxError, "unknown condition element <portCondition>"),
    "mspl-unknown-operator": (
        converter.parse_mspl,
        _mspl(CONDITION.replace('"exactMatch"', '"like"')
              + "<actionCapability>drop</actionCapability>"),
        DocumentSyntaxError, "unknown operator on <ipSourceAddressConditionCapability>: 'like'"),
    "mspl-no-action": (
        converter.parse_mspl, _mspl(CONDITION), DocumentSyntaxError, "rule 'r': bad action []"),
    "mspl-unknown-action": (
        converter.parse_mspl, _mspl(CONDITION + "<actionCapability>accept</actionCapability>"),
        DocumentSyntaxError, "rule 'r': bad action ['accept']"),
    "knowledge-duplicate-template": (
        factbase.parse_knowledge, json.dumps({"templates": [TEMPLATE, TEMPLATE], "facts": []}),
        ValidationError, "duplicate template 'entity'"),
    # The wrapper's closing tag meets the open element past the document's
    # end; the error is reported at that end.
    "hspl-later-root-left-open": (
        refiner.parse_hspl, OPEN_LATER_ROOT, DocumentSyntaxError,
        f"malformed HSPL document: no element found: line 1, column {len(OPEN_LATER_ROOT)}"),
}


@pytest.mark.parametrize("case", UNNAMED_ERRORS)
def test_each_reader_error_is_raised_as_its_class(case):
    reader, document, error, message = UNNAMED_ERRORS[case]
    with pytest.raises(error) as exc:
        reader(document)
    assert str(exc.value) == message


def test_verify_rejects_a_renderable_control_missing_from_the_catalog(
    tmp_path, capsys, scenario1_topology, scenario1_intent, scenario1_knowledge, catalog
):
    """IpTables has a renderer, so verify gets past translate's checks,
    where a control with none fails first (test_cli's
    control-not-in-catalog), to its own catalog lookup."""
    artifacts, _, _ = refiner.refine(
        scenario1_topology, [scenario1_intent], scenario1_knowledge, catalog)
    (tmp_path / "artifacts.json").write_text(refiner.artifacts_to_json(artifacts))
    without = json.loads(read_fixture("catalog.json"))
    del without["IpTables"]
    (tmp_path / "catalog.json").write_text(json.dumps(without))
    capsys.readouterr()
    code = cli.main([
        "verify", "--topology", str(FIXTURES / "scenario1" / "topology.yaml"),
        "--catalog", str(tmp_path / "catalog.json"),
        "--artifacts", str(tmp_path / "artifacts.json"),
        "--subject", "Eve", "--object", "Bob",
        "--src-ip", "80.71.158.96", "--dst-ip", "172.19.0.3"])
    assert code == EXIT_CODES_BY_NAME["UnknownControl"] == 11
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: UnknownControl: rule 'hspl1' on 'FW1': "
                            "control 'IpTables' is not in the catalog\n")
