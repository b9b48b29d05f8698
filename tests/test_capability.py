import json

import pytest

from intentrefine import capability
from intentrefine.capability import (
    CapabilityId,
    ControlSpec,
    RequiredSet,
    control_satisfies,
    derive_required,
    load_catalog,
)
from intentrefine.errors import (
    DocumentSyntaxError,
    ValidationError,
)
from intentrefine.factbase import Fact

from conftest import read_fixture


def test_default_catalog(catalog):
    iptables = catalog["IpTables"]
    assert iptables.layer == "network" and iptables.stateful
    assert CapabilityId.IP_SOURCE in iptables.capabilities
    modsec = catalog["ModSecurity"]
    assert modsec.layer == "application"
    assert CapabilityId.HTTP_HOST in modsec.capabilities


def test_empty_catalog():
    assert load_catalog("{}") == {}


def test_unknown_capability_name_rejected():
    doc = json.dumps({"X": {"layer": "network", "capabilities": ["TeleportCapability"]}})
    with pytest.raises(ValidationError):
        load_catalog(doc)


@pytest.mark.parametrize("name", ["Ip Tables", "IpTables\n", "a=b", ""])
def test_control_name_must_be_an_id(name):
    doc = json.dumps({name: {"layer": "network", "capabilities": ["DropActionCapability"]}})
    with pytest.raises(ValidationError, match="invalid control name"):
        load_catalog(doc)


def test_layer_capability_mismatch_rejected():
    doc = json.dumps(
        {"X": {"layer": "network", "capabilities": ["HttpHostHeaderConditionCapability"]}}
    )
    with pytest.raises(ValidationError):
        load_catalog(doc)
    doc = json.dumps(
        {"X": {"layer": "application", "capabilities": ["StateConditionCapability"]}}
    )
    with pytest.raises(ValidationError):
        load_catalog(doc)


def test_malformed_catalog():
    with pytest.raises(DocumentSyntaxError):
        load_catalog("{nope")


def serialize_catalog(c):
    """A catalog document that load_catalog reads back as `c`."""
    doc = {
        name: {
            "layer": spec.layer,
            "stateful": spec.stateful,
            "capabilities": sorted(spec.capabilities),
        }
        for name, spec in sorted(c.items())
    }
    return json.dumps(doc, indent=2) + "\n"


def test_catalog_roundtrip_fixpoint(catalog):
    text = serialize_catalog(catalog)
    again = load_catalog(text)
    assert again == catalog
    assert serialize_catalog(again) == text


def test_derive_required_ip_fact():
    fact = Fact(template="entity", bindings=(("destination-ip-address", "80.71.158.96"),))
    (rset,) = derive_required(fact)
    assert rset.layer == "network"
    assert rset.capabilities == {
        CapabilityId.IP_SOURCE,
        CapabilityId.IP_DESTINATION,
        CapabilityId.DROP,
    }


def test_derive_required_url_fact():
    fact = Fact(template="entity", bindings=(("url", "hadleyshope.3utilities.com"),))
    (rset,) = derive_required(fact)
    assert rset.layer == "application"
    assert rset.capabilities == {CapabilityId.HTTP_HOST, CapabilityId.DENY}


def test_derive_required_both_layers():
    fact = Fact(
        template="entity",
        bindings=(("destination-ip-address", "1.2.3.4"), ("url", "a.example.com")),
    )
    layers = [r.layer for r in derive_required(fact)]
    assert layers == ["network", "application"]


def test_derive_required_unrecognized_slot():
    fact = Fact(template="entity", bindings=(("registry-key", "HKLM"),))
    assert derive_required(fact) == []


def test_required_set_must_have_one_action():
    with pytest.raises(ValidationError):
        RequiredSet(layer="network", capabilities=frozenset({CapabilityId.IP_SOURCE}))
    with pytest.raises(ValidationError):
        RequiredSet(
            layer="network",
            capabilities=frozenset({CapabilityId.DROP, CapabilityId.DENY}),
        )


def test_control_satisfies(catalog):
    network = capability.NETWORK_REQUIRED
    application = capability.APPLICATION_REQUIRED
    assert control_satisfies(catalog["IpTables"], network)
    assert not control_satisfies(catalog["IpTables"], application)
    assert control_satisfies(catalog["ModSecurity"], application)
    empty = ControlSpec(name="E", layer="network", stateful=False, capabilities=frozenset())
    assert not control_satisfies(empty, network)


def test_satisfaction_monotone_in_capabilities(catalog):
    network = capability.NETWORK_REQUIRED
    base = ControlSpec(
        name="X",
        layer="network",
        stateful=False,
        capabilities=frozenset(
            {CapabilityId.IP_SOURCE, CapabilityId.IP_DESTINATION, CapabilityId.DROP}
        ),
    )
    assert control_satisfies(base, network)
    richer = ControlSpec(
        name="X",
        layer="network",
        stateful=False,
        capabilities=base.capabilities | {CapabilityId.STATE},
    )
    assert control_satisfies(richer, network)
