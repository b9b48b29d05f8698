"""Security capability model: control catalogs and per-fact requirements.

A control is eligible for a requirement when it operates at the same layer
and its capability set covers everything the requirement needs.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .errors import (
    DocumentSyntaxError,
    ValidationError,
    require_id,
    require_list,
)
from .factbase import Fact

LAYER_NETWORK = "network"
LAYER_APPLICATION = "application"
LAYERS = (LAYER_NETWORK, LAYER_APPLICATION)


class CapabilityId:
    """The capability ids: plain strings, as documents carry them."""

    IP_SOURCE = "IpSourceAddressConditionCapability"
    IP_DESTINATION = "IpDestinationAddressConditionCapability"
    STATE = "StateConditionCapability"
    HTTP_HOST = "HttpHostHeaderConditionCapability"
    DROP = "DropActionCapability"
    DENY = "DenyActionCapability"


# A tuple: membership of any value, hashable or not, is a plain comparison.
CAPABILITY_IDS = tuple(v for k, v in vars(CapabilityId).items() if k.isupper())
ACTION_CAPABILITIES = frozenset({CapabilityId.DROP, CapabilityId.DENY})

# capabilities: a frozenset of capability ids
ControlSpec = namedtuple("ControlSpec", "name layer stateful capabilities")

# Control name -> its spec, as load_catalog returns it.
Catalog = dict[str, ControlSpec]


# The capabilities (a frozenset of ids) a control at `layer` needs; exactly
# one of them is an action. Only the two constants below are built.
RequiredSet = namedtuple("RequiredSet", "layer capabilities")


NETWORK_REQUIRED = RequiredSet(
    layer=LAYER_NETWORK,
    capabilities=frozenset(
        {CapabilityId.IP_SOURCE, CapabilityId.IP_DESTINATION, CapabilityId.DROP}
    ),
)
APPLICATION_REQUIRED = RequiredSet(
    layer=LAYER_APPLICATION,
    capabilities=frozenset({CapabilityId.HTTP_HOST, CapabilityId.DENY}),
)


def load_catalog(document: str) -> Catalog:
    """Parse and validate the control catalog JSON."""
    try:
        raw = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentSyntaxError(
            f"malformed catalog: {exc}", line=getattr(exc, "lineno", None)
        )
    if not isinstance(raw, dict):
        raise DocumentSyntaxError("catalog must be a JSON object of controls")

    controls: dict[str, ControlSpec] = {}
    for name, spec in raw.items():
        require_id(name, "control name")
        if not isinstance(spec, dict):
            raise DocumentSyntaxError(f"control {name!r}: spec must be an object")
        layer = spec.get("layer")
        if layer not in LAYERS:
            raise ValidationError(f"control {name!r}: unknown layer {layer!r}")
        caps = set()
        for cap_name in require_list(
            spec.get("capabilities"), f"control {name!r}: capabilities"
        ):
            if cap_name not in CAPABILITY_IDS:
                raise ValidationError(
                    f"control {name!r}: unknown capability {cap_name!r}"
                )
            caps.add(cap_name)
        if layer == LAYER_NETWORK and CapabilityId.HTTP_HOST in caps:
            raise ValidationError(
                f"control {name!r}: network-layer control cannot inspect HTTP host"
            )
        if layer == LAYER_APPLICATION and CapabilityId.STATE in caps:
            raise ValidationError(
                f"control {name!r}: application-layer control cannot track state"
            )
        stateful = spec.get("stateful", False)
        if not isinstance(stateful, bool):
            raise ValidationError(f"control {name!r}: stateful must be true or false")
        controls[name] = ControlSpec(
            name=name, layer=layer, stateful=stateful, capabilities=frozenset(caps)
        )
    return controls


def derive_required(fact: Fact) -> list[RequiredSet]:
    """The capability sets a fact demands, one per implied enforcement layer;
    none for a fact that binds no enforceable slot kind."""
    required: list[RequiredSet] = []
    slots = [name for name, _ in fact.bindings]
    if any(name.endswith("ip-address") for name in slots):
        required.append(NETWORK_REQUIRED)
    if any(name == "url" for name in slots):
        required.append(APPLICATION_REQUIRED)
    return required


def control_satisfies(c: ControlSpec, r: RequiredSet) -> bool:
    return c.layer == r.layer and r.capabilities <= c.capabilities
