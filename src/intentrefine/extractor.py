"""Deterministic indicator-of-compromise extraction from CTI report text.

This is the reference pattern-based extractor. Anything with the same
signature as extract_indicators can be plugged in instead (the boundary a
model-backed extractor would fill).
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass

from . import factbase
from .factbase import Fact, Knowledge, Template

ENTITY_TEMPLATE = "entity"

KIND_SOURCE_IP = "source-ip-address"
KIND_DESTINATION_IP = "destination-ip-address"
KIND_URL = "url"

IPV4_RE = re.compile(r"\b(\d{1,3}(?:\.\d{1,3}){3})\b")
FQDN_RE = re.compile(r"\b((?:[a-z0-9-]+\.)+[a-z]{2,})\b", re.IGNORECASE)

# An IPv4 hit preceded by one of these within the last 8 tokens is treated as
# the attacker's own (source) address; bare IoC listings default to destination.
SOURCE_CUES = ("from the address", "sends requests from", "originating from")
CUE_WINDOW_TOKENS = 8


@dataclass(frozen=True)
class Indicator:
    kind: str
    value: str
    span: tuple[int, int]


def _is_valid_ipv4(value: str) -> bool:
    try:
        ipaddress.IPv4Address(value)
        return True
    except (ipaddress.AddressValueError, ValueError):
        return False


def _cue_window(text: str, start: int) -> str:
    """The last CUE_WINDOW_TOKENS whitespace-separated tokens of
    `text[:start]`, joined by single spaces and lower-cased.

    Reads back from `start` only as far as those tokens reach: a stretch
    holding more tokens than the window has its first, possibly cut, token
    outside the window.
    """
    reach = 128
    while True:
        begin = max(0, start - reach)
        tokens = text[begin:start].split()
        if begin == 0 or len(tokens) > CUE_WINDOW_TOKENS:
            return " ".join(tokens[-CUE_WINDOW_TOKENS:]).lower()
        reach *= 16


def _has_source_cue(text: str, start: int) -> bool:
    window = _cue_window(text, start)
    return any(cue in window for cue in SOURCE_CUES)


def _is_fqdn(value: str) -> bool:
    labels = value.split(".")
    if len(labels) < 2 or not labels[-1].isalpha():
        return False
    # pure-numeric labels would re-match fragments of IP addresses
    return not any(label.isdigit() for label in labels)


def extract_indicators(text: str) -> list[Indicator]:
    """All distinct indicators in the text, in order of first occurrence."""
    hits: list[Indicator] = []
    for m in IPV4_RE.finditer(text):
        value = m.group(1)
        if not _is_valid_ipv4(value):
            continue
        kind = KIND_SOURCE_IP if _has_source_cue(text, m.start()) else KIND_DESTINATION_IP
        hits.append(Indicator(kind=kind, value=value, span=m.span(1)))
    for m in FQDN_RE.finditer(text):
        value = m.group(1).lower()
        if _is_fqdn(value):
            hits.append(Indicator(kind=KIND_URL, value=value, span=m.span(1)))

    hits.sort(key=lambda ind: ind.span)
    seen: set[tuple[str, str]] = set()
    result = []
    for ind in hits:
        key = (ind.kind, ind.value)
        if key not in seen:
            seen.add(key)
            result.append(ind)
    return result


def indicators_to_knowledge(indicators: list[Indicator], base: Knowledge) -> Knowledge:
    """Assert one fact per indicator, growing the entity template as needed.

    Kinds without a matching slot extend the template first (monotone append),
    so a new indicator class never invalidates earlier facts.
    """
    k = base
    if indicators and ENTITY_TEMPLATE not in k.templates:
        k = Knowledge(
            templates={**k.templates, ENTITY_TEMPLATE: Template(name=ENTITY_TEMPLATE)},
            facts=k.facts,
        )
    for ind in indicators:
        if ind.kind not in k.templates[ENTITY_TEMPLATE].slots:
            k = factbase.extend_template(k, ENTITY_TEMPLATE, ind.kind)
        k = factbase.assert_fact(
            k, Fact(template=ENTITY_TEMPLATE, bindings=((ind.kind, ind.value),))
        )
    return k
