"""Deterministic indicator-of-compromise extraction from CTI report text.

This is the reference pattern-based extractor. Anything with the same
signature as extract_indicators can be plugged in instead (the boundary a
model-backed extractor would fill).
"""

from __future__ import annotations

import bisect
import functools
import ipaddress
import re
from collections import namedtuple
from collections.abc import Callable
from operator import itemgetter

from .factbase import Fact, Knowledge, Template

ENTITY_TEMPLATE = "entity"

KIND_SOURCE_IP = "source-ip-address"
KIND_DESTINATION_IP = "destination-ip-address"
KIND_URL = "url"

# Four dotted numbers that are not part of a longer dotted run, such as an
# OID (1.3.6.1.4.1.311) or a version (2.4.10.1.7).
IPV4_RE = re.compile(r"(?<!\d\.)\b(\d{1,3}(?:\.\d{1,3}){3})\b(?!\.\d)")
FQDN_RE = re.compile(r"\b((?:[a-z0-9-]+\.)+[a-z]{2,})\b", re.IGNORECASE)
# the tokens str.split() separates: re's \s is the same set of characters
TOKEN_RE = re.compile(r"\S+")

# An IPv4 hit preceded by one of these within the last 8 tokens is treated as
# the attacker's own (source) address; bare IoC listings default to destination.
SOURCE_CUES = ("from the address", "sends requests from", "originating from")
CUE_WINDOW_TOKENS = 8
LONGEST_CUE = max(map(len, SOURCE_CUES))


# span: the (start, end) of `value` in the text
Indicator = namedtuple("Indicator", "kind value span")


def _is_valid_ipv4(value: str) -> bool:
    try:
        ipaddress.IPv4Address(value)
        return True
    except (ipaddress.AddressValueError, ValueError):
        return False


def _token_spans(text: str) -> list[tuple[int, int]]:
    """Where each token of `text.split()` begins and ends."""
    return [m.span() for m in TOKEN_RE.finditer(text)]


def _cue_window(
    text: str,
    start: int,
    spans: Callable[[], list[tuple[int, int]]] | None = None,
    keep: int | None = None,
) -> str:
    """The last CUE_WINDOW_TOKENS whitespace-separated tokens of
    `text[:start]`, joined by single spaces and lower-cased.

    The 128 characters before `start` hold the window when they hold more
    tokens than it (their first, possibly cut, token is outside it) or begin
    the text. Otherwise the window's tokens are looked up in the text's
    _token_spans, which `spans` returns when given. With `keep` set, a token
    longer than twice `keep` is shown there as its first and last `keep`
    characters joined by a NUL, so no window reads a long token whole.
    """
    begin = max(0, start - 128)
    tokens = text[begin:start].split()
    if begin > 0 and len(tokens) <= CUE_WINDOW_TOKENS:
        token_spans = spans() if spans else _token_spans(text)
        last = bisect.bisect_left(token_spans, start, key=itemgetter(0))
        tokens = []
        for begin, end in token_spans[max(0, last - CUE_WINDOW_TOKENS):last]:
            end = min(end, start)
            if keep is not None and end - begin > 2 * keep:
                tokens.append(f"{text[begin:begin + keep]}\0{text[end - keep:end]}")
            else:
                tokens.append(text[begin:end])
    return " ".join(tokens[-CUE_WINDOW_TOKENS:]).lower()


def _has_source_cue(
    text: str, start: int, spans: Callable[[], list[tuple[int, int]]] | None = None
) -> bool:
    # Every cue holds a space, so a cue found in the window takes fewer than
    # LONGEST_CUE characters of any one token, from its start or its end:
    # the middle of a longer token is never part of one.
    window = _cue_window(text, start, spans, LONGEST_CUE - 1)
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
    spans = functools.cache(functools.partial(_token_spans, text))
    for m in IPV4_RE.finditer(text):
        value = m.group(1)
        if not _is_valid_ipv4(value):
            continue
        cued = _has_source_cue(text, m.start(), spans)
        kind = KIND_SOURCE_IP if cued else KIND_DESTINATION_IP
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

    Kinds without a matching slot extend the template first (monotone append,
    in order of first occurrence), so a new indicator class never invalidates
    earlier facts. Built in one pass; the tests check it against a fold that
    extends the template and asserts a fact indicator by indicator.
    """
    if not indicators:
        return base
    entity = base.templates.get(ENTITY_TEMPLATE, Template(name=ENTITY_TEMPLATE))
    slots = tuple(dict.fromkeys([*entity.slots, *(ind.kind for ind in indicators)]))
    facts = tuple(
        Fact(template=ENTITY_TEMPLATE, bindings=((ind.kind, ind.value),))
        for ind in indicators
    )
    return Knowledge(
        templates={**base.templates, ENTITY_TEMPLATE: entity._replace(slots=slots)},
        facts=base.facts + facts,
    )
