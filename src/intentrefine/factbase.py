"""CLIPS-syntax knowledge store: templates, facts, and monotone schema growth.

Wire format is a JSON envelope with `templates` and `facts` arrays of
strings in two flat CLIPS forms, e.g.

    {"templates": ["(deftemplate entity (slot url (type STRING)))"],
     "facts": ["(entity (url \"a.example.com\"))"]}

Only STRING slots exist. A template grows only by appending slots (see
extractor.indicators_to_knowledge), so every fact that was valid before
stays valid after.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from types import MappingProxyType

from .errors import (
    DocumentSyntaxError,
    LazyLogger,
    UnknownSlot,
    UnknownTemplate,
    ValidationError,
    require_list,
    shown,
)

logger = LazyLogger(__name__)

SLOT_TYPE_STRING = "STRING"

Template = namedtuple("Template", "name slots", defaults=((),))


class Fact(namedtuple("Fact", "template bindings")):
    """`bindings`: (slot, value) pairs, in declaration order."""

    __slots__ = ()

    def get(self, slot: str) -> str | None:
        for name, value in self.bindings:
            if name == slot:
                return value
        return None


class Knowledge(
    namedtuple("Knowledge", "templates facts", defaults=(MappingProxyType({}), ()))
):
    """`templates`: name -> Template, never changed in place (the default is
    a read-only empty mapping); `facts`: a tuple of Fact. Not slotted: the
    instance dict keeps what a stage derives from it once (see
    refiner._fact_index). A Knowledge never changes, so that cannot go
    stale."""


# --- the two forms ----------------------------------------------------------
#
# A string token keeps its opening quote, so it never equals a symbol. Each
# form builds the token sequence its own names imply and compares it with the
# text's tokens: nothing nests, so no input can exhaust the stack.

# A parenthesis or symbol; a string, in which a backslash escapes the
# character after it (a run of plain characters, then escapes each followed
# by such a run, possessively: no backtracking state is kept per plain
# character or per escape); or a quote that nothing closes, which takes the
# rest of the text, so no later quote is scanned again to its end.
_TOKEN_RE = re.compile(r'([()]|[^\s()"]+)|"([^"\\]*(?:\\.[^"\\]*)*+)"|(".*)', re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _tokenize(text: str) -> list[str]:
    found = _TOKEN_RE.findall(text)
    if found and found[-1][2]:
        raise DocumentSyntaxError(f"unterminated string in {shown(text)}")
    return [symbol or '"' + _ESCAPE_RE.sub(r"\1", string) for symbol, string, _ in found]


def _symbol(token: str) -> str | None:
    """`token` if it is a symbol, else None, which equals no token."""
    return None if token[0] in '()"' else token


def _balanced(tokens: list[str]) -> bool:
    """Whether `tokens` are one parenthesised expression and nothing more."""
    depth = 0
    for i, token in enumerate(tokens):
        depth += (token == "(") - (token == ")")
        if depth <= 0:
            return depth == 0 and 0 < i == len(tokens) - 1
    return False


def parse_template(text: str) -> Template:
    """`( deftemplate NAME ( slot SLOT ( type STRING ) )… )`. A slot repeated
    before the first token that departs from the form, in one balanced
    expression, is a ValidationError; any other departure is a
    DocumentSyntaxError."""
    tokens = _tokenize(text)
    name = _symbol(tokens[2]) if len(tokens) > 2 else None
    slots = [_symbol(token) for token in tokens[5::8]]
    expected = ["(", "deftemplate", name]
    for slot in slots:
        expected += "(", "slot", slot, "(", "type", SLOT_TYPE_STRING, ")", ")"
    expected.append(")")
    departure = next(
        (i for i, pair in enumerate(zip(tokens, expected)) if pair[0] != pair[1]),
        min(len(tokens), len(expected)),
    )
    seen = set()
    repeated = next(
        (s for s in slots[: max(0, departure - 3) // 8] if s in seen or seen.add(s)), None
    )
    if repeated is not None and _balanced(tokens):
        raise ValidationError(f"duplicate slot {repeated!r} in template {name!r}")
    if tokens != expected:
        raise DocumentSyntaxError(f"not a deftemplate: {shown(text)}")
    return Template(name=name, slots=tuple(slots))


def parse_fact(text: str) -> Fact:
    """`( TEMPLATE ( SLOT "value" )… )`, binding at least one slot."""
    tokens = _tokenize(text)
    template = _symbol(tokens[1]) if len(tokens) > 1 else None
    names = [_symbol(token) for token in tokens[3::4]]
    values = [token if token[0] == '"' else None for token in tokens[4::4]]
    expected = ["(", template]
    for name, value in zip(names, values):
        expected += "(", name, value, ")"
    expected.append(")")
    if tokens != expected:
        raise DocumentSyntaxError(f"not a fact: {shown(text)}")
    if not names:
        raise ValidationError(f"fact binds no slots: {shown(text)}")
    bindings = tuple((name, value[1:]) for name, value in zip(names, values))
    return Fact(template=template, bindings=bindings)


def serialize_template(t: Template) -> str:
    slots = "".join(f" (slot {s} (type {SLOT_TYPE_STRING}))" for s in t.slots)
    return f"(deftemplate {t.name}{slots})"


def serialize_fact(f: Fact) -> str:
    """Values escape `\\` and `"`, so _tokenize reads them back unchanged."""
    escaped = [(n, v.replace("\\", "\\\\").replace('"', '\\"')) for n, v in f.bindings]
    bindings = " ".join(f'({name} "{value}")' for name, value in escaped)
    return f"({f.template} {bindings})"


# --- knowledge operations ---------------------------------------------------

def validate_fact(k: Knowledge, fact: Fact) -> None:
    template = k.templates.get(fact.template)
    if template is None:
        raise UnknownTemplate(f"fact references unknown template {fact.template!r}")
    known = set(template.slots)
    for name, _ in fact.bindings:
        if name not in known:
            raise UnknownSlot(
                f"template {fact.template!r} has no slot {name!r}"
            )


def parse_knowledge(document: str) -> Knowledge:
    """Parse the JSON envelope; templates register before facts validate."""
    try:
        raw = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentSyntaxError(
            f"malformed knowledge envelope: {exc}", line=getattr(exc, "lineno", None)
        )
    if not isinstance(raw, dict):
        raise DocumentSyntaxError("knowledge envelope must be a JSON object")
    if raw.get("rules"):
        logger.warning("knowledge envelope contains rules; ignoring them")

    templates: dict[str, Template] = {}
    for text in require_list(raw.get("templates"), "knowledge templates"):
        template = parse_template(str(text))
        if template.name in templates:
            raise ValidationError(f"duplicate template {template.name!r}")
        templates[template.name] = template

    k = Knowledge(templates=templates)
    facts = []
    for text in require_list(raw.get("facts"), "knowledge facts"):
        fact = parse_fact(str(text))
        validate_fact(k, fact)
        facts.append(fact)
    return k._replace(facts=tuple(facts))


def serialize_knowledge(k: Knowledge) -> str:
    envelope = {
        "templates": [serialize_template(t) for t in k.templates.values()],
        "facts": [serialize_fact(f) for f in k.facts],
    }
    return json.dumps(envelope, indent=2) + "\n"

