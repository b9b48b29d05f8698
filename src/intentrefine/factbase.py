"""CLIPS-syntax knowledge store: templates, facts, and monotone schema growth.

Wire format is a JSON envelope with `templates` and `facts` arrays of
s-expression strings, e.g.

    {"templates": ["(deftemplate entity (slot url (type STRING)))"],
     "facts": ["(entity (url \"a.example.com\"))"]}

Only STRING slots exist; template extension is append-only, so every fact
that was valid before an extension stays valid after it.
"""

from __future__ import annotations

import json
import logging
from collections import namedtuple
from types import MappingProxyType

from .errors import (
    DocumentSyntaxError,
    DuplicateSlot,
    UnknownSlot,
    UnknownTemplate,
    ValidationError,
    require_list,
)

logger = logging.getLogger(__name__)

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


# --- s-expression layer -----------------------------------------------------

def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append(c)
            i += 1
        elif c == '"':
            j = i + 1
            buf = []
            while j < len(text) and text[j] != '"':
                if text[j] == "\\" and j + 1 < len(text):
                    j += 1
                buf.append(text[j])
                j += 1
            if j >= len(text):
                raise DocumentSyntaxError(f"unterminated string in {text!r}")
            tokens.append('"' + "".join(buf))
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in '()"':
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _read_sexpr(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise DocumentSyntaxError("unexpected end of expression")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read_sexpr(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise DocumentSyntaxError("unbalanced parentheses")
        return items, pos + 1
    if tok == ")":
        raise DocumentSyntaxError("unexpected ')'")
    return tok, pos + 1


def _parse_one(text: str):
    tokens = _tokenize(text)
    expr, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        raise DocumentSyntaxError(f"trailing tokens after expression: {text!r}")
    if not isinstance(expr, list):
        raise DocumentSyntaxError(f"expected a list expression: {text!r}")
    return expr


def parse_template(text: str) -> Template:
    expr = _parse_one(text)
    if len(expr) < 2 or expr[0] != "deftemplate" or not isinstance(expr[1], str):
        raise DocumentSyntaxError(f"not a deftemplate: {text!r}")
    name = expr[1]
    slots = []
    seen = set()
    for item in expr[2:]:
        if (
            not isinstance(item, list)
            or len(item) != 3
            or item[0] != "slot"
            or not isinstance(item[1], str)
            or item[2] != ["type", SLOT_TYPE_STRING]
        ):
            raise DocumentSyntaxError(f"bad slot declaration in {text!r}: {item!r}")
        if item[1] in seen:
            raise ValidationError(f"duplicate slot {item[1]!r} in template {name!r}")
        seen.add(item[1])
        slots.append(item[1])
    return Template(name=name, slots=tuple(slots))


def parse_fact(text: str) -> Fact:
    expr = _parse_one(text)
    if not expr or not isinstance(expr[0], str):
        raise DocumentSyntaxError(f"not a fact: {text!r}")
    bindings = []
    for item in expr[1:]:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not isinstance(item[0], str)
            or not isinstance(item[1], str)
            or not item[1].startswith('"')
        ):
            raise DocumentSyntaxError(f"bad binding in fact {text!r}: {item!r}")
        bindings.append((item[0], item[1][1:]))
    if not bindings:
        raise ValidationError(f"fact binds no slots: {text!r}")
    return Fact(template=expr[0], bindings=tuple(bindings))


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


def extend_template(k: Knowledge, template: str, new_slot: str) -> Knowledge:
    """Append a slot to a template; existing facts stay valid and unmodified."""
    current = k.templates.get(template)
    if current is None:
        raise UnknownTemplate(f"cannot extend unknown template {template!r}")
    if new_slot in current.slots:
        raise DuplicateSlot(f"template {template!r} already has slot {new_slot!r}")
    templates = dict(k.templates)
    templates[template] = Template(
        name=current.name, slots=current.slots + (new_slot,)
    )
    return Knowledge(templates=templates, facts=k.facts)


def assert_fact(k: Knowledge, fact: Fact) -> Knowledge:
    validate_fact(k, fact)
    return Knowledge(templates=k.templates, facts=k.facts + (fact,))

