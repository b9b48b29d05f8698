import json

import pytest
from hypothesis import given, strategies as st

from intentrefine import factbase
from intentrefine.errors import (
    DocumentSyntaxError,
    DuplicateSlot,
    UnknownSlot,
    UnknownTemplate,
)
from intentrefine.factbase import Fact

LISTING_EXAMPLE = json.dumps(
    {
        "templates": ['(deftemplate entity (slot source-ip-address (type STRING)))'],
        "facts": ['(entity (source-ip-address "1.2.3.4"))'],
    }
)


def test_parse_basic_envelope():
    k = factbase.parse_knowledge(LISTING_EXAMPLE)
    assert k.templates["entity"].slots == ("source-ip-address",)
    assert len(k.facts) == 1
    assert k.facts[0].get("source-ip-address") == "1.2.3.4"


def test_parse_empty_envelope():
    k = factbase.parse_knowledge('{"templates": [], "facts": []}')
    assert not k.templates and not k.facts


def test_multiline_template_text(scenario2_knowledge):
    # fixture stores the template on one line; the parser must also cope
    # with whitespace spread over lines
    doc = json.dumps(
        {
            "templates": [
                "(deftemplate entity \n  (slot destination-ip-address (type STRING))\n  (slot url (type STRING)))"
            ],
            "facts": ['(entity (url "hadleyshope.3utilities.com"))'],
        }
    )
    k = factbase.parse_knowledge(doc)
    assert k.templates["entity"] == scenario2_knowledge.templates["entity"]


def test_fact_with_unknown_slot_rejected(scenario1_knowledge):
    doc = json.dumps(
        {
            "templates": ["(deftemplate entity (slot destination-ip-address (type STRING)))"],
            "facts": ['(entity (url "evil.example.com"))'],
        }
    )
    with pytest.raises(UnknownSlot):
        factbase.parse_knowledge(doc)


def test_fact_with_unknown_template_rejected():
    doc = json.dumps({"templates": [], "facts": ['(entity (url "a.b.com"))']})
    with pytest.raises(UnknownTemplate):
        factbase.parse_knowledge(doc)


def test_unbalanced_parens_rejected():
    doc = json.dumps({"templates": ["(deftemplate entity"], "facts": []})
    with pytest.raises(DocumentSyntaxError):
        factbase.parse_knowledge(doc)


def test_rules_member_ignored_with_warning(caplog):
    doc = json.dumps({"templates": [], "facts": [], "rules": ["(defrule r =>)"]})
    with caplog.at_level("WARNING"):
        factbase.parse_knowledge(doc)
    assert any("rules" in rec.message for rec in caplog.records)


def test_extend_appends_slot(scenario1_knowledge):
    k = factbase.extend_template(scenario1_knowledge, "entity", "url")
    assert k.templates["entity"].slots == ("destination-ip-address", "url")
    # original untouched, facts preserved
    assert scenario1_knowledge.templates["entity"].slots == (
        "destination-ip-address",
    )
    assert k.facts == scenario1_knowledge.facts


def test_extend_duplicate_slot_rejected(scenario1_knowledge):
    k = factbase.extend_template(scenario1_knowledge, "entity", "url")
    with pytest.raises(DuplicateSlot):
        factbase.extend_template(k, "entity", "url")


def test_extend_unknown_template_rejected(scenario1_knowledge):
    with pytest.raises(UnknownTemplate):
        factbase.extend_template(scenario1_knowledge, "ghost", "url")


def test_extend_with_no_facts():
    k = factbase.parse_knowledge('{"templates": ["(deftemplate entity (slot a (type STRING)))"], "facts": []}')
    k2 = factbase.extend_template(k, "entity", "b")
    assert k2.templates["entity"].slots == ("a", "b")
    assert k2.facts == ()


def test_serialize_parse_fixpoint(scenario1_knowledge, scenario2_knowledge):
    for k in (scenario1_knowledge, scenario2_knowledge):
        text = factbase.serialize_knowledge(k)
        again = factbase.parse_knowledge(text)
        assert again == k
        assert factbase.serialize_knowledge(again) == text


slot_names = st.lists(
    st.from_regex(r"[a-z][a-z-]{0,10}", fullmatch=True), min_size=1, max_size=5,
    unique=True,
)


@given(slots=slot_names, new_slot=st.from_regex(r"[a-z][a-z-]{0,10}", fullmatch=True),
       values=st.lists(st.text(alphabet="abc0123456789.", min_size=1, max_size=8), min_size=1, max_size=3))
def test_schema_monotonicity(slots, new_slot, values):
    """Facts valid before an extension stay valid after it."""
    doc = {
        "templates": [
            "(deftemplate entity "
            + " ".join(f"(slot {s} (type STRING))" for s in slots)
            + ")"
        ],
        "facts": [f'(entity ({slots[0]} "{v}"))' for v in values],
    }
    k = factbase.parse_knowledge(json.dumps(doc))
    if new_slot in slots:
        with pytest.raises(DuplicateSlot):
            factbase.extend_template(k, "entity", new_slot)
        return
    k2 = factbase.extend_template(k, "entity", new_slot)
    assert k2.facts == k.facts
    for fact in k2.facts:
        factbase.validate_fact(k2, fact)


def test_assert_fact_counts(scenario1_knowledge):
    fact = Fact(template="entity", bindings=(("destination-ip-address", "9.9.9.9"),))
    k = factbase.assert_fact(scenario1_knowledge, fact)
    assert len(k.facts) == len(scenario1_knowledge.facts) + 1


# Any printable text, with the two characters a string token escapes drawn often.
fact_values = st.text(
    st.one_of(st.sampled_from('\\"'), st.characters(blacklist_categories=("Cs", "Cc")))
)


@given(template=st.from_regex(r"[a-z][a-z-]{0,10}", fullmatch=True),
       bindings=st.lists(
           st.tuples(st.from_regex(r"[a-z][a-z-]{0,10}", fullmatch=True), fact_values),
           min_size=1, max_size=3))
def test_fact_serialization_roundtrips(template, bindings):
    fact = Fact(template=template, bindings=tuple(bindings))
    assert factbase.parse_fact(factbase.serialize_fact(fact)) == fact
