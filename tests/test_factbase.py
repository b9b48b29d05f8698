import json

import pytest
from hypothesis import given, strategies as st

from intentrefine import factbase
from intentrefine.errors import (
    DocumentSyntaxError,
    PipelineError,
    UnknownSlot,
    UnknownTemplate,
    ValidationError,
)
from intentrefine.factbase import Fact, Template

from conftest import DuplicateSlot, assert_fact, extend_template
from test_extractor import WHITESPACE

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
    k = extend_template(scenario1_knowledge, "entity", "url")
    assert k.templates["entity"].slots == ("destination-ip-address", "url")
    # original untouched, facts preserved
    assert scenario1_knowledge.templates["entity"].slots == (
        "destination-ip-address",
    )
    assert k.facts == scenario1_knowledge.facts


def test_extend_duplicate_slot_rejected(scenario1_knowledge):
    k = extend_template(scenario1_knowledge, "entity", "url")
    with pytest.raises(DuplicateSlot):
        extend_template(k, "entity", "url")


def test_extend_unknown_template_rejected(scenario1_knowledge):
    with pytest.raises(UnknownTemplate):
        extend_template(scenario1_knowledge, "ghost", "url")


def test_extend_with_no_facts():
    k = factbase.parse_knowledge('{"templates": ["(deftemplate entity (slot a (type STRING)))"], "facts": []}')
    k2 = extend_template(k, "entity", "b")
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
            extend_template(k, "entity", new_slot)
        return
    k2 = extend_template(k, "entity", new_slot)
    assert k2.facts == k.facts
    for fact in k2.facts:
        factbase.validate_fact(k2, fact)


def test_assert_fact_counts(scenario1_knowledge):
    fact = Fact(template="entity", bindings=(("destination-ip-address", "9.9.9.9"),))
    k = assert_fact(scenario1_knowledge, fact)
    assert len(k.facts) == len(scenario1_knowledge.facts) + 1


# Any printable text, with the two characters a string token escapes drawn often.
fact_values = st.text(
    st.one_of(st.sampled_from('\\"'), st.characters(blacklist_categories=("Cs", "Cc")))
)


def _quoted(value):
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _template_tokens(name, slots):
    tokens = ["(", "deftemplate", name]
    for slot in slots:
        tokens += "(", "slot", slot, "(", "type", "STRING", ")", ")"
    return tokens + [")"]


def _fact_tokens(template, bindings):
    """`bindings`: (name, value token) pairs."""
    tokens = ["(", template]
    for name, value in bindings:
        tokens += "(", name, value, ")"
    return tokens + [")"]


@st.composite
def spaced(draw, tokens):
    """`tokens` joined by random white space, with none where the tokenizer
    needs none: anywhere but between two symbols, as in `(url"a")`."""
    text, previous = "", "("
    for token in tokens:
        between_symbols = previous[0] not in '()"' and token[0] not in '()"'
        text += draw(st.text(WHITESPACE, min_size=between_symbols, max_size=3)) + token
        previous = token
    return text + draw(st.text(WHITESPACE, max_size=3))


@given(data=st.data(), template=st.from_regex(r"[a-z][a-z-]{0,10}", fullmatch=True),
       bindings=st.lists(
           st.tuples(st.from_regex(r"[a-z][a-z-]{0,10}", fullmatch=True), fact_values),
           min_size=1, max_size=3))
def test_fact_serialization_roundtrips(data, template, bindings):
    """A fact, and a template of its slots, read back from their serialized
    text and from their tokens spaced at random."""
    fact = Fact(template=template, bindings=tuple(bindings))
    assert factbase.parse_fact(factbase.serialize_fact(fact)) == fact
    tokens = _fact_tokens(template, [(name, _quoted(value)) for name, value in bindings])
    assert factbase.parse_fact(data.draw(spaced(tokens))) == fact

    slots = tuple(dict.fromkeys(name for name, _ in bindings))
    declared = Template(name=template, slots=slots)
    assert factbase.parse_template(factbase.serialize_template(declared)) == declared
    tokens = _template_tokens(template, slots)
    assert factbase.parse_template(data.draw(spaced(tokens))) == declared


# Names of the knowledge forms: symbols, and strings that may hold
# parentheses, quotes and backslashes, written as they are.
knowledge_names = st.one_of(
    st.text("ab-\\", min_size=1, max_size=3),
    st.text('ab()\\"', max_size=3).map('"{}"'.format),
)


@st.composite
def knowledge_documents(draw):
    """An envelope of one template and facts of it, its names drawn from
    knowledge_names, its values from fact_values, spaced at random."""
    name = draw(knowledge_names)
    slots = draw(st.lists(knowledge_names, max_size=3))
    facts = draw(st.lists(st.lists(
        st.tuples(st.sampled_from(slots) if slots else knowledge_names,
                  fact_values.map(_quoted)), max_size=2), max_size=2))
    return json.dumps({
        "templates": [draw(spaced(_template_tokens(name, slots)))],
        "facts": [draw(spaced(_fact_tokens(name, bindings))) for bindings in facts],
    })


@given(knowledge_documents())
def test_accepted_knowledge_serializes_to_text_that_reads_back_equal(document):
    try:
        k = factbase.parse_knowledge(document)
    except PipelineError:
        return
    assert factbase.parse_knowledge(factbase.serialize_knowledge(k)) == k


@pytest.mark.parametrize("parse", [factbase.parse_template, factbase.parse_fact])
def test_deep_nesting_is_a_short_syntax_error(parse):
    text = "(" * 100_000 + ")" * 100_000
    with pytest.raises(DocumentSyntaxError) as exc:
        parse(text)
    assert len(str(exc.value)) < 300


@pytest.mark.parametrize("text, error", [
    # A repeated slot, then a balanced expression that is no slot: the slots
    # are checked in turn, so the repetition is found first.
    ("(deftemplate e (slot a (type STRING)) (slot a (type STRING)) (x))", ValidationError),
    ("(deftemplate e (slot a (type STRING)) (slot a (type STRING)) x)", ValidationError),
    # The same, but unbalanced: no expression, so no slots to check.
    ("(deftemplate e (slot a (type STRING)) (slot a (type STRING)) (x)", DocumentSyntaxError),
    ("(deftemplate e (slot a (type STRING)) (slot a (type STRING))) x", DocumentSyntaxError),
    # A malformed slot, or no name, before the repetition.
    ("(deftemplate e (slot a (type STRING)) (x) (slot a (type STRING)))", DocumentSyntaxError),
    ("(deftemplate (slot a (type STRING)) (slot a (type STRING)))", DocumentSyntaxError),
    # A fact that binds nothing, and one whose value is no string.
    ("(entity)", ValidationError),
    ("(entity (a b))", DocumentSyntaxError),
    # A name written as a string: it would be written back unterminated.
    ('(deftemplate "entity" (slot url (type STRING)))', DocumentSyntaxError),
    ('(deftemplate entity (slot "url" (type STRING)))', DocumentSyntaxError),
    ('(deftemplate entity (slot "a" (type STRING)) (slot "a" (type STRING)))',
     DocumentSyntaxError),
    ('(entity ("url" "a"))', DocumentSyntaxError),
    ('("entity" (url "a"))', DocumentSyntaxError),
    ('("entity")', DocumentSyntaxError),
])
def test_each_malformed_form_raises_its_error(text, error):
    parse = factbase.parse_template if "deftemplate" in text else factbase.parse_fact
    with pytest.raises(PipelineError) as exc:
        parse(text)
    assert type(exc.value) is error
