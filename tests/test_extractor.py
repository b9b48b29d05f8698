import pytest
from hypothesis import example, given, strategies as st

from intentrefine import extractor, factbase
from intentrefine.extractor import (
    KIND_DESTINATION_IP,
    KIND_SOURCE_IP,
    KIND_URL,
    extract_indicators,
    indicators_to_knowledge,
)

from conftest import assert_fact, extend_template, read_fixture


def kinds_and_values(indicators):
    return [(i.kind, i.value) for i in indicators]


def test_source_cue_classifies_as_source():
    text = "The malware compromises vulnerable hosts and sends requests from the address 1.2.3.4 continuously."
    assert kinds_and_values(extract_indicators(text)) == [(KIND_SOURCE_IP, "1.2.3.4")]


def test_bare_ioc_defaults_to_destination():
    text = read_fixture("scenario1", "cti.txt")
    assert kinds_and_values(extract_indicators(text)) == [
        (KIND_DESTINATION_IP, "80.71.158.96")
    ]


def test_domain_extraction_lowercases():
    text = read_fixture("scenario2", "cti.txt")
    assert kinds_and_values(extract_indicators(text)) == [
        (KIND_URL, "hadleyshope.3utilities.com")
    ]
    assert kinds_and_values(extract_indicators(text.upper()))[0][1] == (
        "hadleyshope.3utilities.com"
    )


def test_empty_text():
    assert extract_indicators("") == []


def test_invalid_ip_octets_skipped():
    assert extract_indicators("contacted 999.1.2.3 yesterday") == []


@pytest.mark.parametrize("text", [
    "signed with certificate OID 1.3.6.1.4.1.311.10.3.3",
    "affects version 2.4.10.1.7 and later",
    "affects version 2.4.10.1.7.",
])
def test_no_address_is_read_out_of_a_longer_dotted_run(text):
    assert extract_indicators(text) == []


@pytest.mark.parametrize("text, values", [
    ("beacons went out from 10.0.0.1.", ["10.0.0.1"]),
    ("listening on 1.2.3.4:80", ["1.2.3.4"]),
    ("the server (80.71.158.96) answered", ["80.71.158.96"]),
    ("scanned 1.2.3.4-1.2.3.9 overnight", ["1.2.3.4", "1.2.3.9"]),
])
def test_address_beside_punctuation_is_read(text, values):
    assert kinds_and_values(extract_indicators(text)) == [
        (KIND_DESTINATION_IP, value) for value in values]


def test_ip_fragments_not_matched_as_domains():
    inds = extract_indicators("the host at 10.20.30.40 was flagged")
    assert all(i.kind != KIND_URL for i in inds)


def test_duplicates_collapse_by_kind_and_value():
    text = "IoC list: 5.6.7.8 and again 5.6.7.8, plus bad.example.org and BAD.example.org"
    got = kinds_and_values(extract_indicators(text))
    assert got == [
        (KIND_DESTINATION_IP, "5.6.7.8"),
        (KIND_URL, "bad.example.org"),
    ]


def test_first_occurrence_order():
    text = "first evil.example.net then address 9.8.7.6 appears"
    got = kinds_and_values(extract_indicators(text))
    assert got == [(KIND_URL, "evil.example.net"), (KIND_DESTINATION_IP, "9.8.7.6")]


def test_determinism():
    text = read_fixture("scenario1", "cti.txt") + read_fixture("scenario2", "cti.txt")
    assert extract_indicators(text) == extract_indicators(text)


def test_indicators_extend_schema(scenario1_knowledge):
    indicators = extract_indicators(read_fixture("scenario2", "cti.txt"))
    k = indicators_to_knowledge(indicators, scenario1_knowledge)
    assert k.templates["entity"].slots == ("destination-ip-address", "url")
    assert len(k.facts) == len(scenario1_knowledge.facts) + 1
    assert k.facts[-1].get("url") == "hadleyshope.3utilities.com"


def test_no_indicators_is_identity(scenario1_knowledge):
    assert indicators_to_knowledge([], scenario1_knowledge) == scenario1_knowledge


def test_existing_kinds_leave_template_unchanged(scenario1_knowledge):
    text = "IoCs: 1.1.1.1 and 2.2.2.2 observed"
    indicators = extract_indicators(text)
    k = indicators_to_knowledge(indicators, scenario1_knowledge)
    assert k.templates == scenario1_knowledge.templates
    assert len(k.facts) == len(scenario1_knowledge.facts) + 2


def test_asserted_facts_validate(scenario1_knowledge):
    text = read_fixture("scenario1", "cti.txt") + read_fixture("scenario2", "cti.txt")
    k = indicators_to_knowledge(extract_indicators(text), scenario1_knowledge)
    for fact in k.facts:
        factbase.validate_fact(k, fact)


def test_extraction_from_empty_base():
    k = indicators_to_knowledge(
        extract_indicators("spotted 4.4.4.4 in logs"), factbase.Knowledge()
    )
    assert k.templates["entity"].slots == ("destination-ip-address",)
    assert len(k.facts) == 1


def reference_knowledge(indicators, base):
    """indicators_to_knowledge as a fold of the one-step knowledge
    operations."""
    k = base
    if indicators and "entity" not in k.templates:
        k = factbase.Knowledge({**k.templates, "entity": factbase.Template("entity")},
                               k.facts)
    for ind in indicators:
        if ind.kind not in k.templates["entity"].slots:
            k = extend_template(k, "entity", ind.kind)
        k = assert_fact(k, factbase.Fact("entity", ((ind.kind, ind.value),)))
    return k


SLOTS = [KIND_SOURCE_IP, KIND_DESTINATION_IP, KIND_URL, "port", "hash"]


@st.composite
def knowledge_bases(draw):
    """Templates drawn from "entity" and two others, each with distinct
    slots, and a few facts of each."""
    names = draw(st.lists(st.sampled_from(["entity", "host", "user"]), unique=True))
    templates, facts = {}, []
    for name in names:
        slots = draw(st.lists(st.sampled_from(SLOTS), min_size=1, unique=True))
        templates[name] = factbase.Template(name, tuple(slots))
        for slot in draw(st.lists(st.sampled_from(slots), max_size=3)):
            facts.append(factbase.Fact(name, ((slot, draw(st.text("ab.1", max_size=3))),)))
    return factbase.Knowledge(templates, tuple(draw(st.permutations(facts))))


indicator_lists = st.lists(st.builds(
    extractor.Indicator, kind=st.sampled_from(SLOTS), value=st.text("ab.1", max_size=3),
    span=st.just((0, 0))), max_size=8)


@given(indicator_lists, knowledge_bases())
def test_indicators_to_knowledge_is_the_fold_of_extend_and_assert(indicators, base):
    k = indicators_to_knowledge(indicators, base)
    expected = reference_knowledge(indicators, base)
    assert k == expected
    assert list(k.templates.items()) == list(expected.templates.items())
    assert factbase.serialize_knowledge(k) == factbase.serialize_knowledge(expected)


# Runs of mixed whitespace, str.split's included (vertical tab, form feed,
# the information separators, NEL, no-break and ideographic space), and of
# token characters, upper case and a character lower() lengthens among them.
WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2003\u3000"
TOKEN_CHARS = "aZ09.-İ\u00df"
RUNS = st.lists(
    st.one_of(st.text(WHITESPACE, min_size=1, max_size=300),
              st.text(TOKEN_CHARS, min_size=1, max_size=300),
              st.sampled_from(["FROM the ADDRESS", "Originating   from"])),
    max_size=40,
).map("".join)


def reference_window(text, start):
    return " ".join(text[:start].split()[-8:]).lower()


@given(RUNS.flatmap(lambda text: st.tuples(st.just(text), st.integers(0, len(text)))))
@example(("", 0))
@example(("a b c d e f g h i j 1.2.3.4", 20))
@example((" " * 600 + "x" * 600 + " a", 1202))
@example(("x" * 200 + " a" * 7, 214))
def test_cue_window_is_the_last_eight_tokens_before_the_hit(case):
    text, start = case
    for at in (start, min(start, 3)):
        assert extractor._cue_window(text, at) == reference_window(text, at)


# Long whitespace-free runs, cues and their pieces in mixed case, so that a
# cue can begin inside a run far longer than any cue.
LONG_RUNS = st.lists(
    st.one_of(st.text(WHITESPACE, min_size=1, max_size=3),
              st.builds(lambda chars, n: chars * n,
                        st.text(TOKEN_CHARS + ",", min_size=1, max_size=3),
                        st.integers(1, 1500)),
              st.sampled_from(["from", "FROM the", "the address", "sends",
                               "requests from", "Originating", "originating from",
                               "from the address", "1.2.3.4", ",5.6.7.8"])),
    max_size=30,
).map("".join)


@given(LONG_RUNS.flatmap(lambda text: st.tuples(st.just(text), st.integers(0, len(text)))))
@example(("x" * 3000 + "from the address 1.2.3.4", 3017))
@example(("," * 3000 + "Originating from 1.2.3.4", 3017))
@example(("sends requests from" + "x" * 3000 + " 1.2.3.4", 3020))
def test_source_cue_agrees_with_the_full_window_on_long_runs(case):
    text, start = case
    for at in (start, len(text)):
        window = reference_window(text, at)
        assert extractor._has_source_cue(text, at) == any(
            cue in window for cue in extractor.SOURCE_CUES)


class CountingText(str):
    """Text that counts the characters its slices read."""

    read = 0

    def __getitem__(self, key):
        part = super().__getitem__(key)
        CountingText.read += len(part)
        return part


@pytest.mark.parametrize("addresses", [1000, 4000])
def test_cue_search_reads_each_address_back_a_bounded_stretch(addresses):
    # one whitespace-free run: every address's window starts in that run
    text = CountingText(",".join(f"10.{i // 250}.{i % 250}.1" for i in range(addresses)))
    CountingText.read = 0
    assert len(extract_indicators(text)) == addresses
    assert CountingText.read <= 32 * len(text)
