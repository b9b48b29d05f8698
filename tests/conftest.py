import pathlib

import pytest

from intentrefine import capability, cli, factbase, refiner, topology
from intentrefine.errors import UnknownTemplate

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

EXIT_CODES_BY_NAME = {cls.__name__: code for cls, code in cli.EXIT_CODES.items()}


def read_fixture(*parts: str) -> str:
    return (FIXTURES / pathlib.Path(*parts)).read_text()


# --- knowledge operations the pipeline builds in one pass -------------------
#
# extractor.indicators_to_knowledge grows the entity template and adds facts
# at once; these are the one-step operations its result must equal.

class DuplicateSlot(Exception):
    """Template extension would add an already-present slot."""


def extend_template(k: factbase.Knowledge, template: str, new_slot: str) -> factbase.Knowledge:
    """Append a slot to a template; existing facts stay valid and unmodified."""
    current = k.templates.get(template)
    if current is None:
        raise UnknownTemplate(f"cannot extend unknown template {template!r}")
    if new_slot in current.slots:
        raise DuplicateSlot(f"template {template!r} already has slot {new_slot!r}")
    templates = dict(k.templates)
    templates[template] = factbase.Template(
        name=current.name, slots=current.slots + (new_slot,)
    )
    return factbase.Knowledge(templates=templates, facts=k.facts)


def assert_fact(k: factbase.Knowledge, fact: factbase.Fact) -> factbase.Knowledge:
    factbase.validate_fact(k, fact)
    return factbase.Knowledge(templates=k.templates, facts=k.facts + (fact,))


@pytest.fixture(scope="session")
def catalog():
    return capability.load_catalog(read_fixture("catalog.json"))


@pytest.fixture()
def scenario1_topology():
    return topology.parse_topology(read_fixture("scenario1", "topology.yaml"))


@pytest.fixture()
def scenario1_knowledge():
    return factbase.parse_knowledge(read_fixture("scenario1", "knowledge.json"))


@pytest.fixture()
def scenario1_intent():
    return refiner.parse_hspl(read_fixture("scenario1", "hspl.xml"))[0]


@pytest.fixture()
def scenario2_topology():
    return topology.parse_topology(read_fixture("scenario2", "topology.yaml"))


@pytest.fixture()
def scenario2_knowledge():
    return factbase.parse_knowledge(read_fixture("scenario2", "knowledge.json"))


@pytest.fixture()
def scenario2_intent():
    return refiner.parse_hspl(read_fixture("scenario2", "hspl.xml"))[0]
