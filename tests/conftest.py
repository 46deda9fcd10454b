import pytest

from prooftalk.markup import parse_document
from prooftalk.cli import fixture_paths


@pytest.fixture(scope="session")
def corpus():
    """name -> (source text, parsed Document) for every shipped fixture."""
    out = {}
    for path in fixture_paths():
        source = path.read_text(encoding="utf-8")
        out[path.stem] = (source, parse_document(source))
    return out


@pytest.fixture
def alcolea_graph(corpus):
    return corpus["four_colour_alcolea"][1].graph


@pytest.fixture
def harry_graph(corpus):
    return corpus["harry"][1].graph
