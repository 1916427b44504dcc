from pathlib import Path

import pytest

from selfcite.classify import classify_all
from selfcite.corpus import load_corpus
from selfcite.graph import build_collaboration_index, build_edges
from selfcite.kernel import count_edges
from selfcite.metrics import finalize_profiles

TESTDATA = Path(__file__).resolve().parent.parent / "testdata"


@pytest.fixture(scope="session")
def fix1():
    return load_corpus(TESTDATA / "fix1_papers.jsonl", TESTDATA / "fix1_authors.jsonl")


@pytest.fixture(scope="session")
def fix1_edges(fix1):
    return build_edges(fix1)


@pytest.fixture(scope="session")
def fix1_collab(fix1):
    return build_collaboration_index(fix1)


@pytest.fixture(scope="session")
def fix1_records(fix1, fix1_edges, fix1_collab):
    return list(classify_all(fix1, fix1_edges, fix1_collab))


@pytest.fixture(scope="session")
def fix1_profiles(fix1):
    return finalize_profiles(fix1, count_edges(fix1, ["profile"]).project_events()[0])
