import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from decstruct import load_actions, load_structure, load_world
from decstruct.cli import _load_ltl_file

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")


def corpus_path(name):
    return os.path.join(CORPUS, name)


def structure(name):
    return load_structure(corpus_path(name + ".ds"))


@pytest.fixture(scope="session")
def world():
    return load_world(corpus_path("drone.wld"))


@pytest.fixture(scope="session")
def specs():
    return load_actions(corpus_path("drone.act"))


@pytest.fixture(scope="session")
def spec_formula():
    return _load_ltl_file(corpus_path("spec.ltl"))
