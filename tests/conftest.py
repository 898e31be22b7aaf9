import random

import pytest

from causalground.core import ActionModel, FactoredSpace, FiniteSet, TotalMap
from causalground.dominoes import (
    build_bounded_model,
    five_chain_family,
    four_chain_family,
    three_chain_family,
)
from causalground.scm import Scm
from oracles import random_action_model, random_word

N_MODELS = 500


def binary(name: str) -> FiniteSet:
    return FiniteSet(name, ("0", "1"))


@pytest.fixture(scope="session")
def pair_model():
    """X = {x1, x2}, two binary outcome variables, swap and const generators."""
    states = FiniteSet("X", ("x1", "x2"))
    space = FactoredSpace((("v1", binary("v1")), ("v2", binary("v2"))))
    process = TotalMap(states, space.total, {"x1": "0|0", "x2": "1|1"})
    generators = {
        "swap": TotalMap(states, states, {"x1": "x2", "x2": "x1"}),
        "const": TotalMap(states, states, {"x1": "x1", "x2": "x1"}),
    }
    return ActionModel(states, space, generators, process)


@pytest.fixture(scope="session")
def xor_scm():
    """V1 := U1, V2 := V1 xor U2, everything binary."""
    return Scm(
        (("U1", binary("U1")), ("U2", binary("U2"))),
        (("V1", binary("V1")), ("V2", binary("V2"))),
        {"V1": (), "V2": ("V1",)},
        {
            "V1": {("0",): "0", ("1",): "1"},
            "V2": {
                ("0", "0"): "0",
                ("0", "1"): "1",
                ("1", "0"): "1",
                ("1", "1"): "0",
            },
        },
    )


@pytest.fixture(scope="session")
def three_chain():
    return build_bounded_model(three_chain_family())


@pytest.fixture(scope="session")
def four_chain():
    return build_bounded_model(four_chain_family())


@pytest.fixture(scope="session")
def five_chain():
    return build_bounded_model(five_chain_family())


@pytest.fixture(scope="session")
def model_corpus():
    """500 seeded random models, each with one seeded random word."""
    rng = random.Random(2024)
    corpus = []
    for seed in range(N_MODELS):
        model = random_action_model(seed)
        corpus.append((model, random_word(rng, model)))
    return corpus
