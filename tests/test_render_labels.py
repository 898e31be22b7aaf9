"""Rendered model and morphism files on labels that need escaping or that
sort in surprising ways, against the stdlib's layout of the reference
writers' dicts.

Labels mix non-ASCII and astral characters, ``"``, ``\\``, control
characters, digit strings (``"10"`` sorts before ``"9"``) and case
(``"B"`` sorts before ``"a"``).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from causalground.abstraction import ModelMorphism  # noqa: E402
from causalground.core import (  # noqa: E402
    ID_LABEL,
    SEP,
    ActionModel,
    FactoredSpace,
    FiniteSet,
    TotalMap,
)
from causalground.io import to_json  # noqa: E402
from oracles import model_to_dict, morphism_to_dict, reference_text  # noqa: E402

SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)

TRICKY = ["10", "9", "B", "a", "A", "b", "", '"', "\\", "\t", "\x00", "\x7f",
          "é", "É", " ", "😀", "𝔸", 'x"y', "a\\nb", "ü1", "1ü"]
LABEL = st.one_of(st.sampled_from(TRICKY), st.text(max_size=4))


def labels(min_size: int, max_size: int, exclude=()):
    return st.lists(
        LABEL.filter(lambda s: s not in exclude), min_size=min_size,
        max_size=max_size, unique=True,
    )


@st.composite
def models(draw, max_generators: int = 3) -> ActionModel:
    states = FiniteSet("X", tuple(draw(labels(1, 6))))
    values = labels(1, 3).filter(lambda vs: all(SEP not in x for x in vs))
    space = FactoredSpace(tuple(
        (v, FiniteSet(v, tuple(draw(values)))) for v in draw(labels(0, 2))
    ))

    def table(codomain: FiniteSet) -> dict:
        return {x: draw(st.sampled_from(codomain.elements)) for x in states.elements}

    # a generator label holds no ',', as words are written comma-joined
    generator_labels = draw(labels(0, max_generators, exclude=(ID_LABEL,)))
    generators = {
        label: TotalMap(states, states, table(states))
        for label in generator_labels if "," not in label
    }
    process = TotalMap(states, space.total, table(space.total))
    return ActionModel(states, space, generators, process)


@SETTINGS
@given(models())
def test_rendered_model_matches_the_reference(model):
    assert to_json(model) == reference_text(model_to_dict(model))


@SETTINGS
@given(models(max_generators=0))
def test_rendered_model_without_generators_matches_the_reference(model):
    assert list(model.generators) == [ID_LABEL]
    assert to_json(model) == reference_text(model_to_dict(model))


@SETTINGS
@given(st.data())
def test_rendered_morphism_matches_the_reference(data):
    source, target = data.draw(models()), data.draw(models())
    alphabet = {a: data.draw(st.sampled_from(target.labels)) for a in source.labels}

    def onto(domain: FiniteSet, codomain: FiniteSet) -> TotalMap:
        pick = st.sampled_from(codomain.elements)
        return TotalMap(domain, codomain, {x: data.draw(pick) for x in domain.elements})

    m = ModelMorphism(
        source, target, onto(source.states, target.states),
        onto(source.outcomes.total, target.outcomes.total), alphabet,
    )
    refs = data.draw(st.lists(LABEL.filter(bool), min_size=2, max_size=2))
    assert to_json(m) == reference_text(morphism_to_dict(m))
    assert to_json(m, *refs) == reference_text(morphism_to_dict(m, *refs))
