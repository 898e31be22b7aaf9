"""The integer-coded checker kernel against the string kernel it replaced.

Every checker's result object must equal the one its reference in
``oracles`` builds from label tables, one state at a time: determination,
effectiveness, invariance, commute/overwrite, discovery, surgicality,
mechanism records and the SCM law report.  Errors must match in type and
message.
"""

import random

import pytest

from causalground.checkers import (
    check_determination,
    discover_mechanisms,
    probe_record,
)
from causalground.core import ActionModel, TotalMap
from causalground.dominoes import (
    build_bounded_model,
    five_chain_family,
    four_chain_family,
    line6_family,
    three_chain_family,
)
from causalground.scm import (
    INIT_LABEL,
    default_mechanism_records,
    encode_scm,
    random_scm,
    verify_scm_laws,
)
from oracles import (
    all_subset_pairs,
    assert_kernel_agrees,
    assert_same,
    random_action_model,
    random_word,
    reference_probe_record,
    reference_verify_scm_laws,
)


def test_random_models_match_reference(model_corpus):
    rng = random.Random(7)
    for model, word in model_corpus:
        assert_kernel_agrees(model, word, rng, len(model.outcomes.var_ids))


def with_small_images(model: ActionModel, rng: random.Random) -> ActionModel:
    """``model`` plus a generator ``const`` onto one state and a generator
    ``rank`` onto 2 or 3 states, fewer than the model has."""
    states = model.states.elements
    value = rng.choice(states)
    hit = rng.sample(states, rng.randint(2, min(3, len(states) - 1)))
    # The first states go to each of ``hit`` in turn, so all of it is hit.
    rank = {
        x: hit[k] if k < len(hit) else rng.choice(hit) for k, x in enumerate(states)
    }
    generators = dict(model.generators)
    generators["const"] = TotalMap(
        model.states, model.states, {x: value for x in states}
    )
    generators["rank"] = TotalMap(model.states, model.states, rank)
    return ActionModel(model.states, model.outcomes, generators, model.process)


def test_contexts_with_small_images_match_reference():
    rng = random.Random(9)
    verdicts = set()
    for seed in range(80):
        model = random_action_model(seed, max_states=10)
        if len(model.states) < 4:
            continue
        model = with_small_images(model, rng)
        through = rng.choice(("const", "rank", "rank"))
        word = random_word(rng, model, 1) + (through,) + random_word(rng, model, 1)
        var_ids = model.outcomes.var_ids
        assert_kernel_agrees(model, word, rng, len(var_ids))
        for vars_i, vars_j in all_subset_pairs(var_ids):
            verdicts.add(check_determination(model, word, vars_i, vars_j).holds)
        for record in discover_mechanisms(model, word, len(var_ids)):
            for context in (word, random_word(rng, model)):
                assert_same(
                    probe_record, reference_probe_record, model,
                    record.target, record.parents, record.map, context,
                )
    # Failing determinations are among the queries, so counterexample
    # pairs were compared too.
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(30))
def test_seeded_scms_match_reference(seed):
    scm = random_scm(seed)
    model = encode_scm(scm)
    assert verify_scm_laws(model, scm) == reference_verify_scm_laws(model, scm)
    for record in default_mechanism_records(scm, model):
        assert record == reference_probe_record(
            model, record.target, record.parents, record.map, record.context
        )
    assert_kernel_agrees(model, (INIT_LABEL,), random.Random(seed), 2, pairs=8)


@pytest.mark.parametrize(
    "family",
    [three_chain_family, four_chain_family, five_chain_family, line6_family],
    ids=lambda f: f.__name__,
)
def test_domino_families_match_reference(family):
    micro, abstract, _ = build_bounded_model(family())
    rng = random.Random(family.__name__)
    for model in (abstract, micro):
        # line6 micro has 49 634 states: one query of each kind is enough.
        pairs = 1 if len(model.states) > 20_000 else 3
        assert_kernel_agrees(model, random_word(rng, model), rng, 1, pairs)
