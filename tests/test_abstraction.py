import pytest

from causalground.abstraction import (
    ModelMorphism,
    SquareFailure,
    check_naturality,
    check_surjectivity_assumptions,
    compose_morphisms,
)
from causalground.core import (
    ActionModel,
    FactoredSpace,
    FiniteSet,
    TotalMap,
    outcome_map,
)
from causalground.dominoes import (
    LineFamily,
    build_bounded_model,
)

from oracles import (
    barrier_blind_morphism,
    join_values,
    naturality_closure_check,
    split_values,
)


def identity_morphism(model):
    return ModelMorphism(
        model,
        model,
        TotalMap.identity(model.states),
        TotalMap.identity(model.outcomes.total),
    )


@pytest.fixture(scope="module")
def tiny():
    family = LineFamily(
        3,
        ("d1", "d2"),
        2,
        ("0", "1"),
        (1,),
        ("E",),
        actions=("id", "choose-push-d1-E", "remove-d2", "add-barrier-1-2"),
    )
    return family, build_bounded_model(family)


def test_identity_morphism_is_natural(pair_model):
    report = check_naturality(identity_morphism(pair_model))
    assert report.natural and report.failure_count == 0


def test_alphabet_map_defaults_to_identity(pair_model):
    m = identity_morphism(pair_model)
    assert m.alphabet_map == {a: a for a in pair_model.generators}


def test_alphabet_map_must_cover_source(pair_model, three_chain):
    micro, abstract, _ = three_chain
    with pytest.raises(ValueError):
        ModelMorphism(
            pair_model,
            abstract,
            TotalMap.constant(pair_model.states, abstract.states,
                              abstract.states.elements[0]),
            TotalMap.constant(pair_model.outcomes.total, abstract.outcomes.total,
                              abstract.outcomes.total.elements[0]),
            {"swap": "id"},
        )


def test_alphabet_map_keys_must_be_source_generators(pair_model):
    alphabet = {a: a for a in pair_model.generators}
    alphabet["no-such-label"] = "id"
    with pytest.raises(ValueError, match="'no-such-label' is not a source generator"):
        ModelMorphism(
            pair_model,
            pair_model,
            TotalMap.identity(pair_model.states),
            TotalMap.identity(pair_model.outcomes.total),
            alphabet,
        )


def test_domain_mismatch_rejected(pair_model):
    wrong = TotalMap.identity(pair_model.outcomes.total)
    with pytest.raises(ValueError):
        ModelMorphism(pair_model, pair_model, wrong, wrong)


@pytest.mark.parametrize(
    "maps, message",
    [
        (lambda x, y: (TotalMap.constant(x, y, "0|0"), TotalMap.identity(y)),
         "state map codomain must be the target state set"),
        (lambda x, y: (TotalMap.identity(x), TotalMap.identity(x)),
         "outcome map domain must be the source outcome set"),
        (lambda x, y: (TotalMap.identity(x), TotalMap.constant(y, x, "x1")),
         "outcome map codomain must be the target outcome set"),
    ],
    ids=["state-map-codomain", "outcome-map-domain", "outcome-map-codomain"],
)
def test_map_mismatch_rejected(pair_model, maps, message):
    states, outcomes = pair_model.states, pair_model.outcomes.total
    with pytest.raises(ValueError) as err:
        ModelMorphism(pair_model, pair_model, *maps(states, outcomes))
    assert str(err.value) == message


def test_tag_forgetting_morphism_is_natural(tiny):
    family, (micro, abstract, morphism) = tiny
    assert len(abstract.states) * 1 < len(micro.states)  # tags were forgotten
    report = check_naturality(morphism)
    assert report.natural, report.failures[:3]


def test_sabotaged_morphism_fails_with_located_squares(tiny):
    family, (micro, abstract, morphism) = tiny
    bad = barrier_blind_morphism(family, morphism)
    report = check_naturality(bad)
    assert not report.natural
    assert report.failure_count > 0
    action_failures = [f for f in report.failures if f.square == "action"]
    assert action_failures and action_failures[0].generator == "add-barrier-1-2"
    process_failures = [f for f in report.failures if f.square == "process"]
    assert report.truncated or process_failures
    for f in report.failures:
        assert f.via_source != f.via_target


def test_process_square_failure_names_state_and_both_outcomes(pair_model):
    # the state map is the identity, so every action square commutes; the
    # outcome map swaps 0|0 and 1|1, which the process realizes at x1, x2
    swap = {"0|0": "1|1", "1|1": "0|0"}
    outcomes = pair_model.outcomes.total
    m = ModelMorphism(
        pair_model,
        pair_model,
        TotalMap.identity(pair_model.states),
        TotalMap(outcomes, outcomes, {y: swap.get(y, y) for y in outcomes.elements}),
    )
    report = check_naturality(m)
    assert not report.natural
    assert report.failures == (
        SquareFailure("process", None, "x1", "1|1", "0|0"),
        SquareFailure("process", None, "x2", "0|0", "1|1"),
    )
    assert report.failure_count == 2 and not report.truncated


def test_failure_cap(tiny):
    family, (micro, abstract, morphism) = tiny
    bad = barrier_blind_morphism(family, morphism)
    report = check_naturality(bad)
    assert len(report.failures) == 20
    assert report.truncated
    assert report.failure_count > 20


def test_surjectivity_report(tiny):
    family, (micro, abstract, morphism) = tiny
    report = check_surjectivity_assumptions(morphism)
    assert report.process_surjective  # micro outcomes are image-restricted
    assert report.state_map_surjective  # every abstract state has a preimage
    assert not report.outcome_map_surjective  # impossible outcomes exist
    assert report.possible_count + report.impossible_count == len(
        abstract.outcomes.total
    )
    assert report.impossible_sample
    realized = {
        morphism.outcome_map.table[v] for v in micro.process.table.values()
    }
    assert report.possible_count == len(realized)


def test_surjectivity_onto_one_state_model(pair_model):
    one = FiniteSet("X", ("only",))
    space = FactoredSpace((("v", FiniteSet("v", ("0",))),))
    target = ActionModel(
        one,
        space,
        {"swap": TotalMap.identity(one), "const": TotalMap.identity(one)},
        TotalMap.constant(one, space.total, "0"),
    )
    m = ModelMorphism(
        pair_model,
        target,
        TotalMap.constant(pair_model.states, one, "only"),
        TotalMap.constant(pair_model.outcomes.total, space.total, "0"),
    )
    report = check_surjectivity_assumptions(m)
    assert report.state_map_surjective
    assert report.outcome_map_surjective
    assert report.impossible_count == 0


def test_closure_check_passes_when_generators_pass(tiny):
    family, (micro, abstract, morphism) = tiny
    report = naturality_closure_check(morphism, 4)
    assert report.ok
    assert report.words_checked == 4 + 16 + 64 + 256


def test_closure_depth_one_matches_action_squares(tiny):
    family, (micro, abstract, morphism) = tiny
    bad = barrier_blind_morphism(family, morphism)
    report = naturality_closure_check(bad, 1)
    assert not report.ok
    assert len(report.failing_word) == 1
    assert report.state is not None


def test_closure_rejects_bad_depth(tiny):
    _, (_, _, morphism) = tiny
    with pytest.raises(ValueError):
        naturality_closure_check(morphism, 0)


def test_derived_outcome_square(tiny):
    # naturality gives y . outcome_src^w = outcome_tgt^w . x for every word
    family, (micro, abstract, morphism) = tiny
    for word in [(), ("choose-push-d1-E",), ("remove-d2", "choose-push-d1-E")]:
        lhs = morphism.outcome_map.after(outcome_map(micro, word))
        rhs = outcome_map(abstract, morphism.translate(word)).after(
            morphism.state_map
        )
        assert lhs == rhs


def test_composition_of_natural_morphisms_is_natural(tiny):
    # tower: micro -> abstract (forget tags) -> coarse (merge fall directions)
    family, (micro, abstract, morphism) = tiny
    space = abstract.outcomes
    coarse_space = FactoredSpace(
        tuple(
            (i, FiniteSet(f"C({i})", ("standing", "down", "absent")))
            for i in family.ids
        )
    )

    def coarsen(status):
        if status == "upright":
            return "standing"
        if status == "absent":
            return "absent"
        return "down"

    y2 = TotalMap(
        space.total,
        coarse_space.total,
        {
            e: join_values([coarsen(v) for v in split_values(space, e)])
            for e in space.total.elements
        },
    )
    coarse = ActionModel(
        abstract.states,
        coarse_space,
        dict(abstract.generators),
        y2.after(abstract.process),
    )
    upper = ModelMorphism(
        abstract, coarse, TotalMap.identity(abstract.states), y2
    )
    assert check_naturality(upper).natural
    tower = compose_morphisms(upper, morphism)
    assert tower.source is micro and tower.target is coarse
    assert check_naturality(tower).natural
    assert naturality_closure_check(tower, 2).ok


def test_composition_requires_matching_models(tiny, pair_model):
    _, (_, _, morphism) = tiny
    with pytest.raises(ValueError):
        compose_morphisms(identity_morphism(pair_model), morphism)
