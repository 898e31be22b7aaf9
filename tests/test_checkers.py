import os
import random
from itertools import combinations

import pytest

from causalground import checkers
from causalground.checkers import (
    BaseDeterminationError,
    MechanismRecord,
    PreconditionError,
    check_commute,
    check_determination,
    check_effectiveness,
    check_invariance,
    check_overwrite,
    check_surgical,
    discover_mechanisms,
    probe_record,
)
from causalground.core import (
    ActionModel,
    FactoredSpace,
    FiniteSet,
    TotalMap,
    UnknownVariableError,
    outcome_map,
)
from causalground.io import load_model
from oracles import (
    brute_force_determination,
    candidate_map_count,
    random_action_model,
    random_word,
    witness_satisfies,
)


def two_state_model(outcome_x1, outcome_x2):
    states = FiniteSet("X", ("x1", "x2"))
    space = FactoredSpace(
        (("v1", FiniteSet("v1", ("0", "1"))), ("v2", FiniteSet("v2", ("0", "1"))))
    )
    process = TotalMap(
        states, space.total, {"x1": outcome_x1, "x2": outcome_x2}
    )
    return ActionModel(states, space, {}, process)


def test_determination_identity_case(pair_model):
    # I = J always holds; unique iff the shared outcome map is surjective
    result = check_determination(pair_model, (), ("v1",), ("v1",))
    assert result.holds and result.unique
    assert result.witness.table == {"0": "0", "1": "1"}


def test_determination_holds_with_unique_identity_witness():
    model = two_state_model("0|0", "1|1")
    result = check_determination(model, (), ("v1",), ("v2",))
    assert result.holds and result.unique
    assert result.witness.table == {"0": "0", "1": "1"}
    # brute force over all 4 maps {0,1}->{0,1} finds exactly this one
    assert brute_force_determination(model, (), ("v1",), ("v2",)) == 1


def test_determination_fails_with_counterexample():
    model = two_state_model("0|0", "0|1")
    result = check_determination(model, (), ("v1",), ("v2",))
    assert not result.holds
    assert result.counterexample == ("x1", "x2")
    oi = outcome_map(model, (), ("v1",))
    oj = outcome_map(model, (), ("v2",))
    x1, x2 = result.counterexample
    assert oi.table[x1] == oi.table[x2]
    assert oj.table[x1] != oj.table[x2]


def test_determination_nonunique_fill():
    # constant outcomes: everything determines everything, never uniquely
    # unless the determining side is surjective
    model = two_state_model("0|0", "0|0")
    result = check_determination(model, (), ("v1",), ("v2",))
    assert result.holds and not result.unique
    # unconstrained entry filled with the codomain's first element
    assert result.witness.table["1"] == "0"


def test_determination_unknown_variable(pair_model):
    with pytest.raises(UnknownVariableError):
        check_determination(pair_model, (), ("bogus",), ("v2",))


def test_effectiveness_singleton_codomain():
    states = FiniteSet("X", ("x1", "x2"))
    space = FactoredSpace(
        (("v1", FiniteSet("v1", ("0", "1"))), ("w", FiniteSet("w", ("only",))))
    )
    process = TotalMap(states, space.total, {"x1": "0|only", "x2": "1|only"})
    model = ActionModel(states, space, {}, process)
    result = check_effectiveness(model, (), ("w",))
    assert result.effective and result.value == "only"


def test_effectiveness_constant_do_map(pair_model):
    # a constant state map forces a constant outcome on every subset
    for vars_j in [("v1",), ("v2",), ("v1", "v2"), ()]:
        result = check_effectiveness(pair_model, ("const",), vars_j)
        assert result.effective
    assert check_effectiveness(pair_model, ("const",), ("v1", "v2")).value == "0|0"


def test_effectiveness_failure_names_states(pair_model):
    result = check_effectiveness(pair_model, (), ("v1",))
    assert not result.effective
    assert result.counterexample == ("x1", "x2")


def test_invariance_empty_later_word(pair_model):
    base = check_determination(pair_model, (), ("v1",), ("v2",))
    result = check_invariance(pair_model, (), base.witness, ("v1",), ("v2",), ())
    assert result.holds


def test_invariance_requires_base_determination(pair_model):
    model = two_state_model("0|0", "0|1")
    wrong = TotalMap(
        model.outcomes.subspace(("v1",)).total,
        model.outcomes.subspace(("v2",)).total,
        {"0": "0", "1": "0"},
    )
    with pytest.raises(BaseDeterminationError):
        check_invariance(model, (), wrong, ("v1",), ("v2",), ("id",))


def test_invariance_rejects_witness_on_wrong_subspaces(pair_model):
    base = check_determination(pair_model, (), ("v1",), ("v2",))
    with pytest.raises(PreconditionError):
        check_invariance(pair_model, (), base.witness, ("v1", "v2"), ("v2",), ())
    with pytest.raises(PreconditionError):
        check_invariance(pair_model, (), base.witness, ("v1",), (), ())


def test_precomposition_invariance_is_automatic():
    # if determination holds for w it holds for w + b with the same witness
    rng = random.Random(3)
    for seed in range(40):
        model = random_action_model(seed)
        w = random_word(rng, model)
        ids = model.outcomes.var_ids
        vars_i, vars_j = (ids[0],), (ids[-1],)
        base = check_determination(model, w, vars_i, vars_j)
        if not base.holds:
            continue
        for b in sorted(model.generators):
            assert witness_satisfies(model, w + (b,), vars_i, vars_j, base.witness)


def test_invariance_detects_post_action_violation():
    # v2 copies v1 initially; the "flip2" generator moves states so that the
    # copy relation breaks after it runs
    states = FiniteSet("X", ("x1", "x2", "x3"))
    space = FactoredSpace(
        (("v1", FiniteSet("v1", ("0", "1"))), ("v2", FiniteSet("v2", ("0", "1"))))
    )
    process = TotalMap(
        states, space.total, {"x1": "0|0", "x2": "1|1", "x3": "1|0"}
    )
    gens = {"goto3": TotalMap(states, states, {"x1": "x3", "x2": "x3", "x3": "x3"})}
    model = ActionModel(states, space, gens, process)
    base = check_determination(model, ("id",), ("v1",), ("v2",))
    # base word subsumes x3? no: x3 outcome (1,0) conflicts with x2 (1,1)
    assert not base.holds
    # restrict via a context word that avoids x3
    stay = TotalMap(states, states, {"x1": "x1", "x2": "x2", "x3": "x1"})
    gens2 = dict(gens)
    gens2["stay12"] = stay
    model2 = ActionModel(states, space, gens2, process)
    base2 = check_determination(model2, ("stay12",), ("v1",), ("v2",))
    assert base2.holds and base2.unique
    result = check_invariance(
        model2, ("stay12",), base2.witness, ("v1",), ("v2",), ("goto3",)
    )
    assert not result.holds
    assert result.violating_state is not None
    assert result.expected != result.actual


def test_commute_self(pair_model):
    assert check_commute(pair_model, "swap", "swap").holds


def test_commute_failure_counterexample(pair_model):
    result = check_commute(pair_model, "swap", "const")
    assert not result.holds
    assert result.state == "x1"
    assert result.first_order != result.second_order


def test_overwrite_identity(pair_model):
    assert check_overwrite(pair_model, "const", "id").holds
    assert check_overwrite(pair_model, "const", "swap").holds
    assert not check_overwrite(pair_model, "swap", "const").holds


def test_checker_verdicts_match_brute_force():
    # spot check of the acceptance-scale oracle agreement
    rng = random.Random(5)
    checked = 0
    for seed in range(25):
        model = random_action_model(seed)
        space = model.outcomes
        word = random_word(rng, model)
        ids = space.var_ids
        subsets = [(), (ids[0],), ids]
        for vars_i in subsets:
            for vars_j in subsets:
                if candidate_map_count(model, vars_i, vars_j) > 10_000:
                    continue
                result = check_determination(model, word, vars_i, vars_j)
                count = brute_force_determination(model, word, vars_i, vars_j)
                assert result.holds == (count >= 1)
                if result.holds:
                    # the result's unique flag is defined via surjectivity;
                    # map counting coincides except into singleton codomains
                    if len(space.subspace(vars_j).total) > 1:
                        assert result.unique == (count == 1)
                    assert witness_satisfies(
                        model, word, vars_i, vars_j, result.witness
                    )
                else:
                    # counterexamples must actually violate the equation
                    x1, x2 = result.counterexample
                    oi = outcome_map(model, word, vars_i)
                    oj = outcome_map(model, word, vars_j)
                    assert oi.table[x1] == oi.table[x2]
                    assert oj.table[x1] != oj.table[x2]
                checked += 1
    assert checked > 50


def test_uniqueness_law_on_random_models():
    # unique <=> holds and outcome_I surjective
    rng = random.Random(9)
    for seed in range(60):
        model = random_action_model(seed)
        word = random_word(rng, model)
        ids = model.outcomes.var_ids
        for vars_i in [(), (ids[0],), ids]:
            result = check_determination(model, word, vars_i, ids)
            surjective = outcome_map(model, word, vars_i).is_surjective()
            if result.holds:
                assert result.unique == surjective
            else:
                assert result.unique is None


def test_discover_constant_context(pair_model):
    # after a constant action every variable is determined by the empty set
    records = discover_mechanisms(pair_model, ("const",), max_parents=1)
    assert [r.target for r in records] == ["v1", "v2"]
    assert all(r.parents == () for r in records)
    for r in records:
        assert "id" in r.invariant_under


def test_discover_finds_copy_mechanism():
    # v2 copies v1 across a surjective context: minimal parents are {v1}
    states = FiniteSet("X", ("x1", "x2", "x3", "x4"))
    space = FactoredSpace(
        (("v1", FiniteSet("v1", ("0", "1"))), ("v2", FiniteSet("v2", ("0", "1"))))
    )
    process = TotalMap(
        states,
        space.total,
        {"x1": "0|0", "x2": "1|1", "x3": "0|0", "x4": "1|1"},
    )
    model = ActionModel(states, space, {}, process)
    records = discover_mechanisms(model, (), max_parents=1)
    by_target = {r.target: r for r in records}
    assert by_target["v2"].parents == ("v1",)
    assert by_target["v2"].map.table == {"0": "0", "1": "1"}
    assert by_target["v1"].parents == ("v2",)


def test_discover_tries_no_parent_set_larger_than_the_other_variables(monkeypatch):
    # v2 has no mechanism in context (), so the search for it runs out of
    # sets.  A budget past the other variables must end it there, not count
    # on through sizes that have no sets.
    path = os.path.join(os.path.dirname(__file__), "data", "model_nodet.json")
    model = load_model(path)
    var_ids = model.outcomes.var_ids
    expected = discover_mechanisms(model, (), len(var_ids) - 1)
    sizes = []

    def counting(items, size):
        sizes.append(size)
        assert len(sizes) <= len(var_ids) ** 2, "parent-set sizes are not capped"
        return combinations(items, size)

    monkeypatch.setattr(checkers, "combinations", counting)
    assert discover_mechanisms(model, (), 10**6) == expected
    assert max(sizes) == len(var_ids) - 1


def test_probe_record_rejects_invalid_base(pair_model):
    space = pair_model.outcomes
    wrong = TotalMap(
        space.subspace(("v1",)).total,
        space.subspace(("v2",)).total,
        {"0": "1", "1": "0"},
    )
    with pytest.raises(BaseDeterminationError):
        probe_record(pair_model, "v2", ("v1",), wrong, ())



def test_probe_record_rejects_witness_on_wrong_subspaces(pair_model):
    # a witness on Y_{v1,v2} -> Y_{v2} passed with parents v1
    wide = check_determination(pair_model, (), ("v1", "v2"), ("v2",)).witness
    with pytest.raises(PreconditionError, match="witness domain"):
        probe_record(pair_model, "v2", ("v1",), wide, ())


def test_surgical_rejects_record_map_on_wrong_subspaces(pair_model):
    wide = check_determination(pair_model, (), ("v1", "v2"), ("v2",)).witness
    record = MechanismRecord("v2", ("v1",), wide, (), ("id",), ())
    with pytest.raises(
        PreconditionError, match=r"^record v2~\(v1\): witness domain"
    ):
        check_surgical(pair_model, "swap", [record], ())

def test_surgical_rejects_record_that_fails_in_its_context(pair_model):
    # after const every state is x1, where v1 is 0, not the recorded 1
    record = discover_mechanisms(pair_model, ("const",), max_parents=0)[0]
    wrong = TotalMap(record.map.domain, record.map.codomain, {"*": "1"})
    bad = MechanismRecord("v1", (), wrong, ("const",), ("id",), ())
    with pytest.raises(BaseDeterminationError) as err:
        check_surgical(pair_model, "swap", [record, bad], ("const",))
    assert str(err.value) == (
        "record v1~(none) does not hold in its own context: at state 'x1' "
        "the witness predicts '1' but the outcome is '0'"
    )


def test_surgical_identity_is_not_surgical(pair_model):
    records = discover_mechanisms(pair_model, ("const",), max_parents=1)
    verdict = check_surgical(pair_model, "id", records, ("const",))
    assert not verdict.surgical
    assert "0 mechanisms invalidated" in verdict.reasons[0]


def test_surgical_rejects_mismatched_context(pair_model):
    records = discover_mechanisms(pair_model, ("const",), max_parents=1)
    with pytest.raises(PreconditionError):
        check_surgical(pair_model, "id", records, ("id",))


def test_surgical_requires_nonempty_mechanisms(pair_model):
    with pytest.raises(PreconditionError):
        check_surgical(pair_model, "id", [], ())
