import json
import random
from dataclasses import replace
from math import comb

import pytest

from causalground.checkers import (
    check_commute,
    check_determination,
    check_effectiveness,
    check_overwrite,
)
from causalground.core import CausalGroundError, image, outcome_map
from causalground.dominoes import (
    DIRECTIONS,
    Domino,
    LineFamily,
    MicroState,
    build_bounded_model,
    choose_push,
    five_chain_family,
    four_chain_family,
    line6_family,
    micro_proc,
    place_domino,
    remove_domino,
    three_chain_family,
)
from causalground.io import model_to_dict, morphism_to_dict

from oracles import reference_action_transforms, reference_build_bounded_model


def chain(n, push=None, barriers=()):
    family = three_chain_family() if n == 3 else None
    assert family is not None
    state = family.state(
        {i: "0" for i in family.ids[:n]}, barriers, push
    )
    return family, state


def test_no_push_everything_upright():
    family, state = chain(3)
    assert micro_proc(state, family.ids) == {
        "d1": "upright", "d2": "upright", "d3": "upright"
    }


def test_straight_chain_falls_east():
    family, state = chain(3, push=("d1", "E"))
    assert micro_proc(state, family.ids) == {
        "d1": "fallen-E", "d2": "fallen-E", "d3": "fallen-E"
    }


def test_push_westmost_west_falls_alone():
    family, state = chain(3, push=("d1", "W"))
    assert micro_proc(state, family.ids)["d1"] == "fallen-W"
    assert micro_proc(state, family.ids)["d2"] == "upright"


def test_barrier_blocks_propagation():
    family, state = chain(3, push=("d1", "E"), barriers=(2,))
    assert micro_proc(state, family.ids) == {
        "d1": "fallen-E", "d2": "fallen-E", "d3": "upright"
    }


def test_gap_stops_propagation():
    family, state = chain(3, push=("d1", "E"))
    state = remove_domino(state, "d2")
    assert micro_proc(state, family.ids) == {
        "d1": "fallen-E", "d2": "absent", "d3": "upright"
    }


def test_routing_cycle_all_fall_once():
    # a 2x2 loop whose routings turn each fall by ninety degrees; pushing
    # any member topples all four, each in its routed direction
    state = MicroState(
        (2, 2),
        (
            Domino("a", (0, 0), ("E", "E", "E", "E")),
            Domino("b", (1, 0), ("S", "S", "S", "S")),
            Domino("c", (1, 1), ("W", "W", "W", "W")),
            Domino("d", (0, 1), ("N", "N", "N", "N")),
        ),
        frozenset(),
        ("a", "E"),
    )
    assert micro_proc(state) == {
        "a": "fallen-E", "b": "fallen-S", "c": "fallen-W", "d": "fallen-N"
    }


def test_dangling_push_topples_nothing():
    family, state = chain(3, push=("d1", "E"))
    state = remove_domino(state, "d1")
    assert state.push == ("d1", "E")
    assert micro_proc(state, family.ids) == {
        "d1": "absent", "d2": "upright", "d3": "upright"
    }


def test_resolution_rules_keep_actions_total():
    family, state = chain(3)
    assert remove_domino(state, "d9") is state
    # placing onto an occupied cell or an existing id is a no-op
    assert place_domino(state, Domino("d1", (0, 0))) is state
    assert place_domino(state, Domino("dx", (0, 0))) is state
    # choosing to push an absent domino clears the designation
    chosen = choose_push(state, "d1", "E")
    assert chosen.push == ("d1", "E")
    cleared = choose_push(remove_domino(chosen, "d1"), "d1", "E")
    assert cleared.push is None
    # the family cap turns overflowing placements into no-ops
    capped = LineFamily(3, ("d1", "d2"), 1)
    small = capped.state({"d1": "0"})
    assert place_domino(small, Domino("d2", (1, 0)), 1) is small


def test_state_validation():
    with pytest.raises(ValueError):
        MicroState((2, 1), (Domino("a", (5, 0)),))
    with pytest.raises(ValueError):
        MicroState((2, 1), (Domino("a", (0, 0)), Domino("b", (0, 0))))
    with pytest.raises(ValueError):
        MicroState((2, 1), (Domino("a", (0, 0)), Domino("a", (1, 0))))


def test_family_counts_match_formula():
    # independent counting formula:
    #   sum_k C(n, k) * tags^k  *  (1 + n * dirs)  *  2^edges
    family = LineFamily(4, ("d1", "d2", "d3"), 2, ("0", "1"), (1, 3), ("E",))
    n, t, dirs, edges = 3, 2, 1, 2
    expected = sum(comb(n, k) * t**k for k in range(3)) * (1 + n * dirs) * 2**edges
    assert family.state_count() == expected
    assert len(family.enumerate_states()) == expected


def test_zero_domino_family_is_trivial():
    family = LineFamily(2, (), 0, ("0",), (), ("E",))
    micro, abstract, morphism = build_bounded_model(family)
    assert len(micro.states) == 1
    from causalground.abstraction import check_naturality

    assert check_naturality(morphism).natural


def test_unknown_action_label_rejected():
    family = LineFamily(2, ("d1",), 1, actions=("id", "warp-d1"))
    with pytest.raises(CausalGroundError):
        build_bounded_model(family)


def test_three_chain_model_shapes(three_chain):
    micro, abstract, morphism = three_chain
    assert len(micro.states) == 224
    assert len(abstract.states) == 224  # single tag: nothing to forget
    assert len(abstract.outcomes.total) == 6**3
    # the micro outcome set is restricted to realized outcomes
    assert micro.process.is_surjective()


def test_init_is_constant_and_idempotent(three_chain):
    micro, abstract, _ = three_chain
    init = abstract.generators["init-chain3"]
    assert len(set(init.table.values())) == 1
    assert check_overwrite(abstract, "init-chain3", "init-chain3").holds


def test_place_remove_overwrite_law(three_chain):
    _, abstract, _ = three_chain
    assert check_overwrite(abstract, "place-d2", "remove-d2").holds


def test_choose_push_vs_remove_do_not_commute(three_chain):
    # removal then choose clears the designation, choose then removal
    # leaves it dangling
    _, abstract, _ = three_chain
    result = check_commute(abstract, "choose-push-d1-E", "remove-d1")
    assert not result.holds
    assert result.state is not None
    assert result.first_order != result.second_order


def test_outcome_of_push_in_chain_context(three_chain):
    # after init + choose-push-d1, d3's outcome is constantly fallen east
    _, abstract, _ = three_chain
    word = ("choose-push-d1-E", "init-chain3")
    o = outcome_map(abstract, word, ("d3",))
    assert set(o.table.values()) == {"fallen-E"}


def test_remove_then_init_context(three_chain):
    # context of (remove-d2, init): the single chain state without d2
    _, abstract, _ = three_chain
    from causalground.core import context_of

    ctx = context_of(abstract, ("remove-d2", "init-chain3"))
    assert len(ctx) == 1
    assert ctx[0].startswith("x-x")


def test_remove_effective_at_absent(three_chain):
    _, abstract, _ = three_chain
    result = check_effectiveness(
        abstract, ("remove-d3",), ("d3",), ("init-chain3",)
    )
    assert result.effective
    assert result.value == "absent"


def test_possible_outcomes_strict_subset_with_golden_count(three_chain):
    # independent oracle: realizable profiles are the no-fall profiles plus
    # profiles whose fallen dominoes form one contiguous same-direction run
    micro, abstract, morphism = three_chain
    realized = {
        morphism.outcome_map.table[y]
        for y in image(micro.process)
    }
    n = 3
    expected = 2**n + 2 * sum(
        (n - length + 1) * 2 ** (n - length) for length in range(1, n + 1)
    )
    assert len(realized) == expected == 42
    assert len(realized) < 6**3


def test_determination_of_next_by_previous(three_chain):
    # base context singleton: determination holds, not uniquely
    _, abstract, _ = three_chain
    word = ("choose-push-d1-E", "init-chain3")
    result = check_determination(abstract, word, ("d2",), ("d3",))
    assert result.holds and not result.unique
    assert result.witness.table["fallen-E"] == "fallen-E"


# --- the code build against the MicroState reference build -----------------

def serialized(triple) -> str:
    """The three build-model files as one string; key order counts."""
    micro, abstract, morphism = triple
    return json.dumps(
        [model_to_dict(micro), model_to_dict(abstract), morphism_to_dict(morphism)]
    )


def assert_matches_reference(family):
    assert serialized(build_bounded_model(family)) == serialized(
        reference_build_bounded_model(family)
    )


@pytest.mark.parametrize(
    "make",
    [three_chain_family, four_chain_family, five_chain_family, line6_family],
)
def test_named_families_match_reference(make):
    assert_matches_reference(make())


def random_family(rng: random.Random, max_dominoes: int, base: LineFamily):
    """``base``'s shape with a given cap and random in-family layouts."""
    family = replace(base, max_dominoes=max_dominoes)
    layouts = [("chain", family.chain(max_dominoes))]
    for n in range(2):
        chosen = rng.sample(family.ids, rng.randint(0, max_dominoes))
        present = {i: rng.choice(family.tags) for i in chosen}
        barriers = [e for e in family.barrier_edges if rng.random() < 0.5]
        push = rng.choice(
            [None] + [(i, d) for i in family.ids for d in family.push_dirs]
        )
        layouts.append((f"l{n}", family.state(present, barriers, push)))
    return replace(family, layouts=tuple(layouts), actions=())


def random_shape(seed: int) -> LineFamily:
    """Seeded family shape with at most 600 states."""
    rng = random.Random(seed)
    while True:
        ids = tuple(rng.sample("abcde", rng.randint(1, 5)))
        length = rng.randint(len(ids), 5)
        tags = tuple(rng.sample("012", rng.randint(1, 3)))
        edges = [e for e in range(1, length) if rng.random() < 0.5]
        rng.shuffle(edges)
        dirs = tuple(rng.sample(DIRECTIONS, rng.randint(1, 4)))
        shape = LineFamily(length, ids, len(ids), tags, tuple(edges), dirs)
        if shape.state_count() <= 600:
            return shape


@pytest.mark.parametrize("seed", range(30))
def test_random_families_match_reference(seed):
    shape = random_shape(seed)
    rng = random.Random(1000 + seed)
    for max_dominoes in range(len(shape.ids) + 1):
        family = random_family(rng, max_dominoes, shape)
        # the default action list is every action, in the reference's order
        assert family.actions == tuple(reference_action_transforms(family))
        assert_matches_reference(family)


BASE = LineFamily(3, ("d1", "d2"), 1, ("0",), (1,), ("E",))


@pytest.mark.parametrize(
    "layout",
    [
        BASE.state({"d1": "7"}),
        BASE.state({}, barriers=[2]),
        BASE.state({"d1": "0"}, push=("d1", "N")),
        BASE.state({"d1": "0", "d2": "0"}),
        MicroState((3, 1), (Domino("d1", (1, 0)),)),
        MicroState((3, 1), (Domino("d1", (0, 0), ("S", "E", "S", "W")),)),
    ],
    ids=["foreign-tag", "disallowed-edge", "north-push", "too-many",
         "off-home", "routing"],
)
def test_layout_outside_family_is_a_closure_error(layout):
    family = replace(
        BASE, layouts=(("bad", layout),), actions=("id", "remove-d1", "init-bad")
    )
    message = "family is not closed under its actions at state '--/b0/p-'"
    with pytest.raises(CausalGroundError) as built:
        build_bounded_model(family)
    with pytest.raises(CausalGroundError) as reference:
        reference_build_bounded_model(family)
    assert str(built.value) == str(reference.value) == message


@pytest.mark.parametrize(
    "family",
    [
        LineFamily(2, ("d1",), 1, push_dirs=("E", "E")),
        LineFamily(3, ("d1",), 1, barrier_edges=(1, 1)),
    ],
    ids=["repeated-push-dir", "repeated-barrier-edge"],
)
def test_repeated_states_are_rejected(family):
    message = "family state labels are not distinct"
    with pytest.raises(CausalGroundError, match=message):
        build_bounded_model(family)
    with pytest.raises(CausalGroundError, match=message):
        reference_build_bounded_model(family)
