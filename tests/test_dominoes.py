import json
import os
import random
from dataclasses import replace
from itertools import combinations
from math import comb

import pytest

from causalground import dominoes
from causalground.abstraction import check_naturality, check_surjectivity_assumptions
from causalground.checkers import (
    check_commute,
    check_determination,
    check_effectiveness,
    check_overwrite,
)
from causalground.core import FactoredSpace, FiniteSet, compose, outcome_map
from causalground.dominoes import (
    DIRECTIONS,
    LineFamily,
    build_bounded_model,
    five_chain_family,
    four_chain_family,
    line6_family,
    three_chain_family,
)
from causalground.io import load_family, model_from_dict, to_json

from mutants import barrier_read_behind_the_falling_domino, family_labels_bits_fastest
from oracles import (
    micro_proc,
    model_to_dict,
    morphism_to_dict,
    reference_action_transforms,
    reference_build_bounded_model,
    reference_label,
    reference_state,
    reference_states,
    reference_text,
)

DATA = os.path.join(os.path.dirname(__file__), "data")

# three dominoes on three cells, barrier edges 1 and 2, pushes E and W
THREE = three_chain_family()


def test_no_push_everything_upright():
    assert THREE.process("000/b00/p-") == {
        "d1": "upright", "d2": "upright", "d3": "upright"
    }


def test_straight_chain_falls_east():
    assert THREE.process("000/b00/pd1E") == {
        "d1": "fallen-E", "d2": "fallen-E", "d3": "fallen-E"
    }


def test_push_westmost_west_falls_alone():
    assert THREE.process("000/b00/pd1W")["d1"] == "fallen-W"
    assert THREE.process("000/b00/pd1W")["d2"] == "upright"


def test_barrier_blocks_propagation():
    # the bit of edge 2, between d2 and d3, is set
    assert THREE.process("000/b01/pd1E") == {
        "d1": "fallen-E", "d2": "fallen-E", "d3": "upright"
    }
    assert THREE.process("000/b10/pd3W") == {
        "d1": "upright", "d2": "fallen-W", "d3": "fallen-W"
    }


def test_gap_stops_propagation():
    assert THREE.process("0-0/b00/pd1E") == {
        "d1": "fallen-E", "d2": "absent", "d3": "upright"
    }


def test_a_north_or_south_push_topples_only_the_pushed_domino():
    family = LineFamily(3, ("d1", "d2", "d3"), 3, push_dirs=("N", "S"))
    assert family.process("000/b/pd2S") == {
        "d1": "upright", "d2": "fallen-S", "d3": "upright"
    }


def test_dangling_push_topples_nothing():
    # removing the designated domino leaves the designation in place
    micro = build_bounded_model(THREE)[0]
    state = micro.generators["remove-d1"]("000/b00/pd1E")
    assert state == "-00/b00/pd1E"
    assert THREE.process(state) == {
        "d1": "absent", "d2": "upright", "d3": "upright"
    }


def test_resolution_rules_keep_actions_total():
    g = build_bounded_model(THREE)[0].generators
    assert g["remove-d2"]("0-0/b00/p-") == "0-0/b00/p-"
    # placing an existing id is a no-op
    assert g["place-d1"]("000/b00/p-") == "000/b00/p-"
    # choosing to push an absent domino clears the designation
    assert g["choose-push-d1-E"]("000/b00/p-") == "000/b00/pd1E"
    assert g["choose-push-d1-E"]("-00/b00/pd1E") == "-00/b00/p-"
    # the family cap turns overflowing placements into no-ops
    capped = LineFamily(3, ("d1", "d2"), 1)
    assert build_bounded_model(capped)[0].generators["place-d2"]("0-/b/p-") == "0-/b/p-"


def test_family_counts_match_formula():
    # independent counting formula:
    #   sum_k C(n, k) * tags^k  *  (1 + n * dirs)  *  2^edges
    family = LineFamily(4, ("d1", "d2", "d3"), 2, ("0", "1"), (1, 3), ("E",))
    n, t, dirs, edges = 3, 2, 1, 2
    expected = sum(comb(n, k) * t**k for k in range(3)) * (1 + n * dirs) * 2**edges
    assert family.state_count() == expected
    assert len(family.enumerate_states()) == expected


def test_a_domino_budget_past_the_ids_counts_no_larger_sets(monkeypatch):
    # No presence set is larger than the ids, so a budget past them must
    # stop there, not count on through sizes that have no sets.
    family = LineFamily(4, ("d1", "d2", "d3"), 10**6, ("0", "1"), (1, 3), ("E",))
    capped = replace(family, max_dominoes=3)
    expected = capped.state_count(), capped.enumerate_states()
    calls = []

    def counting(f):
        def wrapped(*args):
            calls.append(args)
            assert len(calls) <= 20, "presence sizes are not capped"
            return f(*args)

        return wrapped

    monkeypatch.setattr(dominoes, "comb", counting(comb))
    monkeypatch.setattr(dominoes, "combinations", counting(combinations))
    assert (family.state_count(), family.enumerate_states()) == expected
    monkeypatch.undo()
    built, built_capped = (build_bounded_model(f)[2] for f in (family, capped))
    assert to_json(morphism_to_dict(built)) == to_json(morphism_to_dict(built_capped))


def test_zero_domino_family_is_trivial():
    family = LineFamily(2, (), 0, ("0",), (), ("E",))
    micro, abstract, morphism = build_bounded_model(family)
    assert len(micro.states) == 1
    assert check_naturality(morphism).natural


def test_unknown_action_label_rejected():
    with pytest.raises(ValueError, match="unknown family action label 'warp-d1'"):
        LineFamily(2, ("d1",), 1, actions=("id", "warp-d1"))


@pytest.mark.parametrize("actions", [(), ("id",)])
def test_actions_sharing_a_label_are_rejected(actions):
    # "remove domino barrier-1-2" and "remove the barrier on edge 1"
    with pytest.raises(ValueError, match="'remove-barrier-1-2'"):
        LineFamily(3, ("barrier-1-2", "d2"), 2, barrier_edges=(1,), actions=actions)


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
    ctx = compose(abstract, ("remove-d2", "init-chain3")).image()
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
        for y in micro.process.image()
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


# --- the label build against the grid reference build -------------------------

REFS = ("micro_model.json", "abstract_model.json")


def assert_same_build(built, reference):
    """Equal models and morphism maps, generator and alphabet order included."""
    for got, want in zip(built[:2], reference[:2]):
        assert got == want
        assert list(got.generators) == list(want.generators)
    got, want = built[2], reference[2]
    for field in ("source", "target", "state_map", "outcome_map"):
        assert getattr(got, field) == getattr(want, field), field
    assert list(got.alphabet_map.items()) == list(want.alphabet_map.items())


def written(triple) -> list[str]:
    """The bytes of the three files ``build-model`` writes, then of the
    morphism with both models inline."""
    micro, abstract, morphism = triple
    return [to_json(micro), to_json(abstract), to_json(morphism, *REFS), to_json(morphism)]


def reference_written(triple) -> list[str]:
    """The same four texts, laid out by the stdlib from the reference dicts."""
    micro, abstract, morphism = triple
    data = [model_to_dict(micro), model_to_dict(abstract),
            morphism_to_dict(morphism, *REFS), morphism_to_dict(morphism)]
    return [reference_text(d) for d in data]


def assert_matches_reference(family):
    """The build equals the reference build, and the files rendered from it
    equal the stdlib's text of the reference build's dicts."""
    built, reference = build_bounded_model(family), reference_build_bounded_model(family)
    assert_same_build(built, reference)
    assert written(built) == reference_written(reference)


def family_tiny_file() -> LineFamily:
    """The family of ``tests/data/family_tiny.json``."""
    return load_family(os.path.join(DATA, "family_tiny.json"))


def odd_ids_family() -> LineFamily:
    """Ids that a label parser splitting at '/' or '-', or reading a push
    token as the id's last letter, would misread: 3380 states."""
    family = LineFamily(5, ("d/1", "-", "xE", "b"), 3, ("0", "x"), (2, 4), ("E", "W", "N"))
    # "-" and "b" present, the barrier on edge 4, "-" pushed north
    layouts = (("chain", family.chain(3)), ("odd", "-x-0/b01/p-N"))
    return replace(family, layouts=layouts, actions=())


NAMED = [
    three_chain_family,
    four_chain_family,
    five_chain_family,
    line6_family,
    family_tiny_file,
    odd_ids_family,
]


@pytest.mark.parametrize("make", NAMED)
def test_named_families_match_reference(make):
    assert_matches_reference(make())


@pytest.mark.parametrize("make", NAMED)
def test_process_mutant_is_caught_by_the_reference_build(make, monkeypatch):
    """The reference build runs its own grid simulator, so a process that
    reads the barrier on the edge behind the falling domino disagrees with
    it on every named family: each has a barrier edge a fall crosses."""
    barrier_read_behind_the_falling_domino(monkeypatch)
    with pytest.raises(AssertionError):
        assert_matches_reference(make())


@pytest.mark.parametrize("make", NAMED)
def test_family_label_mutant_is_caught_by_the_reference_build(make, monkeypatch):
    """A state set that decodes a position with the bits field fastest
    names the states in another order than the reference: each named
    family has two bit rows and two pushes at least."""
    family_labels_bits_fastest(monkeypatch)
    with pytest.raises(AssertionError):
        assert_matches_reference(make())


@pytest.mark.parametrize("make", [family_tiny_file, odd_ids_family])
def test_labels_and_process_match_reference(make):
    """The family's labels are those of the grid states the reference
    enumerates, in its order, each found at its own position, and the
    process of each label is the grid simulator's outcome on its state."""
    family = make()
    states = reference_states(family)
    labels = family.enumerate_states()
    assert labels == [reference_label(family, s, False) for s in states]
    view = family.states
    assert [view.label(k) for k in range(len(view))] == labels
    assert list(map(view.position, labels)) == list(range(len(labels)))
    for label, state in zip(labels, states):
        assert family.process(label) == micro_proc(state, family.ids), label


def test_build_calls_each_rewrite_once_per_field_value(monkeypatch):
    family = odd_ids_family()
    rows, bit_rows, pushes = (dom.elements for dom in family.states.domains)
    rewrites, calls = family._rewrites(), {}

    def counted(label, kind, how):
        if not callable(how):
            return kind, how

        def rewrite(value):
            calls[label] = calls.get(label, 0) + 1
            return how(value)

        return kind, rewrite

    monkeypatch.setattr(LineFamily, "_rewrites", lambda self: {
        a: counted(a, *r) for a, r in rewrites.items()
    })
    assert_matches_reference(family)
    assert calls == {
        a: len(bit_rows if kind == "bits" else rows)
        for a, (kind, how) in rewrites.items() if callable(how)
    }
    assert len(rows) * 2 < family.state_count()


def test_a_family_view_and_a_joined_product_of_its_fields_differ():
    """Both are products of the same three domains under two label rules,
    so they compare label by label, and differ; the view equals the plain
    set of its labels."""
    states = three_chain_family().states
    rows, bits, pushes = states.domains
    joined = FactoredSpace((("r", rows), ("b", bits), ("p", pushes))).total
    assert len(joined) == len(states) and joined.domains == states.domains
    assert states != joined and joined != states
    assert "elements" not in vars(states)
    plain = FiniteSet("Xbar", THREE.enumerate_states())
    assert states == plain and plain == states and hash(states) == hash(plain)


def test_loaded_models_equal_the_built_ones():
    """A loaded state set is a plain set, compared with the view label by label."""
    for model in build_bounded_model(five_chain_family())[:2]:
        loaded = model_from_dict(json.loads(to_json(model)))
        assert loaded.states.domains is None
        assert loaded == model and model == loaded


def test_naturality_on_line6_builds_no_state_labels():
    micro, abstract, morphism = build_bounded_model(line6_family())
    assert check_naturality(morphism).natural
    assert check_surjectivity_assumptions(morphism).state_map_surjective
    assert "elements" not in vars(micro.states) and "elements" not in vars(abstract.states)


def test_micro_generator_tables_share_one_int_per_state():
    """Every table entry is one of a single set of int objects, so the
    tables hold no int object of their own."""
    micro = build_bounded_model(five_chain_family())[0]
    assert len(micro.generators) == 30
    held = {id(code) for g in micro.generators.values() for code in g._codes}
    assert len(held) <= len(micro.states)


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
        state = reference_state(family, present, barriers, push)
        layouts.append((f"l{n}", reference_label(family, state, False)))
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
        # the default action list is every action, in the reference's
        # order; only the labels are compared, so no state is needed
        assert family.actions == tuple(reference_action_transforms(family, {}))
        assert_matches_reference(family)


BASE = LineFamily(3, ("d1", "d2"), 1, ("0",), (1,), ("E",))


@pytest.mark.parametrize(
    "layout",
    ["7-/b0/p-", "--/b01/p-", "0-/b0/pd1N", "00/b0/p-"],
    ids=["foreign-tag", "disallowed-edge", "north-push", "too-many"],
)
def test_layout_outside_family_is_a_closure_error(layout):
    """The family rejects a layout that is not one of its states, which
    its init action would leave: a tag it lacks, a second bit, which
    would be edge 2's where only edge 1 allows a barrier (the label is
    one bit too wide), a push direction it lacks, two dominoes past a cap
    of one."""
    with pytest.raises(ValueError, match="layout 'bad' is not a state of the family"):
        replace(BASE, layouts=(("bad", layout),))


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, ("d1",), 1, ("0",), (), ("E", "E")), "push directions must be distinct"),
        ((3, ("d1",), 1, ("0",), (1, 1)), "barrier edges must be distinct"),
    ],
    ids=["repeated-push-dir", "repeated-barrier-edge"],
)
def test_repeated_states_are_rejected(args, message):
    """A repeated push direction or barrier edge would enumerate a state
    twice, so the family itself rejects it."""
    with pytest.raises(ValueError, match=message):
        LineFamily(*args)
