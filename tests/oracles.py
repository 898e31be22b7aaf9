"""Independent oracles and seeded generators used across the test suite.

The determination oracle enumerates every candidate map between the
variable subspaces instead of constructing a witness, so it shares no
code path with the checker it validates.  The reference family build
works on validated MicroStates instead of state codes.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from causalground.abstraction import ModelMorphism
from causalground.core import (
    SEP,
    UNIT_ELEMENT,
    ActionModel,
    CausalGroundError,
    FactoredSpace,
    FiniteSet,
    TotalMap,
    join_values,
    outcome_map,
)
from causalground.dominoes import (
    IDENTITY_ROUTING,
    OUTCOME_SEP,
    STATUSES,
    Domino,
    LineFamily,
    MicroState,
    add_barrier,
    choose_push,
    micro_proc,
    place_domino,
    remove_barrier,
    remove_domino,
)


def reference_project(space: FactoredSpace, element: str, var_ids) -> str:
    """Split/join projection of one total-set element onto a variable subset.

    Rebuilds the column positions and re-splits the element on every call,
    sharing nothing with the library's projector.  Ids are taken in
    declared order, whatever order or repetition ``var_ids`` has.
    """
    ids = [v for v, _ in space.variables]
    wanted = set(var_ids)
    chosen = [v for v in ids if v in wanted]
    if not chosen:
        return UNIT_ELEMENT
    values = element.split(SEP)
    return SEP.join(values[ids.index(v)] for v in chosen)


def candidate_map_count(model: ActionModel, vars_i, vars_j) -> int:
    space = model.outcomes
    dom = space.subspace(space.normalize_vars(vars_i)).total
    cod = space.subspace(space.normalize_vars(vars_j)).total
    return len(cod) ** len(dom)


def brute_force_determination(model: ActionModel, word, vars_i, vars_j):
    """(number of satisfying maps f with outcome_J = f . outcome_I, domain).

    Enumerates all |Y_J| ** |Y_I| candidate tables.
    """
    oi = outcome_map(model, word, vars_i)
    oj = outcome_map(model, word, vars_j)
    states = model.states.elements
    count = 0
    for values in product(oj.codomain.elements, repeat=len(oi.codomain)):
        table = dict(zip(oi.codomain.elements, values))
        if all(table[oi.table[x]] == oj.table[x] for x in states):
            count += 1
    return count


def witness_satisfies(model: ActionModel, word, vars_i, vars_j, witness) -> bool:
    oi = outcome_map(model, word, vars_i)
    oj = outcome_map(model, word, vars_j)
    return all(
        witness.table[oi.table[x]] == oj.table[x] for x in model.states.elements
    )


def random_action_model(
    seed: int,
    max_states: int = 6,
    max_vars: int = 3,
    max_domain: int = 3,
    max_generators: int = 3,
) -> ActionModel:
    """Seeded random model: |X| <= 6, <= 3 variables of size <= 3."""
    rng = random.Random(seed)
    n_states = rng.randint(2, max_states)
    states = FiniteSet("X", tuple(f"x{i}" for i in range(n_states)))
    variables = []
    for v in range(rng.randint(1, max_vars)):
        size = rng.randint(2, max_domain)
        dom = FiniteSet(f"v{v}", tuple(str(k) for k in range(size)))
        variables.append((f"v{v}", dom))
    space = FactoredSpace(tuple(variables))
    process = TotalMap(
        states,
        space.total,
        {x: rng.choice(space.total.elements) for x in states.elements},
    )
    generators = {}
    for g in range(rng.randint(1, max_generators)):
        generators[f"g{g}"] = TotalMap(
            states, states, {x: rng.choice(states.elements) for x in states.elements}
        )
    return ActionModel(states, space, generators, process)


def random_word(rng: random.Random, model: ActionModel, max_len: int = 2):
    labels = sorted(model.generators)
    return tuple(rng.choice(labels) for _ in range(rng.randint(0, max_len)))


def all_subset_pairs(var_ids):
    """Every (I, J) pair of variable subsets, as tuples."""
    subsets = []
    n = len(var_ids)
    for mask in range(2**n):
        subsets.append(tuple(v for i, v in enumerate(var_ids) if mask >> i & 1))
    return [(i, j) for i in subsets for j in subsets]


def _reference_states(family: LineFamily) -> list[MicroState]:
    """Every family state as a MicroState, in the family's enumeration order."""
    pushes = [None] + [(i, d) for i in family.ids for d in family.push_dirs]
    edge_sets = [
        edges
        for k in range(len(family.barrier_edges) + 1)
        for edges in combinations(family.barrier_edges, k)
    ]
    states = []
    for k in range(family.max_dominoes + 1):
        for chosen in combinations(family.ids, k):
            for tags in product(family.tags, repeat=k):
                present = dict(zip(chosen, tags))
                for edges in edge_sets:
                    for push in pushes:
                        states.append(family.state(present, edges, push))
    return states


def _reference_label(family: LineFamily, state: MicroState, abstract: bool) -> str:
    by_id = {d.id: d for d in state.dominoes}
    tokens = "".join(
        ("x" if abstract else by_id[i].tag) if i in by_id else "-"
        for i in family.ids
    )
    bits = "".join(
        "1" if family.edge(i) in state.barriers else "0"
        for i in family.barrier_edges
    )
    push = "-" if state.push is None else f"{state.push[0]}{state.push[1]}"
    return f"{tokens}/b{bits}/p{push}"


def reference_action_transforms(family: LineFamily) -> dict:
    """Every family action label with its transform on MicroStates."""
    transforms = {"id": lambda s: s}
    for name, layout in family.layouts:
        transforms[f"init-{name}"] = lambda s, t=layout: t
    for i in family.ids:
        for d in family.push_dirs:
            transforms[f"choose-push-{i}-{d}"] = (
                lambda s, i=i, d=d: choose_push(s, i, d)
            )
        transforms[f"remove-{i}"] = lambda s, i=i: remove_domino(s, i)
        dom = Domino(i, family.home_cell(i), IDENTITY_ROUTING, family.tags[0])
        transforms[f"place-{i}"] = (
            lambda s, dom=dom: place_domino(s, dom, family.max_dominoes)
        )
    for i in family.barrier_edges:
        edge = family.edge(i)
        transforms[f"add-barrier-{i}-{i + 1}"] = lambda s, e=edge: add_barrier(s, e)
        transforms[f"remove-barrier-{i}-{i + 1}"] = (
            lambda s, e=edge: remove_barrier(s, e)
        )
    return transforms


def reference_build_bounded_model(family: LineFamily):
    """(micro, abstract, morphism) built on validated MicroStates.

    Runs the simulator on every micro state and once per variable of
    every abstract state, and looks each action result up by state.
    """
    states = _reference_states(family)
    labels = [_reference_label(family, s, False) for s in states]
    index = dict(zip(states, labels))
    if len(index) != len(states):
        raise CausalGroundError("family state labels are not distinct")

    transforms = reference_action_transforms(family)
    unknown = [a for a in family.actions if a not in transforms]
    if unknown:
        raise CausalGroundError(f"unknown family action label {unknown[0]!r}")

    micro_states = FiniteSet("Xbar", tuple(labels))
    outcome_of = {}
    factored_of = {}
    for s, label in zip(states, labels):
        status = micro_proc(s, family.ids)
        name = OUTCOME_SEP.join(status[i] for i in family.ids)
        outcome_of[label] = name
        factored_of[name] = join_values([status[i] for i in family.ids])
    micro_outcomes = FiniteSet("Ybar", tuple(sorted(set(outcome_of.values()))))

    def table_for(transform):
        table = {}
        for s, label in zip(states, labels):
            try:
                table[label] = index[transform(s)]
            except KeyError:
                raise CausalGroundError(
                    f"family is not closed under its actions at state {label!r}"
                ) from None
        return table

    micro = ActionModel(
        micro_states,
        micro_outcomes,
        {
            a: TotalMap(micro_states, micro_states, table_for(transforms[a]))
            for a in family.actions
        },
        TotalMap(micro_states, micro_outcomes, dict(outcome_of)),
    )

    ab_labels = []
    rep = {}
    x_table = {}
    for s, label in zip(states, labels):
        ab = _reference_label(family, s, True)
        if ab not in rep:
            rep[ab] = s
            ab_labels.append(ab)
        x_table[label] = ab
    abstract_states = FiniteSet("X", tuple(ab_labels))
    abstract_space = FactoredSpace(
        tuple((i, FiniteSet(f"Y({i})", STATUSES)) for i in family.ids)
    )
    abstract_gens = {
        a: TotalMap(
            abstract_states,
            abstract_states,
            {
                ab: _reference_label(family, transforms[a](rep[ab]), True)
                for ab in ab_labels
            },
        )
        for a in family.actions
    }
    ab_proc = {
        ab: join_values([micro_proc(rep[ab], family.ids)[i] for i in family.ids])
        for ab in ab_labels
    }
    abstract = ActionModel(
        abstract_states,
        abstract_space,
        abstract_gens,
        TotalMap(abstract_states, abstract_space.total, ab_proc),
    )
    y_table = {label: factored_of[label] for label in micro_outcomes.elements}
    morphism = ModelMorphism(
        micro,
        abstract,
        TotalMap(micro_states, abstract_states, x_table),
        TotalMap(micro_outcomes, abstract_space.total, y_table),
    )
    return micro, abstract, morphism
