"""Independent oracles and seeded generators used across the test suite.

The determination oracle enumerates every candidate map between the
variable subspaces instead of constructing a witness, so it shares no
code path with the checker it validates.
"""

from __future__ import annotations

import random
from itertools import product

from causalground.core import (
    SEP,
    UNIT_ELEMENT,
    ActionModel,
    FactoredSpace,
    FiniteSet,
    TotalMap,
    outcome_map,
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
