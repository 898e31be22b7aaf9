"""Independent oracles and seeded generators used across the test suite.

The determination oracle enumerates every candidate map between the
variable subspaces instead of constructing a witness, so it shares no
code path with the checker it validates.  The reference family build
works on grid MicroStates with its own simulator instead of state labels.  The reference SCM
law suite evaluates words and structural functions by hand instead of
running the checkers.  The brute-force SCM response enumerates every
joint assignment instead of solving in topological order, and the
naturality closure check composes whole words instead of single
generator squares.  The reference checkers run on label tables (the
string kernel the library used before its integer coding), one state at a
time.  The reference SCM encoding builds every table from split labels
instead of writing positions, and solves each state by recursive evaluation
instead of the library's solver.  The reference labels of a product enumerate
every joint assignment at once, where the library decodes one position at
a time, and the reference naturality and surjectivity reports are read
off label tables.  The barrier-blind morphism is a sabotage fixture that
naturality must refute.  The reference writers build a
model's, a morphism's or an SCM's file data as a dict from the label
tables, split with the oracles' own label codec; ``reference_text`` lays
that out with the stdlib encoder, the text the library renders from
positions.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Mapping, Optional

from causalground.abstraction import (
    ModelMorphism,
    NaturalityReport,
    SquareFailure,
    SurjectivityReport,
)
from causalground.checkers import (
    BaseDeterminationError,
    CommutationResult,
    DeterminationResult,
    EffectivenessResult,
    InvarianceResult,
    MechanismRecord,
    PreconditionError,
    SurgicalVerdict,
    check_commute,
    check_determination,
    check_effectiveness,
    check_invariance,
    check_overwrite,
    check_surgical,
    discover_mechanisms,
)
from causalground.core import (
    ID_LABEL,
    SEP,
    UNIT_ELEMENT,
    ActionModel,
    CausalGroundError,
    FactoredSpace,
    FiniteSet,
    TotalMap,
    compose,
    outcome_map,
)
from causalground.scm import (
    DEFAULT_SLOT,
    INIT_LABEL,
    LAW_COMMUTE,
    LAW_DETERMINATION,
    LAW_INVARIANCE,
    LAW_OVERWRITE,
    LAW_U_INVARIANT,
    LawReport,
    LawViolation,
    Scm,
    set_label,
    slot_domain,
)
from causalground.dominoes import OUTCOME_SEP, STATUSES, LineFamily


def split_values(space: FactoredSpace, element: str) -> tuple[str, ...]:
    """The values of a total-set element, one per variable, split from its
    label.  This label codec is the oracles' own: the library reads values
    from positions only."""
    return tuple(element.split(SEP)) if space.variables else ()


def join_values(values) -> str:
    """The total-set label of a tuple of values; no values: the unit element."""
    return SEP.join(values) if values else UNIT_ELEMENT


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


def projection(space: FactoredSpace, var_ids) -> TotalMap:
    """The projection map from the total set onto a variable subset."""
    ids = space.normalize_vars(var_ids)
    table = {e: space.project_element(e, ids) for e in space.total.elements}
    return TotalMap(space.total, space.subspace(ids).total, table)


def projection_between(space: FactoredSpace, from_ids, onto_ids) -> TotalMap:
    """The projection from Y_J onto Y_I for I a subset of J."""
    big = space.normalize_vars(from_ids)
    small = space.normalize_vars(onto_ids)
    if not set(small) <= set(big):
        raise ValueError(f"projection target {small!r} is not a subset of {big!r}")
    return projection(space.subspace(big), small)


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


# --- the reference domino world: dominoes on a grid ---------------------------

_STEP = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}

Cell = tuple[int, int]
Edge = tuple[Cell, Cell]


def edge_between(a: Cell, b: Cell) -> Edge:
    if abs(a[0] - b[0]) + abs(a[1] - b[1]) != 1:
        raise ValueError(f"cells {a} and {b} are not adjacent")
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class Domino:
    id: str
    cell: Cell
    tag: str = "0"


@dataclass(frozen=True)
class MicroState:
    """One configuration of the grid world: dominoes (kept in id order),
    barriers on edges between cells, and a push designation, which may
    name an id that is not on the grid."""

    grid: tuple[int, int]
    dominoes: tuple[Domino, ...]
    barriers: frozenset[Edge] = frozenset()
    push: Optional[tuple[str, str]] = None

    def __post_init__(self):
        object.__setattr__(
            self, "dominoes", tuple(sorted(self.dominoes, key=lambda d: d.id))
        )

    def domino(self, domino_id: str) -> Optional[Domino]:
        return next((d for d in self.dominoes if d.id == domino_id), None)

    def occupant(self, cell: Cell) -> Optional[Domino]:
        return next((d for d in self.dominoes if d.cell == cell), None)


def micro_proc(state: MicroState, census: Iterable[str]) -> dict[str, str]:
    """Walk the grid from the designated domino: each falling domino
    knocks over the domino in the next cell in its direction, which falls
    the same way, unless a barrier sits on the shared edge.  Returns a
    terminal status per census id (absent ids included)."""
    status = {i: "absent" for i in census}
    for d in state.dominoes:
        status[d.id] = "upright"
    current = state.domino(state.push[0]) if state.push else None
    while current is not None:
        status[current.id] = f"fallen-{state.push[1]}"
        dx, dy = _STEP[state.push[1]]
        target = (current.cell[0] + dx, current.cell[1] + dy)
        w, h = state.grid
        if not (0 <= target[0] < w and 0 <= target[1] < h):
            break
        if edge_between(current.cell, target) in state.barriers:
            break
        current = state.occupant(target)
    return status


def remove_domino(state: MicroState, domino_id: str) -> MicroState:
    dominoes = tuple(d for d in state.dominoes if d.id != domino_id)
    return MicroState(state.grid, dominoes, state.barriers, state.push)


def place_domino(state: MicroState, domino: Domino) -> MicroState:
    if state.domino(domino.id) is not None or state.occupant(domino.cell) is not None:
        return state
    return MicroState(state.grid, state.dominoes + (domino,), state.barriers, state.push)


def choose_push(state: MicroState, domino_id: str, direction: str) -> MicroState:
    push = (domino_id, direction) if state.domino(domino_id) is not None else None
    return MicroState(state.grid, state.dominoes, state.barriers, push)


def set_barrier(state: MicroState, edge: Edge, on: bool) -> MicroState:
    barriers = state.barriers | {edge} if on else state.barriers - {edge}
    return MicroState(state.grid, state.dominoes, barriers, state.push)


def family_edge(position: int) -> Edge:
    """Barrier edge ``position`` of a line family, between the
    ``position``-th and the next cell of row 0."""
    return edge_between((position - 1, 0), (position, 0))


def reference_state(
    family: LineFamily,
    present: Mapping[str, str],
    barriers: Iterable[int] = (),
    push: Optional[tuple[str, str]] = None,
) -> MicroState:
    """The grid state of a family: each present id at its home cell, the
    k-th id in column k of a 1 x length grid."""
    return MicroState(
        (family.length, 1),
        tuple(Domino(i, (family.ids.index(i), 0), present[i]) for i in present),
        frozenset(map(family_edge, barriers)),
        push,
    )


def reference_states(family: LineFamily) -> list[MicroState]:
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
                        states.append(reference_state(family, present, edges, push))
    return states


def reference_label(family: LineFamily, state: MicroState, abstract: bool) -> str:
    by_id = {d.id: d for d in state.dominoes}
    tokens = "".join(
        ("x" if abstract else by_id[i].tag) if i in by_id else "-"
        for i in family.ids
    )
    bits = "".join(
        "1" if family_edge(i) in state.barriers else "0"
        for i in family.barrier_edges
    )
    push = "-" if state.push is None else f"{state.push[0]}{state.push[1]}"
    return f"{tokens}/b{bits}/p{push}"


def reference_family_labels(family: LineFamily, abstract: bool) -> list[str]:
    """The family's micro state labels in the reference's enumeration
    order, or its abstract labels in first-occurrence order."""
    labels = [reference_label(family, s, abstract) for s in reference_states(family)]
    return list(dict.fromkeys(labels))


def reference_action_transforms(
    family: LineFamily, by_label: Mapping[str, MicroState]
) -> dict:
    """Every family action label with its transform on MicroStates.  A
    layout is a label: its init sends every state to the enumerated state
    of that label in ``by_label``, or to None when no state has it."""
    transforms = {"id": lambda s: s}
    for name, layout in family.layouts:
        transforms[f"init-{name}"] = lambda s, t=by_label.get(layout): t
    for k, i in enumerate(family.ids):
        for d in family.push_dirs:
            transforms[f"choose-push-{i}-{d}"] = (
                lambda s, i=i, d=d: choose_push(s, i, d)
            )
        transforms[f"remove-{i}"] = lambda s, i=i: remove_domino(s, i)
        dom = Domino(i, (k, 0), family.tags[0])
        transforms[f"place-{i}"] = lambda s, dom=dom: (
            s if len(s.dominoes) >= family.max_dominoes else place_domino(s, dom)
        )
    for i in family.barrier_edges:
        edge = family_edge(i)
        transforms[f"add-barrier-{i}-{i + 1}"] = lambda s, e=edge: set_barrier(s, e, True)
        transforms[f"remove-barrier-{i}-{i + 1}"] = (
            lambda s, e=edge: set_barrier(s, e, False)
        )
    return transforms


def reference_build_bounded_model(family: LineFamily):
    """(micro, abstract, morphism) built on grid MicroStates.

    Runs the grid simulator on every micro state and once per variable of
    every abstract state, and looks each action result up by state.
    """
    states = reference_states(family)
    labels = [reference_label(family, s, False) for s in states]
    index = dict(zip(states, labels))
    if len(index) != len(states):
        raise CausalGroundError("family state labels are not distinct")

    transforms = reference_action_transforms(family, dict(zip(labels, states)))
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
    ybar = FiniteSet("Ybar", tuple(sorted(set(outcome_of.values()))))
    micro_space = FactoredSpace((("Ybar", ybar),))
    micro_outcomes = micro_space.total

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
        micro_space,
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
        ab = reference_label(family, s, True)
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
                ab: reference_label(family, transforms[a](rep[ab]), True)
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


def recursive_response(
    scm: Scm, slots: Mapping[str, str], u: Mapping[str, str]
) -> dict[str, str]:
    """The potential response by recursive evaluation: a variable is its
    slot's value, or its structural function at its parents' responses,
    each evaluated on demand.  It follows no topological order and runs
    no library solver."""
    response: dict[str, str] = {}

    def value(vid: str) -> str:
        if vid not in response:
            response[vid] = slots[vid]
            if slots[vid] == DEFAULT_SLOT:
                key = tuple(value(p) for p in scm.parents[vid]) + (u[scm.noise_id(vid)],)
                response[vid] = scm.functions[vid][key]
        return response[vid]

    return {vid: value(vid) for vid in scm.endo_ids}


def assert_responses_read_off(model: ActionModel, scm: Scm) -> None:
    """The potential response Y_x(u) read off ``scm``'s encoded ``model``,
    against recursive evaluation: for every u, the endogenous outcome of
    the all-default state carrying u is the unintervened response, and
    after ``set-V=v`` it is the response with V's slot set to v."""
    endo = scm.endo_ids
    defaults = dict.fromkeys(endo, DEFAULT_SLOT)
    words = [((), defaults)] + [
        ((set_label(vid, v),), {**defaults, vid: v})
        for vid, dom in scm.endogenous
        for v in dom.elements
    ]
    for word, slots in words:
        response = outcome_map(model, word, endo)
        for values in product(*(dom.elements for _, dom in scm.exogenous)):
            state = SEP.join([DEFAULT_SLOT] * len(endo) + list(values))
            expected = recursive_response(scm, slots, dict(zip(scm.exo_ids, values)))
            assert response(state) == SEP.join(expected.values()), (word, state)


def reference_encode_scm(scm: Scm) -> ActionModel:
    """The SCM encoding built as label tables, one state at a time: the
    process joins u with the recursively evaluated potential response, and
    each generator rewrites the split state label."""
    endo, exo = scm.endo_ids, scm.exo_ids
    space = FactoredSpace(
        tuple((vid, slot_domain(scm, vid)) for vid in endo) + scm.exogenous
    )
    states = FiniteSet("MxU", space.total.elements)
    outcomes = FactoredSpace(scm.exogenous + scm.endogenous)
    n = len(endo)
    rows = {label: split_values(space, label) for label in states.elements}
    process_table = {}
    for label, row in rows.items():
        slots, u = dict(zip(endo, row[:n])), dict(zip(exo, row[n:]))
        response = recursive_response(scm, slots, u)
        process_table[label] = join_values(row[n:] + tuple(response[v] for v in endo))
    process = TotalMap(states, outcomes.total, process_table)

    def write(at: int, values: tuple[str, ...]) -> TotalMap:
        """The generator writing ``values`` over the coordinates from ``at`` on."""
        end = at + len(values)
        table = {x: join_values(row[:at] + values + row[end:]) for x, row in rows.items()}
        return TotalMap(states, states, table)

    generators = {INIT_LABEL: write(0, (DEFAULT_SLOT,) * n)}
    for i, vid in enumerate(endo):
        for value in scm.domain_of(vid).elements:
            generators[set_label(vid, value)] = write(i, (value,))
    return ActionModel(states, outcomes, generators, process)


def reference_verify_scm_laws(model: ActionModel, scm: Scm) -> LawReport:
    """The five SCM laws by hand-written scans over split outcome labels.

    Evaluates every word itself and predicts each variable straight from
    the structural function or the slot value, sharing no code with the
    generic checkers the library's law suite runs on.
    """
    expected_labels = {INIT_LABEL, "id"}
    for vid in scm.endo_ids:
        for value in scm.domain_of(vid).elements:
            expected_labels.add(set_label(vid, value))
    if set(model.generators) != expected_labels:
        raise ValueError("model generators do not match the SCM encoding")

    states = model.states.elements
    split_cache = {e: e.split(SEP) for e in model.outcomes.total.elements}
    positions = {v: i for i, v in enumerate(model.outcomes.var_ids)}
    proc = model.process.table

    def outcome_table(word):
        table = {}
        for x in states:
            v = x
            for lab in reversed(word):
                v = model.generators[lab].table[v]
            table[x] = proc[v]
        return table

    def predictor(vid, slot):
        if slot == DEFAULT_SLOT:
            return lambda pa, u_val: scm.functions[vid][pa + (u_val,)]
        return lambda pa, u_val: slot

    violations = []
    checked = []
    set_labels = {
        vid: [set_label(vid, value) for value in scm.domain_of(vid).elements]
        for vid in scm.endo_ids
    }

    count = 0
    for i, vi in enumerate(scm.endo_ids):
        for vj in scm.endo_ids[i + 1 :]:
            for a in set_labels[vi]:
                for b in set_labels[vj]:
                    count += 1
                    fa = model.generators[a].table
                    fb = model.generators[b].table
                    for x in states:
                        if fa[fb[x]] != fb[fa[x]]:
                            violations.append(
                                LawViolation(LAW_COMMUTE, f"{a} vs {b}", x)
                            )
                            break
    checked.append((LAW_COMMUTE, count))

    count = 0
    for vid in scm.endo_ids:
        for a in set_labels[vid]:
            for b in set_labels[vid]:
                count += 1
                fa = model.generators[a].table
                fb = model.generators[b].table
                for x in states:
                    if fa[fb[x]] != fa[x]:
                        violations.append(
                            LawViolation(LAW_OVERWRITE, f"{a} after {b}", x)
                        )
                        break
    checked.append((LAW_OVERWRITE, count))

    exo_pos = [positions[uid] for uid in scm.exo_ids]
    base_outcome = outcome_table(())
    count = 0
    for label in model.generators:
        count += 1
        acted = outcome_table((label,))
        for x in states:
            before = split_cache[base_outcome[x]]
            after = split_cache[acted[x]]
            if any(before[p] != after[p] for p in exo_pos):
                violations.append(LawViolation(LAW_U_INVARIANT, label, x))
                break
    checked.append((LAW_U_INVARIANT, count))

    word_tables = {}

    def determination_violation(word, vid, predict):
        table = word_tables.setdefault(word, outcome_table(word))
        pa_pos = [positions[p] for p in scm.parents[vid]]
        u_pos = positions[scm.noise_id(vid)]
        v_pos = positions[vid]
        for x in states:
            values = split_cache[table[x]]
            pa = tuple(values[p] for p in pa_pos)
            if predict(pa, values[u_pos]) != values[v_pos]:
                return x
        return None

    base_mechs = []
    for vid in scm.endo_ids:
        base_mechs.append((vid, INIT_LABEL, DEFAULT_SLOT))
        for value in scm.domain_of(vid).elements:
            base_mechs.append((vid, set_label(vid, value), value))

    count = 0
    for vid, label, slot in base_mechs:
        count += 1
        state = determination_violation((label,), vid, predictor(vid, slot))
        if state is not None:
            violations.append(
                LawViolation(LAW_DETERMINATION, f"{vid} after {label}", state)
            )
    checked.append((LAW_DETERMINATION, count))

    count = 0
    for vid, label, slot in base_mechs:
        laters = ["id"]
        for other in scm.endo_ids:
            if other != vid:
                laters.extend(set_labels[other])
        predict = predictor(vid, slot)
        for later in laters:
            count += 1
            state = determination_violation((later, label), vid, predict)
            if state is not None:
                violations.append(
                    LawViolation(
                        LAW_INVARIANCE, f"{vid} after {label}, then {later}", state
                    )
                )
    checked.append((LAW_INVARIANCE, count))

    return LawReport(not violations, tuple(checked), tuple(violations))


def reversed_declaration(scm: Scm) -> Scm:
    """The same SCM with its (exogenous, endogenous) pairs declared in
    reverse order.  When some variable has a parent, children are then
    declared before their parents, so a solver that follows the declared
    order instead of a topological one reads unsolved parents."""
    return Scm(scm.exogenous[::-1], scm.endogenous[::-1], scm.parents, scm.functions)


def brute_force_response(
    scm: Scm, slots: Mapping[str, str], u: Mapping[str, str]
) -> list[dict[str, str]]:
    """All endogenous assignments satisfying the equations indicated by slots.

    Independent oracle for the encoded process: it enumerates every joint
    assignment instead of solving.  For acyclic SCMs the result is a
    singleton.
    """
    doms = [dom.elements for _, dom in scm.endogenous]
    solutions = []
    for combo in product(*doms):
        assignment = dict(zip(scm.endo_ids, combo))
        ok = True
        for vid in scm.endo_ids:
            slot = slots[vid]
            if slot == DEFAULT_SLOT:
                key = tuple(assignment[p] for p in scm.parents[vid])
                expected = scm.functions[vid][key + (u[scm.noise_id(vid)],)]
            else:
                expected = slot
            if assignment[vid] != expected:
                ok = False
                break
        if ok:
            solutions.append(assignment)
    return solutions


@dataclass(frozen=True)
class ClosureReport:
    ok: bool
    depth: int
    words_checked: int
    failing_word: Optional[tuple[str, ...]]
    state: Optional[str]


def naturality_closure_check(m: ModelMorphism, depth: int) -> ClosureReport:
    """Check the state square for every word up to a length.

    This must pass whenever the generator squares pass (commuting squares
    compose); it exists as a theorem check, not as new information.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    labels = sorted(m.source.generators)
    x = m.state_map.table
    checked = 0
    for length in range(1, depth + 1):
        for word in product(labels, repeat=length):
            checked += 1
            do_src = compose(m.source, word)
            do_tgt = compose(m.target, m.translate(word))
            for s in m.source.states.elements:
                if x[do_src.table[s]] != do_tgt.table[x[s]]:
                    return ClosureReport(False, depth, checked, word, s)
    return ClosureReport(True, depth, checked, None, None)



def barrier_blind_morphism(
    _family: LineFamily, morphism: ModelMorphism
) -> ModelMorphism:
    """Sabotaged state map that also forgets barrier positions.

    Zeroes the bit string of each abstract label ``<tokens>/b<bits>/p<push>``,
    so every micro state maps to the abstract state of its barrier-free
    variant; action squares for barrier edits and process squares for
    blocked chains stop commuting, which check_naturality must expose.
    The family is not read: the labels already carry the bits.
    """
    blind = {}
    for micro, abstract in morphism.state_map.table.items():
        tokens, bits, push = abstract.split("/")
        blind[micro] = f"{tokens}/b{'0' * (len(bits) - 1)}/{push}"
    return ModelMorphism(
        morphism.source,
        morphism.target,
        TotalMap(morphism.source.states, morphism.target.states, blind),
        morphism.outcome_map,
        dict(morphism.alphabet_map),
    )

def reference_labels(domains) -> tuple[str, ...]:
    """Every label of the product of ``domains``, enumerated eagerly:
    ``SEP.join`` over the product of their elements; none: the unit set."""
    if not domains:
        return (UNIT_ELEMENT,)
    return tuple(map(SEP.join, product(*(dom.elements for dom in domains))))


def assert_labels_decode(space: FactoredSpace) -> None:
    """Each subspace's ``total`` decodes every position to its reference label."""
    ids = space.var_ids
    for size in range(len(ids) + 1):
        for subset in combinations(ids, size):
            total = space.subspace(subset).total
            labels = reference_labels([space.domain_of(v) for v in subset])
            assert len(total) == len(labels), subset
            assert [total.label(k) for k in range(len(total))] == list(labels), subset


def assert_position_inverts_label(total: FiniteSet) -> None:
    """``position(label(k)) == k`` for every k, and None for non-elements:
    a label with one value more or one fewer, with an unknown value or an
    extra separator, and a non-string."""
    n = len(total)
    assert [total.position(total.label(k)) for k in range(n)] == list(range(n)), total
    values = total.label(n - 1).split(SEP)
    strays = [
        SEP.join(values + values[:1]),
        SEP.join(values[:-1] + ["\x00"]),
        SEP.join(values) + SEP,
        SEP + SEP.join(values),
        7,
        None,
    ] + [SEP.join(values[:-1])] * (len(values) > 1)
    for x in strays:
        assert total.position(x) is None and x not in total, (total, x)


def assert_positions_invert_labels(space: FactoredSpace) -> None:
    """``position`` inverts ``label`` on each subspace's ``total``."""
    ids = space.var_ids
    for size in range(len(ids) + 1):
        for subset in combinations(ids, size):
            assert_position_inverts_label(space.subspace(subset).total)


def reference_check_naturality(m: ModelMorphism, cap: int = 20) -> NaturalityReport:
    """Every square at every micro state, on label tables."""
    x, via = m.state_map.table, m.outcome_map.table
    squares = [
        ("action", a, {s: x[y] for s, y in f.table.items()},
         {s: m.target.generators[m.alphabet_map[a]].table[x[s]] for s in x})
        for a, f in m.source.generators.items()
    ]
    squares.append(("process", None, {s: via[y] for s, y in m.source.process.table.items()},
                    {s: m.target.process.table[x[s]] for s in x}))
    failures = [
        SquareFailure(kind, label, s, source[s], target[s])
        for kind, label, source, target in squares
        for s in m.source.states.elements if source[s] != target[s]
    ]
    return NaturalityReport(
        not failures, tuple(failures[:cap]), len(failures), len(failures) > cap
    )


def reference_check_surjectivity_assumptions(
    m: ModelMorphism, cap: int = 20
) -> SurjectivityReport:
    """Surjectivity and the impossible outcomes, on label tables."""
    total = reference_labels([d for _, d in m.target.outcomes.variables])
    realized = {m.outcome_map.table[y] for y in m.source.process.table.values()}
    impossible = [e for e in total if e not in realized]
    return SurjectivityReport(
        process_surjective=set(m.source.process.table.values())
        == set(m.source.outcomes.total.elements),
        state_map_surjective=set(m.state_map.table.values())
        == set(m.target.states.elements),
        outcome_map_surjective=set(m.outcome_map.table.values()) == set(total),
        possible_count=len(realized),
        impossible_count=len(impossible),
        impossible_sample=tuple(impossible[:cap]),
    )


# --- The string kernel and the checkers on it --------------------------------


def reference_compose_table(model: ActionModel, word) -> dict[str, str]:
    """The state table of a word on labels: rightmost label first."""
    maps = [model.generator(label).table for label in word]
    table = {}
    for x in model.states.elements:
        v = x
        for m in reversed(maps):
            v = m[v]
        table[x] = v
    return table


def reference_project_outcomes(
    model: ActionModel, do: Mapping[str, str], variables
) -> dict[str, str]:
    """The label table of project . process . do for a state table ``do``."""
    space = model.outcomes
    ids = space.normalize_vars(variables)
    process = model.process.table
    memo: dict[str, str] = {}
    table = {}
    for x, y in do.items():
        outcome = process[y]
        if outcome not in memo:
            memo[outcome] = reference_project(space, outcome, ids)
        table[x] = memo[outcome]
    return table


def reference_scan_determination(
    model: ActionModel, ids_i, ids_j, table_i, table_j
) -> DeterminationResult:
    """Bind f(outcome_I(x)) := outcome_J(x) state by state."""
    bound: dict[str, str] = {}
    binder: dict[str, str] = {}
    for x in model.states.elements:
        yi = table_i[x]
        yj = table_j[x]
        if yi in bound:
            if bound[yi] != yj:
                return DeterminationResult(False, None, None, (binder[yi], x))
        else:
            bound[yi] = yj
            binder[yi] = x
    domain = model.outcomes.subspace(ids_i).total
    codomain = model.outcomes.subspace(ids_j).total
    fill = codomain.elements[0]
    witness = TotalMap(
        domain, codomain, {e: bound.get(e, fill) for e in domain.elements}
    )
    return DeterminationResult(True, witness, len(bound) == len(domain), None)


def _reference_violation(model, word, vars_i, vars_j, witness):
    """First (state, predicted, actual) where outcome_J != witness . outcome_I."""
    do = reference_compose_table(model, word)
    oi = reference_project_outcomes(model, do, vars_i)
    oj = reference_project_outcomes(model, do, vars_j)
    for x in model.states.elements:
        expected = witness.table[oi[x]]
        if expected != oj[x]:
            return x, expected, oj[x]
    return None


def reference_check_determination(model, word, vars_i, vars_j):
    space = model.outcomes
    ids_i = space.normalize_vars(vars_i)
    ids_j = space.normalize_vars(vars_j)
    do = reference_compose_table(model, word)
    return reference_scan_determination(
        model,
        ids_i,
        ids_j,
        reference_project_outcomes(model, do, ids_i),
        reference_project_outcomes(model, do, ids_j),
    )


def reference_check_effectiveness(model, word, vars_j, context=()):
    do = reference_compose_table(model, tuple(word) + tuple(context))
    oj = reference_project_outcomes(model, do, vars_j)
    states = model.states.elements
    for x in states[1:]:
        if oj[x] != oj[states[0]]:
            return EffectivenessResult(False, None, (states[0], x))
    return EffectivenessResult(True, oj[states[0]], None)


def reference_check_invariance(model, base_word, witness, vars_i, vars_j, later_word):
    space = model.outcomes
    ids_i = space.normalize_vars(vars_i)
    ids_j = space.normalize_vars(vars_j)
    if witness.domain != space.subspace(ids_i).total:
        raise PreconditionError("witness domain does not match the I-variable subspace")
    if witness.codomain != space.subspace(ids_j).total:
        raise PreconditionError(
            "witness codomain does not match the J-variable subspace"
        )
    base = _reference_violation(model, base_word, ids_i, ids_j, witness)
    if base is not None:
        raise BaseDeterminationError(
            f"base determination does not hold: at state {base[0]!r} the witness "
            f"predicts {base[1]!r} but the outcome is {base[2]!r}"
        )
    word = tuple(later_word) + tuple(base_word)
    hit = _reference_violation(model, word, ids_i, ids_j, witness)
    if hit is None:
        return InvarianceResult(True, None, None, None)
    return InvarianceResult(False, *hit)


def reference_first_difference(model, first, second) -> CommutationResult:
    f = reference_compose_table(model, first)
    g = reference_compose_table(model, second)
    for x in model.states.elements:
        if f[x] != g[x]:
            return CommutationResult(False, x, f[x], g[x])
    return CommutationResult(True, None, None, None)


def reference_check_commute(model, a: str, b: str) -> CommutationResult:
    return reference_first_difference(model, (a, b), (b, a))


def reference_check_overwrite(model, a: str, b: str) -> CommutationResult:
    return reference_first_difference(model, (a, b), (a,))


def reference_probe_record(
    model, target, parents, witness, context, probe_depth: int = 1
) -> MechanismRecord:
    space = model.outcomes
    ids_i = space.normalize_vars(parents)
    ids_j = space.normalize_vars([target])
    base = _reference_violation(model, context, ids_i, ids_j, witness)
    if base is not None:
        raise BaseDeterminationError(
            f"record for {target!r} is invalid: at state {base[0]!r} the witness "
            f"predicts {base[1]!r} but the outcome is {base[2]!r}"
        )
    labels = sorted(model.generators)
    invariant, violated = [], []
    for length in range(1, probe_depth + 1):
        for word in product(labels, repeat=length):
            hit = _reference_violation(
                model, word + tuple(context), ids_i, ids_j, witness
            )
            if hit is None:
                invariant.append(",".join(word))
            else:
                violated.append((",".join(word), hit[0]))
    return MechanismRecord(
        target, ids_i, witness, tuple(context), tuple(invariant), tuple(violated)
    )


def _reference_minimal_unique(model, target, max_parents, word):
    space = model.outcomes
    do = reference_compose_table(model, word)
    table_j = reference_project_outcomes(model, do, (target,))
    others = [v for v in space.var_ids if v != target]
    for size in range(max_parents + 1):
        for parents in combinations(others, size):
            table_i = reference_project_outcomes(model, do, parents)
            result = reference_scan_determination(
                model, parents, (target,), table_i, table_j
            )
            if result.holds and result.unique:
                return parents, result.witness
    return None


def reference_discover_mechanisms(model, context, max_parents, probe_depth=1):
    if max_parents < 0:
        raise PreconditionError("max_parents must be non-negative")
    records = []
    for target in model.outcomes.var_ids:
        found = _reference_minimal_unique(model, target, max_parents, context)
        if found is not None:
            records.append(
                reference_probe_record(
                    model, target, found[0], found[1], context, probe_depth
                )
            )
    return records


def reference_check_surgical(
    model, action: str, mechanisms: Iterable[MechanismRecord], context=()
) -> SurgicalVerdict:
    mechanisms = list(mechanisms)
    if not mechanisms:
        raise PreconditionError("surgicality is relative to a non-empty mechanism set")
    model.generator(action)
    ctx = tuple(context)
    for record in mechanisms:
        if record.context != ctx:
            raise PreconditionError(
                f"record {record.describe()} was built in context "
                f"{record.context!r}, not {ctx!r}"
            )
        base = _reference_violation(
            model, ctx, record.parents, (record.target,), record.map
        )
        if base is not None:
            raise BaseDeterminationError(
                f"record {record.describe()} does not hold in its own context: at "
                f"state {base[0]!r} the witness predicts {base[1]!r} but the "
                f"outcome is {base[2]!r}"
            )
    new_word = (action,) + ctx
    broken, survived = [], []
    for record in mechanisms:
        hit = _reference_violation(
            model, new_word, record.parents, (record.target,), record.map
        )
        (broken if hit is not None else survived).append(record)
    reasons = []
    if len(broken) != 1:
        reasons.append(f"{len(broken)} mechanisms invalidated, need exactly 1")
    target = broken[0].target if len(broken) == 1 else None
    new_record = None
    if target is not None:
        found = _reference_minimal_unique(
            model, target, len(model.outcomes.var_ids) - 1, new_word
        )
        if found is None:
            reasons.append(f"no unique determination for {target!r} in the new context")
        else:
            new_record = reference_probe_record(
                model, target, found[0], found[1], new_word
            )
    lost = []
    for record in survived:
        for probe in record.invariant_under:
            hit = _reference_violation(
                model,
                tuple(probe.split(",")) + new_word,
                record.parents,
                (record.target,),
                record.map,
            )
            if hit is not None:
                lost.append((record.describe(), probe, hit[0]))
    if lost:
        reasons.append("surviving mechanisms lost invariances in the new context")
    return SurgicalVerdict(
        len(broken) == 1 and new_record is not None and not lost,
        target,
        tuple(r.describe() for r in broken),
        tuple(r.describe() for r in survived),
        new_record,
        tuple(lost),
        tuple(reasons),
    )


def _outcome(call, *args):
    """A checker's result, or the type and message of the error it raised."""
    try:
        return call(*args)
    except CausalGroundError as exc:
        return type(exc).__name__, str(exc)


def assert_same(library, reference, model: ActionModel, *args) -> None:
    """The library checker and its reference agree on one query."""
    got = _outcome(library, model, *args)
    want = _outcome(reference, model, *args)
    assert got == want, f"{library.__name__}{args}: {got} != {want}"


def assert_kernel_agrees(
    model: ActionModel,
    word,
    rng: random.Random,
    max_parents: int,
    pairs: Optional[int] = None,
) -> None:
    """Every checker on ``model`` equals its string-kernel reference.

    Queries use ``word`` as the base word or context.  ``pairs`` bounds
    the (I, J) subset pairs, generator pairs and surgical actions tried,
    drawn with ``rng`` (None: all of them).  A witness is also tried on a
    random base word, where it may fail as a base determination.
    """
    def some(items: list) -> list:
        return items if pairs is None else rng.sample(items, min(pairs, len(items)))

    labels = sorted(model.generators)
    for vars_i, vars_j in some(all_subset_pairs(model.outcomes.var_ids)):
        assert_same(
            check_determination, reference_check_determination,
            model, word, vars_i, vars_j,
        )
        assert_same(
            check_effectiveness, reference_check_effectiveness,
            model, (rng.choice(labels),), vars_j, word,
        )
        result = check_determination(model, word, vars_i, vars_j)
        if result.holds:
            for base in (word, random_word(rng, model)):
                assert_same(
                    check_invariance, reference_check_invariance,
                    model, base, result.witness, vars_i, vars_j, random_word(rng, model),
                )
    for a, b in some(list(product(labels, repeat=2))):
        assert_same(check_commute, reference_check_commute, model, a, b)
        assert_same(check_overwrite, reference_check_overwrite, model, a, b)
    assert_same(
        discover_mechanisms, reference_discover_mechanisms, model, word, max_parents
    )
    records = discover_mechanisms(model, word, max_parents)
    if records:
        for action in some(labels):
            assert_same(
                check_surgical, reference_check_surgical, model, action, records, word
            )


# --- reference writers ----------------------------------------------------------

def model_to_dict(model: ActionModel) -> dict:
    space = model.outcomes
    return {
        "states": list(model.states.elements),
        "variables": [
            {"id": vid, "values": list(dom.elements)}
            for vid, dom in space.variables
        ],
        "process": {
            x: list(split_values(space, y)) for x, y in model.process.table.items()
        },
        "generators": {
            label: gen.table
            for label, gen in model.generators.items()
            if label != ID_LABEL
        },
    }


def morphism_to_dict(
    m: ModelMorphism,
    source_ref: Optional[str] = None,
    target_ref: Optional[str] = None,
) -> dict:
    space = m.target.outcomes
    return {
        "source_model": source_ref or model_to_dict(m.source),
        "target_model": target_ref or model_to_dict(m.target),
        "state_map": m.state_map.table,
        "outcome_map": {
            y: list(split_values(space, v)) for y, v in m.outcome_map.table.items()
        },
        "alphabet_map": dict(m.alphabet_map),
    }


def scm_to_dict(scm: Scm) -> dict:
    return {
        "exogenous": [
            {"id": uid, "values": list(dom.elements)} for uid, dom in scm.exogenous
        ],
        "endogenous": [
            {
                "id": vid,
                "values": list(dom.elements),
                "parents": list(scm.parents[vid]),
                "function_table": {
                    "|".join(key): value
                    for key, value in sorted(scm.functions[vid].items())
                },
            }
            for vid, dom in scm.endogenous
        ],
    }


def reference_text(data: dict) -> str:
    """A file's text as the stdlib encoder lays out its data."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
