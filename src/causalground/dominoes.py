"""Deterministic domino micro-world and its bounded action models.

The simulator is a pure function of a grid state: pushing the designated
domino topples it in the push direction, and a falling domino knocks over
the upright neighbour it falls onto, which falls in the direction given
by its routing function, unless a barrier sits on the shared edge.  Each
domino falls at most once, so propagation terminates.

Bounded model building enumerates a single-row family of states (home
cells per domino id, optional nuisance tags, a set of allowed barrier
edges and push designations) into a micro action model, its tag-forgetting
abstract model over per-domino status variables, and the morphism between
them.  Nuisance tags exist purely so the state map is non-injective and
naturality says something.

Resolution rules keeping every action total: removing an absent domino is
a no-op; placing onto an occupied cell, an already-present id, or a full
family is a no-op; choosing to push an absent domino clears the
designation.  Removing a domino leaves an existing designation in place
even when it now names the removed domino (the choice lives in agent
memory, not on the table); the process then topples nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .core import (
    ActionModel,
    CausalGroundError,
    FactoredSpace,
    FiniteSet,
    TotalMap,
    check_enumeration_bound,
    join_values,
)
from .abstraction import ModelMorphism

DIRECTIONS = ("N", "E", "S", "W")
_STEP = {"N": (0, -1), "E": (1, 0), "S": (0, 1), "W": (-1, 0)}

#: Identity routing: a struck domino falls onward in the incoming direction.
IDENTITY_ROUTING = DIRECTIONS

#: Per-domino terminal statuses.  "upright" must stay first: it is the
#: fill value for unconstrained witness entries in determination checks.
STATUSES = ("upright", "fallen-N", "fallen-E", "fallen-S", "fallen-W", "absent")

#: Separator inside micro outcome labels (distinct from the factored SEP).
OUTCOME_SEP = ";"

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
    routing: tuple[str, str, str, str] = IDENTITY_ROUTING
    tag: str = "0"

    def route(self, incoming: str) -> str:
        return self.routing[DIRECTIONS.index(incoming)]


@dataclass(frozen=True)
class MicroState:
    """One configuration of the domino world.

    The push designation may name an id that is not on the grid; the
    process treats that like no designation at all.
    """

    grid: tuple[int, int]
    dominoes: tuple[Domino, ...]
    barriers: frozenset[Edge] = frozenset()
    push: Optional[tuple[str, str]] = None

    def __post_init__(self):
        object.__setattr__(
            self, "dominoes", tuple(sorted(self.dominoes, key=lambda d: d.id))
        )
        object.__setattr__(self, "barriers", frozenset(self.barriers))
        w, h = self.grid
        cells = set()
        ids = set()
        for d in self.dominoes:
            x, y = d.cell
            if not (0 <= x < w and 0 <= y < h):
                raise ValueError(f"domino {d.id!r} at {d.cell} is off the grid")
            if d.cell in cells:
                raise ValueError(f"two dominoes share cell {d.cell}")
            if d.id in ids:
                raise ValueError(f"duplicate domino id {d.id!r}")
            cells.add(d.cell)
            ids.add(d.id)
        if self.push is not None and self.push[1] not in DIRECTIONS:
            raise ValueError(f"bad push direction {self.push[1]!r}")

    def domino(self, domino_id: str) -> Optional[Domino]:
        for d in self.dominoes:
            if d.id == domino_id:
                return d
        return None

    def occupant(self, cell: Cell) -> Optional[Domino]:
        for d in self.dominoes:
            if d.cell == cell:
                return d
        return None

    def ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.dominoes)


def micro_proc(
    state: MicroState, census: Optional[Sequence[str]] = None
) -> dict[str, str]:
    """Run the process: push the designated domino, let everything fall.

    Returns a terminal status per census id (absent ids included).  With
    no (valid) designation nothing falls.
    """
    ids = tuple(census) if census is not None else state.ids()
    status = {i: "absent" for i in ids}
    for d in state.dominoes:
        if d.id in status:
            status[d.id] = "upright"
    if state.push is None:
        return status
    current = state.domino(state.push[0])
    if current is None:
        return status
    direction = state.push[1]
    fallen: set[str] = set()
    while True:
        fallen.add(current.id)
        if current.id in status:
            status[current.id] = f"fallen-{direction}"
        dx, dy = _STEP[direction]
        target = (current.cell[0] + dx, current.cell[1] + dy)
        w, h = state.grid
        if not (0 <= target[0] < w and 0 <= target[1] < h):
            break
        if edge_between(current.cell, target) in state.barriers:
            break
        struck = state.occupant(target)
        if struck is None or struck.id in fallen:
            break
        direction = struck.route(direction)
        current = struck
    return status


# --- total state edits -----------------------------------------------------

def remove_domino(state: MicroState, domino_id: str) -> MicroState:
    if state.domino(domino_id) is None:
        return state
    return MicroState(
        state.grid,
        tuple(d for d in state.dominoes if d.id != domino_id),
        state.barriers,
        state.push,
    )


def place_domino(
    state: MicroState, domino: Domino, max_dominoes: Optional[int] = None
) -> MicroState:
    if state.domino(domino.id) is not None:
        return state
    if state.occupant(domino.cell) is not None:
        return state
    if max_dominoes is not None and len(state.dominoes) >= max_dominoes:
        return state
    return MicroState(
        state.grid, state.dominoes + (domino,), state.barriers, state.push
    )


def choose_push(state: MicroState, domino_id: str, direction: str) -> MicroState:
    push = (domino_id, direction) if state.domino(domino_id) is not None else None
    return MicroState(state.grid, state.dominoes, state.barriers, push)


def add_barrier(state: MicroState, edge: Edge) -> MicroState:
    return MicroState(
        state.grid, state.dominoes, state.barriers | {edge}, state.push
    )


def remove_barrier(state: MicroState, edge: Edge) -> MicroState:
    return MicroState(
        state.grid, state.dominoes, state.barriers - {edge}, state.push
    )


def apply_action_descriptor(state: MicroState, descriptor: Mapping) -> MicroState:
    """Apply one scenario-file action object to a state."""
    kind = descriptor.get("action")
    if kind == "remove":
        return remove_domino(state, descriptor["id"])
    if kind == "place":
        routing = routing_from_mapping(descriptor.get("routing"))
        return place_domino(
            state,
            Domino(
                descriptor["id"],
                tuple(descriptor["cell"]),
                routing,
                str(descriptor.get("tag", "0")),
            ),
        )
    if kind == "choose-push":
        return choose_push(state, descriptor["id"], descriptor["dir"])
    if kind == "add-barrier":
        a, b = descriptor["edge"]
        return add_barrier(state, edge_between(tuple(a), tuple(b)))
    if kind == "remove-barrier":
        a, b = descriptor["edge"]
        return remove_barrier(state, edge_between(tuple(a), tuple(b)))
    raise ValueError(f"unknown scenario action {kind!r}")


def routing_from_mapping(mapping: Optional[Mapping[str, str]]) -> tuple[str, ...]:
    if not mapping:
        return IDENTITY_ROUTING
    for key, value in mapping.items():
        if key not in DIRECTIONS or value not in DIRECTIONS:
            raise ValueError(f"bad routing entry {key!r} -> {value!r}")
    return tuple(mapping.get(d, d) for d in DIRECTIONS)


# --- bounded single-row families --------------------------------------------

#: A family state: (tag or None per id, barrier bit per allowed edge, push).
Code = tuple[tuple[Optional[str], ...], tuple[int, ...], Optional[tuple[str, str]]]


@dataclass(frozen=True)
class LineFamily:
    """An enumerable family of states on a 1 x length grid.

    Domino ids have fixed home cells (the k-th id lives at x = k); states
    vary presence (up to ``max_dominoes``), per-domino nuisance tags,
    barriers on the allowed edges, and the push designation.  Barrier edge
    ``i`` (1-based) separates the i-th and (i+1)-th cells and is labelled
    ``add-barrier-i-(i+1)``.  Model building runs on state codes;
    ``decode`` gives the ``MicroState`` of a code.
    """

    length: int
    ids: tuple[str, ...]
    max_dominoes: int
    tags: tuple[str, ...] = ("0",)
    barrier_edges: tuple[int, ...] = ()
    push_dirs: tuple[str, ...] = ("E", "W")
    layouts: tuple[tuple[str, MicroState], ...] = ()
    actions: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.ids) > self.length:
            raise ValueError("more domino ids than cells")
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("domino ids must be distinct")
        if self.max_dominoes < 0:
            raise ValueError("max_dominoes must be non-negative")
        if not self.tags or len(set(self.tags)) != len(self.tags) or any(
            len(tag) != 1 or tag == "-" for tag in self.tags
        ):
            raise ValueError("tags must be distinct single characters other than '-'")
        for i in self.barrier_edges:
            if not 1 <= i < self.length:
                raise ValueError(f"barrier edge {i} out of range")
        for d in self.push_dirs:
            if d not in DIRECTIONS:
                raise ValueError(f"bad push direction {d!r}")
        if not self.actions:
            object.__setattr__(self, "actions", tuple(self.code_transforms()))

    @property
    def grid(self) -> tuple[int, int]:
        return (self.length, 1)

    def home_cell(self, domino_id: str) -> Cell:
        return (self.ids.index(domino_id), 0)

    def edge(self, position: int) -> Edge:
        return edge_between((position - 1, 0), (position, 0))

    def state(
        self,
        present: Mapping[str, str],
        barriers: Iterable[int] = (),
        push: Optional[tuple[str, str]] = None,
    ) -> MicroState:
        """Family state from an id->tag mapping plus barrier positions."""
        unknown = [i for i in present if i not in self.ids]
        if unknown:
            raise ValueError(f"unknown domino id {unknown[0]!r}")
        return MicroState(
            self.grid,
            tuple(
                Domino(i, self.home_cell(i), IDENTITY_ROUTING, present[i])
                for i in self.ids
                if i in present
            ),
            frozenset(self.edge(i) for i in barriers),
            push,
        )

    def chain(self, count: Optional[int] = None) -> MicroState:
        """The first ``count`` dominoes at home, no barriers, no push."""
        count = len(self.ids) if count is None else count
        return self.state({i: self.tags[0] for i in self.ids[:count]})

    def state_count(self) -> int:
        n = len(self.ids)
        presence = sum(
            comb(n, k) * len(self.tags) ** k for k in range(self.max_dominoes + 1)
        )
        pushes = 1 + n * len(self.push_dirs)
        return presence * pushes * 2 ** len(self.barrier_edges)

    def codes(self) -> list[Code]:
        """Every state code, by presence and tags, then barriers, then push."""
        check_enumeration_bound(self.state_count(), "line family state set")
        rows = []
        for k in range(self.max_dominoes + 1):
            for chosen in combinations(self.ids, k):
                for tags in product(self.tags, repeat=k):
                    present = dict(zip(chosen, tags))
                    rows.append(tuple(present.get(i) for i in self.ids))
        bit_rows = [
            tuple(int(e in edges) for e in self.barrier_edges)
            for k in range(len(self.barrier_edges) + 1)
            for edges in combinations(self.barrier_edges, k)
        ]
        pushes = [None] + [(i, d) for i in self.ids for d in self.push_dirs]
        return [(row, bits, push) for row in rows for bits in bit_rows for push in pushes]

    def enumerate_states(self) -> list[MicroState]:
        return [self.decode(code) for code in self.codes()]

    def decode(self, code: Code) -> MicroState:
        tags, bits, push = code
        present = {i: t for i, t in zip(self.ids, tags) if t is not None}
        return self.state(present, [e for e, b in zip(self.barrier_edges, bits) if b], push)

    def encode(self, state: MicroState) -> Optional[Code]:
        """Code of ``state``, or None when no code decodes to it."""
        tags = {d.id: d.tag for d in state.dominoes}
        bits = tuple(int(self.edge(e) in state.barriers) for e in self.barrier_edges)
        code = (tuple(tags.get(i) for i in self.ids), bits, state.push)
        return code if self.decode(code) == state else None

    def label(self, code: Code) -> str:
        """State label ``<tag or - per id>/b<bits>/p<id><dir or ->``."""
        tags, bits, push = code
        tokens = "".join("-" if t is None else t for t in tags)
        push_token = "-" if push is None else push[0] + push[1]
        return f"{tokens}/b{''.join(map(str, bits))}/p{push_token}"

    def code_transforms(self) -> dict[str, Callable[[Code], Optional[Code]]]:
        """Every registrable action label with its transform on codes.

        A layout with no code, or with a code outside the family, never
        matches a state, so its ``init-*`` action fails the closure check.
        """
        transforms: dict[str, Callable[[Code], Optional[Code]]] = {"id": lambda c: c}
        for name, layout in self.layouts:
            transforms[f"init-{name}"] = lambda c, t=self.encode(layout): t
        for k, i in enumerate(self.ids):
            for d in self.push_dirs:
                transforms[f"choose-push-{i}-{d}"] = lambda c, k=k, p=(i, d): (
                    c[0], c[1], None if c[0][k] is None else p
                )
            transforms[f"remove-{i}"] = lambda c, k=k: _with_tag(c, k, None)
            transforms[f"place-{i}"] = lambda c, k=k: _place(
                c, k, self.tags[0], self.max_dominoes
            )
        for i in self.barrier_edges:
            for verb, bit in (("add", 1), ("remove", 0)):
                transforms[f"{verb}-barrier-{i}-{i + 1}"] = lambda c, i=i, bit=bit: (
                    _with_barrier(c, self.barrier_edges, i, bit)
                )
        return transforms


def _with_tag(code: Code, k: int, tag: Optional[str]) -> Code:
    tags, bits, push = code
    return (tags[:k] + (tag,) + tags[k + 1:], bits, push)


def _place(code: Code, k: int, tag: str, max_dominoes: int) -> Code:
    tags = code[0]
    if tags[k] is not None or len(tags) - tags.count(None) >= max_dominoes:
        return code
    return _with_tag(code, k, tag)


def _with_barrier(code: Code, edges: Sequence[int], edge: int, bit: int) -> Code:
    tags, bits, push = code
    return (tags, tuple(bit if e == edge else b for e, b in zip(edges, bits)), push)


def _forget_tags(code: Code) -> Code:
    """Code of a state's tag-free class; its label is the abstract label."""
    tags, bits, push = code
    return (tuple(None if t is None else "x" for t in tags), bits, push)


def build_bounded_model(
    family: LineFamily,
) -> tuple[ActionModel, ActionModel, ModelMorphism]:
    """Enumerate a family into (micro model, abstract model, morphism).

    The micro outcome set is restricted to the outcomes the process
    actually realizes, so the micro process is surjective by construction.
    The abstract model forgets nuisance tags; its outcome space is the
    factored per-domino status space, on which impossible joint outcomes
    become visible.
    """
    codes = family.codes()
    index = {code: family.label(code) for code in codes}
    if len(index) != len(codes):
        raise CausalGroundError("family state labels are not distinct")

    transforms = family.code_transforms()
    unknown = [a for a in family.actions if a not in transforms]
    if unknown:
        raise CausalGroundError(f"unknown family action label {unknown[0]!r}")

    # Abstract quotient: one state per tag-forgotten class, represented by
    # the first micro state enumerated in it.  The process never reads
    # tags, so it runs once per class.
    rep: dict[str, Code] = {}
    x_table = {}
    for code, label in index.items():
        ab = family.label(_forget_tags(code))
        rep.setdefault(ab, code)
        x_table[label] = ab
    status = {ab: micro_proc(family.decode(c), family.ids) for ab, c in rep.items()}
    outcome_of = {ab: OUTCOME_SEP.join(s[i] for i in family.ids) for ab, s in status.items()}
    ab_proc = {ab: join_values([s[i] for i in family.ids]) for ab, s in status.items()}
    factored_of = {outcome_of[ab]: ab_proc[ab] for ab in rep}

    micro_states = FiniteSet("Xbar", tuple(index.values()))
    micro_outcomes = FiniteSet("Ybar", tuple(sorted(factored_of)))

    def table_for(transform) -> dict[str, str]:
        table = {}
        for code, label in index.items():
            try:
                table[label] = index[transform(code)]
            except KeyError:
                raise CausalGroundError(
                    f"family is not closed under its actions at state {label!r}"
                ) from None
        return table

    micro_gens = {
        a: TotalMap(micro_states, micro_states, table_for(transforms[a]))
        for a in family.actions
    }
    micro_proc_table = {label: outcome_of[ab] for label, ab in x_table.items()}
    micro = ActionModel(
        micro_states,
        micro_outcomes,
        micro_gens,
        TotalMap(micro_states, micro_outcomes, micro_proc_table),
    )

    abstract_states = FiniteSet("X", tuple(rep))
    abstract_space = FactoredSpace(
        tuple((i, FiniteSet(f"Y({i})", STATUSES)) for i in family.ids)
    )
    abstract_gens = {
        a: TotalMap(
            abstract_states,
            abstract_states,
            {ab: x_table[index[transforms[a](c)]] for ab, c in rep.items()},
        )
        for a in family.actions
    }
    abstract = ActionModel(
        abstract_states,
        abstract_space,
        abstract_gens,
        TotalMap(abstract_states, abstract_space.total, ab_proc),
    )

    y_table = {name: factored_of[name] for name in micro_outcomes.elements}
    morphism = ModelMorphism(
        micro,
        abstract,
        TotalMap(micro_states, abstract_states, x_table),
        TotalMap(micro_outcomes, abstract_space.total, y_table),
    )
    return micro, abstract, morphism


def barrier_blind_morphism(
    family: LineFamily, morphism: ModelMorphism
) -> ModelMorphism:
    """Sabotaged state map that also forgets barrier positions.

    Maps every micro state to the abstract state of its barrier-free
    variant; action squares for barrier edits and process squares for
    blocked chains stop commuting, which check_naturality must expose.
    """
    blind = {}
    for code in family.codes():
        tags, bits, push = code
        cleared = _forget_tags((tags, (0,) * len(bits), push))
        blind[family.label(code)] = family.label(cleared)
    return ModelMorphism(
        morphism.source,
        morphism.target,
        TotalMap(morphism.source.states, morphism.target.states, blind),
        morphism.outcome_map,
        dict(morphism.alphabet_map),
    )


# --- named families used across tests, demos, and reports -------------------

def _chain_family(
    name: str,
    length: int,
    n_ids: int,
    *,
    max_dominoes: Optional[int] = None,
    tags: tuple[str, ...] = ("0",),
    barrier_edges: Optional[tuple[int, ...]] = None,
    actions: tuple[str, ...] = (),
) -> LineFamily:
    ids = tuple(f"d{i}" for i in range(1, n_ids + 1))
    max_dominoes = n_ids if max_dominoes is None else max_dominoes
    chain = tuple(Domino(i, (x, 0), tag=tags[0]) for x, i in enumerate(ids[:max_dominoes]))
    layout = MicroState((length, 1), chain)
    return LineFamily(
        length,
        ids,
        max_dominoes,
        tags,
        tuple(range(1, length)) if barrier_edges is None else barrier_edges,
        ("E", "W"),
        ((name, layout),),
        actions,
    )


def three_chain_family() -> LineFamily:
    """1x3 line, three dominoes, all edges and pushes: 224 states."""
    return _chain_family("chain3", 3, 3)


def four_chain_family() -> LineFamily:
    """1x4 line, four dominoes: 1152 states."""
    return _chain_family("chain4", 4, 4)


def five_chain_family() -> LineFamily:
    """1x5 line, five dominoes: 5632 states."""
    return _chain_family("chain5", 5, 5)


def line6_family() -> LineFamily:
    """1x6 line, up to 4 of 6 dominoes, nuisance tags {0,1,2}: 49634 states."""
    return _chain_family(
        "chain4",
        6,
        6,
        max_dominoes=4,
        tags=("0", "1", "2"),
        barrier_edges=(3,),
        actions=(
            "id",
            "init-chain4",
            "choose-push-d1-E",
            "choose-push-d4-W",
            "remove-d2",
            "place-d5",
            "add-barrier-3-4",
            "remove-barrier-3-4",
        ),
    )
