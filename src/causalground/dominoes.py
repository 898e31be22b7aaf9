"""Deterministic domino micro-world and its bounded action models.

A state is a label ``<tag or - per id>/b<bit per barrier edge>/p<id><dir
or ->``: dominoes stand at fixed home cells on one row, some allowed
edges carry a barrier, and one domino may be designated to be pushed.
A family's state set is a view over the row, bits and push fields, which
joins and splits every label.  The process reads the fields: the pushed
domino falls in the push direction, and an east or west fall knocks over
the next domino along the row, which falls the same way, until a gap, a
set barrier bit or the end of the row.  A north or south push topples
only the pushed domino.

Bounded model building turns the fields of a family (presence up to a
cap, optional nuisance tags, the allowed barrier edges and push
designations) into a micro action model, its tag-forgetting abstract
model over per-domino status variables, and the morphism between them.
Nuisance tags exist purely so the state map is non-injective and
naturality says something.

Resolution rules keeping every action total: removing an absent domino is
a no-op; placing an already-present id, or into a full family, is a
no-op; choosing to push an absent domino clears the designation.
Removing a domino leaves an existing designation in place even when it
now names the removed domino (the choice lives in agent memory, not on
the table); the process then topples nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations, product
from math import comb
from typing import Iterable, Optional, Sequence

from .core import (
    ID_LABEL,
    ActionModel,
    FactoredSpace,
    FiniteSet,
    MapTableError,
    TotalMap,
    UnknownLabelError,
    _Product,
    check_enumeration_bound,
)
from .abstraction import ModelMorphism

DIRECTIONS = ("N", "E", "S", "W")

#: Per-domino terminal statuses.  "upright" must stay first: it is the
#: fill value for unconstrained witness entries in determination checks.
STATUSES = ("upright", "fallen-N", "fallen-E", "fallen-S", "fallen-W", "absent")

#: Separator inside micro outcome labels (distinct from the factored SEP).
OUTCOME_SEP = ";"


# --- bounded single-row families --------------------------------------------

class _States(_Product):
    """A family's states, each labelled ``<row>/b<bits>/p<push>``: the
    product of its rows, bit rows and pushes, the push fastest.  ``_split``
    reads the fields at fixed offsets (an id or a tag may hold '/') and
    checks both markers: the one code that joins or splits a family label."""

    def __init__(self, id: str, *fields: Sequence[str]):  # rows, bit rows, pushes
        super().__init__(id, [FiniteSet(id, f) for f in fields])
        object.__setattr__(self, "_widths", (len(fields[0][0]), len(fields[1][0])))

    @staticmethod
    def _join(fields: Sequence[str]) -> str:
        row, bits, push = fields  # an f-string: str.format would double the cost of elements
        return f"{row}/b{bits}/p{push}"

    def _split(self, label: str) -> Sequence[str]:
        n, m = self._widths
        marked = label[n:n + 2] == "/b" and label[n + m + 2:n + m + 4] == "/p"
        return (label[:n], label[n + 2:n + m + 2], label[n + m + 4:]) if marked else ()


@dataclass(frozen=True)
class LineFamily:
    """An enumerable family of states on a 1 x length row of cells.

    Domino ids have fixed home cells (the k-th id lives in the k-th cell);
    states vary presence (up to ``max_dominoes``), per-domino nuisance
    tags, barriers on the allowed edges, and the push designation.  Barrier
    edge ``i`` (1-based) separates the i-th and (i+1)-th cells and is
    labelled ``add-barrier-i-(i+1)``.  A state is its label, an element
    of ``states``, and each action rewrites one field of it.  ``states``
    is built on first read, where the enumeration limit applies, so at
    once in a family with layouts: each layout is a named state label.
    """

    length: int
    ids: tuple[str, ...]
    max_dominoes: int
    tags: tuple[str, ...] = ("0",)
    barrier_edges: tuple[int, ...] = ()
    push_dirs: tuple[str, ...] = ("E", "W")
    layouts: tuple[tuple[str, str], ...] = ()
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
        if len(set(self.barrier_edges)) != len(self.barrier_edges):
            raise ValueError("barrier edges must be distinct")
        for d in self.push_dirs:
            if d not in DIRECTIONS:
                raise ValueError(f"bad push direction {d!r}")
        if len(set(self.push_dirs)) != len(self.push_dirs):
            raise ValueError("push directions must be distinct")
        for name, layout in self.layouts:  # a map from names into the states
            if layout not in self.states:
                raise MapTableError(name, f"layout {name!r} is not a state of the family")
        rewrites = self._rewrites()  # raises on a label two actions share
        for a in self.actions:
            if a not in rewrites:
                raise ValueError(f"unknown family action label {a!r}")
        if not self.actions:
            object.__setattr__(self, "actions", tuple(rewrites))

    def chain(self, count: int) -> str:
        """The first ``count`` dominoes at home, no barriers, no push."""
        row = self.tags[0] * count + "-" * (len(self.ids) - count)
        return _States._join((row, "0" * len(self.barrier_edges), "-"))

    def state_count(self) -> int:
        n = len(self.ids)
        presence = sum(
            comb(n, k) * len(self.tags) ** k for k in range(min(self.max_dominoes, n) + 1)
        )
        pushes = 1 + n * len(self.push_dirs)
        return presence * pushes * 2 ** len(self.barrier_edges)

    @cached_property
    def states(self) -> _States:
        """Every state label: the product of the row, bits and push values,
        each in enumeration order, rows by presence size, then ids, then tags."""
        check_enumeration_bound(self.state_count(), "line family state set")
        rows = []
        for k in range(min(self.max_dominoes, len(self.ids)) + 1):
            for chosen in combinations(self.ids, k):
                for tags in product(self.tags, repeat=k):
                    present = dict(zip(chosen, tags))
                    rows.append("".join(present.get(i, "-") for i in self.ids))
        bit_rows = [
            "".join("1" if e in edges else "0" for e in self.barrier_edges)
            for k in range(len(self.barrier_edges) + 1)
            for edges in combinations(self.barrier_edges, k)
        ]
        pushes = ["-"] + [i + d for i in self.ids for d in self.push_dirs]
        return _States("Xbar", rows, bit_rows, pushes)

    def enumerate_states(self) -> list[str]:
        """Every state label, by row, then bits, then push."""
        return list(self.states.elements)

    def process(self, label: str) -> dict[str, str]:
        """The terminal status of every id in the state ``label``."""
        return micro_proc(self, label)

    def _run(self, word: Sequence[str], label: str) -> str:
        """The state that ``word`` (rightmost first) reaches from the state
        ``label``: each action's rewrite applied to the label's fields,
        the rules ``build_bounded_model`` tabulates, so no model is built."""
        known, rewrites = {ID_LABEL, *self.actions}, self._rewrites()
        for a in word:
            if a not in known:
                raise UnknownLabelError(a, known)
        for kind, how in map(rewrites.get, reversed(word)):
            if kind == "init":
                label = how
            elif kind != "id":
                fields = dict(zip(("row", "bits", "push"), self.states._split(label)))
                fields[kind] = how(fields["bits" if kind == "bits" else "row"])
                label = _States._join(fields.values())
        return label

    def _rewrites(self) -> dict[str, tuple[str, object]]:
        """Every registrable action label with what it does to a label:
        ``("id", None)``; ``("init", label)``; ``("row", f)`` or
        ``("bits", f)``, which rewrite that field by ``f``; or
        ``("push", f)``, whose push value ``f`` reads from the row.  A label
        that two actions would share raises ValueError."""
        rewrites: dict[str, tuple[str, object]] = {}

        def add(label: str, kind: str, how: object = None) -> None:
            if label in rewrites:
                raise ValueError(f"two family actions share the label {label!r}")
            rewrites[label] = (kind, how)

        n, cap, tag = len(self.ids), self.max_dominoes, self.tags[0]
        add("id", "id")
        for name, layout in self.layouts:
            add(f"init-{name}", "init", layout)
        for k, i in enumerate(self.ids):
            for d in self.push_dirs:
                add(f"choose-push-{i}-{d}", "push",
                    lambda r, k=k, p=i + d: "-" if r[k] == "-" else p)
            add(f"remove-{i}", "row", lambda r, k=k: r[:k] + "-" + r[k + 1:])
            add(f"place-{i}", "row", lambda r, k=k: (
                r if r[k] != "-" or n - r.count("-") >= cap else r[:k] + tag + r[k + 1:]
            ))
        for j, i in enumerate(self.barrier_edges):
            for verb, bit in (("add", "1"), ("remove", "0")):
                add(f"{verb}-barrier-{i}-{i + 1}", "bits",
                    lambda b, j=j, bit=bit: b[:j] + bit + b[j + 1:])
        return rewrites


def micro_proc(family: LineFamily, label: str) -> dict[str, str]:
    """The terminal status of every id of ``family`` in the state ``label``,
    by the module docstring's rules (the bench tracer counts its calls)."""
    row, bits, push = family.states._split(label)
    status = {i: "upright" if t != "-" else "absent" for i, t in zip(family.ids, row)}
    k = -1 if push == "-" else family.ids.index(push[:-1])
    if k < 0 or row[k] == "-":
        return status
    walls = {e for e, b in zip(family.barrier_edges, bits) if b == "1"}
    direction, step = push[-1], {"E": 1, "W": -1}.get(push[-1], 0)
    while True:
        status[family.ids[k]] = f"fallen-{direction}"
        j = k + step  # the fall crosses edge max(k, j), between cells k and j
        if j == k or not 0 <= j < len(row) or row[j] == "-" or max(k, j) in walls:
            return status
        k = j


def build_bounded_model(
    family: LineFamily,
) -> tuple[ActionModel, ActionModel, ModelMorphism]:
    """Enumerate a family into (micro model, abstract model, morphism).

    The micro outcomes, the values of one variable ``Ybar``, are those the
    process actually realizes, so the micro process is surjective.
    The abstract model forgets nuisance tags; its outcome space is the
    factored per-domino status space, on which impossible joint outcomes
    become visible.
    """
    micro_states = family.states
    # The state at (row, bits, push) sits at row * block + bits * width +
    # push.  Every table entry is one of these shared int objects.
    (rows, block, _), (bits, width, _), (pushes, _, _) = micro_states._layout
    count = len(micro_states)
    shared = list(range(count))

    def runs(starts: Iterable[int], length: int, source: list[int] = shared) -> list[int]:
        """The ``length``-long runs of ``source`` at ``starts``, joined."""
        table: list[int] = []
        for start in starts:
            table += source[start:start + length]
        return table

    def expand(kind: str, how) -> list[int]:
        """A rewrite's table: it runs once per value of the field it reads."""
        if kind == "id":
            return shared
        if kind == "init":
            return [shared[micro_states.position(how)]] * count
        if kind == "row":
            return runs([rows.position(how(r)) * block for r in rows.elements], block)
        row_starts = range(0, count, block)
        if kind == "bits":
            offsets = [bits.position(how(b)) * width for b in bits.elements]
            return runs([start + o for start in row_starts for o in offsets], width)
        table: list[int] = []
        for start, p in zip(row_starts, [pushes.position(how(r)) for r in rows.elements]):
            for k in range(start + p, start + block, width):
                table += [shared[k]] * width
        return table

    # Abstract quotient: one state per tag-forgotten row, bits and push, the
    # rows numbered by first occurrence; each is represented by the first
    # micro state enumerated in it.  The process never reads tags, so it
    # runs once per class.
    forget = str.maketrans(dict.fromkeys(family.tags, "x"))
    xrows = [r.translate(forget) for r in rows.elements]
    first: dict[str, int] = {}  # tag-forgotten row -> its first row
    for k, x in enumerate(xrows):
        first.setdefault(x, k)
    number = {x: c for c, x in enumerate(first)}
    class_starts = [number[x] * block for x in xrows]
    x_codes = runs(class_starts, block)
    reps = runs([k * block for k in first.values()], block)
    rep_rows = [rows.elements[k] for k in first.values()]
    status = [micro_proc(family, _States._join(f))
              for f in product(rep_rows, bits.elements, pushes.elements)]
    names = [OUTCOME_SEP.join(s[i] for i in family.ids) for s in status]

    ybar = FiniteSet("Ybar", tuple(sorted(set(names))))
    micro_space = FactoredSpace((("Ybar", ybar),))

    # The family checked its layouts and actions, so every image is a state.
    rewrites = family._rewrites()
    micro_gens = {a: expand(*rewrites[a]) for a in family.actions}
    micro = ActionModel(
        micro_states,
        micro_space,
        {a: TotalMap._of(micro_states, micro_states, g) for a, g in micro_gens.items()},
        TotalMap._of(micro_states, micro_space.total,
                     runs(class_starts, block, micro_space._code([names]))),
    )

    abstract_states = _States("X", list(first), bits.elements, pushes.elements)
    abstract_space = FactoredSpace(
        tuple((i, FiniteSet(f"Y({i})", STATUSES)) for i in family.ids)
    )
    total = abstract_space.total
    joint = abstract_space._code([[s[i] for s in status] for i in family.ids])
    abstract_gens = {
        a: TotalMap._of(abstract_states, abstract_states, [x_codes[g[k]] for k in reps])
        for a, g in micro_gens.items()
    }
    abstract_proc = TotalMap._of(abstract_states, total, joint)
    abstract = ActionModel(abstract_states, abstract_space, abstract_gens, abstract_proc)

    joint_of = dict(zip(names, joint))
    morphism = ModelMorphism(
        micro,
        abstract,
        TotalMap._of(micro_states, abstract_states, x_codes),
        TotalMap._of(micro_space.total, total, [joint_of[y] for y in ybar.elements]),
    )
    return micro, abstract, morphism


# --- named families used across tests, demos, and reports -------------------

def _chain_family(
    name: str,
    length: int,
    *,
    max_dominoes: Optional[int] = None,
    tags: tuple[str, ...] = ("0",),
    barrier_edges: Optional[tuple[int, ...]] = None,
    actions: tuple[str, ...] = (),
) -> LineFamily:
    family = LineFamily(
        length,
        tuple(f"d{i}" for i in range(1, length + 1)),
        length if max_dominoes is None else max_dominoes,
        tags,
        tuple(range(1, length)) if barrier_edges is None else barrier_edges,
    )
    layout = family.chain(family.max_dominoes)
    return replace(family, layouts=((name, layout),), actions=actions)


def three_chain_family() -> LineFamily:
    """1x3 line, three dominoes, all edges and pushes: 224 states."""
    return _chain_family("chain3", 3)


def four_chain_family() -> LineFamily:
    """1x4 line, four dominoes: 1152 states."""
    return _chain_family("chain4", 4)


def five_chain_family() -> LineFamily:
    """1x5 line, five dominoes: 5632 states."""
    return _chain_family("chain5", 5)


def line6_family() -> LineFamily:
    """1x6 line, up to 4 of 6 dominoes, nuisance tags {0,1,2}: 49634 states."""
    return _chain_family(
        "chain4",
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
