"""Finite sets, total maps, factored outcome spaces, and action models.

Everything here is exact and exhaustively enumerable: sets carry explicit
ordered element lists, maps carry explicit tables, and map equality is
table equality.  All types are immutable after construction; every
operation is a pure function of its arguments.

Word convention (used consistently across the whole package): a word is a
sequence of generator labels in which the RIGHTMOST label acts first, so
the word ``("a", "b")`` means "do b, then a" and its map is
``do(a) . do(b)``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Optional, Sequence

#: Reserved separator used to serialize tuples of a factored space into
#: single element labels.  No variable value may contain it.
SEP = "|"

#: Canonical label of the single element of the unit set.
UNIT_ELEMENT = "*"

#: Label of the identity generator every action model carries.
ID_LABEL = "id"

DEFAULT_MAX_TABLE = 1_000_000
MAX_TABLE_ENV = "CAUSAL_GROUND_MAX_TABLE"

# A word: generator labels, rightmost first.
Word = Sequence[str]


class CausalGroundError(Exception):
    """Base class for all errors raised by this package."""


class UnknownLabelError(CausalGroundError):
    """A word referenced a generator label the model does not have."""

    def __init__(self, label: str, known: Iterable[str]):
        self.label = label
        super().__init__(
            f"unknown generator label {label!r} (known: {', '.join(sorted(known))})"
        )


class UnknownVariableError(CausalGroundError):
    """A variable-subset argument referenced an id outside the factored space."""

    def __init__(self, var_id: str, known: Iterable[str]):
        self.var_id = var_id
        super().__init__(
            f"unknown variable id {var_id!r} (known: {', '.join(known)})"
        )


class MapTableError(ValueError):
    """A table that is not a total map.  ``element`` is the first domain
    element it misses, key outside the domain, or key sent outside the
    codomain."""

    def __init__(self, element: str, message: str):
        self.element = element
        super().__init__(message)


class EnumerationLimitError(CausalGroundError):
    """An operation would enumerate more table entries than allowed."""


def max_table_entries() -> int:
    """Current enumeration guardrail (override via CAUSAL_GROUND_MAX_TABLE)."""
    raw = os.environ.get(MAX_TABLE_ENV)
    if raw is None:
        return DEFAULT_MAX_TABLE
    try:
        value = int(raw)
    except ValueError:
        raise EnumerationLimitError(
            f"{MAX_TABLE_ENV} must be an integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise EnumerationLimitError(f"{MAX_TABLE_ENV} must be positive, got {value}")
    return value


def check_enumeration_bound(count: int, what: str) -> None:
    limit = max_table_entries()
    if count > limit:
        raise EnumerationLimitError(
            f"{what} would need {count} table entries, over the limit of {limit} "
            f"(raise via {MAX_TABLE_ENV} if this is intentional)"
        )


@dataclass(frozen=True)
class FiniteSet:
    """An explicit finite set: an id plus an ordered tuple of element labels.

    The element order is part of the set's identity; it fixes iteration
    order everywhere (deterministic reports) and the "first element" used
    to fill unconstrained witness entries.  The id is a display name for
    error messages only: equality is extensional (ordered elements), so a
    set loaded from a file compares equal to the set it was saved from.
    """

    id: str
    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError(f"finite set {self.id!r} must not be empty")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError(f"finite set {self.id!r} has duplicate elements")
        check_enumeration_bound(len(self.elements), f"finite set {self.id!r}")
        object.__setattr__(self, "_index", frozenset(self.elements))

    def __contains__(self, element: str) -> bool:
        return element in self._index  # type: ignore[attr-defined]

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, FiniteSet):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)


def unit_set() -> FiniteSet:
    """The one-object set, target of every empty projection."""
    return FiniteSet("1", (UNIT_ELEMENT,))


@dataclass(frozen=True, eq=False)
class TotalMap:
    """A function between finite sets stored as an explicit table.

    The table must define exactly one codomain element for every domain
    element.  Equality is table equality (plus matching domain/codomain),
    which is what every checker in this package ultimately reduces to.
    """

    domain: FiniteSet
    codomain: FiniteSet
    table: dict[str, str]

    def __post_init__(self):
        table = self.table
        name = f"map {self.domain.id!r} -> {self.codomain.id!r}"
        missing = [x for x in self.domain.elements if x not in table]
        if missing:
            x = missing[0]
            raise MapTableError(x, f"{name} is not total: missing entry for {x!r}")
        if len(table) != len(self.domain):
            x = next(x for x in table if x not in self.domain)
            raise MapTableError(x, f"{name} has an entry outside its domain: {x!r}")
        codomain = self.codomain._index  # type: ignore[attr-defined]
        for x, y in table.items():
            if y not in codomain:
                raise MapTableError(
                    x, f"{name} sends {x!r} to {y!r}, which is not in the codomain"
                )

    def __call__(self, element: str) -> str:
        return self.table[element]

    def __eq__(self, other):
        if not isinstance(other, TotalMap):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.table == other.table
        )

    __hash__ = None  # tables are dicts; maps are compared, never hashed

    def after(self, other: "TotalMap") -> "TotalMap":
        """Composite self . other (apply ``other`` first)."""
        if other.codomain != self.domain:
            raise ValueError(
                f"cannot compose: {other.domain.id!r}->{other.codomain.id!r} "
                f"then {self.domain.id!r}->{self.codomain.id!r}"
            )
        return TotalMap(
            other.domain,
            self.codomain,
            {x: self.table[y] for x, y in other.table.items()},
        )

    def image(self) -> list[str]:
        """Exact image, deduplicated, in codomain element order."""
        hit = set(self.table.values())
        return [y for y in self.codomain.elements if y in hit]

    def is_surjective(self) -> bool:
        return len(set(self.table.values())) == len(self.codomain)

    @classmethod
    def identity(cls, s: FiniteSet) -> "TotalMap":
        return cls(s, s, {x: x for x in s.elements})

    @classmethod
    def constant(cls, domain: FiniteSet, codomain: FiniteSet, value: str) -> "TotalMap":
        if value not in codomain:
            raise ValueError(f"constant value {value!r} not in {codomain.id!r}")
        return cls(domain, codomain, {x: value for x in domain.elements})


def join_values(values: Sequence[str]) -> str:
    """Canonical serialization of a tuple of variable values."""
    return SEP.join(values) if values else UNIT_ELEMENT


def split_values(element: str, arity: int) -> tuple[str, ...]:
    if arity == 0:
        return ()
    parts = tuple(element.split(SEP))
    if len(parts) != arity:
        raise ValueError(f"element {element!r} does not split into {arity} values")
    return parts


@dataclass(frozen=True, eq=False)
class FactoredSpace:
    """A product of named variable domains with all its projection maps.

    The total set enumerates every joint assignment (variable order is the
    declared order, values iterate in their domain order), serialized with
    the reserved separator.  Projections exist for every subset of the
    variables, including the empty subset whose target is the unit set.
    """

    variables: tuple[tuple[str, FiniteSet], ...]
    total: FiniteSet = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        ids = tuple(v for v, _ in self.variables)
        if len(set(ids)) != len(ids):
            raise ValueError("factored space has duplicate variable ids")
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_positions", {v: i for i, v in enumerate(ids)})
        object.__setattr__(self, "_subspaces", {})
        size = 1
        for var_id, dom in self.variables:
            for value in dom.elements:
                if SEP in value:
                    raise ValueError(
                        f"value {value!r} of variable {var_id!r} contains the "
                        f"reserved separator {SEP!r}"
                    )
            size *= len(dom)
        if not self.variables:
            object.__setattr__(self, "total", unit_set())
            return
        check_enumeration_bound(size, "factored space total set")
        elements = tuple(
            join_values(combo)
            for combo in product(*(dom.elements for _, dom in self.variables))
        )
        name = "x".join(ids)
        object.__setattr__(self, "total", FiniteSet(name, elements))

    def __eq__(self, other):
        if not isinstance(other, FactoredSpace):
            return NotImplemented
        return self.variables == other.variables

    __hash__ = None

    @property
    def var_ids(self) -> tuple[str, ...]:
        return self._ids  # type: ignore[attr-defined]

    def domain_of(self, var_id: str) -> FiniteSet:
        position = self._positions.get(var_id)  # type: ignore[attr-defined]
        if position is None:
            raise UnknownVariableError(var_id, self.var_ids)
        return self.variables[position][1]

    def normalize_vars(self, var_ids: Optional[Iterable[str]]) -> tuple[str, ...]:
        """Validate a variable subset and put it in canonical (declared) order."""
        if var_ids is None:
            return self.var_ids
        positions = self._positions  # type: ignore[attr-defined]
        wanted = set()
        for v in var_ids:
            if v not in positions:
                raise UnknownVariableError(v, self.var_ids)
            wanted.add(v)
        return tuple(v for v in self.var_ids if v in wanted)

    def subspace(self, var_ids: Iterable[str]) -> "FactoredSpace":
        """The space of a variable subset, built once per subset."""
        ids = self.normalize_vars(var_ids)
        if ids == self.var_ids:
            return self
        spaces = self._subspaces  # type: ignore[attr-defined]
        if ids not in spaces:
            spaces[ids] = FactoredSpace(tuple((v, self.domain_of(v)) for v in ids))
        return spaces[ids]

    def split(self, element: str) -> tuple[str, ...]:
        return split_values(element, len(self.variables))

    def project_element(self, element: str, var_ids: Iterable[str]) -> str:
        """Project a single total-set element onto a variable subset."""
        ids = self.normalize_vars(var_ids)
        values = self.split(element)
        positions = self._positions  # type: ignore[attr-defined]
        return join_values([values[positions[v]] for v in ids])

    def projection(self, var_ids: Iterable[str]) -> TotalMap:
        """The projection map from the total set onto a variable subset."""
        ids = self.normalize_vars(var_ids)
        table = {e: self.project_element(e, ids) for e in self.total.elements}
        return TotalMap(self.total, self.subspace(ids).total, table)

    @classmethod
    def from_set(cls, s: FiniteSet) -> "FactoredSpace":
        """Wrap a bare outcome set as a one-variable factored space."""
        return cls(((s.id, s),))


@dataclass(frozen=True, eq=False)
class ActionModel:
    """A state set, an outcome space, generator actions, and a process map.

    Generators are total maps from states to states; the process runs
    after all actions and records the outcome.  The identity generator
    ``id`` is always present (it is synthesized when not supplied).
    Outcomes may be given as a bare FiniteSet, which is wrapped as a
    one-variable factored space.
    """

    states: FiniteSet
    outcomes: FactoredSpace
    generators: dict[str, TotalMap]
    process: TotalMap

    def __post_init__(self):
        if isinstance(self.outcomes, FiniteSet):
            object.__setattr__(self, "outcomes", FactoredSpace.from_set(self.outcomes))
        gens = dict(self.generators)
        if ID_LABEL not in gens:
            gens[ID_LABEL] = TotalMap.identity(self.states)
        elif gens[ID_LABEL] != TotalMap.identity(self.states):
            raise ValueError(f"generator {ID_LABEL!r} must be the identity map")
        object.__setattr__(self, "generators", gens)
        for label, m in gens.items():
            if m.domain != self.states or m.codomain != self.states:
                raise ValueError(
                    f"generator {label!r} must map states to states, got "
                    f"{m.domain.id!r} -> {m.codomain.id!r}"
                )
        if self.process.domain != self.states:
            raise ValueError("process domain must be the state set")
        if self.process.codomain != self.outcomes.total:
            raise ValueError("process codomain must be the outcome set")

    def __eq__(self, other):
        if not isinstance(other, ActionModel):
            return NotImplemented
        return (
            self.states == other.states
            and self.outcomes == other.outcomes
            and self.generators == other.generators
            and self.process == other.process
        )

    __hash__ = None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.generators)

    @cached_property
    def _index(self) -> "_Index":
        """The integer coding the checkers run on, built on first use."""
        return _Index(self)

    def generator(self, label: str) -> TotalMap:
        try:
            return self.generators[label]
        except KeyError:
            raise UnknownLabelError(label, self.generators) from None


def _first_mismatch(a: list[int], b: list[int]) -> Optional[int]:
    """First position where two equally long code lists differ, or None."""
    if a == b:
        return None
    return next(x for x, (p, q) in enumerate(zip(a, b)) if p != q)


class _Index:
    """The integer coding of one model, which every checker runs on.

    A state is its position in ``states.elements``.  Each generator is a
    gather table: position of a state -> position of its image.  The
    process is one column per outcome variable, giving each state's value
    as a position in that variable's domain.  Composing a word is one
    gather per letter, and projecting onto a variable subset combines the
    subset's columns into a mixed-radix code.  Since the declared variable
    order fixes the product order, that code is the position of the
    projected element in ``outcomes.subspace(ids).total.elements``, so
    labels are looked up only where a result names them.

    Tables handed out (a generator's, a column) are shared: never mutate
    one.
    """

    def __init__(self, model: "ActionModel"):
        states = model.states.elements
        position = {x: i for i, x in enumerate(states)}
        self.generators = {
            label: [position[m.table[x]] for x in states]
            for label, m in model.generators.items()
        }
        space = model.outcomes
        process = model.process.table
        codes = [{v: k for k, v in enumerate(d.elements)} for _, d in space.variables]
        rows: dict[str, tuple[int, ...]] = {}  # each distinct outcome split once
        for y in process.values():
            if y not in rows:
                values = split_values(y, len(codes))
                rows[y] = tuple(code[v] for code, v in zip(codes, values))
        self.columns = dict(
            zip(space.var_ids, map(list, zip(*(rows[process[x]] for x in states))))
        )
        self.radices = {v: len(dom) for v, dom in space.variables}
        self.labels = states
        # Generators that permute the states: a word of them reaches all.
        self.onto = {a for a, g in self.generators.items() if len(set(g)) == len(g)}

    def compose(self, word: Word, table: Optional[list[int]] = None) -> list[int]:
        """The table of ``word`` acting after ``table`` (default: the
        identity), rightmost letter first."""
        try:
            maps = [self.generators[label] for label in word]
        except KeyError as exc:
            raise UnknownLabelError(exc.args[0], self.generators) from None
        for g in reversed(maps):
            table = g if table is None else [g[y] for y in table]
        return self.generators[ID_LABEL] if table is None else table

    def project(self, ids: tuple[str, ...], table: list[int]) -> list[int]:
        """Codes of project_ids . process . table, combined only at the
        states ``table`` lists."""
        if not ids:
            return [0] * len(table)
        column = self.columns[ids[0]]
        code = [column[y] for y in table]
        for v in ids[1:]:
            radix, column = self.radices[v], self.columns[v]
            code = [c * radix + column[y] for c, y in zip(code, table)]
        return code


class _Image:
    """The distinct states a context reaches, in first-occurrence order.

    ``table`` is the context composed once, on the states ``parent``
    reaches or else on every state; later checks compose, project and
    scan ``reached`` only.  Position k names the first state that reaches
    ``reached[k]``: the state a scan of every state reports.  A word of
    permutations keeps distinct states distinct, so it is its own
    ``reached``.
    """

    def __init__(self, index: _Index, word: Word, parent: Optional["_Image"] = None):
        self.index, self.parent = index, parent
        self.table = index.compose(word, None if parent is None else parent.reached)
        onto = all(a in index.onto for a in word)
        self.reached = self.table if onto else list(dict.fromkeys(self.table))

    def state(self, k: int) -> str:
        """The first state whose image under the context is ``reached[k]``."""
        x = self.table.index(self.reached[k])
        return self.index.labels[x] if self.parent is None else self.parent.state(x)


def compose(model: ActionModel, word: Word) -> TotalMap:
    """The state map of a word: rightmost label first, empty word = identity."""
    states = model.states.elements
    table = model._index.compose(word)
    return TotalMap(
        model.states, model.states, {x: states[y] for x, y in zip(states, table)}
    )


def outcome_map(
    model: ActionModel, word: Word = (), variables: Optional[Iterable[str]] = None
) -> TotalMap:
    """Outcome of a word on a variable subset: project . process . do(word).

    ``variables=None`` means all variables; the empty subset targets the
    unit set.  With an empty word and all variables this is the process
    itself.
    """
    space = model.outcomes
    ids = space.normalize_vars(variables)
    index = model._index
    codes = index.project(ids, index.compose(word))
    target = space.subspace(ids).total
    labels = target.elements
    table = {x: labels[c] for x, c in zip(model.states.elements, codes)}
    return TotalMap(model.states, target, table)
