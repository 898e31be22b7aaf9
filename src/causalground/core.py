"""Finite sets, total maps, factored outcome spaces, and action models.

Everything here is exact and exhaustively enumerable: sets carry explicit
ordered element lists, maps carry positions (their label table is a view
built on first read), and map equality is position equality.  A set names
its k-th element by ``label(k)`` and finds one by ``position(x)``.  Nothing
changes after construction but caches that never change a result: a
model's image of its last context and a space's subspaces, declared
``init=False, compare=False`` (``replace`` starts them empty, ``==`` skips
them), and the labels of a space's ``total``, built on first read.

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
from math import prod
from operator import itemgetter, methodcaller
from typing import Callable, Iterable, Optional, Sequence

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


@dataclass(frozen=True, eq=False)
class FiniteSet:
    """An explicit finite set: an id plus an ordered tuple of element labels.

    The element order is part of the set's identity; it fixes iteration
    order everywhere (deterministic reports) and the "first element" used
    to fill unconstrained witness entries.  The id is a display name for
    error messages only: equality is extensional (ordered elements), so a
    set loaded from a file compares equal to the set it was saved from.
    """

    id: str = field(compare=False)
    elements: tuple[str, ...]
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)
    #: The position of an element, or None for anything else: the inverse of ``label``.
    position: Callable[[str], Optional[int]] = field(init=False, repr=False, compare=False)

    domains = None  # a product's factors

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ValueError(f"finite set {self.id!r} must not be empty")
        positions = {x: k for k, x in enumerate(self.elements)}
        if len(positions) != len(self.elements):
            raise ValueError(f"finite set {self.id!r} has duplicate elements")
        check_enumeration_bound(len(self.elements), f"finite set {self.id!r}")
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "position", positions.get)  # one C-level lookup

    def __eq__(self, other) -> bool:
        """Equal labels in equal order.  Two products of one label rule
        compare by their domains, any other pair with a product label by
        label: comparing never builds a product's labels."""
        if self is other:
            return True
        if not isinstance(other, FiniteSet):
            return NotImplemented
        if len(self) != len(other):
            return False
        if type(self) is type(other):  # one label rule: products compare their domains
            return (self.domains or self.elements) == (other.domains or other.elements)
        return all(self.label(k) == other.label(k) for k in range(len(self)))

    def __hash__(self) -> int:  # equal sets share these three
        return hash((len(self), self.label(0), self.label(len(self) - 1)))

    def __contains__(self, element: str) -> bool:
        return self.position(element) is not None

    def __len__(self) -> int:
        return len(self.elements)

    def label(self, k: int) -> str:
        """The element at position ``k``."""
        return self.elements[k]


class _Product(FiniteSet):
    """The product of domains.  Its layout table, built here, holds each
    domain's (domain, stride, radix), the last fastest: value i of position
    k is ``k // stride % radix`` of the i-th entry, and ``_join`` (inverse
    ``_split``) joins values with ``SEP``.  A view: ``label`` and
    ``position`` work value by value, and its elements are built on first
    read, where the enumeration limit applies."""

    _join, _split = SEP.join, methodcaller("split", SEP)  # the label rule and its inverse

    def __init__(self, id: str, domains: Sequence[FiniteSet]):
        strides = [prod(map(len, domains[i + 1:])) for i in range(len(domains))]
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "_layout", tuple(zip(domains, strides, map(len, domains))))
        object.__setattr__(self, "domains", tuple(domains))

    @cached_property
    def elements(self) -> tuple[str, ...]:
        check_enumeration_bound(len(self), f"finite set {self.id!r}")
        return tuple(map(self._join, product(*(d.elements for d in self.domains))))

    def __len__(self) -> int:
        _, stride, radix = self._layout[0]  # the first variable is the slowest
        return stride * radix

    def __repr__(self) -> str:  # names the factors: no labels are built
        return f"{type(self).__name__}(id={self.id!r}, domains={self.domains!r})"

    def label(self, k: int) -> str:
        return self._join([dom.elements[k // s % r] for dom, s, r in self._layout])

    def position(self, element: str) -> Optional[int]:
        values = self._split(element) if isinstance(element, str) else ()
        if len(values) != len(self._layout):
            return None
        k = 0
        for (dom, stride, _), value in zip(self._layout, values):
            r = dom.position(value)
            if r is None:
                return None
            k += r * stride
        return k


def unit_set() -> FiniteSet:
    """The one-object set, target of every empty projection."""
    return FiniteSet("1", (UNIT_ELEMENT,))


def _gather(table: dict, keys: tuple) -> tuple:
    """``table[k]`` for each of at least one key, in order, in one C-level pass."""
    values = itemgetter(*keys)(table)
    return values if len(keys) > 1 else (values,)  # one key: the bare value


@dataclass(init=False, repr=False)
class TotalMap:
    """A function between finite sets, stored as the codomain position of
    each domain element, in domain order.

    ``TotalMap(domain, codomain, table)`` validates a label table, which
    must define exactly one codomain element for every domain element.
    Maps the library computes itself are built from positions and not
    validated again.  Only positions are kept: ``table`` is the label
    view, built from them on first use.  Equality is position equality
    (plus matching domain/codomain), to which every checker here reduces.
    Maps are not changed after construction: never mutate ``table``.
    """

    domain: FiniteSet
    codomain: FiniteSet
    _codes: list[int]
    _table: Optional[dict[str, str]] = field(compare=False)

    def __init__(self, domain: FiniteSet, codomain: FiniteSet, table: dict[str, str]):
        self.domain, self.codomain, self._table = domain, codomain, table
        self.__post_init__()

    def __post_init__(self):
        table, elements, codomain = self._table, self.domain.elements, self.codomain
        self._table = None
        try:
            self._codes = list(map(codomain.position, _gather(table, elements)))
            if len(table) == len(elements) and None not in self._codes:
                return
        except (KeyError, TypeError):
            pass
        name = f"map {self.domain.id!r} -> {self.codomain.id!r}"
        x = next((x for x in elements if x not in table), None)
        if x is not None:
            raise MapTableError(x, f"{name} is not total: missing entry for {x!r}")
        if len(table) != len(elements):
            x = next(x for x in table if x not in self.domain)
            raise MapTableError(x, f"{name} has an entry outside its domain: {x!r}")
        x, y = next((x, y) for x, y in table.items() if y not in codomain)
        raise MapTableError(
            x, f"{name} sends {x!r} to {y!r}, which is not in the codomain"
        )

    @classmethod
    def _of(cls, domain: FiniteSet, codomain: FiniteSet, codes: list[int]) -> "TotalMap":
        """The map with trusted codomain positions ``codes``: not validated."""
        m = cls.__new__(cls)
        m.domain, m.codomain, m._codes, m._table = domain, codomain, codes, None
        return m

    @property
    def table(self) -> dict[str, str]:
        if self._table is None:
            label = self.codomain.label
            self._table = {x: label(c) for x, c in zip(self.domain.elements, self._codes)}
        return self._table

    def __call__(self, element: str) -> str:
        k = self.domain.position(element)
        if k is None:
            raise KeyError(element)
        return self.codomain.label(self._codes[k])

    def after(self, other: "TotalMap") -> "TotalMap":
        """Composite self . other (apply ``other`` first)."""
        if other.codomain != self.domain:
            raise ValueError(
                f"cannot compose: {other.domain.id!r}->{other.codomain.id!r} "
                f"then {self.domain.id!r}->{self.codomain.id!r}"
            )
        codes = self._codes
        return TotalMap._of(other.domain, self.codomain, [codes[y] for y in other._codes])

    def image(self) -> list[str]:
        """Exact image, deduplicated, in codomain element order."""
        return list(map(self.codomain.label, sorted(set(self._codes))))

    def is_surjective(self) -> bool:
        return len(set(self._codes)) == len(self.codomain)

    @classmethod
    def identity(cls, s: FiniteSet) -> "TotalMap":
        return cls._of(s, s, list(range(len(s))))

    @classmethod
    def constant(cls, domain: FiniteSet, codomain: FiniteSet, value: str) -> "TotalMap":
        k = codomain.position(value)
        if k is None:
            raise ValueError(f"constant value {value!r} not in {codomain.id!r}")
        return cls._of(domain, codomain, [k] * len(domain))


@dataclass(frozen=True)
class FactoredSpace:
    """A product of named variable domains with all its projection maps.

    The total set is every joint assignment (variable order is the
    declared order, values iterate in their domain order), serialized with
    the reserved separator; it is a view whose labels are built on first
    read; ``_layout`` is its layout table by variable id.  Projections
    exist for every subset of the variables, including the empty subset
    whose target is the unit set.
    """

    variables: tuple[tuple[str, FiniteSet], ...]
    total: FiniteSet = field(init=False, compare=False)
    var_ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _layout: dict[str, tuple] = field(init=False, repr=False, compare=False)
    _subspaces: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    __hash__ = None

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        ids = [v for v, _ in self.variables]
        if len(set(ids)) != len(ids):
            raise ValueError("factored space has duplicate variable ids")
        for var_id, dom in self.variables:
            for value in dom.elements:
                if SEP in value:
                    raise ValueError(
                        f"value {value!r} of variable {var_id!r} contains the "
                        f"reserved separator {SEP!r}"
                    )
        total = _Product("x".join(ids), [d for _, d in self.variables]) if ids else unit_set()
        object.__setattr__(self, "_layout", dict(zip(ids, total._layout)) if ids else {})
        object.__setattr__(self, "var_ids", tuple(ids))
        object.__setattr__(self, "total", total)

    def domain_of(self, var_id: str) -> FiniteSet:
        entry = self._layout.get(var_id)
        if entry is None:
            raise UnknownVariableError(var_id, self.var_ids)
        return entry[0]

    def normalize_vars(self, var_ids: Optional[Iterable[str]]) -> tuple[str, ...]:
        """Validate a variable subset and put it in canonical (declared) order."""
        if var_ids is None:
            return self.var_ids
        wanted = set()
        for v in var_ids:
            if v not in self._layout:
                raise UnknownVariableError(v, self.var_ids)
            wanted.add(v)
        return tuple(v for v in self.var_ids if v in wanted)

    def subspace(self, var_ids: Iterable[str]) -> "FactoredSpace":
        """The space of a variable subset, built once per subset."""
        ids = self.normalize_vars(var_ids)
        if ids == self.var_ids:
            return self
        spaces = self._subspaces
        if ids not in spaces:
            spaces[ids] = FactoredSpace(tuple((v, self.domain_of(v)) for v in ids))
        return spaces[ids]

    def _count(self, ids: Iterable[str]) -> int:
        """``len(subspace(ids).total)`` for known ``ids``, read off the layout."""
        return prod(self._layout[v][2] for v in ids)

    def project_element(self, element: str, var_ids: Iterable[str]) -> str:
        """Project a single total-set element onto a variable subset."""
        ids = self.normalize_vars(var_ids)
        k = self.total.position(element)
        if k is None:
            raise ValueError(f"{element!r} is not an element of {self.total.id!r}")
        return self.subspace(ids).total.label(self._project(ids, [k])[0])

    def _columns(self) -> dict[str, list[str]]:
        """Each variable's value at every element of ``total``, the last
        variable fastest, as ``total`` enumerates the product.  Fresh lists,
        each as long as ``total``: the enumeration limit applies here."""
        check_enumeration_bound(len(self.total), "factored space total set")
        columns = {}
        for var_id, (dom, stride, radix) in self._layout.items():
            columns[var_id] = column = [x for x in dom.elements for _ in range(stride)]
            column *= len(self.total) // (stride * radix)  # in place: no second list
        return columns

    def _code(self, columns: Sequence[Sequence[str]]) -> list[int]:
        """The position in ``total`` of each element given as one value
        column per variable, in declared order (no column: the one position,
        0).  A value outside its domain raises KeyError."""
        codes = [0] * (len(columns[0]) if columns else 1)
        for (dom, stride, radix), column in zip(self._layout.values(), columns):
            if radix == 1:  # the pass would add 0 to every code: only check
                only = dom.elements[0]
                if column.count(only) != len(column):
                    raise KeyError(next(x for x in column if x != only))
                continue
            positions = dom._positions
            codes = [c + positions[x] * stride for c, x in zip(codes, column)]
        return codes

    def _project(self, ids: tuple[str, ...], codes: Sequence[int]) -> list[int]:
        """The position in ``subspace(ids).total`` of each position of
        ``total`` in ``codes``; ``ids`` are in declared order."""
        projected = [0] * len(codes)
        for v in ids:
            _, stride, radix = self._layout[v]
            projected = [p * radix + c // stride % radix for p, c in zip(projected, codes)]
        return projected


@dataclass(frozen=True)
class ActionModel:
    """A state set, an outcome space, generator actions, and a process map.

    Generators are total maps from states to states; the process runs
    after all actions and records the outcome.  The identity generator
    ``id`` is always present (it is synthesized when not supplied).
    """

    states: FiniteSet
    outcomes: FactoredSpace
    generators: dict[str, TotalMap]
    process: TotalMap
    _last_image: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    __hash__ = None

    def __post_init__(self):
        gens = dict(self.generators)
        if ID_LABEL not in gens:
            gens[ID_LABEL] = TotalMap.identity(self.states)
        elif gens[ID_LABEL] != TotalMap.identity(self.states):
            raise ValueError(f"generator {ID_LABEL!r} must be the identity map")
        object.__setattr__(self, "generators", gens)
        for label, m in gens.items():
            if "," in label:  # words are written comma-joined
                raise ValueError(f"generator label {label!r} must not contain ','")
            if m.domain != self.states or m.codomain != self.states:
                raise ValueError(
                    f"generator {label!r} must map states to states, got "
                    f"{m.domain.id!r} -> {m.codomain.id!r}"
                )
        if self.process.domain != self.states:
            raise ValueError("process domain must be the state set")
        if self.process.codomain != self.outcomes.total:
            raise ValueError("process codomain must be the outcome set")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.generators)

    def generator(self, label: str) -> TotalMap:
        try:
            return self.generators[label]
        except KeyError:
            raise UnknownLabelError(label, self.generators) from None

    # The checkers run on positions.  A word's table is one gather per
    # letter; an outcome check decides on rows, the process positions of
    # the states it reaches.  Tables handed out are shared: never mutate one.

    def _compose(self, word: Word, table: Optional[list[int]] = None) -> list[int]:
        """The table of ``word`` acting after ``table`` (default: the
        identity), rightmost letter first."""
        try:
            maps = [self.generators[label]._codes for label in word]
        except KeyError as exc:
            raise UnknownLabelError(exc.args[0], self.generators) from None
        for g in reversed(maps):
            table = g if table is None else [g[y] for y in table]
        return self.generators[ID_LABEL]._codes if table is None else table


def _first_mismatch(a: list[int], b: list[int]) -> Optional[int]:
    """First position where two equally long code lists differ, or None."""
    if a == b:
        return None
    return next(x for x, (p, q) in enumerate(zip(a, b)) if p != q)


def _rows(model: ActionModel, table: list[int]) -> tuple[list[int], list[int]]:
    """The row of each state in ``table``, and the distinct ones in order."""
    codes = list(map(model.process._codes.__getitem__, table))
    return codes, list(dict.fromkeys(codes))


class _Image:
    """The context ``word`` and the distinct states it reaches, and their
    rows, in first-occurrence order.

    ``table`` is the context composed on every state; ``after``, the only
    code that composes a later word after a context, composes it on
    ``reached`` only.  ``codes`` is the row of each reached state, and an
    outcome check scans the distinct ``rows`` only.
    Position k names the first state that reaches ``reached[k]``, as a
    scan of every state does.  The model keeps the lists of the last
    context it was imaged in, so consecutive checks in one context
    compose it once.
    """

    def __init__(self, model: ActionModel, word: Word):
        self.model, word = model, tuple(word)
        last = model._last_image
        if last is None or last[0] != word:
            table = model._compose(word)
            reached = list(dict.fromkeys(table))
            last = (word, table, reached, *_rows(model, reached))
            object.__setattr__(model, "_last_image", last)
        self.word, self.table, self.reached, self.codes, self.rows = last

    def after(self, word: Word) -> list[int]:
        """The row of each reached state once ``word`` acts after the
        context."""
        if not word:
            return self.codes
        process = self.model.process._codes
        return [process[y] for y in self.model._compose(word, self.reached)]

    def state(self, k: int) -> str:
        """The first state whose image under the context is ``reached[k]``."""
        return self.model.states.label(self.table.index(self.reached[k]))

    def row_state(self, r: int) -> str:
        """The first state whose row under the context is ``rows[r]``."""
        return self.state(self.codes.index(self.rows[r]))


def compose(model: ActionModel, word: Word) -> TotalMap:
    """The state map of a word: rightmost label first, empty word = identity."""
    return TotalMap._of(model.states, model.states, model._compose(word))


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
    codes, rows = _rows(model, model._compose(word))
    projected = dict(zip(rows, space._project(ids, rows)))
    codes = [projected[c] for c in codes]
    return TotalMap._of(model.states, space.subspace(ids).total, codes)
