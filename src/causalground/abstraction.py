"""Morphisms between action models and naturality checking.

A morphism carries a state map and an outcome map from a detailed (micro)
model into a simplified one, plus a generator-label translation.  The
morphism is natural (the abstraction is faithful) when every action
square and the process square commute, which is decided here by full
enumeration over the micro states.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

from .core import ActionModel, TotalMap, Word
from .core import compose  # noqa: F401  still bound here; bench/tracing.py patches it

#: How many naturality failures, and impossible outcomes, a report names.
_CAP = 20


@dataclass(frozen=True, eq=False)
class ModelMorphism:
    """A pair of maps relating two action models over a shared alphabet.

    ``state_map`` sends micro states to abstract states, ``outcome_map``
    micro outcomes to abstract outcomes.  ``alphabet_map`` translates
    generator labels; when omitted it defaults to the identity on the
    source's labels, each of which must then exist in the target.
    """

    source: ActionModel
    target: ActionModel
    state_map: TotalMap
    outcome_map: TotalMap
    alphabet_map: Optional[dict[str, str]] = None

    def __post_init__(self):
        if self.alphabet_map is None:
            object.__setattr__(
                self, "alphabet_map", {a: a for a in self.source.generators}
            )
        if self.state_map.domain != self.source.states:
            raise ValueError("state map domain must be the source state set")
        if self.state_map.codomain != self.target.states:
            raise ValueError("state map codomain must be the target state set")
        if self.outcome_map.domain != self.source.outcomes.total:
            raise ValueError("outcome map domain must be the source outcome set")
        if self.outcome_map.codomain != self.target.outcomes.total:
            raise ValueError("outcome map codomain must be the target outcome set")
        for a in self.source.generators:
            if a not in self.alphabet_map:
                raise ValueError(f"alphabet map does not cover generator {a!r}")
            b = self.alphabet_map[a]
            if b not in self.target.generators:
                raise ValueError(
                    f"alphabet map sends {a!r} to {b!r}, unknown in the target"
                )
        for a in sorted(self.alphabet_map.keys() - self.source.generators.keys()):
            raise ValueError(f"alphabet map key {a!r} is not a source generator")

    def translate(self, word: Word) -> tuple[str, ...]:
        return tuple(self.alphabet_map[a] for a in word)


@dataclass(frozen=True)
class SquareFailure:
    """One failing naturality square, evaluated at one micro state."""

    square: str  # "action" or "process"
    generator: Optional[str]
    state: str
    via_source: str
    via_target: str


@dataclass(frozen=True)
class NaturalityReport:
    natural: bool
    failures: tuple[SquareFailure, ...]
    failure_count: int
    truncated: bool


@dataclass(frozen=True)
class SurjectivityReport:
    """Which of the three structural maps are onto, and what y misses.

    A non-surjective outcome map is expected for disentangled variable
    choices; the joint assignments outside the image of
    outcome_map . process are the model's impossible outcomes.
    """

    process_surjective: bool
    state_map_surjective: bool
    outcome_map_surjective: bool
    possible_count: int
    impossible_count: int
    impossible_sample: tuple[str, ...]


def check_naturality(m: ModelMorphism) -> NaturalityReport:
    """Verify every generator square and the process square by enumeration.

    Every failure is counted and the first ``_CAP`` are named, rather
    than stopping at the first: the distribution of failures is what
    makes a broken abstraction debuggable.
    """
    failures: list[SquareFailure] = []
    count = 0
    x = m.state_map._codes
    states = m.source.states

    def square(kind, label, via_source: list[int], target: list[int], codomain):
        """Compare one square at every micro state, on positions; name
        the failures that fit under the cap."""
        nonlocal count
        via_target = [target[y] for y in x]
        if via_source == via_target:
            return
        bad = [s for s, (p, q) in enumerate(zip(via_source, via_target)) if p != q]
        count += len(bad)
        name = codomain.label
        for s in bad[: _CAP - len(failures)]:
            failures.append(SquareFailure(
                kind, label, states.label(s), name(via_source[s]), name(via_target[s])
            ))

    for a, f_src in m.source.generators.items():
        f_tgt = m.target.generators[m.alphabet_map[a]]
        square("action", a, [x[y] for y in f_src._codes], f_tgt._codes, m.target.states)
    y = m.outcome_map._codes
    via_source = [y[v] for v in m.source.process._codes]
    target = m.target
    square("process", None, via_source, target.process._codes, target.outcomes.total)
    return NaturalityReport(count == 0, tuple(failures), count, count > len(failures))


def check_surjectivity_assumptions(m: ModelMorphism) -> SurjectivityReport:
    """Report surjectivity of the process, state map, and outcome map.

    The impossible outcomes are the complement of the image of
    outcome_map . process in the target outcome set; they are counted on
    positions, and only the ones the report names are labelled.
    """
    y = m.outcome_map._codes
    realized = {y[v] for v in set(m.source.process._codes)}
    total = m.target.outcomes.total
    impossible = (k for k in range(len(total)) if k not in realized)
    return SurjectivityReport(
        process_surjective=m.source.process.is_surjective(),
        state_map_surjective=m.state_map.is_surjective(),
        outcome_map_surjective=m.outcome_map.is_surjective(),
        possible_count=len(realized),
        impossible_count=len(total) - len(realized),
        impossible_sample=tuple(map(total.label, islice(impossible, _CAP))),
    )


def compose_morphisms(outer: ModelMorphism, inner: ModelMorphism) -> ModelMorphism:
    """Composite morphism inner-then-outer (source of outer = target of inner)."""
    if inner.target != outer.source:
        raise ValueError("morphisms do not compose: inner target != outer source")
    return ModelMorphism(
        inner.source,
        outer.target,
        outer.state_map.after(inner.state_map),
        outer.outcome_map.after(inner.outcome_map),
        {a: outer.alphabet_map[b] for a, b in inner.alphabet_map.items()},
    )
