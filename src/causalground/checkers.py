"""Decision procedures over action models.

Each checker either certifies its property with a witness or refutes it
with a concrete counterexample naming model elements; every verdict is
re-checkable by table comparison.  All procedures are exhaustive scans
over the (finite) state set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Mapping, Optional, Sequence

from .core import (
    ActionModel,
    CausalGroundError,
    TotalMap,
    Word,
    _compose_table,
    _outcome_pair,
    _project_outcomes,
    _Projector,
    outcome_map,  # noqa: F401  still bound here; bench/tracing.py patches it
)


class BaseDeterminationError(CausalGroundError):
    """The determination a check builds on does not actually hold."""


class PreconditionError(CausalGroundError, ValueError):
    """A checker was called with arguments it cannot decide anything about.

    It subclasses ``ValueError`` too, so callers that catch ``ValueError``
    keep working.
    """


@dataclass(frozen=True)
class DeterminationResult:
    """Outcome of a determination check.

    When the determination holds, ``witness`` satisfies
    ``outcome_J = witness . outcome_I`` as tables; entries of Y_I that are
    never reached are filled with the first element of Y_J and the result
    is flagged non-unique.  When it fails, ``counterexample`` is a state
    pair with equal I-outcome but different J-outcomes.
    """

    holds: bool
    witness: Optional[TotalMap]
    unique: Optional[bool]
    counterexample: Optional[tuple[str, str]]


@dataclass(frozen=True)
class EffectivenessResult:
    effective: bool
    value: Optional[str]
    counterexample: Optional[tuple[str, str]]


@dataclass(frozen=True)
class InvarianceResult:
    holds: bool
    violating_state: Optional[str]
    expected: Optional[str]
    actual: Optional[str]


@dataclass(frozen=True)
class CommutationResult:
    holds: bool
    state: Optional[str]
    first_order: Optional[str]
    second_order: Optional[str]


@dataclass(frozen=True)
class MechanismRecord:
    """A determination that earned the name "mechanism" in a context.

    ``parents`` determine ``target`` via ``map`` for outcome words
    suffixed with ``context``; ``invariant_under`` lists the probe words
    (comma-joined labels) that preserved the determination when performed
    after the context, ``violated_by`` those that broke it, with a
    violating state each.
    """

    target: str
    parents: tuple[str, ...]
    map: TotalMap
    context: tuple[str, ...]
    invariant_under: tuple[str, ...]
    violated_by: tuple[tuple[str, str], ...]

    def describe(self) -> str:
        return f"{self.target}~({','.join(self.parents) or 'none'})"


@dataclass(frozen=True)
class SurgicalVerdict:
    """Verdict of a surgicality check against a reference mechanism set.

    Surgical means: the action breaks exactly one record, the broken
    record's target has a new unique determination in the new context, and
    every surviving record keeps all the invariances it was recorded
    with.  The fresh invariance profile of the new mechanism is probed and
    reported but deliberately kept out of the verdict.
    """

    surgical: bool
    target: Optional[str]
    broken: tuple[str, ...]
    survived: tuple[str, ...]
    new_mechanism: Optional[MechanismRecord]
    lost_invariances: tuple[tuple[str, str, str], ...]
    reasons: tuple[str, ...]


def _determination_violation(
    model: ActionModel,
    word: Word,
    vars_i: Iterable[str],
    vars_j: Iterable[str],
    witness: TotalMap,
) -> Optional[tuple[str, str, str]]:
    """First state where outcome_J != witness . outcome_I, or None."""
    oi, oj = _outcome_pair(model, word, vars_i, vars_j)
    for x in model.states.elements:
        expected = witness.table[oi[x]]
        actual = oj[x]
        if expected != actual:
            return x, expected, actual
    return None


def _scan_determination(
    model: ActionModel,
    ids_i: tuple[str, ...],
    ids_j: tuple[str, ...],
    table_i: Mapping[str, str],
    table_j: Mapping[str, str],
) -> DeterminationResult:
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
    unique = len(bound) == len(domain)
    return DeterminationResult(True, witness, unique, None)


def check_determination(
    model: ActionModel, word: Word, vars_i: Iterable[str], vars_j: Iterable[str]
) -> DeterminationResult:
    """Does the I-outcome of a word functionally determine its J-outcome?

    The candidate witness is built by binding f(outcome_I(x)) := outcome_J(x)
    state by state; a binding conflict refutes determination and yields the
    conflicting state pair.  Uniqueness of the witness is equivalent to
    outcome_I being surjective.
    """
    space = model.outcomes
    ids_i = space.normalize_vars(vars_i)
    ids_j = space.normalize_vars(vars_j)
    oi, oj = _outcome_pair(model, word, ids_i, ids_j)
    return _scan_determination(model, ids_i, ids_j, oi, oj)


def check_effectiveness(
    model: ActionModel,
    word: Word,
    vars_j: Iterable[str],
    context: Word = (),
) -> EffectivenessResult:
    """Is the word effective at setting the J-variables in a context?

    Effective means the outcome on J is one constant value over all of X
    after doing the context and then the word.
    """
    composite = tuple(word) + tuple(context)
    oj = _project_outcomes(model, _compose_table(model, composite), vars_j)
    states = model.states.elements
    first = states[0]
    value = oj[first]
    for x in states[1:]:
        if oj[x] != value:
            return EffectivenessResult(False, None, (first, x))
    return EffectivenessResult(True, value, None)


def check_invariance(
    model: ActionModel,
    base_word: Word,
    witness: TotalMap,
    vars_i: Iterable[str],
    vars_j: Iterable[str],
    later_word: Word,
) -> InvarianceResult:
    """Does a later action preserve an established determination?

    The base determination (via ``witness``, for ``base_word``) is
    verified first and its absence is an error, not a verdict.  The later
    word acts after the base word and before the process, so the composite
    word is later_word + base_word under the rightmost-first convention.
    """
    space = model.outcomes
    ids_i = space.normalize_vars(vars_i)
    ids_j = space.normalize_vars(vars_j)
    if witness.domain != space.subspace(ids_i).total:
        raise PreconditionError(
            "witness domain does not match the I-variable subspace"
        )
    if witness.codomain != space.subspace(ids_j).total:
        raise PreconditionError(
            "witness codomain does not match the J-variable subspace"
        )
    base = _determination_violation(model, base_word, ids_i, ids_j, witness)
    if base is not None:
        state, expected, actual = base
        raise BaseDeterminationError(
            f"base determination does not hold: at state {state!r} the witness "
            f"predicts {expected!r} but the outcome is {actual!r}"
        )
    composite = tuple(later_word) + tuple(base_word)
    hit = _determination_violation(model, composite, ids_i, ids_j, witness)
    if hit is None:
        return InvarianceResult(True, None, None, None)
    state, expected, actual = hit
    return InvarianceResult(False, state, expected, actual)


def _first_difference(
    model: ActionModel, first: Word, second: Word
) -> CommutationResult:
    """First state where the state maps of two words disagree, if any."""
    f = _compose_table(model, first)
    g = _compose_table(model, second)
    for x in model.states.elements:
        if f[x] != g[x]:
            return CommutationResult(False, x, f[x], g[x])
    return CommutationResult(True, None, None, None)


def check_commute(model: ActionModel, a: str, b: str) -> CommutationResult:
    """Do two generators commute (do(a)do(b) = do(b)do(a))?"""
    return _first_difference(model, (a, b), (b, a))


def check_overwrite(model: ActionModel, a: str, b: str) -> CommutationResult:
    """Does a overwrite b (do(a)do(b) = do(a))?"""
    return _first_difference(model, (a, b), (a,))


def _probe_words(model: ActionModel, depth: int) -> list[tuple[str, ...]]:
    labels = sorted(model.generators)
    words: list[tuple[str, ...]] = []
    for length in range(1, depth + 1):
        words.extend(product(labels, repeat=length))
    return words


def probe_record(
    model: ActionModel,
    target: str,
    parents: Iterable[str],
    witness: TotalMap,
    context: Word,
    probe_depth: int = 1,
) -> MechanismRecord:
    """Build a MechanismRecord by probing which actions preserve a determination.

    The determination must already hold in the context (error otherwise).
    Probes are words of generators performed after the context; the default
    depth 1 probes the primitive actions one at a time.
    """
    space = model.outcomes
    ids_i = space.normalize_vars(parents)
    ids_j = space.normalize_vars([target])
    base = _determination_violation(model, context, ids_i, ids_j, witness)
    if base is not None:
        state, expected, actual = base
        raise BaseDeterminationError(
            f"record for {target!r} is invalid: at state {state!r} the witness "
            f"predicts {expected!r} but the outcome is {actual!r}"
        )
    invariant: list[str] = []
    violated: list[tuple[str, str]] = []
    for word in _probe_words(model, probe_depth):
        hit = _determination_violation(
            model, word + tuple(context), ids_i, ids_j, witness
        )
        name = ",".join(word)
        if hit is None:
            invariant.append(name)
        else:
            violated.append((name, hit[0]))
    return MechanismRecord(
        target, ids_i, witness, tuple(context), tuple(invariant), tuple(violated)
    )


def _minimal_unique_determination(
    model: ActionModel,
    target: str,
    max_parents: int,
    full_table: Mapping[str, str],
) -> Optional[tuple[tuple[str, ...], TotalMap]]:
    """Smallest parent set uniquely determining the target for a word.

    Ties break lexicographically in variable order, smallest cardinality
    first, so results are reproducible.
    """
    space = model.outcomes
    others = [v for v in space.var_ids if v != target]
    project_j = _Projector(space, (target,))
    table_j = {x: project_j[y] for x, y in full_table.items()}
    for size in range(0, max_parents + 1):
        for parents in combinations(others, size):
            project_i = _Projector(space, parents)
            table_i = {x: project_i[y] for x, y in full_table.items()}
            result = _scan_determination(model, parents, (target,), table_i, table_j)
            if result.holds and result.unique:
                return parents, result.witness
    return None


def discover_mechanisms(
    model: ActionModel,
    context: Word,
    max_parents: int,
    probe_depth: int = 1,
) -> list[MechanismRecord]:
    """Search for mechanisms active in a context.

    For each variable, parent sets are enumerated in increasing size
    (lexicographic within a size) and the minimal one with a unique
    determination is kept; every generator is then probed for invariance.
    Variables with no unique determination within the parent budget yield
    no record.
    """
    if max_parents < 0:
        raise PreconditionError("max_parents must be non-negative")
    space = model.outcomes
    full = _project_outcomes(model, _compose_table(model, context), None)
    records = []
    for target in space.var_ids:
        found = _minimal_unique_determination(model, target, max_parents, full)
        if found is None:
            continue
        parents, witness = found
        records.append(
            probe_record(model, target, parents, witness, context, probe_depth)
        )
    return records


def check_surgical(
    model: ActionModel,
    action: str,
    mechanisms: Sequence[MechanismRecord],
    context: Word = (),
) -> SurgicalVerdict:
    """Is an action a surgical intervention relative to a mechanism set?

    Surgical requires, in the post-action context: exactly one record's
    determination broken; a new unique determination installed for the
    broken record's target; and every surviving record still invariant
    under everything in its recorded invariant_under list.  The new
    mechanism's own invariance profile is probed afresh and attached to
    the verdict for inspection without influencing it.
    """
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
        base = _determination_violation(
            model, ctx, record.parents, (record.target,), record.map
        )
        if base is not None:
            raise BaseDeterminationError(
                f"record {record.describe()} does not hold in its own context"
            )

    new_word = (action,) + ctx
    broken: list[MechanismRecord] = []
    survived: list[MechanismRecord] = []
    for record in mechanisms:
        hit = _determination_violation(
            model, new_word, record.parents, (record.target,), record.map
        )
        (broken if hit is not None else survived).append(record)

    reasons: list[str] = []
    if len(broken) != 1:
        reasons.append(f"{len(broken)} mechanisms invalidated, need exactly 1")

    target = broken[0].target if len(broken) == 1 else None
    new_record: Optional[MechanismRecord] = None
    if target is not None:
        full = _project_outcomes(model, _compose_table(model, new_word), None)
        found = _minimal_unique_determination(
            model, target, len(model.outcomes.var_ids) - 1, full
        )
        if found is None:
            reasons.append(
                f"no unique determination for {target!r} in the new context"
            )
        else:
            parents, witness = found
            new_record = probe_record(model, target, parents, witness, new_word)

    lost: list[tuple[str, str, str]] = []
    for record in survived:
        for probe in record.invariant_under:
            word = tuple(probe.split(",")) + new_word
            hit = _determination_violation(
                model, word, record.parents, (record.target,), record.map
            )
            if hit is not None:
                lost.append((record.describe(), probe, hit[0]))
    if lost:
        reasons.append("surviving mechanisms lost invariances in the new context")

    surgical = len(broken) == 1 and new_record is not None and not lost
    return SurgicalVerdict(
        surgical,
        target,
        tuple(r.describe() for r in broken),
        tuple(r.describe() for r in survived),
        new_record,
        tuple(lost),
        tuple(reasons),
    )
