"""Decision procedures over action models.

Each checker either certifies its property with a witness or refutes it
with a concrete counterexample naming model elements; every verdict is
re-checkable by table comparison.  All procedures are exhaustive scans
over the (finite) state set.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .core import (
    ActionModel,
    CausalGroundError,
    TotalMap,
    UNIT_ELEMENT,
    Word,
    _first_mismatch,
    _Image,
    check_enumeration_bound,
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


class _Prediction:
    """A witness for outcome_J = witness . outcome_I, checked on the states
    a context reaches.

    A witness not from the I- to the J-subspace raises ``PreconditionError``.
    ``predicted[c]`` is the J-code the witness gives I-code c; ``label`` names one.
    Whether a row breaks the witness depends on the row alone, so each row
    is judged once: ``judged`` holds the rows judged so far, ``bad`` the
    (predicted, actual) J-codes of those that break it.
    """

    def __init__(
        self,
        model: ActionModel,
        vars_i: Iterable[str],
        vars_j: Iterable[str],
        witness: TotalMap,
    ):
        space = model.outcomes
        self.ids_i = space.normalize_vars(vars_i)
        self.ids_j = space.normalize_vars(vars_j)
        domain = space.subspace(self.ids_i).total
        codomain = space.subspace(self.ids_j).total
        if witness.domain != domain:
            raise PreconditionError(
                "witness domain does not match the I-variable subspace"
            )
        if witness.codomain != codomain:
            raise PreconditionError(
                "witness codomain does not match the J-variable subspace"
            )
        self.witness = witness
        self.label = codomain.label
        self.predicted = witness._codes
        self.judged: set[int] = set()
        self.bad: dict[int, tuple[int, int]] = {}

    def violation(self, image: _Image, word: Word) -> Optional[tuple[str, str, str]]:
        """First (state, predicted, actual) where doing ``word`` after the
        context of ``image`` breaks the witness, or None.  Only rows not
        judged before are projected; the first reached state whose row is
        bad is the first state the scan of every distinct row would name."""
        codes = image.after(word)
        fresh = list(set(codes).difference(self.judged))
        if fresh:
            space = image.model.outcomes
            predicted = [self.predicted[c] for c in space._project(self.ids_i, fresh)]
            actual = space._project(self.ids_j, fresh)
            if predicted != actual:
                pairs = zip(fresh, predicted, actual)
                self.bad.update((c, (p, a)) for c, p, a in pairs if p != a)
            self.judged.update(fresh)
        bad = self.bad
        if not bad or bad.keys().isdisjoint(codes):
            return None
        k = next(k for k, c in enumerate(codes) if c in bad)
        predicted, actual = bad[codes[k]]
        return image.state(k), self.label(predicted), self.label(actual)

    def require(self, image: _Image, what: str) -> None:
        """Raise ``BaseDeterminationError`` opening with ``what`` unless
        the witness holds in the context of ``image``."""
        hit = self.violation(image, ())
        if hit is not None:
            state, expected, actual = hit
            raise BaseDeterminationError(
                f"{what}: at state {state!r} the witness predicts {expected!r} "
                f"but the outcome is {actual!r}"
            )


def _scan_determination(codes_i: list[int], codes_j: list[int]) -> tuple[dict, Optional[int]]:
    """Bind each I-code to the J-code of the first row that has it: the
    binding, and the first row it mispredicts, or None when I -> J holds."""
    bound = dict(zip(reversed(codes_i), reversed(codes_j)))
    return bound, _first_mismatch(list(map(bound.__getitem__, codes_i)), codes_j)


def _witness(
    model: ActionModel, ids_i: tuple[str, ...], ids_j: tuple[str, ...], bound: dict
) -> tuple[TotalMap, bool]:
    """The witness of a binding that holds, and whether it is unique: an
    I-code no row has goes to the first element of Y_J."""
    domain, codomain = (model.outcomes.subspace(ids).total for ids in (ids_i, ids_j))
    n = len(domain)
    if n > len(model.states):  # no longer than the state set: nothing to count
        check_enumeration_bound(n, "determination witness")
    witness = TotalMap._of(domain, codomain, [bound.get(c, 0) for c in range(n)])
    return witness, len(bound) == n


def check_determination(
    model: ActionModel, word: Word, vars_i: Iterable[str], vars_j: Iterable[str]
) -> DeterminationResult:
    """Does the I-outcome of a word functionally determine its J-outcome?

    The witness binds f(outcome_I(x)) := outcome_J(x) row by row; a binding
    conflict refutes determination and names the first row of the I-code
    and the conflicting row, each by the first state that has it.
    Uniqueness of the witness is equivalent to outcome_I being surjective.
    """
    space = model.outcomes
    ids_i, ids_j = space.normalize_vars(vars_i), space.normalize_vars(vars_j)
    image = _Image(model, word)
    codes_i, codes_j = (space._project(ids, image.rows) for ids in (ids_i, ids_j))
    bound, k = _scan_determination(codes_i, codes_j)
    if k is None:
        return DeterminationResult(True, *_witness(model, ids_i, ids_j, bound), None)
    pair = (image.row_state(codes_i.index(codes_i[k])), image.row_state(k))
    return DeterminationResult(False, None, None, pair)


def check_effectiveness(
    model: ActionModel,
    word: Word,
    vars_j: Iterable[str],
    context: Word = (),
) -> EffectivenessResult:
    """Is the word effective at setting the J-variables in a context?

    Effective means the outcome on J is one constant value over all of X
    after doing the context and then the word: the empty set determines J.
    """
    result = check_determination(model, tuple(word) + tuple(context), (), vars_j)
    if not result.holds:
        return EffectivenessResult(False, None, result.counterexample)
    return EffectivenessResult(True, result.witness(UNIT_ELEMENT), None)


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
    prediction = _Prediction(model, vars_i, vars_j, witness)
    image = _Image(model, base_word)
    prediction.require(image, "base determination does not hold")
    hit = prediction.violation(image, later_word)
    if hit is None:
        return InvarianceResult(True, None, None, None)
    state, expected, actual = hit
    return InvarianceResult(False, state, expected, actual)


def _first_difference(
    model: ActionModel, first: Word, second: Word
) -> CommutationResult:
    """First state where the state maps of two words disagree, if any."""
    f = model._compose(first)
    g = model._compose(second)
    x = _first_mismatch(f, g)
    if x is None:
        return CommutationResult(True, None, None, None)
    label = model.states.label
    return CommutationResult(False, label(x), label(f[x]), label(g[x]))


def check_commute(model: ActionModel, a: str, b: str) -> CommutationResult:
    """Do two generators commute (do(a)do(b) = do(b)do(a))?"""
    return _first_difference(model, (a, b), (b, a))


def check_overwrite(model: ActionModel, a: str, b: str) -> CommutationResult:
    """Does a overwrite b (do(a)do(b) = do(a))?"""
    return _first_difference(model, (a, b), (a,))


def _probe(prediction: _Prediction, image: _Image) -> MechanismRecord:
    """The record of a determination that holds in the context of
    ``image``: each generator, in label order, probed once after it."""
    labels = sorted(image.model.generators)
    hits = [prediction.violation(image, (a,)) for a in labels]
    return MechanismRecord(
        prediction.ids_j[0],
        prediction.ids_i,
        prediction.witness,
        image.word,
        tuple(a for a, hit in zip(labels, hits) if hit is None),
        tuple((a, hit[0]) for a, hit in zip(labels, hits) if hit is not None),
    )


def probe_record(
    model: ActionModel,
    target: str,
    parents: Iterable[str],
    witness: TotalMap,
    context: Word,
) -> MechanismRecord:
    """Build a MechanismRecord by probing which actions preserve a determination.

    The determination must already hold in the context (error otherwise).
    Each generator is probed once, performed after the context.
    """
    prediction = _Prediction(model, parents, [target], witness)
    image = _Image(model, context)
    prediction.require(image, f"record for {target!r} is invalid")
    return _probe(prediction, image)


def _holds(model: ActionModel, record: MechanismRecord) -> _Prediction:
    """The prediction of a record, required in the record's own context.  A
    map off the record's subspaces is a ``PreconditionError`` naming it."""
    name = record.describe()
    try:
        prediction = _Prediction(model, record.parents, (record.target,), record.map)
    except PreconditionError as exc:
        raise PreconditionError(f"record {name}: {exc}") from None
    image = _Image(model, record.context)
    prediction.require(image, f"record {name} does not hold in its own context")
    return prediction


def _minimal_mechanism(
    image: _Image, target: str, max_parents: int
) -> Optional[MechanismRecord]:
    """The probed record of the smallest parent set uniquely determining
    the target in the context of ``image``, or None.

    Ties break lexicographically in variable order, smallest cardinality
    first, so results are reproducible.
    """
    model, space = image.model, image.model.outcomes
    others = [v for v in space.var_ids if v != target]
    codes_j = space._project((target,), image.rows)
    for size in range(min(max_parents, len(others)) + 1):
        for parents in combinations(others, size):
            # Unique (TANE's |pi(I)| = |Y_I|): the rows reach every I-code,
            # so a candidate with more I-codes than rows is never scanned.
            n = space._count(parents)
            if n > len(image.rows):
                continue
            bound, k = _scan_determination(space._project(parents, image.rows), codes_j)
            if k is None and len(bound) == n:
                witness, _ = _witness(model, parents, (target,), bound)
                return _probe(_Prediction(model, parents, (target,), witness), image)
    return None


def discover_mechanisms(
    model: ActionModel,
    context: Word,
    max_parents: int,
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
    image = _Image(model, context)
    found = (_minimal_mechanism(image, v, max_parents) for v in model.outcomes.var_ids)
    return [record for record in found if record is not None]


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
    image = _Image(model, context)
    predictions = []
    for record in mechanisms:
        name = record.describe()
        if record.context != image.word:
            raise PreconditionError(
                f"record {name} was built in context {record.context!r}, not {image.word!r}"
            )
        predictions.append(_holds(model, record))

    new_image = _Image(model, (action,) + image.word)
    broken: list[MechanismRecord] = []
    survived: list[tuple[MechanismRecord, _Prediction]] = []
    for record, prediction in zip(mechanisms, predictions):
        if prediction.violation(new_image, ()) is not None:
            broken.append(record)
        else:
            survived.append((record, prediction))

    reasons: list[str] = []
    if len(broken) != 1:
        reasons.append(f"{len(broken)} mechanisms invalidated, need exactly 1")

    target = broken[0].target if len(broken) == 1 else None
    new_record: Optional[MechanismRecord] = None
    if target is not None:
        new_record = _minimal_mechanism(new_image, target, len(model.outcomes.var_ids) - 1)
        if new_record is None:
            reasons.append(
                f"no unique determination for {target!r} in the new context"
            )

    lost: list[tuple[str, str, str]] = []
    for record, prediction in survived:
        for probe in record.invariant_under:
            hit = prediction.violation(new_image, probe.split(","))
            if hit is not None:
                lost.append((record.describe(), probe, hit[0]))
    if lost:
        reasons.append("surviving mechanisms lost invariances in the new context")

    surgical = len(broken) == 1 and new_record is not None and not lost
    return SurgicalVerdict(
        surgical,
        target,
        tuple(r.describe() for r in broken),
        tuple(r.describe() for r, _ in survived),
        new_record,
        tuple(lost),
        tuple(reasons),
    )
