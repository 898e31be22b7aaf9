"""Metamorphic relations of the checkers, on small random models.

Each relation is a law any correct engine obeys, whatever its internal
representation: renaming states (order kept) renames every result,
adding an alias generator or reordering the generators keeps every
result on the old labels, determination is monotone in I and antitone
in J, the later word ``id`` keeps every determination, images shrink as
a word grows on the right, and the identity morphism and composites of
natural morphisms are natural.  Each relation is a plain function, run by
hypothesis on generated models (at most 40 states and 4 variables); the
kernel relations also run, in ``test_kernel_mutant_is_caught``, on
seeded models under each kernel mutant of ``mutants``.  One relation of
the kernel's context images, which every checker after a context relies
on, runs on seeded models only.
"""

import dataclasses
import random
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from causalground.abstraction import (  # noqa: E402
    ModelMorphism,
    check_naturality,
    compose_morphisms,
)
from causalground.checkers import (  # noqa: E402
    check_commute,
    check_determination,
    check_effectiveness,
    check_invariance,
    check_overwrite,
    check_surgical,
    discover_mechanisms,
)
from causalground.core import (  # noqa: E402
    ID_LABEL,
    CausalGroundError,
    ActionModel,
    FactoredSpace,
    FiniteSet,
    TotalMap,
    _Image,
    outcome_map,
)
from causalground.scm import encode_scm, random_scm, verify_scm_laws  # noqa: E402
from mutants import MUTANTS  # noqa: E402
from oracles import (  # noqa: E402
    all_subset_pairs,
    assert_kernel_agrees,
    assert_labels_decode,
    assert_positions_invert_labels,
    assert_responses_read_off,
    random_action_model,
    random_word,
    reference_encode_scm,
)

SETTINGS = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@st.composite
def models(draw) -> ActionModel:
    """A model of 1-40 states, 1-4 variables of 1-3 values, whose process
    uses a few outcomes and whose 1-3 generators have small images, so
    that determinations and constant outcomes are common."""
    n_states = draw(st.integers(1, 40))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    n_outcomes = draw(st.integers(1, 6))
    n_generators = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    states = FiniteSet("X", tuple(f"x{i}" for i in range(n_states)))
    space = FactoredSpace(tuple(
        (f"v{k}", FiniteSet(f"v{k}", tuple(str(c) for c in range(size))))
        for k, size in enumerate(sizes)
    ))
    pool = [rng.choice(space.total.elements) for _ in range(n_outcomes)]
    process = TotalMap(
        states, space.total, {x: rng.choice(pool) for x in states.elements}
    )
    generators = {}
    for g in range(n_generators):
        image = rng.sample(states.elements, rng.randint(1, n_states))
        generators[f"g{g}"] = TotalMap(
            states, states, {x: rng.choice(image) for x in states.elements}
        )
    return ActionModel(states, space, generators, process)


def words(model: ActionModel, max_size: int = 3):
    return st.lists(
        st.sampled_from(sorted(model.generators)), max_size=max_size
    ).map(tuple)


# --- the relations -----------------------------------------------------------


def renamed(model: ActionModel, names: dict) -> ActionModel:
    """The model with every state x relabelled names[x], order kept."""
    states = FiniteSet("R", tuple(names[x] for x in model.states.elements))

    def rename_map(m: TotalMap) -> TotalMap:
        return TotalMap(states, states, {names[x]: names[y] for x, y in m.table.items()})

    return ActionModel(
        states,
        model.outcomes,
        {label: rename_map(m) for label, m in model.generators.items()},
        TotalMap(
            states,
            model.outcomes.total,
            {names[x]: y for x, y in model.process.table.items()},
        ),
    )


def rename(value, names: dict):
    """A result with every state label in it renamed; maps over outcomes
    (witnesses) are left as they are."""
    if isinstance(value, str):
        return names.get(value, value)
    if isinstance(value, (tuple, list)):
        return type(value)(rename(v, names) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, TotalMap):
        return dataclasses.replace(value, **{
            f.name: rename(getattr(value, f.name), names)
            for f in dataclasses.fields(value)
        })
    return value


def assert_renaming_renames(model: ActionModel, word, later, pairs) -> None:
    """Checkers on the renamed model give the renamed results.  The new
    labels sort in the reverse of state order, so a kernel that orders
    states by label would show."""
    n = len(model.states)
    names = {x: f"s{n - i:02d}" for i, x in enumerate(model.states.elements)}
    other = renamed(model, names)

    def same(check, *args):
        assert check(other, *args) == rename(check(model, *args), names), args

    labels = sorted(model.generators)
    for vars_i, vars_j in pairs:
        same(check_determination, word, vars_i, vars_j)
        same(check_effectiveness, later, vars_j, word)
        result = check_determination(model, word, vars_i, vars_j)
        if result.holds:
            same(check_invariance, word, result.witness, vars_i, vars_j, later)
    for a in labels:
        for b in labels:
            same(check_commute, a, b)
    max_parents = len(model.outcomes.var_ids)
    same(discover_mechanisms, word, max_parents)
    records = discover_mechanisms(model, word, max_parents)
    if records:
        for action in labels:
            same(check_surgical, action, records, word)


def with_generators(model: ActionModel, generators: dict) -> ActionModel:
    return ActionModel(model.states, model.outcomes, generators, model.process)


def assert_alias_and_reorder_keep_results(
    model: ActionModel, aliased: str, word, later, pairs
) -> None:
    """Adding an alias of generator ``aliased``, or reversing the order of
    the generator dict, keeps every result on the old labels; the reversal
    also keeps discovery, whose probes run in label order."""
    labels = sorted(model.generators)
    alias = {**model.generators, labels[-1] + "'": model.generators[aliased]}
    reordered = with_generators(model, dict(reversed(model.generators.items())))
    for other in (with_generators(model, alias), reordered):

        def same(check, *args):
            assert check(other, *args) == check(model, *args), (check.__name__, args)

        for vars_i, vars_j in pairs:
            same(check_determination, word, vars_i, vars_j)
            same(check_effectiveness, later, vars_j, word)
            result = check_determination(model, word, vars_i, vars_j)
            if result.holds:
                same(check_invariance, word, result.witness, vars_i, vars_j, later)
        for a in labels:
            for b in labels:
                same(check_commute, a, b)
                same(check_overwrite, a, b)
    max_parents = len(model.outcomes.var_ids)
    assert discover_mechanisms(reordered, word, max_parents) == discover_mechanisms(
        model, word, max_parents
    )


def relabelling(model: ActionModel, prefix: str) -> ModelMorphism:
    """The isomorphism onto a copy of the model whose states and generator
    labels carry ``prefix``; it is natural by construction."""
    names = {x: prefix + x for x in model.states.elements}
    other = renamed(model, names)
    generators = {prefix + a: m for a, m in other.generators.items()}
    return ModelMorphism(
        model,
        with_generators(other, generators),
        TotalMap(model.states, other.states, names),
        TotalMap.identity(model.outcomes.total),
        {a: prefix + a for a in model.generators},
    )


def assert_morphisms_compose_naturally(model: ActionModel) -> None:
    """The identity morphism is natural, and so is the composite of two
    natural morphisms."""
    states, outcomes = model.states, model.outcomes.total
    identity = ModelMorphism(
        model, model, TotalMap.identity(states), TotalMap.identity(outcomes)
    )
    assert check_naturality(identity).natural
    inner = relabelling(model, "a")
    outer = relabelling(inner.target, "b")
    assert check_naturality(inner).natural and check_naturality(outer).natural
    assert check_naturality(compose_morphisms(outer, inner)).natural


def assert_determination_monotone(model: ActionModel, word) -> None:
    """If I -> J holds, so do I u K -> J and I -> J' for every J' in J."""
    pairs = all_subset_pairs(model.outcomes.var_ids)
    holds = {
        (frozenset(i), frozenset(j)): check_determination(model, word, i, j).holds
        for i, j in pairs
    }
    for (i, j), ok in holds.items():
        if not ok:
            continue
        for (k, l), other in holds.items():
            if (k >= i and l == j) or (k == i and l <= j):
                assert other, f"{set(i)} -> {set(j)} holds, {set(k)} -> {set(l)} not"


def assert_id_keeps_invariance(model: ActionModel, word) -> None:
    """A holding determination is invariant under the later word ``id``."""
    for vars_i, vars_j in all_subset_pairs(model.outcomes.var_ids):
        result = check_determination(model, word, vars_i, vars_j)
        if result.holds:
            assert check_invariance(
                model, word, result.witness, vars_i, vars_j, (ID_LABEL,)
            ).holds


def assert_image_shrinks(model: ActionModel, u, v, variables) -> None:
    """image(outcome(u + v)) is a subset of image(outcome(u))."""
    for ids in (None, variables):
        longer = set(outcome_map(model, tuple(u) + tuple(v), ids).image())
        assert longer <= set(outcome_map(model, u, ids).image()), (u, v, ids)


# --- hypothesis runs ------------------------------------------------------


@SETTINGS
@given(st.data())
def test_renaming_states_renames_results(data):
    model = data.draw(models())
    pairs = data.draw(st.lists(
        st.sampled_from(all_subset_pairs(model.outcomes.var_ids)), max_size=4
    ))
    word, later = data.draw(words(model)), data.draw(words(model))
    assert_renaming_renames(model, word, later, pairs)


@SETTINGS
@given(st.data())
def test_alias_and_reordered_generators_keep_results(data):
    model = data.draw(models())
    pairs = data.draw(st.lists(
        st.sampled_from(all_subset_pairs(model.outcomes.var_ids)), max_size=4
    ))
    aliased = data.draw(st.sampled_from(sorted(model.generators)))
    word, later = data.draw(words(model)), data.draw(words(model))
    assert_alias_and_reorder_keep_results(model, aliased, word, later, pairs)

@SETTINGS
@given(st.data())
def test_determination_is_monotone_in_i_and_antitone_in_j(data):
    model = data.draw(models())
    assert_determination_monotone(model, data.draw(words(model)))


@SETTINGS
@given(st.data())
def test_later_id_keeps_every_determination(data):
    model = data.draw(models())
    assert_id_keeps_invariance(model, data.draw(words(model)))


@SETTINGS
@given(st.data())
def test_image_shrinks_as_the_word_grows(data):
    model = data.draw(models())
    variables = data.draw(st.sets(st.sampled_from(model.outcomes.var_ids)))
    assert_image_shrinks(
        model, data.draw(words(model)), data.draw(words(model)), variables
    )


@SETTINGS
@given(st.data())
def test_identity_and_composite_morphisms_are_natural(data):
    assert_morphisms_compose_naturally(data.draw(models()))

# --- images -------------------------------------------------------------------


def test_image_dedupes_its_table_and_names_first_reachers():
    # An image records its context ``word``.  ``reached`` is the context's
    # table with repeats dropped, whatever the word, and position k names
    # the first state whose image is ``reached[k]``; ``rows`` are the
    # reached rows with repeats dropped, and row r is named by the first
    # state whose row is ``rows[r]``.  ``after(later)`` is the row of each
    # reached state once the later word acts, and those rows with repeats
    # dropped.  A later word composed on the reached states reaches what
    # the image of the whole word reaches, in the same order.
    for seed in range(40):
        model = random_action_model(seed)
        states, process = model.states.elements, model.process._codes
        labels = sorted(model.generators)  # includes id
        words = [w for n in range(3) for w in product(labels, repeat=n)]
        for word in words:
            image = _Image(model, word)
            assert image.word == tuple(word), (seed, word)
            assert image.reached == list(dict.fromkeys(image.table)), (seed, word)
            assert image.codes == [process[y] for y in image.reached], (seed, word)
            assert image.rows == list(dict.fromkeys(image.codes)), (seed, word)
            first, first_row = {}, {}
            for x, y in enumerate(image.table):
                first.setdefault(y, states[x])
                first_row.setdefault(process[y], states[x])
            assert [image.state(k) for k in range(len(image.reached))] == [
                first[y] for y in image.reached
            ], (seed, word)
            assert [image.row_state(r) for r in range(len(image.rows))] == [
                first_row[c] for c in image.rows
            ], (seed, word)
            for later in words:
                on_reached = model._compose(later, image.reached)
                codes = [process[y] for y in on_reached]
                assert image.after(later) == (codes, list(dict.fromkeys(codes))), (
                    seed, word, later
                )
                whole = _Image(model, later + word)
                assert whole.reached == list(dict.fromkeys(on_reached)), (
                    seed, word, later
                )


# --- mutants ------------------------------------------------------------------


def _fails(check) -> bool:
    """Does the check fail, by an assertion or by a checker error such as
    a base determination that a wrong witness does not satisfy?"""
    try:
        check()
    except (AssertionError, CausalGroundError):
        return True
    return False


def _relations(n_models: int) -> None:
    rng = random.Random(11)
    for seed in range(n_models):
        model = random_action_model(seed, max_states=12, max_vars=4)
        word, later = random_word(rng, model, 3), random_word(rng, model, 3)
        pairs = all_subset_pairs(model.outcomes.var_ids)
        pairs = rng.sample(pairs, min(4, len(pairs)))
        assert_renaming_renames(model, word, later, pairs)
        assert_determination_monotone(model, word)
        assert_id_keeps_invariance(model, word)
        assert_image_shrinks(model, word, later, model.outcomes.var_ids[:1])


def _oracle(corpus) -> None:
    rng = random.Random(11)
    for model, word in corpus:
        assert_kernel_agrees(model, word, rng, len(model.outcomes.var_ids))


def _label_oracle(corpus) -> None:
    """Each corpus space's labels, decoded position by position, against
    the eager enumeration of its domains' product."""
    for model, _ in corpus:
        assert_labels_decode(model.outcomes)


def _position_oracle(corpus) -> None:
    """Each corpus space's labels, found again position by position."""
    for model, _ in corpus:
        assert_positions_invert_labels(model.outcomes)


def _scm_oracle(n_scms: int = 5) -> None:
    """SCM encoding, which reads a space's value columns, against the
    reference encoding built from ``total``'s labels one state at a time."""
    for seed in range(n_scms):
        scm = random_scm(seed)
        assert encode_scm(scm) == reference_encode_scm(scm), seed


def _scm_laws(n_scms: int = 8) -> None:
    """The SCM law suite on encoded SCMs: its witnesses read the function
    tables, so a solver fault in the encoding breaks a law."""
    for seed in range(n_scms):
        scm = random_scm(seed)
        assert verify_scm_laws(encode_scm(scm), scm).ok, seed


def _scm_responses(n_scms: int = 8) -> None:
    """Y_x(u) read off encoded SCMs against recursive evaluation, which
    runs no library solver."""
    for seed in range(n_scms):
        scm = random_scm(seed)
        assert_responses_read_off(encode_scm(scm), scm)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_kernel_mutant_is_caught(name, monkeypatch, model_corpus):
    MUTANTS[name](monkeypatch)
    caught = {
        "oracle": _fails(lambda: _oracle(model_corpus[:200])),
        "relations": _fails(lambda: _relations(100)),
        "scm": _fails(_scm_oracle),
        "laws": _fails(_scm_laws),
        "responses": _fails(_scm_responses),
        "labels": _fails(lambda: _label_oracle(model_corpus[:200])),
        "positions": _fails(lambda: _position_oracle(model_corpus[:200])),
    }
    assert any(caught.values()), f"mutant {name} survived"
    if name == "columns_first_variable_fastest":
        # ``total`` does not read the columns: only SCM encoding does.
        assert caught["scm"]
    if name in (
        "counterexample_from_last_reacher",
        "binds_last_j_code",
        "rows_in_last_occurrence_order",
    ):
        # Verdicts stay right and only the named states move, which no
        # relation sees: the oracle cross-check must catch it.
        assert caught["oracle"]
    if name == "layout_first_variable_fastest":
        # ``total`` decodes labels through the table, against the eager
        # enumeration, and SCM encoding codes its states through it, against
        # the reference built from ``total``'s enumerated labels.
        assert caught["labels"] and caught["scm"]
    if name == "labels_first_variable_fastest":
        # Witness tables, effectiveness values and violation reports are
        # named through ``label``: the oracle cross-check sees them.
        assert caught["labels"] and caught["oracle"]
    if name == "positions_first_variable_fastest":
        # A label table is validated through ``position``: the oracle's
        # witness tables land on other codes.
        assert caught["positions"] and caught["oracle"]
    if name == "interventions_do_not_propagate":
        # The law witnesses read the tables, and the reference encoding
        # and the response oracle solve by recursive evaluation: none of
        # them runs the solver.
        assert caught["laws"] and caught["scm"] and caught["responses"]
    if name == "projection_first_variable_fastest":
        # Decoding positions is checked against the oracle's label
        # tables, which split each outcome label instead.
        assert caught["oracle"]


def _assert_image_mutant_leaves_nothing(model_corpus, name, imaged_afresh) -> None:
    """A model keeps the image of the last context it was checked in, and
    the corpus models outlive every test.  Under mutant ``name`` each
    image is built by the mutant, whatever was kept before it, which
    ``imaged_afresh(model, word, image)`` confirms; once the mutant is
    undone, every result equals that of a fresh copy."""
    rng = random.Random(23)
    cases = [
        (model, word, random_word(rng, model, 3) + word)
        for model, word in model_corpus[:60]
    ]
    for model, word, _ in cases:
        _Image(model, word)
    with pytest.MonkeyPatch.context() as patch:
        MUTANTS[name](patch)
        for model, word, context in cases:
            assert imaged_afresh(model, word, _Image(model, word)), word
            check_determination(model, context, (), model.outcomes.var_ids)
    for model, _, context in cases:
        fresh = dataclasses.replace(model)
        for vars_i, vars_j in all_subset_pairs(model.outcomes.var_ids):
            result = check_determination(model, context, vars_i, vars_j)
            assert result == check_determination(fresh, context, vars_i, vars_j)
            if result.holds:
                later = random_word(rng, model)
                args = (context, result.witness, vars_i, vars_j, later)
                assert check_invariance(model, *args) == check_invariance(fresh, *args)


def test_compose_mutant_neither_reads_nor_leaves_a_kept_image(model_corpus):
    _assert_image_mutant_leaves_nothing(
        model_corpus,
        "composition_left_to_right",
        lambda model, word, image: image.table == model._compose(word),
    )


def test_rows_mutant_neither_reads_nor_leaves_kept_rows(model_corpus):
    _assert_image_mutant_leaves_nothing(
        model_corpus,
        "rows_in_last_occurrence_order",
        lambda model, word, image: (
            image.rows == list(dict.fromkeys(reversed(image.codes)))[::-1]
        ),
    )


def test_columns_mutant_leaves_no_kept_subspace(model_corpus):
    # A space keeps each subspace it builds, and the corpus spaces outlive
    # every test: no subspace enumerated under the mutant may be kept.
    with pytest.MonkeyPatch.context() as patch:
        MUTANTS["columns_first_variable_fastest"](patch)
        assert _fails(_scm_oracle)
        _oracle(model_corpus[:60])  # builds the corpus spaces' subspaces
    for model, _ in model_corpus[:60]:
        space = model.outcomes
        for ids in dict.fromkeys(i for i, _ in all_subset_pairs(space.var_ids)):
            fresh = FactoredSpace(tuple((v, space.domain_of(v)) for v in ids))
            assert space.subspace(ids).total.elements == fresh.total.elements


def test_label_mutant_leaves_no_kept_labels(model_corpus):
    # A space keeps each subspace it builds, a total keeps the labels it
    # builds on first read and a map its label table, and the corpus models
    # outlive every test: no label read under the mutant may be kept.
    corpus = model_corpus[:60]
    with pytest.MonkeyPatch.context() as patch:
        MUTANTS["labels_first_variable_fastest"](patch)
        assert _fails(lambda: _label_oracle(corpus))
        assert _fails(lambda: _oracle(corpus))
        for model, word in corpus:  # builds the corpus spaces' subspaces
            for vars_i, vars_j in all_subset_pairs(model.outcomes.var_ids):
                check_determination(model, word, vars_i, vars_j)
            model.process.table
    for model, _ in corpus:
        space = model.outcomes
        for ids in dict.fromkeys(i for i, _ in all_subset_pairs(space.var_ids)):
            fresh = FactoredSpace(tuple((v, space.domain_of(v)) for v in ids)).total
            kept = space.subspace(ids).total
            assert kept.elements == fresh.elements
            assert [kept.label(k) for k in range(len(kept))] == list(fresh.elements)
        labels = space.total.elements
        process = model.process
        assert process.table == {
            x: labels[c] for x, c in zip(model.states.elements, process._codes)
        }


def test_position_mutant_is_caught_and_leaves_no_kept_codes(model_corpus):
    # Under the mutant the position oracle and the oracle cross-check fail;
    # once it is undone, both pass on the same corpus models.
    corpus = model_corpus[:60]
    with pytest.MonkeyPatch.context() as patch:
        MUTANTS["positions_first_variable_fastest"](patch)
        assert _fails(lambda: _position_oracle(corpus))
        assert _fails(lambda: _oracle(corpus))
    _position_oracle(corpus)
    _oracle(corpus)
