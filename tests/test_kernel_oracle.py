"""The integer-coded checker kernel against the string kernel it replaced.

Every checker's result object must equal the one its reference in
``oracles`` builds from label tables, one state at a time: determination,
effectiveness, invariance, commute/overwrite, discovery, surgicality,
mechanism records and the SCM law report.  Errors must match in type and
message.  A model keeps the image of the last context it was checked in;
checks on one shared model must equal the same checks on fresh copies, and
a witness that judges each row once must judge each probe as a fresh
witness does.
"""

import dataclasses
import gc
import random
import weakref

import pytest

from causalground import checkers
from causalground.abstraction import check_naturality, check_surjectivity_assumptions
from causalground.checkers import (
    check_determination,
    check_effectiveness,
    check_invariance,
    check_surgical,
    discover_mechanisms,
    probe_record,
)
from causalground.core import (
    ActionModel,
    TotalMap,
    UnknownLabelError,
    _Image,
    compose,
    outcome_map,
)
from causalground.io import (
    dump_json,
    load_model,
    load_morphism,
    records_from_dict,
    serialize,
    witness_from_dict,
    witness_to_dict,
)
from causalground.dominoes import (
    build_bounded_model,
    five_chain_family,
    four_chain_family,
    line6_family,
    three_chain_family,
)
from causalground.scm import (
    INIT_LABEL,
    default_mechanism_records,
    encode_scm,
    random_scm,
    verify_scm_laws,
)
from oracles import (
    _outcome,
    all_subset_pairs,
    assert_kernel_agrees,
    assert_labels_decode,
    assert_position_inverts_label,
    assert_positions_invert_labels,
    assert_same,
    barrier_blind_morphism,
    random_action_model,
    random_word,
    reference_check_naturality,
    reference_check_surjectivity_assumptions,
    reference_family_labels,
    reference_labels,
    reference_probe_record,
    reference_verify_scm_laws,
)


def test_random_models_match_reference(model_corpus):
    rng = random.Random(7)
    for model, word in model_corpus:
        assert_kernel_agrees(model, word, rng, len(model.outcomes.var_ids))


def with_small_images(model: ActionModel, rng: random.Random) -> ActionModel:
    """``model`` plus a generator ``const`` onto one state and a generator
    ``rank`` onto 2 or 3 states, fewer than the model has."""
    states = model.states.elements
    value = rng.choice(states)
    hit = rng.sample(states, rng.randint(2, min(3, len(states) - 1)))
    # The first states go to each of ``hit`` in turn, so all of it is hit.
    rank = {
        x: hit[k] if k < len(hit) else rng.choice(hit) for k, x in enumerate(states)
    }
    generators = dict(model.generators)
    generators["const"] = TotalMap(
        model.states, model.states, {x: value for x in states}
    )
    generators["rank"] = TotalMap(model.states, model.states, rank)
    return ActionModel(model.states, model.outcomes, generators, model.process)


def test_contexts_with_small_images_match_reference():
    rng = random.Random(9)
    verdicts = set()
    for seed in range(80):
        model = random_action_model(seed, max_states=10)
        if len(model.states) < 4:
            continue
        model = with_small_images(model, rng)
        through = rng.choice(("const", "rank", "rank"))
        word = random_word(rng, model, 1) + (through,) + random_word(rng, model, 1)
        var_ids = model.outcomes.var_ids
        assert_kernel_agrees(model, word, rng, len(var_ids))
        for vars_i, vars_j in all_subset_pairs(var_ids):
            verdicts.add(check_determination(model, word, vars_i, vars_j).holds)
        for record in discover_mechanisms(model, word, len(var_ids)):
            for context in (word, random_word(rng, model)):
                assert_same(
                    probe_record, reference_probe_record, model,
                    record.target, record.parents, record.map, context,
                )
    # Failing determinations are among the queries, so counterexample
    # pairs were compared too.
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", range(30))
def test_seeded_scms_match_reference(seed):
    scm = random_scm(seed)
    model = encode_scm(scm)
    assert verify_scm_laws(model, scm) == reference_verify_scm_laws(model, scm)
    for record in default_mechanism_records(scm, model):
        assert record == reference_probe_record(
            model, record.target, record.parents, record.map, record.context
        )
    assert_kernel_agrees(model, (INIT_LABEL,), random.Random(seed), 2, pairs=8)
    # Context () reaches every state, and many states share one row.
    assert_kernel_agrees(model, (), random.Random(seed), 2, pairs=8)


CHAIN_FAMILIES = (three_chain_family, four_chain_family, five_chain_family, line6_family)


def test_positions_invert_labels(model_corpus, three_chain, four_chain, five_chain):
    """``position`` finds every label ``label`` names, and no non-element,
    on every space and subspace, on the state set of an encoded SCM, and on
    the micro and abstract state sets of the chain families."""
    for model, _ in model_corpus:
        assert_positions_invert_labels(model.outcomes)
    for seed in range(20):
        model = encode_scm(random_scm(seed))
        assert_positions_invert_labels(model.outcomes)
        assert_position_inverts_label(model.states)
    line6 = build_bounded_model(line6_family())
    for micro, abstract, _ in (three_chain, four_chain, five_chain, line6):
        assert_positions_invert_labels(micro.outcomes)
        assert_positions_invert_labels(abstract.outcomes)
        assert_position_inverts_label(micro.states)
        assert_position_inverts_label(abstract.states)


@pytest.mark.parametrize(
    "family",
    [three_chain_family, four_chain_family, five_chain_family, line6_family],
    ids=lambda f: f.__name__,
)
def test_domino_families_match_reference(family):
    micro, abstract, _ = build_bounded_model(family())
    rng = random.Random(family.__name__)
    for model in (abstract, micro):
        # line6 micro has 49 634 states: one query of each kind is enough.
        pairs = 1 if len(model.states) > 20_000 else 3
        assert_kernel_agrees(model, random_word(rng, model), rng, 1, pairs)
    # Context () reaches every abstract state, and many share one row.
    assert_kernel_agrees(abstract, (), rng, 1, 3)


def test_decoded_labels_match_reference(model_corpus, three_chain, four_chain, five_chain):
    """Every position of every space's and subspace's ``total`` decodes to
    the eagerly enumerated label, as does every state of an encoded SCM and
    every micro and abstract state of the chain families."""
    for model, _ in model_corpus:
        assert_labels_decode(model.outcomes)
    for seed in range(20):
        model = encode_scm(random_scm(seed))
        assert_labels_decode(model.outcomes)
        states = model.states
        assert [states.label(k) for k in range(len(states))] == list(
            reference_labels(states.domains)
        ), seed
    line6 = build_bounded_model(line6_family())
    for make, (micro, abstract, _) in zip(
        CHAIN_FAMILIES, (three_chain, four_chain, five_chain, line6)
    ):
        assert_labels_decode(micro.outcomes)
        assert_labels_decode(abstract.outcomes)
        for model, forgets_tags in ((micro, False), (abstract, True)):
            states = model.states
            assert [states.label(k) for k in range(len(states))] == reference_family_labels(
                make(), forgets_tags
            ), make.__name__


@pytest.mark.parametrize(
    "family",
    [three_chain_family, four_chain_family, five_chain_family, line6_family],
    ids=lambda f: f.__name__,
)
def test_morphism_reports_match_reference(family):
    """Naturality and surjectivity name their outcomes by decoding positions;
    the reports equal the ones read off label tables.  The barrier-blind
    morphism fails action squares; one whose outcome map is off by one
    position fails the process square alone."""
    _, _, morphism = build_bounded_model(family())
    outcomes = morphism.outcome_map
    shifted = dataclasses.replace(morphism, outcome_map=TotalMap._of(
        outcomes.domain, outcomes.codomain,
        [(c + 1) % len(outcomes.codomain) for c in outcomes._codes],
    ))
    for m in (morphism, barrier_blind_morphism(family(), morphism), shifted):
        assert check_naturality(m) == reference_check_naturality(m)
        assert check_surjectivity_assumptions(m) == (
            reference_check_surjectivity_assumptions(m)
        )


# --- the image a model keeps --------------------------------------------------


def mixed_calls(model: ActionModel, contexts, rng: random.Random, max_parents: int):
    """Seeded checker calls over ``contexts``, shuffled, as (checker, args).

    Witnesses and mechanism records are computed on a fresh copy, so the
    model the calls run on starts with whatever image it already keeps.
    Every context is also queried through an unknown label.
    """
    fresh = dataclasses.replace(model)
    labels = sorted(model.generators)
    var_ids = model.outcomes.var_ids
    pairs = all_subset_pairs(var_ids)
    calls = []
    for context in contexts:
        calls.append((check_determination, (("nope",) + context, var_ids[:1], ())))
        for vars_i, vars_j in rng.sample(pairs, min(4, len(pairs))):
            calls.append((check_determination, (context, vars_i, vars_j)))
            calls.append((check_effectiveness, ((rng.choice(labels),), vars_j, context)))
            result = check_determination(fresh, context, vars_i, vars_j)
            if not result.holds:
                continue
            for later in (random_word(rng, model), ("nope",)):
                args = (context, result.witness, vars_i, vars_j, later)
                calls.append((check_invariance, args))
            if len(vars_j) == 1:
                args = (vars_j[0], vars_i, result.witness, context)
                calls.append((probe_record, args))
        calls.append((discover_mechanisms, (context, max_parents)))
        records = discover_mechanisms(fresh, context, max_parents)
        if records:
            for action in rng.sample(labels, min(2, len(labels))):
                calls.append((check_surgical, (action, records, context)))
    rng.shuffle(calls)
    return calls


def assert_shared_model_matches_fresh_copies(model, contexts, seed, max_parents):
    calls = mixed_calls(model, contexts, random.Random(seed), max_parents)
    for checker, args in calls:
        shared = serialize(_outcome(checker, model, *args))
        fresh = serialize(_outcome(checker, dataclasses.replace(model), *args))
        assert shared == fresh, (checker.__name__, args)


def test_shared_corpus_models_match_fresh_copies(model_corpus):
    rng = random.Random(17)
    for seed, (model, word) in enumerate(model_corpus[:120]):
        contexts = [word, (), random_word(rng, model, 3), word]
        n_vars = len(model.outcomes.var_ids)
        assert_shared_model_matches_fresh_copies(model, contexts, seed, n_vars)


def test_shared_five_chain_models_match_fresh_copies(five_chain):
    micro, abstract, _ = five_chain
    # init-chain5 reaches one state; the other contexts reach 256 to 5 632.
    base = ("choose-push-d3-W", "remove-d2")
    contexts = [base, ("choose-push-d1-E", "init-chain5"), (), base, ("remove-d2",)]
    for seed, model in enumerate((abstract, micro)):
        assert_shared_model_matches_fresh_copies(model, contexts, seed, 1)


@pytest.mark.parametrize("seed", range(8))
def test_shared_scm_models_match_fresh_copies(seed):
    model = encode_scm(random_scm(seed))
    setter = next(label for label in model.generators if label.startswith("set-"))
    contexts = [(INIT_LABEL,), (), (setter, INIT_LABEL), (INIT_LABEL,)]
    assert_shared_model_matches_fresh_copies(model, contexts, seed, 2)


# The lists an image keeps on its model.
KEPT = ("table", "reached", "codes", "rows")


def test_a_batch_leaves_the_kept_image_unchanged(five_chain):
    _, abstract, _ = five_chain
    model = dataclasses.replace(abstract)
    context = ("choose-push-d3-W", "remove-d2")
    image = _Image(model, context)
    kept = {name: list(getattr(image, name)) for name in KEPT}
    for checker, args in mixed_calls(model, [context], random.Random(5), 2):
        _outcome(checker, model, *args)
    assert {name: getattr(image, name) for name in KEPT} == kept
    # Consecutive checks in one context share its lists.
    shared = _Image(model, context)
    check_determination(model, context, ("d1",), ("d2",))
    again = _Image(model, context)
    for name in KEPT:
        assert getattr(again, name) is getattr(shared, name), name
        assert getattr(shared, name) == kept[name], name


def test_an_unknown_label_leaves_the_kept_image(five_chain):
    _, abstract, _ = five_chain
    model = dataclasses.replace(abstract)
    context = ("init-chain5",)
    image = _Image(model, context)
    with pytest.raises(UnknownLabelError):
        check_determination(model, ("nope",) + context, ("d1",), ("d2",))
    with pytest.raises(UnknownLabelError):
        discover_mechanisms(model, ("nope",), 1)
    assert _Image(model, context).table is image.table
    witness = check_determination(model, context, ("d1",), ("d2",)).witness
    with pytest.raises(UnknownLabelError):
        check_invariance(model, context, witness, ("d1",), ("d2",), ("nope",))
    for name in KEPT:
        assert getattr(_Image(model, context), name) is getattr(image, name), name


def test_a_checked_model_is_freed_without_the_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        model = random_action_model(3)
        word = random_word(random.Random(3), model)
        result = check_determination(model, word, (), model.outcomes.var_ids)
        check_determination(model, word, model.outcomes.var_ids, ())
        discover_mechanisms(model, word, 1)
        if result.holds:
            check_invariance(model, word, result.witness, (), model.outcomes.var_ids, ())
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# --- probes -------------------------------------------------------------------


@pytest.fixture(scope="module")
def probed_models(model_corpus, three_chain, four_chain, five_chain):
    """Seeded SCMs, corpus models and the abstract models of the four
    domino families."""
    models = [encode_scm(random_scm(seed, 5, 3, 3)) for seed in range(6)]
    models += [model for model, _ in model_corpus[:80]]
    triples = (three_chain, four_chain, five_chain, build_bounded_model(line6_family()))
    return models + [abstract for _, abstract, _ in triples]


def random_witness(rng: random.Random, model: ActionModel, vars_i, vars_j) -> TotalMap:
    domain, codomain = (model.outcomes.subspace(ids).total for ids in (vars_i, vars_j))
    codes = [rng.randrange(len(codomain)) for _ in range(len(domain))]
    return TotalMap._of(domain, codomain, codes)


def test_a_reused_prediction_judges_each_probe_as_a_fresh_one(probed_models):
    """A witness judges each row once, across images and words: one
    prediction probed in several contexts with several later words gives,
    probe for probe, the hit a fresh prediction gives, failing probes and
    the state they name included, and it keeps every row it has judged."""
    rng = random.Random(31)
    verdicts, repeated = set(), 0
    for model in probed_models:
        space = model.outcomes
        pairs = [p for p in all_subset_pairs(space.var_ids) if space._count(p[0]) <= 729]
        images = [_Image(model, ())] + [
            _Image(model, random_word(rng, model)) for _ in range(3)
        ]
        words = [()] + [random_word(rng, model) for _ in range(4)]
        for vars_i, vars_j in rng.sample(pairs, min(3, len(pairs))):
            witnesses = [random_witness(rng, model, vars_i, vars_j)]
            result = check_determination(model, images[-1].word, vars_i, vars_j)
            witnesses += [result.witness] if result.holds else []
            for witness in witnesses:
                shared = checkers._Prediction(model, vars_i, vars_j, witness)
                seen = set()
                for image in images:
                    for word in words:
                        seen.update(image.after(word))
                        bad = set(shared.bad)
                        hit = shared.violation(image, word)
                        fresh = checkers._Prediction(model, vars_i, vars_j, witness)
                        assert hit == fresh.violation(image, word), (image.word, word)
                        verdicts.add(hit is None)
                        # A failing probe that found no new bad row: it
                        # failed on rows judged by earlier probes.
                        repeated += hit is not None and shared.bad.keys() == bad
                assert shared.judged == seen
    assert verdicts == {True, False}
    assert repeated


# --- the kernel contract -------------------------------------------------------


def brute_force_scan(codes_i, codes_j):
    """The binding of each I-code to the J-code of its first row, and the
    first row whose J-code differs from that of the first row with its
    I-code, read off every pair of rows."""
    first = {}
    for k, c in enumerate(codes_i):
        first.setdefault(c, k)
    binding = {c: codes_j[k] for c, k in first.items()}
    bad = [k for k, c in enumerate(codes_i) if codes_j[k] != codes_j[first[c]]]
    return binding, (bad[0] if bad else None)


def test_scan_matches_brute_force():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rows = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12)

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(rows)
    def check(rows):
        codes_i, codes_j = map(list, zip(*rows))
        bound, k = checkers._scan_determination(codes_i, codes_j)
        binding, first_bad = brute_force_scan(codes_i, codes_j)
        assert bound == binding
        determined = all(
            a_j == b_j for a_i, a_j in rows for b_i, b_j in rows if a_i == b_i
        )
        assert (k is None) == determined
        assert k == first_bad

    check()


def test_the_parent_set_search_names_no_row(monkeypatch, model_corpus):
    """Only ``check_determination`` names a counterexample: discovery and
    surgicality scan candidates and name no row, also where a candidate
    fails."""
    named, refuted = [], []
    row_state, scan = _Image.row_state, checkers._scan_determination

    def spied_row_state(self, r):
        named.append(r)
        return row_state(self, r)

    def spied_scan(codes_i, codes_j):
        bound, k = scan(codes_i, codes_j)
        refuted.append(k is not None)
        return bound, k

    monkeypatch.setattr(_Image, "row_state", spied_row_state)
    monkeypatch.setattr(checkers, "_scan_determination", spied_scan)
    for seed in range(20):
        model = encode_scm(random_scm(seed, 5, 3, 3))
        for context, max_parents in (((INIT_LABEL,), 3), ((), 2)):
            records = discover_mechanisms(model, context, max_parents)
            if seed < 5 and records:
                for action in sorted(model.generators):
                    check_surgical(model, action, records, context)
    assert any(refuted)
    # On these seeded SCMs every new mechanism is found at once; the
    # corpus also has surgicality searches that refute a candidate first.
    searches_refuting = 0
    rng = random.Random(1)
    for model, _ in model_corpus[:300]:
        context = random_word(rng, model)
        records = discover_mechanisms(model, context, len(model.outcomes.var_ids))
        for action in sorted(model.generators) if records else ():
            before = len(refuted)
            check_surgical(model, action, records, context)
            searches_refuting += any(refuted[before:])
    assert searches_refuting
    assert named == []


def test_the_parent_set_search_builds_one_witness_per_record(monkeypatch):
    """A candidate is accepted by count, when its rows reach every I-code,
    and only the accepted one gets a witness."""
    built, witness = [], checkers._witness

    def spied_witness(model, ids_i, ids_j, bound):
        built.append((ids_i, ids_j))
        return witness(model, ids_i, ids_j, bound)

    monkeypatch.setattr(checkers, "_witness", spied_witness)
    records = []
    for seed in range(20):
        model = encode_scm(random_scm(seed, 5, 3, 3))
        for context, max_parents in (((INIT_LABEL,), 3), ((), 2)):
            records += discover_mechanisms(model, context, max_parents)
    assert built == [(r.parents, (r.target,)) for r in records]
    assert len(built) == 99


def assert_ints(codes, what):
    assert type(codes) is list, what
    assert all(type(c) is int for c in codes), what


def test_each_kernel_returns_the_type_it_promises(tmp_path, model_corpus, three_chain):
    """Position tables are lists of ints, value columns lists of strings,
    and the scan a dict with an int or None, wherever they come from."""
    micro, abstract, morphism = three_chain
    dump_json(micro, tmp_path / "micro.json")
    dump_json(abstract, tmp_path / "abstract.json")
    dump_json(morphism, tmp_path / "morphism.json", "micro.json", "abstract.json")
    loaded = load_morphism(str(tmp_path / "morphism.json"))
    scm = random_scm(0)
    encoded = encode_scm(scm)
    dump_json(encoded, tmp_path / "scm.json")
    maps = [morphism.state_map, morphism.outcome_map, loaded.state_map, loaded.outcome_map]
    maps += (r.map for r in default_mechanism_records(scm, encoded))
    models = [micro, abstract, loaded.source, loaded.target, encoded,
              load_model(str(tmp_path / "scm.json"))]
    models += (model for model, _ in model_corpus[:40])
    rng = random.Random(3)
    for model in models:
        space, word = model.outcomes, random_word(rng, model)
        maps += (*model.generators.values(), model.process)
        maps += (compose(model, word), outcome_map(model, word, space.var_ids[:1]))
        assert_ints(model._compose(word), "_compose")
        image = _Image(model, word)
        for name in KEPT:
            assert_ints(getattr(image, name), name)
        assert_ints(image.after(random_word(rng, model)), "after")
        assert_ints(space._project(space.var_ids[:2], image.rows), "_project")
        if len(space.total) <= 5_000:
            columns = space._columns()
            for column in columns.values():
                assert type(column) is list and all(type(x) is str for x in column)
            assert_ints(space._code(list(columns.values())), "_code")
        for vars_i, vars_j in all_subset_pairs(space.var_ids)[:6]:
            codes_i, codes_j = (space._project(ids, image.rows) for ids in (vars_i, vars_j))
            bound, k = checkers._scan_determination(codes_i, codes_j)
            assert type(bound) is dict and (k is None or type(k) is int)
            assert all(type(c) is int for c in (*bound, *bound.values()))
            result = check_determination(model, word, vars_i, vars_j)
            if result.holds:
                domain, codomain = result.witness.domain, result.witness.codomain
                maps += (result.witness, witness_from_dict(
                    witness_to_dict(result.witness), domain, codomain
                ))
        records = discover_mechanisms(model, word, 1)
        maps += (r.map for r in records)
        data = [serialize(r) for r in records]
        maps += (r.map for r in records_from_dict(data, model))
    for m in maps:
        assert_ints(m._codes, "_codes")
