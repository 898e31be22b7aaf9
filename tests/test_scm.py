import json
import random
from itertools import product

import pytest

from causalground.checkers import check_commute, check_determination, check_surgical
from causalground import scm as scm_module
from causalground.core import ActionModel, FiniteSet, SEP, TotalMap, _Image, outcome_map
from causalground.scm import (
    DEFAULT_SLOT,
    CyclicScmError,
    Scm,
    default_mechanism_records,
    encode_scm,
    random_scm,
    set_label,
    verify_scm_laws,
)
from causalground.io import to_json

from oracles import (
    assert_responses_read_off,
    brute_force_response,
    model_to_dict,
    recursive_response,
    reference_encode_scm,
    reference_text,
    reference_verify_scm_laws,
    reversed_declaration,
    scm_to_dict,
)


def binary(name):
    return FiniteSet(name, ("0", "1"))


def decode_state(scm, label):
    """The (slot, noise) assignments an encoded state label names."""
    parts, n = label.split(SEP), len(scm.endo_ids)
    return dict(zip(scm.endo_ids, parts[:n])), dict(zip(scm.exo_ids, parts[n:]))


def all_slot_assignments(scm):
    options = [
        (DEFAULT_SLOT,) + scm.domain_of(vid).elements for vid in scm.endo_ids
    ]
    for combo in product(*options):
        yield dict(zip(scm.endo_ids, combo))


def all_exo_assignments(scm):
    options = [dom.elements for _, dom in scm.exogenous]
    for combo in product(*options):
        yield dict(zip(scm.exo_ids, combo))


def test_cyclic_scm_rejected():
    with pytest.raises(CyclicScmError):
        Scm(
            (("U1", binary("U1")), ("U2", binary("U2"))),
            (("V1", binary("V1")), ("V2", binary("V2"))),
            {"V1": ("V2",), "V2": ("V1",)},
            {
                "V1": {(a, b): "0" for a in "01" for b in "01"},
                "V2": {(a, b): "0" for a in "01" for b in "01"},
            },
        )


def test_cycle_error_names_a_node_on_the_cycle():
    # V1 -> V2 -> V3 -> V2: V1 is not on the cycle
    with pytest.raises(CyclicScmError, match=r"cycle through 'V[23]'"):
        Scm(
            tuple((f"U{i}", binary(f"U{i}")) for i in (1, 2, 3)),
            tuple((f"V{i}", binary(f"V{i}")) for i in (1, 2, 3)),
            {"V1": (), "V2": ("V1", "V3"), "V3": ("V2",)},
            {
                "V1": {(u,): "0" for u in "01"},
                "V2": {key: "0" for key in product("01", repeat=3)},
                "V3": {key: "0" for key in product("01", repeat=2)},
            },
        )


def test_function_table_totality_checked():
    with pytest.raises(ValueError) as err:
        Scm(
            (("U1", binary("U1")),),
            (("V1", binary("V1")),),
            {"V1": ()},
            {"V1": {("0",): "0"}},
        )
    assert "not total" in str(err.value)


def _rebuilt(scm, **changes):
    """``scm``'s fields with ``changes``, through the constructor again."""
    fields = dict(exogenous=scm.exogenous, endogenous=scm.endogenous,
                  parents=scm.parents, functions=scm.functions)
    return Scm(**(fields | changes))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: _rebuilt(s, exogenous=s.exogenous[:1]),
         "each endogenous variable needs exactly one paired exogenous variable: "
         "got 2 endogenous, 1 exogenous"),
        (lambda s: _rebuilt(s, parents={"V1": ()}), "no parent list for 'V2'"),
        (lambda s: _rebuilt(s, parents={"V1": (), "V2": ("V1", "V1")}),
         "parent 'V1' of 'V2' is listed twice"),
        (lambda s: _rebuilt(s, functions={"V1": s.functions["V1"]}),
         "no function table for 'V2'"),
        (lambda s: _rebuilt(s, endogenous=(("V,1", binary("V,1")), s.endogenous[1])),
         "endogenous id 'V,1' must not contain ','"),
        (lambda s: _rebuilt(s, endogenous=(s.endogenous[0],
                                           ("V2", FiniteSet("V2", ("0", "1,0"))))),
         "value '1,0' of 'V2' must not contain ','"),
        (lambda s: s.domain_of("W"), "unknown SCM variable 'W'"),
        (lambda s: s.noise_id("U1"), "unknown endogenous variable 'U1'"),
    ],
    ids=["unpaired-noise", "no-parent-list", "repeated-parent", "no-function-table",
         "comma-in-id", "comma-in-value", "unknown-domain", "unknown-noise"],
)
def test_scm_rejects_a_broken_rule(xor_scm, call, message):
    with pytest.raises(ValueError) as err:
        call(xor_scm)
    assert str(err.value) == message


def read_response(model, scm, word, u):
    """Y(u) after ``word``, read off the encoded model at the all-default
    state carrying u."""
    state = SEP.join([DEFAULT_SLOT] * len(scm.endo_ids) + [u[x] for x in scm.exo_ids])
    return dict(zip(scm.endo_ids, outcome_map(model, word, scm.endo_ids)(state).split(SEP)))


def test_full_intervention_ignores_functions(xor_scm):
    # both slots hold values: the process reads no function table
    outcome = encode_scm(xor_scm).process(SEP.join(["1", "0", "0", "0"]))
    assert outcome == SEP.join(["0", "0", "1", "0"])


def test_xor_responses_on_the_encoded_model(xor_scm):
    # oracle-confirmed values: enumerate all four endogenous assignments and
    # keep the one satisfying both equations
    model = encode_scm(xor_scm)
    assert read_response(model, xor_scm, (), {"U1": "1", "U2": "0"}) == {"V1": "1", "V2": "1"}
    assert brute_force_response(
        xor_scm, {"V1": DEFAULT_SLOT, "V2": DEFAULT_SLOT}, {"U1": "1", "U2": "0"}
    ) == [{"V1": "1", "V2": "1"}]
    assert read_response(model, xor_scm, ("set-V1=0",), {"U1": "1", "U2": "1"}) == {
        "V1": "0", "V2": "1"
    }


def test_brute_force_singleton_for_full_intervention(xor_scm):
    result = brute_force_response(
        xor_scm, {"V1": "0", "V2": "1"}, {"U1": "1", "U2": "1"}
    )
    assert result == [{"V1": "0", "V2": "1"}]


def test_oracle_agreement_every_slot_and_u(xor_scm):
    process = encode_scm(xor_scm).process
    for slots in all_slot_assignments(xor_scm):
        for u in all_exo_assignments(xor_scm):
            solutions = brute_force_response(xor_scm, slots, u)
            assert len(solutions) == 1
            outcome = process(SEP.join([*slots.values(), *u.values()]))
            assert outcome == SEP.join([*u.values(), *solutions[0].values()])


def test_set_on_the_default_state_gives_y_x_of_u():
    # Y_{V=v}(u) is the outcome after set-V=v on the all-default state
    # carrying u, and Y(u) that state's own outcome, against recursive
    # evaluation
    scms = [random_scm(s) for s in range(60)] + [random_scm(s, 5, 3, 3) for s in range(20)]
    for scm in scms:
        assert_responses_read_off(encode_scm(scm), scm)


def test_encode_single_copy_variable_counts():
    scm = Scm(
        (("U1", binary("U1")),),
        (("V1", binary("V1")),),
        {"V1": ()},
        {"V1": {("0",): "0", ("1",): "1"}},
    )
    model = encode_scm(scm)
    # |X| = |V1 + default| * |U1| = 3 * 2
    assert len(model.states) == 6
    assert sorted(model.generators) == ["id", "init", "set-V1=0", "set-V1=1"]


def test_encoding_writes_the_label_reference_bytes():
    scms = [random_scm(s) for s in range(60)]
    scms += [random_scm(s, 5, 3, 3) for s in range(10)]
    for scm in scms:
        got = to_json(encode_scm(scm))
        assert got == reference_text(model_to_dict(reference_encode_scm(scm)))


def test_empty_scm_encodes_to_one_lawful_state():
    scm = Scm((), (), {}, {})
    model = encode_scm(scm)
    assert len(model.states) == 1 and len(model.outcomes.total) == 1
    assert sorted(model.generators) == ["id", "init"]
    assert verify_scm_laws(model, scm).ok


def test_one_solve_per_encoding_and_none_per_mechanism(monkeypatch, xor_scm):
    # the encoder solves every state in one call; a mechanism witness reads
    # its variable's function table and runs no solver, so the law suite
    # checks the encoder's solve against the tables
    calls = []
    solve = scm_module._solve
    monkeypatch.setattr(scm_module, "_solve", lambda *a: calls.append(a) or solve(*a))
    for scm in [xor_scm] + [random_scm(s, 5, 3, 3) for s in range(5)]:
        calls.clear()
        model = encode_scm(scm)
        assert len(calls) == 1
        calls.clear()
        default_mechanism_records(scm, model)
        verify_scm_laws(model, scm)
        assert calls == []


def test_a_value_slot_solves_to_the_constant_map():
    # a value slot's witness is the slot's value, whatever the table says
    for seed in range(20):
        scm = random_scm(seed)
        space = encode_scm(scm).outcomes
        for vid in scm.endo_ids:
            sub = space.subspace((scm.noise_id(vid),) + scm.parents[vid])
            target = space.subspace((vid,))
            for value in scm.domain_of(vid).elements:
                assert scm_module._mechanism_witness(scm, space, vid, value) == (
                    TotalMap.constant(sub.total, target.total, value)
                ), (seed, vid, value)


def test_generator_tables_share_one_int_per_position():
    # Every entry of the init and set- tables is one of len(states) shared
    # ints, not a fresh int per entry.
    for scm in [random_scm(s, 5, 3, 3) for s in range(5)]:
        model = encode_scm(scm)
        tables = [m._codes for a, m in model.generators.items() if a != "id"]
        assert len({id(p) for table in tables for p in table}) <= len(model.states)


def test_one_generator_per_intervention():
    for scm in [random_scm(s, 5, 3, 3) for s in range(40)]:
        sizes = [len(dom) for _, dom in scm.endogenous]
        assert len(encode_scm(scm).generators) == 2 + sum(sizes)
    # set-A=0=1 would name both A=0 set to 1 and A set to 0=1
    unit = FiniteSet("U", ("*",))
    endogenous = (("A=0", FiniteSet("A=0", ("1", "2"))), ("A", FiniteSet("A", ("0=1", "x"))))
    functions = {"A=0": {("*",): "1"}, "A": {("*",): "x"}}
    with pytest.raises(ValueError, match="share the label 'set-A=0=1'"):
        Scm((("U1", unit), ("U2", unit)), endogenous, {"A=0": (), "A": ()}, functions)


def test_default_value_is_rejected_by_the_scm():
    unit = FiniteSet("U", ("*",))
    with pytest.raises(ValueError, match="slot token 'default'"):
        Scm((("U1", unit),), (("V1", FiniteSet("V1", ("0", "default"))),),
            {"V1": ()}, {"V1": {("*",): "0"}})


# Seeds whose reversed declaration puts some child before one of its parents.
OUT_OF_ORDER_SEEDS = [0, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17]


@pytest.mark.parametrize("seed", OUT_OF_ORDER_SEEDS)
def test_out_of_order_declaration_is_solved_topologically(seed):
    scm = reversed_declaration(random_scm(seed))
    order = scm.endo_ids
    assert any(order.index(p) > order.index(v) for v in order for p in scm.parents[v])
    model = encode_scm(scm)
    for state, outcome in model.process.table.items():
        slots, u = decode_state(scm, state)
        (response,) = brute_force_response(scm, slots, u)
        assert outcome.split(SEP) == list(u.values()) + list(response.values())
    report = verify_scm_laws(model, scm)
    assert report.ok and report == reference_verify_scm_laws(model, scm)


def test_encoded_generator_tables(xor_scm):
    model = encode_scm(xor_scm)
    init = model.generators["init"]
    for label in model.states.elements:
        slots, u = decode_state(xor_scm, label)
        target_slots, target_u = decode_state(xor_scm, init.table[label])
        assert target_u == u
        assert set(target_slots.values()) == {DEFAULT_SLOT}
    setter = model.generators[set_label("V1", "1")]
    for label in model.states.elements:
        slots, u = decode_state(xor_scm, label)
        new_slots, new_u = decode_state(xor_scm, setter.table[label])
        assert new_u == u
        assert new_slots["V1"] == "1"
        assert new_slots["V2"] == slots["V2"]


def test_init_twice_equals_once(xor_scm):
    model = encode_scm(xor_scm)
    init = model.generators["init"]
    assert init.after(init) == init


def test_encoded_outcome_example(xor_scm):
    # word (set-V1=0, init): init first, then the intervention; from any
    # state with u = (1, 1) the outcome is (u=(1,1), V1=0, V2=1)
    model = encode_scm(xor_scm)
    word_map = model.generators[set_label("V1", "0")].after(model.generators["init"])
    for label in model.states.elements:
        slots, u = decode_state(xor_scm, label)
        if u != {"U1": "1", "U2": "1"}:
            continue
        outcome = model.process.table[word_map.table[label]]
        assert outcome == SEP.join(["1", "1", "0", "1"])


def test_init_establishes_default_context(xor_scm):
    # after init, the outcome on each u-fiber matches the unintervened
    # SCM solution
    model = encode_scm(xor_scm)
    init = model.generators["init"]
    defaults = {vid: DEFAULT_SLOT for vid in xor_scm.endo_ids}
    for label in model.states.elements:
        _, u = decode_state(xor_scm, label)
        outcome = model.process.table[init.table[label]]
        response = recursive_response(xor_scm, defaults, u)
        expected = SEP.join(
            [u[uid] for uid in xor_scm.exo_ids]
            + [response[vid] for vid in xor_scm.endo_ids]
        )
        assert outcome == expected


def test_laws_hold_for_xor(xor_scm):
    model = encode_scm(xor_scm)
    report = verify_scm_laws(model, xor_scm)
    assert report.ok
    assert not report.violations
    assert dict(report.checked)["commute"] == 4


def test_laws_hold_single_variable():
    scm = Scm(
        (("U1", binary("U1")),),
        (("V1", binary("V1")),),
        {"V1": ()},
        {"V1": {("0",): "1", ("1",): "0"}},
    )
    report = verify_scm_laws(encode_scm(scm), scm)
    assert report.ok
    assert dict(report.checked)["commute"] == 0  # vacuous with one variable


def test_law_five_catches_leaky_intervention(xor_scm):
    # adversarial model: set-V1=1 also overwrites the V2 slot, so the V2
    # default mechanism is not invariant under it
    model = encode_scm(xor_scm)
    label = set_label("V1", "1")
    leaky = {}
    for state in model.states.elements:
        parts = state.split(SEP)
        parts[0] = "1"
        parts[1] = "0"  # leaks into M_2
        leaky[state] = SEP.join(parts)
    gens = dict(model.generators)
    gens[label] = TotalMap(model.states, model.states, leaky)
    from causalground.core import ActionModel

    bad_model = ActionModel(model.states, model.outcomes, gens, model.process)
    report = verify_scm_laws(bad_model, xor_scm)
    assert not report.ok
    laws = {v.law for v in report.violations}
    assert "determination-invariance" in laws
    named = [v for v in report.violations if v.law == "determination-invariance"]
    assert all(v.state is not None for v in named)


def test_laws_reject_a_model_of_other_generators(xor_scm):
    model = encode_scm(xor_scm)
    other = Scm(
        (("U1", binary("U1")),),
        (("V1", binary("V1")),),
        {"V1": ()},
        {"V1": {("0",): "0", ("1",): "1"}},
    )
    with pytest.raises(ValueError, match="do not match the SCM encoding"):
        verify_scm_laws(model, other)


def test_laws_compose_each_label_image_once(xor_scm, monkeypatch):
    # init is the context of every variable's default mechanism: its
    # image is built once, not once per variable
    built = []

    def counting_image(model, word):
        built.append(tuple(word))
        return _Image(model, word)

    monkeypatch.setattr(scm_module, "_Image", counting_image)
    model = encode_scm(xor_scm)
    assert verify_scm_laws(model, xor_scm).ok
    labels = sorted((label,) for label in model.generators if label != "id")
    assert sorted(built) == labels


def test_law_four_matches_generic_checker(xor_scm):
    # law 4 holds exactly when the generic determination checker finds the
    # mechanism's parents and noise determining its variable after init
    model = encode_scm(xor_scm)
    report = verify_scm_laws(model, xor_scm)
    assert report.ok
    for vid in xor_scm.endo_ids:
        dom = (xor_scm.noise_id(vid),) + xor_scm.parents[vid]
        result = check_determination(model, ("init",), dom, (vid,))
        assert result.holds


def test_commute_of_encoded_setters(xor_scm):
    model = encode_scm(xor_scm)
    assert check_commute(model, set_label("V1", "0"), set_label("V2", "1")).holds


def test_default_records_and_surgical(xor_scm):
    model = encode_scm(xor_scm)
    records = default_mechanism_records(xor_scm, model)
    by_target = {r.target: r for r in records}
    assert by_target["V1"].parents == ("U1",)
    assert by_target["V2"].parents == ("U2", "V1")
    assert set(by_target["V1"].invariant_under) == {
        "id", "init", "set-V2=0", "set-V2=1"
    }
    verdict = check_surgical(model, set_label("V2", "1"), records, ("init",))
    assert verdict.surgical
    assert verdict.target == "V2"
    assert verdict.new_mechanism.parents == ()
    assert verdict.broken == ("V2~(U2,V1)",)


def test_random_scm_acyclic_and_seeded():
    for seed in range(30):
        scm = random_scm(seed)
        assert len(scm.topo_order) == len(scm.endo_ids)
        for i, vid in enumerate(scm.endo_ids):
            earlier = set(scm.endo_ids[:i])
            assert set(scm.parents[vid]) <= earlier
    assert scm_to_dict(random_scm(123)) == scm_to_dict(random_scm(123))


def test_random_scm_seed_42_golden():
    # frozen via the stdlib Mersenne Twister, stable across runs and platforms
    blob = json.dumps(scm_to_dict(random_scm(42)), sort_keys=True)
    import hashlib

    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "a24d21f11bec7a659a79ce49b10434699858ebcc2c9fd660a5abd983cffa5d21"
    )


def test_singleton_random_scm():
    scm = random_scm(0, n_endo=1)
    assert len(scm.endo_ids) == 1
    model = encode_scm(scm)
    assert verify_scm_laws(model, scm).ok


def with_generator(model, label, table):
    """The model with one generator's table replaced."""
    gens = dict(model.generators)
    gens[label] = TotalMap(model.states, model.states, table)
    return ActionModel(model.states, model.outcomes, gens, model.process)


def sabotage(model, label, edit):
    """The model with one generator's targets rewritten by ``edit``.

    ``edit(source, target)`` gets the split labels (slots, then noise
    values) of each state and of its target, and changes the target in
    place.
    """
    table = {}
    for state, target in model.generators[label].table.items():
        parts = target.split(SEP)
        edit(state.split(SEP), parts)
        table[state] = SEP.join(parts)
    return with_generator(model, label, table)


def _keep_v1_one(source, parts):
    # set-V1=0 forgets to overwrite an earlier set-V1=1
    if source[0] == "1":
        parts[0] = "1"


def _reset_v1(source, parts):
    # set-V2=1 also hands V1 back to its structural function
    parts[1] = "1"
    parts[0] = DEFAULT_SLOT


def _flip_u1(source, parts):
    parts[2] = "1" if parts[2] == "0" else "0"


def _init_pins_v1(source, parts):
    # init leaves V1 intervened to 1 instead of resetting it
    parts[0] = "1"


def _leak_into_v2(source, parts):
    parts[1] = "0"


@pytest.mark.parametrize(
    "label, edit, law, subject",
    [
        ("set-V2=1", _reset_v1, "commute", "set-V1=0 vs set-V2=1"),
        ("set-V1=0", _keep_v1_one, "overwrite", "set-V1=0 after set-V1=1"),
        ("init", _flip_u1, "u-invariant", "init"),
        ("init", _init_pins_v1, "determination", "V1 after init"),
        ("set-V1=1", _leak_into_v2, "determination-invariance",
         "V2 after init, then set-V1=1"),
    ],
    ids=["commute", "overwrite", "u-invariant", "determination", "invariance"],
)
def test_sabotaged_law_is_caught(xor_scm, label, edit, law, subject):
    model = sabotage(encode_scm(xor_scm), label, edit)
    report = verify_scm_laws(model, xor_scm)
    assert not report.ok
    assert any(v.law == law and v.subject == subject for v in report.violations)
    assert report == reference_verify_scm_laws(model, xor_scm)


@pytest.mark.parametrize("seed", range(60))
def test_laws_match_reference(seed):
    scm = random_scm(seed)
    model = encode_scm(scm)
    report = verify_scm_laws(model, scm)
    assert report == reference_verify_scm_laws(model, scm)
    assert report.ok
    # redirect a few entries of one generator to random states, so the
    # violations and their states are compared too
    rng = random.Random(seed)
    label = rng.choice(sorted(set(model.generators) - {"id"}))
    table = dict(model.generators[label].table)
    for state in rng.sample(model.states.elements, 3):
        table[state] = rng.choice(model.states.elements)
    broken = with_generator(model, label, table)
    assert verify_scm_laws(broken, scm) == reference_verify_scm_laws(broken, scm)


def test_naming_a_state_builds_no_state_labels():
    # The encoded state set is a product.  A failing commute, a failing
    # determination and the law suite name their states through ``label``:
    # the labels are never built, and every name equals the one the same
    # check gives on a copy whose state set holds the eagerly joined labels.
    scm = random_scm(7)
    model = encode_scm(scm)
    states = model.states
    n = len(states)
    init = model.generators["init"]._codes[: n // 2] + [n - 1] * (n - n // 2)
    gens = {**model.generators, "init": TotalMap._of(states, states, init)}
    broken = ActionModel(states, model.outcomes, gens, model.process)
    labels = product(*(dom.elements for dom in states.domains))
    joined = FiniteSet("J", tuple(map(SEP.join, labels)))

    def eager(m):
        gens = {a: TotalMap._of(joined, joined, g._codes) for a, g in m.generators.items()}
        process = TotalMap._of(joined, m.outcomes.total, m.process._codes)
        return ActionModel(joined, m.outcomes, gens, process)

    query = (("set-V1=1",), ("U1", "V1"), ("V2",))
    for m, e in ((model, eager(model)), (broken, eager(broken))):
        assert check_commute(m, "init", "set-V2=1") == check_commute(e, "init", "set-V2=1")
        assert check_determination(m, *query) == check_determination(e, *query)
        assert verify_scm_laws(m, scm) == verify_scm_laws(e, scm)
    assert not check_commute(model, "init", "set-V2=1").holds
    assert not check_determination(model, *query).holds
    assert {v.state for v in verify_scm_laws(broken, scm).violations} - {joined.label(0)}
    assert "elements" not in vars(states)
