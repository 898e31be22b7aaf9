import dataclasses
import random
from itertools import product

import pytest

from causalground.checkers import check_determination
from causalground.core import (
    SEP,
    ActionModel,
    EnumerationLimitError,
    FactoredSpace,
    FiniteSet,
    MapTableError,
    TotalMap,
    UnknownLabelError,
    UnknownVariableError,
    compose,
    max_table_entries,
    outcome_map,
    unit_set,
)
from oracles import (
    projection,
    projection_between,
    random_action_model,
    random_word,
    reference_project,
)


def test_finite_set_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        FiniteSet("S", ("a", "a"))
    with pytest.raises(ValueError):
        FiniteSet("S", ())


def test_unit_set_is_a_singleton():
    one = unit_set()
    assert len(one) == 1


def test_total_map_validation():
    s = FiniteSet("S", ("a", "b"))
    t = FiniteSet("T", ("x",))
    missing = "map 'S' -> 'T' is not total: missing entry for {!r}"
    outside = "map 'S' -> 'T' has an entry outside its domain: {!r}"
    sends = "map 'S' -> 'T' sends {!r} to {!r}, which is not in the codomain"
    cases = [
        ({"a": "x"}, "b", missing.format("b")),
        ({"a": "x", "b": "y"}, "b", sends.format("b", "y")),
        ({"a": "x", "b": "x", "c": "x"}, "c", outside.format("c")),
        # A missing entry is reported before an entry outside the domain,
        # and that before a value outside the codomain.
        ({"c": "y", "b": "y"}, "a", missing.format("a")),
        ({"a": "y", "b": "x", "c": "x"}, "c", outside.format("c")),
        # Bad values are reported in table order, not domain order.
        ({"b": "z", "a": "y"}, "b", sends.format("b", "z")),
    ]
    for table, element, message in cases:
        with pytest.raises(MapTableError) as err:
            TotalMap(s, t, table)
        assert (err.value.element, str(err.value)) == (element, message), table


def test_total_map_over_a_one_element_domain():
    # A one-key gather yields the bare value, not a 1-tuple: a tuple value
    # must not be read as a row of two entries.
    o, t = FiniteSet("O", ("o",)), FiniteSet("T", ("x", "y"))
    m = TotalMap(o, t, {"o": "y"})
    assert (m._codes, m.table, m("o")) == ([1], {"o": "y"}, "y")
    cases = [
        ({}, "o", "map 'O' -> 'T' is not total: missing entry for 'o'"),
        ({"p": "x"}, "o", "map 'O' -> 'T' is not total: missing entry for 'o'"),
        ({"o": "x", "p": "x"}, "p", "map 'O' -> 'T' has an entry outside its domain: 'p'"),
        ({"o": "z"}, "o", "map 'O' -> 'T' sends 'o' to 'z', which is not in the codomain"),
        ({"o": ("x", "y")}, "o",
         "map 'O' -> 'T' sends 'o' to ('x', 'y'), which is not in the codomain"),
    ]
    for table, element, message in cases:
        with pytest.raises(MapTableError) as err:
            TotalMap(o, t, table)
        assert (err.value.element, str(err.value)) == (element, message), table


def test_built_map_does_not_alias_its_label_table():
    s, t = FiniteSet("S", ("x", "y")), FiniteSet("T", ("0", "1"))
    table = {"x": "0", "y": "1"}
    m = TotalMap(s, t, table)
    table["x"] = "zzz"
    table["w"] = "1"
    assert m("x") == "0"
    assert m.table == {"x": "0", "y": "1"}
    assert m.image() == ["0", "1"]
    assert m == TotalMap(s, t, {"x": "0", "y": "1"})
    assert m != TotalMap(s, t, {"x": "1", "y": "1"})
    with pytest.raises(KeyError):
        m("w")


def test_map_composition_and_image():
    s = FiniteSet("S", ("a", "b"))
    swap = TotalMap(s, s, {"a": "b", "b": "a"})
    const = TotalMap.constant(s, s, "a")
    assert swap.after(const).table == {"a": "b", "b": "b"}
    assert TotalMap.identity(s).image() == ["a", "b"]
    assert const.image() == ["a"]
    assert not const.is_surjective()
    assert swap.is_surjective()


def test_factored_space_total_and_projections():
    space = FactoredSpace(
        (("p", FiniteSet("p", ("0", "1"))), ("q", FiniteSet("q", ("a", "b"))))
    )
    assert space.total.elements == ("0|a", "0|b", "1|a", "1|b")
    pi_p = projection(space, ("p",))
    assert pi_p.table["1|a"] == "1"
    pi_empty = projection(space, ())
    assert set(pi_empty.table.values()) == {"*"}
    assert pi_empty.codomain == unit_set()
    with pytest.raises(UnknownVariableError):
        projection(space, ("nope",))


def test_separator_rejected_in_variable_values():
    with pytest.raises(ValueError):
        FactoredSpace((("p", FiniteSet("p", (f"a{SEP}b",))),))


def test_columns_enumerate_total_as_the_product_on_random_spaces():
    # mixed radices, 0-4 variables; each variable has its own value labels,
    # so a value in another variable's column is outside its domain.  The
    # reference is the product of the domains, the last variable fastest.
    rng = random.Random(17)
    for _ in range(40):
        space = FactoredSpace(tuple(
            (f"v{i}", FiniteSet(f"v{i}", tuple(f"{i}.{k}" for k in range(rng.randint(1, 4)))))
            for i in range(rng.randint(0, 4))
        ))
        rows = list(product(*(dom.elements for _, dom in space.variables)))
        total = space.total
        assert total.elements == tuple(SEP.join(row) or "*" for row in rows)
        columns = space._columns()
        assert list(columns) == list(space.var_ids)
        assert [tuple(column) for column in columns.values()] == list(zip(*rows))
        assert space._code(list(columns.values())) == list(range(len(total)))
        if not space.variables:
            continue
        order = list(range(len(total)))
        rng.shuffle(order)
        shuffled = [[column[k] for k in order] for column in columns.values()]
        assert space._code(shuffled) == order
        bad = [list(column) for column in shuffled]
        bad[rng.randrange(len(bad))][rng.randrange(len(total))] = "outside"
        with pytest.raises(KeyError):
            space._code(bad)
        if len(shuffled) > 1:  # columns in the wrong variable order
            with pytest.raises(KeyError):
                space._code(shuffled[::-1])


def test_code_checks_the_one_value_variables_it_skips():
    # a one-value variable adds nothing to a code, but its values are checked
    space = FactoredSpace((
        ("a", FiniteSet("a", ("0", "1"))),
        ("u", FiniteSet("u", ("k",))),
        ("w", FiniteSet("w", ("k",))),
    ))
    assert space._code([["1", "0"], ["k", "k"], ["k", "k"]]) == [1, 0]
    with pytest.raises(KeyError) as err:
        space._code([["1", "0"], ["k", "k"], ["k", "z"]])
    assert err.value.args == ("z",)


def test_projection_coherence_random_spaces():
    # pi^J_I . pi_J = pi_I for all I subset of J, spaces of up to 4 variables
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 4)
        variables = tuple(
            (f"v{i}", FiniteSet(f"v{i}", tuple(str(k) for k in range(rng.randint(1, 3)))))
            for i in range(n)
        )
        space = FactoredSpace(variables)
        ids = space.var_ids
        subsets = [
            tuple(v for k, v in enumerate(ids) if mask >> k & 1)
            for mask in range(2**n)
        ]
        for big in subsets:
            for small in subsets:
                if not set(small) <= set(big):
                    continue
                lhs = projection_between(space, big, small).after(projection(space, big))
                assert lhs == projection(space, small)


def random_factored_model(seed: int) -> ActionModel:
    """1-4 variables with 1-3 values each, a random process and generator."""
    rng = random.Random(seed)
    space = FactoredSpace(tuple(
        (f"v{i}", FiniteSet(f"v{i}", tuple(str(k) for k in range(rng.randint(1, 3)))))
        for i in range(rng.randint(1, 4))
    ))
    states = FiniteSet("X", tuple(f"x{i}" for i in range(rng.randint(1, 8))))
    process = TotalMap(
        states, space.total, {x: rng.choice(space.total.elements) for x in states.elements}
    )
    step = TotalMap(states, states, {x: rng.choice(states.elements) for x in states.elements})
    return ActionModel(states, space, {"g": step}, process)


def test_projections_match_split_join_reference():
    for seed in range(40):
        model = random_factored_model(seed)
        space = model.outcomes
        ids = space.var_ids
        subsets = [
            tuple(v for k, v in enumerate(ids) if mask >> k & 1)
            for mask in range(2 ** len(ids))
        ]
        for small in subsets:
            # declared order, reversed order, and every id given twice
            for request in (small, small[::-1], small + small):
                target = space.subspace(small).total
                pi = projection(space, request)
                assert pi.codomain == target
                assert pi.table == {
                    e: reference_project(space, e, request) for e in space.total.elements
                }
                for e in space.total.elements:
                    assert space.project_element(e, request) == pi.table[e]
                for word in ((), ("g",), ("g", "g")):
                    do = compose(model, word).table
                    o = outcome_map(model, word, request)
                    assert o.codomain == target
                    assert o.table == {
                        x: reference_project(space, model.process.table[do[x]], request)
                        for x in model.states.elements
                    }
                for big in subsets:
                    if not set(small) <= set(big):
                        continue
                    source = space.subspace(big)
                    between = projection_between(space, big[::-1] + big, request)
                    assert between.domain == source.total
                    assert between.codomain == target
                    assert between.table == {
                        e: reference_project(source, e, request)
                        for e in source.total.elements
                    }
        assert outcome_map(model, ("g",), None) == outcome_map(model, ("g",), ids[::-1])
        message = f"unknown variable id 'nope' (known: {', '.join(ids)})"
        calls = (
            lambda: projection(space, ids[:1] + ("nope",)),
            lambda: space.project_element(space.total.elements[0], ("nope",)),
            lambda: projection_between(space, ids, ("nope",)),
            lambda: outcome_map(model, (), ("nope",) + ids),
        )
        for call in calls:
            with pytest.raises(UnknownVariableError) as err:
                call()
            assert str(err.value) == message


def test_enumeration_guardrail(monkeypatch):
    monkeypatch.setenv("CAUSAL_GROUND_MAX_TABLE", "10")
    assert max_table_entries() == 10
    with pytest.raises(EnumerationLimitError):
        FiniteSet("big", tuple(str(i) for i in range(11)))
    # A space's total is a view: it is counted when its labels are built,
    # on first read of its elements, not when it is made.  Naming and
    # finding one element builds nothing.
    domain = FiniteSet("d", tuple(str(i) for i in range(4)))
    space = FactoredSpace((("a", domain), ("b", domain)))
    total = space.total
    assert len(total) == 16
    assert repr(total).startswith("_Product(id='axb', domains=")
    assert total.label(6) == "1|2" and total.position("1|2") == 6
    assert "3|3" in total and "3|4" not in total
    assert "elements" not in vars(total)
    with pytest.raises(EnumerationLimitError):
        total.elements
    # tables as long as the total are counted before they are built
    with pytest.raises(EnumerationLimitError, match="total set would need 16 table"):
        space._columns()
    monkeypatch.setenv("CAUSAL_GROUND_MAX_TABLE", "bogus")
    with pytest.raises(EnumerationLimitError):
        max_table_entries()


def test_a_determination_witness_is_counted_before_it_is_built(monkeypatch):
    # 4 states, 5 binary outcome variables: v1..v5 -> v1 holds, and its
    # witness has one entry per joint outcome, 32
    ids = tuple(f"v{k}" for k in range(1, 6))
    space = FactoredSpace(tuple((v, FiniteSet(v, ("0", "1"))) for v in ids))
    states = FiniteSet("X", ("s0", "s1", "s2", "s3"))
    process = {x: space.total.elements[7 * k] for k, x in enumerate(states.elements)}
    model = ActionModel(states, space, {}, TotalMap(states, space.total, process))
    assert len(check_determination(model, (), ids, ("v1",)).witness.codomain) == 2
    monkeypatch.setenv("CAUSAL_GROUND_MAX_TABLE", "10")
    with pytest.raises(EnumerationLimitError, match="witness would need 32 table"):
        check_determination(model, (), ids, ("v1",))


def test_a_product_compares_and_hashes_without_building_its_labels():
    a, b = FiniteSet("a", ("0", "1")), FiniteSet("b", ("x", "y", "z"))
    total = FactoredSpace((("a", a), ("b", b))).total
    plain = FiniteSet("p", tuple(map(SEP.join, product(a.elements, b.elements))))
    other = FiniteSet("q", plain.elements[:-1] + (SEP.join(("1", "w")),))
    assert total == plain and plain == total and hash(total) == hash(plain)
    assert total != other and other != total
    assert total == FactoredSpace((("c", a), ("d", b))).total
    assert total != FactoredSpace((("b", b), ("a", a))).total
    assert "elements" not in vars(total) and "_positions" not in vars(total)


def test_a_set_is_unequal_to_a_string_or_a_tuple_of_its_labels():
    plain = FiniteSet("a", ("0", "1"))
    total = FactoredSpace((("a", plain), ("b", plain))).total
    for s in (plain, total):
        labels = tuple(map(s.label, range(len(s))))
        for other in (labels, labels[0], SEP.join(labels)):
            assert s != other and other != s
            assert not s == other and not other == s


def test_model_synthesizes_identity(pair_model):
    assert "id" in pair_model.generators
    assert pair_model.generators["id"] == TotalMap.identity(pair_model.states)


def test_equality_ignores_set_ids_and_kept_caches(pair_model, xor_scm):
    a, b = FiniteSet("A", ("0", "1")), FiniteSet("B", ("0", "1"))
    assert a == b and hash(a) == hash(b)
    space = FactoredSpace((("p", a), ("q", b)))
    space.subspace(("q",))
    assert space._subspaces and space == FactoredSpace((("p", b), ("q", a)))
    # ``replace`` starts the kept image empty: the premise of every
    # "fresh copy" cross-check in the oracle and metamorphic tests
    check_determination(pair_model, ("const",), (), ("v1",))
    assert pair_model._last_image is not None
    fresh = dataclasses.replace(pair_model)
    assert fresh._last_image is None and fresh == pair_model
    for value in (TotalMap.identity(a), space, pair_model, xor_scm):
        with pytest.raises(TypeError):
            hash(value)


def test_model_rejects_wrong_identity():
    states = FiniteSet("X", ("x1", "x2"))
    space = FactoredSpace((("v", FiniteSet("v", ("0",))),))
    process = TotalMap.constant(states, space.total, "0")
    bad_id = TotalMap(states, states, {"x1": "x2", "x2": "x1"})
    with pytest.raises(ValueError):
        ActionModel(states, space, {"id": bad_id}, process)


_S, _T = FiniteSet("S", ("a", "b")), FiniteSet("T", ("x",))
_PQ = FactoredSpace((("p", FiniteSet("p", ("0", "1"))), ("q", FiniteSet("q", ("a", "b")))))


def _model(generators, process=None):
    process = process or TotalMap.constant(_S, _PQ.total, "0|a")
    return ActionModel(_S, _PQ, generators, process)


@pytest.mark.parametrize(
    "make, error, message",
    [
        # words are written comma-joined, so a record's probe "a,b" would split
        (lambda: _model({"a,b": TotalMap.identity(_S), "c": TotalMap.identity(_S)}),
         ValueError, "generator label 'a,b' must not contain ','"),
        (lambda: _model({"g": TotalMap.constant(_S, _T, "x")}),
         ValueError, "generator 'g' must map states to states, got 'S' -> 'T'"),
        (lambda: _model({"g": TotalMap.constant(_T, _S, "a")}),
         ValueError, "generator 'g' must map states to states, got 'T' -> 'S'"),
        (lambda: _model({}, TotalMap.constant(_T, _PQ.total, "0|a")),
         ValueError, "process domain must be the state set"),
        (lambda: _model({}, TotalMap.constant(_S, _T, "x")),
         ValueError, "process codomain must be the outcome set"),
        (lambda: TotalMap.identity(_S).after(TotalMap.identity(_T)),
         ValueError, "cannot compose: 'T'->'T' then 'S'->'S'"),
        (lambda: TotalMap.constant(_S, _T, "y"),
         ValueError, "constant value 'y' not in 'T'"),
        (lambda: _PQ.domain_of("r"), UnknownVariableError,
         "unknown variable id 'r' (known: p, q)"),
        # a non-element is not projected, though it splits into two values
        (lambda: _PQ.project_element("1|c", ("p",)), ValueError,
         "'1|c' is not an element of 'pxq'"),
    ],
    ids=["comma-generator-label", "generator-codomain", "generator-domain",
         "process-domain", "process-codomain", "after-mismatch", "constant-outside",
         "unknown-domain-of", "project-non-element"],
)
def test_constructor_rejects_a_broken_rule(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message


def test_compose_empty_word_is_identity(pair_model):
    assert compose(pair_model, ()) == TotalMap.identity(pair_model.states)


def test_compose_constant_idempotent(pair_model):
    once = compose(pair_model, ("const",))
    twice = compose(pair_model, ("const", "const"))
    assert once == twice


def test_compose_rightmost_first(pair_model):
    # word (swap, const): const first, then swap, so everything lands on x2
    composed = compose(pair_model, ("swap", "const"))
    assert composed.table == {"x1": "x2", "x2": "x2"}


def test_compose_unknown_label(pair_model):
    with pytest.raises(UnknownLabelError) as err:
        compose(pair_model, ("nope",))
    assert "nope" in str(err.value)


def test_outcome_map_trivial_cases(pair_model):
    assert outcome_map(pair_model, ()) == pair_model.process
    empty = outcome_map(pair_model, (), ())
    assert set(empty.table.values()) == {"*"}


def test_outcome_map_projects(pair_model):
    o1 = outcome_map(pair_model, (), ("v1",))
    assert o1.table == {"x1": "0", "x2": "1"}
    o2 = outcome_map(pair_model, ("swap",), ("v2",))
    assert o2.table == {"x1": "1", "x2": "0"}


def test_context_of(pair_model):
    assert compose(pair_model, ()).image() == list(pair_model.states.elements)
    assert compose(pair_model, ("const",)).image() == ["x1"]


def test_composition_is_functorial_on_random_models():
    # compose(u + v) equals compose(u) . compose(v), and word concatenation
    # is associative at the table level
    rng = random.Random(11)
    for seed in range(30):
        model = random_action_model(seed)
        u = random_word(rng, model)
        v = random_word(rng, model)
        w = random_word(rng, model)
        assert compose(model, u + v) == compose(model, u).after(compose(model, v))
        assert compose(model, (u + v) + w) == compose(model, u + (v + w))


def test_identity_laws_on_random_models():
    rng = random.Random(13)
    for seed in range(20):
        model = random_action_model(seed)
        w = random_word(rng, model)
        assert compose(model, w + ("id",)) == compose(model, w)
        assert compose(model, ("id",) + w) == compose(model, w)


def test_image_monotonicity_on_random_models():
    # precomposition can only shrink the set of possible outcomes
    for seed in range(40):
        model = random_action_model(seed)
        labels = sorted(model.generators)
        for a in labels:
            base = set(outcome_map(model, (a,)).image())
            for b in labels:
                assert set(outcome_map(model, (a, b)).image()) <= base
