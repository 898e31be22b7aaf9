import json
import os
import weakref

import pytest

from causalground import dominoes, io as cgio
from causalground.abstraction import check_naturality
from causalground.checkers import (
    check_determination,
    check_effectiveness,
    discover_mechanisms,
)
from causalground.cli import run
from causalground.dominoes import (
    build_bounded_model,
    five_chain_family,
    four_chain_family,
    three_chain_family,
)
from causalground.io import (
    SchemaError,
    dump_json,
    family_from_dict,
    load_family,
    load_model,
    load_morphism,
    load_scm,
    model_from_dict,
    records_from_dict,
    scm_from_dict,
    serialize,
    to_json,
    witness_from_dict,
)
from causalground.scm import encode_scm, verify_scm_laws
from oracles import join_values, scm_to_dict

DATA = os.path.join(os.path.dirname(__file__), "data")


def data_path(name):
    return os.path.join(DATA, name)


def base_model_dict():
    with open(data_path("model_pair.json")) as fh:
        return json.load(fh)


def test_model_round_trip():
    model = load_model(data_path("model_pair.json"))
    assert model.states.elements == ("x1", "x2")
    assert model.outcomes.var_ids == ("v1", "v2")
    assert "id" in model.generators  # synthesized
    again = model_from_dict(json.loads(to_json(model)))
    assert again == model


def test_model_missing_process_entry_names_key():
    data = base_model_dict()
    del data["process"]["x2"]
    with pytest.raises(SchemaError) as err:
        model_from_dict(data, "broken.json")
    assert err.value.path == "process.x2"
    assert "broken.json" in str(err.value)


def test_model_non_total_generator_names_key():
    data = base_model_dict()
    del data["generators"]["swap"]["x1"]
    with pytest.raises(SchemaError) as err:
        model_from_dict(data, "broken.json")
    assert err.value.path == "generators.swap.x1"


def test_model_generator_label_with_comma_rejected():
    # words are comma-joined in mechanism records, so "s,w" would split
    data = base_model_dict()
    data["generators"]["s,w"] = data["generators"].pop("swap")
    with pytest.raises(SchemaError) as err:
        model_from_dict(data, "broken.json")
    assert err.value.path == "generators.s,w"


def test_model_value_outside_domain():
    data = base_model_dict()
    data["process"]["x1"] = ["0", "7"]
    with pytest.raises(SchemaError) as err:
        model_from_dict(data)
    assert err.value.path == "process.x1"


@pytest.mark.parametrize(
    "row, path, reason",
    [
        (["1", "z"], "process.x2",
         "map 'X' -> 'v1xc' sends 'x2' to '1|z', which is not in the codomain"),
        (["1", ["k"]], "process.x2[1]", "expected a string"),
    ],
    ids=["foreign-value", "non-string-value"],
)
def test_model_one_value_variable_outside_its_domain(row, path, reason):
    # the loader's codec skips a one-value variable's pass but not its check
    data = base_model_dict()
    data["variables"][1] = {"id": "c", "values": ["k"]}
    data["process"] = {"x1": ["0", "k"], "x2": row}
    with pytest.raises(SchemaError) as err:
        model_from_dict(data, "m.json")
    assert (err.value.path, err.value.reason) == (path, reason)


def test_model_bad_identity_rejected():
    data = base_model_dict()
    data["generators"]["id"] = {"x1": "x2", "x2": "x1"}
    with pytest.raises(SchemaError) as err:
        model_from_dict(data)
    assert err.value.path == "generators.id"


@pytest.mark.parametrize(
    "states, path, reason",
    [
        ("x1", "states", "expected a list of strings"),
        ({"x1": 0}, "states", "expected a list of strings"),
        (["x1", 2, None], "states[1]", "expected a string"),
        (["x1", "x2", ["x3"]], "states[2]", "expected a string"),
        (["x1", True], "states[1]", "expected a string"),
        ([], "states", "finite set 'X' must not be empty"),
        (["x1", "x1"], "states", "finite set 'X' has duplicate elements"),
    ],
    ids=["string", "object", "int", "list", "bool", "empty", "repeated"],
)
def test_model_bad_states_named_at_the_first_bad_entry(states, path, reason):
    data = base_model_dict()
    data["states"] = states
    with pytest.raises(SchemaError) as err:
        model_from_dict(data, "m.json")
    assert str(err.value) == f"m.json: at {path}: {reason}"


def test_model_missing_file():
    with pytest.raises(SchemaError) as err:
        load_model(data_path("no_such.json"))
    assert "file not found" in err.value.reason


def test_scm_round_trip_and_padding(xor_scm):
    scm = load_scm(data_path("scm_xor.json"))
    assert scm == xor_scm
    assert scm_from_dict(scm_to_dict(scm)) == scm
    # fewer exogenous entries than endogenous: padded with unit sets
    data = scm_to_dict(scm)
    data["exogenous"] = data["exogenous"][:1]
    data["endogenous"][1]["function_table"] = {"0|*": "0", "1|*": "1"}
    padded = scm_from_dict(data)
    assert padded.exo_ids == ("U1", "U_V2")
    assert padded.noise_of("V2").elements == ("*",)
    # the all-default state with u = (1, *) solves to V1 = V2 = 1
    assert encode_scm(padded).process("default|default|1|*") == "1|*|1|1"


def test_scm_bad_function_key():
    data = scm_to_dict(load_scm(data_path("scm_xor.json")))
    data["endogenous"][1]["function_table"] = {"0": "0"}
    with pytest.raises(SchemaError) as err:
        scm_from_dict(data, "scm.json")
    assert "function_table" in err.value.path


def test_family_layout_from_present_barriers_and_push():
    layout = {"present": {"d1": "0", "d2": "0"}, "barriers": [1], "push": ["d1", "E"]}
    spec = {"length": 3, "ids": ["d1", "d2"], "barrier_edges": [1],
            "layouts": {"set": layout}}
    family = family_from_dict({"family": spec}, "f.json")
    assert dict(family.layouts)["set"] == "00/b1/pd1E"
    _, abstract, _ = build_bounded_model(family)
    # from any state, init-set then the process: d1 falls, the barrier
    # keeps d2 up
    result = check_effectiveness(abstract, ("init-set",), ("d1", "d2"))
    assert result.effective and result.value == "fallen-E|upright"
    for edit, path in (
        ({"push": ["d1"]}, "family.layouts.set.push"),
        ({"present": {"d9": "0"}}, "family.layouts.set"),
        # "-" marks an absent domino in a label, so it is no tag
        ({"present": {"d1": "-"}}, "family.layouts.set.present"),
        # a tag fills one row character: "00" and "" would join to the
        # valid row "00", with d2's tag taken from d1
        ({"present": {"d1": "00", "d2": ""}}, "family.layouts.set.present"),
        ({"present": {"d1": "00"}}, "family.layouts.set.present"),
        # edge 2 allows no barrier, and a label has no bit for it
        ({"barriers": [2]}, "family.layouts.set.barriers"),
        # a push id or direction the family lacks makes no state of it
        ({"push": ["d9", "E"]}, "family.layouts.set"),
        ({"push": ["d1", "Q"]}, "family.layouts.set"),
    ):
        spec["layouts"]["set"] = {**layout, **edit}
        with pytest.raises(SchemaError) as err:
            family_from_dict({"family": spec}, "f.json")
        assert err.value.path == path
    # a chain of two dominoes past a cap of one is no state either
    spec["layouts"]["set"], spec["max_dominoes"] = {"chain": 2}, 1
    with pytest.raises(SchemaError) as err:
        family_from_dict({"family": spec}, "f.json")
    assert err.value.path == "family.layouts.set"
    assert err.value.reason == "layout 'set' is not a state of the family"


def test_family_load_and_build():
    family = load_family(data_path("family_tiny.json"))
    assert family.ids == ("d1", "d2")
    assert dict(family.layouts)["pair"] == "00/b0/p-"
    micro, abstract, morphism = build_bounded_model(family)
    assert check_naturality(morphism).natural


def test_a_family_load_builds_one_state_view(monkeypatch):
    # the family checks its layouts against its own states; the loader
    # builds no view of them
    views = []
    init = dominoes._States.__init__
    monkeypatch.setattr(
        dominoes._States, "__init__", lambda self, *a: views.append(a) or init(self, *a)
    )
    family = load_family(data_path("family_tiny.json"))
    assert "00/b0/p-" in family.states
    assert len(views) == 1


def test_family_unknown_layout_shortcut():
    with pytest.raises(SchemaError) as err:
        family_from_dict({"family": {"length": 2, "ids": ["d1"],
                                     "layouts": {"x": {"bogus": 1}}}}, "f.json")
    assert err.value.path == "family.layouts.x"


def test_family_layouts_must_be_an_object():
    with pytest.raises(SchemaError) as err:
        family_from_dict({"family": {"length": 2, "ids": ["d1"],
                                     "layouts": [{"chain": 1}]}}, "f.json")
    assert err.value.path == "family.layouts"


def test_morphism_file_round_trip(tmp_path):
    family = load_family(data_path("family_tiny.json"))
    micro, abstract, morphism = build_bounded_model(family)
    dump_json(micro, tmp_path / "micro.json")
    dump_json(abstract, tmp_path / "abstract.json")
    dump_json(morphism, tmp_path / "morphism.json", "micro.json", "abstract.json")
    loaded = load_morphism(str(tmp_path / "morphism.json"))
    assert loaded.source == micro
    assert loaded.target == abstract
    assert loaded.state_map == morphism.state_map
    assert check_naturality(loaded).natural


def test_morphism_inline_models(tmp_path):
    family = load_family(data_path("family_tiny.json"))
    micro, abstract, morphism = build_bounded_model(family)
    dump_json(morphism, tmp_path / "inline.json")
    loaded = load_morphism(str(tmp_path / "inline.json"))
    assert check_naturality(loaded).natural


def test_morphism_missing_state_entry(tmp_path):
    family = load_family(data_path("family_tiny.json"))
    micro, abstract, morphism = build_bounded_model(family)
    data = json.loads(to_json(morphism))
    first = next(iter(data["state_map"]))
    del data["state_map"][first]
    dump_json(data, tmp_path / "bad.json")
    with pytest.raises(SchemaError) as err:
        load_morphism(str(tmp_path / "bad.json"))
    assert err.value.path.startswith("state_map.")


def test_witness_and_records_round_trip(pair_model):
    result = check_determination(pair_model, (), ("v1",), ("v2",))
    space = pair_model.outcomes
    dom = space.subspace(("v1",)).total
    cod = space.subspace(("v2",)).total
    loaded = witness_from_dict(
        {"table": dict(result.witness.table)}, dom, cod
    )
    assert loaded == result.witness
    with pytest.raises(SchemaError):
        witness_from_dict({"table": {"0": "0"}}, dom, cod)

    records = discover_mechanisms(pair_model, ("const",), max_parents=1)
    data = [serialize(r) for r in records]
    loaded_records = records_from_dict(data, pair_model)
    assert loaded_records == records


def test_record_parents_out_of_declared_order_are_rejected(tmp_path, capsys):
    # C = A.  A record listing its parents as B, A writes its map keys in
    # that order; read in the declared order A, B it would not hold.
    states = ["s00", "s01", "s10", "s11"]
    model = {
        "states": states,
        "variables": [{"id": v, "values": ["0", "1"]} for v in "ABC"],
        "process": {s: [s[1], s[2], s[1]] for s in states},
        "generators": {"g": {s: s for s in states}},
    }
    record = {"target": "C", "parents": ["B", "A"],
              "map": {"table": {"0|0": "0", "0|1": "1", "1|0": "0", "1|1": "1"}},
              "context": [], "invariant_under": [], "violated_by": []}
    model_path, records_path = str(tmp_path / "m.json"), str(tmp_path / "r.json")
    dump_json(model, model_path)
    argv = ["check-surgical", "--model", model_path, "--word", "g",
            "--mechanisms", records_path]
    dump_json([record], records_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"{records_path}: at [0].parents: parents must be distinct and in " \
        "declared order ['A', 'B']" in err
    # written in declared order, the record holds and survives g, which
    # breaks no mechanism, so g is not surgical
    record.update(parents=["A", "B"], map={"table": {"0|0": "0", "0|1": "0",
                                                     "1|0": "1", "1|1": "1"}})
    dump_json([record], records_path)
    assert run(argv) == 1
    assert "survived[0]: C~(A,B)" in capsys.readouterr().out


def test_scm_laws_after_file_round_trip(tmp_path, xor_scm):
    dump_json(scm_to_dict(xor_scm), tmp_path / "xor.json")
    scm = load_scm(str(tmp_path / "xor.json"))
    model = encode_scm(scm)
    assert verify_scm_laws(model, scm).ok


def _table_loaders(tmp_path, pair_model):
    """(name, valid table, load(table), JSON path of the table) for each
    loader that reads a map between finite sets."""
    space = pair_model.outcomes
    dom = space.subspace(("v1",)).total
    cod = space.subspace(("v2",)).total

    def generator(table):
        data = base_model_dict()
        data["generators"]["swap"] = table
        model_from_dict(data, "m.json")

    def state_map(table):
        data = {
            "source_model": base_model_dict(),
            "target_model": base_model_dict(),
            "state_map": table,
            "outcome_map": {e: e.split("|") for e in space.total.elements},
        }
        dump_json(data, tmp_path / "morphism.json")
        load_morphism(str(tmp_path / "morphism.json"))

    def witness(table):
        witness_from_dict({"table": table}, dom, cod, "w.json")

    def record_map(table):
        entry = {"target": "v2", "parents": ["v1"], "map": {"table": table}}
        records_from_dict([entry], pair_model, "r.json")

    return [
        ("generator", {"x1": "x2", "x2": "x1"}, generator, "generators.swap"),
        ("state_map", {"x1": "x1", "x2": "x2"}, state_map, "state_map"),
        ("witness", {"0": "0", "1": "1"}, witness, "table"),
        ("record map", {"0": "0", "1": "1"}, record_map, "[0].map.table"),
    ]


@pytest.mark.parametrize("value", [1, ["0"], None, {"0": "0"}])
def test_table_loaders_report_a_non_string_value_first(tmp_path, pair_model, value):
    # The last entry's value is not a string.  It is reported at its key,
    # also when the table misses its first entry, which comes earlier in
    # domain order.
    for name, table, load, path in _table_loaders(tmp_path, pair_model):
        first, last = list(table)
        for missing in (False, True):
            bad = {**table, last: value}
            if missing:
                del bad[first]
            with pytest.raises(SchemaError) as err:
                load(bad)
            assert (err.value.path, err.value.reason) == (
                f"{path}.{last}", "expected a string"
            ), (name, missing)
        with pytest.raises(SchemaError) as err:
            load({last: table[last]})
        assert err.value.path == f"{path}.{first}", name
        assert "missing entry" in err.value.reason, name


def _outcome_table_loaders(tmp_path):
    """(name, valid table, load(table), JSON path of the table, map name) for
    the two loaders that read tables of value rows: a model's ``process``
    and a morphism's ``outcome_map``.  In both, the first key's row is
    ["0", "0"] and the last key's row is ["1", "1"]."""

    def process(table):
        data = base_model_dict()
        data["process"] = table
        model_from_dict(data, "m.json")

    def outcome_map(table):
        data = {
            "source_model": base_model_dict(),
            "target_model": base_model_dict(),
            "state_map": {"x1": "x1", "x2": "x2"},
            "outcome_map": table,
        }
        # json.dumps keeps the table's key order, which the faults rely on
        (tmp_path / "morphism.json").write_text(json.dumps(data))
        load_morphism(str(tmp_path / "morphism.json"))

    rows = {y: y.split("|") for y in ("0|0", "0|1", "1|0", "1|1")}
    return [
        ("process", {"x1": ["0", "0"], "x2": ["1", "1"]}, process, "process",
         "'X' -> 'v1xv2'"),
        ("outcome_map", rows, outcome_map, "outcome_map", "'v1xv2' -> 'v1xv2'"),
    ]


def _without(table, key):
    return {k: v for k, v in table.items() if k != key}


# (fault, bad table from the valid table t and its first and last keys a
# and z, key the error names or "" for the table, reason).  The shape of
# every row is checked in file order before any fault of the map as a
# whole; the map's faults come in TotalMap's order.
OUTCOME_TABLE_FAULTS = [
    ("not-an-object", lambda t, a, z: [a], "", "expected an object"),
    ("row-not-a-list", lambda t, a, z: {**t, z: "1|1"}, "{z}",
     "expected a list of strings"),
    ("int-value", lambda t, a, z: {**t, z: ["1", 1]}, "{z}[1]", "expected a string"),
    ("null-value", lambda t, a, z: {**t, z: ["1", None]}, "{z}[1]",
     "expected a string"),
    ("nested-list-value", lambda t, a, z: {**t, z: ["1", ["1"]]}, "{z}[1]",
     "expected a string"),
    ("wrong-arity", lambda t, a, z: {**t, z: ["1"]}, "{z}", "expected 2 values, got 1"),
    ("missing-entry", lambda t, a, z: _without(t, z), "{z}",
     "map {map} is not total: missing entry for '{z}'"),
    ("extra-entry", lambda t, a, z: {**t, "x9": ["0", "0"]}, "x9",
     "map {map} has an entry outside its domain: 'x9'"),
    ("value-outside-domain", lambda t, a, z: {**t, z: ["1", "7"]}, "{z}",
     "map {map} sends '{z}' to '1|7', which is not in the codomain"),
    ("separator-in-a-value", lambda t, a, z: {**t, z: ["1|1", "1"]}, "{z}",
     "map {map} sends '{z}' to '1|1|1', which is not in the codomain"),
    ("codomain-faults-in-file-order",
     lambda t, a, z: {z: ["1", "7"], **_without(t, z), a: ["0", "9"]}, "{z}",
     "map {map} sends '{z}' to '1|7', which is not in the codomain"),
    ("shape-fault-after-codomain-fault",
     lambda t, a, z: {**t, a: ["0", "7"], z: ["1"]}, "{z}",
     "expected 2 values, got 1"),
    ("shape-fault-after-missing-entry", lambda t, a, z: {**_without(t, a), z: 5},
     "{z}", "expected a list of strings"),
]


@pytest.mark.parametrize(
    "fault, edit, at, reason", OUTCOME_TABLE_FAULTS,
    ids=[case[0] for case in OUTCOME_TABLE_FAULTS],
)
def test_outcome_table_loaders_report_the_first_fault(tmp_path, fault, edit, at, reason):
    for name, table, load, path, map_name in _outcome_table_loaders(tmp_path):
        first, last = list(table)[0], list(table)[-1]
        with pytest.raises(SchemaError) as err:
            load(edit(table, first, last))
        key = at.format(z=last)
        assert (err.value.path, err.value.reason) == (
            f"{path}.{key}" if key else path,
            reason.format(map=map_name, z=last),
        ), name


def test_model_variable_value_with_the_separator_is_named_at_its_values():
    data = base_model_dict()
    data["variables"][1]["values"] = ["0", "1|2"]
    with pytest.raises(SchemaError) as err:
        model_from_dict(data, "m.json")
    assert (err.value.path, err.value.reason) == (
        "variables[1].values", "value '1|2' clashes with the reserved tokens ('|',)"
    )


def test_model_round_trip_over_the_corpus(model_corpus):
    # up to three variables of up to three values: a row read in the wrong
    # variable order would load another model
    for model, _ in model_corpus:
        assert model_from_dict(json.loads(to_json(model))) == model


def test_loaded_maps_keep_no_label_table_until_read(model_corpus):
    for model, _ in model_corpus:
        data = json.loads(to_json(model))
        loaded = model_from_dict(data)
        maps = [loaded.process, *loaded.generators.values()]
        assert all(m._table is None for m in maps)
        rows = {x: join_values(row) for x, row in data["process"].items()}
        assert loaded.process.table == rows
        for label, table in data["generators"].items():
            assert loaded.generators[label].table == table


@pytest.mark.parametrize(
    "name, make",
    [("three_chain", three_chain_family), ("four_chain", four_chain_family),
     ("five_chain", five_chain_family)],
    ids=["three_chain", "four_chain", "five_chain"],
)
def test_built_chain_files_load_as_the_built_morphism(
    request, tmp_path, monkeypatch, capsys, name, make
):
    morphism = request.getfixturevalue(name)[2]
    # the named families have no family file: hand build-model the family
    monkeypatch.setattr(cgio, "load_family", lambda path: make())
    out = tmp_path / "models"
    assert run(["build-model", "--family", "family.json", "--out", str(out)]) == 0
    capsys.readouterr()
    loaded = load_morphism(str(out / "morphism.json"))
    # ModelMorphism compares by identity, so compare its fields
    for field in ("source", "target", "state_map", "outcome_map", "alphabet_map"):
        assert getattr(loaded, field) == getattr(morphism, field), field


def _dumped(data, path, *refs) -> str:
    dump_json(data, path, *refs)
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8")


def test_dump_json_writes_the_to_json_text_of_corpus_models_and_dicts(
    tmp_path, model_corpus
):
    path = tmp_path / "out.json"
    for model, _ in model_corpus:
        assert _dumped(model, path) == to_json(model)
    data = {"b": [1, "é", None], "a": {"z": True, "y": 0.5}}
    assert _dumped(data, path) == to_json(data)


@pytest.mark.parametrize("name", ["three_chain", "four_chain", "five_chain"])
def test_dump_json_writes_the_to_json_text_of_chain_morphisms(request, tmp_path, name):
    morphism, path = request.getfixturevalue(name)[2], tmp_path / "morphism.json"
    for refs in [(), ("micro_model.json", "abstract_model.json")]:
        assert _dumped(morphism, path, *refs) == to_json(morphism, *refs)


def test_dump_json_render_error_leaves_the_file(tmp_path, three_chain):
    # the pieces are rendered before the file is opened for writing
    path = tmp_path / "kept.json"
    path.write_bytes(b'{"kept": true}\n')
    with pytest.raises(TypeError):
        dump_json({"a": object()}, path)
    with pytest.raises(TypeError):  # a file reference must be a string
        dump_json(three_chain[2], path, 1, 2)
    assert path.read_bytes() == b'{"kept": true}\n'


def test_build_model_renders_each_set_s_keys_once(tmp_path, monkeypatch, capsys):
    # The morphism file's state_map reuses the keys the micro model's file
    # built, and its values the abstract model's encoded states.
    keyed = []
    init = cgio._Keys.__init__

    def counting(self, s):
        keyed.append(s)
        init(self, s)

    monkeypatch.setattr(cgio._Keys, "__init__", counting)
    monkeypatch.setattr(cgio, "_KEPT_KEYS", weakref.WeakKeyDictionary())  # none kept yet
    argv = ["build-model", "--family", data_path("family_tiny.json"), "--out", str(tmp_path)]
    assert run(argv) == 0
    micro = load_model(str(tmp_path / "micro_model.json"))
    abstract = load_model(str(tmp_path / "abstract_model.json"))
    # the micro model's states, the abstract model's, then the micro outcomes
    assert [len(s) for s in keyed] == [
        len(micro.states), len(abstract.states), len(micro.outcomes.total)
    ]
    capsys.readouterr()
