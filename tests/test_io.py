import json
import os

import pytest

from causalground.abstraction import check_naturality
from causalground.checkers import check_determination, discover_mechanisms
from causalground.dominoes import build_bounded_model, micro_proc
from causalground.io import (
    SchemaError,
    dump_json,
    family_from_dict,
    load_family,
    load_model,
    load_morphism,
    load_scenario,
    load_scm,
    model_from_dict,
    model_to_dict,
    morphism_to_dict,
    record_to_dict,
    records_from_dict,
    scm_from_dict,
    scm_to_dict,
    witness_from_dict,
)
from causalground.scm import encode_scm, potential_response, verify_scm_laws

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
    again = model_from_dict(model_to_dict(model))
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


def test_model_bad_identity_rejected():
    data = base_model_dict()
    data["generators"]["id"] = {"x1": "x2", "x2": "x1"}
    with pytest.raises(SchemaError) as err:
        model_from_dict(data)
    assert err.value.path == "generators.id"


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
    assert potential_response(
        padded, {"V1": "default", "V2": "default"}, {"U1": "1", "U_V2": "*"}
    ) == {"V1": "1", "V2": "1"}


def test_scm_bad_function_key():
    data = scm_to_dict(load_scm(data_path("scm_xor.json")))
    data["endogenous"][1]["function_table"] = {"0": "0"}
    with pytest.raises(SchemaError) as err:
        scm_from_dict(data, "scm.json")
    assert "function_table" in err.value.path


def test_scenario_load_and_actions():
    state, census, actions = load_scenario(data_path("scenario_chain3.json"))
    assert census == ("d1", "d2", "d3")
    assert state.push == ("d1", "E")
    assert len(actions) == 1
    assert micro_proc(state, census)["d3"] == "fallen-E"


def test_scenario_schema_errors():
    with pytest.raises(SchemaError) as err:
        from causalground.io import scenario_from_dict

        scenario_from_dict({"grid": [2, 1], "dominoes": [{"id": "a"}]}, "s.json")
    assert err.value.path == "dominoes[0].cell"


def test_family_load_and_build():
    family = load_family(data_path("family_tiny.json"))
    assert family.ids == ("d1", "d2")
    assert dict(family.layouts)["pair"].dominoes[0].id == "d1"
    micro, abstract, morphism = build_bounded_model(family)
    assert check_naturality(morphism).natural


def test_family_unknown_layout_shortcut():
    with pytest.raises(SchemaError):
        family_from_dict({"family": {"length": 2, "ids": ["d1"],
                                     "layouts": {"x": {"bogus": 1}}}}, "f.json")


def test_family_layouts_must_be_an_object():
    with pytest.raises(SchemaError) as err:
        family_from_dict({"family": {"length": 2, "ids": ["d1"],
                                     "layouts": [{"chain": 1}]}}, "f.json")
    assert err.value.path == "family.layouts"


def test_morphism_file_round_trip(tmp_path):
    family = load_family(data_path("family_tiny.json"))
    micro, abstract, morphism = build_bounded_model(family)
    dump_json(model_to_dict(micro), tmp_path / "micro.json")
    dump_json(model_to_dict(abstract), tmp_path / "abstract.json")
    dump_json(
        morphism_to_dict(morphism, "micro.json", "abstract.json"),
        tmp_path / "morphism.json",
    )
    loaded = load_morphism(str(tmp_path / "morphism.json"))
    assert loaded.source == micro
    assert loaded.target == abstract
    assert loaded.state_map == morphism.state_map
    assert check_naturality(loaded).natural


def test_morphism_inline_models(tmp_path):
    family = load_family(data_path("family_tiny.json"))
    micro, abstract, morphism = build_bounded_model(family)
    dump_json(morphism_to_dict(morphism), tmp_path / "inline.json")
    loaded = load_morphism(str(tmp_path / "inline.json"))
    assert check_naturality(loaded).natural


def test_morphism_missing_state_entry(tmp_path):
    family = load_family(data_path("family_tiny.json"))
    micro, abstract, morphism = build_bounded_model(family)
    data = morphism_to_dict(morphism)
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
    data = [record_to_dict(r) for r in records]
    loaded_records = records_from_dict(data, pair_model)
    assert loaded_records == records


def test_scm_laws_after_file_round_trip(tmp_path, xor_scm):
    dump_json(scm_to_dict(xor_scm), tmp_path / "xor.json")
    scm = load_scm(str(tmp_path / "xor.json"))
    model = encode_scm(scm)
    assert verify_scm_laws(model, scm).ok
