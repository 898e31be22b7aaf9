import json
import os
import random
import shutil
import subprocess
import sys
from itertools import takewhile

import pytest

from causalground.checkers import check_effectiveness, discover_mechanisms
from causalground import checkers, cli, dominoes
from causalground.cli import build_parser, run
from causalground.core import SEP, UnknownLabelError, outcome_map
from causalground.dominoes import OUTCOME_SEP, build_bounded_model
from causalground.io import (
    dump_json,
    load_family,
    load_model,
    model_from_dict,
    serialize,
)
from causalground.scm import default_mechanism_records, encode_scm
from oracles import barrier_blind_morphism

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
UPDATE = os.environ.get("CAUSALGROUND_UPDATE_GOLDEN") == "1"

DATA_FILES = (
    "model_pair.json",
    "model_nodet.json",
    "scm_xor.json",
    "family_tiny.json",
)


@pytest.fixture()
def workspace(tmp_path, monkeypatch):
    for name in DATA_FILES:
        shutil.copy(os.path.join(DATA, name), tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def invoke(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def check_golden(name: str, content: str):
    path = os.path.join(GOLDEN, name)
    if UPDATE:
        os.makedirs(GOLDEN, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        return
    with open(path, "r", encoding="utf-8") as fh:
        assert fh.read() == content


def run_twice_and_compare(argv, capsys):
    code1, out1 = invoke(argv, capsys)
    code2, out2 = invoke(argv, capsys)
    assert code1 == code2
    assert out1 == out2
    return code1, out1


def test_check_determination_pass(workspace, capsys):
    code, out = run_twice_and_compare(
        ["check-determination", "--model", "model_pair.json",
         "--vars-i", "v1", "--vars-j", "v2", "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "pass"
    assert report["unique"] is True
    check_golden("check_determination_pass.json", out)


def test_check_determination_counterexample(workspace, capsys):
    code, out = run_twice_and_compare(
        ["check-determination", "--model", "model_nodet.json",
         "--vars-i", "v1", "--vars-j", "v2", "--format", "json"],
        capsys,
    )
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["counterexample"] == ["x1", "x2"]
    check_golden("check_determination_fail.json", out)


def test_check_effectiveness(workspace, capsys):
    code, out = run_twice_and_compare(
        ["check-effectiveness", "--model", "model_pair.json",
         "--word", "const", "--vars-j", "v1,v2", "--format", "json"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["value"] == "0|0"
    check_golden("check_effectiveness.json", out)


def test_check_invariance_violation(workspace, capsys):
    code, out = run_twice_and_compare(
        ["check-invariance", "--model", "model_pair.json",
         "--context", "const", "--word", "swap",
         "--vars-i", "v1", "--vars-j", "v2", "--format", "json"],
        capsys,
    )
    assert code == 1
    report = json.loads(out)
    assert report["violating_state"] is not None
    check_golden("check_invariance_fail.json", out)


def test_check_invariance_with_witness(workspace, capsys):
    dump_json({"table": {"0": "0", "1": "1"}}, "witness.json")
    code, out = run_twice_and_compare(
        ["check-invariance", "--model", "model_pair.json", "--word", "swap",
         "--vars-i", "v1", "--vars-j", "v2", "--witness", "witness.json",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["witness"]["table"] == {"0": "0", "1": "1"}
    check_golden("check_invariance_witness_pass.json", out)


def test_check_commute_both_ways(workspace, capsys):
    code, out = run_twice_and_compare(
        ["check-commute", "--model", "model_pair.json",
         "--word", "swap,const", "--format", "json"],
        capsys,
    )
    assert code == 1
    check_golden("check_commute_fail.json", out)
    code2, _ = invoke(
        ["check-commute", "--model", "model_pair.json", "--word", "swap,swap"],
        capsys,
    )
    assert code2 == 0


def test_check_overwrite(workspace, capsys):
    code, out = run_twice_and_compare(
        ["check-overwrite", "--model", "model_pair.json",
         "--word", "const,swap", "--format", "json"],
        capsys,
    )
    assert code == 0
    check_golden("check_overwrite.json", out)


def test_encode_scm_and_verify(workspace, capsys):
    code, out = run_twice_and_compare(
        ["encode-scm", "--scm", "scm_xor.json", "--out", "xor_model.json",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["laws"]["ok"] is True
    assert report["states"] == 36
    check_golden("encode_scm.json", out)

    with open("xor_model.json") as fh:
        first = fh.read()
    invoke(["encode-scm", "--scm", "scm_xor.json", "--out", "xor_model.json"],
           capsys)
    with open("xor_model.json") as fh:
        assert fh.read() == first  # emitted artifact is deterministic too


def test_verify_scm_laws_seeded(workspace, capsys):
    code, out = run_twice_and_compare(
        ["encode-scm", "--seed", "7", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["inputs"]["seed"] == 7
    check_golden("encode_scm_seed7.json", out)


def test_verify_needs_exactly_one_source(workspace, capsys):
    assert invoke(["encode-scm"], capsys)[0] == 2
    assert invoke(
        ["encode-scm", "--scm", "scm_xor.json", "--seed", "1"], capsys
    )[0] == 2


def test_discover_and_check_surgical(workspace, capsys):
    invoke(["encode-scm", "--scm", "scm_xor.json", "--out", "xor_model.json"],
           capsys)
    code, _ = invoke(
        ["discover", "--model", "xor_model.json", "--context", "init",
         "--max-parents", "2", "--format", "json", "--out", "mechs.json"],
        capsys,
    )
    assert code == 0
    with open("mechs.json") as fh:
        content = fh.read()
    mechs = json.loads(content)
    assert {m["target"] for m in mechs["mechanisms"]} == {"U1", "U2", "V1", "V2"}
    check_golden("discover.json", content)

    # against the discovered records (which include noise variables) a value
    # intervention breaks two determinations: an honest non-surgical verdict
    code, out = run_twice_and_compare(
        ["check-surgical", "--model", "xor_model.json", "--word", "set-V2=1",
         "--mechanisms", "mechs.json", "--context", "init", "--format", "json"],
        capsys,
    )
    assert code == 1
    report = json.loads(out)
    assert "2 mechanisms invalidated" in report["reasons"][0]
    check_golden("check_surgical_fail.json", out)

    code, out = run_twice_and_compare(
        ["check-surgical", "--model", "xor_model.json", "--word", "set-V2=1",
         "--mechanisms", "mechs.json", "--context", "init"],
        capsys,
    )
    assert code == 1
    check_golden("check_surgical_fail.txt", out)


def test_check_surgical_pass_with_default_records(workspace, capsys, xor_scm):
    model = encode_scm(xor_scm)
    dump_json(model, "xor_model.json")
    records = default_mechanism_records(xor_scm, model)
    dump_json([serialize(r) for r in records], "defaults.json")
    code, out = run_twice_and_compare(
        ["check-surgical", "--model", "xor_model.json", "--word", "set-V2=1",
         "--mechanisms", "defaults.json", "--context", "init",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["surgical"] is True and report["target"] == "V2"
    check_golden("check_surgical_pass.json", out)


def test_build_model_and_naturality(workspace, capsys):
    code, out = run_twice_and_compare(
        ["build-model", "--family", "family_tiny.json", "--out", "models",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    check_golden("build_model.json", out)
    emitted = {}
    for name in ("micro_model.json", "abstract_model.json", "morphism.json"):
        with open(os.path.join("models", name)) as fh:
            emitted[name] = fh.read()
    invoke(["build-model", "--family", "family_tiny.json", "--out", "models"],
           capsys)
    for name, content in emitted.items():
        with open(os.path.join("models", name)) as fh:
            assert fh.read() == content

    code, out = run_twice_and_compare(
        ["check-naturality", "--morphism", "models/morphism.json",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["naturality"]["natural"] is True
    assert report["surjectivity"]["outcome_map_surjective"] is False
    check_golden("check_naturality_pass.json", out)


def test_check_naturality_sabotaged(workspace, capsys):
    family = load_family("family_tiny.json")
    micro, abstract, morphism = build_bounded_model(family)
    bad = barrier_blind_morphism(family, morphism)
    dump_json(bad, "sabotaged.json")
    code, out = run_twice_and_compare(
        ["check-naturality", "--morphism", "sabotaged.json", "--format", "json"],
        capsys,
    )
    assert code == 1
    report = json.loads(out)
    assert report["naturality"]["failure_count"] > 0
    assert any(
        f["square"] == "action" and f["generator"]
        for f in report["naturality"]["failures"]
    )
    check_golden("check_naturality_fail.json", out)

    code, out = run_twice_and_compare(
        ["check-naturality", "--morphism", "sabotaged.json"], capsys
    )
    assert code == 1
    check_golden("check_naturality_fail.txt", out)


SIMULATE = ["simulate", "--family", "family_tiny.json"]


def simulate(argv, capsys, family="family_tiny.json") -> dict:
    code, out = invoke(["simulate", "--family", family, *argv, "--format", "json"], capsys)
    assert code == 0
    return json.loads(out)


def test_simulate(workspace, capsys):
    code, out = run_twice_and_compare(
        SIMULATE + ["--state=01/b0/pd1E", "--word", "add-barrier-1-2", "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    # the barrier between d1 and d2 stops the chain after d1
    assert report["state"] == "01/b1/pd1E"
    assert report["outcome"] == {"d1": "fallen-E", "d2": "upright"}
    check_golden("simulate.json", out)


def test_simulate_rechecks_every_named_naturality_failure(workspace, capsys):
    # each failure names a micro state and the action whose square breaks:
    # the simulator reaches the state the sabotaged map sends to via_source
    family = load_family("family_tiny.json")
    bad = barrier_blind_morphism(family, build_bounded_model(family)[2])
    with open(os.path.join(GOLDEN, "check_naturality_fail.json")) as fh:
        failures = json.load(fh)["naturality"]["failures"]
    assert len(failures) == 20
    for f in failures:
        assert f["square"] == "action"
        reached = simulate([f"--state={f['state']}", "--word", f["generator"]], capsys)
        assert bad.state_map(reached["state"]) == f["via_source"], f


def test_simulate_matches_the_micro_tables(workspace, capsys):
    family = load_family("family_tiny.json")
    micro = build_bounded_model(family)[0]
    labels = micro.states.elements
    for a in family.actions:
        table = micro.generators[a]._codes
        for k, label in enumerate(labels):
            report = simulate([f"--state={label}", "--word", a], capsys)
            assert report["state"] == labels[table[k]], (label, a)
            values = micro.process(report["state"]).split(OUTCOME_SEP)
            assert report["outcome"] == dict(zip(family.ids, values)), (label, a)
    assert len(labels) * len(family.actions) == 54 * 6


@pytest.mark.parametrize(
    "label",
    ["nope", "xx/b0/pd1E", "01/b00/pd1E", "00xb0/p-", "00/b0xp-", "00/b0/p-x", "00/b0/pd/1E"],
    ids=["unknown", "abstract", "wide-bits", "bits-marker", "push-marker", "trailing",
         "slash-in-id"],
)
def test_simulate_rejects_a_label_that_is_no_micro_state(workspace, capsys, label):
    assert run(SIMULATE + ["--state", label]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --state {label!r}: no micro state of family_tiny.json\n"


def test_simulate_reads_a_label_that_starts_with_a_dash_after_equals(workspace, capsys):
    report = simulate(["--state=--/b0/p-", "--word", "init-pair"], capsys)
    assert report["inputs"]["state"] == "--/b0/p-"
    assert report["state"] == "00/b0/p-"
    # argparse reads a separate value that starts with '--' as a flag
    with pytest.raises(SystemExit) as exc:
        run(SIMULATE + ["--state", "--/b0/p-"])
    assert exc.value.code == 2
    assert "--state: expected one argument" in capsys.readouterr().err


# A family with every action (it lists none): its one layout holds d1, d3
# and d4 and the barrier between d1 and d2.
EVERY_ACTION_FAMILY = {"family": {
    "length": 4, "ids": ["d1", "d2", "d3", "d4"], "barrier_edges": [1, 2],
    "layouts": {"start": {"present": {"d1": "0", "d3": "0", "d4": "0"}, "barriers": [1]}},
}}
EVERY_ACTION = ["remove-d4", "choose-push-d1-E", "add-barrier-2-3",
                "remove-barrier-1-2", "place-d2", "init-start"]  # rightmost first


def test_simulate_runs_every_action_kind(workspace, capsys):
    # from the empty state the layout loads, d2 is placed, the barrier
    # moves from after d1 to after d2, d1 is pushed and d4 is removed:
    # d1 and d2 fall, and the barrier keeps d3 upright
    dump_json(EVERY_ACTION_FAMILY, "every_action.json")

    def outcome(word):
        argv = ["--state=----/b00/p-", "--word", ",".join(word)]
        return simulate(argv, capsys, "every_action.json")["outcome"]

    assert outcome(EVERY_ACTION) == {
        "d1": "fallen-E", "d2": "fallen-E", "d3": "upright", "d4": "absent"
    }
    # each action matters: without it the outcome differs
    for k in range(len(EVERY_ACTION)):
        fewer = EVERY_ACTION[:k] + EVERY_ACTION[k + 1:]
        assert outcome(fewer) != outcome(EVERY_ACTION), EVERY_ACTION[k]


def test_simulate_builds_no_model(workspace, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_bounded_model", lambda *a: built.append(a))
    report = simulate(["--state=01/b0/pd1E", "--word", "add-barrier-1-2,init-pair"], capsys)
    assert report["state"] == "00/b1/p-"
    assert built == []


@pytest.mark.parametrize("family", ["family_tiny.json", "three_chain"])
def test_a_word_rewrites_the_label_as_the_micro_tables_map_it(family):
    family = (dominoes.three_chain_family() if family == "three_chain"
              else load_family(os.path.join(DATA, family)))
    micro = build_bounded_model(family)[0]
    labels = micro.states.elements
    words = [(a,) for a in family.actions]
    if len(labels) < 100:  # every two-letter word too
        words += [(a, b) for a in family.actions for b in family.actions]
    for word in words:
        reached = [labels[k] for k in micro._compose(word)]
        assert [family._run(word, x) for x in labels] == reached, word


@pytest.mark.parametrize(
    "word, label",
    [("nope", "nope"), ("place-d1,id", "place-d1"), ("id,zz,place-d1", "zz")],
    ids=["unknown", "not-an-action", "first-from-the-left"],
)
def test_simulate_names_an_unknown_word_label_as_the_micro_model_does(
    workspace, capsys, word, label
):
    # place-d1 is a rewrite of the family but not one of its actions
    micro = build_bounded_model(load_family("family_tiny.json"))[0]
    assert run(SIMULATE + ["--state=01/b0/pd1E", "--word", word]) == 2
    with pytest.raises(UnknownLabelError) as exc:
        micro._compose(word.split(","))
    assert exc.value.label == label
    assert capsys.readouterr().err == f"error: --word: {exc.value}\n"


def test_the_readme_command_table_lists_every_command():
    # the table's rows, in order, are exactly the CLI's commands
    readme = os.path.join(os.path.dirname(DATA), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        lines = fh.read().split("| command | purpose | key flags |\n")[1].splitlines()
    rows = [line.split("|")[1].strip() for line in takewhile(str.strip, lines[1:])]
    assert rows == [f"`{name}`" for name in cli._COMMANDS]


def test_text_format_renders_empty_objects():
    assert cli._render_text({"outcome": {}}) == ["outcome: {}"]


def test_image(workspace, capsys):
    code, out = run_twice_and_compare(
        ["image", "--model", "model_pair.json", "--word", "swap",
         "--vars-i", "v1", "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["image"] == ["0", "1"]
    check_golden("image.json", out)


def test_image_report_names_the_empty_subset(workspace, capsys):
    argv = ["image", "--model", "model_pair.json", "--word", "swap", "--format", "json"]
    _, out = invoke(argv, capsys)
    every = json.loads(out)
    _, out = invoke(argv + ["--vars-i", ""], capsys)
    empty = json.loads(out)
    assert every["image"] == ["0|0", "1|1"] and empty["image"] == ["*"]
    assert "vars_i" not in every["inputs"]
    assert empty["inputs"]["vars_i"] == ""


def test_text_format_is_deterministic(workspace, capsys):
    code, out = run_twice_and_compare(
        ["check-determination", "--model", "model_pair.json",
         "--vars-i", "v1", "--vars-j", "v2"],
        capsys,
    )
    assert code == 0
    assert "verdict: pass" in out
    check_golden("check_determination_pass.txt", out)


def test_out_flag_writes_report(workspace, capsys):
    code, _ = invoke(
        ["check-determination", "--model", "model_pair.json",
         "--vars-i", "v1", "--vars-j", "v2", "--format", "json",
         "--out", "report.json"],
        capsys,
    )
    assert code == 0
    with open("report.json") as fh:
        assert json.load(fh)["verdict"] == "pass"


@pytest.mark.parametrize("model, verdict", [("model_pair.json", 0), ("model_nodet.json", 1)],
                         ids=["pass", "fail"])
@pytest.mark.parametrize("out", ["missing_dir/report.json", "."], ids=["missing-dir", "dir"])
def test_unwritable_out_exits_two(workspace, capsys, model, verdict, out):
    # exit 1 would read as a failed check, whatever the verdict was
    argv = ["check-determination", "--model", model, "--vars-i", "v1", "--vars-j", "v2"]
    assert invoke(argv, capsys)[0] == verdict
    code = run(argv + ["--out", out])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_text_report_escapes_a_lone_surrogate(workspace, capsys):
    # "\ud800" is a valid JSON string but no UTF-8 text: the text report
    # writes it as the escape the JSON report uses, and exits with the verdict
    model = {"states": ["\ud800", "x"], "variables": [{"id": "v", "values": ["0", "1"]}],
             "process": {"\ud800": ["0"], "x": ["1"]}, "generators": {}}
    with open("surrogate.json", "w") as fh:
        json.dump(model, fh)
    argv = ["check-determination", "--model", "surrogate.json", "--vars-i", "", "--vars-j", "v"]
    code, out = invoke(argv, capsys)
    assert code == 1
    assert "counterexample[0]: \\ud800\n" in out
    assert run(argv + ["--out", "report.txt"]) == 1
    with open("report.txt", encoding="utf-8") as fh:
        assert "counterexample[0]: \\ud800\n" in fh.read()


def test_exit_code_two_cases(workspace, capsys):
    # missing file
    assert invoke(
        ["check-determination", "--model", "missing.json",
         "--vars-i", "v1", "--vars-j", "v2"], capsys
    )[0] == 2
    # schema violation
    with open("broken.json", "w") as fh:
        fh.write('{"states": ["x"], "variables": []}')
    assert invoke(
        ["check-determination", "--model", "broken.json",
         "--vars-i", "v1", "--vars-j", "v2"], capsys
    )[0] == 2
    # unknown generator label
    assert invoke(
        ["check-commute", "--model", "model_pair.json", "--word", "swap,warp"],
        capsys,
    )[0] == 2
    # commute needs exactly two labels
    assert invoke(
        ["check-commute", "--model", "model_pair.json", "--word", "swap"],
        capsys,
    )[0] == 2
    # missing vars flags
    assert invoke(
        ["check-determination", "--model", "model_pair.json"], capsys
    )[0] == 2
    # base determination failure is a usage error, not a verdict
    assert invoke(
        ["check-invariance", "--model", "model_nodet.json",
         "--context", "", "--word", "id", "--vars-i", "v1", "--vars-j", "v2"],
        capsys,
    )[0] == 2


def test_discover_negative_parent_budget_exits_two(workspace, capsys):
    code = run(["discover", "--model", "model_pair.json", "--max-parents", "-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: --max-parents -1: max_parents must be non-negative\n"


def test_check_surgical_context_mismatch_exits_two(workspace, capsys):
    assert invoke(
        ["discover", "--model", "model_pair.json", "--context", "const",
         "--max-parents", "1", "--format", "json", "--out", "const.json"],
        capsys,
    )[0] == 0
    code = run(["check-surgical", "--model", "model_pair.json", "--word", "swap",
                "--mechanisms", "const.json", "--context", "swap"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --context 'swap': record ") and "was built in context" in err


def test_check_surgical_on_an_empty_mechanism_file_names_the_file(workspace, capsys):
    with open("none.json", "w") as fh:
        json.dump({"mechanisms": []}, fh)
    code = run(["check-surgical", "--model", "model_pair.json", "--word", "swap",
                "--mechanisms", "none.json"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --mechanisms none.json: surgicality is relative to a non-empty mechanism set\n"
    )


def test_check_surgical_names_the_record_that_fails_in_its_own_context(workspace, capsys):
    # after const every state is x1, where v1 is 0: a record whose table
    # says 1 does not hold in its own context
    assert invoke(
        ["discover", "--model", "model_pair.json", "--context", "const",
         "--format", "json", "--out", "mechs.json"],
        capsys,
    )[0] == 0
    with open("mechs.json") as fh:
        data = json.load(fh)
    assert data["mechanisms"][0]["target"] == "v1"
    data["mechanisms"][0]["map"]["table"] = {"*": "1"}
    with open("mechs_bad.json", "w") as fh:
        json.dump(data, fh)
    code = run(["check-surgical", "--model", "model_pair.json", "--word", "swap",
                "--context", "const", "--mechanisms", "mechs_bad.json"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: --mechanisms mechs_bad.json: at [0]: record v1~(none) does not hold "
        "in its own context: at state 'x1' the witness predicts '1' but the outcome is '0'\n"
    )


def test_check_invariance_without_a_witness_names_the_context(workspace, capsys):
    code = run(["check-invariance", "--model", "model_nodet.json", "--word", "id",
                "--vars-i", "v1", "--vars-j", "v2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --context '': no witness given and the base determination")


@pytest.mark.parametrize(
    "change, path, reason",
    [
        ({"tags": ["0", "-"]}, "family", "other than '-'"),
        ({"ids": ["d1", "d1"]}, "family", "ids must be distinct"),
        ({"max_dominoes": -1}, "family", "max_dominoes must be non-negative"),
        ({"barrier_edges": [1, 1]}, "family", "barrier edges must be distinct"),
        ({"push_dirs": ["E", "E"]}, "family", "push directions must be distinct"),
        ({"actions": ["id", "remove-d9"]}, "family", "unknown family action label 'remove-d9'"),
        # a layout that is not a state of the family is named at its own
        # path: a foreign tag, more dominoes than max_dominoes, a push
        # direction outside push_dirs
        ({"layouts": {"p": {"present": {"d1": "7"}}}, "actions": ["id"]},
         "family.layouts.p", "layout 'p' is not a state of the family"),
        ({"max_dominoes": 1}, "family.layouts.pair", "layout 'pair' is not a state of the family"),
        ({"layouts": {"p": {"present": {"d1": "0"}, "push": ["d1", "W"]}}},
         "family.layouts.p", "layout 'p' is not a state of the family"),
        ({"length": 1}, "family", "more domino ids than cells"),
        ({"barrier_edges": [9]}, "family", "barrier edge 9 out of range"),
        ({"push_dirs": ["Q"]}, "family", "bad push direction 'Q'"),
    ],
    ids=["absent-marker-tag", "duplicate-ids", "negative-max-dominoes",
         "repeated-barrier-edge", "repeated-push-dir", "unknown-action",
         "layout-foreign-tag", "layout-too-many", "layout-push-outside-push-dirs",
         "too-short", "barrier-edge-out-of-range", "bad-push-dir"],
)
def test_malformed_family_exits_two(workspace, capsys, change, path, reason):
    with open("family_tiny.json") as fh:
        data = json.load(fh)
    data["family"].update(change)
    with open("bad_family.json", "w") as fh:
        json.dump(data, fh)
    code = run(["build-model", "--family", "bad_family.json", "--out", "models"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"bad_family.json: at {path}: " in err and reason in err


def test_a_family_over_the_limit_with_a_layout_fails_at_load_enumerating_no_row(
    workspace, capsys, monkeypatch
):
    """The family checks its layouts against its states, so it counts them
    at load: one over the limit exits 2 naming the limit, and no presence
    set is enumerated."""
    ids = [f"d{i}" for i in range(1, 31)]
    family = {"family": {"length": 30, "ids": ids, "tags": ["0", "1", "2"],
                         "layouts": {"all": {"chain": 30}}}}
    with open("wide_family.json", "w") as fh:
        json.dump(family, fh)
    calls = []
    monkeypatch.setattr(dominoes, "combinations", lambda *args: calls.append(args))
    code = run(["build-model", "--family", "wide_family.json", "--out", "models"])
    err = capsys.readouterr().err
    assert code == 2 and calls == []
    assert err.startswith("error: wide_family.json: at family: line family state set would need ")
    assert "over the limit of 1000000" in err


def _set(path, value):
    """An edit that puts a value at a key path of a JSON document."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return edit


def _drop(path):
    """An edit that removes the key at a key path of a JSON document."""
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _padded_noise_clash(doc):
    """Endogenous A and U_A and no exogenous key: the noise padded for A is U_A."""
    del doc["exogenous"]
    doc["endogenous"][0]["id"] = "A"
    doc["endogenous"][1].update({"id": "U_A", "parents": ["A"]})


SURGICAL = ["check-surgical", "--model", "model_pair.json", "--word", "swap",
            "--mechanisms", "mechs.json", "--context", "const"]
BUILD = ["build-model", "--family", "family_tiny.json", "--out", "models"]
NATURALITY = ["check-naturality", "--morphism", "morphism.json"]
ENCODE = ["encode-scm", "--scm", "scm_xor.json", "--out", "xor_model.json"]
DETERMINATION = ["check-determination", "--model", "model_pair.json",
                 "--vars-i", "v1", "--vars-j", "v2"]
LAWS = ["encode-scm", "--seed", "1"]
INVARIANCE = ["check-invariance", "--model", "model_pair.json", "--context", "const",
              "--word", "swap", "--vars-i", "v1", "--vars-j", "v2",
              "--witness", "witness.json"]


@pytest.mark.parametrize(
    "argv, name, edit, path",
    [
        (SURGICAL, "mechs.json", _set((0, "violated_by"), 5), "[0].violated_by"),
        (SURGICAL, "mechs.json", _set((0, "map", "table", "*"), "7"), "[0].map.table.*"),
        # every part of a recorded word must be a generator of the model
        (SURGICAL, "mechs.json", _set((0, "invariant_under", 1), "nope"),
         "[0].invariant_under[1]"),
        (SURGICAL, "mechs.json", _set((0, "invariant_under", 0), "const,"),
         "[0].invariant_under[0]"),
        (SURGICAL, "mechs.json", _set((0, "violated_by", 0, 0), "swap,nope"),
         "[0].violated_by[0]"),
        # the state of a [word, state] pair must be a state of the model
        (SURGICAL, "mechs.json", _set((0, "violated_by", 0, 1), "no-such-state"),
         "[0].violated_by[0]"),
        # a context lists one label per entry
        (SURGICAL, "mechs.json", _set((0, "context", 0), "const,id"), "[0].context[0]"),
        (BUILD, "family_tiny.json", _set(("family", "barrier_edges"), ["x"]),
         "family.barrier_edges[0]"),
        (BUILD, "family_tiny.json",
         _set(("family", "layouts", "pair"), {"present": {"d1": "0"}, "barriers": ["q"]}),
         "family.layouts.pair.barriers[0]"),
        (NATURALITY, "morphism.json", _set(("state_map", "x1"), ["x1"]),
         "state_map.x1"),
        (NATURALITY, "morphism.json", _set(("alphabet_map", "swap"), ["swap"]),
         "alphabet_map.swap"),
        # every key must be a generator of the source model
        (NATURALITY, "morphism.json", _set(("alphabet_map", "no-such-label"), "id"),
         "alphabet_map.no-such-label"),
        (INVARIANCE, "witness.json", _set(("table", "0"), ["0"]), "table.0"),
        # one |-joined string is not one value per target variable
        (NATURALITY, "morphism.json", _set(("outcome_map", "0|1"), ["0|1"]),
         "outcome_map.0|1"),
        # a chain count outside 0..len(ids) names no prefix of the ids
        (BUILD, "family_tiny.json", _set(("family", "layouts", "pair", "chain"), -1),
         "family.layouts.pair.chain"),
        (BUILD, "family_tiny.json", _set(("family", "layouts", "pair", "chain"), 3),
         "family.layouts.pair.chain"),
        # a JSON true is not an integer, though Python's bool subclasses int
        (BUILD, "family_tiny.json", _set(("family", "layouts", "pair", "chain"), True),
         "family.layouts.pair.chain"),
        (BUILD, "family_tiny.json", _set(("family", "length"), True), "family.length"),
        (BUILD, "family_tiny.json", _set(("family", "barrier_edges"), [True]),
         "family.barrier_edges[0]"),
        # a family without dominoes writes a model with no outcome variables
        (BUILD, "family_tiny.json", _set(("family",), {"length": 2, "ids": []}),
         "family.ids"),
        # "remove-barrier-1-2" would remove the domino and clear the barrier
        (BUILD, "family_tiny.json",
         _set(("family",), {"length": 3, "ids": ["barrier-1-2", "d2"], "barrier_edges": [1]}),
         "family"),
        # --vars-i and --vars-j are comma-split, so no flag could name these
        (DETERMINATION, "model_pair.json", _set(("variables", 0, "id"), "a,b"),
         "variables[0].id"),
        (ENCODE, "scm_xor.json", _set(("exogenous", 0, "id"), "U,1"), "exogenous[0].id"),
        # a NUL character names no file
        (NATURALITY, "morphism.json", _set(("source_model",), "a\u0000b.json"),
         "source_model"),
        # --word "" is the empty word and --vars-i "" the empty subset, so no
        # flag could name an empty label or id
        (DETERMINATION, "model_pair.json", _set(("generators", ""), {"x1": "x1", "x2": "x2"}),
         "generators."),
        (DETERMINATION, "model_pair.json", _set(("variables", 0, "id"), ""),
         "variables[0].id"),
        (ENCODE, "scm_xor.json", _set(("exogenous", 0, "id"), ""), "exogenous[0].id"),
        (ENCODE, "scm_xor.json", _set(("endogenous", 0, "id"), ""), "endogenous[0].id"),
        (BUILD, "family_tiny.json", _set(("family", "ids", 0), ""), "family.ids[0]"),
        # a record's map keys list its parents in declared order, once each
        (SURGICAL, "mechs.json", _set((0, "parents"), ["v2", "v2"]), "[0].parents"),
        # a mechanism does not determine its target from the target itself
        (SURGICAL, "mechs.json", _set((0,), {"target": "v2", "parents": ["v2"],
                                          "map": {"table": {"0": "0", "1": "1"}}}),
         "[0].parents"),
        (SURGICAL, "mechs.json", _set((0, "target"), "v9"), "[0]"),
        (SURGICAL, "mechs.json", _set((0, "parents"), ["v9"]), "[0]"),
        (DETERMINATION, "model_pair.json", _set(("variables", 0, "values"), ["0", "0"]),
         "variables[0].values"),
        (DETERMINATION, "model_pair.json", _set(("variables", 1, "id"), "v1"), "variables"),
        (DETERMINATION, "model_pair.json", _set(("variables",), []), "variables"),
        (NATURALITY, "morphism.json", _drop(("state_map",)), "$.state_map"),
        (NATURALITY, "morphism.json", _set(("alphabet_map", "swap"), "warp"), "$"),
        (NATURALITY, "morphism.json", _drop(("alphabet_map", "const")), "$"),
        (ENCODE, "scm_xor.json", _set(("endogenous",), []), "endogenous"),
        (BUILD, "family_tiny.json",
         _set(("family", "layouts", "pair"), {"present": {"d1": "0"}, "push": ["d1", "Q"]}),
         "family.layouts.pair"),
        (ENCODE, "scm_xor.json", _set(("exogenous", 0, "id"), "V1"), "$"),
        (ENCODE, "scm_xor.json", _padded_noise_clash, "endogenous[0]"),
        # a layout has exactly one shape: a chain count, or present,
        # barriers and push; a key of the other shape or of none is no part
        (BUILD, "family_tiny.json",
         _set(("family", "layouts", "pair"), {"chain": 1, "present": {"d9": "0"}}),
         "family.layouts.pair"),
        (BUILD, "family_tiny.json",
         _set(("family", "layouts", "pair"), {"present": {"d1": "0"}, "barrier": [1]}),
         "family.layouts.pair"),
        # a label has no bit for an edge outside barrier_edges
        (BUILD, "family_tiny.json",
         _set(("family", "layouts", "pair"), {"present": {"d1": "0"}, "barriers": [2]}),
         "family.layouts.pair.barriers"),
    ],
    ids=["violated-by", "record-map-table", "invariant-under-unknown-label",
         "invariant-under-empty-part", "violated-by-unknown-label",
         "violated-by-unknown-state",
         "context-joined-labels", "barrier-edges", "layout-barriers",
         "state-map", "alphabet-map", "alphabet-map-unknown-label", "witness-table", "outcome-map-arity",
         "negative-chain", "chain-beyond-ids", "bool-chain",
         "bool-length", "bool-barrier-edge", "empty-ids",
         "shared-action-label", "comma-model-variable-id", "comma-exogenous-id",
         "nul-reference", "empty-generator-label", "empty-model-variable-id",
         "empty-exogenous-id", "empty-endogenous-id", "empty-family-id",
         "repeated-parent", "target-among-parents", "unknown-target", "unknown-parent",
         "repeated-value", "repeated-variable-id", "no-variables", "no-state-map",
         "alphabet-map-unknown-value", "alphabet-map-not-covering", "no-endogenous",
         "layout-push-bad-dir", "shared-u-and-v-id",
         "padded-noise-clash", "layout-chain-and-present", "layout-misspelled-key",
         "layout-barrier-outside-edges"],
)
def test_malformed_input_exits_two(workspace, capsys, argv, name, edit, path):
    model = load_model("model_pair.json")
    docs = {
        "mechs.json": [
            serialize(r) for r in discover_mechanisms(model, ("const",), 1)
        ],
        "morphism.json": {
            "source_model": "model_pair.json",
            "target_model": "model_pair.json",
            "state_map": {"x1": "x1", "x2": "x2"},
            "outcome_map": {y: y.split("|") for y in model.outcomes.total.elements},
            "alphabet_map": {a: a for a in model.generators},
        },
        "witness.json": {"table": {"0": "0", "1": "1"}},
    }
    if name not in docs:
        with open(name) as fh:
            docs[name] = json.load(fh)
    edit(docs[name])
    with open(name, "w") as fh:
        json.dump(docs[name], fh)
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{name}: at {path}:" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check-commute", "--model", "model_pair.json", "--word", "swap,,const"],
         "--word 'swap,,const'"),
        (DETERMINATION[:3] + ["--vars-i", "v1,", "--vars-j", "v2"], "--vars-i 'v1,'"),
        (["check-effectiveness", "--model", "model_pair.json", "--word", "swap",
          "--vars-j", "v2", "--context", "const,"], "--context 'const,'"),
    ],
    ids=["word", "vars-i", "context"],
)
def test_flag_value_with_an_empty_part_exits_two(workspace, capsys, argv, flag):
    """A flag value is not shortened: "" is the empty list, but a
    non-empty value names no empty label or id."""
    assert run(argv) == 2
    assert f"{flag} has an empty part" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, message",
    [
        (DETERMINATION + ["--word", "zz"], "--word", "unknown generator label 'zz'"),
        (DETERMINATION[:3] + ["--vars-i", "v9", "--vars-j", "v2"], "--vars-i",
         "unknown variable id 'v9'"),
        (DETERMINATION[:5] + ["--vars-j", "v1,v9"], "--vars-j", "unknown variable id 'v9'"),
        # an id is looked for in the id flags only, though --word holds it too
        (DETERMINATION[:3] + ["--word", "swap", "--vars-i", "swap", "--vars-j", "v2"],
         "--vars-i", "unknown variable id 'swap'"),
        (["check-effectiveness", "--model", "model_pair.json", "--word", "swap",
          "--vars-j", "v2", "--context", "zz"], "--context", "unknown generator label 'zz'"),
        (["check-effectiveness", "--model", "model_pair.json", "--word", "zz",
          "--vars-j", "v2"], "--word", "unknown generator label 'zz'"),
        (["image", "--model", "model_pair.json", "--word", "swap", "--vars-i", "v9"],
         "--vars-i", "unknown variable id 'v9'"),
        (["image", "--model", "model_pair.json", "--word", "swap,zz"], "--word",
         "unknown generator label 'zz'"),
        (SURGICAL[:4] + ["zz"] + SURGICAL[5:], "--word", "unknown generator label 'zz'"),
        (SURGICAL[:-1] + ["zz"], "--context", "unknown generator label 'zz'"),
    ],
    ids=["determination-word", "determination-vars-i", "determination-vars-j", "id-in-word",
         "effectiveness-context", "effectiveness-word", "image-vars-i", "image-word",
         "surgical-word", "surgical-context"],
)
def test_unknown_label_or_id_names_its_flag(workspace, capsys, argv, flag, message):
    assert invoke(
        ["discover", "--model", "model_pair.json", "--context", "const",
         "--max-parents", "1", "--format", "json", "--out", "mechs.json"],
        capsys,
    )[0] == 0
    assert run(argv) == 2
    assert f"error: {flag}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, limit, message",
    [
        (BUILD[:-2], None, "error: build-model requires --out DIRECTORY"),
        # a bad limit is read before any file, so no file or path is blamed
        (DETERMINATION, "0", "error: CAUSAL_GROUND_MAX_TABLE must be positive, got 0"),
        (DETERMINATION, "bogus",
         "error: CAUSAL_GROUND_MAX_TABLE must be an integer, got 'bogus'"),
        (LAWS, "0", "error: CAUSAL_GROUND_MAX_TABLE must be positive, got 0"),
        (LAWS, "bogus", "error: CAUSAL_GROUND_MAX_TABLE must be an integer, got 'bogus'"),
        # the state set is the first table the model file asks for
        (DETERMINATION, "1",
         "error: model_pair.json: at states: finite set 'X' would need 2 table entries"),
        # an SCM's 36 states are counted before their columns are built
        (ENCODE, "20", "error: factored space total set would need 36 table entries"),
        (ENCODE[:-2], "20", "error: factored space total set would need 36 table entries"),
    ],
    ids=["build-without-out", "limit-zero", "limit-bogus",
         "laws-limit-zero", "laws-limit-bogus", "limit-at-states", "encode-limit-at-total",
         "laws-limit-at-total"],
)
def test_usage_or_limit_error_exits_two(workspace, capsys, monkeypatch, argv, limit, message):
    if limit is not None:
        monkeypatch.setenv("CAUSAL_GROUND_MAX_TABLE", limit)
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(message)


def test_encode_scm_without_out_writes_nothing(workspace, capsys):
    # without --out the model is encoded and its laws verified in memory
    before = sorted(os.listdir(workspace))
    code, out = invoke(ENCODE[:-2] + ["--format", "json"], capsys)
    assert code == 0
    assert sorted(os.listdir(workspace)) == before
    report = json.loads(out)
    assert report["laws"]["ok"] is True and report["states"] == 36
    assert "model_file" not in report and "generators" not in report


PARITY_IDS = [f"v{i:02d}" for i in range(1, 13)]


def _parity_model() -> dict:
    """200 random states of v01..v11, and v12 the parity of v01..v10."""
    rng = random.Random(3)
    process = {}
    for k in range(200):
        bits = [rng.choice("01") for _ in range(11)]
        process[f"x{k}"] = bits + [str(bits[:10].count("1") % 2)]
    return {"states": list(process), "process": process, "generators": {},
            "variables": [{"id": v, "values": ["0", "1"]} for v in PARITY_IDS]}


def test_a_wide_candidate_that_is_not_unique_builds_no_witness(workspace, capsys, monkeypatch):
    # v01..v10 determine their parity v12 on 200 states, but reach few of
    # the 1 024 values of Y_I: the search passes that candidate over
    # without its witness, which would be over the limit.  A witness a
    # result reports is still counted against the limit.
    ids = PARITY_IDS
    with open("wide.json", "w") as fh:
        json.dump(_parity_model(), fh)
    monkeypatch.setenv("CAUSAL_GROUND_MAX_TABLE", "1000")
    assert run(["discover", "--model", "wide.json", "--max-parents", "10"]) == 0
    capsys.readouterr()
    argv = ["check-determination", "--model", "wide.json",
            "--vars-i", ",".join(ids[:10]), "--vars-j", "v12"]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: determination witness would need 1024 table entries"
    )


def test_the_parent_set_search_scans_no_candidate_with_more_i_codes_than_rows(monkeypatch):
    # 200 rows: of the 2 047 candidates per target, the 231 of 8 to 10
    # parents have 256 or more I-codes, so none can be unique.  Their count
    # is read off the layout, so the search leaves no subspace behind.
    model = model_from_dict(_parity_model())
    scan, scans = checkers._scan_determination, [0]

    def counted(codes_i, codes_j):
        scans[0] += 1
        return scan(codes_i, codes_j)

    monkeypatch.setattr(checkers, "_scan_determination", counted)
    assert discover_mechanisms(model, (), 10) == []
    assert scans[0] == 12 * (2047 - 231) == 21792
    assert model.outcomes._subspaces == {}


@pytest.mark.parametrize(
    "argv, section, index, value",
    [
        (ENCODE[:-2], "endogenous", 1, "default"),
        (ENCODE, "endogenous", 1, "2|3"),
        (ENCODE[:-2], "exogenous", 0, "1|1"),
    ],
    ids=["slot-token", "endogenous-separator", "exogenous-separator"],
)
def test_reserved_scm_value_exits_two(workspace, capsys, argv, section, index, value):
    with open("scm_xor.json") as fh:
        data = json.load(fh)
    data[section][index]["values"].append(value)
    with open("scm_xor.json", "w") as fh:
        json.dump(data, fh)
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"scm_xor.json: at {section}[{index}].values: value {value!r}" in err


def test_shared_intervention_label_exits_two(workspace, capsys):
    # set-A=0=1 would name both A=0 set to 1 and A set to 0=1
    with open("scm_xor.json") as fh:
        data = json.load(fh)
    data["endogenous"][0].update({"id": "A=0", "values": ["1", "2"],
                                  "function_table": {"0": "1", "1": "2"}})
    data["endogenous"][1].update({"id": "A", "values": ["0=1", "x"], "parents": [],
                                  "function_table": {"0": "x", "1": "x"}})
    with open("scm_xor.json", "w") as fh:
        json.dump(data, fh)
    code = run(ENCODE)
    err = capsys.readouterr().err
    assert code == 2
    assert "scm_xor.json: at $: two interventions share the label 'set-A=0=1'" in err


def test_repeated_scm_parent_exits_two(workspace, capsys):
    # With a parent listed twice every key of the full table is accepted,
    # though half of them name impossible parent values.
    with open("scm_xor.json") as fh:
        data = json.load(fh)
    data["endogenous"][1].update({
        "parents": ["V1", "V1"],
        "function_table": {f"{a}|{b}|{u}": "0" for a in "01" for b in "01" for u in "01"},
    })
    with open("scm_xor.json", "w") as fh:
        json.dump(data, fh)
    code = run(ENCODE[:-2])
    err = capsys.readouterr().err
    assert code == 2
    assert "scm_xor.json: at $: parent 'V1' of 'V2' is listed twice" in err


def _own_actions(key, value):
    """An edit of a family that sets ``key`` and lets the family list its
    own actions."""
    def edit(doc):
        del doc["family"]["actions"]
        doc["family"][key] = value
    return edit


def _copy_generator(doc):
    doc["generators"]["a,b"] = doc["generators"]["swap"]


@pytest.mark.parametrize(
    "argv, name, edit, path, what",
    [
        (DETERMINATION, "model_pair.json", _copy_generator, "generators.a,b", "label"),
        (BUILD, "family_tiny.json", _own_actions("ids", ["d1", "a,b"]),
         "family.ids[1]", "domino id"),
        (BUILD, "family_tiny.json", _own_actions("layouts", {"x,y": {"chain": 2}}),
         "family.layouts.x,y", "layout name"),
        (ENCODE, "scm_xor.json", _set(("endogenous", 1, "id"), "V,2"),
         "endogenous[1].id", "variable id"),
        (ENCODE, "scm_xor.json", _set(("endogenous", 1, "values"), ["0", "1", "a,b"]),
         "endogenous[1].values", "value"),
    ],
    ids=["generator", "family-id", "layout-name", "endogenous-id", "endogenous-value"],
)
def test_comma_in_a_generator_label_exits_two(workspace, capsys, argv, name, edit, path, what):
    # words are comma-joined, so a string that becomes part of a generator
    # label is rejected where it is loaded, not in the written model file
    with open(name) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(name, "w") as fh:
        json.dump(doc, fh)
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{name}: at {path}: {what} must not contain ','" in err


def test_comma_in_exogenous_values_is_accepted(workspace, capsys):
    # exogenous values never become generator labels or flag entries
    with open("scm_xor.json") as fh:
        doc = json.load(fh)
    doc["exogenous"][0] = {"id": "U1", "values": ["0", "a,b"]}
    doc["endogenous"][0]["function_table"] = {"0": "0", "a,b": "1"}
    with open("scm_xor.json", "w") as fh:
        json.dump(doc, fh)
    assert invoke(ENCODE, capsys)[0] == 0
    assert load_model("xor_model.json").outcomes.domain_of("U1").elements == ("0", "a,b")


def test_schema_error_names_file_and_path(workspace, capsys):
    with open("broken.json", "w") as fh:
        json.dump({
            "states": ["x1"],
            "variables": [{"id": "v", "values": ["0"]}],
            "process": {},
            "generators": {},
        }, fh)
    code = run(["check-determination", "--model", "broken.json",
                "--vars-i", "v", "--vars-j", "v"])
    captured = capsys.readouterr()
    assert code == 2
    assert "broken.json" in captured.err
    assert "process.x1" in captured.err


def test_timing_flag_adds_elapsed(workspace, capsys):
    code, out = invoke(
        ["check-determination", "--model", "model_pair.json",
         "--vars-i", "v1", "--vars-j", "v2", "--format", "json", "--timing"],
        capsys,
    )
    assert code == 0
    assert "elapsed_ms" in json.loads(out)


def _outcome(argv, capsys):
    """Exit code, stdout without ``elapsed_ms`` and stderr of one call."""
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse rejects a usage error this way
        code = exc.code
    captured = capsys.readouterr()
    out = captured.out
    if out.startswith("{"):
        report = json.loads(out)
        report.pop("elapsed_ms", None)
        out = json.dumps(report, sort_keys=True)
    return code, out, captured.err


def test_one_parser_serves_every_call(workspace, capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()  # a caller's parser is its own
    determination = ["check-determination", "--model", "model_pair.json",
                     "--vars-i", "v1", "--vars-j", "v2", "--format", "json"]
    calls = [
        ["check-determination", "--vars-i", "v1"],  # --model is required
        determination + ["--timing"],
        determination,
        ["check-commute", "--model", "model_pair.json", "--word", "swap,const"],
    ]
    shared = [_outcome(argv, capsys) for argv in calls]
    assert [code for code, _, _ in shared] == [2, 0, 0, 1]
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert shared == [_outcome(argv, capsys) for argv in calls]


def _wide_model(n_vars: int, seed: int) -> dict:
    """A model file's data: 1 000 states, ``n_vars`` binary outcome
    variables with v3 = v1 and v2, and two permutations of the states."""
    rng = random.Random(seed)
    states = [f"x{i}" for i in range(1000)]
    ids = [f"v{k}" for k in range(1, n_vars + 1)]
    process = {}
    for x in states:
        row = [rng.choice("01") for _ in ids]
        row[2] = "1" if row[0] == row[1] == "1" else "0"  # v3 = v1 and v2
        process[x] = row
    return {
        "states": states,
        "variables": [{"id": v, "values": ["0", "1"]} for v in ids],
        "process": process,
        "generators": {
            "shift": {x: states[(i + 1) % len(states)] for i, x in enumerate(states)},
            "swap": {x: states[i ^ 1] for i, x in enumerate(states)},
        },
    }


def _write(name: str, data: dict) -> None:
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def test_a_model_with_a_wide_outcome_space_loads_and_checks(workspace, capsys):
    # 20 binary outcome variables: 1 048 576 joint outcomes, over the default
    # limit, but only the 1 000 rows the states reach are ever coded.
    _write("wide.json", _wide_model(20, 20))
    model = load_model("wide.json")
    assert len(model.outcomes.total) == 2**20
    argv = ["check-determination", "--model", "wide.json", "--word", "shift"]
    assert run(argv + ["--vars-i", "v1,v2", "--vars-j", "v3"]) == 0
    assert run(argv + ["--vars-i", "v1", "--vars-j", "v3"]) == 1
    assert capsys.readouterr().err == ""


def test_every_command_runs_on_a_wide_model(workspace, capsys):
    # 40 binary outcome variables: 2**40 joint outcomes.  A report names the
    # few it reaches; a witness report writes its codomain whole, so its J
    # has at most 2 variables.
    data = _wide_model(40, 40)
    _write("wide.json", data)
    every = ",".join(v["id"] for v in data["variables"])
    model = ["--model", "wide.json"]
    calls = [
        (["image", *model, "--word", "shift"], 0),
        (["check-effectiveness", *model, "--word", "swap", "--vars-j", every], 1),
        (["check-determination", *model, "--vars-i", "v1,v2", "--vars-j", "v3"], 0),
        (["check-determination", *model, "--vars-i", "v1", "--vars-j", "v3,v4"], 1),
        (["check-invariance", *model, "--vars-i", "v1,v2", "--vars-j", "v3",
          "--word", "shift"], 0),
        (["check-commute", *model, "--word", "shift,swap"], 1),
        (["discover", *model, "--max-parents", "1"], 0),
    ]
    for argv, expected in calls:
        assert (run(argv + ["--format", "json"]), argv) == (expected, argv)
        captured = capsys.readouterr()
        assert captured.err == ""
        if argv[0] == "image":
            rows = sorted({SEP.join(row) for row in data["process"].values()})
            assert json.loads(captured.out)["image"] == rows


def test_a_wide_model_names_and_finds_outcomes_without_building_them(workspace):
    data = _wide_model(40, 40)
    _write("wide.json", data)
    loaded = load_model("wide.json")
    space, total = loaded.outcomes, loaded.outcomes.total
    row = data["process"]["x7"]
    label = SEP.join(row)
    assert loaded.process("x7") == label == total.label(total.position(label))
    assert space.project_element(label, ("v2", "v40")) == SEP.join((row[1], row[39]))
    assert check_effectiveness(loaded, ("swap",), space.var_ids).effective is False
    rows = {SEP.join(row) for row in data["process"].values()}
    assert outcome_map(loaded, ("shift",)).image() == sorted(rows)
    assert "elements" not in vars(total)


def test_a_bad_process_value_in_a_wide_model_names_its_path(workspace, capsys):
    data = _wide_model(40, 40)
    data["process"]["x3"][5] = "2"
    _write("wide.json", data)
    assert run(["image", "--model", "wide.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: wide.json: at process.x3: ")
    label = SEP.join(data["process"]["x3"])
    assert f"sends 'x3' to '{label}', which is not in the codomain" in err


def test_module_entry_point(workspace):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "causalground", "simulate",
         "--family", "family_tiny.json", "--state=01/b0/pd1E"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "fallen-E" in proc.stdout


def test_cli_runs_on_the_standard_library_alone(workspace):
    # -S skips site-packages, so an import of any installed third-party
    # package (numpy, say) from the library fails here.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "causalground", "check-determination",
         "--model", "model_pair.json", "--vars-i", "v1", "--vars-j", "v2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "verdict: pass" in proc.stdout
