import json
import os
import shutil
import subprocess
import sys

import pytest

from causalground.cli import run
from causalground.dominoes import barrier_blind_morphism, build_bounded_model
from causalground.io import (
    dump_json,
    load_family,
    model_to_dict,
    morphism_to_dict,
    record_to_dict,
)
from causalground.scm import default_mechanism_records, encode_scm

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
UPDATE = os.environ.get("CAUSALGROUND_UPDATE_GOLDEN") == "1"

DATA_FILES = (
    "model_pair.json",
    "model_nodet.json",
    "scm_xor.json",
    "scenario_chain3.json",
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
        ["verify-scm-laws", "--seed", "7", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["inputs"]["seed"] == 7
    check_golden("verify_scm_laws_seed7.json", out)


def test_verify_needs_exactly_one_source(workspace, capsys):
    assert invoke(["verify-scm-laws"], capsys)[0] == 2
    assert invoke(
        ["verify-scm-laws", "--scm", "scm_xor.json", "--seed", "1"], capsys
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
        mechs = json.load(fh)
    assert {m["target"] for m in mechs["mechanisms"]} == {"U1", "U2", "V1", "V2"}

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


def test_check_surgical_pass_with_default_records(workspace, capsys, xor_scm):
    model = encode_scm(xor_scm)
    dump_json(model_to_dict(model), "xor_model.json")
    records = default_mechanism_records(xor_scm, model)
    dump_json([record_to_dict(r) for r in records], "defaults.json")
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
    dump_json(morphism_to_dict(bad), "sabotaged.json")
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


def test_simulate(workspace, capsys):
    code, out = run_twice_and_compare(
        ["simulate", "--scenario", "scenario_chain3.json", "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    # the scenario's action list adds a barrier between d2 and d3
    assert report["outcome"] == {
        "d1": "fallen-E", "d2": "fallen-E", "d3": "upright"
    }
    check_golden("simulate.json", out)


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
    assert "max_parents must be non-negative" in capsys.readouterr().err


def test_check_surgical_context_mismatch_exits_two(workspace, capsys):
    assert invoke(
        ["discover", "--model", "model_pair.json", "--context", "const",
         "--max-parents", "1", "--format", "json", "--out", "const.json"],
        capsys,
    )[0] == 0
    code = run(["check-surgical", "--model", "model_pair.json", "--word", "swap",
                "--mechanisms", "const.json", "--context", "swap"])
    assert code == 2
    assert "was built in context" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"tags": ["0", "-"]}, "other than '-'"),
        ({"ids": ["d1", "d1"]}, "ids must be distinct"),
        ({"max_dominoes": -1}, "max_dominoes must be non-negative"),
    ],
    ids=["absent-marker-tag", "duplicate-ids", "negative-max-dominoes"],
)
def test_malformed_family_exits_two(workspace, capsys, change, reason):
    with open("family_tiny.json") as fh:
        data = json.load(fh)
    data["family"].update(change)
    with open("bad_family.json", "w") as fh:
        json.dump(data, fh)
    code = run(["build-model", "--family", "bad_family.json", "--out", "models"])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad_family.json: at family:" in err and reason in err


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


def test_module_entry_point(workspace):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "causalground", "simulate",
         "--scenario", "scenario_chain3.json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "fallen-E" in proc.stdout
