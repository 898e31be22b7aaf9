"""Command-line front end.

Exit codes: 0 means the requested check passed (or the operation
succeeded), 1 means the check ran fine and FAILED with a counterexample,
2 means the request itself was bad (usage, missing file, schema
violation, precondition error).  Reports are deterministic byte for byte
given identical inputs; timing information is only added on request,
since it would break that guarantee.

Words are written rightmost-first, matching the composition convention:
``--word a,b`` means "do b, then a".
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

from . import io as cgio
from .abstraction import check_naturality, check_surjectivity_assumptions
from .checkers import (
    BaseDeterminationError,
    MechanismRecord,
    check_commute,
    check_determination,
    check_effectiveness,
    check_invariance,
    check_overwrite,
    check_surgical,
    discover_mechanisms,
)
from .core import CausalGroundError, image, outcome_map
from .dominoes import apply_action_descriptor, build_bounded_model, micro_proc
from .scm import encode_scm, random_scm, verify_scm_laws


def parse_list(raw: Optional[str]) -> tuple[str, ...]:
    """Split a comma-separated flag value (a word or a variable subset)."""
    if not raw:
        return ()
    return tuple(part for part in raw.split(",") if part)


def _require_vars(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise CausalGroundError(
                f"{flag} is required (pass an empty string for the empty subset)"
            )


def _render_text(data, prefix: str = "") -> list[str]:
    lines = []
    if isinstance(data, dict):
        for key in sorted(data):
            path = f"{prefix}.{key}" if prefix else key
            lines.extend(_render_text(data[key], path))
    elif isinstance(data, list):
        if not data:
            lines.append(f"{prefix}: []")
        for i, item in enumerate(data):
            lines.extend(_render_text(item, f"{prefix}[{i}]"))
    else:
        lines.append(f"{prefix}: {data}")
    return lines


def _law_report_dict(report) -> dict:
    return {
        "ok": report.ok,
        "checked": {law: count for law, count in report.checked},
        "violations": [
            {"law": v.law, "subject": v.subject, "state": v.state}
            for v in report.violations
        ],
    }


def _naturality_dict(report) -> dict:
    return {
        "natural": report.natural,
        "failure_count": report.failure_count,
        "truncated": report.truncated,
        "failures": [
            {
                "square": f.square,
                "generator": f.generator,
                "state": f.state,
                "via_source": f.via_source,
                "via_target": f.via_target,
            }
            for f in report.failures
        ],
    }


def _surjectivity_dict(report) -> dict:
    return {
        "process_surjective": report.process_surjective,
        "state_map_surjective": report.state_map_surjective,
        "outcome_map_surjective": report.outcome_map_surjective,
        "possible_count": report.possible_count,
        "impossible_count": report.impossible_count,
        "impossible_sample": list(report.impossible_sample),
    }


def _record_dict(record: Optional[MechanismRecord]) -> Optional[dict]:
    return None if record is None else cgio.record_to_dict(record)


# --- command handlers (return exit code, payload) ----------------------------

def _cmd_check_determination(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    _require_vars(args, "vars_i", "vars_j")
    result = check_determination(
        model, parse_list(args.word), parse_list(args.vars_i), parse_list(args.vars_j)
    )
    payload = {
        "holds": result.holds,
        "unique": result.unique,
        "witness": None if result.witness is None else cgio.witness_to_dict(result.witness),
        "counterexample": (
            None if result.counterexample is None else list(result.counterexample)
        ),
    }
    return (0 if result.holds else 1), payload


def _cmd_check_effectiveness(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    _require_vars(args, "vars_j")
    result = check_effectiveness(
        model, parse_list(args.word), parse_list(args.vars_j), parse_list(args.context)
    )
    payload = {
        "effective": result.effective,
        "value": result.value,
        "counterexample": (
            None if result.counterexample is None else list(result.counterexample)
        ),
    }
    return (0 if result.effective else 1), payload


def _cmd_check_invariance(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    _require_vars(args, "vars_i", "vars_j")
    base = parse_list(args.context)
    vars_i = parse_list(args.vars_i)
    vars_j = parse_list(args.vars_j)
    space = model.outcomes
    if args.witness:
        witness = cgio.witness_from_dict(
            cgio.load_json(args.witness),
            space.subspace(space.normalize_vars(vars_i)).total,
            space.subspace(space.normalize_vars(vars_j)).total,
            args.witness,
        )
    else:
        base_result = check_determination(model, base, vars_i, vars_j)
        if not base_result.holds:
            raise BaseDeterminationError(
                "no witness given and the base determination does not hold: "
                f"counterexample {base_result.counterexample}"
            )
        witness = base_result.witness
    result = check_invariance(
        model, base, witness, vars_i, vars_j, parse_list(args.word)
    )
    payload = {
        "holds": result.holds,
        "witness": cgio.witness_to_dict(witness),
        "violating_state": result.violating_state,
        "expected": result.expected,
        "actual": result.actual,
    }
    return (0 if result.holds else 1), payload


def _pair_from_word(args) -> tuple[str, str]:
    labels = parse_list(args.word)
    if len(labels) != 2:
        raise CausalGroundError(
            "--word must name exactly two generators, e.g. --word a,b"
        )
    return labels[0], labels[1]


def _cmd_check_commute(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    a, b = _pair_from_word(args)
    result = check_commute(model, a, b)
    payload = {
        "holds": result.holds,
        "state": result.state,
        "a_then_b_last": result.first_order,
        "b_then_a_last": result.second_order,
    }
    return (0 if result.holds else 1), payload


def _cmd_check_overwrite(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    a, b = _pair_from_word(args)
    result = check_overwrite(model, a, b)
    payload = {
        "holds": result.holds,
        "state": result.state,
        "a_after_b": result.first_order,
        "a_alone": result.second_order,
    }
    return (0 if result.holds else 1), payload


def _cmd_check_surgical(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    labels = parse_list(args.word)
    if len(labels) != 1:
        raise CausalGroundError("--word must name exactly one generator")
    data = cgio.load_json(args.mechanisms)
    if isinstance(data, dict) and "mechanisms" in data:
        data = data["mechanisms"]
    records = cgio.records_from_dict(data, model, args.mechanisms)
    verdict = check_surgical(model, labels[0], records, parse_list(args.context))
    payload = {
        "surgical": verdict.surgical,
        "target": verdict.target,
        "broken": list(verdict.broken),
        "survived": list(verdict.survived),
        "new_mechanism": _record_dict(verdict.new_mechanism),
        "lost_invariances": [list(item) for item in verdict.lost_invariances],
        "reasons": list(verdict.reasons),
    }
    return (0 if verdict.surgical else 1), payload


def _cmd_check_naturality(args) -> tuple[int, dict]:
    morphism = cgio.load_morphism(args.morphism)
    report = check_naturality(morphism)
    surjectivity = check_surjectivity_assumptions(morphism)
    payload = {
        "naturality": _naturality_dict(report),
        "surjectivity": _surjectivity_dict(surjectivity),
    }
    return (0 if report.natural else 1), payload


def _cmd_discover(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    records = discover_mechanisms(
        model, parse_list(args.context), args.max_parents
    )
    return 0, {"mechanisms": [cgio.record_to_dict(r) for r in records]}


def _load_or_random_scm(args):
    if bool(args.scm) == (args.seed is not None):
        raise CausalGroundError("provide exactly one of --scm FILE or --seed N")
    if args.scm:
        return cgio.load_scm(args.scm), args.scm
    return random_scm(args.seed), f"seed:{args.seed}"


def _cmd_encode_scm(args) -> tuple[int, dict]:
    scm, source = _load_or_random_scm(args)
    if not args.out:
        raise CausalGroundError("encode-scm requires --out for the model file")
    model = encode_scm(scm)
    laws = verify_scm_laws(model, scm)
    cgio.dump_json(cgio.model_to_dict(model), args.out)
    payload = {
        "source": source,
        "model_file": args.out,
        "states": len(model.states),
        "generators": len(model.generators),
        "laws": _law_report_dict(laws),
    }
    return (0 if laws.ok else 1), payload


def _cmd_verify_scm_laws(args) -> tuple[int, dict]:
    scm, source = _load_or_random_scm(args)
    model = encode_scm(scm)
    laws = verify_scm_laws(model, scm)
    payload = {
        "source": source,
        "states": len(model.states),
        "laws": _law_report_dict(laws),
    }
    return (0 if laws.ok else 1), payload


def _cmd_simulate(args) -> tuple[int, dict]:
    state, census, actions = cgio.load_scenario(args.scenario)
    for i, descriptor in enumerate(actions):
        try:
            state = apply_action_descriptor(state, descriptor)
        except ValueError as exc:
            raise cgio.SchemaError(args.scenario, f"actions[{i}]", str(exc)) from None
    outcome = micro_proc(state, census)
    return 0, {"outcome": outcome}


def _cmd_build_model(args) -> tuple[int, dict]:
    family = cgio.load_family(args.family)
    if not args.out:
        raise CausalGroundError("build-model requires --out DIRECTORY")
    micro, abstract, morphism = build_bounded_model(family)
    os.makedirs(args.out, exist_ok=True)
    micro_path = os.path.join(args.out, "micro_model.json")
    abstract_path = os.path.join(args.out, "abstract_model.json")
    morphism_path = os.path.join(args.out, "morphism.json")
    cgio.dump_json(cgio.model_to_dict(micro), micro_path)
    cgio.dump_json(cgio.model_to_dict(abstract), abstract_path)
    cgio.dump_json(
        cgio.morphism_to_dict(morphism, "micro_model.json", "abstract_model.json"),
        morphism_path,
    )
    payload = {
        "files": [micro_path, abstract_path, morphism_path],
        "micro_states": len(micro.states),
        "abstract_states": len(abstract.states),
        "micro_outcomes": len(micro.outcomes.total),
    }
    return 0, payload


def _cmd_image(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    variables = parse_list(args.vars_i) if args.vars_i is not None else None
    f = outcome_map(model, parse_list(args.word), variables)
    im = image(f)
    return 0, {"image": im, "count": len(im), "codomain_size": len(f.codomain)}


_HANDLERS = {
    "check-determination": _cmd_check_determination,
    "check-effectiveness": _cmd_check_effectiveness,
    "check-invariance": _cmd_check_invariance,
    "check-commute": _cmd_check_commute,
    "check-overwrite": _cmd_check_overwrite,
    "check-surgical": _cmd_check_surgical,
    "check-naturality": _cmd_check_naturality,
    "discover": _cmd_discover,
    "encode-scm": _cmd_encode_scm,
    "verify-scm-laws": _cmd_verify_scm_laws,
    "simulate": _cmd_simulate,
    "build-model": _cmd_build_model,
    "image": _cmd_image,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalground",
        description=(
            "Finite-model checks for causal action models. Words are "
            "comma-separated generator labels, rightmost acting first."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *flags: str):
        p = sub.add_parser(name, help=help_text)
        if "model" in flags:
            p.add_argument("--model", required=True, help="model JSON file")
        if "morphism" in flags:
            p.add_argument("--morphism", required=True, help="morphism JSON file")
        if "scm" in flags:
            p.add_argument("--scm", help="SCM JSON file")
            p.add_argument("--seed", type=int, help="generate a random SCM instead")
        if "scenario" in flags:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
        if "family" in flags:
            p.add_argument("--family", required=True, help="family JSON file")
        if "word" in flags:
            p.add_argument(
                "--word",
                default="",
                help="comma-separated generator labels, rightmost first",
            )
        if "vars-i" in flags:
            p.add_argument("--vars-i", default=None, help="comma-separated variable ids")
        if "vars-j" in flags:
            p.add_argument("--vars-j", default=None, help="comma-separated variable ids")
        if "context" in flags:
            p.add_argument(
                "--context",
                default="",
                help="context word (acts before --word), rightmost first",
            )
        if "witness" in flags:
            p.add_argument("--witness", help="witness map JSON file ({'table': ...})")
        if "mechanisms" in flags:
            p.add_argument(
                "--mechanisms", required=True,
                help="mechanism records JSON (as written by discover --out)",
            )
        if "max-parents" in flags:
            p.add_argument("--max-parents", type=int, default=2)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the report (or artifact) here")
        p.add_argument(
            "--timing",
            action="store_true",
            help="add elapsed_ms to the report (breaks byte-determinism)",
        )
        return p

    add("check-determination", "does Y_I determine Y_J for a word",
        "model", "word", "vars-i", "vars-j")
    add("check-effectiveness", "is a word effective at setting Y_J in a context",
        "model", "word", "vars-j", "context")
    add("check-invariance",
        "does --word preserve the determination holding in --context",
        "model", "word", "vars-i", "vars-j", "context", "witness")
    add("check-commute", "do two generators commute", "model", "word")
    add("check-overwrite", "does the first generator overwrite the second",
        "model", "word")
    add("check-surgical", "is a generator surgical against a mechanism set",
        "model", "word", "mechanisms", "context")
    add("check-naturality", "do the abstraction squares commute", "morphism")
    add("discover", "search for mechanisms active in a context",
        "model", "context", "max-parents")
    add("encode-scm", "encode an SCM as a model file and verify its laws", "scm")
    add("verify-scm-laws", "encode an SCM in memory and verify its laws", "scm")
    add("simulate", "run the domino process on a scenario", "scenario")
    add("build-model", "enumerate a family into model and morphism files", "family")
    add("image", "possible outcomes of a word on a variable subset",
        "model", "word", "vars-i")
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code, payload = _HANDLERS[args.command](args)
    except cgio.SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CausalGroundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    inputs = {}
    for key in ("model", "morphism", "scm", "seed", "scenario", "family",
                "word", "vars_i", "vars_j", "context", "witness",
                "mechanisms", "max_parents"):
        value = getattr(args, key, None)
        if value is not None and value != "":
            inputs[key] = value
    report = {
        "check": args.command,
        "inputs": inputs,
        "verdict": "pass" if code == 0 else "fail",
    }
    report.update(payload)
    if args.timing:
        report["elapsed_ms"] = int((time.monotonic() - started) * 1000)

    if args.format == "json":
        rendered = cgio.to_json(report)
    else:
        rendered = "\n".join(_render_text(report)) + "\n"

    artifact_commands = {"encode-scm", "build-model"}
    if args.out and args.command not in artifact_commands:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
