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
from functools import cache
from typing import Optional, Sequence

from . import io as cgio
from .abstraction import check_naturality, check_surjectivity_assumptions
from .checkers import (
    BaseDeterminationError,
    PreconditionError,
    check_commute,
    check_determination,
    check_effectiveness,
    check_invariance,
    check_overwrite,
    check_surgical,
    discover_mechanisms,
)
from .core import CausalGroundError, UnknownVariableError, max_table_entries, outcome_map
from .dominoes import build_bounded_model
from .scm import encode_scm, random_scm, verify_scm_laws


def parse_list(args, name: str) -> tuple[str, ...]:
    """Split the comma-separated value of flag ``name`` (a word or a
    variable subset).  ``""`` is the empty list; no part may be empty."""
    raw = getattr(args, name)
    parts = tuple(raw.split(",")) if raw else ()
    if "" in parts:
        raise CausalGroundError(f"--{name.replace('_', '-')} {raw!r} has an empty part")
    return parts


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
        if not data:
            lines.append(f"{prefix}: {{}}")
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


# --- command handlers (return exit code, payload) ----------------------------
#
# A payload is the serialized result object, so a report's fields are the
# result's fields.  Key order never reaches a report: to_json sorts keys and
# so does _render_text.

def _cmd_check_determination(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    _require_vars(args, "vars_i", "vars_j")
    result = check_determination(
        model, *(parse_list(args, n) for n in ("word", "vars_i", "vars_j"))
    )
    return (0 if result.holds else 1), cgio.serialize(result)


def _cmd_check_effectiveness(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    _require_vars(args, "vars_j")
    result = check_effectiveness(
        model, *(parse_list(args, n) for n in ("word", "vars_j", "context"))
    )
    return (0 if result.effective else 1), cgio.serialize(result)


def _cmd_check_invariance(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    _require_vars(args, "vars_i", "vars_j")
    base = parse_list(args, "context")
    vars_i = parse_list(args, "vars_i")
    vars_j = parse_list(args, "vars_j")
    space = model.outcomes
    if args.witness:
        witness = cgio.witness_from_dict(
            cgio.load_json(args.witness),
            space.subspace(vars_i).total,
            space.subspace(vars_j).total,
            args.witness,
        )
    else:
        base_result = check_determination(model, base, vars_i, vars_j)
        if not base_result.holds:
            raise BaseDeterminationError(
                f"--context {args.context!r}: no witness given and the base "
                f"determination does not hold: counterexample {base_result.counterexample}"
            )
        witness = base_result.witness
    result = check_invariance(
        model, base, witness, vars_i, vars_j, parse_list(args, "word")
    )
    payload = cgio.serialize(result)
    payload["witness"] = cgio.serialize(witness)
    return (0 if result.holds else 1), payload


def _pair_from_word(args) -> tuple[str, str]:
    labels = parse_list(args, "word")
    if len(labels) != 2:
        raise CausalGroundError(
            "--word must name exactly two generators, e.g. --word a,b"
        )
    return labels[0], labels[1]


def _cmd_check_commute(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    result = check_commute(model, *_pair_from_word(args))
    rename = {"first_order": "a_then_b_last", "second_order": "b_then_a_last"}
    return (0 if result.holds else 1), cgio.serialize(result, rename)


def _cmd_check_overwrite(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    result = check_overwrite(model, *_pair_from_word(args))
    rename = {"first_order": "a_after_b", "second_order": "a_alone"}
    return (0 if result.holds else 1), cgio.serialize(result, rename)


def _cmd_check_surgical(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    labels = parse_list(args, "word")
    if len(labels) != 1:
        raise CausalGroundError("--word must name exactly one generator")
    data = cgio.load_json(args.mechanisms)
    if isinstance(data, dict) and "mechanisms" in data:
        data = data["mechanisms"]
    records = cgio.records_from_dict(data, model, args.mechanisms)
    try:
        verdict = check_surgical(model, labels[0], records, parse_list(args, "context"))
    except PreconditionError as exc:  # loaded records are well shaped: the set or its context
        flag = f"--context {args.context!r}" if records else f"--mechanisms {args.mechanisms}"
        raise PreconditionError(f"{flag}: {exc}") from None
    except BaseDeterminationError as exc:  # a record that fails in its own context
        raise BaseDeterminationError(
            f"--mechanisms {args.mechanisms}: at [{exc.record}]: {exc}"
        ) from None
    return (0 if verdict.surgical else 1), cgio.serialize(verdict)


def _cmd_check_naturality(args) -> tuple[int, dict]:
    morphism = cgio.load_morphism(args.morphism)
    report = check_naturality(morphism)
    payload = {
        "naturality": cgio.serialize(report),
        "surjectivity": cgio.serialize(check_surjectivity_assumptions(morphism)),
    }
    return (0 if report.natural else 1), payload


def _cmd_discover(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    try:
        records = discover_mechanisms(model, parse_list(args, "context"), args.max_parents)
    except PreconditionError as exc:  # the one precondition: the parent budget
        raise PreconditionError(f"--max-parents {args.max_parents}: {exc}") from None
    return 0, {"mechanisms": cgio.serialize(records)}


def _cmd_scm(args) -> tuple[int, dict]:
    """Encode the --scm file or --seed SCM and verify its laws; with --out
    also write the encoded model there."""
    if bool(args.scm) == (args.seed is not None):
        raise CausalGroundError("provide exactly one of --scm FILE or --seed N")
    scm = cgio.load_scm(args.scm) if args.scm else random_scm(args.seed)
    model = encode_scm(scm)
    laws = verify_scm_laws(model, scm)
    payload = {
        "source": args.scm or f"seed:{args.seed}",
        "states": len(model.states),
        "laws": {**cgio.serialize(laws), "checked": dict(laws.checked)},
    }
    if args.out:
        cgio.dump_json(model, args.out)
        payload.update(model_file=args.out, generators=len(model.generators))
    return (0 if laws.ok else 1), payload


def _cmd_simulate(args) -> tuple[int, dict]:
    family = cgio.load_family(args.family)
    if family.states.position(args.state) is None:
        raise CausalGroundError(f"--state {args.state!r}: no micro state of {args.family}")
    state = family._run(parse_list(args, "word"), args.state)
    return 0, {"state": state, "outcome": family.process(state)}


def _cmd_build_model(args) -> tuple[int, dict]:
    family = cgio.load_family(args.family)
    if not args.out:
        raise CausalGroundError("build-model requires --out DIRECTORY")
    micro, abstract, morphism = build_bounded_model(family)
    os.makedirs(args.out, exist_ok=True)
    micro_path = os.path.join(args.out, "micro_model.json")
    abstract_path = os.path.join(args.out, "abstract_model.json")
    morphism_path = os.path.join(args.out, "morphism.json")
    cgio.dump_json(micro, micro_path)
    cgio.dump_json(abstract, abstract_path)
    cgio.dump_json(morphism, morphism_path, "micro_model.json", "abstract_model.json")
    payload = {
        "files": [micro_path, abstract_path, morphism_path],
        "micro_states": len(micro.states),
        "abstract_states": len(abstract.states),
        "micro_outcomes": len(micro.outcomes.total),
    }
    return 0, payload


def _cmd_image(args) -> tuple[int, dict]:
    model = cgio.load_model(args.model)
    variables = parse_list(args, "vars_i") if args.vars_i is not None else None
    f = outcome_map(model, parse_list(args, "word"), variables)
    im = f.image()
    return 0, {"image": im, "count": len(im), "codomain_size": len(f.codomain)}


# Input flags, in the order --help lists them, with their argparse keywords.
_FLAGS = {
    "model": {"required": True, "help": "model JSON file"},
    "morphism": {"required": True, "help": "morphism JSON file"},
    "scm": {"help": "SCM JSON file"},
    "seed": {"type": int, "help": "generate a random SCM instead"},
    "family": {"required": True, "help": "family JSON file"},
    "state": {
        "required": True, "help": "micro state label (--state=LABEL if it starts with -)",
    },
    "word": {
        "default": "", "help": "comma-separated generator labels, rightmost first",
    },
    "vars-i": {"help": "comma-separated variable ids"},
    "vars-j": {"help": "comma-separated variable ids"},
    "context": {
        "default": "", "help": "context word (acts before --word), rightmost first",
    },
    "witness": {"help": "witness map JSON file ({'table': ...})"},
    "mechanisms": {
        "required": True,
        "help": "mechanism records JSON (as written by discover --out)",
    },
    "max-parents": {"type": int, "default": 2},
}

# Command -> (handler, help text, input flags).  The handlers call the
# checkers through this module's globals, so patching a checker here takes
# effect.
_COMMANDS = {
    "check-determination": (
        _cmd_check_determination, "does Y_I determine Y_J for a word",
        ("model", "word", "vars-i", "vars-j")),
    "check-effectiveness": (
        _cmd_check_effectiveness, "is a word effective at setting Y_J in a context",
        ("model", "word", "vars-j", "context")),
    "check-invariance": (
        _cmd_check_invariance,
        "does --word preserve the determination holding in --context",
        ("model", "word", "vars-i", "vars-j", "context", "witness")),
    "check-commute": (
        _cmd_check_commute, "do two generators commute", ("model", "word")),
    "check-overwrite": (
        _cmd_check_overwrite, "does the first generator overwrite the second",
        ("model", "word")),
    "check-surgical": (
        _cmd_check_surgical, "is a generator surgical against a mechanism set",
        ("model", "word", "context", "mechanisms")),
    "check-naturality": (
        _cmd_check_naturality, "do the abstraction squares commute", ("morphism",)),
    "discover": (
        _cmd_discover, "search for mechanisms active in a context",
        ("model", "context", "max-parents")),
    "encode-scm": (
        _cmd_scm, "encode an SCM and verify its laws; --out writes the model",
        ("scm", "seed")),
    "simulate": (
        _cmd_simulate, "run the domino process on a family state after --word",
        ("family", "state", "word")),
    "build-model": (
        _cmd_build_model, "enumerate a family into model and morphism files",
        ("family",)),
    "image": (
        _cmd_image, "possible outcomes of a word on a variable subset",
        ("model", "word", "vars-i")),
}

# Commands whose --out is an artifact they write, not the report.
_ARTIFACT_COMMANDS = {"encode-scm", "build-model"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalground",
        description=(
            "Finite-model checks for causal action models. Words are "
            "comma-separated generator labels, rightmost acting first."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in _FLAGS.items():
            if flag in flags:
                p.add_argument("--" + flag, **keywords)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write the report (or artifact) here")
        p.add_argument(
            "--timing",
            action="store_true",
            help="add elapsed_ms to the report (breaks byte-determinism)",
        )
    return parser


# ``run``'s parser, built once per process: parsing reads it and leaves it
# as it was.  Kept private: a caller's ``build_parser()`` is its own.
_parser = cache(build_parser)


def run(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    handler, _, flags = _COMMANDS[args.command]
    started = time.monotonic()
    try:
        max_table_entries()  # a bad limit is the environment's error, not a file's
        code, payload = handler(args)
    except (CausalGroundError, OSError) as exc:
        # an unknown label or id is named with the first flag that holds it
        token, names = getattr(exc, "label", None), ("word", "context")
        if isinstance(exc, UnknownVariableError):
            token, names = exc.var_id, ("vars_i", "vars_j")
        held = [n for n in names if token in (getattr(args, n, None) or "").split(",")]
        flag = f"--{held[0].replace('_', '-')}: " if held else ""
        print(f"error: {flag}{exc}", file=sys.stderr)
        return 2

    # An absent flag is not an input, nor is an empty --word or --context
    # (their default); an empty --vars-i or --vars-j is the empty subset.
    inputs = {}
    for flag in flags:
        key = flag.replace("-", "_")
        value = getattr(args, key)
        if value is not None and not (value == "" == _FLAGS[flag].get("default")):
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
        # a lone surrogate, valid in a JSON string, as the escape JSON writes
        rendered = rendered.encode("utf-8", "backslashreplace").decode("utf-8")

    if args.out and args.command not in _ARTIFACT_COMMANDS:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
