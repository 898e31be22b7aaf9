"""JSON file formats: models, morphisms, SCMs, scenarios, families, records.

Every loader validates the full schema before any computation starts and
reports violations as SchemaError naming the file, the JSON path of the
offending entry, and the reason.  Writers produce deterministic output
(sorted keys, fixed list orders) so reports and emitted files are
byte-stable across runs.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from typing import Any, Optional

from .core import (
    ActionModel,
    CausalGroundError,
    FactoredSpace,
    FiniteSet,
    ID_LABEL,
    TotalMap,
    join_values,
)
from .abstraction import ModelMorphism
from .checkers import MechanismRecord
from .dominoes import (
    Domino,
    LineFamily,
    MicroState,
    edge_between,
    routing_from_mapping,
)
from .scm import Scm


class SchemaError(CausalGroundError):
    """A file failed schema validation."""

    def __init__(self, file: str, path: str, reason: str):
        self.file = file
        self.path = path
        self.reason = reason
        super().__init__(f"{file}: at {path}: {reason}")


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise SchemaError(path, "$", "file not found") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(path, "$", f"invalid JSON: {exc}") from None


def dump_json(data: Any, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(data))


def to_json(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def _expect(data: Any, typ, file: str, path: str, what: str):
    if not isinstance(data, typ):
        raise SchemaError(file, path, f"expected {what}")
    return data


def _string_list(data: Any, file: str, path: str) -> list[str]:
    _expect(data, list, file, path, "a list of strings")
    for i, item in enumerate(data):
        _expect(item, str, file, f"{path}[{i}]", "a string")
    return data


# --- action models -----------------------------------------------------------

def model_from_dict(data: Any, file: str = "<inline>") -> ActionModel:
    _expect(data, dict, file, "$", "an object")
    for key in ("states", "variables", "process", "generators"):
        if key not in data:
            raise SchemaError(file, f"$.{key}", "missing required key")

    states = _string_list(data["states"], file, "states")
    if not states:
        raise SchemaError(file, "states", "must not be empty")
    if len(set(states)) != len(states):
        raise SchemaError(file, "states", "state labels must be distinct")

    variables = _expect(data["variables"], list, file, "variables", "a list")
    if not variables:
        raise SchemaError(file, "variables", "must not be empty")
    var_pairs = []
    for i, entry in enumerate(variables):
        _expect(entry, dict, file, f"variables[{i}]", "an object")
        vid = _expect(entry.get("id"), str, file, f"variables[{i}].id", "a string")
        values = _string_list(entry.get("values"), file, f"variables[{i}].values")
        if not values:
            raise SchemaError(file, f"variables[{i}].values", "must not be empty")
        try:
            var_pairs.append((vid, FiniteSet(vid, tuple(values))))
        except ValueError as exc:
            raise SchemaError(file, f"variables[{i}].values", str(exc)) from None
    try:
        space = FactoredSpace(tuple(var_pairs))
    except (ValueError, CausalGroundError) as exc:
        raise SchemaError(file, "variables", str(exc)) from None

    process_data = _expect(data["process"], dict, file, "process", "an object")
    state_set = set(states)
    table = {}
    for state in states:
        if state not in process_data:
            raise SchemaError(file, f"process.{state}", "missing entry for state")
    for state, value in process_data.items():
        if state not in state_set:
            raise SchemaError(file, f"process.{state}", "not a declared state")
        values = _string_list(value, file, f"process.{state}")
        if len(values) != len(var_pairs):
            raise SchemaError(
                file,
                f"process.{state}",
                f"expected {len(var_pairs)} values, got {len(values)}",
            )
        for (vid, dom), v in zip(var_pairs, values):
            if v not in dom:
                raise SchemaError(
                    file,
                    f"process.{state}",
                    f"value {v!r} not in the domain of {vid!r}",
                )
        table[state] = join_values(values)

    state_fs = FiniteSet("X", tuple(states))
    process = TotalMap(state_fs, space.total, table)

    gen_data = _expect(data["generators"], dict, file, "generators", "an object")
    generators = {}
    for label, gen_table in gen_data.items():
        if "," in label:  # words are written and parsed comma-joined
            raise SchemaError(file, f"generators.{label}", "label must not contain ','")
        _expect(gen_table, dict, file, f"generators.{label}", "an object")
        for state in states:
            if state not in gen_table:
                raise SchemaError(
                    file, f"generators.{label}.{state}", "missing entry for state"
                )
        mapped = {}
        for state, target in gen_table.items():
            if state not in state_set:
                raise SchemaError(
                    file, f"generators.{label}.{state}", "not a declared state"
                )
            _expect(target, str, file, f"generators.{label}.{state}", "a string")
            if target not in state_set:
                raise SchemaError(
                    file,
                    f"generators.{label}.{state}",
                    f"target {target!r} is not a declared state",
                )
            mapped[state] = target
        if label == ID_LABEL and any(k != v for k, v in mapped.items()):
            raise SchemaError(
                file, f"generators.{ID_LABEL}", "must be the identity map"
            )
        generators[label] = TotalMap(state_fs, state_fs, mapped)

    return ActionModel(state_fs, space, generators, process)


def load_model(path: str) -> ActionModel:
    return model_from_dict(load_json(path), path)


def model_to_dict(model: ActionModel) -> dict:
    space = model.outcomes
    return {
        "states": list(model.states.elements),
        "variables": [
            {"id": vid, "values": list(dom.elements)}
            for vid, dom in space.variables
        ],
        "process": {
            x: list(space.split(y)) for x, y in model.process.table.items()
        },
        "generators": {
            label: dict(gen.table)
            for label, gen in model.generators.items()
            if label != ID_LABEL
        },
    }


# --- morphisms ---------------------------------------------------------------

def _resolve_model(entry: Any, file: str, path: str, base_dir: str) -> ActionModel:
    if isinstance(entry, str):
        ref = entry if os.path.isabs(entry) else os.path.join(base_dir, entry)
        return load_model(ref)
    if isinstance(entry, dict):
        return model_from_dict(entry, f"{file}:{path}")
    raise SchemaError(file, path, "expected a file reference or an inline model")


def load_morphism(path: str) -> ModelMorphism:
    data = load_json(path)
    _expect(data, dict, path, "$", "an object")
    for key in ("source_model", "target_model", "state_map", "outcome_map"):
        if key not in data:
            raise SchemaError(path, f"$.{key}", "missing required key")
    base_dir = os.path.dirname(os.path.abspath(path))
    source = _resolve_model(data["source_model"], path, "source_model", base_dir)
    target = _resolve_model(data["target_model"], path, "target_model", base_dir)

    state_data = _expect(data["state_map"], dict, path, "state_map", "an object")
    for s in source.states.elements:
        if s not in state_data:
            raise SchemaError(path, f"state_map.{s}", "missing entry for state")
    try:
        state_map = TotalMap(source.states, target.states, dict(state_data))
    except ValueError as exc:
        raise SchemaError(path, "state_map", str(exc)) from None

    out_data = _expect(data["outcome_map"], dict, path, "outcome_map", "an object")
    table = {}
    for y in source.outcomes.total.elements:
        if y not in out_data:
            raise SchemaError(path, f"outcome_map.{y}", "missing entry for outcome")
    for y, value in out_data.items():
        values = _string_list(value, path, f"outcome_map.{y}")
        table[y] = join_values(values)
    try:
        outcome_map = TotalMap(source.outcomes.total, target.outcomes.total, table)
    except ValueError as exc:
        raise SchemaError(path, "outcome_map", str(exc)) from None

    alphabet = data.get("alphabet_map")
    if alphabet is not None:
        _expect(alphabet, dict, path, "alphabet_map", "an object")
    try:
        return ModelMorphism(source, target, state_map, outcome_map, alphabet)
    except ValueError as exc:
        raise SchemaError(path, "$", str(exc)) from None


def morphism_to_dict(
    m: ModelMorphism,
    source_ref: Optional[str] = None,
    target_ref: Optional[str] = None,
) -> dict:
    space = m.target.outcomes
    return {
        "source_model": source_ref or model_to_dict(m.source),
        "target_model": target_ref or model_to_dict(m.target),
        "state_map": dict(m.state_map.table),
        "outcome_map": {
            y: list(space.split(v)) for y, v in m.outcome_map.table.items()
        },
        "alphabet_map": dict(m.alphabet_map),
    }


# --- SCMs --------------------------------------------------------------------

def scm_from_dict(data: Any, file: str = "<inline>") -> Scm:
    _expect(data, dict, file, "$", "an object")
    endo_data = _expect(data.get("endogenous"), list, file, "endogenous", "a list")
    if not endo_data:
        raise SchemaError(file, "endogenous", "must not be empty")
    exo_data = data.get("exogenous", [])
    _expect(exo_data, list, file, "exogenous", "a list")
    if len(exo_data) > len(endo_data):
        raise SchemaError(
            file, "exogenous", "more exogenous than endogenous variables"
        )

    exogenous = []
    for i, entry in enumerate(exo_data):
        _expect(entry, dict, file, f"exogenous[{i}]", "an object")
        uid = _expect(entry.get("id"), str, file, f"exogenous[{i}].id", "a string")
        values = _string_list(entry.get("values"), file, f"exogenous[{i}].values")
        try:
            exogenous.append((uid, FiniteSet(uid, tuple(values))))
        except ValueError as exc:
            raise SchemaError(file, f"exogenous[{i}].values", str(exc)) from None

    endogenous = []
    parents = {}
    functions = {}
    for i, entry in enumerate(endo_data):
        _expect(entry, dict, file, f"endogenous[{i}]", "an object")
        vid = _expect(entry.get("id"), str, file, f"endogenous[{i}].id", "a string")
        values = _string_list(entry.get("values"), file, f"endogenous[{i}].values")
        try:
            endogenous.append((vid, FiniteSet(vid, tuple(values))))
        except ValueError as exc:
            raise SchemaError(file, f"endogenous[{i}].values", str(exc)) from None
        parents[vid] = tuple(
            _string_list(entry.get("parents", []), file, f"endogenous[{i}].parents")
        )
        table_data = _expect(
            entry.get("function_table"),
            dict,
            file,
            f"endogenous[{i}].function_table",
            "an object",
        )
        table = {}
        arity = len(parents[vid]) + 1
        for key, value in table_data.items():
            parts = tuple(key.split("|"))
            if len(parts) != arity:
                raise SchemaError(
                    file,
                    f"endogenous[{i}].function_table.{key}",
                    f"key must have {arity} separated values",
                )
            _expect(
                value, str, file, f"endogenous[{i}].function_table.{key}", "a string"
            )
            table[parts] = value
        functions[vid] = table

    # Pad with unit exogenous variables where the SCM declares none.
    while len(exogenous) < len(endogenous):
        vid = endogenous[len(exogenous)][0]
        uid = f"U_{vid}"
        exogenous.append((uid, FiniteSet(uid, ("*",))))

    try:
        return Scm(tuple(exogenous), tuple(endogenous), parents, functions)
    except (ValueError, CausalGroundError) as exc:
        raise SchemaError(file, "$", str(exc)) from None


def load_scm(path: str) -> Scm:
    return scm_from_dict(load_json(path), path)


def scm_to_dict(scm: Scm) -> dict:
    return {
        "exogenous": [
            {"id": uid, "values": list(dom.elements)} for uid, dom in scm.exogenous
        ],
        "endogenous": [
            {
                "id": vid,
                "values": list(dom.elements),
                "parents": list(scm.parents[vid]),
                "function_table": {
                    "|".join(key): value
                    for key, value in sorted(scm.functions[vid].items())
                },
            }
            for vid, dom in scm.endogenous
        ],
    }


# --- domino scenarios and families -------------------------------------------

def _cell(data: Any, file: str, path: str) -> tuple[int, int]:
    _expect(data, list, file, path, "a [x, y] pair")
    if len(data) != 2 or not all(isinstance(v, int) for v in data):
        raise SchemaError(file, path, "expected two integers")
    return (data[0], data[1])


def scenario_from_dict(data: Any, file: str = "<inline>"):
    """Parse a scenario file into (state, census, action descriptors)."""
    _expect(data, dict, file, "$", "an object")
    grid_data = _expect(data.get("grid"), list, file, "grid", "a [w, h] pair")
    grid = _cell(grid_data, file, "grid")
    dominoes = []
    census = []
    for i, entry in enumerate(_expect(data.get("dominoes"), list, file, "dominoes", "a list")):
        _expect(entry, dict, file, f"dominoes[{i}]", "an object")
        did = _expect(entry.get("id"), str, file, f"dominoes[{i}].id", "a string")
        cell = _cell(entry.get("cell"), file, f"dominoes[{i}].cell")
        routing_data = entry.get("routing")
        if routing_data is not None:
            _expect(routing_data, dict, file, f"dominoes[{i}].routing", "an object")
        try:
            routing = routing_from_mapping(routing_data)
        except ValueError as exc:
            raise SchemaError(file, f"dominoes[{i}].routing", str(exc)) from None
        tag = str(entry.get("tag", "0"))
        dominoes.append(Domino(did, cell, routing, tag))
        census.append(did)
    barriers = set()
    for i, entry in enumerate(data.get("barriers", [])):
        _expect(entry, list, file, f"barriers[{i}]", "a pair of cells")
        if len(entry) != 2:
            raise SchemaError(file, f"barriers[{i}]", "expected two cells")
        a = _cell(entry[0], file, f"barriers[{i}][0]")
        b = _cell(entry[1], file, f"barriers[{i}][1]")
        try:
            barriers.add(edge_between(a, b))
        except ValueError as exc:
            raise SchemaError(file, f"barriers[{i}]", str(exc)) from None
    push = None
    push_data = data.get("push")
    if push_data is not None:
        _expect(push_data, dict, file, "push", "an object")
        push = (
            _expect(push_data.get("id"), str, file, "push.id", "a string"),
            _expect(push_data.get("dir"), str, file, "push.dir", "a string"),
        )
    actions = data.get("actions", [])
    _expect(actions, list, file, "actions", "a list")
    for i, entry in enumerate(actions):
        _expect(entry, dict, file, f"actions[{i}]", "an object")
        if "action" not in entry:
            raise SchemaError(file, f"actions[{i}].action", "missing required key")
    try:
        state = MicroState(grid, tuple(dominoes), frozenset(barriers), push)
    except ValueError as exc:
        raise SchemaError(file, "$", str(exc)) from None
    return state, tuple(census), list(actions)


def load_scenario(path: str):
    return scenario_from_dict(load_json(path), path)


def family_from_dict(data: Any, file: str = "<inline>") -> LineFamily:
    _expect(data, dict, file, "$", "an object")
    spec = _expect(data.get("family"), dict, file, "family", "an object")
    length = _expect(spec.get("length"), int, file, "family.length", "an integer")
    ids = tuple(_string_list(spec.get("ids"), file, "family.ids"))
    max_dominoes = _expect(
        spec.get("max_dominoes", len(ids)), int, file, "family.max_dominoes", "an integer"
    )
    tags = tuple(_string_list(spec.get("tags", ["0"]), file, "family.tags"))
    edges = spec.get("barrier_edges", [])
    _expect(edges, list, file, "family.barrier_edges", "a list of integers")
    push_dirs = tuple(
        _string_list(spec.get("push_dirs", ["E", "W"]), file, "family.push_dirs")
    )
    try:
        family = LineFamily(length, ids, max_dominoes, tags, tuple(edges), push_dirs)
    except ValueError as exc:
        raise SchemaError(file, "family", str(exc)) from None

    layouts_data = _expect(
        spec.get("layouts", {}), dict, file, "family.layouts", "an object"
    )
    layouts = []
    for name, layout_data in layouts_data.items():
        path = f"family.layouts.{name}"
        _expect(layout_data, dict, file, path, "an object")
        if "chain" in layout_data:
            count = _expect(layout_data["chain"], int, file, f"{path}.chain", "an integer")
            layouts.append((name, family.chain(count)))
            continue
        present_data = _expect(
            layout_data.get("present"), dict, file, f"{path}.present", "an object"
        )
        barriers = layout_data.get("barriers", [])
        _expect(barriers, list, file, f"{path}.barriers", "a list")
        push = layout_data.get("push")
        if push is not None:
            push = tuple(_string_list(push, file, f"{path}.push"))
        try:
            layouts.append((name, family.state(present_data, barriers, push)))
        except (ValueError, KeyError) as exc:
            raise SchemaError(file, path, str(exc)) from None

    actions = tuple(_string_list(spec.get("actions", []), file, "family.actions"))
    return replace(family, layouts=tuple(layouts), actions=actions)


def load_family(path: str) -> LineFamily:
    return family_from_dict(load_json(path), path)


# --- witness maps and mechanism records ---------------------------------------

def witness_from_dict(
    data: Any, domain: FiniteSet, codomain: FiniteSet, file: str = "<inline>"
) -> TotalMap:
    _expect(data, dict, file, "$", "an object")
    table = _expect(data.get("table"), dict, file, "table", "an object")
    try:
        return TotalMap(domain, codomain, dict(table))
    except ValueError as exc:
        raise SchemaError(file, "table", str(exc)) from None


def witness_to_dict(witness: TotalMap) -> dict:
    return {
        "domain": list(witness.domain.elements),
        "codomain": list(witness.codomain.elements),
        "table": dict(witness.table),
    }


def record_to_dict(record: MechanismRecord) -> dict:
    return {
        "target": record.target,
        "parents": list(record.parents),
        "map": witness_to_dict(record.map),
        "context": list(record.context),
        "invariant_under": list(record.invariant_under),
        "violated_by": [list(pair) for pair in record.violated_by],
    }


def records_from_dict(
    data: Any, model: ActionModel, file: str = "<inline>"
) -> list[MechanismRecord]:
    entries = _expect(data, list, file, "$", "a list of mechanism records")
    space = model.outcomes
    records = []
    for i, entry in enumerate(entries):
        _expect(entry, dict, file, f"[{i}]", "an object")
        target = _expect(entry.get("target"), str, file, f"[{i}].target", "a string")
        parents = tuple(_string_list(entry.get("parents", []), file, f"[{i}].parents"))
        try:
            parents = space.normalize_vars(parents)
            domain = space.subspace(parents).total
            codomain = space.subspace((target,)).total
        except CausalGroundError as exc:
            raise SchemaError(file, f"[{i}]", str(exc)) from None
        witness = witness_from_dict(
            _expect(entry.get("map"), dict, file, f"[{i}].map", "an object"),
            domain,
            codomain,
            file,
        )
        context = tuple(_string_list(entry.get("context", []), file, f"[{i}].context"))
        invariant = tuple(
            _string_list(entry.get("invariant_under", []), file, f"[{i}].invariant_under")
        )
        violated = []
        for j, pair in enumerate(entry.get("violated_by", [])):
            pair = _string_list(pair, file, f"[{i}].violated_by[{j}]")
            if len(pair) != 2:
                raise SchemaError(
                    file, f"[{i}].violated_by[{j}]", "expected [word, state]"
                )
            violated.append((pair[0], pair[1]))
        records.append(
            MechanismRecord(target, parents, witness, context, invariant, tuple(violated))
        )
    return records
